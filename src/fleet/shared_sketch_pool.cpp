#include "fleet/shared_sketch_pool.hpp"

#include <bit>
#include <cmath>

#include "support/check.hpp"
#include "support/inverse_pow2.hpp"
#include "support/rng.hpp"

namespace worms::fleet {

namespace {

double alpha_for(std::size_t m) noexcept {
  switch (m) {
    case 16: return 0.673;
    case 32: return 0.697;
    case 64: return 0.709;
    default: return 0.7213 / (1.0 + 1.079 / static_cast<double>(m));
  }
}

std::uint64_t hash64(std::uint64_t x) noexcept {
  std::uint64_t s = x;
  return support::splitmix64(s);
}

/// Raw-vs-linear-counting estimate shared by the slice and bank paths.
double hll_estimate(std::size_t m, double inverse_sum, std::uint64_t zeros) noexcept {
  const double md = static_cast<double>(m);
  const double raw = alpha_for(m) * md * md / inverse_sum;
  if (raw <= 2.5 * md && zeros != 0) {
    return md * std::log(md / static_cast<double>(zeros));
  }
  return raw;
}

/// Slice addressing derived from the slice seed: a double-hashed arithmetic
/// walk base + j·step through the bank (step odd, bank size a power of two,
/// so the s probed registers are distinct), plus an independent value-hash
/// seed so two hosts sharing a register disagree on which of their items
/// land there.
struct SliceGeometry {
  std::uint32_t base;
  std::uint32_t step;
  std::uint64_t value_seed;

  [[nodiscard]] std::uint32_t index(std::uint32_t j, std::uint32_t mask) const noexcept {
    return (base + j * step) & mask;
  }
};

SliceGeometry slice_geometry(std::uint64_t slice_seed, std::uint32_t mask) noexcept {
  std::uint64_t s = slice_seed;
  const std::uint64_t a = support::splitmix64(s);
  const std::uint64_t b = support::splitmix64(s);
  return {static_cast<std::uint32_t>(a) & mask,
          (static_cast<std::uint32_t>(a >> 32) | 1u), b};
}

/// Largest register rank a bank stores.
constexpr unsigned kMaxRank = 33;

/// Register rank of one hashed value: leading-zero count of the low 32 hash
/// bits, 1-based; kMaxRank for an all-zero remainder.  32 bits of rank
/// entropy caps the per-register scale around 2^32 — far beyond any per-host
/// cardinality the containment policy cares about.
std::uint8_t rank_of(std::uint32_t bits) noexcept {
  return bits == 0 ? kMaxRank : static_cast<std::uint8_t>(std::countl_zero(bits) + 1);
}

}  // namespace

std::uint32_t CompactPoolConfig::registers_per_bank() const {
  const std::uint64_t total_bytes = bits_per_host * expected_hosts / 8;
  std::uint64_t per_bank = total_bytes / kCompactBanks;
  if (per_bank < 2) per_bank = 2;
  return static_cast<std::uint32_t>(std::bit_ceil(per_bank));
}

void CompactPoolConfig::validate() const {
  WORMS_EXPECTS(bits_per_host >= 1 && bits_per_host <= 64 &&
                "compact bits-per-host must be in [1, 64]");
  WORMS_EXPECTS(virtual_registers >= 8 && virtual_registers <= 4096 &&
                "compact virtual-registers must be in [8, 4096]");
  WORMS_EXPECTS(expected_hosts >= 1024 && "compact expected-hosts must be >= 1024");
  const std::uint64_t m = registers_per_bank();
  WORMS_EXPECTS(m >= 2 * static_cast<std::uint64_t>(virtual_registers) &&
                "compact register budget too small: need bank registers >= 2x "
                "virtual-registers (raise --compact-bits-per-host or "
                "--compact-expected-hosts, or lower --compact-virtual-registers)");
  WORMS_EXPECTS(m <= (1u << 26) && "compact bank register count out of range");
}

SketchBank::SketchBank(std::uint32_t bank_index, const CompactPoolConfig& config)
    : bank_index_(bank_index), slice_width_(config.virtual_registers) {
  const std::uint32_t m = config.registers_per_bank();
  mask_ = m - 1;
  registers_.assign(m, 0);
  inverse_sum_ = static_cast<double>(m);  // every register holds 2^-0
  zero_registers_ = m;
}

void SketchBank::add(std::uint64_t slice_seed, std::uint64_t value) noexcept {
  const SliceGeometry geo = slice_geometry(slice_seed, mask_);
  const std::uint64_t h = hash64(value ^ geo.value_seed);
  // Multiply-shift range reduction of the high hash bits picks the virtual
  // register; the low bits supply the rank.
  const auto j = static_cast<std::uint32_t>(((h >> 32) * slice_width_) >> 32);
  const std::uint8_t rank = rank_of(static_cast<std::uint32_t>(h));
  std::uint8_t& reg = registers_[geo.index(j, mask_)];
  if (rank <= reg) return;
  inverse_sum_ += support::kInversePow2[rank] - support::kInversePow2[reg];
  if (reg == 0) --zero_registers_;
  reg = rank;
  ++version_;
}

std::uint32_t SketchBank::slice_register(std::uint64_t slice_seed,
                                         std::uint32_t j) const noexcept {
  return slice_geometry(slice_seed, mask_).index(j, mask_);
}

SketchBank::SliceSum SketchBank::slice_sum(std::uint64_t slice_seed) const noexcept {
  // Exact in integers: each term 2^-r (r <= kMaxRank) is 2^(kMaxRank - r)
  // units of 2^-kMaxRank, and s <= 4096 terms of at most 2^33 units total at
  // most 2^45, so the sum converts to double and rescales without rounding.  A double accumulation of the same terms is exact too (every
  // partial sum is a multiple of 2^-33 below 2^12, well inside 53 bits), so
  // this matches any summation order bit for bit.
  const SliceGeometry geo = slice_geometry(slice_seed, mask_);
  std::uint64_t units = 0;
  std::uint32_t zeros = 0;
  for (std::uint32_t j = 0; j < slice_width_; ++j) {
    const std::uint8_t reg = registers_[geo.index(j, mask_)];
    units += std::uint64_t{1} << (kMaxRank - reg);
    zeros += reg == 0 ? 1u : 0u;
  }
  return {static_cast<double>(units) * support::kInversePow2[kMaxRank], zeros};
}

double SketchBank::slice_estimate(std::uint64_t slice_seed) const noexcept {
  const SliceSum sum = slice_sum(slice_seed);
  return hll_estimate(slice_width_, sum.inverse_sum, sum.zero_registers);
}

double SketchBank::bank_estimate() const noexcept {
  return hll_estimate(registers_.size(), inverse_sum_, zero_registers_);
}

double SketchBank::host_estimate(std::uint64_t slice_seed) const noexcept {
  // The estimate is a pure function of the bank state (registers and the
  // incremental sums), and version_ moves on every change to it, so a memo
  // hit returns exactly what recomputation would.
  if (memo_.version == version_ && memo_.slice_seed == slice_seed) return memo_.estimate;
  const double m = static_cast<double>(registers_.size());
  const double s = static_cast<double>(slice_width_);
  const double estimate =
      (m * slice_estimate(slice_seed) - s * bank_estimate()) / (m - s);
  memo_ = {slice_seed, version_, estimate > 0.0 ? estimate : 0.0};
  return memo_.estimate;
}

void SketchBank::restore(const std::vector<std::uint8_t>& registers, double inverse_sum,
                         std::uint64_t zero_registers) {
  WORMS_EXPECTS(registers.size() == registers_.size() &&
                "compact bank register count differs from the pool config");
  double recomputed = 0.0;
  std::uint64_t zeros = 0;
  for (const std::uint8_t r : registers) {
    WORMS_EXPECTS(r <= kMaxRank && "compact bank register rank out of range");
    recomputed += support::kInversePow2[r];
    if (r == 0) ++zeros;
  }
  WORMS_EXPECTS(zeros == zero_registers && "compact bank zero-register count mismatch");
  // The stored sum must agree with the registers up to accumulation-order
  // rounding; anything further apart is corruption the checksum missed.
  WORMS_EXPECTS(std::abs(recomputed - inverse_sum) <=
                    1e-9 * static_cast<double>(registers.size()) &&
                "compact bank inverse power sum inconsistent with registers");
  registers_ = registers;
  inverse_sum_ = inverse_sum;
  zero_registers_ = zero_registers;
  ++version_;
}

SketchBank& SharedSketchPool::bank_for(std::uint32_t bank_index) {
  WORMS_EXPECTS(bank_index < kCompactBanks);
  auto& slot = banks_[bank_index];
  if (!slot) slot = std::make_unique<SketchBank>(bank_index, config_);
  return *slot;
}

SketchBank* SharedSketchPool::find_bank(std::uint32_t bank_index) noexcept {
  const auto it = banks_.find(bank_index);
  return it == banks_.end() ? nullptr : it->second.get();
}

std::size_t SharedSketchPool::memory_bytes() const noexcept {
  std::size_t total = 0;
  for (const auto& [index, bank] : banks_) total += bank->memory_bytes();
  return total;
}

std::uint64_t compact_slice_seed(std::uint32_t host, std::uint64_t epoch) noexcept {
  return support::derive_seed(support::derive_seed(0xC03C75EEDull, host), epoch);
}

}  // namespace worms::fleet
