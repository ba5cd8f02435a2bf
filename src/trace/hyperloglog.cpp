#include "trace/hyperloglog.hpp"

#include <bit>
#include <cmath>

#include "support/check.hpp"
#include "support/inverse_pow2.hpp"
#include "support/rng.hpp"

namespace worms::trace {
namespace {

std::uint64_t hash64(std::uint64_t x) noexcept {
  // SplitMix64 finalizer: a strong 64-bit mixer.
  std::uint64_t s = x;
  return support::splitmix64(s);
}

double alpha_for(std::size_t m) noexcept {
  switch (m) {
    case 16: return 0.673;
    case 32: return 0.697;
    case 64: return 0.709;
    default: return 0.7213 / (1.0 + 1.079 / static_cast<double>(m));
  }
}

}  // namespace

HyperLogLog::HyperLogLog(int precision) : precision_(precision) {
  WORMS_EXPECTS(precision >= 4 && precision <= 16);
  registers_.assign(std::size_t{1} << precision, 0);
  inverse_sum_ = static_cast<double>(registers_.size());  // every register holds 2^-0
  zero_registers_ = registers_.size();
}

void HyperLogLog::apply_register(std::size_t idx, std::uint8_t rank) noexcept {
  const std::uint8_t old = registers_[idx];
  if (rank <= old) return;
  registers_[idx] = rank;
  // Both terms are exact powers of two, so the only rounding is the final
  // accumulation — the incremental sum tracks the full recomputation to
  // within one ulp per update.
  inverse_sum_ += support::kInversePow2[rank] - support::kInversePow2[old];
  if (old == 0) --zero_registers_;
}

void HyperLogLog::add(std::uint64_t value) noexcept {
  const std::uint64_t h = hash64(value);
  const std::size_t idx = static_cast<std::size_t>(h >> (64 - precision_));
  const std::uint64_t rest = h << precision_;
  // Rank: position of the leftmost 1-bit in the remaining 64−b bits, 1-based;
  // an all-zero remainder gets the maximum rank.
  const int rank =
      rest == 0 ? (64 - precision_ + 1) : (std::countl_zero(rest) + 1);
  apply_register(idx, static_cast<std::uint8_t>(rank));
}

double HyperLogLog::estimate() const noexcept {
  const double m = static_cast<double>(registers_.size());
  const double raw = alpha_for(registers_.size()) * m * m / inverse_sum_;
  if (raw <= 2.5 * m && zero_registers_ != 0) {
    // Small-range correction: linear counting.
    return m * std::log(m / static_cast<double>(zero_registers_));
  }
  // With a 64-bit hash the classical large-range correction is unnecessary
  // for any cardinality we could feed it.
  return raw;
}

void HyperLogLog::merge(const HyperLogLog& other) {
  WORMS_EXPECTS(precision_ == other.precision_);
  for (std::size_t i = 0; i < registers_.size(); ++i) {
    apply_register(i, other.registers_[i]);
  }
}

HyperLogLog HyperLogLog::restore(int precision, std::vector<std::uint8_t> registers,
                                 double inverse_sum, std::size_t zero_registers) {
  HyperLogLog sketch(precision);
  WORMS_EXPECTS(registers.size() == sketch.registers_.size());
  const auto max_rank = static_cast<std::uint8_t>(64 - precision + 1);
  double recomputed = 0.0;
  std::size_t zeros = 0;
  for (const std::uint8_t r : registers) {
    WORMS_EXPECTS(r <= max_rank);
    recomputed += support::kInversePow2[r];
    if (r == 0) ++zeros;
  }
  WORMS_EXPECTS(zeros == zero_registers);
  // The stored sum must agree with the registers up to accumulation-order
  // rounding; anything further apart is corruption the checksum missed.
  WORMS_EXPECTS(std::abs(recomputed - inverse_sum) <=
                1e-9 * static_cast<double>(registers.size()));
  sketch.registers_ = std::move(registers);
  sketch.inverse_sum_ = inverse_sum;
  sketch.zero_registers_ = zero_registers;
  return sketch;
}

}  // namespace worms::trace
