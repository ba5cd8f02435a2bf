// Shared-register sketch pool — the hyper-compact distinct-counter substrate
// (DESIGN.md §13, after the virtual-HLL / register-sharing estimators of
// arXiv:1602.03153).
//
// The exact and HLL backends pay per-host memory (O(distinct) slots or
// 2^precision bytes).  At fleet scale the binding constraint is
// "per-host state × monitored hosts", so this pool inverts the layout: one
// shared bank of byte-wide HLL registers per host *bucket*, with every host
// owning a seeded virtual *slice* of `s` registers scattered through its
// bank by double hashing.  Amortized cost is a few bits per host; the price
// is cross-host noise (other hosts' traffic raises registers in your slice),
// which the estimator cancels:
//
//     E_v = HLL estimate over the host's s slice registers
//     E_b = HLL estimate over the whole m-register bank
//     n̂  = max(0, (m·E_v − s·E_b) / (m − s))
//
// (E_v sees the host's own n items plus a ≈ s/m share of everyone else's;
// E_b sees everything; solving the 2×2 system gives the line above.)
//
// Bank partitioning is the determinism keystone: hosts are bucketed into a
// FIXED kCompactBanks = 1024 banks by host id, and the pipeline routes hosts
// to shards by (host % kCompactBanks) % shards, so every bank's hosts
// colocate on one shard and a bank's contents are a pure function of the
// record stream — independent of the shard count.  Compact verdicts and
// checkpoints are therefore bit-identical for 1, 2, 4, … shards, and a
// snapshot written at one shard count restores at any other (banks rehome by
// bank % new_shards, always landing with their hosts).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

namespace worms::fleet {

/// Fixed host-bucket count.  Also the pipeline's maximum shard count: with
/// routing (host % kCompactBanks) % shards, more shards than banks would
/// leave shards permanently idle.
inline constexpr std::uint32_t kCompactBanks = 1024;

/// Bank index for a host — a pure function of the host id.
[[nodiscard]] constexpr std::uint32_t compact_bank_of(std::uint32_t host) noexcept {
  return host % kCompactBanks;
}

/// Sizing knobs for the shared pool, set once per pipeline.
struct CompactPoolConfig {
  /// Amortized register bits per expected host.  Total register budget is
  /// bits_per_host × expected_hosts bits, split evenly across the banks
  /// (each bank's register count rounds up to a power of two).
  std::uint32_t bits_per_host = 8;
  /// Virtual registers per host slice (the `s` above).  More slices → lower
  /// estimator variance, but a bank must keep m ≥ 2·s.
  std::uint32_t virtual_registers = 128;
  /// Expected monitored-host population the bit budget is amortized over.
  std::uint64_t expected_hosts = 1u << 20;

  /// Registers per bank (power of two).  Throws on out-of-range knobs or a
  /// budget too small for the slice width (m < 2·s).
  [[nodiscard]] std::uint32_t registers_per_bank() const;
  void validate() const;

  friend bool operator==(const CompactPoolConfig&, const CompactPoolConfig&) = default;
};

/// One shared register bank: a flat HLL register file plus the incremental
/// whole-bank state (inverse power sum, zero count) that makes the bank-level
/// estimate O(1).  Slice-level estimates recompute over the s slice registers
/// on demand in exact integer arithmetic — deterministic by construction (no
/// incremental float state to drift across checkpoint/restore).  A version
/// counter, bumped on every register raise and on restore(), keys a
/// one-entry memo of the last host estimate, so a host whose add() raised
/// nothing in the bank since its last estimate skips the slice rescan.
///
/// Not thread-safe, const members included (host_estimate() writes the
/// memo): a bank belongs to the one shard worker that owns its hosts.
class SketchBank {
 public:
  SketchBank(std::uint32_t bank_index, const CompactPoolConfig& config);

  /// Observes `value` into the slice addressed by `slice_seed`.
  void add(std::uint64_t slice_seed, std::uint64_t value) noexcept;

  /// Bank register index of virtual register `j` (< s) of a slice.
  [[nodiscard]] std::uint32_t slice_register(std::uint64_t slice_seed,
                                             std::uint32_t j) const noexcept;

  /// Σ 2^-reg and the zero count over one slice's s registers — the inputs
  /// of E_v.  The sum is exact, hence independent of summation order.
  struct SliceSum {
    double inverse_sum;
    std::uint32_t zero_registers;
  };
  [[nodiscard]] SliceSum slice_sum(std::uint64_t slice_seed) const noexcept;

  /// HLL estimate over one host's s slice registers (E_v).
  [[nodiscard]] double slice_estimate(std::uint64_t slice_seed) const noexcept;

  /// HLL estimate over the whole bank (E_b); O(1).
  [[nodiscard]] double bank_estimate() const noexcept;

  /// Noise-cancelled per-host estimate n̂ (clamped at 0).  Memoized for the
  /// last slice asked about until the registers next change.
  [[nodiscard]] double host_estimate(std::uint64_t slice_seed) const noexcept;

  /// Live-counter accounting for amortized memory attribution.
  void attach_host() noexcept { ++attached_hosts_; }
  void detach_host() noexcept { --attached_hosts_; }
  [[nodiscard]] std::uint32_t attached_hosts() const noexcept { return attached_hosts_; }

  /// Whole-bank register bytes (the pool's real footprint)…
  [[nodiscard]] std::size_t memory_bytes() const noexcept { return registers_.size(); }
  /// …and one attached host's share of it (what a counter gauge reports).
  [[nodiscard]] std::size_t amortized_bytes() const noexcept {
    return registers_.size() / (attached_hosts_ == 0 ? 1 : attached_hosts_);
  }

  [[nodiscard]] std::uint32_t bank_index() const noexcept { return bank_index_; }
  [[nodiscard]] std::uint32_t register_count() const noexcept {
    return static_cast<std::uint32_t>(registers_.size());
  }

  /// Checkpoint codec hooks.  The incremental float state round-trips
  /// verbatim (restoring from recomputation could differ in the last ulp and
  /// fork the estimate sequence after resume); restore() validates the
  /// registers against it and throws support::PreconditionError on mismatch.
  [[nodiscard]] const std::vector<std::uint8_t>& registers() const noexcept {
    return registers_;
  }
  [[nodiscard]] double inverse_sum() const noexcept { return inverse_sum_; }
  [[nodiscard]] std::uint64_t zero_registers() const noexcept { return zero_registers_; }
  void restore(const std::vector<std::uint8_t>& registers, double inverse_sum,
               std::uint64_t zero_registers);

 private:
  std::uint32_t bank_index_;
  std::uint32_t slice_width_;              ///< s, from the pool config
  std::uint32_t mask_;                     ///< register_count − 1 (power of two)
  std::vector<std::uint8_t> registers_;    ///< byte-wide HLL ranks
  double inverse_sum_;                     ///< Σ 2^-reg over the whole bank
  std::uint64_t zero_registers_;           ///< bank registers still at 0
  std::uint32_t attached_hosts_ = 0;
  std::uint64_t version_ = 1;              ///< bumped on every state change
  struct Memo {
    std::uint64_t slice_seed = 0;
    std::uint64_t version = 0;             ///< 0 never matches: starts empty
    double estimate = 0.0;
  };
  mutable Memo memo_;                      ///< last host_estimate() result
};

/// The per-shard pool: banks created lazily as hosts appear, keyed by bank
/// index.  std::map so snapshot iteration is index-ordered without a sort.
class SharedSketchPool {
 public:
  explicit SharedSketchPool(const CompactPoolConfig& config) : config_(config) {
    config_.validate();
  }

  /// The bank for `bank_index`, created on first use.
  [[nodiscard]] SketchBank& bank_for(std::uint32_t bank_index);

  /// Lookup without creation (nullptr when the bank never materialized).
  [[nodiscard]] SketchBank* find_bank(std::uint32_t bank_index) noexcept;

  [[nodiscard]] const CompactPoolConfig& config() const noexcept { return config_; }
  [[nodiscard]] const std::map<std::uint32_t, std::unique_ptr<SketchBank>>& banks()
      const noexcept {
    return banks_;
  }

  /// Total register bytes across materialized banks.
  [[nodiscard]] std::size_t memory_bytes() const noexcept;

 private:
  CompactPoolConfig config_;
  std::map<std::uint32_t, std::unique_ptr<SketchBank>> banks_;
};

/// Slice seed for (host, epoch) — a pure function, identical on every shard
/// layout and across checkpoint/restore.  Cycle resets bump the epoch, which
/// rehomes the host onto a fresh slice (stale contributions stay behind as
/// bank noise the estimator's E_b term cancels).
[[nodiscard]] std::uint64_t compact_slice_seed(std::uint32_t host, std::uint64_t epoch) noexcept;

}  // namespace worms::fleet
