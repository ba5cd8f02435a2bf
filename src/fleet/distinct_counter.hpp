// Per-host distinct-destination counters for the fleet containment pipeline.
//
// The paper's scheme charges a host one unit per *new unique* destination
// address; everything downstream (flag at f·M, remove at M) consumes only the
// running distinct count.  The pipeline therefore isolates "how distinctness
// is judged" behind this interface with two backends:
//
//   * Exact — a flat open-addressing set (reusing worms::net::AddressTable, the same
//     robin-hood table the scan-level simulator uses).  O(distinct) memory
//     per host, zero error: the reference the approximate backend is judged
//     against.
//   * Hll — a trace::HyperLogLog sketch.  Fixed 2^precision bytes per host
//     regardless of cardinality (~1.04/sqrt(2^p) relative error), the shape
//     production deployments use when "per-host state × fleet size" must stay
//     bounded (cf. hyper-compact estimator literature, arXiv:1602.03153).
//   * Compact — a seeded virtual slice of a fleet::SharedSketchPool bank
//     (DESIGN.md §13): a few *bits* per host amortized over a shared
//     register file, with cross-host noise cancelled by the pool's
//     bank-level estimate.  The tens-of-millions-of-hosts shape.
//
// add() returns how many new distinct units the observation contributed and
// count() the running tally; the shard worker applies the budget rule
// (core::scan_budget_step) to the tally's step, so the rule never needs to
// know which backend produced the increments.
//
// All backends are checkpointable (the fault-tolerance layer serializes
// their full state) and degrade one rung at a time — exact → HLL → compact —
// each switch carrying the tally forward as the new baseline so a host's
// spent budget is neither refunded nor double-charged at the instant of the
// switch.  A fault plan's degrade clauses walk the rungs.
#pragma once

#include <cstdint>
#include <memory>

#include "fleet/shared_sketch_pool.hpp"
#include "net/address_table.hpp"
#include "trace/hyperloglog.hpp"

namespace worms::fleet {

enum class CounterBackend : std::uint8_t { Exact, Hll, Compact };

class DistinctCounter {
 public:
  virtual ~DistinctCounter() = default;

  /// Observes one destination.  Returns the number of new distinct
  /// destinations this observation added to the backend's tally: 0 for a
  /// recognized repeat, 1 for a definitely-new address, possibly more for an
  /// approximate backend whose estimate jumped.  Deterministic in the
  /// sequence of observations.
  virtual std::uint32_t add(std::uint32_t destination) = 0;

  /// Current distinct tally (monotone between resets; equals the sum of all
  /// add() return values since the last reset).
  [[nodiscard]] virtual std::uint64_t count() const noexcept = 0;

  /// Containment-cycle reset (paper step 4): forget everything.
  virtual void reset() = 0;

  /// Bytes of state held right now (the PipelineMetrics footprint gauge).
  [[nodiscard]] virtual std::size_t memory_bytes() const noexcept = 0;

  /// Which backend this is — drives checkpoint payload tagging and the
  /// degraded-shard accounting.
  [[nodiscard]] virtual CounterBackend backend() const noexcept = 0;
};

/// Exact backend over worms::net::AddressTable.
class ExactCounter final : public DistinctCounter {
 public:
  std::uint32_t add(std::uint32_t destination) override {
    return seen_.insert(worms::net::Ipv4Address(destination), 0) ? 1u : 0u;
  }
  [[nodiscard]] std::uint64_t count() const noexcept override { return seen_.size(); }
  void reset() override { seen_ = worms::net::AddressTable(16); }
  [[nodiscard]] std::size_t memory_bytes() const noexcept override {
    return sizeof(*this) + seen_.memory_bytes();
  }
  [[nodiscard]] CounterBackend backend() const noexcept override {
    return CounterBackend::Exact;
  }

  /// The underlying set — checkpoint serialization and exact→HLL degradation.
  [[nodiscard]] const worms::net::AddressTable& table() const noexcept { return seen_; }

  /// Prefetches the set slot add(destination) will probe first (always
  /// inlined, like the table prefetches it wraps).
  [[gnu::always_inline]] void prefetch(std::uint32_t destination) const noexcept {
    seen_.prefetch(worms::net::Ipv4Address(destination));
  }

 private:
  worms::net::AddressTable seen_{16};
};

/// Approximate backend over trace::HyperLogLog.  The reported count is the
/// floored sketch estimate, surfaced as increments: an observation yields
/// max(0, floor(estimate) - reported) new units, so the policy-side count
/// tracks the estimate while staying integer-monotone.
class HllCounter final : public DistinctCounter {
 public:
  explicit HllCounter(int precision) : sketch_(precision), precision_(precision) {}

  /// Checkpoint restore: resume from a serialized sketch and reported tally.
  HllCounter(trace::HyperLogLog sketch, std::uint64_t reported)
      : sketch_(std::move(sketch)), precision_(sketch_.precision()), reported_(reported) {}

  /// Degradation: absorb an exact counter's set, carrying its exact
  /// tally forward as the reported baseline so the host's spent budget is
  /// neither refunded nor double-charged by the switch.
  HllCounter(int precision, const worms::net::AddressTable& seen, std::uint64_t reported)
      : sketch_(precision), precision_(precision), reported_(reported) {
    seen.for_each([this](worms::net::Ipv4Address addr, std::uint32_t) { sketch_.add(addr.value()); });
  }

  std::uint32_t add(std::uint32_t destination) override {
    sketch_.add(destination);
    const auto estimate = static_cast<std::uint64_t>(sketch_.estimate());
    if (estimate <= reported_) return 0;
    const std::uint64_t delta = estimate - reported_;
    reported_ = estimate;
    return static_cast<std::uint32_t>(delta);
  }
  [[nodiscard]] std::uint64_t count() const noexcept override { return reported_; }
  void reset() override {
    sketch_ = trace::HyperLogLog(precision_);
    reported_ = 0;
  }
  [[nodiscard]] std::size_t memory_bytes() const noexcept override {
    return sizeof(*this) + sketch_.register_count();
  }
  [[nodiscard]] CounterBackend backend() const noexcept override { return CounterBackend::Hll; }

  /// The underlying sketch — checkpoint serialization.
  [[nodiscard]] const trace::HyperLogLog& sketch() const noexcept { return sketch_; }

 private:
  trace::HyperLogLog sketch_;
  int precision_;
  std::uint64_t reported_ = 0;
};

/// Compact backend: a virtual slice of a shared SketchBank.  The counter
/// itself holds only (epoch, reported tally, anchor) — the registers live in
/// the bank, shared with every other host in the bucket.
///
/// The reported count is an anchored ratchet over the pool's noise-cancelled
/// estimate: at creation (and at every reset / backend switch) the counter
/// records `anchor = baseline − floor(n̂_now)`, cancelling whatever estimate
/// the slice already carries, and thereafter reports
/// max(reported, floor(n̂) + anchor).  A cycle reset bumps the epoch, which
/// reseeds the slice (fresh registers to ratchet over) rather than erasing
/// shared state other hosts still depend on.
class CompactCounter final : public DistinctCounter {
 public:
  /// Fresh counter for `host`: anchors at a zero baseline against the
  /// slice's current noise.
  CompactCounter(SketchBank& bank, std::uint32_t host) : bank_(&bank), host_(host) {
    bank_->attach_host();
    rebase(0);
  }

  /// Degrade from exact: re-adds the exact set into the slice (so future
  /// repeats of those destinations tend to land on already-raised
  /// registers), then anchors at the exact tally.
  CompactCounter(SketchBank& bank, std::uint32_t host, const worms::net::AddressTable& seen,
                 std::uint64_t baseline)
      : bank_(&bank), host_(host) {
    bank_->attach_host();
    const std::uint64_t seed = compact_slice_seed(host_, epoch_);
    seen.for_each([&](worms::net::Ipv4Address addr, std::uint32_t) {
      bank_->add(seed, addr.value());
    });
    rebase(baseline);
  }

  /// Degrade from HLL: the sketch cannot be replayed into the slice, so the
  /// tally carries over as the baseline with an empty slice behind it —
  /// re-observing destinations seen before the switch may charge again
  /// (conservative: over-counting never un-flags a worm).
  CompactCounter(SketchBank& bank, std::uint32_t host, std::uint64_t baseline)
      : bank_(&bank), host_(host) {
    bank_->attach_host();
    rebase(baseline);
  }

  /// Checkpoint restore: exact internal state, slice re-derived from
  /// (host, epoch).
  CompactCounter(SketchBank& bank, std::uint32_t host, std::uint64_t epoch,
                 std::uint64_t reported, std::int64_t anchor)
      : bank_(&bank), host_(host), epoch_(epoch), reported_(reported), anchor_(anchor) {
    bank_->attach_host();
  }

  ~CompactCounter() override { bank_->detach_host(); }
  CompactCounter(const CompactCounter&) = delete;
  CompactCounter& operator=(const CompactCounter&) = delete;

  std::uint32_t add(std::uint32_t destination) override {
    const std::uint64_t seed = compact_slice_seed(host_, epoch_);
    bank_->add(seed, destination);
    const std::uint64_t target = current_target(seed);
    if (target <= reported_) return 0;
    const std::uint64_t delta = target - reported_;
    reported_ = target;
    return static_cast<std::uint32_t>(delta);
  }
  [[nodiscard]] std::uint64_t count() const noexcept override { return reported_; }
  void reset() override {
    ++epoch_;  // fresh slice; the old one's registers stay behind as bank noise
    rebase(0);
  }
  [[nodiscard]] std::size_t memory_bytes() const noexcept override {
    return sizeof(*this) + bank_->amortized_bytes();
  }
  [[nodiscard]] CounterBackend backend() const noexcept override {
    return CounterBackend::Compact;
  }

  /// Checkpoint codec hooks (the slice itself lives in the bank snapshot).
  [[nodiscard]] std::uint64_t epoch() const noexcept { return epoch_; }
  [[nodiscard]] std::int64_t anchor() const noexcept { return anchor_; }

 private:
  [[nodiscard]] std::uint64_t current_target(std::uint64_t seed) const noexcept {
    const auto estimate = static_cast<std::int64_t>(bank_->host_estimate(seed));
    const std::int64_t target = estimate + anchor_;
    return target > 0 ? static_cast<std::uint64_t>(target) : 0;
  }
  /// Re-anchors so count() == baseline at this instant.
  void rebase(std::uint64_t baseline) noexcept {
    const auto estimate = static_cast<std::int64_t>(
        bank_->host_estimate(compact_slice_seed(host_, epoch_)));
    anchor_ = static_cast<std::int64_t>(baseline) - estimate;
    reported_ = baseline;
  }

  SketchBank* bank_;
  std::uint32_t host_;
  std::uint64_t epoch_ = 0;
  std::uint64_t reported_ = 0;
  std::int64_t anchor_ = 0;
};

/// Factory the pipeline config maps onto.  `hll_precision` is ignored by the
/// exact backend.  The compact backend needs a bank to live in, so it is
/// constructed directly (see ContainmentPipeline's shard counter factory);
/// passing it here throws.
[[nodiscard]] std::unique_ptr<DistinctCounter> make_distinct_counter(CounterBackend backend,
                                                                     int hll_precision);

/// "exact" / "hll" / "compact" — the wormctl --counter spelling.
[[nodiscard]] const char* to_string(CounterBackend backend) noexcept;

}  // namespace worms::fleet
