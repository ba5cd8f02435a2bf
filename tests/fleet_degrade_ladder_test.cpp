// The counter degrade ladder, walked end to end: exact → HLL → compact, one
// rung per scripted FaultPlan degrade event, next to the overload ladder's
// Healthy → Degraded → Shedding health transitions.  The
// load-bearing invariant at every switch is tally carry — a host's spent
// distinct budget is neither refunded nor double-charged at the instant its
// counter changes representation — plus the connection-failure policy's
// independence from whichever rung the shard sits on.
#include "fleet/distinct_counter.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "fleet/fault_plan.hpp"
#include "fleet/pipeline.hpp"
#include "fleet/shared_sketch_pool.hpp"
#include "trace/synth.hpp"

namespace worms::fleet {
namespace {

const std::vector<trace::ConnRecord>& ladder_trace() {
  static const std::vector<trace::ConnRecord> records = [] {
    trace::LblSynthConfig cfg;
    cfg.hosts = 150;
    cfg.duration = 4.0 * sim::kDay;
    return trace::synthesize_lbl_trace(cfg).records;
  }();
  return records;
}

PipelineOptions ladder_config(unsigned shards) {
  PipelineOptions cfg;
  cfg.policy.scan_limit = 500;
  cfg.policy.cycle_length = 30 * sim::kDay;
  cfg.policy.check_fraction = 0.5;
  cfg.shards = shards;
  cfg.batch_size = 128;
  return cfg;
}

// ---------------------------------------------------------------------------
// Tally carry at the switch instant, asserted on the counters directly.

TEST(FleetDegradeLadder, ExactToHllCarriesTheTallyExactly) {
  ExactCounter exact;
  for (std::uint32_t d = 0; d < 1'000; ++d) (void)exact.add(0x0A000000u + d * 11u);
  ASSERT_EQ(exact.count(), 1'000u);

  HllCounter hll(12, exact.table(), exact.count());
  // No refund, no double charge: the tally is the baseline at the instant of
  // the switch, exactly.
  EXPECT_EQ(hll.count(), 1'000u);
  // Repeats of already-charged destinations land in a sketch that has
  // absorbed the exact set, so they stay inside the HLL error envelope
  // instead of charging a second time.
  std::uint64_t recharged = 0;
  for (std::uint32_t d = 0; d < 1'000; ++d) recharged += hll.add(0x0A000000u + d * 11u);
  EXPECT_LE(recharged, 60u) << "repeats after the switch must not re-charge the budget";
  // Fresh destinations still count.
  const std::uint64_t before = hll.count();
  for (std::uint32_t d = 0; d < 500; ++d) (void)hll.add(0x0B000000u + d);
  EXPECT_GT(hll.count(), before + 400);
}

TEST(FleetDegradeLadder, ExactToCompactCarriesTheTallyExactly) {
  CompactPoolConfig config;
  config.bits_per_host = 16;
  config.expected_hosts = 1u << 20;
  SharedSketchPool pool(config);
  ExactCounter exact;
  for (std::uint32_t d = 0; d < 1'000; ++d) (void)exact.add(0x0A000000u + d * 11u);

  CompactCounter compact(pool.bank_for(compact_bank_of(5)), 5, exact.table(), exact.count());
  EXPECT_EQ(compact.count(), 1'000u) << "switch must anchor at the exact tally";
  std::uint64_t recharged = 0;
  for (std::uint32_t d = 0; d < 1'000; ++d) {
    recharged += compact.add(0x0A000000u + d * 11u);
  }
  // The exact set was replayed into the slice at the switch, so re-observing
  // it raises (almost) no registers; the envelope is estimator noise only.
  EXPECT_LE(recharged, 150u) << "repeats after the switch must not re-charge the budget";
  const std::uint64_t before = compact.count();
  for (std::uint32_t d = 0; d < 500; ++d) (void)compact.add(0x0B000000u + d);
  EXPECT_GT(compact.count(), before + 250) << "fresh destinations must still charge";
}

TEST(FleetDegradeLadder, HllToCompactCarriesTheBaselineConservatively) {
  CompactPoolConfig config;
  SharedSketchPool pool(config);
  HllCounter hll(12);
  for (std::uint32_t d = 0; d < 1'000; ++d) (void)hll.add(0x0A000000u + d * 11u);
  const std::uint64_t baseline = hll.count();

  // A sketch cannot be replayed into the slice, so the switch carries the
  // tally over an empty slice: no refund at the instant of the switch, and
  // re-observation may charge again (documented as conservative — an
  // over-count can only make containment trigger earlier).
  CompactCounter compact(pool.bank_for(compact_bank_of(6)), 6, baseline);
  EXPECT_EQ(compact.count(), baseline);
  for (std::uint32_t d = 0; d < 100; ++d) (void)compact.add(0x0A000000u + d * 11u);
  EXPECT_GE(compact.count(), baseline) << "the ratchet must never refund the baseline";
}

// ---------------------------------------------------------------------------
// The full ladder under a scripted FaultPlan.

TEST(FleetDegradeLadder, FaultPlanWalksExactToHllToCompact) {
  const auto& records = ladder_trace();
  auto cfg = ladder_config(1);
  // Two degrade clauses on one shard = two rungs: exact → HLL at batch 1,
  // HLL → compact at batch 3.
  cfg.faults.degrades.push_back({.shard = 0, .after_batches = 1});
  cfg.faults.degrades.push_back({.shard = 0, .after_batches = 3});

  const auto a = ContainmentPipeline::run(cfg, records);
  const auto b = ContainmentPipeline::run(cfg, records);
  EXPECT_EQ(a.metrics.backend_switches, 2u);
  EXPECT_EQ(a.verdicts, b.verdicts) << "the degraded run must stay deterministic";

  // Same host population as the undegraded run; approximate counting may
  // move individual flag decisions but never invents or loses hosts.
  const auto baseline = ContainmentPipeline::run(ladder_config(1), records);
  EXPECT_EQ(a.verdicts.hosts.size(), baseline.verdicts.hosts.size());

  // A third clause is a no-op: compact is the bottom rung.
  auto cfg3 = cfg;
  cfg3.faults.degrades.push_back({.shard = 0, .after_batches = 5});
  EXPECT_EQ(ContainmentPipeline::run(cfg3, records).metrics.backend_switches, 2u);
}

TEST(FleetDegradeLadder, NoBudgetRefundAcrossFaultPlanSwitches) {
  // One host accumulates a large tally while the shard degrades underneath
  // it twice: exact for the first 500 records, HLL to 1000, compact after.
  // The carried tally must survive both representation changes (peak stays
  // near 1000, never refunded) and the post-switch repeat phase may only
  // over-count within the documented conservative envelope (the HLL rung
  // cannot replay its sketch into the slice), never under.
  PipelineOptions cfg;
  cfg.policy.scan_limit = 5'000;  // out of reach: this test watches the tally
  cfg.policy.cycle_length = 30 * sim::kDay;
  cfg.policy.check_fraction = 0.5;
  cfg.shards = 1;
  cfg.batch_size = 500;
  cfg.faults.degrades.push_back({.shard = 0, .after_batches = 1});
  cfg.faults.degrades.push_back({.shard = 0, .after_batches = 2});

  std::vector<trace::ConnRecord> records;
  double t = 0.0;
  for (std::uint32_t d = 0; d < 1'000; ++d) {
    records.push_back({t += 1.0, 9, net::Ipv4Address(0x0A000000u + d)});
  }
  // Repeats after the final switch: already-charged destinations.
  for (std::uint32_t d = 0; d < 500; ++d) {
    records.push_back({t += 1.0, 9, net::Ipv4Address(0x0A000000u + d)});
  }
  const auto a = ContainmentPipeline::run(cfg, records);
  const auto b = ContainmentPipeline::run(cfg, records);
  EXPECT_EQ(a.metrics.backend_switches, 2u);
  EXPECT_EQ(a.verdicts, b.verdicts);
  const HostVerdict* v = a.verdicts.find(9);
  ASSERT_NE(v, nullptr);
  // No refund: 1000 units were spent before the last switch; HLL estimate
  // noise at n=1000, p=12 is ~1.6%, nowhere near 10%.
  EXPECT_GE(v->peak_distinct, 900u) << "a switch refunded spent budget";
  // No runaway double charge: at worst the 500 repeats re-charge once each
  // (empty-slice carry), plus estimator noise.
  EXPECT_LE(v->peak_distinct, 1'700u) << "switches double-charged beyond the envelope";
  EXPECT_FALSE(v->removed);
}

// ---------------------------------------------------------------------------
// The overload ladder walks shard health only; counter rungs are walked by
// scripted degrade clauses, so queue timing never changes a count.

TEST(FleetDegradeLadder, OverloadLadderDegradesTwiceUnderSustainedPressure) {
  const auto& records = ladder_trace();
  auto cfg = ladder_config(1);
  cfg.batch_size = 32;
  // Zero watermarks + sustain 1: Degraded on the first sustained push,
  // Shedding on the next.
  cfg.overload.degrade_watermark = 0.0;
  cfg.overload.shed_watermark = 0.0;
  cfg.overload.sustain_pushes = 1;

  const auto result = ContainmentPipeline::run(cfg, records);
  ASSERT_EQ(result.metrics.shard_health.size(), 1u);
  EXPECT_EQ(result.metrics.shard_health[0], ShardHealth::Shedding);
}

TEST(FleetDegradeLadder, FailureBudgetEnforcesOnEveryRung) {
  // The failure policy counts records, not distinct destinations — its
  // verdicts must be identical whichever rung the shard happens to sit on.
  const auto& records = ladder_trace();
  auto base = ladder_config(2);
  base.policy.scan_limit = 1'000'000;  // distinct budget out of reach
  base.failure_budget = 40;

  const auto plain = ContainmentPipeline::run(base, records);
  auto degraded_cfg = base;
  degraded_cfg.faults.degrades.push_back({.shard = 0, .after_batches = 1});
  degraded_cfg.faults.degrades.push_back({.shard = 0, .after_batches = 2});
  degraded_cfg.faults.degrades.push_back({.shard = 1, .after_batches = 1});
  const auto degraded = ContainmentPipeline::run(degraded_cfg, records);

  // Distinct-count estimates differ across rungs (that is what degrading
  // means), but every failure-policy observable must be identical.
  EXPECT_EQ(plain.verdicts.hosts_removed_by_failures,
            degraded.verdicts.hosts_removed_by_failures);
  ASSERT_EQ(plain.verdicts.hosts.size(), degraded.verdicts.hosts.size());
  for (const HostVerdict& p : plain.verdicts.hosts) {
    const HostVerdict* d = degraded.verdicts.find(p.host);
    ASSERT_NE(d, nullptr) << "host " << p.host;
    EXPECT_EQ(p.failures_seen, d->failures_seen) << "host " << p.host;
    EXPECT_EQ(p.peak_failures, d->peak_failures) << "host " << p.host;
    EXPECT_EQ(p.removed_by_failures, d->removed_by_failures) << "host " << p.host;
    if (p.removed_by_failures) {
      EXPECT_EQ(p.removal_time, d->removal_time) << "host " << p.host;
    }
  }
  EXPECT_GT(plain.verdicts.hosts_removed_by_failures, 0u)
      << "the 2% synth failure noise should trip a 40-failure budget somewhere";
}

}  // namespace
}  // namespace worms::fleet
