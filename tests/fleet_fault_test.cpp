// Deterministic fault injection against the fleet pipeline: worker kill and
// respawn, scripted record corruption, stalls under tight backpressure (the
// no-deadlock guarantee), the overload ladder's shedding mode, forced backend
// degradation, dead-letter classification, and the FaultPlan grammar.
#include "fleet/fault_plan.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "fleet/pipeline.hpp"
#include "support/check.hpp"
#include "trace/synth.hpp"

namespace worms::fleet {
namespace {

/// Shared mid-size trace: big enough that every shard sees many batches.
const std::vector<trace::ConnRecord>& fault_trace() {
  static const std::vector<trace::ConnRecord> records = [] {
    trace::LblSynthConfig cfg;
    cfg.hosts = 150;
    cfg.duration = 4.0 * sim::kDay;
    return trace::synthesize_lbl_trace(cfg).records;
  }();
  return records;
}

PipelineOptions fault_config(unsigned shards) {
  PipelineOptions cfg;
  cfg.policy.scan_limit = 500;
  cfg.policy.cycle_length = 30 * sim::kDay;
  cfg.policy.check_fraction = 0.5;
  cfg.shards = shards;
  cfg.batch_size = 128;
  return cfg;
}

TEST(FleetFault, KilledWorkerIsRespawnedWithVerdictsUnchanged) {
  const auto& records = fault_trace();
  const auto baseline = ContainmentPipeline::run(fault_config(2), records);

  auto cfg = fault_config(2);
  cfg.faults.kills.push_back({.shard = 0, .after_batches = 2});
  const auto faulted = ContainmentPipeline::run(cfg, records);

  EXPECT_EQ(faulted.verdicts, baseline.verdicts);
  EXPECT_EQ(faulted.metrics.workers_killed, 1u);
  EXPECT_GE(faulted.metrics.workers_respawned, 1u);
  EXPECT_EQ(faulted.metrics.dead_letters.total(), baseline.metrics.dead_letters.total());
}

TEST(FleetFault, KillOnEveryShardStillCompletes) {
  const auto& records = fault_trace();
  const auto baseline = ContainmentPipeline::run(fault_config(4), records);

  auto cfg = fault_config(4);
  for (unsigned s = 0; s < 4; ++s) cfg.faults.kills.push_back({.shard = s, .after_batches = 1});
  const auto faulted = ContainmentPipeline::run(cfg, records);

  EXPECT_EQ(faulted.verdicts, baseline.verdicts);
  EXPECT_EQ(faulted.metrics.workers_killed, 4u);
  EXPECT_GE(faulted.metrics.workers_respawned, 4u);
}

TEST(FleetFault, CorruptedRecordsAreQuarantinedDeterministically) {
  const auto& records = fault_trace();
  auto cfg = fault_config(2);
  // Early stream positions: the duplicate-mode corruption replays the host's
  // previous record, which classifies as Duplicate only while that host is
  // still unremoved.
  cfg.faults.corrupt_records = {500, 1'500, 2'500, 3'500};

  const auto a = ContainmentPipeline::run(cfg, records);
  const auto b = ContainmentPipeline::run(cfg, records);

  // Each corrupted record lands in the dead-letter channel — as a malformed
  // timestamp caught at ingest or as an injected duplicate caught by its
  // shard worker — and never reaches a counter.
  EXPECT_EQ(a.metrics.dead_letters.total(), 4u);
  EXPECT_EQ(a.metrics.dead_letters.malformed + a.metrics.dead_letters.duplicate, 4u);
  // Deterministic in (plan, seed): reruns corrupt identically.
  EXPECT_EQ(a.metrics.dead_letters, b.metrics.dead_letters);
  EXPECT_EQ(a.verdicts, b.verdicts);
}

TEST(FleetFault, StallUnderTightBackpressureDoesNotDeadlock) {
  const auto& records = fault_trace();
  const auto baseline = ContainmentPipeline::run(fault_config(2), records);

  auto cfg = fault_config(2);
  cfg.queue_capacity = 2;  // a stalled worker backs the queue up almost immediately
  cfg.faults.stalls.push_back({.shard = 0, .after_batches = 1, .seconds = 0.05});
  cfg.faults.stalls.push_back({.shard = 1, .after_batches = 3, .seconds = 0.05});
  const auto faulted = ContainmentPipeline::run(cfg, records);

  EXPECT_EQ(faulted.verdicts, baseline.verdicts);  // backpressure, not loss
}

TEST(FleetFault, SheddingDropsOnlyRemovedHostRecords) {
  const auto& records = fault_trace();
  auto base_cfg = fault_config(1);
  base_cfg.policy.scan_limit = 20;  // remove the heavy hosts early
  auto quiet_cfg = base_cfg;
  // Pin the baseline's ladder off (a fill fraction never exceeds 1): under
  // CPU pressure the default ladder sheds too, and which records end up shed
  // rather than suppressed depends on the schedule.
  quiet_cfg.overload.degrade_watermark = 2.0;
  quiet_cfg.overload.shed_watermark = 2.0;
  const auto baseline = ContainmentPipeline::run(quiet_cfg, records);
  ASSERT_EQ(baseline.metrics.records_shed, 0u);

  auto cfg = base_cfg;
  cfg.batch_size = 32;
  // Zero watermarks + sustain 1: the ladder escalates to Shedding on the
  // second batch push, independent of queue timing.
  cfg.overload.degrade_watermark = 0.0;
  cfg.overload.shed_watermark = 0.0;
  cfg.overload.sustain_pushes = 1;
  const auto shed = ContainmentPipeline::run(cfg, records);

  // Shedding only drops records the worker would have suppressed anyway, so
  // verdicts are untouched and every post-removal record is accounted for
  // exactly once, as shed or as suppressed: shed + suppressed is conserved.
  EXPECT_EQ(shed.verdicts, baseline.verdicts);
  EXPECT_GT(shed.metrics.records_shed, 0u);
  EXPECT_EQ(shed.metrics.records_shed + shed.metrics.records_suppressed,
            baseline.metrics.records_suppressed);
  ASSERT_EQ(shed.metrics.shard_health.size(), 1u);
  EXPECT_EQ(shed.metrics.shard_health[0], ShardHealth::Shedding);
}

TEST(FleetFault, DegradeFaultSwitchesExactShardToHll) {
  const auto& records = fault_trace();
  auto cfg = fault_config(1);
  cfg.faults.degrades.push_back({.shard = 0, .after_batches = 1});

  const auto a = ContainmentPipeline::run(cfg, records);
  const auto b = ContainmentPipeline::run(cfg, records);

  EXPECT_EQ(a.metrics.backend_switches, 1u);
  // Approximate counting may move individual removal decisions, but the
  // host population and the degraded run itself stay deterministic.
  EXPECT_EQ(a.verdicts.hosts.size(),
            ContainmentPipeline::run(fault_config(1), records).verdicts.hosts.size());
  EXPECT_EQ(a.verdicts, b.verdicts);
}

TEST(FleetFault, OutOfOrderAndDuplicateRecordsAreClassified) {
  PipelineOptions cfg;
  cfg.policy.scan_limit = 1'000;
  cfg.policy.cycle_length = 30 * sim::kDay;
  cfg.shards = 1;
  ContainmentPipeline pipeline(cfg);

  const net::Ipv4Address a(0x0A000001u);
  const net::Ipv4Address b(0x0A000002u);
  pipeline.feed({1.0, 7, a});
  pipeline.feed({1.0, 7, a});  // same (timestamp, destination) → duplicate
  pipeline.feed({1.0, 7, b});  // same timestamp, new destination → fine
  pipeline.feed({0.5, 7, a});  // time regression → out of order
  const auto result = pipeline.finish();

  EXPECT_EQ(result.metrics.dead_letters.duplicate, 1u);
  EXPECT_EQ(result.metrics.dead_letters.out_of_order, 1u);
  EXPECT_EQ(result.metrics.dead_letters.malformed, 0u);

  const HostVerdict* verdict = result.verdicts.find(7);
  ASSERT_NE(verdict, nullptr);
  EXPECT_EQ(verdict->records_seen, 2u);
  EXPECT_EQ(verdict->peak_distinct, 2u);
}

TEST(FleetFault, DeadLetterEntriesCarryStreamPositionsAndReasons) {
  PipelineOptions cfg;
  cfg.policy.scan_limit = 1'000;
  cfg.shards = 1;
  ContainmentPipeline pipeline(cfg);

  const net::Ipv4Address a(0x0A000001u);
  pipeline.feed({1.0, 3, a});
  pipeline.feed({1.0, 3, a});                            // index 1: duplicate
  pipeline.feed({-4.0, 3, a});                           // index 2: malformed
  pipeline.report_malformed(17, "bad timestamp field");  // parser reject, line 17
  (void)pipeline.finish();

  const auto entries = pipeline.dead_letters().entries();
  ASSERT_EQ(entries.size(), 3u);
  auto find_reason = [&](DeadLetterReason reason) {
    const auto it = std::find_if(entries.begin(), entries.end(),
                                 [&](const DeadLetterEntry& e) { return e.reason == reason; });
    EXPECT_NE(it, entries.end()) << to_string(reason);
    return it;
  };
  EXPECT_EQ(find_reason(DeadLetterReason::Duplicate)->stream_index, 1u);
  EXPECT_EQ(find_reason(DeadLetterReason::Malformed)->stream_index, 2u);
  // The parser-reject path reuses the channel with the source line as index.
  const auto parser =
      std::find_if(entries.begin(), entries.end(),
                   [](const DeadLetterEntry& e) { return e.stream_index == 17; });
  ASSERT_NE(parser, entries.end());
  EXPECT_EQ(parser->detail, "bad timestamp field");
}

TEST(FleetFault, FaultInjectionSweepIsDeterministicWithNonEmptyAccounting) {
  // The acceptance sweep: combined kill + stall + corruption plans across
  // shard counts must complete (no deadlock), quarantine every corrupted
  // record, and reproduce bit-identically on rerun.
  const auto& records = fault_trace();
  for (const unsigned shards : {1u, 2u, 4u}) {
    auto cfg = fault_config(shards);
    cfg.queue_capacity = 4;
    cfg.faults.kills.push_back({.shard = 0, .after_batches = 2});
    cfg.faults.stalls.push_back(
        {.shard = shards > 1 ? 1u : 0u, .after_batches = 3, .seconds = 0.02});
    cfg.faults.corrupt_records = {600, 1'600, 2'600};

    const auto a = ContainmentPipeline::run(cfg, records);
    const auto b = ContainmentPipeline::run(cfg, records);
    EXPECT_EQ(a.metrics.dead_letters.total(), 3u) << "shards=" << shards;
    EXPECT_EQ(a.metrics.workers_killed, 1u) << "shards=" << shards;
    EXPECT_EQ(a.metrics.dead_letters, b.metrics.dead_letters) << "shards=" << shards;
    EXPECT_EQ(a.verdicts, b.verdicts) << "shards=" << shards;
  }
}

TEST(FleetFault, PlanRejectsOutOfRangeShards) {
  auto cfg = fault_config(2);
  cfg.faults.kills.push_back({.shard = 2, .after_batches = 0});
  EXPECT_THROW(ContainmentPipeline{cfg}, support::PreconditionError);

  auto stall_cfg = fault_config(2);
  stall_cfg.faults.stalls.push_back({.shard = 9, .after_batches = 0, .seconds = 0.1});
  EXPECT_THROW(ContainmentPipeline{stall_cfg}, support::PreconditionError);
}

TEST(FaultPlan_, ParsesTheFullGrammar) {
  const auto plan =
      FaultPlan::parse("kill:0@10;corrupt:500;corrupt:501;stall:1@5,0.25;degrade:2@7;seed:42");
  ASSERT_EQ(plan.kills.size(), 1u);
  EXPECT_EQ(plan.kills[0], (FaultPlan::WorkerFault{.shard = 0, .after_batches = 10}));
  EXPECT_EQ(plan.corrupt_records, (std::vector<std::uint64_t>{500, 501}));
  ASSERT_EQ(plan.stalls.size(), 1u);
  EXPECT_EQ(plan.stalls[0].shard, 1u);
  EXPECT_EQ(plan.stalls[0].after_batches, 5u);
  EXPECT_DOUBLE_EQ(plan.stalls[0].seconds, 0.25);
  ASSERT_EQ(plan.degrades.size(), 1u);
  EXPECT_EQ(plan.degrades[0], (FaultPlan::WorkerFault{.shard = 2, .after_batches = 7}));
  EXPECT_EQ(plan.seed, 42u);
  EXPECT_FALSE(plan.empty());

  EXPECT_TRUE(FaultPlan::parse("").empty());
  EXPECT_TRUE(FaultPlan::parse(";;").empty());
}

TEST(FaultPlan_, RejectsMalformedClauses) {
  EXPECT_THROW((void)FaultPlan::parse("kill:0"), support::PreconditionError);
  EXPECT_THROW((void)FaultPlan::parse("kill:x@5"), support::PreconditionError);
  EXPECT_THROW((void)FaultPlan::parse("stall:1@5"), support::PreconditionError);
  EXPECT_THROW((void)FaultPlan::parse("stall:1@5,-0.5"), support::PreconditionError);
  EXPECT_THROW((void)FaultPlan::parse("corrupt:abc"), support::PreconditionError);
  EXPECT_THROW((void)FaultPlan::parse("explode:1@2"), support::PreconditionError);
  EXPECT_THROW((void)FaultPlan::parse("justtext"), support::PreconditionError);
  try {
    (void)FaultPlan::parse("kill:0");
    FAIL() << "expected PreconditionError";
  } catch (const support::PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("bad --fault-plan clause 'kill:0'"), std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace worms::fleet
