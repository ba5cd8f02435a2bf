// Flight-recorder instrumentation of the fleet pipeline (DESIGN.md §9):
// synthetic-clock traces are byte-deterministic and count pipeline work
// exactly; wall-clock traces capture kill/respawn and the overload ladder;
// checkpoint restore is spanned; the periodic metrics export fires at
// absolute stream positions across a resume; and the dead-letter spill CSV
// roundtrips through the recovering trace parser with line-accurate reasons.
#include "fleet/pipeline.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/event_log.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "obs/trace_export.hpp"
#include "support/check.hpp"
#include "trace/synth.hpp"
#include "trace/trace_io.hpp"

namespace worms::fleet {
namespace {

#define WORMS_REQUIRE_OBS() \
  if (!obs::kEnabled) GTEST_SKIP() << "built with WORMS_OBS=OFF"

std::string temp_path(const char* tag) {
  return ::testing::TempDir() + "worms_fleet_trace_" + tag;
}

const std::vector<trace::ConnRecord>& small_trace() {
  static const std::vector<trace::ConnRecord> records = [] {
    trace::LblSynthConfig cfg;
    cfg.hosts = 100;
    cfg.duration = 2.0 * sim::kDay;
    return trace::synthesize_lbl_trace(cfg).records;
  }();
  return records;
}

PipelineOptions trace_config() {
  PipelineOptions cfg;
  cfg.policy.scan_limit = 300;
  cfg.policy.cycle_length = 30 * sim::kDay;
  cfg.policy.check_fraction = 0.5;
  cfg.shards = 1;
  cfg.batch_size = 256;
  // Roomy queue: fill fraction stays far below the overload watermarks for
  // any scheduling, so no timing-dependent health transitions can fire in
  // the deterministic-trace tests.
  cfg.queue_capacity = 1024;
  return cfg;
}

[[nodiscard]] obs::TracerOptions synthetic_options() {
  obs::TracerOptions options;
  options.buffer_events = 1u << 16;
  options.clock = obs::TraceClock::Synthetic;
  return options;
}

[[nodiscard]] obs::EventLogOptions synthetic_journal_options() {
  obs::EventLogOptions options;
  options.clock = obs::TraceClock::Synthetic;
  return options;
}

/// One traced synthetic-clock run with deterministic faults.
struct TracedRun {
  PipelineResult result;
  obs::TraceCollection collection;
};

TracedRun run_synthetic(const std::string& checkpoint_path) {
  obs::Tracer tracer(synthetic_options());
  obs::EventLog journal(synthetic_journal_options());
  auto cfg = trace_config();
  cfg.tracer = &tracer;
  cfg.events = &journal;
  cfg.checkpoint_path = checkpoint_path;
  cfg.checkpoint_every = 1000;
  cfg.faults.degrades.push_back({.shard = 0, .after_batches = 1});
  cfg.faults.corrupt_records = {40, 41};
  TracedRun out;
  out.result = ContainmentPipeline::run(cfg, small_trace());
  out.collection = obs::merge_journal(tracer.collect(), journal.collect());
  return out;
}

TEST(FleetTrace, SyntheticTraceCountsPipelineWorkExactly) {
  WORMS_REQUIRE_OBS();
  const std::string path = temp_path("synth_counts.bin");
  const TracedRun run = run_synthetic(path);
  const obs::TraceSummary summary = obs::summarize_trace(run.collection);

  ASSERT_GT(run.collection.events.size(), 0u);
  EXPECT_EQ(run.collection.dropped, 0u);
  EXPECT_EQ(run.collection.clock, obs::TraceClock::Synthetic);
  // Rings are exactly the claimed logical threads: 0 = ingest, 1 = the one
  // shard worker, 2 = the one pool thread.
  for (const obs::CollectedTraceEvent& ev : run.collection.events) {
    EXPECT_LE(ev.tid, 2u) << ev.name;
  }

  // Every non-empty pushed batch is one ingest_batch span on the ingest side
  // and one shard_batch span on the worker side.
  const obs::SpanStats* ingest = summary.find_span("ingest_batch");
  const obs::SpanStats* shard = summary.find_span("shard_batch");
  ASSERT_NE(ingest, nullptr);
  ASSERT_NE(shard, nullptr);
  EXPECT_GT(ingest->count, 0u);
  EXPECT_EQ(ingest->count, shard->count);
  EXPECT_EQ(ingest->unmatched, 0u);
  EXPECT_EQ(shard->unmatched, 0u);

  const obs::SpanStats* checkpoint = summary.find_span("checkpoint_write");
  ASSERT_NE(checkpoint, nullptr);
  EXPECT_GT(run.result.metrics.checkpoints_written, 0u);
  EXPECT_EQ(checkpoint->count, run.result.metrics.checkpoints_written);

  // Fault-plan firings: one scripted degrade, two scripted corruptions, and
  // every corrupted record lands in the dead-letter channel as exactly one
  // malformed-or-duplicate instant.
  const obs::InstantStats* degrade = summary.find_instant("backend_degrade");
  ASSERT_NE(degrade, nullptr);
  EXPECT_EQ(degrade->count, 1u);
  EXPECT_EQ(run.result.metrics.backend_switches, 1u);
  const obs::InstantStats* corrupt = summary.find_instant("fault_corrupt");
  ASSERT_NE(corrupt, nullptr);
  EXPECT_EQ(corrupt->count, 2u);
  const obs::InstantStats* malformed = summary.find_instant("dead_letter_malformed");
  const obs::InstantStats* duplicate = summary.find_instant("dead_letter_duplicate");
  const std::uint64_t malformed_count = malformed != nullptr ? malformed->count : 0;
  const std::uint64_t duplicate_count = duplicate != nullptr ? duplicate->count : 0;
  EXPECT_EQ(malformed_count, run.result.metrics.dead_letters.malformed);
  EXPECT_EQ(duplicate_count, run.result.metrics.dead_letters.duplicate);
  EXPECT_EQ(malformed_count + duplicate_count, 2u);

  // Timing-dependent events stay silent in synthetic mode.
  EXPECT_EQ(summary.find_span("queue_push_stall"), nullptr);
  EXPECT_EQ(summary.find_instant("queue_pop_wait"), nullptr);
  EXPECT_EQ(summary.find_instant("pool_wait"), nullptr);
  std::remove(path.c_str());
}

TEST(FleetTrace, SyntheticTraceExportIsByteIdenticalAcrossReruns) {
  WORMS_REQUIRE_OBS();
  const std::string path = temp_path("synth_golden.bin");
  const TracedRun first = run_synthetic(path);
  const TracedRun second = run_synthetic(path);
  EXPECT_EQ(first.result.verdicts, second.result.verdicts);
  EXPECT_EQ(obs::render_chrome_trace(first.collection),
            obs::render_chrome_trace(second.collection));
  std::remove(path.c_str());
}

TEST(FleetTrace, TracingIsObservationalOnly) {
  // Same config with and without a tracer: identical verdicts.
  const std::string path = temp_path("synth_observational.bin");
  auto cfg = trace_config();
  cfg.faults.corrupt_records = {40, 41};
  const auto baseline = ContainmentPipeline::run(cfg, small_trace());
  obs::Tracer tracer(synthetic_options());
  cfg.tracer = &tracer;
  const auto traced = ContainmentPipeline::run(cfg, small_trace());
  EXPECT_EQ(baseline.verdicts, traced.verdicts);
  std::remove(path.c_str());
}

TEST(FleetTrace, WallClockTraceCapturesKillRespawnAndOverloadLadder) {
  WORMS_REQUIRE_OBS();
  obs::Tracer tracer;  // wall clock
  obs::EventLog journal;
  auto cfg = trace_config();
  cfg.tracer = &tracer;
  cfg.events = &journal;
  cfg.batch_size = 64;
  cfg.queue_capacity = 8;
  cfg.faults.kills.push_back({.shard = 0, .after_batches = 2});
  // Zero watermarks: every push samples hot and critical, so the ladder
  // walks healthy → degraded → shedding deterministically fast.
  cfg.overload.degrade_watermark = 0.0;
  cfg.overload.shed_watermark = 0.0;
  cfg.overload.sustain_pushes = 1;
  const auto result = ContainmentPipeline::run(cfg, small_trace());
  const obs::TraceSummary summary =
      obs::summarize_trace(obs::merge_journal(tracer.collect(), journal.collect()));

  const obs::InstantStats* killed = summary.find_instant("worker_killed");
  ASSERT_NE(killed, nullptr);
  EXPECT_EQ(killed->count, result.metrics.workers_killed);
  EXPECT_EQ(killed->count, 1u);
  const obs::InstantStats* respawned = summary.find_instant("worker_respawned");
  ASSERT_NE(respawned, nullptr);
  EXPECT_GE(respawned->count, 1u);
  EXPECT_EQ(respawned->count, result.metrics.workers_respawned);
  ASSERT_NE(summary.find_instant("health_degraded"), nullptr);
  ASSERT_NE(summary.find_instant("health_shedding"), nullptr);
  // Wall spans carry real durations.
  const obs::SpanStats* shard = summary.find_span("shard_batch");
  ASSERT_NE(shard, nullptr);
  EXPECT_GT(shard->count, 0u);
  EXPECT_GT(shard->total_seconds, 0.0);
}

TEST(FleetTrace, SyntheticTraceOmitsTimingDependentTransitions) {
  WORMS_REQUIRE_OBS();
  // The wall-clock ladder run above, on the synthetic clock: the kill fires
  // at a fixed batch count and stays on the timeline, but the overload
  // transitions and the respawn happen whenever the ingest thread samples a
  // queue or notices the dead worker, so a synthetic trace has none of them.
  obs::Tracer tracer(synthetic_options());
  obs::EventLog journal(synthetic_journal_options());
  auto cfg = trace_config();
  cfg.tracer = &tracer;
  cfg.events = &journal;
  cfg.batch_size = 64;
  cfg.queue_capacity = 8;
  cfg.faults.kills.push_back({.shard = 0, .after_batches = 2});
  cfg.overload.degrade_watermark = 0.0;
  cfg.overload.shed_watermark = 0.0;
  cfg.overload.sustain_pushes = 1;
  const auto result = ContainmentPipeline::run(cfg, small_trace());
  ASSERT_EQ(result.metrics.workers_killed, 1u);
  ASSERT_GE(result.metrics.workers_respawned, 1u);

  const obs::TraceCollection trace = tracer.collect();
  const obs::TraceSummary traced = obs::summarize_trace(trace);
  const obs::TraceSummary merged =
      obs::summarize_trace(obs::merge_journal(trace, journal.collect()));
  for (const char* name :
       {"health_healthy", "health_degraded", "health_shedding", "worker_respawned"}) {
    EXPECT_EQ(traced.find_instant(name), nullptr) << name;
    EXPECT_EQ(merged.find_instant(name), nullptr) << name;
  }
  const obs::InstantStats* killed = merged.find_instant("worker_killed");
  ASSERT_NE(killed, nullptr);
  EXPECT_EQ(killed->count, 1u);
}

TEST(FleetTrace, RestoreRecordsCheckpointRestoreSpan) {
  WORMS_REQUIRE_OBS();
  const std::string path = temp_path("restore_span.bin");
  const auto& records = small_trace();
  {
    ContainmentPipeline pipeline(trace_config());
    for (std::size_t i = 0; i < records.size() / 2; ++i) pipeline.feed(records[i]);
    pipeline.write_checkpoint(path);
  }
  obs::Tracer tracer(synthetic_options());
  auto cfg = trace_config();
  cfg.tracer = &tracer;
  auto resumed = ContainmentPipeline::restore(cfg, path);
  for (std::size_t i = resumed->records_fed(); i < records.size(); ++i) {
    resumed->feed(records[i]);
  }
  (void)resumed->finish();
  resumed.reset();

  const obs::TraceSummary summary = obs::summarize_trace(tracer.collect());
  const obs::SpanStats* restore = summary.find_span("checkpoint_restore");
  ASSERT_NE(restore, nullptr);
  EXPECT_EQ(restore->count, 1u);
  EXPECT_EQ(restore->unmatched, 0u);
  std::remove(path.c_str());
}

TEST(FleetTrace, MetricsExportFiresAtAbsoluteStreamPositionsAcrossResume) {
  // The cadence contract: exports at records_fed() % N == 0, counted from
  // the start of the *stream*, so a restored run publishes at exactly the
  // positions the uninterrupted run would have — not at positions relative
  // to pipeline construction.
  const auto& records = small_trace();
  ASSERT_GT(records.size(), 2000u);
  constexpr std::uint64_t kEvery = 500;
  const std::uint64_t boundary = 700;  // deliberately not a multiple of kEvery
  const std::string metrics_path = temp_path("metrics_cadence.prom");
  const std::string snapshot_path = temp_path("metrics_cadence.bin");

  obs::Registry registry;
  auto cfg = trace_config();
  cfg.metrics = &registry;
  cfg.metrics_export_path = metrics_path;
  cfg.metrics_export_every = kEvery;

  const auto full = ContainmentPipeline::run(cfg, records);
  EXPECT_EQ(full.metrics.metrics_exports, records.size() / kEvery);

  {
    obs::Registry prefix_registry;
    auto prefix_cfg = cfg;
    prefix_cfg.metrics = &prefix_registry;
    ContainmentPipeline pipeline(prefix_cfg);
    for (std::uint64_t i = 0; i < boundary; ++i) pipeline.feed(records[i]);
    EXPECT_EQ(pipeline.records_fed(), boundary);
    pipeline.write_checkpoint(snapshot_path);
  }
  obs::Registry resume_registry;
  auto resume_cfg = cfg;
  resume_cfg.metrics = &resume_registry;
  auto resumed = ContainmentPipeline::restore(resume_cfg, snapshot_path);
  for (std::uint64_t i = resumed->records_fed(); i < records.size(); ++i) {
    resumed->feed(records[i]);
  }
  const auto resumed_result = resumed->finish();
  // Absolute positions 1000, 1500, ... remain; the pre-fix behavior (cadence
  // counted from resume) would have produced suffix_len / kEvery instead.
  const std::uint64_t expected =
      records.size() / kEvery - boundary / kEvery;
  EXPECT_EQ(resumed_result.metrics.metrics_exports, expected);

  // The published file is a readable snapshot.  An OBS=OFF build still
  // honors the cadence (counts above) but exports no instruments.
  std::ifstream in(metrics_path);
  ASSERT_TRUE(in.good());
  if constexpr (obs::kEnabled) {
    std::ostringstream content;
    content << in.rdbuf();
    EXPECT_NE(content.str().find("fleet_records_ingested_total"), std::string::npos);
  }
  std::remove(metrics_path.c_str());
  std::remove(snapshot_path.c_str());
}

TEST(FleetTrace, MetricsExportEveryRequiresPathAndRegistry) {
  auto cfg = trace_config();
  cfg.metrics_export_every = 100;  // no path, no registry
  EXPECT_THROW(ContainmentPipeline pipeline(cfg), support::PreconditionError);
}

TEST(FleetDeadLetter, SpillCsvRoundtripsThroughRecoveringParserLineAccurately) {
  // A mangled operational trace goes through the recovering CSV parser; the
  // pipeline quarantines what the parser rejected (by CSV line) and what the
  // shards rejected (by stream index); the spill file must carry each with
  // its exact reason and detail.
  const std::string csv =
      "timestamp,source_host,destination\n"
      "1.0,0,10.0.0.1\n"
      "2.0,0,10.0.0.2\n"
      "2.0,0,10.0.0.2\n"   // duplicate of the previous record -> stream index 2
      "1.5,0,10.0.0.3\n"   // timestamp regressed -> stream index 3
      "not,a,record\n"     // unparseable -> CSV line 6
      "3.0,0,10.0.0.4\n";
  std::istringstream in(csv);
  const trace::RecoveredTrace recovered = trace::read_csv_recovering(in);
  ASSERT_EQ(recovered.records.size(), 5u);
  ASSERT_EQ(recovered.bad_lines.size(), 1u);
  EXPECT_EQ(recovered.bad_lines[0].line, 6u);

  const std::string spill = temp_path("spill.csv");
  DeadLetterStats stats;
  {
    auto cfg = trace_config();
    cfg.dead_letter_spill = spill;
    ContainmentPipeline pipeline(cfg);
    pipeline.feed(recovered.records);
    for (const trace::TraceParseDiagnostic& diag : recovered.bad_lines) {
      pipeline.report_malformed(diag.line, diag.error);
    }
    stats = pipeline.finish().metrics.dead_letters;
  }  // channel closed: spill fully flushed
  EXPECT_EQ(stats.malformed, 1u);
  EXPECT_EQ(stats.out_of_order, 1u);
  EXPECT_EQ(stats.duplicate, 1u);

  std::ifstream spill_in(spill);
  ASSERT_TRUE(spill_in.good());
  std::string line;
  ASSERT_TRUE(std::getline(spill_in, line));
  EXPECT_EQ(line, "stream_index,reason,timestamp,source_host,destination,detail");
  struct Row {
    std::uint64_t index;
    std::string reason;
    std::string rest;
  };
  std::vector<Row> rows;
  while (std::getline(spill_in, line)) {
    const std::size_t c1 = line.find(',');
    const std::size_t c2 = line.find(',', c1 + 1);
    ASSERT_NE(c2, std::string::npos) << line;
    rows.push_back({std::stoull(line.substr(0, c1)),
                    line.substr(c1 + 1, c2 - c1 - 1), line.substr(c2 + 1)});
  }
  ASSERT_EQ(rows.size(), 3u);
  auto find_reason = [&rows](const std::string& reason) -> const Row* {
    for (const Row& r : rows) {
      if (r.reason == reason) return &r;
    }
    return nullptr;
  };
  const Row* duplicate = find_reason("duplicate");
  ASSERT_NE(duplicate, nullptr);
  EXPECT_EQ(duplicate->index, 2u);
  EXPECT_NE(duplicate->rest.find("repeats host 0's previous record"), std::string::npos);
  const Row* out_of_order = find_reason("out-of-order");
  ASSERT_NE(out_of_order, nullptr);
  EXPECT_EQ(out_of_order->index, 3u);
  EXPECT_NE(out_of_order->rest.find("timestamp regressed for host 0"), std::string::npos);
  const Row* malformed = find_reason("malformed");
  ASSERT_NE(malformed, nullptr);
  EXPECT_EQ(malformed->index, 6u);  // the CSV line, exactly as diagnosed
  // Detail column carries the parser's field-accurate error verbatim (the
  // record columns are zeros for a line that never parsed).
  EXPECT_NE(malformed->rest.find(recovered.bad_lines[0].error), std::string::npos);
  std::remove(spill.c_str());
}

}  // namespace
}  // namespace worms::fleet
