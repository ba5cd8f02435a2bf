// Fleet streaming-containment pipeline: determinism across shard counts,
// equivalence with the offline TraceAnalyzer::audit_policy replay, HLL-vs-
// exact agreement, worm-injection detection, and metrics plumbing.
#include "fleet/pipeline.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
#include <span>
#include <string>

#include "fleet/worm_injector.hpp"
#include "support/check.hpp"
#include "trace/analyzer.hpp"
#include "trace/record_source.hpp"
#include "trace/synth.hpp"

namespace worms::fleet {
namespace {

/// Small LBL-style population shared across the suite (synthesizing once
/// keeps the suite fast); 8 days still exercises every code path because the
/// 30-day cycle makes it a single containment cycle.
const std::vector<trace::ConnRecord>& clean_trace() {
  static const std::vector<trace::ConnRecord> records = [] {
    trace::LblSynthConfig cfg;
    cfg.hosts = 400;
    cfg.duration = 8.0 * sim::kDay;
    return trace::synthesize_lbl_trace(cfg).records;
  }();
  return records;
}

PipelineOptions base_config(CounterBackend backend, unsigned shards) {
  PipelineOptions cfg;
  cfg.policy.scan_limit = 500;
  cfg.policy.cycle_length = 30 * sim::kDay;
  cfg.policy.check_fraction = 0.5;
  cfg.backend = backend;
  cfg.shards = shards;
  return cfg;
}

TEST(FleetPipeline, VerdictsBitIdenticalAcrossShardCounts) {
  const auto one = ContainmentPipeline::run(base_config(CounterBackend::Exact, 1),
                                            clean_trace());
  for (const unsigned shards : {2u, 4u, 0u}) {
    const auto wide = ContainmentPipeline::run(base_config(CounterBackend::Exact, shards),
                                               clean_trace());
    EXPECT_EQ(one.verdicts, wide.verdicts) << "shards=" << shards;
  }
}

TEST(FleetPipeline, VerdictsBitIdenticalAcrossShardCountsHll) {
  const auto one = ContainmentPipeline::run(base_config(CounterBackend::Hll, 1),
                                            clean_trace());
  for (const unsigned shards : {2u, 4u}) {
    const auto wide = ContainmentPipeline::run(base_config(CounterBackend::Hll, shards),
                                               clean_trace());
    EXPECT_EQ(one.verdicts, wide.verdicts) << "shards=" << shards;
  }
}

TEST(FleetPipeline, VerdictsBitIdenticalAcrossRepeatedRuns) {
  const auto cfg = base_config(CounterBackend::Exact, 3);
  const auto first = ContainmentPipeline::run(cfg, clean_trace());
  const auto second = ContainmentPipeline::run(cfg, clean_trace());
  EXPECT_EQ(first.verdicts, second.verdicts);
}

TEST(FleetPipeline, VerdictsIndependentOfBatchSize) {
  auto cfg = base_config(CounterBackend::Exact, 2);
  const auto big = ContainmentPipeline::run(cfg, clean_trace());
  cfg.batch_size = 7;
  cfg.queue_capacity = 2;  // forces real backpressure on the ingest thread
  const auto tiny = ContainmentPipeline::run(cfg, clean_trace());
  EXPECT_EQ(big.verdicts, tiny.verdicts);
}

TEST(FleetPipeline, ExactBackendMatchesOfflineAudit) {
  // The streaming pipeline is the online form of audit_policy's offline
  // replay: same M, cycle, and check fraction must produce the same flagged
  // and removed populations.
  const auto cfg = base_config(CounterBackend::Exact, 4);
  const auto result = ContainmentPipeline::run(cfg, clean_trace());

  trace::TraceAnalyzer analyzer(clean_trace());
  const auto report = analyzer.audit_policy({.scan_limit = cfg.policy.scan_limit,
                                             .cycle_length = cfg.policy.cycle_length,
                                             .check_fraction = cfg.policy.check_fraction});
  EXPECT_EQ(result.verdicts.hosts_removed, report.hosts_removed);
  EXPECT_EQ(result.verdicts.hosts_flagged, report.hosts_flagged);
  EXPECT_GT(result.verdicts.hosts_removed, 0u)
      << "test config should remove the heavy hitters";
}

TEST(FleetPipeline, HllAgreesWithExactWithinErrorBound) {
  const auto exact = ContainmentPipeline::run(base_config(CounterBackend::Exact, 2),
                                              clean_trace());
  const auto hll = ContainmentPipeline::run(base_config(CounterBackend::Hll, 2),
                                            clean_trace());

  // Any disagreement must involve a host whose exact distinct count sits
  // within the sketch's error band of the threshold (precision 12 ⇒ ~1.6%
  // relative error; allow 6 sigma).
  const double tolerance = 6 * 1.04 / std::sqrt(4096.0);
  const double flag_threshold = 0.5 * 500.0;
  for (const auto& ev : exact.verdicts.hosts) {
    const HostVerdict* hv = hll.verdicts.find(ev.host);
    ASSERT_NE(hv, nullptr) << "host " << ev.host;
    if (ev.flagged != hv->flagged) {
      const double gap = std::abs(static_cast<double>(ev.peak_distinct) - flag_threshold) /
                         flag_threshold;
      EXPECT_LE(gap, tolerance) << "host " << ev.host << " flagged only by one backend with "
                                << ev.peak_distinct << " exact-distinct destinations";
    }
    if (ev.removed != hv->removed) {
      const double gap = std::abs(static_cast<double>(ev.peak_distinct) - 500.0) / 500.0;
      EXPECT_LE(gap, tolerance) << "host " << ev.host;
    }
  }
  EXPECT_NEAR(static_cast<double>(hll.verdicts.hosts_flagged),
              static_cast<double>(exact.verdicts.hosts_flagged),
              std::max(2.0, tolerance * static_cast<double>(exact.verdicts.hosts_flagged)));
}

TEST(FleetPipeline, HllMemoryIsFixedExactMemoryGrowsWithCardinality) {
  // The approximate backend's selling point: per-host state is constant no
  // matter how many distinct destinations a (worm-grade) host contacts,
  // while the exact set grows linearly.
  auto exact = make_distinct_counter(CounterBackend::Exact, 12);
  auto hll = make_distinct_counter(CounterBackend::Hll, 12);
  const std::size_t hll_idle_bytes = hll->memory_bytes();
  for (std::uint32_t d = 0; d < 100'000; ++d) {
    (void)exact->add(0x0A000000u + d);
    (void)hll->add(0x0A000000u + d);
  }
  EXPECT_EQ(hll->memory_bytes(), hll_idle_bytes);
  EXPECT_GT(exact->memory_bytes(), 10 * hll->memory_bytes());
  EXPECT_EQ(exact->count(), 100'000u);
  EXPECT_NEAR(static_cast<double>(hll->count()), 100'000.0, 100'000.0 * 0.05);
}

TEST(FleetPipeline, HandCraftedVerdictTimeline) {
  // M=3, f=0.5 (flag at count 2), one host: count A,B then a repeat, then C
  // removes at its timestamp; the record after removal is suppressed.
  PipelineOptions cfg;
  cfg.policy.scan_limit = 3;
  cfg.policy.cycle_length = 100.0;
  cfg.policy.check_fraction = 0.5;
  cfg.shards = 1;
  const std::vector<trace::ConnRecord> records = {
      {1.0, 0, net::Ipv4Address(0xA)}, {2.0, 0, net::Ipv4Address(0xB)},
      {3.0, 0, net::Ipv4Address(0xA)}, {4.0, 0, net::Ipv4Address(0xC)},
      {5.0, 0, net::Ipv4Address(0xD)},
  };
  const auto result = ContainmentPipeline::run(cfg, records);
  ASSERT_EQ(result.verdicts.hosts.size(), 1u);
  const HostVerdict& v = result.verdicts.hosts[0];
  EXPECT_TRUE(v.flagged);
  EXPECT_DOUBLE_EQ(v.flag_time, 2.0);
  EXPECT_TRUE(v.removed);
  EXPECT_DOUBLE_EQ(v.removal_time, 4.0);
  EXPECT_EQ(v.records_seen, 4u);
  EXPECT_EQ(v.peak_distinct, 3u);
  EXPECT_EQ(result.metrics.records_suppressed, 1u);
  EXPECT_EQ(result.metrics.records_processed, 5u);
}

TEST(FleetPipeline, CycleBoundaryResetsCounters) {
  // Two distinct destinations per 100 s cycle never reach M=3: the counter
  // must reset at t=100 exactly like the policy's own cycle bookkeeping.
  PipelineOptions cfg;
  cfg.policy.scan_limit = 3;
  cfg.policy.cycle_length = 100.0;
  cfg.shards = 2;
  const std::vector<trace::ConnRecord> records = {
      {10.0, 1, net::Ipv4Address(0xA)}, {50.0, 1, net::Ipv4Address(0xB)},
      {150.0, 1, net::Ipv4Address(0xC)}, {160.0, 1, net::Ipv4Address(0xD)},
  };
  const auto result = ContainmentPipeline::run(cfg, records);
  const HostVerdict* v = result.verdicts.find(1);
  ASSERT_NE(v, nullptr);
  EXPECT_FALSE(v->removed);
  EXPECT_EQ(v->peak_distinct, 2u);
  EXPECT_EQ(v->records_seen, 4u);
}

TEST(FleetPipeline, InjectedWormHostsAreContained) {
  WormInjectConfig inject;
  inject.infected_hosts = 5;
  inject.scan_rate = 6.0;
  inject.scans_per_host = 1'000;
  const auto injected = inject_worm_scans(clean_trace(), inject);
  ASSERT_EQ(injected.infected_hosts.size(), 5u);

  const auto result = ContainmentPipeline::run(base_config(CounterBackend::Exact, 4),
                                               injected.records);
  for (const std::uint32_t host : injected.infected_hosts) {
    const HostVerdict* v = result.verdicts.find(host);
    ASSERT_NE(v, nullptr) << "host " << host;
    EXPECT_TRUE(v->removed) << "host " << host;
    // A 6 scans/s uniform scanner reaches M=500 distinct destinations in
    // ~83 s of trace time; allow generous slack for Poisson variation and
    // background traffic already charged to the host.
    EXPECT_LT(v->removal_time, 150.0) << "host " << host;
  }
}

TEST(FleetPipeline, StreamingFeedMatchesOneShotRun) {
  const auto cfg = base_config(CounterBackend::Exact, 2);
  ContainmentPipeline pipeline(cfg);
  for (const auto& r : clean_trace()) pipeline.feed(r);
  const auto streamed = pipeline.finish();
  const auto oneshot = ContainmentPipeline::run(cfg, clean_trace());
  EXPECT_EQ(streamed.verdicts, oneshot.verdicts);
  EXPECT_EQ(streamed.metrics.records_processed, clean_trace().size());
}

TEST(FleetPipeline, MetricsArePlumbedThrough) {
  auto cfg = base_config(CounterBackend::Exact, 3);
  cfg.queue_capacity = 4;
  const auto result = ContainmentPipeline::run(cfg, clean_trace());
  const auto& m = result.metrics;
  EXPECT_EQ(m.records_processed, clean_trace().size());
  EXPECT_EQ(m.shards, 3u);
  ASSERT_EQ(m.queue_high_water.size(), 3u);
  for (const std::size_t hw : m.queue_high_water) EXPECT_LE(hw, cfg.queue_capacity);
  EXPECT_GT(m.counter_memory_bytes, 0u);
  EXPECT_GT(m.records_per_second, 0.0);
  EXPECT_GT(m.elapsed_seconds, 0.0);
}

TEST(FleetPipeline, EmptyStreamYieldsEmptyReport) {
  const auto result = ContainmentPipeline::run(base_config(CounterBackend::Exact, 2), {});
  EXPECT_TRUE(result.verdicts.hosts.empty());
  EXPECT_EQ(result.verdicts.hosts_flagged, 0u);
  EXPECT_EQ(result.verdicts.hosts_removed, 0u);
  EXPECT_EQ(result.metrics.records_processed, 0u);
}

TEST(FleetPipeline, OutOfOrderPerHostInputIsQuarantinedNotFatal) {
  // A weeks-long containment cycle must survive a time regression: the bad
  // record routes to the dead-letter channel and the stream keeps flowing.
  PipelineOptions cfg;
  cfg.policy.scan_limit = 10;
  cfg.shards = 1;
  ContainmentPipeline pipeline(cfg);
  pipeline.feed({5.0, 0, net::Ipv4Address(0xA)});
  pipeline.feed({1.0, 0, net::Ipv4Address(0xB)});  // time runs backwards for host 0
  pipeline.feed({6.0, 0, net::Ipv4Address(0xC)});  // stream continues
  const auto result = pipeline.finish();
  EXPECT_EQ(result.metrics.dead_letters.out_of_order, 1u);
  EXPECT_EQ(result.metrics.dead_letters.total(), 1u);
  const HostVerdict* v = result.verdicts.find(0);
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->records_seen, 2u);   // the regression was never counted
  EXPECT_EQ(v->peak_distinct, 2u);  // A and C
}

TEST(FleetPipeline, VerdictLookupOnEmptyReport) {
  const ContainmentVerdicts empty;
  EXPECT_EQ(empty.find(0), nullptr);
  EXPECT_EQ(empty.find(42), nullptr);
  EXPECT_TRUE(empty.removed_hosts().empty());
}

TEST(FleetPipeline, VerdictLookupMissesAbsentHostsAtEveryPosition) {
  const auto result = ContainmentPipeline::run(
      base_config(CounterBackend::Exact, 1),
      {{1.0, 10, net::Ipv4Address(0xA)}, {2.0, 20, net::Ipv4Address(0xB)}});
  ASSERT_EQ(result.verdicts.hosts.size(), 2u);
  EXPECT_EQ(result.verdicts.find(5), nullptr);   // before the first host
  EXPECT_EQ(result.verdicts.find(15), nullptr);  // between hosts
  EXPECT_EQ(result.verdicts.find(25), nullptr);  // past the last host
  ASSERT_NE(result.verdicts.find(10), nullptr);
  EXPECT_EQ(result.verdicts.find(10)->host, 10u);
  ASSERT_NE(result.verdicts.find(20), nullptr);
  EXPECT_EQ(result.verdicts.find(20)->host, 20u);
}

TEST(FleetPipeline, RemovedHostsListsEveryHostWhenAllAreRemoved) {
  // M=1: the second distinct destination removes each host, so every host
  // ends up removed and the list must be complete and ascending.
  PipelineOptions cfg;
  cfg.policy.scan_limit = 1;
  cfg.policy.cycle_length = 100.0;
  cfg.shards = 2;
  std::vector<trace::ConnRecord> records;
  for (std::uint32_t host : {3u, 1u, 2u}) {
    records.push_back({1.0, host, net::Ipv4Address(0xA)});
    records.push_back({2.0, host, net::Ipv4Address(0xB)});
  }
  std::sort(records.begin(), records.end(), trace::stream_order);
  const auto result = ContainmentPipeline::run(cfg, records);
  EXPECT_EQ(result.verdicts.removed_hosts(), (std::vector<std::uint32_t>{1, 2, 3}));
  EXPECT_EQ(result.verdicts.hosts_removed, 3u);
}

TEST(FleetPipeline, ValidatesConfig) {
  PipelineOptions cfg;
  cfg.batch_size = 0;
  EXPECT_THROW(ContainmentPipeline p(cfg), support::PreconditionError);
  EXPECT_THROW(cfg.validate(), support::PreconditionError);  // callable standalone too
  cfg = PipelineOptions{};
  cfg.queue_capacity = 0;
  EXPECT_THROW(ContainmentPipeline p(cfg), support::PreconditionError);
  cfg = PipelineOptions{};
  cfg.policy.scan_limit = 0;  // rejected by the policy itself
  EXPECT_THROW(ContainmentPipeline p(cfg), support::PreconditionError);
}

TEST(FleetPipeline, RecordSourceFeedMatchesVectorFeed) {
  // The streaming ingest path (pull blocks from a RecordSource) must be
  // byte-for-byte equivalent to materialize-then-feed.
  const auto cfg = base_config(CounterBackend::Exact, 2);
  const auto oneshot = ContainmentPipeline::run(cfg, clean_trace());

  trace::VectorSource source(clean_trace());
  const auto streamed = ContainmentPipeline::run(cfg, source);
  EXPECT_EQ(streamed.verdicts, oneshot.verdicts);
  EXPECT_EQ(streamed.metrics.records_processed, clean_trace().size());

  // And the incremental form: feed(RecordSource&) on a live pipeline.
  trace::VectorSource source2(clean_trace());
  ContainmentPipeline pipeline(cfg);
  pipeline.feed(source2);
  EXPECT_EQ(pipeline.finish().verdicts, oneshot.verdicts);
}

TEST(FleetPipeline, SpanFeedChunksMatchPerRecordFeed) {
  // The batch feed must hit checkpoint/export cadences at the same absolute
  // stream positions as the per-record loop; equality of verdicts across
  // awkward chunk splits is the cheap proxy the full checkpoint tests build
  // on.
  const auto cfg = base_config(CounterBackend::Exact, 2);
  ContainmentPipeline per_record(cfg);
  for (const auto& r : clean_trace()) per_record.feed(r);

  ContainmentPipeline spans(cfg);
  const std::span<const trace::ConnRecord> all(clean_trace());
  std::size_t i = 0;
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{7}, std::size_t{4096}}) {
    spans.feed(all.subspan(i, std::min(chunk, all.size() - i)));
    i += std::min(chunk, all.size() - i);
  }
  if (i < all.size()) spans.feed(all.subspan(i));
  EXPECT_EQ(spans.finish().verdicts, per_record.finish().verdicts);
}

/// A fleet large enough that every shard table outgrows the worker's
/// lookahead gate (2^15 slots, at half load: past 16384 hosts per shard at
/// one or two shards, past 8192 at four), with worm hosts that cross f·M and
/// M mid-stream.  A light per-host body (a few records each, ~170k in all)
/// keeps it quick under TSan.
const InjectedTrace& large_fleet_trace() {
  static const InjectedTrace injected = [] {
    trace::LblSynthConfig cfg;
    cfg.hosts = 40'000;
    cfg.duration = 1.0 * sim::kDay;
    cfg.body_log_mean = 0.7;
    cfg.body_log_sigma = 0.8;
    cfg.mean_revisits = 0.5;
    WormInjectConfig inject;
    inject.infected_hosts = 8;
    inject.scan_rate = 0.02;  // 2M scans over ~8 h: crossings land mid-stream
    inject.scans_per_host = 2 * 300;
    inject.start = 0.25 * sim::kDay;
    inject.host_count = cfg.hosts;
    return inject_worm_scans(trace::synthesize_lbl_trace(cfg).records, inject);
  }();
  return injected;
}

TEST(FleetPipeline, LookaheadPathMatchesAuditAcrossShardsAndRestore) {
  const InjectedTrace& injected = large_fleet_trace();
  const std::vector<trace::ConnRecord>& records = injected.records;
  auto cfg = base_config(CounterBackend::Exact, 1);
  cfg.policy.scan_limit = 300;
  cfg.policy.check_fraction = 0.5;

  const auto one = ContainmentPipeline::run(cfg, records);
  ASSERT_GT(one.verdicts.hosts.size(), 32'768u) << "fleet too small to reach the lookahead gate";

  trace::TraceAnalyzer analyzer(records);
  const auto report = analyzer.audit_policy({.scan_limit = cfg.policy.scan_limit,
                                             .cycle_length = cfg.policy.cycle_length,
                                             .check_fraction = cfg.policy.check_fraction});
  EXPECT_EQ(one.verdicts.hosts_removed, report.hosts_removed);
  EXPECT_EQ(one.verdicts.hosts_flagged, report.hosts_flagged);
  for (const std::uint32_t host : injected.infected_hosts) {
    const HostVerdict* v = one.verdicts.find(host);
    ASSERT_NE(v, nullptr) << "host " << host;
    EXPECT_TRUE(v->flagged) << "host " << host;
    EXPECT_TRUE(v->removed) << "host " << host;
    EXPECT_LT(v->flag_time, v->removal_time) << "host " << host;
  }

  for (const unsigned shards : {2u, 4u}) {
    cfg.shards = shards;
    EXPECT_EQ(ContainmentPipeline::run(cfg, records).verdicts, one.verdicts)
        << "shards=" << shards;
  }

  // Mid-stream checkpoint at two shards, resumed at four: the restored host
  // states (inline exact sets, in-cycle flags) must carry the lookahead path
  // to the uninterrupted verdicts.
  const std::size_t half = records.size() / 2;
  cfg.shards = 2;
  std::string blob;
  {
    ContainmentPipeline first(cfg);
    first.feed(std::span<const trace::ConnRecord>(records).first(half));
    blob = first.snapshot_blob();
  }
  cfg.shards = 4;
  auto resumed = ContainmentPipeline::restore_from_blob(cfg, blob);
  resumed->feed(std::span<const trace::ConnRecord>(records).subspan(half));
  EXPECT_EQ(resumed->finish().verdicts, one.verdicts);
}

TEST(FleetPipeline, VerdictCsvMatchesPrintfReference) {
  // write_verdicts_csv formats with std::to_chars; every row must equal the
  // printf rendering it replaced (%.17g times, %llu counts), edge values
  // included: zero, the smallest denormal, 2^53 + 1 (rounds to 2^53), tiny
  // and huge magnitudes, and fractional timestamps late in a 30-day cycle.
  constexpr double kCycle = 30.0 * 86'400.0;
  const double times[] = {0.0,
                          std::numeric_limits<double>::denorm_min(),
                          9007199254740993.0,
                          1e-300,
                          std::numeric_limits<double>::max(),
                          kCycle - 1e-6,
                          kCycle * 0.1234567890123,
                          1234567.891,
                          2.5,
                          kCycle + 1.0 / 3.0};
  ContainmentVerdicts verdicts;
  verdicts.node_id = std::numeric_limits<std::uint64_t>::max();
  std::uint32_t host = 0;
  for (const double flag_time : times) {
    for (const double removal_time : times) {
      HostVerdict v;
      v.host = host == 0 ? std::numeric_limits<std::uint32_t>::max() - 1 : host;
      v.records_seen = std::numeric_limits<std::uint64_t>::max() - host;
      v.peak_distinct = host * 1'000'003ull;
      v.flagged = (host % 2) == 0;
      v.flag_time = flag_time;
      v.removed = (host % 3) == 0;
      v.removal_time = removal_time;
      v.pre_contained = (host % 5) == 0;
      v.failures_seen = host;
      v.peak_failures = host == 0 ? 0 : std::uint64_t{1} << (host % 64);
      v.removed_by_failures = (host % 7) == 0;
      verdicts.hosts.push_back(v);
      ++host;
    }
  }
  // Enough rows to cross the writer's 64 KiB block boundary several times.
  const std::size_t distinct_rows = verdicts.hosts.size();
  for (std::size_t i = 0; verdicts.hosts.size() < 40 * distinct_rows; ++i) {
    HostVerdict v = verdicts.hosts[i % distinct_rows];
    v.host = static_cast<std::uint32_t>(verdicts.hosts.size());
    verdicts.hosts.push_back(v);
  }
  std::string expected =
      "host,records_seen,peak_distinct,flagged,flag_time,removed,removal_time,"
      "pre_contained,failures_seen,peak_failures,removed_by_failures,node\n";
  for (const HostVerdict& h : verdicts.hosts) {
    char row[512];
    const int n = std::snprintf(
        row, sizeof row, "%u,%llu,%llu,%d,%.17g,%d,%.17g,%d,%llu,%llu,%d,%llu\n", h.host,
        static_cast<unsigned long long>(h.records_seen),
        static_cast<unsigned long long>(h.peak_distinct), h.flagged ? 1 : 0, h.flag_time,
        h.removed ? 1 : 0, h.removal_time, h.pre_contained ? 1 : 0,
        static_cast<unsigned long long>(h.failures_seen),
        static_cast<unsigned long long>(h.peak_failures), h.removed_by_failures ? 1 : 0,
        static_cast<unsigned long long>(verdicts.node_id));
    ASSERT_GT(n, 0);
    expected.append(row, static_cast<std::size_t>(n));
  }
  ASSERT_GT(expected.size(), std::size_t{256} << 10);

  const std::string path = ::testing::TempDir() + "worms_verdicts_reference.csv";
  write_verdicts_csv(path, verdicts);
  std::ifstream in(path, std::ios::binary);
  const std::string written{std::istreambuf_iterator<char>(in),
                            std::istreambuf_iterator<char>()};
  ASSERT_EQ(written.size(), expected.size());
  std::size_t line = 0;
  std::size_t begin = 0;
  while (begin < expected.size()) {
    const std::size_t end_of_row = expected.find('\n', begin) + 1;
    ASSERT_EQ(written.substr(begin, end_of_row - begin), expected.substr(begin, end_of_row - begin))
        << "row " << line;
    begin = end_of_row;
    ++line;
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace worms::fleet
