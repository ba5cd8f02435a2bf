// google-benchmark microbenchmarks of the hot substrates: RNG, samplers,
// address table, event queue, Borel–Tanner evaluation, one end-to-end
// contained outbreak per engine, the parallel Monte Carlo sweep, and the
// fleet streaming-containment pipeline.
#include <benchmark/benchmark.h>

#include <filesystem>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/monte_carlo.hpp"
#include "core/borel_tanner.hpp"
#include "core/scan_limit_policy.hpp"
#include "fleet/host_table.hpp"
#include "fleet/pipeline.hpp"
#include "fleet/worm_injector.hpp"
#include "net/address_table.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "sim/event_queue.hpp"
#include "stats/samplers.hpp"
#include "support/rng.hpp"
#include "trace/binary_io.hpp"
#include "trace/record_source.hpp"
#include "trace/synth.hpp"
#include "trace/trace_io.hpp"
#include "worm/hit_level_sim.hpp"
#include "worm/scan_level_sim.hpp"

namespace {

using namespace worms;

void BM_RngU64(benchmark::State& state) {
  support::Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.u64());
  }
}
BENCHMARK(BM_RngU64);

void BM_RngBelow(benchmark::State& state) {
  support::Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.below(360'000));
  }
}
BENCHMARK(BM_RngBelow);

void BM_GeometricTrials(benchmark::State& state) {
  support::Rng rng(1);
  const double p = 8.38e-5;
  for (auto _ : state) {
    benchmark::DoNotOptimize(stats::sample_geometric_trials(rng, p));
  }
}
BENCHMARK(BM_GeometricTrials);

void BM_BinomialSampler(benchmark::State& state) {
  support::Rng rng(1);
  const auto n = static_cast<std::uint64_t>(state.range(0));
  const double p = state.range(1) / 1000.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(stats::sample_binomial(rng, n, p));
  }
}
BENCHMARK(BM_BinomialSampler)->Args({10'000, 0})->Args({10'000, 300})->Args({100, 300});

void BM_PoissonSampler(benchmark::State& state) {
  support::Rng rng(1);
  const double lambda = state.range(0) / 100.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(stats::sample_poisson(rng, lambda));
  }
}
BENCHMARK(BM_PoissonSampler)->Arg(83)->Arg(8'000);

void BM_AddressTableLookup(benchmark::State& state) {
  support::Rng setup(2);
  net::AddressTable table(360'000);
  for (std::uint32_t i = 0; i < 360'000; ++i) {
    while (!table.insert(net::Ipv4Address(setup.u32()), i)) {
    }
  }
  support::Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.find(net::Ipv4Address(rng.u32())));
  }
}
BENCHMARK(BM_AddressTableLookup);

void BM_EventQueuePushPop(benchmark::State& state) {
  sim::EventQueue<std::uint64_t> q;
  support::Rng rng(4);
  // Steady-state heap of 10k pending events.
  for (int i = 0; i < 10'000; ++i) q.push(rng.uniform() * 1000.0, i);
  double now = 0.0;
  for (auto _ : state) {
    const auto e = q.pop();
    now = e.time;
    q.push(now + rng.uniform() * 10.0, e.payload);
  }
}
BENCHMARK(BM_EventQueuePushPop);

void BM_BorelTannerPmf(benchmark::State& state) {
  const core::BorelTanner law(0.838, 10);
  std::uint64_t k = 10;
  for (auto _ : state) {
    benchmark::DoNotOptimize(law.pmf(k));
    if (++k > 500) k = 10;
  }
}
BENCHMARK(BM_BorelTannerPmf);

void BM_HitLevelCodeRedRun(benchmark::State& state) {
  const worm::WormConfig cfg = worm::WormConfig::code_red();
  std::uint64_t seed = 1;
  for (auto _ : state) {
    worm::HitLevelSimulation sim(cfg, 10'000, seed++);
    benchmark::DoNotOptimize(sim.run().total_infected);
  }
}
BENCHMARK(BM_HitLevelCodeRedRun)->Unit(benchmark::kMillisecond);

void BM_ScanLevelSmallWorldRun(benchmark::State& state) {
  worm::WormConfig cfg;
  cfg.vulnerable_hosts = 2'000;
  cfg.address_bits = 16;
  cfg.initial_infected = 4;
  cfg.scan_rate = 10.0;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    auto policy = std::make_unique<core::ScanCountLimitPolicy>(
        core::ScanCountLimitPolicy::Config{.scan_limit = 16});
    worm::ScanLevelSimulation sim(cfg, std::move(policy), seed++);
    benchmark::DoNotOptimize(sim.run().total_infected);
  }
}
BENCHMARK(BM_ScanLevelSmallWorldRun)->Unit(benchmark::kMillisecond);

// 500-run Code Red sweep through the redesigned engine; the argument is the
// thread count (0 = one worker per hardware thread).  Outcomes are
// bit-identical across rows — only the wall clock moves, so compare real
// time, not CPU time.
void BM_MonteCarloCodeRed500(benchmark::State& state) {
  const worm::WormConfig cfg = worm::WormConfig::code_red();
  const auto threads = static_cast<unsigned>(state.range(0));
  for (auto _ : state) {
    const auto mc = analysis::run_monte_carlo(
        {.runs = 500, .base_seed = 0x0500, .threads = threads},
        [&](std::uint64_t seed, std::uint64_t) {
          worm::HitLevelSimulation sim(cfg, 10'000, seed);
          return sim.run().total_infected;
        });
    benchmark::DoNotOptimize(mc.summary.mean());
  }
}
BENCHMARK(BM_MonteCarloCodeRed500)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(0)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Flight-recorder hot path (DESIGN.md §9): one TraceRing::record is a clock
// read plus four relaxed field stores inside a seqlock bracket, wrapping the
// ring forever (the steady state of a long containment run).  The synthetic-clock
// row isolates the store cost from the steady_clock read; items/s is events
// recorded per second.  In a WORMS_OBS=OFF build both rows measure an empty
// inline function.
void BM_TraceRecord(benchmark::State& state) {
  obs::TracerOptions options;
  options.buffer_events = 1u << 16;
  options.clock = state.range(0) == 0 ? obs::TraceClock::Wall : obs::TraceClock::Synthetic;
  obs::Tracer tracer(options);
  obs::TraceRing& ring = tracer.ring(0);
  for (auto _ : state) {
    ring.instant("bench_event", 1.0);
  }
  benchmark::DoNotOptimize(ring.recorded());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TraceRecord)->Arg(0)->Arg(1);

// Fleet streaming-containment pipeline over a synthetic LBL population with
// a worm overlay.  Args: {shards (0 = auto), backend (0 = exact, 1 = hll),
// metrics (0 = off, 1 = instrumented)}.  Verdicts are bit-identical across
// rows with the same backend; items/s is connection records per second, the
// pipeline's headline number.  The metrics=1 rows measure the observability
// overhead budget (DESIGN.md §8): every hot-path counter/histogram live.
void BM_FleetPipeline(benchmark::State& state) {
  static const std::vector<trace::ConnRecord> records = [] {
    trace::LblSynthConfig cfg;
    cfg.hosts = 1'645;
    cfg.duration = 8.0 * sim::kDay;
    fleet::WormInjectConfig inject;
    inject.infected_hosts = 10;
    inject.scan_rate = 6.0;
    inject.scans_per_host = 10'000;
    return fleet::inject_worm_scans(trace::synthesize_lbl_trace(cfg).records, inject).records;
  }();

  fleet::PipelineOptions cfg;
  cfg.policy.scan_limit = 5'000;
  cfg.policy.check_fraction = 0.5;
  cfg.shards = static_cast<unsigned>(state.range(0));
  cfg.backend = state.range(1) == 0 ? fleet::CounterBackend::Exact : fleet::CounterBackend::Hll;
  for (auto _ : state) {
    // A fresh registry per run keeps instrument lookup (setup_metrics) inside
    // the measured region, matching how wormctl contain --metrics pays it.
    obs::Registry registry;
    if (state.range(2) != 0) cfg.metrics = &registry;
    const auto result = fleet::ContainmentPipeline::run(cfg, records);
    benchmark::DoNotOptimize(result.verdicts.hosts_removed);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(records.size()));
}
BENCHMARK(BM_FleetPipeline)
    ->Args({1, 0, 0})
    ->Args({2, 0, 0})
    ->Args({4, 0, 0})
    ->Args({0, 0, 0})
    ->Args({1, 1, 0})
    ->Args({2, 1, 0})
    ->Args({4, 1, 0})
    ->Args({0, 1, 0})
    ->Args({1, 0, 1})
    ->Args({2, 0, 1})
    ->Args({4, 0, 1})
    ->Args({0, 0, 1})
    ->Args({1, 1, 1})
    ->Args({2, 1, 1})
    ->Args({4, 1, 1})
    ->Args({0, 1, 1})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// ---- Ingest attribution ladder (DESIGN.md §10) -----------------------------
//
// Each rung isolates one stage of the record path — parse, shard routing,
// distinct counting, policy — over the same worm-overlay trace, so when the
// end-to-end number moves, the ladder names the layer that moved it.
// BM_ContainFromFile is the headline: the complete file-to-verdicts path,
// with a format axis.

const std::vector<trace::ConnRecord>& ingest_records() {
  static const std::vector<trace::ConnRecord> records = [] {
    trace::LblSynthConfig cfg;
    cfg.hosts = 1'645;
    cfg.duration = 8.0 * sim::kDay;
    fleet::WormInjectConfig inject;
    inject.infected_hosts = 10;
    inject.scan_rate = 6.0;
    inject.scans_per_host = 10'000;
    return fleet::inject_worm_scans(trace::synthesize_lbl_trace(cfg).records, inject).records;
  }();
  return records;
}

std::string ingest_file(const char* name, bool binary) {
  const std::string path =
      (std::filesystem::temp_directory_path() / name).string();
  if (!std::filesystem::exists(path)) {
    if (binary) {
      trace::write_wtrace_file(path, ingest_records());
    } else {
      trace::write_csv_file(path, ingest_records());
    }
  }
  return path;
}

const std::string& ingest_csv() {
  static const std::string path = ingest_file("worms_bench_ingest.csv", false);
  return path;
}

const std::string& ingest_wtrace() {
  static const std::string path = ingest_file("worms_bench_ingest.wtrace", true);
  return path;
}

// Rung 1a: CSV text parse (the cost the binary format deletes).
void BM_IngestParseCsv(benchmark::State& state) {
  std::vector<trace::ConnRecord> buf(8192);
  std::uint64_t total = 0;
  for (auto _ : state) {
    trace::CsvSource source(ingest_csv());
    while (const std::size_t n = source.next_batch(buf)) total += n;
  }
  benchmark::DoNotOptimize(total);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(ingest_records().size()));
}
BENCHMARK(BM_IngestParseCsv)->Unit(benchmark::kMillisecond);

// Rung 1b: binary read, with (arg 1) and without (arg 0) the open-time
// checksum pass.  The arg-0 row is pure mmap + memcpy.
void BM_IngestReadBinary(benchmark::State& state) {
  std::vector<trace::ConnRecord> buf(8192);
  std::uint64_t total = 0;
  for (auto _ : state) {
    trace::BinarySource source(ingest_wtrace(), state.range(0) != 0);
    while (const std::size_t n = source.next_batch(buf)) total += n;
  }
  benchmark::DoNotOptimize(total);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(ingest_records().size()));
}
BENCHMARK(BM_IngestReadBinary)->Arg(0)->Arg(1);

// Rung 2: shard routing — the ingest thread's per-record work.
void BM_IngestShardRoute(benchmark::State& state) {
  const auto& records = ingest_records();
  const unsigned shards = static_cast<unsigned>(state.range(0));
  for (auto _ : state) {
    std::uint64_t spread = 0;
    for (const trace::ConnRecord& r : records) spread += r.source_host % shards;
    benchmark::DoNotOptimize(spread);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(records.size()));
}
BENCHMARK(BM_IngestShardRoute)->Arg(2)->Arg(4);

// Rung 3: per-host state lookup — the open-addressing HostTable (arg 0, the
// pipeline's table) against the std::unordered_map it replaced (arg 1).
void BM_IngestHostTableCount(benchmark::State& state) {
  const auto& records = ingest_records();
  for (auto _ : state) {
    std::uint64_t sum = 0;
    if (state.range(0) == 0) {
      fleet::HostTable<std::uint64_t> table;
      for (const trace::ConnRecord& r : records) {
        auto [it, inserted] = table.try_emplace(r.source_host);
        sum += ++it->second;
      }
    } else {
      std::unordered_map<std::uint32_t, std::uint64_t> table;
      for (const trace::ConnRecord& r : records) {
        auto [it, inserted] = table.try_emplace(r.source_host);
        sum += ++it->second;
      }
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(records.size()));
}
BENCHMARK(BM_IngestHostTableCount)->Arg(0)->Arg(1);

// Rung 4: policy — one on_scan per record against the paper's budget check.
void BM_IngestPolicyOnScan(benchmark::State& state) {
  const auto& records = ingest_records();
  for (auto _ : state) {
    core::ScanCountLimitPolicy policy(
        {.scan_limit = 5'000, .cycle_length = 30 * sim::kDay, .check_fraction = 0.5});
    std::uint64_t removed = 0;
    for (const trace::ConnRecord& r : records) {
      const core::ScanDecision d = policy.on_scan(r.source_host, r.timestamp, r.destination);
      removed += d.action == core::ScanAction::Remove ? 1 : 0;
    }
    benchmark::DoNotOptimize(removed);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(records.size()));
}
BENCHMARK(BM_IngestPolicyOnScan);

// End to end: file bytes to verdicts.  Args: {format (0 = CSV, 1 = .wtrace),
// shards}; verdicts are bit-identical across every row with the same shard
// count.
void BM_ContainFromFile(benchmark::State& state) {
  fleet::PipelineOptions cfg;
  cfg.policy.scan_limit = 5'000;
  cfg.policy.check_fraction = 0.5;
  cfg.shards = static_cast<unsigned>(state.range(1));
  for (auto _ : state) {
    fleet::PipelineResult result;
    if (state.range(0) == 0) {
      trace::CsvSource source(ingest_csv());
      result = fleet::ContainmentPipeline::run(cfg, source);
    } else {
      trace::BinarySource source(ingest_wtrace());
      result = fleet::ContainmentPipeline::run(cfg, source);
    }
    benchmark::DoNotOptimize(result.verdicts.hosts_removed);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(ingest_records().size()));
}
BENCHMARK(BM_ContainFromFile)
    ->Args({0, 2})
    ->Args({1, 2})
    ->Args({0, 4})
    ->Args({1, 4})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace
