// perfbench — the containment system's end-to-end benchmark.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 --workdir DIR
//             [--commit SHA] [--spans-out FILE] [--scale F] [--perturb removal|count]
//
// One invocation generates the workload's inputs from the seed (several
// times: that is the set-up being measured), replays them through the
// oracle, runs one warm-up repetition, then repeats the headline path for S
// seconds.  With --trace 0 it prints the end-to-end metrics; with --trace 1
// it alternates untraced and traced repetitions and prints the per-layer
// ladder.  The last stdout line is the JSON result; the line before it,
// prefixed "meta ", records the run's provenance.  perfbench/run.py builds
// this program and is the documented entry point.
#include <fcntl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "fleet/pipeline.hpp"
#include "layers.hpp"
#include "obs/event_log.hpp"
#include "obs/registry.hpp"
#include "oracle.hpp"
#include "reps.hpp"
#include "spans.hpp"
#include "stats/empirical.hpp"
#include "support/stopwatch.hpp"
#include "trace/binary_io.hpp"
#include "workload.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using worms::trace::ConnRecord;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string workdir;
  std::string commit = "unknown";
  std::string spans_out;
  double scale = 1.0;
  Perturb perturb = Perturb::None;
};

[[noreturn]] void usage(const std::string& problem) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N --seconds S --trace 0|1 "
               "--workdir DIR [--commit SHA] [--spans-out FILE] [--scale F] "
               "[--perturb removal|count]\n",
               problem.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--perturb") {
      if (value != "removal" && value != "count") usage("--perturb must be removal or count");
      a.perturb = value == "removal" ? Perturb::Removal : Perturb::Count;
    } else if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
      have_seconds = a.seconds > 0.0;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace must be 0 or 1");
      a.trace = value == "1";
      have_trace = true;
    } else if (flag == "--workdir") {
      a.workdir = value;
    } else if (flag == "--commit") {
      a.commit = value;
    } else if (flag == "--spans-out") {
      a.spans_out = value;
    } else if (flag == "--scale") {
      a.scale = std::strtod(value.c_str(), &end);
      if (!(a.scale > 0.0 && a.scale <= 1.0)) usage("--scale must be in (0, 1]");
    } else {
      usage("unknown flag " + flag);
    }
    if (end != nullptr && *end != '\0') usage("bad value for " + flag + ": " + value);
  }
  if (a.workload.empty() || !have_seed || !have_seconds || !have_trace || a.workdir.empty()) {
    usage("--workload, --seed, --seconds (> 0), --trace and --workdir are required");
  }
  return a;
}

double median(std::vector<double> v) {
  return v.empty() ? 0.0 : worms::stats::EmpiricalDistribution(std::move(v)).quantile(0.5);
}

double percentile(std::vector<double> v, double p) {
  return v.empty() ? 0.0 : worms::stats::EmpiricalDistribution(std::move(v)).quantile(p);
}

/// Records per second as the median over samples of consecutive
/// repetitions, each sample holding at least kSampleSeconds of work.  Single
/// repetitions can be bimodal (a node's teardown waits out a poll slice or
/// not), and the median of a bimodal set flips between its modes.
double grouped_median_rate(std::vector<double> walls, double records) {
  constexpr double kSampleSeconds = 2.0;
  std::erase(walls, 0.0);  // a failed repetition has no wall time
  const double typical = median(walls);
  if (!(typical > 0.0)) return 0.0;
  const auto per_sample = static_cast<std::size_t>(std::ceil(kSampleSeconds / typical));
  std::vector<double> rates;
  for (std::size_t at = 0; at + per_sample <= walls.size(); at += per_sample) {
    double seconds = 0.0;
    for (std::size_t i = at; i < at + per_sample; ++i) seconds += walls[i];
    rates.push_back(records * static_cast<double>(per_sample) / seconds);
  }
  return median(rates);
}

/// Resets the kernel's peak-RSS mark so the reported peak covers the
/// measured repetitions, not input generation.  False where unsupported.
bool reset_peak_rss() {
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
  f.flush();
  return static_cast<bool>(f);
}

double peak_rss_mib(bool window_reset) {
  if (window_reset) {
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
      if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

void sync_file(const std::string& path) {
  const int fd = open(path.c_str(), O_RDONLY);
  if (fd < 0) throw std::runtime_error("cannot open " + path);
  const int rc = fsync(fd);
  close(fd);
  if (rc != 0) throw std::runtime_error("cannot sync " + path);
}

/// Host-wide CPU time counters from /proc/stat: {steal, total} in ticks.
std::pair<double, double> cpu_steal_ticks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  double total = 0.0;
  double steal = 0.0;
  for (int field = 0; field < 8; ++field) {
    double ticks = 0.0;
    if (!(stat >> ticks)) break;
    total += ticks;
    if (field == 7) steal = ticks;
  }
  return {steal, total};
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

int run(const Args& args) {
  const WorkloadSpec spec = find_workload(args.workload, args.scale);
  const worms::fleet::PipelineOptions options = pipeline_options(spec);
  std::filesystem::create_directories(args.workdir);
  const std::string wtrace_path = args.workdir + "/input.wtrace";
  bool correct = true;
  std::string problem;

  // Set-up, measured several times: seeded input generation (and, for file
  // workloads, writing the checksummed .wtrace).  Every generation must
  // reproduce the first one bit for bit.
  const int generations = args.trace ? 1 : 3;
  std::vector<double> generate_seconds;
  Inputs inputs;
  std::uint64_t first_checksum = 0;
  for (int g = 0; g < generations; ++g) {
    inputs = Inputs{};
    worms::support::Stopwatch watch;
    inputs = make_inputs(spec, args.seed);
    if (!spec.serve) worms::trace::write_wtrace_file(wtrace_path, inputs.records);
    generate_seconds.push_back(watch.elapsed_seconds());
    std::fprintf(stderr, "perfbench: generation %d %.4f s\n", g, generate_seconds.back());
    const std::uint64_t checksum =
        worms::trace::wtrace_checksum(inputs.records.data(), inputs.records.size() * sizeof(ConnRecord));
    if (g == 0) first_checksum = checksum;
    if (checksum != first_checksum) {
      correct = false;
      problem = "input generation is not deterministic in the seed";
    }
  }
  const std::uint64_t record_count = inputs.records.size();
  // Flush the input to disk outside every timed region, so its write-back
  // does not compete with the measured repetitions.
  if (!spec.serve) sync_file(wtrace_path);

  const OracleConfig oracle{.scan_limit = options.policy.scan_limit,
                            .check_fraction = options.policy.check_fraction,
                            .cycle_length = options.policy.cycle_length};
  const Expected expected = replay(inputs.records, oracle);
  std::uint32_t removed_by_oracle = 0;
  for (const auto& v : expected.hosts) removed_by_oracle += v.removed ? 1 : 0;

  // File workloads read the .wtrace; untraced runs drop the in-memory copy so
  // the peak RSS is the path's own.  Traced runs keep it for the replays.
  if (!spec.serve && !args.trace) {
    inputs.records = std::vector<ConnRecord>();
  }
  malloc_trim(0);
  const bool rss_window = reset_peak_rss();

  RepContext ctx;
  ctx.spec = &spec;
  ctx.expected = &expected;
  ctx.oracle = oracle;
  ctx.infected = &inputs.infected;
  ctx.records = inputs.records;
  ctx.record_count = record_count;
  ctx.wtrace_path = wtrace_path;
  ctx.checkpoint_path = args.workdir + "/state.ckpt";
  ctx.csv_path = args.workdir + "/verdicts.csv";
  ctx.perturb = args.perturb;

  SpanLog spans;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t out_of_envelope = 0;
  std::string envelope_problem;
  const auto account = [&](const RepResult& r) {
    attempted += r.offered;
    failed += r.failed;
    if (r.out_of_envelope > out_of_envelope) {
      out_of_envelope = r.out_of_envelope;
      envelope_problem = r.envelope_problem;
    }
    if (!r.ok) {
      correct = false;
      if (problem.empty()) problem = r.problem;
    }
  };

  account(run_rep(ctx, nullptr));  // warm-up: checked, not timed

  // Measured repetitions.  Traced runs alternate untraced (even) and traced
  // (odd) repetitions so drift affects both sides alike.
  std::vector<double> untraced_wall;
  std::vector<double> traced_wall;
  std::vector<double> construct_seconds;
  std::vector<RepResult> traced;
  const std::size_t min_reps = args.trace ? 4 : 3;
  const auto [steal_before, total_before] = cpu_steal_ticks();
  worms::support::Stopwatch window;
  for (std::size_t k = 0; window.elapsed_seconds() < args.seconds || k < min_reps; ++k) {
    const bool traced_rep = args.trace && k % 2 == 1;
    if (traced_rep) spans.set_rep(static_cast<std::int32_t>(traced.size() + 1));
    ctx.repetition = k + 1;
    RepResult r = run_rep(ctx, traced_rep ? &spans : nullptr);
    std::fprintf(stderr, "perfbench: rep %zu%s construct %.4f s, wall %.4f s\n", k,
                 traced_rep ? " (traced)" : "", r.construct_seconds, r.wall_seconds);
    account(r);
    construct_seconds.push_back(r.construct_seconds);
    (traced_rep ? traced_wall : untraced_wall).push_back(r.wall_seconds);
    if (traced_rep) traced.push_back(std::move(r));
  }
  const auto [steal_after, total_after] = cpu_steal_ticks();
  const double steal_share = total_after > total_before
                                 ? (steal_after - steal_before) / (total_after - total_before)
                                 : 0.0;
  const double rss_mib = peak_rss_mib(rss_window);
  const double n = static_cast<double>(record_count);

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics.push_back({"records_per_s", grouped_median_rate(untraced_wall, n), "1/s"});
    metrics.push_back({"setup_s", median(generate_seconds) + median(construct_seconds), "s"});
    metrics.push_back({"peak_rss_mib", rss_mib, "MiB"});
    metrics.push_back({"accounted_share",
                       attempted == 0 ? 0.0
                                      : static_cast<double>(attempted - failed) /
                                            static_cast<double>(attempted),
                       "share"});
  } else {
    // Per-repetition layer values, then their medians over traced reps.
    std::map<std::string, std::vector<double>> per_rep;
    for (std::size_t t = 0; t < traced.size(); ++t) {
      const auto rep = static_cast<std::int32_t>(t + 1);
      const RepResult& r = traced[t];
      const std::size_t checkpoints = spans.count("pipeline.checkpoint", rep);
      per_rep["trace.verify_ms"].push_back(spans.total_ns("trace.open", rep) * 1e-6);
      per_rep["trace.next_batch_ns_per_rec"].push_back(spans.total_ns("trace.next_batch", rep) / n);
      per_rep["pipeline.feed_ns_per_rec"].push_back(spans.self_ns("pipeline.feed", rep) / n);
      per_rep["pipeline.checkpoint_ms"].push_back(
          checkpoints == 0 ? 0.0
                           : spans.total_ns("pipeline.checkpoint", rep) * 1e-6 /
                                 static_cast<double>(checkpoints));
      per_rep["ladder.checkpoint_total_ms"].push_back(spans.total_ns("pipeline.checkpoint", rep) * 1e-6);
      per_rep["pipeline.finish_ms"].push_back(spans.total_ns("pipeline.finish", rep) * 1e-6);
      per_rep["verdict.csv_ms"].push_back(spans.total_ns("verdict.csv", rep) * 1e-6);
      per_rep["pipeline.counter_mib"].push_back(static_cast<double>(r.counter_bytes) / 1048576.0);
      per_rep["pipeline.queue_high_water"].push_back(r.queue_fill);
      per_rep["pipeline.removal_lag_p50_ms"].push_back(percentile(r.removal_lag_ms, 0.50));
      per_rep["pipeline.removal_lag_p99_ms"].push_back(percentile(r.removal_lag_ms, 0.99));
      per_rep["node.bytes_per_rec"].push_back(r.wire_bytes_per_record);
      per_rep["node.ingest_s"].push_back(spans.total_ns("node.run_ingest", rep) * 1e-9);
      per_rep["node.drain_ms"].push_back(spans.total_ns("node.drain", rep) * 1e-6);
      per_rep["obs.render_ms"].push_back(spans.total_ns("obs.render", rep) * 1e-6);
      per_rep["obs.collect_ms"].push_back(spans.total_ns("obs.collect", rep) * 1e-6);
      per_rep["obs.events"].push_back(static_cast<double>(r.events));
      per_rep["obs.events_dropped"].push_back(static_cast<double>(r.events_dropped));
    }
    std::map<std::string, double> layer;
    for (const auto& [name, values] : per_rep) layer[name] = median(values);

    // Single-threaded replays of the layers that run inside pipeline threads.
    spans.set_rep(0);
    const std::span<const ConnRecord> records = inputs.records;
    {
      SpanLog::Scope s(&spans, "route.replay");
      layer["route.ns_per_rec"] =
          replay_route(records, options, spec.serve ? kWireBatch : kFeedBlock);
    }
    {
      SpanLog::Scope s(&spans, "transport.replay");
      layer["transport.handoff_ns_per_batch"] =
          replay_handoff(records, options.batch_size, options.queue_capacity);
    }
    {
      SpanLog::Scope s(&spans, "counter.replay");
      layer["counter.add_ns_per_rec"] = replay_counter(records, expected.processed, options);
    }
    {
      SpanLog::Scope s(&spans, "policy.replay");
      layer["policy.on_scan_ns"] = replay_policy(records, expected.counted, options);
    }
    layer["wire.encode_ns_per_rec"] = 0.0;
    layer["wire.decode_ns_per_rec"] = 0.0;
    if (spec.serve) {
      SpanLog::Scope s(&spans, "wire.replay");
      const WireCost wire = replay_wire(records, kWireBatch);
      if (!wire.roundtrip_ok) {
        correct = false;
        if (problem.empty()) problem = "wire round trip changed the records";
      }
      layer["wire.encode_ns_per_rec"] = wire.encode_ns_per_rec;
      layer["wire.decode_ns_per_rec"] = wire.decode_ns_per_rec;
      // The node feeds its pipeline on its own thread; feed and finish are
      // timed here on a pipeline with the node's options, fed in
      // wire-batch-sized blocks.
      worms::obs::Registry registry;
      worms::obs::EventLog events;
      worms::fleet::PipelineOptions node_options = options;
      node_options.metrics = &registry;
      node_options.events = &events;
      worms::fleet::ContainmentPipeline pipeline(node_options);
      const std::int32_t replay_rep = -1;
      spans.set_rep(replay_rep);
      for (std::size_t at = 0; at < records.size(); at += kWireBatch) {
        SpanLog::Scope f(&spans, "pipeline.feed");
        pipeline.feed(records.subspan(at, std::min(kWireBatch, records.size() - at)));
      }
      {
        SpanLog::Scope f(&spans, "pipeline.finish");
        (void)pipeline.finish();
      }
      layer["pipeline.feed_ns_per_rec"] = spans.self_ns("pipeline.feed", replay_rep) / n;
      layer["pipeline.finish_ms"] = spans.total_ns("pipeline.finish", replay_rep) * 1e-6;
      spans.set_rep(0);
    }
    layer["oracle.ns_per_rec"] = expected.replay_seconds * 1e9 / n;
    layer["oracle.compact_out_of_envelope"] = static_cast<double>(out_of_envelope);
    layer["pipeline.checkpoint_mib"] =
        spec.checkpoints && std::filesystem::exists(ctx.checkpoint_path)
            ? static_cast<double>(std::filesystem::file_size(ctx.checkpoint_path)) / 1048576.0
            : 0.0;

    // Ladder: end-to-end ns/record (untraced reps) against the rungs.
    const double e2e_ns = median(untraced_wall) * 1e9 / n;
    double counted_calls = 0.0;
    for (const bool c : expected.counted) counted_calls += c ? 1.0 : 0.0;
    const double ingest_ns =
        (spec.serve ? layer["wire.decode_ns_per_rec"]
                    : layer["trace.verify_ms"] * 1e6 / n + layer["trace.next_batch_ns_per_rec"]) +
        layer["route.ns_per_rec"] +
        layer["transport.handoff_ns_per_batch"] / static_cast<double>(options.batch_size) +
        layer["ladder.checkpoint_total_ms"] * 1e6 / n +
        (layer["pipeline.finish_ms"] + layer["verdict.csv_ms"]) * 1e6 / n;
    const double worker_ns =
        layer["counter.add_ns_per_rec"] + layer["policy.on_scan_ns"] * counted_calls / n;
    layer["ladder.residual_share"] =
        (e2e_ns - (ingest_ns + worker_ns / static_cast<double>(options.shards))) / e2e_ns;
    layer["trace.overhead_share"] = median(traced_wall) / median(untraced_wall) - 1.0;

    const std::map<std::string, std::string> units = {
        {"trace.verify_ms", "ms"}, {"trace.next_batch_ns_per_rec", "ns"},
        {"pipeline.feed_ns_per_rec", "ns"}, {"route.ns_per_rec", "ns"},
        {"transport.handoff_ns_per_batch", "ns"}, {"counter.add_ns_per_rec", "ns"},
        {"pipeline.counter_mib", "MiB"}, {"policy.on_scan_ns", "ns"},
        {"pipeline.checkpoint_ms", "ms"}, {"pipeline.checkpoint_mib", "MiB"},
        {"pipeline.finish_ms", "ms"}, {"verdict.csv_ms", "ms"},
        {"pipeline.queue_high_water", "share"}, {"pipeline.removal_lag_p50_ms", "ms"},
        {"pipeline.removal_lag_p99_ms", "ms"}, {"wire.encode_ns_per_rec", "ns"},
        {"wire.decode_ns_per_rec", "ns"}, {"node.bytes_per_rec", "B"},
        {"node.ingest_s", "s"}, {"node.drain_ms", "ms"}, {"obs.render_ms", "ms"},
        {"obs.collect_ms", "ms"}, {"obs.events", "count"}, {"obs.events_dropped", "count"},
        {"oracle.ns_per_rec", "ns"}, {"oracle.compact_out_of_envelope", "count"},
        {"ladder.residual_share", "share"},
        {"trace.overhead_share", "share"}};
    for (const auto& [name, unit] : units) {
      const auto it = layer.find(name);
      if (it == layer.end()) throw std::logic_error("per-layer metric not measured: " + name);
      metrics.push_back({name, it->second, unit});
    }
    if (!args.spans_out.empty()) spans.write_jsonl(args.spans_out);
  }

  std::error_code ignored;
  std::filesystem::remove(wtrace_path, ignored);
  std::filesystem::remove(ctx.checkpoint_path, ignored);
  std::filesystem::remove(ctx.csv_path, ignored);

  if (!correct) std::fprintf(stderr, "perfbench: verdict check failed: %s\n", problem.c_str());
  if (out_of_envelope > 0) {
    std::fprintf(stderr,
                 "perfbench: warning: %llu compact host(s) outside the DESIGN.md §13 envelope; "
                 "first: %s\n",
                 static_cast<unsigned long long>(out_of_envelope), envelope_problem.c_str());
  }

  char host[256] = {};
  gethostname(host, sizeof host - 1);
  std::printf(
      "meta {\"host\":\"%s\",\"nproc\":%u,\"build_type\":\"%s\",\"compiler\":\"%s\","
      "\"worms_obs\":\"%s\",\"commit\":\"%s\",\"workload\":\"%s\",\"seed\":%llu,"
      "\"records\":%llu,\"hosts\":%zu,\"worm_hosts\":%zu,\"removed_by_oracle\":%u,"
      "\"repeats_dropped\":%llu,\"oracle_dead_letters\":%llu,"
      "\"shards\":%u,\"untraced_reps\":%zu,\"traced_reps\":%zu,\"rss_window\":\"%s\","
      "\"compact_out_of_envelope\":%llu,\"cpu_steal_share\":%.4f}\n",
      json_escape(host).c_str(), std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE,
      json_escape(__VERSION__).c_str(),
#ifdef WORMS_OBS_DISABLED
      "OFF",
#else
      "ON",
#endif
      json_escape(args.commit).c_str(), spec.name.c_str(),
      static_cast<unsigned long long>(args.seed), static_cast<unsigned long long>(record_count),
      expected.hosts.size(), inputs.infected.size(), removed_by_oracle,
      static_cast<unsigned long long>(inputs.repeats_dropped),
      static_cast<unsigned long long>(expected.dead_letters), options.shards,
      untraced_wall.size(), traced_wall.size(), rss_window ? "repetitions" : "process",
      static_cast<unsigned long long>(out_of_envelope), steal_share);

  std::string line = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) line += ", ";
    line += "\"" + metrics[i].name + "\": {\"value\": " + number(metrics[i].value) +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args args = perfbench::parse_args(argc, argv);
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
