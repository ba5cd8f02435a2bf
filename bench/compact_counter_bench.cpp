// Distinct-counter backend frontier: memory per host vs counting accuracy,
// exact vs HLL vs compact, at fleet scales of 1M / 10M / 50M monitored hosts.
// Writes BENCH_compact.json (one record per backend × scale with bytes/host,
// relative-error quantiles, false-positive rate at the paper's budget, and
// add() throughput) for CI diffs and the EXPERIMENTS.md frontier table.  A
// "meta" object records host name, hardware threads, build type and source
// commit (`git describe --always --dirty` of the source tree, "unknown"
// outside a checkout), so ns_per_add rows from two commits can be diffed.
// Usage: compact_counter_bench [output.json].
//
// Methodology.  Exact and HLL counters are per-host and independent, so
// their error/memory profile is measured once on a host sample and holds at
// any fleet size.  The compact backend's accuracy depends on *bank density*
// (hosts per shared bank), which grows with the fleet, so each scale is
// measured by density-preserving sampling: simulate a subset of the 1024
// banks at exactly the per-bank host count the full fleet would have —
// within a bank, the sampled run is indistinguishable from the full-scale
// one — and extrapolate only the (analytic) pool totals.  Entries are
// labelled "measured" vs "extrapolated" accordingly.
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "fleet/distinct_counter.hpp"
#include "fleet/shared_sketch_pool.hpp"
#include "support/stopwatch.hpp"

namespace {

using namespace worms;

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Deterministic per-host workload matching the paper's LBL shape: ~90% of
/// hosts under 50 distinct destinations, a medium band, and a ~1% heavy tail
/// capped at 3000 — everything far below the paper's M = 10000 budget, so
/// every flag is a false positive.
std::uint32_t distinct_target(std::uint32_t host) {
  const std::uint64_t u = splitmix64(0xD157u ^ host);
  const std::uint64_t band = u % 1000;
  const auto pick = static_cast<std::uint32_t>(splitmix64(u));
  if (band < 900) return 5 + pick % 46;
  if (band < 990) return 50 + pick % 451;
  return 500 + pick % 2501;
}

std::uint32_t destination_of(std::uint32_t host, std::uint32_t i) {
  return static_cast<std::uint32_t>(splitmix64((std::uint64_t{host} << 32) | i));
}

constexpr std::uint64_t kBudgetM = 10'000;  // the paper's containment budget
constexpr double kFlagThreshold = 0.5 * kBudgetM;

struct BackendResult {
  std::string name;
  std::uint64_t scale = 0;          ///< fleet size the row describes
  std::string kind;                 ///< "measured" / "extrapolated"
  std::uint64_t hosts_sampled = 0;
  std::uint64_t adds = 0;
  double seconds = 0.0;
  double bytes_per_host = 0.0;
  double rel_err_p50 = 0.0;
  double rel_err_p99 = 0.0;
  double rel_err_max = 0.0;
  /// Error as a fraction of the budget M — the containment-relevant figure:
  /// a flag/removal decision moves only when the error is a meaningful slice
  /// of M, however large it looks relative to a tiny host's own count.
  double budget_err_p99 = 0.0;
  double budget_err_max = 0.0;
  double fp_rate = 0.0;             ///< fraction flagged at f·M = 5000
};

struct ErrorTally {
  std::vector<double> rel_errors;
  std::vector<double> abs_errors;
  std::uint64_t false_positives = 0;

  void record(std::uint64_t reported, std::uint32_t exact) {
    const double err = std::abs(static_cast<double>(reported) - static_cast<double>(exact));
    rel_errors.push_back(err / std::max<std::uint32_t>(exact, 1));
    abs_errors.push_back(err);
    if (static_cast<double>(reported) >= kFlagThreshold) ++false_positives;
  }
  void fold_into(BackendResult& out) {
    std::sort(rel_errors.begin(), rel_errors.end());
    std::sort(abs_errors.begin(), abs_errors.end());
    const std::size_t n = rel_errors.size();
    out.rel_err_p50 = n ? rel_errors[n / 2] : 0.0;
    out.rel_err_p99 = n ? rel_errors[(n * 99) / 100] : 0.0;
    out.rel_err_max = n ? rel_errors.back() : 0.0;
    out.budget_err_p99 = n ? abs_errors[(n * 99) / 100] / kBudgetM : 0.0;
    out.budget_err_max = n ? abs_errors.back() / kBudgetM : 0.0;
    out.fp_rate = n ? static_cast<double>(false_positives) / static_cast<double>(n) : 0.0;
  }
};

/// Exact / HLL: per-host counters, one sample fits all scales.
BackendResult bench_per_host_backend(fleet::CounterBackend backend, std::uint32_t hosts) {
  BackendResult out;
  out.name = fleet::to_string(backend);
  out.kind = "measured";
  out.hosts_sampled = hosts;
  ErrorTally tally;
  double memory = 0.0;
  const support::Stopwatch watch;
  for (std::uint32_t h = 0; h < hosts; ++h) {
    const auto counter = fleet::make_distinct_counter(backend, 12);
    const std::uint32_t d = distinct_target(h);
    for (std::uint32_t i = 0; i < d; ++i) (void)counter->add(destination_of(h, i));
    out.adds += d;
    memory += static_cast<double>(counter->memory_bytes());
    tally.record(counter->count(), d);
  }
  out.seconds = watch.elapsed_seconds();
  out.bytes_per_host = memory / hosts;
  tally.fold_into(out);
  return out;
}

/// Compact at fleet scale `scale`: simulate `banks_sampled` banks at the full
/// fleet's per-bank density, report analytic pool totals per host.
BackendResult bench_compact_at_scale(std::uint64_t scale, std::uint32_t banks_sampled) {
  fleet::CompactPoolConfig config;
  config.bits_per_host = 16;
  config.virtual_registers = 128;
  config.expected_hosts = scale;
  config.validate();

  BackendResult out;
  out.name = "compact";
  out.scale = scale;
  out.kind = "measured";  // error/fp measured; memory is analytic (see below)
  const auto hosts_per_bank = static_cast<std::uint32_t>(scale / fleet::kCompactBanks);

  fleet::SharedSketchPool pool(config);
  ErrorTally tally;
  const support::Stopwatch watch;
  for (std::uint32_t b = 0; b < banks_sampled; ++b) {
    fleet::SketchBank& bank = pool.bank_for(b);
    std::vector<std::unique_ptr<fleet::CompactCounter>> counters;
    std::vector<std::uint32_t> targets;
    counters.reserve(hosts_per_bank);
    for (std::uint32_t k = 0; k < hosts_per_bank; ++k) {
      const std::uint32_t host = b + k * fleet::kCompactBanks;
      counters.push_back(std::make_unique<fleet::CompactCounter>(bank, host));
      targets.push_back(distinct_target(host));
    }
    // Interleave hosts (round-robin) so slices fill concurrently — the
    // realistic worst case for cross-host noise, not one host at a time.
    bool progressed = true;
    for (std::uint32_t i = 0; progressed; ++i) {
      progressed = false;
      for (std::uint32_t k = 0; k < hosts_per_bank; ++k) {
        if (i >= targets[k]) continue;
        progressed = true;
        const std::uint32_t host = b + k * fleet::kCompactBanks;
        (void)counters[k]->add(destination_of(host, i));
        ++out.adds;
      }
    }
    for (std::uint32_t k = 0; k < hosts_per_bank; ++k) {
      tally.record(counters[k]->count(), targets[k]);
    }
    out.hosts_sampled += hosts_per_bank;
  }
  out.seconds = watch.elapsed_seconds();
  // Pool bytes are exact arithmetic (banks are all the same size), so the
  // full-fleet figure needs no measurement: registers amortized over the
  // fleet plus the per-host counter object.
  const double pool_bytes = static_cast<double>(fleet::kCompactBanks) *
                            static_cast<double>(config.registers_per_bank());
  out.bytes_per_host =
      pool_bytes / static_cast<double>(scale) + sizeof(fleet::CompactCounter);
  tally.fold_into(out);
  return out;
}

/// Commit of the source tree this binary was built from.
std::string source_commit() {
  const std::string command =
      "git -C '" WORMS_SOURCE_DIR "' describe --always --dirty --abbrev=40 2>/dev/null";
  std::FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return "unknown";
  char line[128] = {};
  const bool got = std::fgets(line, sizeof line, pipe) != nullptr;
  const int status = pclose(pipe);
  std::string commit = got && status == 0 ? line : "";
  while (!commit.empty() && (commit.back() == '\n' || commit.back() == '\r')) commit.pop_back();
  return commit.empty() ? "unknown" : commit;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_compact.json";

  std::vector<BackendResult> results;
  results.push_back(bench_per_host_backend(fleet::CounterBackend::Exact, 20'000));
  results.push_back(bench_per_host_backend(fleet::CounterBackend::Hll, 20'000));

  // Density-preserving bank samples: hosts/bank grows with the fleet, the
  // sampled bank count shrinks to keep wall time flat.
  results.push_back(bench_compact_at_scale(1'000'000, 32));
  results.push_back(bench_compact_at_scale(10'000'000, 8));
  results.push_back(bench_compact_at_scale(50'000'000, 4));

  const double hll_bytes_per_host = results[1].bytes_per_host;

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "compact_counter_bench: cannot open %s for writing\n",
                 out_path.c_str());
    return 1;
  }
  char host[256] = {};
  gethostname(host, sizeof host - 1);
  std::fprintf(out,
               "{\n  \"meta\": {\"host\": \"%s\", \"nproc\": %u, \"build_type\": \"%s\", "
               "\"commit\": \"%s\"},\n",
               host, std::thread::hardware_concurrency(), WORMS_BUILD_TYPE,
               source_commit().c_str());
  std::fprintf(out, "  \"budget_m\": %" PRIu64 ",\n  \"flag_threshold\": %.0f,\n",
               kBudgetM, kFlagThreshold);
  std::fprintf(out, "  \"benchmarks\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const BackendResult& r = results[i];
    const double ns_per_op =
        r.adds > 0 ? r.seconds * 1e9 / static_cast<double>(r.adds) : 0.0;
    const double ratio = r.bytes_per_host > 0.0 ? hll_bytes_per_host / r.bytes_per_host : 0.0;
    const std::string label =
        r.scale > 0 ? r.name + "/" + std::to_string(r.scale / 1'000'000) + "M" : r.name;
    std::fprintf(out,
                 "    {\"name\": \"%s\", \"kind\": \"%s\", \"scale\": %" PRIu64
                 ", \"hosts_sampled\": %" PRIu64 ", \"adds\": %" PRIu64
                 ", \"ns_per_add\": %.6g, \"bytes_per_host\": %.6g, "
                 "\"memory_vs_hll\": %.6g, \"rel_err_p50\": %.6g, \"rel_err_p99\": %.6g, "
                 "\"rel_err_max\": %.6g, \"budget_err_p99\": %.6g, \"budget_err_max\": %.6g, "
                 "\"fp_rate\": %.6g}%s\n",
                 label.c_str(), r.kind.c_str(), r.scale, r.hosts_sampled, r.adds, ns_per_op,
                 r.bytes_per_host, ratio, r.rel_err_p50, r.rel_err_p99, r.rel_err_max,
                 r.budget_err_p99, r.budget_err_max, r.fp_rate,
                 i + 1 < results.size() ? "," : "");
    std::printf("%-14s %-10s %9" PRIu64 " hosts %10.3f ms %8.1f B/host %7.1fx vs hll "
                "budget-err p99 %.4f max %.4f fp %.2g\n",
                label.c_str(), r.kind.c_str(), r.hosts_sampled, r.seconds * 1e3,
                r.bytes_per_host, ratio, r.budget_err_p99, r.budget_err_max, r.fp_rate);
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
