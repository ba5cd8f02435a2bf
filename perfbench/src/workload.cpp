#include "workload.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <stdexcept>

#include "fleet/worm_injector.hpp"
#include "support/rng.hpp"
#include "trace/synth.hpp"

namespace perfbench {

namespace {

using worms::fleet::CounterBackend;

constexpr double kDaySeconds = 86400.0;
constexpr double kTraceDays = 30.0;
constexpr std::uint32_t kWormWaves = 8;

// Why each workload exists is recorded in perfbench/README.md; the sizes are
// set so one measured repetition takes about a second on a 4-core host.
std::vector<WorkloadSpec> all_workloads() {
  return {
      // File → verdicts, exact backend, checkpoints, obs off: the default
      // `wormctl contain` path.  ~7 M records, ~65 MiB of counter state.
      {.name = "contain-exact", .hosts = 50'000, .backend = CounterBackend::Exact,
       .checkpoints = true},
      // Same path with the shared-register backend: counter-bound, so its
      // population is smaller.
      {.name = "contain-compact", .hosts = 10'000, .backend = CounterBackend::Compact,
       .hosts_per_wave = 4},
      // Wire → verdicts over loopback TCP, with obs on, on contain-exact's
      // inputs.
      {.name = "serve-loopback", .hosts = 50'000, .backend = CounterBackend::Exact,
       .serve = true},
  };
}

}  // namespace

WorkloadSpec find_workload(const std::string& name, double scale) {
  for (WorkloadSpec w : all_workloads()) {
    if (w.name != name) continue;
    w.hosts = static_cast<std::uint32_t>(std::max(200.0, std::round(w.hosts * scale)));
    return w;
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

Inputs make_inputs(const WorkloadSpec& spec, std::uint64_t seed) {
  worms::trace::LblSynthConfig synth;
  synth.hosts = spec.hosts;
  synth.duration = kTraceDays * kDaySeconds;
  synth.seed = worms::support::derive_seed(seed, 0x5157);
  std::vector<worms::trace::ConnRecord> base = worms::trace::synthesize_lbl_trace(synth).records;

  // Each wave is injected over an empty base (so only the worm records are
  // sorted per wave) and the overlay is merged into the background once.
  // Ties keep background records first, as inject_worm_scans does.
  const double scan_rate = static_cast<double>(kScanLimit) / (1.5 * kDaySeconds);
  std::vector<worms::trace::ConnRecord> worm;
  std::vector<std::uint32_t> infected;
  for (std::uint32_t wave = 0; wave < kWormWaves; ++wave) {
    worms::fleet::WormInjectConfig cfg;
    cfg.infected_hosts = spec.hosts_per_wave;
    cfg.scan_rate = scan_rate;
    cfg.scans_per_host = 2 * kScanLimit;
    cfg.start = (0.5 + 3.0 * wave) * kDaySeconds;
    cfg.end = synth.duration;
    cfg.host_count = spec.hosts;
    cfg.seed = worms::support::derive_seed(seed, 0xA0E + wave);
    worms::fleet::InjectedTrace overlay = worms::fleet::inject_worm_scans({}, cfg);
    worm.insert(worm.end(), overlay.records.begin(), overlay.records.end());
    infected.insert(infected.end(), overlay.infected_hosts.begin(), overlay.infected_hosts.end());
  }
  const auto by_time = [](const worms::trace::ConnRecord& a, const worms::trace::ConnRecord& b) {
    return a.timestamp < b.timestamp;
  };
  std::stable_sort(worm.begin(), worm.end(), by_time);
  std::sort(infected.begin(), infected.end());
  infected.erase(std::unique(infected.begin(), infected.end()), infected.end());

  Inputs out;
  out.records.reserve(base.size() + worm.size());
  std::merge(base.begin(), base.end(), worm.begin(), worm.end(), std::back_inserter(out.records),
             by_time);
  out.infected = std::move(infected);

  // The synthesizer clamps burst times to the trace end, so a few hosts get
  // repeated identical (time, destination) records at t = duration.  The
  // pipeline dead-letters such repeats; they are dropped here so that every
  // record of the workload is countable.
  struct Last {
    double time = -1.0;
    std::uint32_t destination = 0;
  };
  std::vector<Last> last(spec.hosts);
  std::size_t kept = 0;
  for (const worms::trace::ConnRecord& r : out.records) {
    Last& l = last[r.source_host];
    if (l.time == r.timestamp && l.destination == r.destination.value()) continue;
    l = {r.timestamp, r.destination.value()};
    out.records[kept++] = r;
  }
  out.repeats_dropped = out.records.size() - kept;
  out.records.resize(kept);
  return out;
}

worms::fleet::PipelineOptions pipeline_options(const WorkloadSpec& spec) {
  worms::fleet::PipelineOptions options;
  options.policy.scan_limit = kScanLimit;
  options.policy.check_fraction = kCheckFraction;
  options.policy.cycle_length = kTraceDays * kDaySeconds;
  options.backend = spec.backend;
  options.shards = kShards;
  return options;
}

}  // namespace perfbench
