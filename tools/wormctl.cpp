// wormctl — command-line front end to the worm-containment library.
//
// Subcommands:
//   plan       choose the largest safe scan budget M for an outbreak bound
//              --hosts V [--bits 32] [--i0 10] [--max-infected 360]
//              [--confidence 0.99]
//   extinction per-generation extinction probabilities and the Prop.1 threshold
//              --hosts V --budget M [--bits 32] [--i0 1] [--generations 20]
//   simulate   Monte Carlo outbreaks under containment (hit-level engine)
//              --hosts V --budget M [--bits 32] [--i0 10] [--rate 6]
//              [--runs 500] [--seed 1] [--threads 0]
//              (--threads 0 = one worker per hardware thread; any thread
//              count produces bit-identical results)
//              graph mode: [--topology er|ba|ws|complete] [--nodes N]
//              [--avg-degree K] [--phi P]
//              (runs the per-edge transmission cascade on a generated
//              topology instead of the flat address space, estimates the
//              adjacency spectral radius by power iteration, and reports
//              the outbreak distribution against the phi*rho(A) <= 1
//              epidemic threshold; --phi is the per-edge transmission
//              probability, --avg-degree the target mean degree)
//   multitype  preference-scanning (two-type) criticality and safe budget
//              [--local-density 5e-3] [--global-density 2e-5]
//              [--local-share 0.8] [--budget M*]
//   synth      generate an LBL-CONN-7-style clean trace (CSV, or packed
//              .wtrace binary when --out ends in .wtrace)
//              --out FILE [--hosts 1645] [--days 30] [--seed ...]
//   audit      replay a trace CSV through the containment policy
//              --trace FILE --budget M [--cycle-days 30] [--check-fraction 1.0]
//   contain    stream a trace through the fleet containment pipeline
//              (--trace FILE | --synth) --budget M [--cycle-days 30]
//              [--check-fraction 1.0] [--shards 0]
//              [--counter exact|hll|compact] [--hll-precision 12]
//              [--compact-bits-per-host 8] [--compact-virtual-registers 128]
//              [--compact-expected-hosts 1048576] [--failure-budget 0]
//              [--inject-worm RATE,SCANS,I0] [--seed 1]
//              [--divergence] [--hosts 1645] [--days 30]
//              [--checkpoint PATH] [--checkpoint-every N] [--resume PATH]
//              [--fault-plan SPEC] [--dead-letter PATH]
//              [--verdicts-out FILE]
//              [--metrics FILE] [--metrics-every N]
//              [--metrics-format prometheus|json]
//              [--trace-out FILE] [--trace-buffer-events N]
//              [--trace-clock wall|synthetic]
//              [--metrics-listen PORT] [--events FILE]
//              [--events-clock wall|synthetic] [--node-id N]
//              (--trace FILE accepts CSV or .wtrace — the format is sniffed
//              from the file's magic, and a binary trace streams zero-copy
//              from an mmap; --verdicts-out writes the per-host verdict
//              table as deterministic CSV)
//              (--shards 0 = one worker per hardware thread; --inject-worm
//              overlays I0 infected hosts scanning at RATE scans/s for up to
//              SCANS scans each; --divergence runs exact AND hll and reports
//              the false-positive cost of approximate counting;
//              --counter compact shares one register pool per shard — a few
//              bits per host, sized by --compact-bits-per-host /
//              --compact-virtual-registers / --compact-expected-hosts
//              (DESIGN.md §13); --failure-budget N removes a host whose
//              failed connections (the trace's outcome column) reach N in
//              one containment cycle, 0 = tally only;
//              --checkpoint-every N snapshots pipeline state every N records,
//              --resume PATH restarts from a snapshot and replays the record
//              suffix; --fault-plan scripts worker kills/stalls/degrades and
//              record corruption, e.g. "kill:0@10;corrupt:500;stall:1@5,0.25";
//              --dead-letter PATH parses the trace in recovering mode and
//              spills quarantined records there as CSV; --metrics FILE turns
//              on the observability layer and publishes a metrics export
//              (atomic temp+rename) there after the run — and every N
//              ingested records with --metrics-every N — plus a final
//              summary table on stdout.  --metrics-every counts *absolute*
//              stream position, records_fed() % N == 0, so a --resume run
//              exports at exactly the positions the uninterrupted run would
//              have.  --trace-out FILE records a flight-recorder trace of
//              the run and writes Chrome trace-event JSON there — open it at
//              ui.perfetto.dev or chrome://tracing; with --synth, --trace is
//              accepted as an alias for --trace-out (the input-CSV meaning is
//              vacant).  --trace-buffer-events bounds the per-thread ring
//              (oldest events are overwritten); --trace-clock synthetic
//              stamps logical sequence numbers instead of nanoseconds, for
//              byte-reproducible traces.  A traced run also keeps the event
//              journal (the --events one, else an in-memory one on the
//              trace's clock) and renders its transitions into the trace as
//              instants, so --trace-clock and --events-clock must agree.
//              --metrics - streams the export to stdout instead of a file;
//              --metrics-listen PORT serves live HTTP/1.0 `GET /metrics`
//              scrapes on 127.0.0.1:PORT for the whole run — every response
//              is a fresh atomic Registry snapshot, so a Prometheus scraper
//              watches the containment run in flight.  --events FILE turns on the structured event
//              journal: every degrade step, checkpoint write/restore,
//              host removal, and fault-clause firing is appended (wait-free,
//              a few tens of ns) and exported as JSONL; --events-clock
//              synthetic stamps logical sequence numbers so two identical
//              runs produce byte-identical journals; --node-id N stamps the
//              journal and the verdict provenance column for multi-node
//              runs)
//   trace      summarize FILE — per-span count/total/p50/p99 plus instant and
//              counter tables from a trace written by contain --trace-out
//              convert IN OUT — CSV ↔ .wtrace binary (direction sniffed from
//              IN's magic; CSV→binary applies contain's time sort so the
//              packed stream replays bit-identically)
//   serve      run a containment node: TCP record ingest, alert gossip,
//              checkpoint replication, promote-on-failure
//              --listen HOST:PORT [--peers H:P,...] [--replicate-to H:P
//              --replicate-every N] [--gossip-every N] [--expect-clients 1]
//              [--expect-peers 0] [--node-id 0] [--fault-plan SPEC]
//              + contain's pipeline flags (--budget, --cycle-days,
//              --check-fraction, --shards, --counter, --hll-precision),
//              [--verdicts-out FILE] [--metrics FILE], and the shared net
//              knobs: --connect-timeout-ms/--read-timeout-ms/
//              --write-timeout-ms, --retry-base-ms/--retry-cap-ms/--retry-max
//              (--listen PORT 0 binds an ephemeral port; the bound port is
//              printed — flushed — as "listening on HOST:PORT" so scripts can
//              synchronize on it; the node exits once --expect-clients ingest
//              streams complete and --expect-peers peer links close;
//              --fault-plan adds net clauses: "netkill:F" exits hard after F
//              frames, "netdrop:F" severs client connections, "netstall:F,S"
//              sleeps S seconds, "netcorrupt:I" flips a payload byte of
//              outbound frame I on the ingest side)
//   ingest     stream a trace to a serve node with resume/failover
//              --connect H:P[,H:P...] (--trace FILE | --synth [--hosts N]
//              [--days D] [--synth-seed S]) [--client-id 1]
//              [--hosts-mod M,R] [--batch-records 4096] [--fault-plan SPEC]
//              + the shared net timeout/retry knobs
//              (--trace accepts CSV or .wtrace by magic sniff — CSV is
//              time-sorted up front like contain's; --hosts-mod M,R keeps
//              only records with source_host % M == R, so M clients with
//              remainders 0..M-1 partition one trace host-affinely and the
//              server's merged verdicts are bit-identical to a single-client
//              run; on reconnect the client resumes from the server's
//              position, on a dead endpoint it fails over to the next)
//   race       deterministic alert-vs-worm race simulation (gossip value)
//              [--hosts 1000] [--address-space 4096] [--nodes 4]
//              [--budget 10] [--phi 0.5] [--i0 2] [--scan-rate 4]
//              [--steps 200] [--gossip-delay 2] [--gossip 0|1] [--compare]
//              [--seed ...]
//              (--compare runs gossip on AND off over identical per-host
//              scan streams and prints both tables plus the infection delta)
//   status     query live serve nodes over StatsQuery/StatsReport
//              --connect H:P[,H:P...] [--watch N] + the shared net
//              timeout knobs
//              (per-node health table, per-shard degrade detail, each node's
//              counters/gauges as Prometheus-format sample lines — byte-
//              identical to that node's own /metrics export — and a merged
//              fleet rollup: counters add, gauges max; --watch N repeats
//              every N seconds until interrupted)
//   events     print a journal written by contain/serve --events
//              wormctl events FILE [--type TYPE] [--since POS]
//              (--type keeps one event type, --since keeps events at stream
//              position >= POS; both parse strictly)
//
// Every command prints a human-readable table; exit code 0 on success, 1 on
// usage errors (with a message on stderr).
#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <exception>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "analysis/monte_carlo.hpp"
#include "analysis/spectral.hpp"
#include "analysis/table.hpp"
#include "core/borel_tanner.hpp"
#include "core/galton_watson.hpp"
#include "core/multitype.hpp"
#include "core/planner.hpp"
#include "fleet/net/metrics_http.hpp"
#include "fleet/pipeline.hpp"
#include "fleet/worm_injector.hpp"
#include "net/graph/generators.hpp"
#include "wormctl_net.hpp"
#include "obs/event_log.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "obs/trace_export.hpp"
#include "support/check.hpp"
#include "support/cli.hpp"
#include "trace/analyzer.hpp"
#include "trace/binary_io.hpp"
#include "trace/record_source.hpp"
#include "trace/synth.hpp"
#include "trace/trace_io.hpp"
#include "worm/graph_epidemic.hpp"
#include "worm/hit_level_sim.hpp"

namespace {

using namespace worms;
using wormctl::require;
using wormctl::UsageError;

int cmd_plan(const support::CliArgs& args) {
  const core::PlannerInput in{
      .vulnerable_hosts = args.get_u64("hosts", 360'000),
      .address_bits = static_cast<int>(args.get_u64("bits", 32)),
      .initial_infected = args.get_u64("i0", 10),
      .max_total_infected = args.get_u64("max-infected", 360),
      .confidence = args.get_double("confidence", 0.99),
  };
  const core::Plan plan = core::plan_containment(in);
  std::printf("vulnerability density p       %.6g\n", plan.density);
  std::printf("extinction threshold (1/p)    %llu\n",
              static_cast<unsigned long long>(plan.extinction_threshold));
  std::printf("recommended scan budget M     %llu\n",
              static_cast<unsigned long long>(plan.scan_limit));
  std::printf("offspring mean lambda = M*p   %.4f\n", plan.lambda);
  std::printf("P{total infected <= %llu}      %.4f (target %.4f)\n",
              static_cast<unsigned long long>(in.max_total_infected),
              plan.achieved_confidence, in.confidence);
  std::printf("expected total infected       %.1f\n", plan.expected_total_infected);
  if (args.has("observed-max-distinct")) {
    const double observed = args.get_double("observed-max-distinct", 0.0);
    const double ref_days = args.get_double("reference-days", 30.0);
    const double safety = args.get_double("safety-fraction", 0.5);
    const auto cycle =
        core::plan_cycle_length(ref_days * sim::kDay, observed, plan.scan_limit, safety);
    std::printf("containment cycle             %.1f days (busiest host %.0f distinct "
                "per %.0f days, safety %.0f%%)\n",
                cycle / sim::kDay, observed, ref_days, safety * 100.0);
  }
  return 0;
}

int cmd_extinction(const support::CliArgs& args) {
  const auto hosts = args.get_u64("hosts", 360'000);
  const auto bits = static_cast<int>(args.get_u64("bits", 32));
  const auto budget = args.get_u64("budget", 10'000);
  const auto i0 = args.get_u64("i0", 1);
  const auto generations = args.get_u64("generations", 20);

  const double p = static_cast<double>(hosts) / static_cast<double>(1ULL << bits);
  const auto off = core::OffspringDistribution::binomial(budget, p);
  std::printf("p = %.6g, threshold 1/p = %llu, lambda = %.4f, ultimate pi = %.6f\n\n", p,
              static_cast<unsigned long long>(core::extinction_scan_threshold(p)), off.mean(),
              core::ultimate_extinction_probability(off, i0));

  const auto pn = core::extinction_probability_by_generation(off, i0, generations);
  analysis::Table t({"generation", "P{extinct by n}"});
  for (std::size_t n = 0; n < pn.size(); ++n) {
    t.add_row({analysis::Table::fmt(static_cast<std::uint64_t>(n)),
               analysis::Table::fmt(pn[n], 6)});
  }
  t.print();
  return 0;
}

/// `wormctl simulate --topology ...`: the per-edge transmission cascade on a
/// generated graph, validated against the spectral threshold phi*rho(A) <= 1.
int cmd_simulate_topology(const support::CliArgs& args, const std::string& topology) {
  require(topology == "er" || topology == "ba" || topology == "ws" || topology == "complete",
          "--topology must be er, ba, ws, or complete");
  const std::uint32_t nodes = args.get_u32("nodes", 100'000);
  const double avg_degree = args.get_double("avg-degree", 8.0);
  require(avg_degree > 0.0, "--avg-degree must be positive");
  const double phi = args.get_double("phi", 0.1);
  require(phi >= 0.0 && phi <= 1.0, "--phi must be in [0, 1]");
  const auto i0 = args.get_u32("i0", 1);
  const auto runs = args.get_u64("runs", 500);
  const auto seed = args.get_u64("seed", 1);
  const auto threads = static_cast<unsigned>(args.get_u64("threads", 0));

  const net::GraphTopology graph = [&] {
    if (topology == "er") return net::make_erdos_renyi(nodes, avg_degree, seed);
    if (topology == "ba") {
      const auto m = static_cast<std::uint32_t>(std::max(1.0, avg_degree / 2.0));
      return net::make_barabasi_albert(nodes, m, seed);
    }
    if (topology == "ws") {
      const auto k = std::max(2u, static_cast<std::uint32_t>(avg_degree) & ~1u);
      return net::make_watts_strogatz(nodes, k, 0.1, seed);
    }
    return net::make_complete(nodes);  // avg-degree is n-1 by construction
  }();

  const analysis::SpectralEstimate rho = analysis::estimate_spectral_radius(graph);
  std::printf("topology %s: %u nodes, %llu edges, mean degree %.2f, max degree %u, "
              "%u subnet(s)\n",
              topology.c_str(), graph.node_count(),
              static_cast<unsigned long long>(graph.edge_count() / 2), graph.mean_degree(),
              graph.max_degree(), graph.subnet_count());
  std::printf("rho(A) ~= %.4f (%s after %u iterations); spectral threshold phi* = %.6g\n",
              rho.value, rho.converged ? "converged" : "NOT converged", rho.iterations,
              rho.value > 0.0 ? 1.0 / rho.value : 0.0);
  std::printf("phi = %.6g => phi*rho = %.4f (%scritical)\n\n", phi, phi * rho.value,
              phi * rho.value <= 1.0 ? "sub" : "super");

  const auto mc = analysis::run_monte_carlo(
      {.runs = runs, .base_seed = seed, .threads = threads},
      [&](std::uint64_t s, std::uint64_t) {
        worm::GraphOutbreakConfig cfg;
        cfg.transmit_probability = phi;
        cfg.initial_infected = i0;
        return worm::run_graph_outbreak(graph, cfg, s).total_infected;
      });
  std::printf("%llu runs: mean I = %.1f, std %.1f, max %llu\n",
              static_cast<unsigned long long>(runs), mc.summary.mean(), mc.summary.stddev(),
              static_cast<unsigned long long>(static_cast<std::uint64_t>(mc.summary.max())));
  analysis::Table t({"k", "simulated P{I<=k}"});
  for (const std::uint64_t k : {std::uint64_t{10}, std::uint64_t{100}, std::uint64_t{1'000},
                                static_cast<std::uint64_t>(graph.node_count())}) {
    t.add_row({analysis::Table::fmt(k), analysis::Table::fmt(mc.empirical_cdf(k), 4)});
  }
  t.print();
  return 0;
}

int cmd_simulate(const support::CliArgs& args) {
  if (args.has("topology")) {
    return cmd_simulate_topology(args, args.get_string("topology", ""));
  }
  worm::WormConfig cfg;
  cfg.label = "wormctl";
  cfg.vulnerable_hosts = static_cast<std::uint32_t>(args.get_u64("hosts", 360'000));
  cfg.address_bits = static_cast<int>(args.get_u64("bits", 32));
  cfg.initial_infected = static_cast<std::uint32_t>(args.get_u64("i0", 10));
  cfg.scan_rate = args.get_double("rate", 6.0);
  const auto budget = args.get_u64("budget", 10'000);
  const auto runs = args.get_u64("runs", 500);
  const auto seed = args.get_u64("seed", 1);
  // Default 0 = auto: one worker per hardware thread.
  const auto threads = static_cast<unsigned>(args.get_u64("threads", 0));

  const auto mc = analysis::run_monte_carlo(
      {.runs = runs, .base_seed = seed, .threads = threads},
      [&](std::uint64_t s, std::uint64_t) {
        worm::HitLevelSimulation sim(cfg, budget, s);
        return sim.run().total_infected;
      });
  const core::BorelTanner law(static_cast<double>(budget) * cfg.density(),
                              cfg.initial_infected);

  std::printf("%llu runs: mean I = %.1f (theory %.1f), std %.1f (theory %.1f), max %llu\n\n",
              static_cast<unsigned long long>(runs), mc.summary.mean(), law.mean(),
              mc.summary.stddev(), std::sqrt(law.variance()),
              static_cast<unsigned long long>(static_cast<std::uint64_t>(mc.summary.max())));

  analysis::Table t({"k", "simulated P{I<=k}", "Borel-Tanner P{I<=k}"});
  for (const double q : {0.5, 0.9, 0.95, 0.99}) {
    const auto k = law.quantile(q);
    t.add_row({analysis::Table::fmt(k), analysis::Table::fmt(mc.empirical_cdf(k), 4),
               analysis::Table::fmt(law.cdf(k), 4)});
  }
  t.print();
  return 0;
}

int cmd_multitype(const support::CliArgs& args) {
  // Two-type local-preference planning: enterprise hosts scan their own
  // (dense) blocks with probability `local-share`, the global internet
  // otherwise; home hosts always scan globally.
  const double p_local = args.get_double("local-density", 5e-3);
  const double p_global = args.get_double("global-density", 2e-5);
  const double q = args.get_double("local-share", 0.8);
  require(q >= 0.0 && q <= 1.0, "--local-share must be in [0, 1]");

  const std::vector<std::vector<double>> per_scan = {
      {q * p_local + (1.0 - q) * 2.0 * p_global, (1.0 - q) * p_global},
      {2.0 * p_global, p_global},
  };
  const auto threshold = core::MultiTypeBranching::extinction_scan_threshold(per_scan);
  std::printf("per-scan rate matrix (enterprise, home):\n");
  std::printf("  [%.3g  %.3g]\n  [%.3g  %.3g]\n", per_scan[0][0], per_scan[0][1],
              per_scan[1][0], per_scan[1][1]);
  std::printf("multi-type extinction threshold M* = %llu scans/cycle\n",
              static_cast<unsigned long long>(threshold));
  std::printf("naive single-type bound 1/p_global = %.0f (%.1fx unsafe)\n", 1.0 / p_global,
              (1.0 / p_global) / static_cast<double>(threshold));

  const auto budget = args.get_u64("budget", threshold);
  std::vector<std::vector<double>> mm(2, std::vector<double>(2));
  for (int i = 0; i < 2; ++i) {
    for (int j = 0; j < 2; ++j) mm[i][j] = static_cast<double>(budget) * per_scan[i][j];
  }
  const core::MultiTypeBranching mt(mm);
  const auto pi = mt.extinction_probabilities();
  std::printf("at M = %llu: rho = %.4f, pi = {enterprise %.4f, home %.4f}\n",
              static_cast<unsigned long long>(budget), mt.criticality(), pi[0], pi[1]);
  if (mt.criticality() < 1.0) {
    const auto n = mt.expected_total_progeny(0);
    std::printf("expected total infections from one enterprise seed: %.1f\n", n[0] + n[1]);
  }
  return 0;
}

int cmd_synth(const support::CliArgs& args) {
  trace::LblSynthConfig cfg;
  cfg.hosts = args.get_u32("hosts", 1'645);
  cfg.duration = args.get_double("days", 30.0) * sim::kDay;
  cfg.seed = args.get_u64("seed", cfg.seed);
  const std::string out = args.get_string("out", "");
  require(!out.empty(), "synth requires --out FILE");

  const auto synth = trace::synthesize_lbl_trace(cfg);
  // A .wtrace extension selects the packed binary format (identical records,
  // ~4x smaller than CSV and mmap-able by contain's hot path).
  const bool binary_out =
      out.size() >= 7 && out.compare(out.size() - 7, 7, ".wtrace") == 0;
  if (binary_out) {
    trace::write_wtrace_file(out, synth.records);
  } else {
    trace::write_csv_file(out, synth.records);
  }
  std::printf("wrote %zu records for %u hosts to %s%s\n", synth.records.size(), cfg.hosts,
              out.c_str(), binary_out ? " (wtrace)" : "");
  return 0;
}

int cmd_audit(const support::CliArgs& args) {
  const std::string path = args.get_string("trace", "");
  require(!path.empty(), "audit requires --trace FILE");
  const auto budget = args.get_u64("budget", 5'000);
  const double cycle_days = args.get_double("cycle-days", 30.0);
  const double check_fraction = args.get_double("check-fraction", 1.0);

  trace::TraceAnalyzer analyzer(trace::read_csv_file(path));
  std::printf("hosts < 100 distinct: %.1f%%; hosts > 1000 distinct: %u\n",
              analyzer.fraction_below(100) * 100.0, analyzer.hosts_above(1000));

  const auto report = analyzer.audit_policy({.scan_limit = budget,
                                             .cycle_length = cycle_days * sim::kDay,
                                             .check_fraction = check_fraction});
  std::printf("policy M=%llu, cycle %.0f days: %u/%u hosts would be removed (%.2f%%), "
              "%u flagged for early checking\n",
              static_cast<unsigned long long>(budget), cycle_days, report.hosts_removed,
              report.hosts_total, report.removal_fraction * 100.0, report.hosts_flagged);
  return 0;
}

/// Parses "RATE,SCANS,I0" (e.g. "6,10000,10").  from_chars end to end: a
/// negative or overflowing field is a clear error, never a silent wrap the
/// way std::stoul's modular conversion would make it.
fleet::WormInjectConfig parse_inject_spec(const std::string& spec, std::uint64_t seed) {
  const auto fail = [&spec](const char* why) -> void {
    throw UsageError("--inject-worm '" + spec + "': " + why);
  };
  fleet::WormInjectConfig cfg;
  cfg.seed = seed;
  const std::size_t c1 = spec.find(',');
  const std::size_t c2 = spec.find(',', c1 == std::string::npos ? 0 : c1 + 1);
  if (c1 == std::string::npos || c2 == std::string::npos) fail("expected RATE,SCANS,I0");

  const char* base = spec.data();
  const auto [rp, rec] = std::from_chars(base, base + c1, cfg.scan_rate);
  if (rec != std::errc() || rp != base + c1) fail("RATE must be a number");
  if (!(cfg.scan_rate > 0.0)) fail("RATE must be > 0");
  const auto [sp, sec] = std::from_chars(base + c1 + 1, base + c2, cfg.scans_per_host);
  if (sec != std::errc() || sp != base + c2) {
    fail("SCANS must be a non-negative integer (and fit in 64 bits)");
  }
  std::uint32_t infected = 0;
  const char* end = base + spec.size();
  const auto [ip, iec] = std::from_chars(base + c2 + 1, end, infected);
  if (iec != std::errc() || ip != end) {
    fail("I0 must be a non-negative integer (and fit in 32 bits)");
  }
  cfg.infected_hosts = infected;
  return cfg;
}

void print_contain_report(const fleet::PipelineResult& result,
                          const fleet::PipelineOptions& cfg,
                          const std::vector<std::uint32_t>& infected) {
  const auto& m = result.metrics;
  const auto& v = result.verdicts;
  std::printf("pipeline: %u shard(s), %s counter, M=%llu, cycle %.1f days, f=%.2f\n",
              m.shards, fleet::to_string(cfg.backend),
              static_cast<unsigned long long>(cfg.policy.scan_limit),
              cfg.policy.cycle_length / sim::kDay, cfg.policy.check_fraction);
  std::printf("processed %llu records in %.3f s (%.2f M records/s), %llu suppressed\n",
              static_cast<unsigned long long>(m.records_processed), m.elapsed_seconds,
              m.records_per_second / 1e6,
              static_cast<unsigned long long>(m.records_suppressed));
  std::printf("verdicts: %zu hosts seen, %u flagged, %u removed", v.hosts.size(),
              v.hosts_flagged, v.hosts_removed);
  if (v.hosts_removed_by_failures > 0) {
    std::printf(" (%u by failure budget)", v.hosts_removed_by_failures);
  }
  std::printf("\n");
  std::printf("counter memory: %.1f KiB; queue high-water (batches):",
              static_cast<double>(m.counter_memory_bytes) / 1024.0);
  for (const std::size_t hw : m.queue_high_water) std::printf(" %zu", hw);
  std::printf("\n");
  std::printf("dead letters: %llu (%llu malformed, %llu out-of-order, %llu duplicate)\n",
              static_cast<unsigned long long>(m.dead_letters.total()),
              static_cast<unsigned long long>(m.dead_letters.malformed),
              static_cast<unsigned long long>(m.dead_letters.out_of_order),
              static_cast<unsigned long long>(m.dead_letters.duplicate));
  if (m.workers_killed > 0 || m.workers_respawned > 0 || m.backend_switches > 0) {
    std::printf("faults: %u worker(s) killed, %u respawned, %llu shard backend switch(es)\n",
                m.workers_killed, m.workers_respawned,
                static_cast<unsigned long long>(m.backend_switches));
  }
  if (m.checkpoints_written > 0) {
    std::printf("checkpoints: %llu written\n",
                static_cast<unsigned long long>(m.checkpoints_written));
  }
  if (m.metrics_exports > 0) {
    std::printf("metrics exports: %llu periodic snapshot(s) published\n",
                static_cast<unsigned long long>(m.metrics_exports));
  }
  bool any_unhealthy = false;
  for (const fleet::ShardHealth h : m.shard_health) {
    if (h != fleet::ShardHealth::Healthy) any_unhealthy = true;
  }
  if (any_unhealthy) {
    std::printf("shard health:");
    for (const fleet::ShardHealth h : m.shard_health) {
      std::printf(" %s", fleet::to_string(h));
    }
    std::printf("\n");
  }

  if (!infected.empty()) {
    // Ground truth from the injector: detection quality and collateral damage.
    std::uint32_t caught = 0;
    double latency_sum = 0.0;
    for (const std::uint32_t host : infected) {
      const fleet::HostVerdict* verdict = v.find(host);
      if (verdict != nullptr && verdict->removed) {
        ++caught;
        latency_sum += verdict->removal_time;
      }
    }
    std::uint32_t clean_removed = 0;
    for (const auto& verdict : v.hosts) {
      if (verdict.removed &&
          !std::binary_search(infected.begin(), infected.end(), verdict.host)) {
        ++clean_removed;
      }
    }
    std::printf("worm detection: %u/%zu infected hosts removed", caught, infected.size());
    if (caught > 0) {
      std::printf(" (mean time-to-containment %.1f min)",
                  sim::to_minutes(latency_sum / caught));
    }
    std::printf("; %u clean hosts removed (false positives)\n", clean_removed);
  }
}

/// Final metrics summary for the contain report: every counter and gauge by
/// name, plus count / median / p99 / sum per histogram (quantiles are bucket
/// upper bounds — see obs::HistogramSnapshot::quantile).
void print_metrics_summary(const obs::MetricsSnapshot& snap) {
  std::printf("\nmetrics summary:\n");
  analysis::Table t({"metric", "value"});
  for (const auto& c : snap.counters) {
    t.add_row({c.name, analysis::Table::fmt(c.value)});
  }
  for (const auto& g : snap.gauges) {
    t.add_row({g.name, analysis::Table::fmt(g.value, 0)});
  }
  t.print();
  if (snap.histograms.empty()) return;
  analysis::Table h({"histogram", "count", "p50", "p99", "sum"});
  for (const auto& hs : snap.histograms) {
    h.add_row({hs.name, analysis::Table::fmt(hs.count),
               analysis::Table::fmt(hs.quantile(0.5), 6),
               analysis::Table::fmt(hs.quantile(0.99), 6),
               analysis::Table::fmt(hs.sum, 6)});
  }
  h.print();
}

int cmd_contain(const support::CliArgs& args) {
  const std::string path = args.get_string("trace", "");
  const bool synth = args.get_bool("synth", false);
  require(synth || !path.empty(), "contain requires --trace FILE or --synth");

  fleet::PipelineOptions cfg = wormctl::parse_pipeline(args);
  const std::string verdicts_out = args.get_string("verdicts-out", "");
  require(!(args.has("verdicts-out") && verdicts_out == "true"),
          "--verdicts-out requires a file path");
  const bool divergence = args.get_bool("divergence", false);
  const std::uint64_t seed = args.get_u64("seed", 1);

  cfg.checkpoint_path = args.get_string("checkpoint", "");
  cfg.checkpoint_every = args.get_u64("checkpoint-every", 0);
  require(cfg.checkpoint_every == 0 || !cfg.checkpoint_path.empty(),
          "--checkpoint-every requires --checkpoint PATH");
  const std::string resume_path = args.get_string("resume", "");
  if (args.has("fault-plan")) {
    cfg.faults = fleet::FaultPlan::parse(args.get_string("fault-plan", ""));
  }
  const std::string dead_letter_path = args.get_string("dead-letter", "");
  cfg.dead_letter_spill = dead_letter_path;

  const std::string metrics_path = args.get_string("metrics", "");
  require(!(args.has("metrics") && metrics_path == "true"), "--metrics requires a file path");
  const std::uint64_t metrics_every = args.get_u64("metrics-every", 0);
  require(metrics_every == 0 || !metrics_path.empty(), "--metrics-every requires --metrics FILE");
  const std::string metrics_format = args.get_string("metrics-format", "prometheus");
  require(metrics_format == "prometheus" || metrics_format == "json",
          "--metrics-format must be prometheus or json");
  const std::uint16_t metrics_listen = wormctl::parse_metrics_listen(args);
  obs::Registry registry;
  if (!metrics_path.empty() || metrics_listen != 0) cfg.metrics = &registry;
  if (!metrics_path.empty()) {
    // Periodic exports live in the pipeline, keyed on absolute stream
    // position, so resumed runs export at the same cadence points.
    cfg.metrics_export_path = metrics_path;
    cfg.metrics_export_every = metrics_every;
    cfg.metrics_export_json = metrics_format == "json";
  }

  cfg.node_id = args.get_u64("node-id", 0);
  const auto export_metrics = [&] {
    const obs::MetricsSnapshot snap = registry.snapshot();
    obs::write_metrics_file(metrics_path, metrics_format == "json"
                                              ? obs::Registry::render_json(snap)
                                              : obs::Registry::render_prometheus(snap));
  };

  // Flight recorder (--trace-out; under --synth, --trace aliases it since the
  // input-CSV meaning is vacant there).
  std::string trace_out = args.get_string("trace-out", "");
  if (synth && trace_out.empty() && !path.empty()) trace_out = path;
  require(trace_out.empty() || trace_out != "true", "--trace-out requires a file path");
  obs::TracerOptions tracer_options;
  tracer_options.buffer_events =
      static_cast<std::size_t>(args.get_u64("trace-buffer-events", tracer_options.buffer_events));
  const std::string trace_clock = args.get_string("trace-clock", "wall");
  require(trace_clock == "wall" || trace_clock == "synthetic",
          "--trace-clock must be wall or synthetic");
  tracer_options.clock =
      trace_clock == "synthetic" ? obs::TraceClock::Synthetic : obs::TraceClock::Wall;
  require(!trace_out.empty() || (!args.has("trace-buffer-events") && !args.has("trace-clock")),
          "--trace-buffer-events and --trace-clock require --trace-out FILE");
  obs::Tracer tracer(tracer_options);
  if (!trace_out.empty()) cfg.tracer = &tracer;

  // Event journal (--events).  A traced run always keeps one — the --events
  // journal, else an in-memory one on the trace's clock — because the
  // journal is the record of the state transitions the trace shows.
  const std::string events_path = wormctl::parse_events_path(args);
  obs::EventLogOptions event_options = wormctl::parse_event_log_options(args);
  if (events_path.empty()) event_options.clock = tracer_options.clock;
  require(trace_out.empty() || event_options.clock == tracer_options.clock,
          "--trace-clock and --events-clock must agree when tracing with --events");
  obs::EventLog events(event_options);
  if (!events_path.empty() || !trace_out.empty()) cfg.events = &events;

  trace::LblSynthConfig synth_cfg;
  if (synth) {
    synth_cfg.hosts = args.get_u32("hosts", 1'645);
    synth_cfg.duration = args.get_double("days", 30.0) * sim::kDay;
    synth_cfg.seed = args.get_u64("synth-seed", synth_cfg.seed);
  }
  std::optional<fleet::WormInjectConfig> inject;
  if (args.has("inject-worm")) inject = parse_inject_spec(args.get_string("inject-worm", ""), seed);
  wormctl::reject_unknown_flags(args);

  // Live scrape endpoint: up before the first record, torn down after the
  // run, serving fresh Registry snapshots the whole time.
  std::unique_ptr<fleet::net::MetricsHttpServer> scrape;
  if (metrics_listen != 0) {
    scrape = std::make_unique<fleet::net::MetricsHttpServer>(
        registry, fleet::net::Endpoint{"127.0.0.1", metrics_listen});
    std::printf("metrics on 127.0.0.1:%u\n", static_cast<unsigned>(scrape->port()));
    std::fflush(stdout);
  }

  // Input format by magic sniff, not extension: a .wtrace file streams
  // zero-copy from the mmap (the conversion already fixed the time-sorted
  // order, so the stream is bit-identical to the CSV path's); anything else
  // parses as CSV — and read_csv* itself rejects binary bytes with an
  // actionable error, so a mislabeled file cannot feed the recovering
  // parser garbage.  Materialize only when a later stage rewrites the
  // stream (worm injection) or replays it (divergence).
  const bool binary_input = !synth && trace::looks_like_wtrace_file(path);
  const bool stream_binary = binary_input && !inject && !divergence;
  std::vector<trace::ConnRecord> records;
  std::vector<trace::TraceParseDiagnostic> parse_rejects;
  if (synth) {
    records = trace::synthesize_lbl_trace(synth_cfg).records;
  } else if (binary_input) {
    if (!stream_binary) records = trace::read_wtrace_file(path);
  } else {
    if (dead_letter_path.empty()) {
      records = trace::read_csv_file(path);
    } else {
      // Recovering mode: keep every parseable record, quarantine the rest.
      auto recovered = trace::read_csv_recovering_file(path);
      records = std::move(recovered.records);
      parse_rejects = std::move(recovered.bad_lines);
      if (!parse_rejects.empty()) {
        std::printf("recovered trace: %zu bad line(s) quarantined out of %llu\n",
                    parse_rejects.size(),
                    static_cast<unsigned long long>(recovered.lines_scanned));
      }
    }
    std::sort(records.begin(), records.end(), trace::stream_order);
  }

  std::vector<std::uint32_t> infected;
  if (inject) {
    auto injected = fleet::inject_worm_scans(std::move(records), *inject);
    records = std::move(injected.records);
    infected = std::move(injected.infected_hosts);
    std::printf("injected %llu worm records from %zu host(s)\n\n",
                static_cast<unsigned long long>(injected.worm_records), infected.size());
  }

  fleet::PipelineResult result;
  if (!resume_path.empty()) {
    // Resume from a snapshot: restore state, skip the already-processed
    // prefix, replay the suffix.  The trace (and any injection) must match
    // the run that wrote the snapshot for the resumed verdicts to line up.
    // A binary input seeks past the prefix in O(1); CSV replays a subspan of
    // the materialized records.
    auto pipeline = fleet::ContainmentPipeline::restore(cfg, resume_path);
    const std::uint64_t skip = pipeline->records_fed();
    if (stream_binary) {
      trace::BinarySource source(path);
      std::printf("resumed from %s at record %llu of %llu\n", resume_path.c_str(),
                  static_cast<unsigned long long>(skip),
                  static_cast<unsigned long long>(source.size_hint().value_or(0)));
      source.skip(skip);
      pipeline->feed(source);
    } else {
      std::printf("resumed from %s at record %llu of %zu\n", resume_path.c_str(),
                  static_cast<unsigned long long>(skip), records.size());
      if (skip < records.size()) {
        pipeline->feed(std::span<const trace::ConnRecord>(records).subspan(
            static_cast<std::size_t>(skip)));
      }
    }
    result = pipeline->finish();
  } else {
    fleet::ContainmentPipeline pipeline(cfg);
    for (const trace::TraceParseDiagnostic& bad : parse_rejects) {
      pipeline.report_malformed(bad.line, bad.error + ": " + bad.text);
    }
    if (stream_binary) {
      trace::BinarySource source(path);
      std::printf("binary trace: %llu records streamed via %s\n",
                  static_cast<unsigned long long>(source.size_hint().value_or(0)),
                  source.is_mapped() ? "mmap" : "buffered read");
      pipeline.feed(source);
    } else {
      pipeline.feed(records);
    }
    result = pipeline.finish();
  }
  print_contain_report(result, cfg, infected);
  if (!verdicts_out.empty()) {
    fleet::write_verdicts_csv(verdicts_out, result.verdicts);
    std::printf("verdicts written to %s\n", verdicts_out.c_str());
  }
  if (!metrics_path.empty()) {
    export_metrics();
    print_metrics_summary(registry.snapshot());
    std::printf("metrics written to %s (%s)\n", metrics_path.c_str(), metrics_format.c_str());
  }
  if (!trace_out.empty()) {
    const obs::TraceCollection collection = obs::merge_journal(tracer.collect(), events.collect());
    obs::write_trace_file(trace_out, obs::render_chrome_trace(collection));
    std::printf("trace: %zu event(s) retained (%llu overwritten), %s clock, written to %s\n",
                collection.events.size(),
                static_cast<unsigned long long>(collection.dropped),
                obs::to_string(collection.clock), trace_out.c_str());
  }
  if (!events_path.empty()) wormctl::write_event_journal(events, events_path);
  scrape.reset();

  if (divergence) {
    // Exact-vs-HLL divergence: same stream, both backends, hosts they
    // disagree on — the false-positive cost of approximate counting.  The
    // side runs are measurements, not the operational run: no checkpoints,
    // no faults, no spill-file clobbering.
    fleet::PipelineOptions exact_cfg = cfg;
    exact_cfg.backend = fleet::CounterBackend::Exact;
    exact_cfg.checkpoint_path.clear();
    exact_cfg.checkpoint_every = 0;
    exact_cfg.faults = fleet::FaultPlan{};
    exact_cfg.dead_letter_spill.clear();
    exact_cfg.metrics = nullptr;
    exact_cfg.metrics_export_path.clear();
    exact_cfg.metrics_export_every = 0;
    exact_cfg.tracer = nullptr;
    exact_cfg.events = nullptr;
    fleet::PipelineOptions hll_cfg = exact_cfg;
    hll_cfg.backend = fleet::CounterBackend::Hll;
    const auto exact = fleet::ContainmentPipeline::run(exact_cfg, records);
    const auto hll = fleet::ContainmentPipeline::run(hll_cfg, records);

    std::uint32_t extra_removed = 0;
    std::uint32_t missed_removed = 0;
    double max_rel_err = 0.0;
    for (const auto& ev : exact.verdicts.hosts) {
      const fleet::HostVerdict* hv = hll.verdicts.find(ev.host);
      WORMS_ENSURES(hv != nullptr);  // same input stream ⇒ same host set
      if (hv->removed && !ev.removed) ++extra_removed;
      if (!hv->removed && ev.removed) ++missed_removed;
      if (ev.peak_distinct > 0) {
        const double rel =
            std::abs(static_cast<double>(hv->peak_distinct) -
                     static_cast<double>(ev.peak_distinct)) /
            static_cast<double>(ev.peak_distinct);
        if (rel > max_rel_err) max_rel_err = rel;
      }
    }
    std::printf("\ndivergence (exact vs hll, precision %d):\n", cfg.hll_precision);
    analysis::Table t({"metric", "exact", "hll"});
    t.add_row({"hosts flagged", analysis::Table::fmt(std::uint64_t{exact.verdicts.hosts_flagged}),
               analysis::Table::fmt(std::uint64_t{hll.verdicts.hosts_flagged})});
    t.add_row({"hosts removed", analysis::Table::fmt(std::uint64_t{exact.verdicts.hosts_removed}),
               analysis::Table::fmt(std::uint64_t{hll.verdicts.hosts_removed})});
    t.add_row({"counter KiB",
               analysis::Table::fmt(
                   static_cast<double>(exact.metrics.counter_memory_bytes) / 1024.0, 1),
               analysis::Table::fmt(
                   static_cast<double>(hll.metrics.counter_memory_bytes) / 1024.0, 1)});
    t.print();
    std::printf("hll removes %u host(s) exact would not (false-positive cost), misses %u; "
                "max per-host count error %.2f%%\n",
                extra_removed, missed_removed, max_rel_err * 100.0);
  }
  return 0;
}

/// `wormctl trace summarize FILE` / `wormctl trace convert IN OUT` —
/// positional forms, parsed by hand because CliArgs models only
/// `command --flag value` shapes.
int cmd_trace(int argc, char** argv) {
  const std::string sub = argc >= 3 ? argv[2] : "";
  if (sub == "summarize" && argc == 4) {
    const obs::TraceCollection collection =
        obs::parse_chrome_trace(obs::read_trace_file(argv[3]));
    std::fputs(obs::render_trace_summary(obs::summarize_trace(collection)).c_str(), stdout);
    return 0;
  }
  if (sub == "convert" && argc == 5) {
    // Direction by magic sniff: a .wtrace input converts to CSV, anything
    // else is parsed as CSV and packed to .wtrace.
    const std::string in = argv[3];
    const std::string out = argv[4];
    if (trace::looks_like_wtrace_file(in)) {
      const auto records = trace::read_wtrace_file(in);
      trace::write_csv_file(out, records);
      std::printf("converted %zu records: %s (wtrace) -> %s (csv)\n", records.size(),
                  in.c_str(), out.c_str());
    } else {
      auto records = trace::read_csv_file(in);
      // Same time sort `contain` applies to a CSV input, so the packed file
      // replays the exact stream the CSV path would have fed — the bit-for-
      // bit verdict equivalence across formats depends on this.
      std::sort(records.begin(), records.end(), trace::stream_order);
      trace::write_wtrace_file(out, records);
      std::printf("converted %zu records: %s (csv) -> %s (wtrace)\n", records.size(),
                  in.c_str(), out.c_str());
    }
    return 0;
  }
  std::fprintf(stderr, "usage: wormctl trace summarize FILE\n"
                       "       wormctl trace convert IN OUT\n");
  return 1;
}

/// `wormctl events FILE [--type T] [--since POS]` — positional like `trace`,
/// parsed by hand.  Renders an --events journal as a table, optionally
/// filtered to one event type and/or a minimum stream position.
int cmd_events(int argc, char** argv) {
  const auto events_usage = [] {
    std::fprintf(stderr, "usage: wormctl events FILE [--type TYPE] [--since POS]\n");
    return 1;
  };
  if (argc < 3) return events_usage();
  const std::string path = argv[2];
  bool filter_type = false;
  obs::EventType type = obs::EventType::DegradeStep;
  std::uint64_t since = 0;
  for (int i = 3; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--type" && i + 1 < argc) {
      const std::string name = argv[++i];
      if (!obs::parse_event_type(name, type)) {
        throw UsageError(
            "--type '" + name + "' is not an event type (expected DegradeStep, "
            "CheckpointWrite, CheckpointRestore, ReplicaPromotion, HostRemoved, "
            "FaultClauseFired, NetQuarantine, or OverloadTransition)");
      }
      filter_type = true;
    } else if (flag == "--since" && i + 1 < argc) {
      const std::string text = argv[++i];
      const char* first = text.data();
      const char* last = first + text.size();
      const auto [p, ec] = std::from_chars(first, last, since);
      if (ec != std::errc() || p != last) {
        throw UsageError("--since '" + text + "' must be a non-negative integer position");
      }
    } else {
      return events_usage();
    }
  }

  const obs::EventCollection collection =
      obs::parse_events_jsonl(obs::read_trace_file(path));
  std::printf("node %llu, %s clock: %llu event(s) recorded, %llu dropped, %zu retained\n",
              static_cast<unsigned long long>(collection.node_id),
              obs::to_string(collection.clock),
              static_cast<unsigned long long>(collection.recorded),
              static_cast<unsigned long long>(collection.dropped),
              collection.events.size());
  analysis::Table t({"type", "position", "writer", "seq", "tick", "a", "b"});
  std::size_t shown = 0;
  for (const obs::CollectedEvent& ev : collection.events) {
    if (filter_type && ev.type != type) continue;
    if (ev.position < since) continue;
    ++shown;
    t.add_row({obs::to_string(ev.type), analysis::Table::fmt(ev.position),
               analysis::Table::fmt(static_cast<std::uint64_t>(ev.writer)),
               analysis::Table::fmt(ev.seq), analysis::Table::fmt(ev.tick),
               analysis::Table::fmt(ev.a), analysis::Table::fmt(ev.b)});
  }
  t.print();
  std::printf("%zu event(s) shown\n", shown);
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: wormctl <plan|extinction|simulate|multitype|synth|audit|contain"
               "|trace|events|serve|ingest|race|status> [--flag value ...]\n"
               "see the header of tools/wormctl.cpp or README.md for flags\n");
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc >= 2 && std::string(argv[1]) == "trace") return cmd_trace(argc, argv);
    if (argc >= 2 && std::string(argv[1]) == "events") return cmd_events(argc, argv);
    const auto args = support::CliArgs::parse(argc, argv);
    int rc;
    if (args.command() == "plan") {
      rc = cmd_plan(args);
    } else if (args.command() == "extinction") {
      rc = cmd_extinction(args);
    } else if (args.command() == "simulate") {
      rc = cmd_simulate(args);
    } else if (args.command() == "multitype") {
      rc = cmd_multitype(args);
    } else if (args.command() == "synth") {
      rc = cmd_synth(args);
    } else if (args.command() == "audit") {
      rc = cmd_audit(args);
    } else if (args.command() == "contain") {
      rc = cmd_contain(args);
    } else if (args.command() == "serve") {
      rc = wormctl::cmd_serve(args);
    } else if (args.command() == "ingest") {
      rc = wormctl::cmd_ingest(args);
    } else if (args.command() == "race") {
      rc = wormctl::cmd_race(args);
    } else if (args.command() == "status") {
      rc = wormctl::cmd_status(args);
    } else {
      return usage();
    }
    wormctl::reject_unknown_flags(args);
    return rc;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
