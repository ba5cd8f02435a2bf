// wormctl serve / ingest / race — the distributed-fleet front end.
//
//   serve   --listen HOST:PORT [--peers H:P,...] [--replicate-to H:P
//           --replicate-every N] [--gossip-every N] [--expect-clients N]
//           [--expect-peers N] [--apply-alerts 0|1] [--node-id N]
//           pipeline flags as in `contain`: --budget --cycle-days
//           --check-fraction --shards --counter --hll-precision
//           [--verdicts-out FILE] [--metrics FILE] [--fault-plan SPEC]
//           net timeouts/retry: --connect-timeout-ms --read-timeout-ms
//           --write-timeout-ms --retry-base-ms --retry-cap-ms --retry-max
//
//   ingest  --connect H:P[,H:P...] (--trace FILE | --synth [--hosts N]
//           [--days D] [--synth-seed S]) [--client-id N] [--hosts-mod M,R]
//           [--batch-records N] [--fault-plan SPEC] + timeouts/retry as above
//
//   race    [--hosts N] [--address-space A] [--nodes K] [--budget M]
//           [--phi F] [--i0 N] [--scan-rate S] [--steps T]
//           [--gossip-delay D] [--gossip 0|1] [--compare] [--seed N]
//
//   status  --connect H:P[,H:P...] [--watch N] + the shared timeout knobs
//           (queries each node over StatsQuery/StatsReport, prints a per-node
//           table, each node's counters/gauges as Prometheus-format sample
//           lines, and a merged fleet rollup — counters add, gauges max,
//           exactly MetricsSnapshot::merge; --watch N repeats every N
//           seconds until interrupted)
#include "wormctl_net.hpp"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/table.hpp"
#include "fleet/net/alert_race.hpp"
#include "fleet/net/metrics_http.hpp"
#include "fleet/net/node.hpp"
#include "obs/event_log.hpp"
#include "obs/registry.hpp"
#include "obs/trace_export.hpp"
#include "trace/binary_io.hpp"
#include "trace/record_source.hpp"
#include "trace/synth.hpp"
#include "trace/trace_io.hpp"

namespace wormctl {

namespace {

using namespace worms;
using fleet::net::Endpoint;

/// Strict "M,R" parser for --hosts-mod (from_chars end to end, like every
/// other wormctl flag).
[[nodiscard]] std::pair<std::uint32_t, std::uint32_t> parse_hosts_mod(const std::string& text) {
  const std::size_t comma = text.find(',');
  require(comma != std::string::npos, "--hosts-mod expects MODULUS,REMAINDER");
  const auto parse_part = [&](std::size_t begin, std::size_t end, const char* what) {
    std::uint32_t value = 0;
    const char* first = text.data() + begin;
    const char* last = text.data() + end;
    const auto [ptr, ec] = std::from_chars(first, last, value);
    require(ec == std::errc() && ptr == last && first != last,
            "--hosts-mod parts must be non-negative integers");
    (void)what;
    return value;
  };
  const std::uint32_t modulus = parse_part(0, comma, "modulus");
  const std::uint32_t remainder = parse_part(comma + 1, text.size(), "remainder");
  require(modulus > 0, "--hosts-mod modulus must be nonzero");
  require(remainder < modulus, "--hosts-mod remainder must be < modulus");
  return {modulus, remainder};
}

[[nodiscard]] fleet::net::NetTimeouts parse_timeouts(const support::CliArgs& args) {
  fleet::net::NetTimeouts t;
  t.connect = std::chrono::milliseconds(
      args.get_u64("connect-timeout-ms", static_cast<std::uint64_t>(t.connect.count())));
  t.read = std::chrono::milliseconds(
      args.get_u64("read-timeout-ms", static_cast<std::uint64_t>(t.read.count())));
  t.write = std::chrono::milliseconds(
      args.get_u64("write-timeout-ms", static_cast<std::uint64_t>(t.write.count())));
  require(t.connect.count() > 0 && t.read.count() > 0 && t.write.count() > 0,
          "net timeouts must be positive");
  return t;
}

[[nodiscard]] fleet::net::RetryPolicy parse_retry(const support::CliArgs& args) {
  fleet::net::RetryPolicy r;
  r.base = std::chrono::milliseconds(
      args.get_u64("retry-base-ms", static_cast<std::uint64_t>(r.base.count())));
  r.cap = std::chrono::milliseconds(
      args.get_u64("retry-cap-ms", static_cast<std::uint64_t>(r.cap.count())));
  r.max_retries = args.get_u32("retry-max", r.max_retries);
  require(r.cap >= r.base, "--retry-cap-ms must be >= --retry-base-ms");
  require(r.max_retries > 0, "--retry-max must be nonzero");
  return r;
}

/// Pipeline knobs shared with `contain` (the serve node hosts the same
/// pipeline, minus the file-centric flags).
[[nodiscard]] fleet::PipelineOptions parse_pipeline(const support::CliArgs& args) {
  fleet::PipelineOptions cfg;
  cfg.policy.scan_limit = args.get_u64("budget", 5'000);
  cfg.policy.cycle_length = args.get_double("cycle-days", 30.0) * sim::kDay;
  cfg.policy.check_fraction = args.get_double("check-fraction", 1.0);
  cfg.shards = args.get_u32("shards", 0);
  require(cfg.shards <= 1024, "--shards must be <= 1024");
  cfg.hll_precision = static_cast<int>(args.get_u32("hll-precision", 12));
  require(cfg.hll_precision >= 4 && cfg.hll_precision <= 16, "--hll-precision must be in [4, 16]");
  const std::string counter = args.get_string("counter", "exact");
  require(counter == "exact" || counter == "hll" || counter == "compact",
          "--counter must be exact, hll, or compact");
  cfg.backend = counter == "hll"       ? fleet::CounterBackend::Hll
                : counter == "compact" ? fleet::CounterBackend::Compact
                                       : fleet::CounterBackend::Exact;
  cfg.compact.bits_per_host =
      args.get_u32("compact-bits-per-host", cfg.compact.bits_per_host);
  cfg.compact.virtual_registers =
      args.get_u32("compact-virtual-registers", cfg.compact.virtual_registers);
  cfg.compact.expected_hosts =
      args.get_u64("compact-expected-hosts", cfg.compact.expected_hosts);
  cfg.compact.validate();  // bad geometry fails here, at parse time
  cfg.failure_budget = args.get_u64("failure-budget", 0);
  return cfg;
}

void print_node_report(const fleet::net::NodeReport& report) {
  analysis::Table t({"metric", "value"});
  const auto row = [&](const char* name, std::uint64_t value) {
    t.add_row({name, analysis::Table::fmt(value)});
  };
  row("connections accepted", report.connections_accepted);
  row("frames received", report.frames_received);
  row("frames sent", report.frames_sent);
  row("records received", report.records_received);
  row("alerts received", report.alerts_received);
  row("alerts sent", report.alerts_sent);
  row("alerts dropped", report.alerts_dropped);
  row("peer reconnects", report.peer_reconnects);
  row("checkpoints replicated", report.checkpoints_replicated);
  row("checkpoints stored", report.checkpoints_stored);
  row("connections dropped (fault)", report.connections_dropped);
  row("replication lag (records)", report.replication_lag_records);
  row("wire dead letters", report.wire_dead_letters.total());
  row("hosts seen", report.result.verdicts.hosts.size());
  row("hosts removed", report.result.verdicts.hosts_removed);
  row("hosts pre-contained", report.result.verdicts.hosts_pre_contained);
  t.print();
  const fleet::DeadLetterStats& dl = report.wire_dead_letters;
  if (dl.total() != 0) {
    std::printf("wire dead letters by reason: bad-magic %llu, truncated %llu, checksum %llu, "
                "oversized %llu, malformed %llu\n",
                static_cast<unsigned long long>(dl.frame_bad_magic),
                static_cast<unsigned long long>(dl.frame_truncated),
                static_cast<unsigned long long>(dl.frame_checksum),
                static_cast<unsigned long long>(dl.frame_oversized),
                static_cast<unsigned long long>(dl.malformed));
  }
  if (report.degraded_local_only) {
    std::printf("WARNING: peer(s) unreachable past the retry budget — "
                "degraded to local-only containment\n");
  }
}

}  // namespace

std::uint16_t parse_metrics_listen(const support::CliArgs& args) {
  if (!args.has("metrics-listen")) return 0;
  // Port 0 is rejected — an ephemeral scrape port is useless (nothing could
  // find it) and almost certainly a typo.
  const std::uint64_t port = args.get_u64("metrics-listen", 0);
  require(port >= 1 && port <= 65535, "--metrics-listen must be a port in [1, 65535]");
  return static_cast<std::uint16_t>(port);
}

std::string parse_events_path(const support::CliArgs& args) {
  const std::string path = args.get_string("events", "");
  require(!(args.has("events") && path == "true"), "--events requires a file path");
  require(!path.empty() || !args.has("events-clock"), "--events-clock requires --events FILE");
  return path;
}

obs::EventLogOptions parse_event_log_options(const support::CliArgs& args) {
  obs::EventLogOptions options;
  const std::string clock = args.get_string("events-clock", "wall");
  require(clock == "wall" || clock == "synthetic", "--events-clock must be wall or synthetic");
  options.clock = clock == "synthetic" ? obs::TraceClock::Synthetic : obs::TraceClock::Wall;
  options.node_id = args.get_u64("node-id", 0);
  return options;
}

void write_event_journal(const obs::EventLog& events, const std::string& path) {
  const obs::EventCollection collection = events.collect();
  obs::write_trace_file(path, obs::render_events_jsonl(collection));
  std::printf("events: %zu event(s) retained (%llu overwritten), %s clock, written to %s\n",
              collection.events.size(), static_cast<unsigned long long>(collection.dropped),
              obs::to_string(collection.clock), path.c_str());
}

int cmd_serve(const support::CliArgs& args) {
  fleet::net::NodeOptions options;
  const std::string listen = args.get_string("listen", "");
  require(!listen.empty() && listen != "true", "serve requires --listen HOST:PORT");
  options.listen = fleet::net::parse_endpoint(listen);
  const std::string peers = args.get_string("peers", "");
  require(!(args.has("peers") && peers == "true"), "--peers requires HOST:PORT[,HOST:PORT...]");
  if (!peers.empty()) options.peers = fleet::net::parse_endpoint_list(peers);
  const std::string replicate_to = args.get_string("replicate-to", "");
  require(!(args.has("replicate-to") && replicate_to == "true"),
          "--replicate-to requires HOST:PORT");
  if (!replicate_to.empty()) options.replicate_to = fleet::net::parse_endpoint(replicate_to);
  options.replicate_every = args.get_u64("replicate-every", 0);
  options.gossip_every = args.get_u64("gossip-every", 0);
  options.expect_clients = args.get_u32("expect-clients", 1);
  options.expect_peers = args.get_u32("expect-peers", 0);
  require((options.expect_clients + options.expect_peers) > 0,
          "serve needs --expect-clients or --expect-peers to be nonzero");
  options.apply_alerts = args.get_bool("apply-alerts", true);
  options.node_id = args.get_u64("node-id", 0);
  options.timeouts = parse_timeouts(args);
  options.retry = parse_retry(args);
  options.pipeline = parse_pipeline(args);
  if (args.has("fault-plan")) {
    options.faults = fleet::FaultPlan::parse(args.get_string("fault-plan", ""));
  }

  const std::string verdicts_out = args.get_string("verdicts-out", "");
  require(!(args.has("verdicts-out") && verdicts_out == "true"),
          "--verdicts-out requires a file path");
  const std::string metrics_path = args.get_string("metrics", "");
  require(!(args.has("metrics") && metrics_path == "true"), "--metrics requires a file path");
  const std::uint16_t metrics_listen = parse_metrics_listen(args);
  obs::Registry registry;
  if (!metrics_path.empty() || metrics_listen != 0) options.pipeline.metrics = &registry;

  const std::string events_path = parse_events_path(args);
  obs::EventLog events(parse_event_log_options(args));
  if (!events_path.empty()) options.pipeline.events = &events;

  const std::string listen_host = options.listen.host;
  fleet::net::ServeNode node(std::move(options));
  // Live scrape endpoint: up before the "listening" line so anything that
  // synchronizes on that line can scrape immediately.
  std::unique_ptr<fleet::net::MetricsHttpServer> scrape;
  if (metrics_listen != 0) {
    scrape = std::make_unique<fleet::net::MetricsHttpServer>(
        registry, Endpoint{listen_host, metrics_listen});
    std::printf("metrics on %s:%u\n", listen_host.c_str(),
                static_cast<unsigned>(scrape->port()));
  }
  // Flush eagerly: multi-process tests (and humans) synchronize on this line.
  std::printf("listening on %s:%u\n", listen_host.c_str(), static_cast<unsigned>(node.port()));
  std::fflush(stdout);
  const fleet::net::NodeReport report = node.wait();
  scrape.reset();
  if (report.promoted_from_replica) {
    std::printf("promoted from replica checkpoint at position %llu\n",
                static_cast<unsigned long long>(report.promoted_position));
  }
  print_node_report(report);
  if (!verdicts_out.empty()) {
    fleet::write_verdicts_csv(verdicts_out, report.result.verdicts);
    std::printf("verdicts written to %s\n", verdicts_out.c_str());
  }
  if (!metrics_path.empty()) {
    obs::write_metrics_file(metrics_path,
                            obs::Registry::render_prometheus(registry.snapshot()));
    std::printf("metrics written to %s\n", metrics_path.c_str());
  }
  if (!events_path.empty()) write_event_journal(events, events_path);
  return 0;
}

int cmd_ingest(const support::CliArgs& args) {
  fleet::net::IngestOptions options;
  const std::string connect = args.get_string("connect", "");
  require(!connect.empty() && connect != "true",
          "ingest requires --connect HOST:PORT[,HOST:PORT...]");
  options.connect = fleet::net::parse_endpoint_list(connect);
  options.client_id = args.get_u64("client-id", 1);
  options.batch_records = static_cast<std::size_t>(args.get_u64("batch-records", 4096));
  require(options.batch_records > 0, "--batch-records must be nonzero");
  options.timeouts = parse_timeouts(args);
  options.retry = parse_retry(args);
  if (args.has("fault-plan")) {
    options.faults = fleet::FaultPlan::parse(args.get_string("fault-plan", ""));
  }

  const std::string path = args.get_string("trace", "");
  const bool synth = args.get_bool("synth", false);
  require(synth || !path.empty(), "ingest requires --trace FILE or --synth");
  std::uint32_t mod = 0;
  std::uint32_t rem = 0;
  if (args.has("hosts-mod")) {
    std::tie(mod, rem) = parse_hosts_mod(args.get_string("hosts-mod", ""));
  }

  // The factory re-opens the stream on every (re)connect — resume needs a
  // rewind, and sources are single-pass.  CSV is materialized (and stream-
  // sorted, as `contain` does) once up front; .wtrace re-maps per session.
  fleet::net::SourceFactory factory;
  trace::LblSynthConfig synth_cfg;
  if (synth) {
    synth_cfg.hosts = args.get_u32("hosts", 1'645);
    synth_cfg.duration = args.get_double("days", 30.0) * sim::kDay;
    synth_cfg.seed = args.get_u64("synth-seed", synth_cfg.seed);
    factory = [synth_cfg] { return std::make_unique<trace::SynthSource>(synth_cfg); };
  } else if (trace::looks_like_wtrace_file(path)) {
    factory = [path]() -> std::unique_ptr<trace::RecordSource> {
      return std::make_unique<trace::BinarySource>(path);
    };
  } else {
    auto records = std::make_shared<std::vector<trace::ConnRecord>>(trace::read_csv_file(path));
    std::sort(records->begin(), records->end(), trace::stream_order);
    factory = [records]() -> std::unique_ptr<trace::RecordSource> {
      struct Owning final : trace::RecordSource {
        std::shared_ptr<std::vector<trace::ConnRecord>> keep;
        trace::VectorSource inner;
        explicit Owning(std::shared_ptr<std::vector<trace::ConnRecord>> r)
            : keep(std::move(r)), inner(std::span<const trace::ConnRecord>(*keep)) {}
        std::size_t next_batch(std::span<trace::ConnRecord> out) override {
          return inner.next_batch(out);
        }
        std::uint64_t skip(std::uint64_t n) override { return inner.skip(n); }
        std::optional<std::uint64_t> size_hint() const override { return inner.size_hint(); }
      };
      return std::make_unique<Owning>(records);
    };
  }
  if (mod != 0) {
    fleet::net::SourceFactory inner = std::move(factory);
    factory = [inner, mod, rem]() -> std::unique_ptr<trace::RecordSource> {
      return std::make_unique<fleet::net::HostModFilterSource>(inner(), mod, rem);
    };
  }

  const fleet::net::IngestReport report = fleet::net::run_ingest(options, factory);
  std::printf("ingest complete: %llu record(s) in %llu frame(s) to %s "
              "(%u reconnect(s), %u failover(s), %llu resent)\n",
              static_cast<unsigned long long>(report.records_sent),
              static_cast<unsigned long long>(report.frames_sent), report.endpoint.c_str(),
              report.reconnects, report.failovers,
              static_cast<unsigned long long>(report.records_resent));
  return 0;
}

int cmd_race(const support::CliArgs& args) {
  fleet::net::AlertRaceConfig cfg;
  cfg.hosts = args.get_u32("hosts", cfg.hosts);
  cfg.address_space = args.get_u64("address-space", cfg.address_space);
  cfg.nodes = args.get_u32("nodes", cfg.nodes);
  cfg.budget = args.get_u32("budget", cfg.budget);
  cfg.phi = args.get_double("phi", cfg.phi);
  cfg.initial_infected = args.get_u32("i0", cfg.initial_infected);
  cfg.scan_rate = args.get_u32("scan-rate", cfg.scan_rate);
  cfg.steps = args.get_u32("steps", cfg.steps);
  cfg.gossip_delay = args.get_u32("gossip-delay", cfg.gossip_delay);
  cfg.gossip = args.get_bool("gossip", cfg.gossip);
  cfg.seed = args.get_u64("seed", cfg.seed);
  cfg.validate();

  const bool compare = args.get_bool("compare", false);
  const auto print_result = [](const char* label, const fleet::net::AlertRaceResult& r) {
    analysis::Table t({"metric", label});
    const auto row = [&](const char* name, std::uint64_t value) {
      t.add_row({name, analysis::Table::fmt(value)});
    };
    row("total infected", r.total_infected);
    row("new infections", r.new_infections);
    row("scans attempted", r.scans_attempted);
    row("scans blocked", r.scans_blocked);
    row("local containments", r.local_containments);
    row("alerts gossiped", r.alerts_gossiped);
    row("pre-containments", r.pre_containments);
    row("first alert step", r.first_alert_step);
    row("hosts fully blocked", r.hosts_fully_blocked);
    t.print();
  };

  if (compare) {
    fleet::net::AlertRaceConfig on = cfg;
    on.gossip = true;
    fleet::net::AlertRaceConfig off = cfg;
    off.gossip = false;
    const auto r_on = fleet::net::run_alert_race(on);
    const auto r_off = fleet::net::run_alert_race(off);
    std::printf("alert race at phi=%.2f, %u monitors, gossip delay %u:\n", cfg.phi, cfg.nodes,
                cfg.gossip_delay);
    print_result("gossip on", r_on);
    print_result("gossip off", r_off);
    std::printf("gossip saves %lld infection(s) (%llu vs %llu)\n",
                static_cast<long long>(r_off.total_infected) -
                    static_cast<long long>(r_on.total_infected),
                static_cast<unsigned long long>(r_on.total_infected),
                static_cast<unsigned long long>(r_off.total_infected));
    return 0;
  }
  const auto result = fleet::net::run_alert_race(cfg);
  print_result(cfg.gossip ? "gossip on" : "gossip off", result);
  return 0;
}

namespace {

/// One StatsQuery round trip: connect, query, read the StatsReport, close.
/// Status probes send no Hello/Bye, so they never disturb the node's
/// --expect-clients/--expect-peers exit accounting.
[[nodiscard]] fleet::net::StatsReportPayload query_stats(const Endpoint& endpoint,
                                                         const fleet::net::NetTimeouts& timeouts) {
  std::string error;
  auto maybe_stream = fleet::net::TcpStream::connect(endpoint, timeouts.connect, &error);
  if (!maybe_stream) {
    throw UsageError("status: cannot connect to " + endpoint.to_string() + ": " + error);
  }
  fleet::net::TcpStream stream = std::move(*maybe_stream);
  const std::string query = fleet::net::encode_frame(fleet::net::FrameType::StatsQuery, "");
  require(stream.write_all(query, timeouts.write), "status: query write failed");

  fleet::net::FrameDecoder decoder;
  char buffer[4096];
  for (;;) {
    fleet::net::FrameDecoder::Result result = decoder.next();
    if (result.status == fleet::net::FrameDecoder::Status::Ready) {
      require(result.frame.type == fleet::net::FrameType::StatsReport,
              "status: node replied with an unexpected frame type");
      return fleet::net::decode_stats_report(result.frame.payload);
    }
    require(result.status != fleet::net::FrameDecoder::Status::Error,
            "status: undecodable reply from node");
    const auto read = stream.read_some(buffer, sizeof buffer, timeouts.read);
    require(read.status == fleet::net::IoStatus::Ok, "status: no StatsReport reply from node");
    decoder.append(buffer, read.bytes);
  }
}

/// Sample lines byte-identical to the ones render_prometheus emits (counters
/// as integers, gauges as %.17g) — the scrape-vs-status reconciliation test
/// compares them verbatim.
void print_samples(const std::vector<fleet::net::StatsSample>& counters,
                   const std::vector<fleet::net::StatsSample>& gauges) {
  for (const auto& sample : counters) {
    std::printf("%s %llu\n", sample.name.c_str(),
                static_cast<unsigned long long>(sample.value));
  }
  for (const auto& sample : gauges) {
    std::printf("%s %.17g\n", sample.name.c_str(), sample.value);
  }
}

/// Rebuilds a MetricsSnapshot from a report's flattened samples so the fleet
/// rollup uses the exact merge semantics (counters add, gauges max) every
/// other multi-node path uses.
[[nodiscard]] obs::MetricsSnapshot snapshot_from_report(
    const fleet::net::StatsReportPayload& report) {
  obs::MetricsSnapshot snapshot;
  for (const auto& sample : report.counters) {
    snapshot.counters.push_back(
        obs::CounterSnapshot{sample.name, static_cast<std::uint64_t>(sample.value)});
  }
  for (const auto& sample : report.gauges) {
    snapshot.gauges.push_back(obs::GaugeSnapshot{sample.name, sample.value});
  }
  return snapshot;
}

void print_status_round(const std::vector<Endpoint>& endpoints,
                        const std::vector<fleet::net::StatsReportPayload>& reports) {
  analysis::Table t({"endpoint", "node", "records", "ckpts", "ckpt pos", "backend", "promoted",
                     "shards", "dead letters"});
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const auto& r = reports[i];
    unsigned healthy = 0;
    for (const std::uint8_t h : r.shard_health) {
      if (h == static_cast<std::uint8_t>(fleet::ShardHealth::Healthy)) ++healthy;
    }
    const std::uint64_t dead = r.dead_letters_malformed + r.dead_letters_out_of_order +
                               r.dead_letters_duplicate + r.dead_letters_overflow;
    t.add_row({endpoints[i].to_string(), analysis::Table::fmt(r.node_id),
               analysis::Table::fmt(r.records_fed), analysis::Table::fmt(r.checkpoints_written),
               analysis::Table::fmt(r.checkpoint_position),
               fleet::to_string(static_cast<fleet::CounterBackend>(r.counter_backend)),
               r.promoted != 0 ? "yes" : "no",
               std::to_string(healthy) + "/" + std::to_string(r.shard_health.size()) +
                   " healthy",
               analysis::Table::fmt(dead)});
  }
  t.print();

  // Per-shard detail only where something degraded — a healthy fleet stays
  // one line per node.
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const auto& r = reports[i];
    for (std::size_t s = 0; s < r.shard_health.size(); ++s) {
      const bool degraded =
          r.shard_backend[s] != r.counter_backend ||
          r.shard_health[s] != static_cast<std::uint8_t>(fleet::ShardHealth::Healthy);
      if (!degraded) continue;
      std::printf("node %llu shard %zu: backend %s, health %s, queue depth %llu\n",
                  static_cast<unsigned long long>(r.node_id), s,
                  fleet::to_string(static_cast<fleet::CounterBackend>(r.shard_backend[s])),
                  fleet::to_string(static_cast<fleet::ShardHealth>(r.shard_health[s])),
                  static_cast<unsigned long long>(r.queue_depth[s]));
    }
  }

  for (std::size_t i = 0; i < reports.size(); ++i) {
    std::printf("\nnode %llu metrics (%s):\n",
                static_cast<unsigned long long>(reports[i].node_id),
                endpoints[i].to_string().c_str());
    print_samples(reports[i].counters, reports[i].gauges);
  }

  if (reports.size() > 1) {
    obs::MetricsSnapshot rollup = snapshot_from_report(reports[0]);
    for (std::size_t i = 1; i < reports.size(); ++i) {
      rollup.merge(snapshot_from_report(reports[i]));
    }
    std::printf("\nfleet rollup (%zu nodes, counters add / gauges max):\n", reports.size());
    for (const auto& c : rollup.counters) {
      std::printf("%s %llu\n", c.name.c_str(), static_cast<unsigned long long>(c.value));
    }
    for (const auto& g : rollup.gauges) {
      std::printf("%s %.17g\n", g.name.c_str(), g.value);
    }
  }
  std::fflush(stdout);
}

}  // namespace

int cmd_status(const support::CliArgs& args) {
  const std::string connect = args.get_string("connect", "");
  require(!connect.empty() && connect != "true",
          "status requires --connect HOST:PORT[,HOST:PORT...]");
  const std::vector<Endpoint> endpoints = fleet::net::parse_endpoint_list(connect);
  const fleet::net::NetTimeouts timeouts = parse_timeouts(args);
  std::uint64_t watch_seconds = 0;
  if (args.has("watch")) {
    watch_seconds = args.get_u64("watch", 0);
    require(watch_seconds >= 1, "--watch requires an interval of >= 1 second(s)");
  }

  for (std::uint64_t round = 0;; ++round) {
    if (round > 0) std::printf("\n-- round %llu --\n", static_cast<unsigned long long>(round));
    std::vector<fleet::net::StatsReportPayload> reports;
    reports.reserve(endpoints.size());
    for (const Endpoint& endpoint : endpoints) reports.push_back(query_stats(endpoint, timeouts));
    print_status_round(endpoints, reports);
    if (watch_seconds == 0) break;
    std::this_thread::sleep_for(std::chrono::seconds(watch_seconds));
  }
  return 0;
}

}  // namespace wormctl
