#include "obs/registry.hpp"

#include <cstdio>
#include <fstream>
#include <string_view>
#include <utility>

#include "support/check.hpp"

namespace worms::obs {

Counter& Registry::counter(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& Registry::gauge(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& Registry::histogram(const std::string& name, const HistogramSpec& spec) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>(spec);
  return *slot;
}

MetricsSnapshot Registry::snapshot() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  MetricsSnapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_) snap.counters.push_back({name, c->value()});
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) snap.gauges.push_back({name, g->value()});
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) snap.histograms.push_back(h->snapshot(name));
  return snap;
}

namespace {

[[nodiscard]] std::string fmt_u64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%llu", static_cast<unsigned long long>(v));
  return buf;
}

/// Shortest-roundtrip decimal; "+Inf" matches Prometheus' spelling.
[[nodiscard]] std::string fmt_f64(double v) {
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Splits `name{label="v"}` into base and the inner label block ("" if none).
void split_labels(const std::string& full, std::string& base, std::string& labels) {
  const std::size_t brace = full.find('{');
  if (brace == std::string::npos) {
    base = full;
    labels.clear();
    return;
  }
  WORMS_EXPECTS(full.back() == '}' && "metric label block must close");
  base = full.substr(0, brace);
  labels = full.substr(brace + 1, full.size() - brace - 2);
}

/// Escapes one label *value* per the Prometheus text exposition format:
/// backslash, double quote, and line feed become \\, \", and \n.
void append_escaped_label_value(std::string& out, std::string_view value) {
  for (const char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
}

/// Rewrites an inner label block (`k="v",k2="v2"`) with every value escaped.
/// Registered names store raw values (a raw value must not itself contain a
/// double quote — the inline-name encoding could not round-trip one), so
/// escaping happens here, once, at render time.
[[nodiscard]] std::string escape_label_block(const std::string& labels) {
  std::string out;
  out.reserve(labels.size());
  std::size_t i = 0;
  while (i < labels.size()) {
    // key=
    while (i < labels.size() && labels[i] != '=') out += labels[i++];
    WORMS_EXPECTS(i < labels.size() && "label block must be k=\"v\" pairs");
    out += labels[i++];  // '='
    WORMS_EXPECTS(i < labels.size() && labels[i] == '"' && "label value must be quoted");
    out += labels[i++];  // opening quote
    const std::size_t close = labels.find('"', i);
    WORMS_EXPECTS(close != std::string::npos && "label value must close");
    append_escaped_label_value(out, std::string_view(labels).substr(i, close - i));
    i = close;
    out += labels[i++];  // closing quote
    if (i < labels.size()) {
      WORMS_EXPECTS(labels[i] == ',' && "label pairs must be comma-separated");
      out += labels[i++];
    }
  }
  return out;
}

/// `base` + optional suffix + merged label block (existing labels first).
[[nodiscard]] std::string spliced(const std::string& base, const char* suffix,
                                  const std::string& labels, const std::string& extra = {}) {
  std::string out = base;
  out += suffix;
  if (!labels.empty() || !extra.empty()) {
    out += '{';
    out += labels;
    if (!labels.empty() && !extra.empty()) out += ',';
    out += extra;
    out += '}';
  }
  return out;
}

/// Help text per metric family.  Known families get a real description; the
/// deterministic fallback keeps the exposition conformant (# HELP on every
/// family) for ad-hoc instruments too.
[[nodiscard]] const char* help_text(const std::string& base) {
  struct Entry {
    const char* name;
    const char* help;
  };
  static constexpr Entry kHelp[] = {
      {"fleet_records_ingested_total", "records accepted into the containment pipeline"},
      {"fleet_records_suppressed_total", "records suppressed after host removal"},
      {"fleet_records_post_removal_total", "records observed from already-removed hosts"},
      {"fleet_checkpoints_written_total", "pipeline checkpoints written"},
      {"fleet_hosts_seen_total", "distinct hosts observed"},
      {"fleet_hosts_flagged_total", "hosts flagged for early checking"},
      {"fleet_hosts_removed_total", "hosts removed by the containment policy"},
      {"fleet_hosts_pre_contained_total", "hosts pre-contained from gossip alerts"},
      {"fleet_backend_switches_total", "per-shard counter backend degrade switches"},
      {"fleet_workers_killed_total", "shard workers killed by fault injection"},
      {"fleet_workers_respawned_total", "shard workers respawned after a kill"},
      {"fleet_health_transitions_total", "shard health-state transitions by target state"},
      {"fleet_checkpoint_seconds", "checkpoint write latency"},
      {"fleet_batch_records", "records per shard batch"},
      {"fleet_batch_seconds", "shard batch processing latency"},
      {"fleet_counter_memory_bytes", "distinct-counter memory footprint"},
      {"fleet_queue_depth", "shard queue depth in batches"},
      {"fleet_queue_high_water", "shard queue depth high-water mark"},
      {"fleet_shard_health", "shard health rung (0 healthy, 1 degraded, 2 shedding)"},
      {"fleet_dead_letters_total", "quarantined records by reason"},
      {"fleet_dead_letters_overflow_total", "dead letters dropped at capacity"},
      {"fleet_pool_tasks_total", "thread-pool tasks executed"},
      {"fleet_pool_waits_total", "thread-pool idle waits"},
      {"fleet_pool_task_seconds", "thread-pool task latency"},
      {"fleet_net_connections_accepted_total", "TCP connections accepted"},
      {"fleet_net_frames_rx_total", "wire frames received"},
      {"fleet_net_frames_tx_total", "wire frames sent"},
      {"fleet_net_records_rx_total", "records received over the wire"},
      {"fleet_net_alerts_rx_total", "gossip alerts received"},
      {"fleet_net_alerts_tx_total", "gossip alerts sent"},
      {"fleet_net_alerts_dropped_total", "gossip alerts dropped on degraded peers"},
      {"fleet_net_reconnects_total", "client reconnect attempts"},
      {"fleet_net_checkpoints_replicated_total", "checkpoints replicated to a replica"},
      {"fleet_net_checkpoints_stored_total", "replica checkpoints stored"},
      {"fleet_net_replication_lag_records", "records between head and last replicated checkpoint"},
      {"fleet_net_peers_degraded", "peer links currently degraded to local-only"},
      {"mc_runs_total", "Monte Carlo runs completed"},
      {"mc_chunks_stolen_total", "Monte Carlo chunks stolen by idle workers"},
      {"mc_chunk_seconds", "Monte Carlo chunk latency"},
  };
  for (const Entry& e : kHelp) {
    if (base == e.name) return e.help;
  }
  return "worms metric";
}

/// `# HELP` + `# TYPE` header, once per family (consecutive label variants
/// of one base share a header).
void family_header(std::string& out, std::string& last_base, const std::string& base,
                   const char* kind) {
  if (base == last_base) return;
  last_base = base;
  out += "# HELP ";
  out += base;
  out += ' ';
  out += help_text(base);
  out += '\n';
  out += "# TYPE ";
  out += base;
  out += ' ';
  out += kind;
  out += '\n';
}

[[nodiscard]] std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

std::string Registry::render_prometheus(const MetricsSnapshot& snapshot) {
  std::string out;
  std::string base, labels, last_base;
  for (const CounterSnapshot& c : snapshot.counters) {
    split_labels(c.name, base, labels);
    labels = escape_label_block(labels);
    family_header(out, last_base, base, "counter");
    out += spliced(base, "", labels);
    out += ' ';
    out += fmt_u64(c.value);
    out += '\n';
  }
  last_base.clear();
  for (const GaugeSnapshot& g : snapshot.gauges) {
    split_labels(g.name, base, labels);
    labels = escape_label_block(labels);
    family_header(out, last_base, base, "gauge");
    out += spliced(base, "", labels);
    out += ' ';
    out += fmt_f64(g.value);
    out += '\n';
  }
  last_base.clear();
  for (const HistogramSnapshot& h : snapshot.histograms) {
    split_labels(h.name, base, labels);
    labels = escape_label_block(labels);
    family_header(out, last_base, base, "histogram");
    std::uint64_t cumulative = 0;
    for (std::size_t b = 0; b < h.counts.size(); ++b) {
      cumulative += h.counts[b];
      const std::string le =
          b < h.bounds.size() ? fmt_f64(h.bounds[b]) : std::string("+Inf");
      out += spliced(base, "_bucket", labels, "le=\"" + le + "\"");
      out += ' ';
      out += fmt_u64(cumulative);
      out += '\n';
    }
    out += spliced(base, "_sum", labels);
    out += ' ';
    out += fmt_f64(h.sum);
    out += '\n';
    out += spliced(base, "_count", labels);
    out += ' ';
    out += fmt_u64(h.count);
    out += '\n';
  }
  return out;
}

std::string Registry::render_json(const MetricsSnapshot& snapshot) {
  // One metric object per line so line-oriented tools (and the golden-file
  // tests) can filter without a JSON parser.
  std::string out = "{\n\"schema\": \"worms-metrics-v1\",\n\"counters\": [\n";
  for (std::size_t i = 0; i < snapshot.counters.size(); ++i) {
    const CounterSnapshot& c = snapshot.counters[i];
    out += "{\"name\":\"" + json_escape(c.name) + "\",\"value\":" + fmt_u64(c.value) + '}';
    if (i + 1 < snapshot.counters.size()) out += ',';
    out += '\n';
  }
  out += "],\n\"gauges\": [\n";
  for (std::size_t i = 0; i < snapshot.gauges.size(); ++i) {
    const GaugeSnapshot& g = snapshot.gauges[i];
    out += "{\"name\":\"" + json_escape(g.name) + "\",\"value\":" + fmt_f64(g.value) + '}';
    if (i + 1 < snapshot.gauges.size()) out += ',';
    out += '\n';
  }
  out += "],\n\"histograms\": [\n";
  for (std::size_t i = 0; i < snapshot.histograms.size(); ++i) {
    const HistogramSnapshot& h = snapshot.histograms[i];
    out += "{\"name\":\"" + json_escape(h.name) + "\",\"count\":" + fmt_u64(h.count) +
           ",\"sum\":" + fmt_f64(h.sum) + ",\"bounds\":[";
    for (std::size_t b = 0; b < h.bounds.size(); ++b) {
      if (b > 0) out += ',';
      out += fmt_f64(h.bounds[b]);
    }
    out += "],\"counts\":[";
    for (std::size_t b = 0; b < h.counts.size(); ++b) {
      if (b > 0) out += ',';
      out += fmt_u64(h.counts[b]);
    }
    out += "]}";
    if (i + 1 < snapshot.histograms.size()) out += ',';
    out += '\n';
  }
  out += "]\n}\n";
  return out;
}

void write_metrics_file(const std::string& path, const std::string& content) {
  WORMS_EXPECTS(!path.empty());
  if (path == "-") {
    // Stream to stdout instead of publishing a file — `wormctl contain
    // --metrics -`.  Periodic exports append, so each snapshot is a
    // self-delimiting exposition page on the stream.
    std::fwrite(content.data(), 1, content.size(), stdout);
    std::fflush(stdout);
    return;
  }
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    WORMS_EXPECTS(out.good() && "cannot open metrics temp file");
    out.write(content.data(), static_cast<std::streamsize>(content.size()));
    out.flush();
    WORMS_ENSURES(out.good() && "metrics write failed");
  }
  // Atomic publish, same discipline as fleet checkpoints: a concurrent
  // reader sees either the previous complete file or this one.
  WORMS_ENSURES(std::rename(tmp.c_str(), path.c_str()) == 0 && "metrics rename failed");
}

}  // namespace worms::obs
