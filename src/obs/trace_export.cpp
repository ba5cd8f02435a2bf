#include "obs/trace_export.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <utility>

#include "obs/registry.hpp"  // write_metrics_file (same atomic-publish discipline)
#include "support/check.hpp"

namespace worms::obs {

namespace {

[[nodiscard]] std::string fmt_u64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%llu", static_cast<unsigned long long>(v));
  return buf;
}

/// Microsecond timestamps with fixed 3 decimals: byte-stable for identical
/// inputs (the golden test's requirement) and exact for nanosecond ticks.
[[nodiscard]] std::string fmt_ts(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.3f", v);
  return buf;
}

[[nodiscard]] std::string fmt_value(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

[[nodiscard]] std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

/// Extracts the JSON string immediately following `key` in `line`, handling
/// the \" and \\ escapes json_escape produces.  Returns false if absent.
bool extract_string(const std::string& line, const char* key, std::string& out) {
  const std::size_t at = line.find(key);
  if (at == std::string::npos) return false;
  std::size_t i = at + std::string(key).size();
  out.clear();
  while (i < line.size() && line[i] != '"') {
    if (line[i] == '\\' && i + 1 < line.size()) ++i;
    out += line[i];
    ++i;
  }
  return i < line.size();
}

bool extract_double(const std::string& line, const char* key, double& out) {
  const std::size_t at = line.find(key);
  if (at == std::string::npos) return false;
  const char* begin = line.data() + at + std::string(key).size();
  const char* end = line.data() + line.size();
  const auto [p, ec] = std::from_chars(begin, end, out);
  return ec == std::errc() && p != begin;
}

/// The name a journal event renders under in the Chrome export.
const char* instant_name(const CollectedEvent& event) noexcept {
  switch (event.type) {
    case EventType::DegradeStep: return "backend_degrade";
    case EventType::HostRemoved:
      return event.b == 1 ? "failure_removal" : to_string(event.type);
    case EventType::FaultClauseFired:
      switch (static_cast<FaultKind>(event.a)) {
        case FaultKind::WorkerKill: return "worker_killed";
        case FaultKind::WorkerStall: return "fault_stall";
        case FaultKind::RecordCorrupt: return "fault_corrupt";
        case FaultKind::WorkerRespawn: return "worker_respawned";
        default: return to_string(event.type);
      }
    case EventType::OverloadTransition: {
      // b is the new ShardHealth rung: healthy, degraded, shedding.
      static constexpr const char* kRungs[] = {"health_healthy", "health_degraded",
                                               "health_shedding"};
      return event.b < 3 ? kRungs[event.b] : to_string(event.type);
    }
    default: return to_string(event.type);
  }
}

struct SpanAggregate {
  std::unique_ptr<Histogram> histogram;
  std::uint64_t count = 0;
  std::uint64_t unmatched = 0;
  double total_seconds = 0.0;
};

}  // namespace

const SpanStats* TraceSummary::find_span(const std::string& name) const noexcept {
  for (const SpanStats& s : spans) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

const InstantStats* TraceSummary::find_instant(const std::string& name) const noexcept {
  for (const InstantStats& s : instants) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

TraceCollection merge_journal(TraceCollection trace, const EventCollection& journal) {
  WORMS_EXPECTS(trace.clock == journal.clock && "trace and journal clocks differ");
  for (const CollectedEvent& ev : journal.events) {
    const std::uint64_t subject = ev.type == EventType::FaultClauseFired ? ev.b : ev.a;
    trace.events.push_back({ev.tick, ev.seq, instant_name(ev), static_cast<double>(subject),
                            ev.writer, TraceEventKind::Instant});
  }
  std::stable_sort(trace.events.begin(), trace.events.end(), trace_order);
  trace.recorded += journal.recorded;
  trace.dropped += journal.dropped;
  return trace;
}

std::string render_chrome_trace(const TraceCollection& collection) {
  // One event object per line: line-oriented tools (and parse_chrome_trace)
  // never need a full JSON parser, and diffs stay readable.
  std::string out = "{\"traceEvents\":[\n";
  const double tick_to_us =
      collection.clock == TraceClock::Wall ? 1e6 / collection.ticks_per_second : 1.0;
  bool first = true;
  for (const CollectedTraceEvent& ev : collection.events) {
    if (!first) out += ",\n";
    first = false;
    out += "{\"name\":\"";
    out += json_escape(ev.name);
    out += "\",\"ph\":\"";
    switch (ev.kind) {
      case TraceEventKind::SpanBegin: out += 'B'; break;
      case TraceEventKind::SpanEnd: out += 'E'; break;
      case TraceEventKind::Instant: out += 'i'; break;
      case TraceEventKind::Counter: out += 'C'; break;
    }
    out += "\",\"ts\":";
    out += fmt_ts(static_cast<double>(ev.tick) * tick_to_us);
    out += ",\"pid\":0,\"tid\":";
    out += fmt_u64(ev.tid);
    if (ev.kind == TraceEventKind::Instant) out += ",\"s\":\"t\"";
    if (ev.kind == TraceEventKind::Instant || ev.kind == TraceEventKind::Counter) {
      out += ",\"args\":{\"value\":";
      out += fmt_value(ev.value);
      out += '}';
    }
    out += '}';
  }
  out += "\n],\n\"displayTimeUnit\":\"ms\",\n\"otherData\":{\"clock\":\"";
  out += to_string(collection.clock);
  out += "\",\"recorded\":\"";
  out += fmt_u64(collection.recorded);
  out += "\",\"dropped\":\"";
  out += fmt_u64(collection.dropped);
  out += "\"}\n}\n";
  return out;
}

TraceCollection parse_chrome_trace(const std::string& json) {
  WORMS_EXPECTS(json.find("\"traceEvents\"") != std::string::npos &&
                "not a Chrome trace-event file (no traceEvents key)");
  TraceCollection out;
  std::string clock_name;
  if (extract_string(json, "\"clock\":\"", clock_name) && clock_name == "synthetic") {
    out.clock = TraceClock::Synthetic;
    out.ticks_per_second = 1.0;
  }
  double meta = 0.0;
  std::string meta_str;
  if (extract_string(json, "\"dropped\":\"", meta_str)) {
    out.dropped = std::strtoull(meta_str.c_str(), nullptr, 10);
  }
  if (extract_string(json, "\"recorded\":\"", meta_str)) {
    out.recorded = std::strtoull(meta_str.c_str(), nullptr, 10);
  }

  const double us_to_tick = out.clock == TraceClock::Wall ? 1e3 : 1.0;
  std::istringstream lines(json);
  std::string line;
  std::uint64_t seq = 0;
  while (std::getline(lines, line)) {
    const std::size_t open = line.find('{');
    if (open == std::string::npos || line.find("\"ph\"") == std::string::npos) continue;
    std::string name, ph;
    double ts = 0.0, tid = 0.0, value = 0.0;
    WORMS_EXPECTS(extract_string(line, "\"name\":\"", name) &&
                  "trace event line missing name");
    WORMS_EXPECTS(extract_string(line, "\"ph\":\"", ph) && !ph.empty() &&
                  "trace event line missing phase");
    TraceEventKind kind;
    switch (ph[0]) {
      case 'B': kind = TraceEventKind::SpanBegin; break;
      case 'E': kind = TraceEventKind::SpanEnd; break;
      case 'i':
      case 'I': kind = TraceEventKind::Instant; break;
      case 'C': kind = TraceEventKind::Counter; break;
      default: continue;  // metadata / flow / other phases: not modeled
    }
    WORMS_EXPECTS(extract_double(line, "\"ts\":", ts) && "trace event line missing ts");
    WORMS_EXPECTS(extract_double(line, "\"tid\":", tid) && "trace event line missing tid");
    extract_double(line, "\"value\":", value);
    (void)meta;
    out.events.push_back({static_cast<std::uint64_t>(std::llround(ts * us_to_tick)),
                          seq++, std::move(name), value,
                          static_cast<std::uint32_t>(tid), kind});
  }
  if (out.recorded == 0) out.recorded = out.events.size();
  return out;
}

TraceSummary summarize_trace(const TraceCollection& collection) {
  TraceSummary summary;
  summary.events = collection.events.size();
  summary.dropped = collection.dropped;
  summary.clock = collection.clock;

  // Wall durations are seconds into the metrics layer's latency buckets;
  // synthetic durations are logical tick counts, bucketed like sizes.
  const HistogramSpec spec = collection.clock == TraceClock::Wall
                                 ? HistogramSpec{}
                                 : HistogramSpec{.first_bound = 1.0, .bounds = 32};
  std::map<std::string, SpanAggregate> spans;
  std::map<std::string, InstantStats> instants;
  std::map<std::string, CounterStats> counters;
  // Per-thread stack of open spans: Chrome's B/E nesting model.
  std::map<std::uint32_t, std::vector<const CollectedTraceEvent*>> open;

  for (const CollectedTraceEvent& ev : collection.events) {
    switch (ev.kind) {
      case TraceEventKind::SpanBegin:
        open[ev.tid].push_back(&ev);
        break;
      case TraceEventKind::SpanEnd: {
        auto& agg = spans[ev.name];
        if (agg.histogram == nullptr) agg.histogram = std::make_unique<Histogram>(spec);
        auto& stack = open[ev.tid];
        if (!stack.empty() && stack.back()->name == ev.name) {
          const double seconds =
              static_cast<double>(ev.tick - stack.back()->tick) / collection.ticks_per_second;
          stack.pop_back();
          ++agg.count;
          agg.total_seconds += seconds;
          agg.histogram->record(seconds);
        } else {
          ++agg.unmatched;  // begin was overwritten in the ring, or mis-nested
        }
        break;
      }
      case TraceEventKind::Instant: {
        auto& s = instants[ev.name];
        s.name = ev.name;
        ++s.count;
        s.last_value = ev.value;
        break;
      }
      case TraceEventKind::Counter: {
        auto& s = counters[ev.name];
        s.name = ev.name;
        ++s.samples;
        s.last_value = ev.value;
        s.max_value = std::max(s.max_value, ev.value);
        break;
      }
    }
  }
  // Begins still open at end-of-trace (or whose end was overwritten).
  for (const auto& [tid, stack] : open) {
    for (const CollectedTraceEvent* ev : stack) {
      auto& agg = spans[ev->name];
      ++agg.unmatched;
    }
  }

  for (auto& [name, agg] : spans) {
    SpanStats s;
    s.name = name;
    s.count = agg.count;
    s.unmatched = agg.unmatched;
    s.total_seconds = agg.total_seconds;
    if (agg.histogram != nullptr) {
      const HistogramSnapshot snap = agg.histogram->snapshot(name);
      s.p50_seconds = snap.quantile(0.5);
      s.p99_seconds = snap.quantile(0.99);
    }
    summary.spans.push_back(std::move(s));
  }
  for (auto& [name, s] : instants) summary.instants.push_back(std::move(s));
  for (auto& [name, s] : counters) summary.counters.push_back(std::move(s));
  return summary;
}

std::string render_trace_summary(const TraceSummary& summary) {
  char buf[256];
  std::string out;
  std::snprintf(buf, sizeof buf,
                "trace summary: %llu event(s), %llu overwritten in flight recorder, %s clock\n",
                static_cast<unsigned long long>(summary.events),
                static_cast<unsigned long long>(summary.dropped),
                to_string(summary.clock));
  out += buf;
  const char* unit = summary.clock == TraceClock::Wall ? "s" : "ticks";
  if (!summary.spans.empty()) {
    std::snprintf(buf, sizeof buf, "\n%-28s %10s %10s %14s %12s %12s\n", "span", "count",
                  "unmatched", (std::string("total_") + unit).c_str(),
                  (std::string("p50_") + unit).c_str(),
                  (std::string("p99_") + unit).c_str());
    out += buf;
    for (const SpanStats& s : summary.spans) {
      std::snprintf(buf, sizeof buf, "%-28s %10llu %10llu %14.6g %12.6g %12.6g\n",
                    s.name.c_str(), static_cast<unsigned long long>(s.count),
                    static_cast<unsigned long long>(s.unmatched), s.total_seconds,
                    s.p50_seconds, s.p99_seconds);
      out += buf;
    }
  }
  if (!summary.instants.empty()) {
    std::snprintf(buf, sizeof buf, "\n%-28s %10s %14s\n", "instant", "count", "last_value");
    out += buf;
    for (const InstantStats& s : summary.instants) {
      std::snprintf(buf, sizeof buf, "%-28s %10llu %14.6g\n", s.name.c_str(),
                    static_cast<unsigned long long>(s.count), s.last_value);
      out += buf;
    }
  }
  if (!summary.counters.empty()) {
    std::snprintf(buf, sizeof buf, "\n%-28s %10s %14s %14s\n", "counter", "samples", "last",
                  "max");
    out += buf;
    for (const CounterStats& s : summary.counters) {
      std::snprintf(buf, sizeof buf, "%-28s %10llu %14.6g %14.6g\n", s.name.c_str(),
                    static_cast<unsigned long long>(s.samples), s.last_value, s.max_value);
      out += buf;
    }
  }
  return out;
}

void write_trace_file(const std::string& path, const std::string& content) {
  write_metrics_file(path, content);  // temp + rename: identical discipline
}

std::string read_trace_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  WORMS_EXPECTS(in.good() && "cannot open trace file");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

}  // namespace worms::obs
