// Trace export and latency summarization (DESIGN.md §9).
//
// Two consumers of one TraceCollection:
//
//   * render_chrome_trace — the Chrome trace-event "JSON Object Format":
//     span begin/end as B/E phases, instants as i, counters as C, one event
//     object per line.  Loads directly in Perfetto (ui.perfetto.dev) and
//     chrome://tracing; `ts` is microseconds per that format's contract
//     (synthetic-clock traces use one tick = one microsecond of logical
//     time).  parse_chrome_trace reads the same shape back — strict about
//     the fields this exporter writes, so `wormctl trace summarize` works on
//     any file wormctl produced.
//
//   * merge_journal — folds an event journal into a trace collection, one
//     instant per journal event, so the state transitions the journal
//     records appear on the trace timeline without being recorded twice.
//
//   * summarize_trace — per-span-name count / total / p50 / p99 built on the
//     same log₂ obs::Histogram the metrics layer exports, so a trace summary
//     and a `fleet_*_seconds` histogram bucket the same durations the same
//     way.  Span begin/end pairing is per (tid, name), innermost-first —
//     Chrome's own stack model; unmatched events are reported, not dropped.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/event_log.hpp"
#include "obs/trace.hpp"

namespace worms::obs {

/// Chrome trace-event JSON, loadable in Perfetto / chrome://tracing.
[[nodiscard]] std::string render_chrome_trace(const TraceCollection& collection);

/// Parses render_chrome_trace output (or any trace whose event lines carry
/// name/ph/ts/tid in that shape).  Throws support::PreconditionError on a
/// file that is not a Chrome trace; skips metadata phases it doesn't model.
[[nodiscard]] TraceCollection parse_chrome_trace(const std::string& json);

/// `trace` with every journal event added as an instant: tick as stamped,
/// tid = writer id (the pipeline's writer ids match its ring tids), value =
/// the event's subject (b for FaultClauseFired — the shard or worker — else
/// a), and as name the one the transition's trace instant carried before the
/// journal became its only record (backend_degrade, fault_corrupt,
/// fault_stall, worker_killed, worker_respawned, failure_removal, health_*),
/// else the journal type name (HostRemoved, CheckpointWrite, ...).  The result is re-ordered by (tick, tid, seq),
/// trace events first on a tie; recorded/dropped add up.  Both must be on
/// the same clock.
[[nodiscard]] TraceCollection merge_journal(TraceCollection trace,
                                            const EventCollection& journal);

/// Aggregated durations of one span name across all threads.  Quantiles are
/// log₂-bucket upper bounds (see obs::HistogramSnapshot::quantile): the true
/// quantile overshoots by at most one bucket width.
struct SpanStats {
  std::string name;
  std::uint64_t count = 0;        ///< completed begin/end pairs
  std::uint64_t unmatched = 0;    ///< begins or ends without a partner
  double total_seconds = 0.0;
  double p50_seconds = 0.0;
  double p99_seconds = 0.0;

  friend bool operator==(const SpanStats&, const SpanStats&) = default;
};

struct InstantStats {
  std::string name;
  std::uint64_t count = 0;
  double last_value = 0.0;

  friend bool operator==(const InstantStats&, const InstantStats&) = default;
};

struct CounterStats {
  std::string name;
  std::uint64_t samples = 0;
  double last_value = 0.0;
  double max_value = 0.0;

  friend bool operator==(const CounterStats&, const CounterStats&) = default;
};

struct TraceSummary {
  std::vector<SpanStats> spans;        ///< sorted by name
  std::vector<InstantStats> instants;  ///< sorted by name
  std::vector<CounterStats> counters;  ///< sorted by name
  std::uint64_t events = 0;
  std::uint64_t dropped = 0;
  TraceClock clock = TraceClock::Wall;

  [[nodiscard]] const SpanStats* find_span(const std::string& name) const noexcept;
  [[nodiscard]] const InstantStats* find_instant(const std::string& name) const noexcept;
};

[[nodiscard]] TraceSummary summarize_trace(const TraceCollection& collection);

/// Compact line-oriented rendering of a summary (the `wormctl trace
/// summarize` output): one table of spans, one of instants, one of counters.
[[nodiscard]] std::string render_trace_summary(const TraceSummary& summary);

/// Atomic publish (temp + rename), same discipline as metrics exports.
void write_trace_file(const std::string& path, const std::string& content);

/// Reads a whole file; throws support::PreconditionError if unreadable.
[[nodiscard]] std::string read_trace_file(const std::string& path);

}  // namespace worms::obs
