#include "obs/trace.hpp"

#include <algorithm>

namespace worms::obs {

const char* to_string(TraceEventKind kind) noexcept {
  switch (kind) {
    case TraceEventKind::SpanBegin: return "span_begin";
    case TraceEventKind::SpanEnd: return "span_end";
    case TraceEventKind::Instant: return "instant";
    case TraceEventKind::Counter: return "counter";
  }
  return "unknown";
}

bool trace_order(const CollectedTraceEvent& a, const CollectedTraceEvent& b) noexcept {
  if (a.tick != b.tick) return a.tick < b.tick;
  if (a.tid != b.tid) return a.tid < b.tid;
  return a.seq < b.seq;
}

Tracer::Tracer(const TracerOptions& options)
    : WriterRingSet(options.buffer_events, options.clock) {}

TraceCollection Tracer::collect() const {
  TraceCollection out;
  out.clock = clock();
  out.ticks_per_second = wall_clock() ? 1e9 : 1.0;
  drain(
      [&out](const TraceEvent& ev, std::uint64_t seq, std::uint32_t tid) {
        out.events.push_back(
            {ev.tick, seq, ev.name != nullptr ? ev.name : "", ev.value, tid, ev.kind});
      },
      out.recorded, out.dropped);
  std::sort(out.events.begin(), out.events.end(), trace_order);
  return out;
}

}  // namespace worms::obs
