// Flight-recorder tracing for latency attribution (DESIGN.md §9).
//
// PR 4's metrics layer answers *how many*; this layer answers *where time
// goes*: which pipeline stage stalls under backpressure, how long a
// checkpoint blocks a shard, what a worker kill/respawn costs.  The paper's
// containment scheme lives on reaction latency inside Proposition 1's window
// (the first M scans of an outbreak), so the pipeline enforcing it must be
// able to attribute every millisecond of its own reaction path.
//
// Model — three event kinds, all fixed-size binary records:
//
//   * span begin/end — a named region of one thread's time (RAII via
//     WORMS_TRACE_SPAN); nesting is by position, exactly Chrome's B/E model.
//   * instant       — a point event (dead-lettered record, starved queue
//     poll), with one double payload.
//   * counter       — a sampled value (queue depth) rendered as a counter
//     track by the trace viewer.
//
// Recording discipline ("flight recorder"): every writer owns a TraceRing —
// an obs::WriterRing (obs/writer_ring.hpp) of TraceEvent slots that
// overwrites its own oldest entries and never blocks, allocates, or locks on
// the hot path.  Rings are single-writer by contract: either claim a logical
// thread id explicitly (`tracer.ring(tid)` — what the pipeline does, so
// trace output is deterministic) or use the thread-local
// `tracer.local_ring()`.
//
// Clock: wall mode stamps steady-clock nanoseconds since the process's wall
// origin, shared with the event journal.  Synthetic mode stamps each ring's
// own event sequence number — logical time for golden tests, where
// byte-identical reruns matter more than durations; timing-dependent
// recording sites (queue waits, stall spans) check `wall_clock()` and stay
// silent in synthetic mode.
//
// State transitions (worker kills, degrades, overload rungs, ...) are not
// trace instants: the event journal is their one record, and the Chrome
// export renders it as instants on the same timeline (obs/trace_export.hpp).
//
// Collection (`collect()`) is the cold path: it drains every ring into one
// stream ordered by (tick, tid, seq) and reports how many events the rings
// overwrote.  Export to Chrome trace-event JSON and the per-span summary
// live in obs/trace_export.hpp.
//
// Zero cost when disabled: under WORMS_OBS_DISABLED every recording member
// compiles to an empty inline function and WORMS_TRACE_SPAN expands to
// nothing, mirroring the metrics layer.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "obs/writer_ring.hpp"

namespace worms::obs {

enum class TraceEventKind : std::uint8_t { SpanBegin, SpanEnd, Instant, Counter };

[[nodiscard]] const char* to_string(TraceEventKind kind) noexcept;

/// One fixed-size slot in a ring.  `name` must have static storage duration
/// (string literals at the recording sites) — rings store the pointer, never
/// the characters.
struct TraceEvent {
  std::uint64_t tick = 0;      ///< wall: ns since wall_origin(); synthetic: ring seq
  const char* name = nullptr;  ///< static-storage event name
  double value = 0.0;          ///< instant/counter payload; 0 for spans
  TraceEventKind kind = TraceEventKind::Instant;

  auto fields() noexcept { return std::tie(tick, name, value, kind); }
};

struct TracerOptions {
  /// Ring capacity in events per writer thread (rounded up to a power of
  /// two, minimum 64).  At 32 bytes/event the default retains the most
  /// recent 65536 events (~2 MiB) per thread.
  std::size_t buffer_events = 1u << 16;
  TraceClock clock = TraceClock::Wall;
};

/// Single-writer trace ring.  Obtain via Tracer::ring / Tracer::local_ring.
class TraceRing : public WriterRing<TraceEvent> {
 public:
  void span_begin(const char* name) noexcept {
    record({.name = name, .kind = TraceEventKind::SpanBegin});
  }
  void span_end(const char* name) noexcept {
    record({.name = name, .kind = TraceEventKind::SpanEnd});
  }
  void instant(const char* name, double value = 0.0) noexcept {
    record({.name = name, .value = value, .kind = TraceEventKind::Instant});
  }
  void counter(const char* name, double value) noexcept {
    record({.name = name, .value = value, .kind = TraceEventKind::Counter});
  }

  [[nodiscard]] std::uint32_t tid() const noexcept { return id(); }

 private:
  friend class WriterRingSet<TraceRing>;
  TraceRing(std::uint32_t tid, std::size_t capacity, bool synthetic)
      : WriterRing(tid, capacity, synthetic) {}
};

/// One event as drained by collect(): name copied out of static storage,
/// ring position kept for stable ordering.
struct CollectedTraceEvent {
  std::uint64_t tick = 0;
  std::uint64_t seq = 0;  ///< position within the ring's lifetime stream
  std::string name;
  double value = 0.0;
  std::uint32_t tid = 0;
  TraceEventKind kind = TraceEventKind::Instant;

  friend bool operator==(const CollectedTraceEvent&, const CollectedTraceEvent&) = default;
};

/// The collected stream's total order: (tick, tid, seq).
[[nodiscard]] bool trace_order(const CollectedTraceEvent& a,
                               const CollectedTraceEvent& b) noexcept;

/// All rings drained into one stream ordered by trace_order.
struct TraceCollection {
  std::vector<CollectedTraceEvent> events;
  std::uint64_t recorded = 0;  ///< events ever recorded, across all rings
  std::uint64_t dropped = 0;   ///< of those, overwritten before collection
  TraceClock clock = TraceClock::Wall;
  double ticks_per_second = 1e9;  ///< wall: ns ticks; synthetic: 1 (logical)
};

/// Owns the rings.  No global instance — each pipeline/engine is handed one
/// explicitly, like obs::Registry.  The tracer must outlive every thread
/// still recording into its rings.
class Tracer : private WriterRingSet<TraceRing> {
 public:
  explicit Tracer(const TracerOptions& options = {});

  /// ring(tid): the ring for logical thread `tid` (the pipeline uses
  /// 0 = ingest, 1..S = shard workers, S+1.. = pool workers).
  /// local_ring(): the calling thread's auto-registered ring, for recording
  /// sites that don't know a logical thread identity (e.g. Monte Carlo
  /// chunks on pool workers).  wall_clock(): false in synthetic mode.
  using WriterRingSet::local_ring;
  using WriterRingSet::ring;
  using WriterRingSet::wall_clock;

  /// Drains every ring into one (tick, tid, seq)-ordered stream.  Safe to
  /// call while writers are quiescent; a concurrently recording ring yields
  /// a consistent prefix of its stream (events published before the drain).
  [[nodiscard]] TraceCollection collect() const;
};

/// First auto-assigned tid for local_ring(); explicit ring() tids should
/// stay below it.
inline constexpr std::uint32_t kTraceAutoTidBase = kAutoWriterBase;

/// RAII span: begin on construction, end on destruction.  Null sink = no-op,
/// so call sites stay branch-light: `SpanGuard g(shard.trace, "shard_batch")`.
class SpanGuard {
 public:
  SpanGuard(TraceRing* ring, const char* name) noexcept : ring_(ring), name_(name) {
    if (ring_ != nullptr) ring_->span_begin(name_);
  }
  SpanGuard(Tracer* tracer, const char* name)
      : SpanGuard(tracer != nullptr ? &tracer->local_ring() : nullptr, name) {}

  SpanGuard(const SpanGuard&) = delete;
  SpanGuard& operator=(const SpanGuard&) = delete;

  ~SpanGuard() {
    if (ring_ != nullptr) ring_->span_end(name_);
  }

 private:
  TraceRing* ring_;
  const char* name_;
};

}  // namespace worms::obs

// RAII span macros.  `sink` is a TraceRing* or Tracer* (either may be null);
// `name` must be a string literal.  Under WORMS_OBS_DISABLED they expand to
// nothing at all — not even the null check survives.
#if defined(WORMS_OBS_DISABLED)
#define WORMS_TRACE_SPAN(sink, name) static_cast<void>(0)
#else
#define WORMS_TRACE_SPAN_CONCAT2(a, b) a##b
#define WORMS_TRACE_SPAN_CONCAT(a, b) WORMS_TRACE_SPAN_CONCAT2(a, b)
#define WORMS_TRACE_SPAN(sink, name) \
  ::worms::obs::SpanGuard WORMS_TRACE_SPAN_CONCAT(worms_trace_span_, __LINE__)((sink), (name))
#endif
