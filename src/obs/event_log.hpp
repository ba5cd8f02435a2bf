// Structured event journal for fleet state transitions (DESIGN.md §14).
//
// Metrics answer *how many*, traces answer *where time goes*; this layer
// answers *what happened*: the discrete state transitions an operator (or
// the ROADMAP item-2 inference stage) needs to reconstruct a containment
// run — degrade-rung walks, checkpoint writes and restores, replica
// promotions, host removals, fault-clause firings, wire quarantines, and
// overload transitions.  The paper's automated-containment loop is only
// auditable if these transitions leave a durable, ordered record.
//
// Model: one typed fixed-size record per transition.  Every event carries
// the absolute stream position (records fed) at which it fired, so journals
// from different nodes — and trace spans, which share the same position
// stamps on record batches — can be joined fleet-wide.  The `a`/`b` payload
// fields are type-specific:
//
//   type               a                        b
//   DegradeStep        shard index              new backend (CounterBackend)
//   CheckpointWrite    checkpoint ordinal       snapshot bytes
//   CheckpointRestore  snapshot shard count     snapshot bytes
//   ReplicaPromotion   node id                  promoted-from position
//   HostRemoved        host address             0 = scan budget, 1 = failures,
//                                               2 = pre-contained (fleet alert)
//   FaultClauseFired   clause kind (FaultKind)  shard/worker index
//   NetQuarantine      DeadLetterReason         connection id
//   OverloadTransition shard index              new ShardHealth rung
//
// Recording discipline is the flight recorder's: every writer owns an
// EventWriter — an obs::WriterRing (obs/writer_ring.hpp) that overwrites its
// own oldest slots and never blocks, locks, or allocates on the hot path (a
// record is a clock read plus five field stores, ~tens of ns).  Writers are
// single-writer by contract: the pipeline claims ids 0 = ingest, 1..S =
// shard workers — the same ids as its trace rings' tids; threads without a
// logical identity (net reader threads) use the thread-local
// `local_writer()`.
//
// The journal is the one record of these transitions: the Chrome trace
// export renders it as instants (obs/trace_export.hpp) rather than the
// pipeline writing each transition twice.
//
// Clock: wall mode stamps steady-clock nanoseconds since the process's wall
// origin (shared with the trace rings); synthetic mode stamps each writer's
// own event sequence number, so exports are byte-reproducible for golden
// tests.  collect() orders the merged stream by (position, writer, seq) — a
// key that is deterministic under the synthetic clock regardless of thread
// scheduling.
//
// Export is JSONL (one event object per line; see event_log.cpp) readable
// by `wormctl events FILE [--type T] [--since POS]`.  Zero cost when
// disabled: under WORMS_OBS_DISABLED emit() compiles to an empty inline
// function; parsing and filtering stay available so the tooling works on
// journals produced by enabled builds.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "obs/writer_ring.hpp"

namespace worms::obs {

enum class EventType : std::uint8_t {
  DegradeStep = 1,
  CheckpointWrite = 2,
  CheckpointRestore = 3,
  ReplicaPromotion = 4,
  HostRemoved = 5,
  FaultClauseFired = 6,
  NetQuarantine = 7,
  OverloadTransition = 8,
};

/// FaultClauseFired `a` field: which fault/recovery clause fired.
enum class FaultKind : std::uint8_t {
  WorkerKill = 0,
  WorkerStall = 1,
  RecordCorrupt = 2,
  WorkerRespawn = 3,
  NetDrop = 4,
  NetStall = 5,
};

[[nodiscard]] const char* to_string(EventType type) noexcept;

/// Name → type for `wormctl events --type`; false on an unknown name.
[[nodiscard]] bool parse_event_type(std::string_view name, EventType& out) noexcept;

/// One fixed-size slot in a writer ring.
struct Event {
  std::uint64_t tick = 0;      ///< wall: ns since wall_origin(); synthetic: writer seq
  std::uint64_t position = 0;  ///< absolute stream position when the event fired
  std::uint64_t a = 0;         ///< type-specific (see table above)
  std::uint64_t b = 0;         ///< type-specific
  EventType type = EventType::DegradeStep;

  auto fields() noexcept { return std::tie(tick, position, a, b, type); }
};

struct EventLogOptions {
  /// Ring capacity in events per writer (rounded up to a power of two,
  /// minimum 64).  State transitions are rare — 4096 slots retain every
  /// event of any realistic run while costing ~160 KiB per writer.
  std::size_t buffer_events = 1u << 12;
  TraceClock clock = TraceClock::Wall;
  /// Stamped onto every exported line so journals from different nodes can
  /// be distinguished after a fleet-wide join.
  std::uint64_t node_id = 0;
};

/// Single-writer event ring.  Obtain via EventLog::writer / local_writer.
/// Emission sites whose firing position depends on thread timing (overload
/// transitions, worker respawns) gate on wall_clock() so synthetic journals
/// stay byte-reproducible.
class EventWriter : public WriterRing<Event> {
 public:
  void emit(EventType type, std::uint64_t position, std::uint64_t a = 0,
            std::uint64_t b = 0) noexcept {
    record({.position = position, .a = a, .b = b, .type = type});
  }

 private:
  friend class WriterRingSet<EventWriter>;
  EventWriter(std::uint32_t id, std::size_t capacity, bool synthetic)
      : WriterRing(id, capacity, synthetic) {}
};

/// One event as drained by collect(), with its writer identity and ring
/// position kept for the stable (position, writer, seq) order.
struct CollectedEvent {
  std::uint64_t tick = 0;
  std::uint64_t position = 0;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  std::uint64_t seq = 0;  ///< position within the writer's lifetime stream
  std::uint32_t writer = 0;
  EventType type = EventType::DegradeStep;

  friend bool operator==(const CollectedEvent&, const CollectedEvent&) = default;
};

/// All writers drained into one stream ordered by (position, writer, seq).
struct EventCollection {
  std::vector<CollectedEvent> events;
  std::uint64_t recorded = 0;  ///< events ever emitted, across all writers
  std::uint64_t dropped = 0;   ///< of those, overwritten before collection
  TraceClock clock = TraceClock::Wall;
  std::uint64_t node_id = 0;
};

/// Owns the writer rings.  No global instance — each pipeline/node is handed
/// one explicitly, like obs::Registry and obs::Tracer.  The log must outlive
/// every thread still emitting into its writers.
class EventLog : private WriterRingSet<EventWriter> {
 public:
  explicit EventLog(const EventLogOptions& options = {});

  /// The writer for logical id `id` (WriterRingSet::ring).
  [[nodiscard]] EventWriter& writer(std::uint32_t id) { return ring(id); }

  /// The calling thread's auto-registered writer (WriterRingSet::local_ring)
  /// — for emission sites without a logical writer identity (net reader
  /// threads).
  [[nodiscard]] EventWriter& local_writer() { return local_ring(); }

  using WriterRingSet::wall_clock;

  /// Drains every writer into one (position, writer, seq)-ordered stream.
  /// Safe to call while emitters are quiescent; a concurrently emitting
  /// writer yields a consistent prefix of its stream.
  [[nodiscard]] EventCollection collect() const;

 private:
  std::uint64_t node_id_;
};

/// First auto-assigned writer id for local_writer(); explicit writer() ids
/// should stay below it.
inline constexpr std::uint32_t kEventAutoWriterBase = kAutoWriterBase;

/// JSONL rendering: one event object per line, in collection order —
/// {"node":0,"type":"HostRemoved","position":41,"writer":2,"seq":3,
///  "tick":3,"a":1072,"b":0} — byte-stable under the synthetic clock.
[[nodiscard]] std::string render_events_jsonl(const EventCollection& collection);

/// Parses render_events_jsonl output back.  Strict about the fields this
/// exporter writes; throws support::PreconditionError on anything else.
[[nodiscard]] EventCollection parse_events_jsonl(const std::string& text);

}  // namespace worms::obs
