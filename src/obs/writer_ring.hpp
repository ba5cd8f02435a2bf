// The one single-writer ring primitive behind the flight recorder
// (obs/trace.hpp, DESIGN.md §9) and the event journal (obs/event_log.hpp,
// DESIGN.md §14).  Both record fixed-size slots from hot paths that must
// never block, lock, or allocate, and both drain them on a cold path; only
// the slot type and the collected order differ, so the mechanism lives here
// once:
//
//   * WriterRing<Slot> — a fixed-capacity ring that overwrites its own oldest
//     slots.  A record is a clock read, the slot's field stores, and a
//     seqlock bracket: `started_` (relaxed) + release fence before the
//     fields, `head_` (release) after.  Fields are written and read through
//     relaxed std::atomic_ref, so a drain racing the writer is well-defined;
//     on x86 every one of these is a plain `mov`.
//   * WriterRingSet<Ring> — owns the rings of one tracer or journal: an
//     owner registry keyed by logical writer id, a thread-local cache for
//     auto-registered writers, and the drain with drop accounting.
//
// A Slot is a trivially copyable struct with a `tick` field (stamped by the
// ring) and a `fields()` member returning std::tie of every field, which is
// how the ring copies it field by field.
//
// Clock: wall mode stamps steady-clock nanoseconds since the process's one
// wall origin (wall_origin()), so trace ticks and journal ticks share a
// timebase; synthetic mode stamps each ring's own sequence number — logical
// time for byte-reproducible golden runs.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <tuple>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"  // kEnabled

namespace worms::obs {

enum class TraceClock : std::uint8_t {
  Wall,       ///< steady-clock nanoseconds — for real latency attribution
  Synthetic,  ///< per-ring sequence numbers — deterministic, for golden tests
};

[[nodiscard]] const char* to_string(TraceClock clock) noexcept;

/// The process's wall-clock origin, fixed at first use: every ring stamps
/// wall ticks as nanoseconds since this instant.
[[nodiscard]] std::chrono::steady_clock::time_point wall_origin() noexcept;

/// First id local_ring() assigns; explicit ring() ids should stay below it.
inline constexpr std::uint32_t kAutoWriterBase = 4096;

namespace detail {

/// Smallest power of two >= n, floored at 64 so wraparound arithmetic and
/// the drop accounting stay sane for degenerate requests.
[[nodiscard]] std::size_t normalize_capacity(std::size_t n) noexcept;

/// Process-unique id per ring set, validating thread-local caches.
[[nodiscard]] std::uint64_t next_ring_set_epoch() noexcept;

/// Calls op(a_field, b_field) for each field pair of two slots.  Always
/// inlined: out of line, the record hot path pays a call and a spill of the
/// slot for what should be a handful of stores.
template <typename Slot, typename Op>
[[gnu::always_inline]] inline void zip_fields(Slot& a, Slot& b, Op op) {
  auto fa = a.fields();
  auto fb = b.fields();
  [&]<std::size_t... I>(std::index_sequence<I...>) {
    (op(std::get<I>(fa), std::get<I>(fb)), ...);
  }(std::make_index_sequence<std::tuple_size_v<decltype(fa)>>{});
}

}  // namespace detail

template <typename Ring>
class WriterRingSet;

/// Single-writer slot ring.  At most one thread may record into a given ring
/// at a time (handoffs must be externally synchronized, e.g. the pipeline's
/// worker-respawn handshake); collect() may run concurrently.
template <typename Slot>
class WriterRing {
 public:
  /// Hot path.  Wraparound overwrites the oldest slot; nothing ever blocks.
  /// `started_` announces the overwrite before the field stores and `head_`
  /// publishes it after, so a concurrent drain can tell which slots it read
  /// while they were being rewritten and discard them.
  void record(Slot slot) noexcept {
    if constexpr (!kEnabled) {
      (void)slot;
      return;
    }
    const std::uint64_t h = head_.load(std::memory_order_relaxed);
    slot.tick = synthetic_ ? h : wall_tick();
    started_.store(h + 1, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_release);
    detail::zip_fields(slots_[h & mask_], slot, [](auto& dst, auto& src) {
      std::atomic_ref(dst).store(src, std::memory_order_relaxed);
    });
    head_.store(h + 1, std::memory_order_release);
  }

  [[nodiscard]] std::uint32_t id() const noexcept { return id_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return slots_.size(); }

  /// False in synthetic-clock mode.  Recording sites whose firing depends on
  /// thread timing (queue waits, overload transitions, respawns) gate on
  /// this so synthetic output stays scheduling-independent.
  [[nodiscard]] bool wall_clock() const noexcept { return !synthetic_; }

  /// Slots recorded over this ring's lifetime (retained + overwritten).
  [[nodiscard]] std::uint64_t recorded() const noexcept {
    return head_.load(std::memory_order_relaxed);
  }

 protected:
  WriterRing(std::uint32_t id, std::size_t capacity, bool synthetic)
      : slots_(capacity), mask_(capacity - 1), id_(id), synthetic_(synthetic) {}

 private:
  template <typename Ring>
  friend class WriterRingSet;

  [[nodiscard]] std::uint64_t wall_tick() const noexcept {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - origin_)
            .count());
  }

  /// Calls emit(slot, seq, id) for every retained slot that was stable for
  /// the whole drain, oldest first, and adds this ring's totals to
  /// `recorded` / `dropped`.
  template <typename Emit>
  void drain(Emit& emit, std::uint64_t& recorded, std::uint64_t& dropped) const {
    // The release store of `head_` publishes every slot below it; slots older
    // than one capacity have been overwritten and count as dropped.
    const std::uint64_t head = head_.load(std::memory_order_acquire);
    const std::uint64_t retained = std::min<std::uint64_t>(head, capacity());
    const std::uint64_t first = head - retained;
    // Copy first, judge after: a live writer may lap the drain and rewrite
    // the oldest slots while they are read.
    std::vector<Slot> copy(static_cast<std::size_t>(retained));
    for (std::uint64_t seq = first; seq < head; ++seq) {
      detail::zip_fields(copy[static_cast<std::size_t>(seq - first)], slots_[seq & mask_],
                         [](auto& dst, auto& src) {
                           dst = std::atomic_ref(src).load(std::memory_order_relaxed);
                         });
    }
    // If any field load above saw a store made after some record()'s release
    // fence, this acquire fence makes that record()'s `started_` store
    // visible below.  Slot `seq` is only rewritten while the writer works on
    // event `seq + capacity`, so every slot `started` has not reached within
    // one capacity was stable for the whole copy; the rest may pair an old
    // seq with a newer lap's payload and count as dropped.  A writer that
    // lapped the whole window leaves nothing stable: clamp at `head`.
    std::atomic_thread_fence(std::memory_order_acquire);
    const std::uint64_t started = started_.load(std::memory_order_relaxed);
    const std::uint64_t stable_first =
        started > capacity() ? std::clamp(started - capacity(), first, head) : first;
    recorded += head;
    dropped += head - retained + (stable_first - first);
    for (std::uint64_t seq = stable_first; seq < head; ++seq) {
      emit(copy[static_cast<std::size_t>(seq - first)], seq, id_);
    }
  }

  /// Mutable: the drain reads fields through std::atomic_ref, which needs
  /// non-const lvalues.
  mutable std::vector<Slot> slots_;
  std::uint64_t mask_ = 0;
  std::atomic<std::uint64_t> head_{0};
  std::atomic<std::uint64_t> started_{0};  ///< slots whose write has begun
  std::uint32_t id_ = 0;
  bool synthetic_ = false;
  std::chrono::steady_clock::time_point origin_ = wall_origin();
};

/// Owns the rings of one tracer or journal.  `Ring` derives from
/// WriterRing<Slot> and befriends this class for its constructor.  The set
/// must outlive every thread still recording into its rings.
template <typename Ring>
class WriterRingSet {
 public:
  WriterRingSet(std::size_t buffer_events, TraceClock clock)
      : capacity_(detail::normalize_capacity(buffer_events)),
        clock_(clock),
        epoch_(detail::next_ring_set_epoch()) {}

  WriterRingSet(const WriterRingSet&) = delete;
  WriterRingSet& operator=(const WriterRingSet&) = delete;

  /// The ring for logical writer `id`, created on first use.  The caller
  /// guarantees a single concurrent writer per id (the pipeline uses
  /// 0 = ingest, 1..S = shard workers).  Handles stay valid for the set's
  /// lifetime.
  [[nodiscard]] Ring& ring(std::uint32_t id) {
    const std::lock_guard<std::mutex> lock(mutex_);
    return ring_locked(id);
  }

  /// The calling thread's own auto-registered ring (ids from
  /// kAutoWriterBase up, skipping ids claimed via ring()), cached
  /// thread-locally — for recording sites without a logical writer identity.
  [[nodiscard]] Ring& local_ring() {
    // Valid only while both the owner pointer and its epoch match, so a set
    // reallocated at the same address never inherits a stale ring.
    struct Cache {
      const WriterRingSet* owner = nullptr;
      std::uint64_t epoch = 0;
      Ring* ring = nullptr;
    };
    thread_local Cache cache;
    if (cache.owner == this && cache.epoch == epoch_) return *cache.ring;
    const std::lock_guard<std::mutex> lock(mutex_);
    std::uint32_t id = next_auto_id_++;
    while (find_locked(id) != nullptr) id = next_auto_id_++;
    Ring& r = ring_locked(id);
    cache = {this, epoch_, &r};
    return r;
  }

  [[nodiscard]] TraceClock clock() const noexcept { return clock_; }

  /// False in synthetic-clock mode (see WriterRing::wall_clock).
  [[nodiscard]] bool wall_clock() const noexcept { return clock_ == TraceClock::Wall; }

 protected:
  /// Drains every ring: emit(slot, seq, id) per stable retained slot, ring
  /// by ring.  Safe while writers are quiescent; a concurrently recording
  /// ring yields a consistent prefix of its stream.
  template <typename Emit>
  void drain(Emit emit, std::uint64_t& recorded, std::uint64_t& dropped) const {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& r : rings_) r->drain(emit, recorded, dropped);
  }

 private:
  [[nodiscard]] Ring* find_locked(std::uint32_t id) const {
    for (const auto& r : rings_) {
      if (r->id() == id) return r.get();
    }
    return nullptr;
  }

  [[nodiscard]] Ring& ring_locked(std::uint32_t id) {
    if (Ring* r = find_locked(id)) return *r;
    rings_.push_back(
        std::unique_ptr<Ring>(new Ring(id, capacity_, clock_ == TraceClock::Synthetic)));
    return *rings_.back();
  }

  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Ring>> rings_;
  std::size_t capacity_;
  TraceClock clock_;
  std::uint64_t epoch_;
  std::uint32_t next_auto_id_ = kAutoWriterBase;
};

}  // namespace worms::obs
