// Bounded lock-free single-producer single-consumer ring.
//
// The fleet pipeline's one shard transport (DESIGN.md §10): the ingest thread
// is the only producer and each shard worker the only consumer, so the
// general mutex/condvar BoundedMpscQueue pays for contention that cannot
// happen.  This ring is the classic two-counter SPSC design: the producer
// owns `head`, the consumer owns `tail`, each advances its own counter with
// a release store and reads the other's with an acquire load, and each
// caches the remote counter so the common case (ring neither full nor
// empty) touches no shared cache line at all.
//
// The API mirrors BoundedMpscQueue — push/try_push, pop/pop_wait_for
// returning optional, close()/drained() end-of-stream,
// size()/high_water()/capacity() gauges — which is what the fault-tolerance
// choreography (respawn after a worker death, quiesce gates, overload
// sampling) is written against.  Waiting
// is spin-then-sleep rather than condvar parking: queue operations are per
// batch, not per record, and the poll deadline doubles as the fault check
// interval exactly as the queue's timed wait did.
//
// Consumer handoff (a fault-killed worker replaced by a respawn) is safe:
// the dying worker publishes with a release store of its dead flag, the
// ingest thread observes it with an acquire load before submitting the
// replacement, so at most one consumer is ever live and the new one sees
// the old one's ring state.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "support/check.hpp"

namespace worms::fleet {

template <typename T>
class SpscRing {
 public:
  /// `capacity` is the maximum number of queued items (must be >= 1).  Slot
  /// storage rounds up to a power of two; the logical bound stays exact.
  explicit SpscRing(std::size_t capacity) : capacity_(capacity) {
    WORMS_EXPECTS(capacity >= 1);
    std::size_t slots = 1;
    while (slots < capacity) slots <<= 1;
    slots_.resize(slots);
    mask_ = slots - 1;
  }

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  /// Blocks (yielding) while the ring is full.  Pushing onto a closed ring
  /// is a precondition violation, as with BoundedMpscQueue.
  void push(T item) {
    while (!try_push(item)) std::this_thread::yield();
  }

  /// Non-blocking push: returns false — leaving `item` untouched — when the
  /// ring is full.  Producer-side only.
  [[nodiscard]] bool try_push(T& item) {
    WORMS_EXPECTS(!closed_.load(std::memory_order_relaxed));
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    if (head - cached_tail_ >= capacity_) {
      cached_tail_ = tail_.load(std::memory_order_acquire);
      if (head - cached_tail_ >= capacity_) return false;
    }
    slots_[head & mask_] = std::move(item);
    head_.store(head + 1, std::memory_order_release);
    const std::size_t depth = static_cast<std::size_t>(head + 1 - cached_tail_);
    if (depth > high_water_.load(std::memory_order_relaxed)) {
      high_water_.store(depth, std::memory_order_relaxed);
    }
    return true;
  }

  /// Blocks until an item is available or the ring is closed *and* drained;
  /// returns nullopt only in the latter case.  Consumer-side only.
  [[nodiscard]] std::optional<T> pop() {
    for (;;) {
      if (auto item = try_pop()) return item;
      if (closed_.load(std::memory_order_acquire)) {
        // One more look with a fresh head: the producer's last push
        // happens-before its close, so a post-close miss means drained.
        if (auto item = try_pop()) return item;
        return std::nullopt;
      }
      std::this_thread::yield();
    }
  }

  /// Like pop(), but gives up after `timeout`.  Returns nullopt on timeout
  /// as well as on closed-and-drained; disambiguate with drained().  Spins
  /// briefly, then sleeps in short slices until the deadline.
  template <class Rep, class Period>
  [[nodiscard]] std::optional<T> pop_wait_for(std::chrono::duration<Rep, Period> timeout) {
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    unsigned spins = 0;
    for (;;) {
      if (auto item = try_pop()) return item;
      if (closed_.load(std::memory_order_acquire)) {
        if (auto item = try_pop()) return item;
        return std::nullopt;
      }
      if (std::chrono::steady_clock::now() >= deadline) return std::nullopt;
      if (++spins < 64) {
        std::this_thread::yield();
      } else {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    }
  }

  /// True once the ring is closed and every item has been popped.
  [[nodiscard]] bool drained() const {
    return closed_.load(std::memory_order_acquire) &&
           tail_.load(std::memory_order_acquire) == head_.load(std::memory_order_acquire);
  }

  /// Current occupancy in items — the overload watermarks sample this.
  [[nodiscard]] std::size_t size() const {
    const std::uint64_t tail = tail_.load(std::memory_order_acquire);
    const std::uint64_t head = head_.load(std::memory_order_acquire);
    return static_cast<std::size_t>(head - tail);
  }

  /// Marks end-of-stream; idempotent.  The consumer drains what is left.
  void close() { closed_.store(true, std::memory_order_release); }

  /// Largest occupancy ever observed by the producer, in items.
  [[nodiscard]] std::size_t high_water() const {
    return high_water_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

 private:
  [[nodiscard]] std::optional<T> try_pop() {
    const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    if (tail == cached_head_) {
      cached_head_ = head_.load(std::memory_order_acquire);
      if (tail == cached_head_) return std::nullopt;
    }
    std::optional<T> item(std::move(slots_[tail & mask_]));
    tail_.store(tail + 1, std::memory_order_release);
    return item;
  }

  std::vector<T> slots_;
  std::size_t capacity_;
  std::size_t mask_;

  // Producer-owned line: head plus the producer's stale view of tail.
  alignas(64) std::atomic<std::uint64_t> head_{0};
  std::uint64_t cached_tail_ = 0;
  // Consumer-owned line: tail plus the consumer's stale view of head.
  alignas(64) std::atomic<std::uint64_t> tail_{0};
  std::uint64_t cached_head_ = 0;

  alignas(64) std::atomic<bool> closed_{false};
  std::atomic<std::size_t> high_water_{0};
};

}  // namespace worms::fleet
