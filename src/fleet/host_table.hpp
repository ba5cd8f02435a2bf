// Flat open-addressing host table for shard workers (DESIGN.md §10).
//
// Each shard maps `source_host -> HostState` on the per-record hot path.
// std::unordered_map resolves that with a hash, a bucket pointer chase, and
// a node dereference — three dependent loads to scattered heap nodes, which
// is exactly the access pattern a worm-speed stream cannot hide.  This table
// is a Fibonacci-hashed, linear-probed slot array of {key, entry index}
// pairs over a dense entry vector:
//
//   * a lookup is one multiply + shift and a short scan of one or two
//     adjacent 8-byte slots — a single cache line in the common case;
//   * `prefetch(key)` lets the worker issue the slot-line load several
//     records ahead of `process()`, hiding the miss behind useful work;
//   * iteration walks the dense entry vector in insertion order, which is
//     deterministic given the record stream — so snapshots and verdict
//     merges see a reproducible order (unordered_map promised nothing).
//
// The interface is the subset of unordered_map the pipeline uses
// (try_emplace / range-for over pair entries / size), so the swap is
// mechanical.  Entry references are invalidated by growth: use the returned
// pointer within one call, as the pipeline does.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace worms::fleet {

template <typename V>
class HostTable {
 public:
  using Entry = std::pair<std::uint32_t, V>;
  using iterator = typename std::vector<Entry>::iterator;
  using const_iterator = typename std::vector<Entry>::const_iterator;

  HostTable() { rebuild(kInitialSlots); }

  /// Returns {entry, inserted}; the entry pointer is valid until the next
  /// insertion.  A new entry's value is value-initialized.
  std::pair<Entry*, bool> try_emplace(std::uint32_t key) {
    std::size_t i = bucket(key);
    for (;;) {
      Slot& s = slots_[i];
      if (s.index == kEmpty) {
        // Grow at 1/2 load: slots are 8 bytes, so doubling them is cheap
        // insurance that probe chains stay within a cache line or two.
        if ((entries_.size() + 1) * 2 > slots_.size()) {
          rebuild(slots_.size() * 2);
          return try_emplace(key);
        }
        s.key = key;
        s.index = static_cast<std::uint32_t>(entries_.size());
        entries_.emplace_back(key, V());
        return {&entries_.back(), true};
      }
      if (s.key == key) return {&entries_[s.index], false};
      i = (i + 1) & mask_;
    }
  }

  /// Pointer to the value for `key`, or nullptr.  Valid until growth.
  [[nodiscard]] const V* find(std::uint32_t key) const noexcept {
    std::size_t i = bucket(key);
    for (;;) {
      const Slot& s = slots_[i];
      if (s.index == kEmpty) return nullptr;
      if (s.key == key) return &entries_[s.index].second;
      i = (i + 1) & mask_;
    }
  }

  /// Issues a prefetch for `key`'s slot cache line.  Call a handful of
  /// records ahead of the matching try_emplace to hide the table miss.
  /// Always inlined: a prefetch is no side effect to GCC's pure/const
  /// inference, so an out-of-line call to this can be deleted as dead.
  [[gnu::always_inline]] void prefetch(std::uint32_t key) const noexcept {
#if defined(__GNUC__) || defined(__clang__)
    __builtin_prefetch(&slots_[bucket(key)]);
#endif
  }

  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  [[nodiscard]] std::size_t capacity() const noexcept { return slots_.size(); }
  [[nodiscard]] bool empty() const noexcept { return entries_.empty(); }

  // Iteration in insertion order (deterministic for a given stream).
  [[nodiscard]] iterator begin() noexcept { return entries_.begin(); }
  [[nodiscard]] iterator end() noexcept { return entries_.end(); }
  [[nodiscard]] const_iterator begin() const noexcept { return entries_.begin(); }
  [[nodiscard]] const_iterator end() const noexcept { return entries_.end(); }

 private:
  struct Slot {
    std::uint32_t key = 0;
    std::uint32_t index = kEmpty;
  };

  static constexpr std::uint32_t kEmpty = 0xFFFFFFFFu;
  static constexpr std::size_t kInitialSlots = 16;

  [[nodiscard]] std::size_t bucket(std::uint32_t key) const noexcept {
    // Fibonacci hashing: the golden-ratio multiply diffuses sequential host
    // ids across the table; the top bits index it.
    return static_cast<std::size_t>(
        (static_cast<std::uint64_t>(key) * 0x9E3779B97F4A7C15ull) >> shift_);
  }

  void rebuild(std::size_t slot_count) {
    slots_.assign(slot_count, Slot{});
    mask_ = slot_count - 1;
    shift_ = 64;
    for (std::size_t n = slot_count; n > 1; n >>= 1) --shift_;
    for (std::uint32_t e = 0; e < entries_.size(); ++e) {
      std::size_t i = bucket(entries_[e].first);
      while (slots_[i].index != kEmpty) i = (i + 1) & mask_;
      slots_[i] = {entries_[e].first, e};
    }
  }

  std::vector<Slot> slots_;
  std::vector<Entry> entries_;
  std::size_t mask_ = 0;
  unsigned shift_ = 64;
};

}  // namespace worms::fleet
