// Open-addressing hash table mapping Ipv4Address → host id.
//
// This sits on the innermost loop of the scan-level simulator (hundreds of
// millions of lookups per experiment), so it is a purpose-built robin-hood
// table rather than std::unordered_map: flat storage, power-of-two capacity,
// bounded probe lengths, no per-node allocation.
#pragma once

#include <cstdint>
#include <vector>

#include "net/ipv4.hpp"
#include "support/check.hpp"

namespace worms::net {

class AddressTable {
 public:
  static constexpr std::uint32_t kNotFound = ~std::uint32_t{0};

  /// `expected_entries` sizes the table once; inserts beyond 60% load grow it
  /// (8× per step — rehash amortization dominates insert cost, see grow()).
  explicit AddressTable(std::size_t expected_entries = 16);

  /// Inserts addr → id.  Returns false (and leaves the table unchanged) if
  /// the address is already present.  `id` must not equal kNotFound.
  bool insert(Ipv4Address addr, std::uint32_t id);

  /// Host id for addr, or kNotFound.
  [[nodiscard]] std::uint32_t find(Ipv4Address addr) const noexcept;

  [[nodiscard]] bool contains(Ipv4Address addr) const noexcept {
    return find(addr) != kNotFound;
  }

  /// Issues a prefetch for the cache line holding addr's home slot — a
  /// caller that knows its next lookups hides their misses behind work.
  /// Always inlined, like fleet::HostTable::prefetch, so it is never
  /// deleted as a side-effect-free call.
  [[gnu::always_inline]] void prefetch(Ipv4Address addr) const noexcept {
#if defined(__GNUC__) || defined(__clang__)
    __builtin_prefetch(&slots_[index_of(addr.value())]);
#endif
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return slots_.size(); }

  /// Bytes of one open-addressing slot, from the real layout — footprint
  /// gauges derive from this instead of hardcoding a width that could drift.
  [[nodiscard]] static constexpr std::size_t slot_bytes() noexcept { return sizeof(Slot); }

  /// Bytes of slot storage currently allocated (capacity × slot size).
  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    return slots_.size() * sizeof(Slot);
  }

  /// Visits every stored (address, id) pair in slot order — the serialization
  /// hook for checkpointing per-host distinct-destination sets.  Slot order is
  /// deterministic for a given insertion history; consumers that need a
  /// canonical order must sort.
  /// Writes the 4-byte native image of every stored address, in for_each's
  /// slot order, to out[0, 4 * size()) — the checkpoint codec's bulk path.
  /// Branch-free over the slot array: each slot is copied, and the cursor
  /// advances only past occupied ones.
  void copy_addresses(char* out) const noexcept;

  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Slot& slot : slots_) {
      if (slot.id != kNotFound) fn(Ipv4Address(slot.addr), slot.id);
    }
  }

 private:
  struct Slot {
    std::uint32_t addr = 0;
    std::uint32_t id = kNotFound;  // kNotFound marks an empty slot
  };

  [[nodiscard]] std::size_t index_of(std::uint32_t addr) const noexcept {
    // Fibonacci hashing spreads sequential addresses well.
    const std::uint64_t h = static_cast<std::uint64_t>(addr) * 0x9e3779b97f4a7c15ULL;
    return static_cast<std::size_t>(h >> shift_) & (slots_.size() - 1);
  }

  [[nodiscard]] std::size_t probe_distance(std::size_t slot, std::uint32_t addr) const noexcept {
    return (slot + slots_.size() - index_of(addr)) & (slots_.size() - 1);
  }

  void grow();

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
  unsigned shift_ = 0;
};

}  // namespace worms::net
