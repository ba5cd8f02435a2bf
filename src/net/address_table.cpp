#include "net/address_table.hpp"

#include <bit>
#include <cstring>
#include <utility>

namespace worms::net {
namespace {

std::size_t table_capacity_for(std::size_t expected) {
  // Target load factor <= 0.5 at the expected size, minimum 16 slots.
  const std::size_t want = expected < 8 ? 16 : expected * 2;
  return std::bit_ceil(want);
}

}  // namespace

AddressTable::AddressTable(std::size_t expected_entries) {
  const std::size_t cap = table_capacity_for(expected_entries);
  slots_.assign(cap, Slot{});
  shift_ = 64 - static_cast<unsigned>(std::countr_zero(cap));
}

void AddressTable::copy_addresses(char* out) const noexcept {
  // The loop stops at the size()-th occupied slot, so every copy lands
  // inside out[0, 4 * size()).
  std::size_t written = 0;
  for (std::size_t i = 0; written < size_; ++i) {
    std::memcpy(out + 4 * written, &slots_[i].addr, 4);
    written += slots_[i].id != kNotFound ? 1 : 0;
  }
}

bool AddressTable::insert(Ipv4Address address, std::uint32_t id) {
  WORMS_EXPECTS(id != kNotFound);
  if (size_ + 1 > slots_.size() * 60 / 100) grow();

  std::uint32_t addr = address.value();
  std::size_t slot = index_of(addr);
  std::size_t dist = 0;
  while (true) {
    Slot& s = slots_[slot];
    if (s.id == kNotFound) {
      s.addr = addr;
      s.id = id;
      ++size_;
      return true;
    }
    if (s.addr == addr) return false;  // duplicate key
    // Robin hood: steal the slot from a "richer" (closer-to-home) entry.
    const std::size_t existing_dist = probe_distance(slot, s.addr);
    if (existing_dist < dist) {
      std::swap(s.addr, addr);
      std::swap(s.id, id);
      dist = existing_dist;
    }
    slot = (slot + 1) & (slots_.size() - 1);
    ++dist;
  }
}

std::uint32_t AddressTable::find(Ipv4Address address) const noexcept {
  const std::uint32_t addr = address.value();
  std::size_t slot = index_of(addr);
  std::size_t dist = 0;
  while (true) {
    const Slot& s = slots_[slot];
    if (s.id == kNotFound) return kNotFound;
    if (s.addr == addr) return s.id;
    // Robin-hood invariant: once we'd have displaced this entry, the key
    // cannot be further down the probe chain.
    if (probe_distance(slot, s.addr) < dist) return kNotFound;
    slot = (slot + 1) & (slots_.size() - 1);
    ++dist;
  }
}

void AddressTable::grow() {
  std::vector<Slot> old = std::move(slots_);
  // Growing 8× (not 2×) cuts the total rehash work per inserted key to a
  // fraction: rehashing — not probing — dominates insert cost for tables
  // that grow from the 16-slot default, and those sit on the fleet
  // pipeline's per-record path (one ExactCounter per host).  Paired with
  // the 60% growth trigger this keeps robin-hood displacement chains short
  // through a table's whole life at a bounded-slack memory cost.
  const std::size_t cap = old.size() * 8;
  slots_.assign(cap, Slot{});
  shift_ = 64 - static_cast<unsigned>(std::countr_zero(cap));
  size_ = 0;
  for (const Slot& s : old) {
    if (s.id != kNotFound) insert(Ipv4Address(s.addr), s.id);
  }
}

}  // namespace worms::net
