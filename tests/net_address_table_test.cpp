#include "net/address_table.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <unordered_map>
#include <vector>

#include "support/check.hpp"
#include "support/rng.hpp"

namespace worms::net {
namespace {

TEST(AddressTable, InsertAndFind) {
  AddressTable t;
  EXPECT_TRUE(t.insert(Ipv4Address(100), 0));
  EXPECT_TRUE(t.insert(Ipv4Address(200), 1));
  EXPECT_EQ(t.find(Ipv4Address(100)), 0u);
  EXPECT_EQ(t.find(Ipv4Address(200)), 1u);
  EXPECT_EQ(t.find(Ipv4Address(300)), AddressTable::kNotFound);
  EXPECT_EQ(t.size(), 2u);
}

TEST(AddressTable, DuplicateInsertRejected) {
  AddressTable t;
  EXPECT_TRUE(t.insert(Ipv4Address(5), 0));
  EXPECT_FALSE(t.insert(Ipv4Address(5), 1));
  EXPECT_EQ(t.find(Ipv4Address(5)), 0u) << "original mapping must survive";
  EXPECT_EQ(t.size(), 1u);
}

TEST(AddressTable, ZeroAddressIsValidKey) {
  AddressTable t;
  EXPECT_TRUE(t.insert(Ipv4Address(0), 7));
  EXPECT_EQ(t.find(Ipv4Address(0)), 7u);
}

TEST(AddressTable, MaxAddressIsValidKey) {
  AddressTable t;
  EXPECT_TRUE(t.insert(Ipv4Address(0xFFFFFFFFu), 9));
  EXPECT_EQ(t.find(Ipv4Address(0xFFFFFFFFu)), 9u);
}

TEST(AddressTable, ReservedIdRejected) {
  AddressTable t;
  EXPECT_THROW((void)t.insert(Ipv4Address(1), AddressTable::kNotFound),
               support::PreconditionError);
}

TEST(AddressTable, GrowsBeyondInitialCapacity) {
  AddressTable t(4);
  const std::size_t initial_cap = t.capacity();
  for (std::uint32_t i = 0; i < 10'000; ++i) {
    ASSERT_TRUE(t.insert(Ipv4Address(i * 2654435761u), i));
  }
  EXPECT_GT(t.capacity(), initial_cap);
  for (std::uint32_t i = 0; i < 10'000; ++i) {
    ASSERT_EQ(t.find(Ipv4Address(i * 2654435761u)), i);
  }
}

TEST(AddressTable, RandomizedAgainstReferenceMap) {
  AddressTable t(1000);
  std::unordered_map<std::uint32_t, std::uint32_t> ref;
  support::Rng rng(7);
  for (std::uint32_t i = 0; i < 50'000; ++i) {
    const std::uint32_t addr = rng.u32() & 0xFFFFF;  // force collisions
    const bool inserted = t.insert(Ipv4Address(addr), i);
    const bool ref_inserted = ref.emplace(addr, i).second;
    ASSERT_EQ(inserted, ref_inserted) << "addr=" << addr;
  }
  ASSERT_EQ(t.size(), ref.size());
  for (const auto& [addr, id] : ref) {
    ASSERT_EQ(t.find(Ipv4Address(addr)), id);
  }
  // Probe misses around the keys.
  for (std::uint32_t probe = 0; probe < 10'000; ++probe) {
    const std::uint32_t addr = rng.u32() | 0x40000000u;  // outside insert range
    ASSERT_EQ(t.find(Ipv4Address(addr)), AddressTable::kNotFound);
  }
}

TEST(AddressTable, DenseSequentialKeys) {
  // Sequential addresses are the worst case for weak hash mixers.
  AddressTable t(100'000);
  for (std::uint32_t i = 0; i < 100'000; ++i) {
    ASSERT_TRUE(t.insert(Ipv4Address(i), i));
  }
  for (std::uint32_t i = 0; i < 100'000; ++i) {
    ASSERT_EQ(t.find(Ipv4Address(i)), i);
  }
  EXPECT_EQ(t.find(Ipv4Address(100'000)), AddressTable::kNotFound);
}

TEST(AddressTable, CopyAddressesMatchesForEachOrder) {
  // The checkpoint codec's bulk copy must write exactly the addresses
  // for_each visits, in the same order, and nothing past 4 * size() bytes —
  // across the sparse and dense loads the 8x growth steps produce.
  for (const std::uint32_t n : {0u, 1u, 9u, 10u, 77u, 5'000u}) {
    AddressTable t;
    for (std::uint32_t i = 0; i < n; ++i) ASSERT_TRUE(t.insert(Ipv4Address(i * 2654435761u), 0));
    std::vector<std::uint32_t> visited;
    t.for_each([&](Ipv4Address addr, std::uint32_t) { visited.push_back(addr.value()); });
    std::vector<char> bytes(4 * n + 4, '\x5A');
    t.copy_addresses(bytes.data());
    std::vector<std::uint32_t> copied(n);
    for (std::uint32_t i = 0; i < n; ++i) std::memcpy(&copied[i], bytes.data() + 4 * i, 4);
    EXPECT_EQ(copied, visited) << "n=" << n;
    EXPECT_EQ(std::string(bytes.end() - 4, bytes.end()), std::string(4, '\x5A')) << "n=" << n;
  }
}

}  // namespace
}  // namespace worms::net
