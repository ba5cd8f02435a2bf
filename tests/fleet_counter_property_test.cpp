// Backend-equivalence property suite for the distinct-counter backends
// (DESIGN.md §13).  Randomized streams — fresh keys, heavy repeats, cycle
// resets, adversarial collision-heavy key patterns — are replayed through all
// three backends with the exact counter as ground truth:
//
//   * Exact matches a std::unordered_set reference bit for bit.
//   * HLL and compact stay inside their documented relative-error envelopes.
//   * For every backend, the sum of add() return values equals count() — the
//     invariant the scan-count policy relies on to charge budget correctly.
//   * Pipeline verdicts agree across backends × shard counts {1, 2, 4} within
//     the accuracy frontier: clear worms are removed by all backends, clearly
//     benign hosts by none, and each backend's verdicts are shard-count
//     invariant (the compact backend bit-identically, via bank colocation).
//   * The compact hot path's shortcuts are exact: the integer slice sum
//     matches a std::ldexp loop bit for bit, and a bank's memoized host
//     estimate matches a cold bank's.
//
// Every randomized case logs its seed so a failure reproduces directly.
#include "fleet/distinct_counter.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <random>
#include <span>
#include <unordered_set>
#include <vector>

#include "fleet/pipeline.hpp"
#include "fleet/shared_sketch_pool.hpp"
#include "net/address_table.hpp"
#include "sim/time.hpp"
#include "support/inverse_pow2.hpp"
#include "trace/record.hpp"
#include "trace/synth.hpp"

namespace worms::fleet {
namespace {

constexpr std::uint64_t kSeeds[] = {0x5EED00D1ull, 0x5EED00D2ull, 0x5EED00D3ull};

/// Key pools the adversarial generator draws from.  Each stresses a different
/// hashing assumption:
///   * uniform      — baseline random u32 keys;
///   * low-bits     — keys identical in their low 20 bits (only high bits
///                    vary), punishing any hash that leans on low bits;
///   * bank-aligned — multiples of kCompactBanks, so every key of every host
///                    is congruent mod the bank count;
///   * sequential   — a dense run, the classic weak-hash killer.
enum class KeyShape { Uniform, LowBitsShared, BankAligned, Sequential };

std::vector<std::uint32_t> make_keys(KeyShape shape, std::size_t n, std::mt19937_64& rng) {
  std::vector<std::uint32_t> keys;
  keys.reserve(n);
  const auto base = static_cast<std::uint32_t>(rng());
  for (std::size_t i = 0; i < n; ++i) {
    switch (shape) {
      case KeyShape::Uniform:
        keys.push_back(static_cast<std::uint32_t>(rng()));
        break;
      case KeyShape::LowBitsShared:
        keys.push_back((base & 0xFFFFFu) | (static_cast<std::uint32_t>(i) << 20));
        break;
      case KeyShape::BankAligned:
        keys.push_back(static_cast<std::uint32_t>(i) * kCompactBanks);
        break;
      case KeyShape::Sequential:
        keys.push_back(base + static_cast<std::uint32_t>(i));
        break;
    }
  }
  return keys;
}

constexpr KeyShape kAllShapes[] = {KeyShape::Uniform, KeyShape::LowBitsShared,
                                   KeyShape::BankAligned, KeyShape::Sequential};

const char* shape_name(KeyShape shape) {
  switch (shape) {
    case KeyShape::Uniform: return "uniform";
    case KeyShape::LowBitsShared: return "low-bits-shared";
    case KeyShape::BankAligned: return "bank-aligned";
    case KeyShape::Sequential: return "sequential";
  }
  return "?";
}

/// Replays a stream with repeats (each key observed 1 + Geometric(1/3) times,
/// shuffled) through `counter`, checking the add()-sum invariant along the
/// way.  Returns the exact distinct count of the stream.
std::uint64_t replay_with_repeats(DistinctCounter& counter,
                                  std::span<const std::uint32_t> keys,
                                  std::mt19937_64& rng) {
  std::vector<std::uint32_t> stream(keys.begin(), keys.end());
  std::geometric_distribution<int> extra(1.0 / 3.0);
  for (const std::uint32_t key : keys) {
    for (int r = extra(rng); r > 0; --r) stream.push_back(key);
  }
  std::shuffle(stream.begin(), stream.end(), rng);

  std::uint64_t sum = counter.count();  // resuming mid-life: prior tally stands
  for (const std::uint32_t key : stream) {
    sum += counter.add(key);
    if (sum != counter.count()) {  // abort on the first divergence, not 10^4 of them
      ADD_FAILURE() << "add() deltas must sum to count(): sum=" << sum
                    << " count=" << counter.count();
      break;
    }
  }
  return std::unordered_set<std::uint32_t>(keys.begin(), keys.end()).size();
}

TEST(CounterProperty, ExactMatchesGroundTruthUnderRandomStreams) {
  for (const std::uint64_t seed : kSeeds) {
    SCOPED_TRACE(::testing::Message() << "seed=0x" << std::hex << seed);
    std::mt19937_64 rng(seed);
    for (const KeyShape shape : kAllShapes) {
      SCOPED_TRACE(shape_name(shape));
      ExactCounter counter;
      std::unordered_set<std::uint32_t> reference;
      const auto keys = make_keys(shape, 4'000, rng);
      std::vector<std::uint32_t> stream(keys);
      stream.insert(stream.end(), keys.begin(), keys.begin() + keys.size() / 2);
      std::shuffle(stream.begin(), stream.end(), rng);
      for (const std::uint32_t key : stream) {
        const bool fresh = reference.insert(key).second;
        ASSERT_EQ(counter.add(key), fresh ? 1u : 0u);
        ASSERT_EQ(counter.count(), reference.size());
      }
      counter.reset();
      reference.clear();
      EXPECT_EQ(counter.count(), 0u);
      // Post-reset the counter is indistinguishable from a fresh one.
      for (const std::uint32_t key : make_keys(KeyShape::Uniform, 500, rng)) {
        ASSERT_EQ(counter.add(key), reference.insert(key).second ? 1u : 0u);
      }
      EXPECT_EQ(counter.count(), reference.size());
    }
  }
}

TEST(CounterProperty, HllStaysInsideItsErrorEnvelope) {
  // Default precision 12 → ~1.6% standard relative error; the ratchet only
  // rounds the estimate, it cannot add bias.  6σ plus integer slack.
  for (const std::uint64_t seed : kSeeds) {
    SCOPED_TRACE(::testing::Message() << "seed=0x" << std::hex << seed);
    std::mt19937_64 rng(seed);
    for (const KeyShape shape : kAllShapes) {
      SCOPED_TRACE(shape_name(shape));
      const auto counter = make_distinct_counter(CounterBackend::Hll, 12);
      const auto keys = make_keys(shape, 30'000, rng);
      const std::uint64_t exact = replay_with_repeats(*counter, keys, rng);
      const double error =
          std::abs(static_cast<double>(counter->count()) - static_cast<double>(exact));
      EXPECT_LE(error, 0.10 * static_cast<double>(exact) + 32.0)
          << "count=" << counter->count() << " exact=" << exact;
    }
  }
}

TEST(CounterProperty, CompactStaysInsideItsErrorEnvelope) {
  // A populated bank: 32 hosts share one bank's registers, each with its own
  // load, so every host's slice carries real cross-host noise for the
  // estimator to cancel.  DESIGN.md §13 documents the envelope: with s slice
  // registers the noise-cancelled estimate has σ ≈ 1.04/√s relative to the
  // slice load n + (s/m)·n_others; the ratchet keeps the worst single
  // excursion.  Assert a 6σ-with-slack version of that bound per host.
  for (const std::uint64_t seed : kSeeds) {
    SCOPED_TRACE(::testing::Message() << "seed=0x" << std::hex << seed);
    std::mt19937_64 rng(seed);
    CompactPoolConfig config;
    config.bits_per_host = 16;
    config.virtual_registers = 128;
    config.expected_hosts = 1u << 20;  // 2048 registers/bank → s/m = 1/16
    SharedSketchPool pool(config);
    const double m = config.registers_per_bank();
    const double s = config.virtual_registers;

    constexpr std::uint32_t kHosts = 32;
    SketchBank& bank = pool.bank_for(compact_bank_of(7));
    std::vector<std::unique_ptr<CompactCounter>> counters;
    std::vector<std::uint64_t> exact(kHosts, 0);
    std::uint64_t total = 0;
    for (std::uint32_t h = 0; h < kHosts; ++h) {
      counters.push_back(std::make_unique<CompactCounter>(bank, 7 + h * kCompactBanks));
    }
    // Loads spread over two orders of magnitude, interleaved so slices fill
    // concurrently (the worst case for cross-host noise).
    std::vector<std::vector<std::uint32_t>> streams;
    for (std::uint32_t h = 0; h < kHosts; ++h) {
      const std::size_t n = 100u << (h % 6);  // 100 … 3200 distinct
      streams.push_back(make_keys(h % 2 ? KeyShape::Uniform : KeyShape::Sequential, n, rng));
    }
    bool progressed = true;
    for (std::size_t i = 0; progressed; ++i) {
      progressed = false;
      for (std::uint32_t h = 0; h < kHosts; ++h) {
        if (i >= streams[h].size()) continue;
        progressed = true;
        const std::uint64_t before = counters[h]->count();
        const std::uint64_t delta = counters[h]->add(streams[h][i]);
        ASSERT_EQ(counters[h]->count(), before + delta);
        ++exact[h];  // make_keys streams here are duplicate-free
        ++total;
      }
    }
    for (std::uint32_t h = 0; h < kHosts; ++h) {
      const double n = static_cast<double>(exact[h]);
      const double noise_load = n + (s / m) * static_cast<double>(total - exact[h]);
      const double sigma = (1.04 / std::sqrt(s)) * noise_load;
      const double bound = 6.0 * sigma + 48.0;
      const double error =
          std::abs(static_cast<double>(counters[h]->count()) - n);
      EXPECT_LE(error, bound) << "host " << h << ": count=" << counters[h]->count()
                              << " exact=" << exact[h] << " bound=" << bound;
    }
  }
}

TEST(CounterProperty, AddDeltasSumToCountAcrossResetsForEveryBackend) {
  // The policy-facing contract: between resets, count() is exactly the sum
  // of the add() returns — no backend may move its tally out of band.
  for (const std::uint64_t seed : kSeeds) {
    SCOPED_TRACE(::testing::Message() << "seed=0x" << std::hex << seed);
    std::mt19937_64 rng(seed);
    CompactPoolConfig config;
    SharedSketchPool pool(config);
    std::vector<std::unique_ptr<DistinctCounter>> counters;
    counters.push_back(make_distinct_counter(CounterBackend::Exact, 12));
    counters.push_back(make_distinct_counter(CounterBackend::Hll, 12));
    counters.push_back(
        std::make_unique<CompactCounter>(pool.bank_for(compact_bank_of(42)), 42));
    for (auto& counter : counters) {
      SCOPED_TRACE(to_string(counter->backend()));
      for (int cycle = 0; cycle < 3; ++cycle) {
        const std::uint64_t epoch_before =
            counter->backend() == CounterBackend::Compact
                ? static_cast<CompactCounter&>(*counter).epoch()
                : 0;
        counter->reset();
        ASSERT_EQ(counter->count(), 0u) << "reset must zero the tally";
        if (counter->backend() == CounterBackend::Compact) {
          // A reset rehomes the slice instead of erasing shared registers.
          EXPECT_EQ(static_cast<CompactCounter&>(*counter).epoch(), epoch_before + 1);
        }
        const auto keys =
            make_keys(kAllShapes[static_cast<std::size_t>(cycle) % 4], 2'000, rng);
        (void)replay_with_repeats(*counter, keys, rng);
      }
    }
  }
}

TEST(CounterProperty, CompactResetIsolatesEpochsAndNeighbors) {
  // After a cycle reset the old slice's registers stay behind as bank noise;
  // the fresh epoch must still track a fresh stream (not inherit the old
  // tally), and a quiet neighbor sharing the bank must stay near zero.
  for (const std::uint64_t seed : kSeeds) {
    SCOPED_TRACE(::testing::Message() << "seed=0x" << std::hex << seed);
    std::mt19937_64 rng(seed);
    CompactPoolConfig config;
    config.bits_per_host = 16;
    config.expected_hosts = 1u << 20;
    SharedSketchPool pool(config);
    SketchBank& bank = pool.bank_for(compact_bank_of(3));
    CompactCounter loud(bank, 3);
    CompactCounter quiet(bank, 3 + kCompactBanks);
    for (const std::uint32_t key : make_keys(KeyShape::Uniform, 3'000, rng)) {
      (void)loud.add(key);
    }
    loud.reset();
    ASSERT_EQ(loud.count(), 0u);
    for (const std::uint32_t key : make_keys(KeyShape::Uniform, 500, rng)) {
      (void)loud.add(key);
    }
    // 500 fresh distinct against 3000 units of abandoned-epoch noise.
    EXPECT_GT(loud.count(), 100u);
    EXPECT_LT(loud.count(), 1'500u);
    // The quiet host observed nothing; noise cancellation must keep its
    // ratchet from drifting anywhere near a containment-relevant tally.
    (void)quiet.add(0xDEADBEEFu);
    EXPECT_LT(quiet.count(), 200u) << "cross-host noise leaked into a quiet slice";
  }
}

TEST(CounterProperty, ExactMemoryGaugeTracksRealAllocation) {
  // Regression: the footprint gauge used to hardcode a slot width; it must
  // derive from the table's real layout and follow growth exactly.
  ExactCounter counter;
  EXPECT_EQ(counter.memory_bytes(),
            sizeof(ExactCounter) + counter.table().memory_bytes());
  EXPECT_EQ(counter.table().memory_bytes(),
            counter.table().capacity() * net::AddressTable::slot_bytes());
  const std::size_t fresh = counter.memory_bytes();
  for (std::uint32_t d = 0; d < 10'000; ++d) (void)counter.add(0x0A000000u + d);
  EXPECT_EQ(counter.memory_bytes(),
            sizeof(ExactCounter) + counter.table().memory_bytes());
  EXPECT_EQ(counter.table().memory_bytes(),
            counter.table().capacity() * net::AddressTable::slot_bytes());
  EXPECT_GT(counter.memory_bytes(), fresh) << "10k inserts must have grown the table";
  counter.reset();
  EXPECT_EQ(counter.memory_bytes(), fresh) << "reset must release slot storage";
}

TEST(CounterProperty, CompactMemoryIsAmortizedAcrossAttachedHosts) {
  CompactPoolConfig config;
  SharedSketchPool pool(config);
  SketchBank& bank = pool.bank_for(0);
  CompactCounter first(bank, 0);
  const std::size_t solo = first.memory_bytes();
  CompactCounter second(bank, kCompactBanks);
  EXPECT_EQ(first.memory_bytes(), second.memory_bytes());
  EXPECT_LT(first.memory_bytes(), solo) << "a second host must share the bank's bytes";
  EXPECT_EQ(first.memory_bytes() - sizeof(CompactCounter), bank.memory_bytes() / 2);
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

TEST(CounterProperty, InversePow2TableMatchesLdexp) {
  for (int r = 0; r < static_cast<int>(support::kInversePow2.size()); ++r) {
    EXPECT_TRUE(same_bits(support::kInversePow2[r], std::ldexp(1.0, -r))) << "r=" << r;
  }
}

/// The slice sum as it was first written: 2^-r accumulated one register at a
/// time in slice order, each term from std::ldexp.
double sequential_ldexp_slice_sum(const SketchBank& bank, std::uint64_t slice_seed,
                                  std::uint32_t width) {
  double sum = 0.0;
  for (std::uint32_t j = 0; j < width; ++j) {
    const std::uint8_t reg = bank.registers()[bank.slice_register(slice_seed, j)];
    sum += std::ldexp(1.0, -static_cast<int>(reg));
  }
  return sum;
}

TEST(CounterProperty, CompactSliceSumIsExact) {
  // Register files: uniform ranks over [0, 33] (both extremes common), the
  // geometric ranks real traffic leaves, all zero (the largest sum, 2^45
  // units at s = 4096) and all 33 (the smallest terms); every random file
  // also gets one slice zeroed out.
  enum class Fill { Uniform, Geometric, AllZero, AllMax };
  for (const std::uint32_t width : {8u, 128u, 4096u}) {
    CompactPoolConfig config;
    config.bits_per_host = 64;  // 8192-register banks: room for m >= 2·4096
    config.virtual_registers = width;
    for (const std::uint64_t seed : kSeeds) {
      for (const Fill fill : {Fill::Uniform, Fill::Geometric, Fill::AllZero, Fill::AllMax}) {
        SCOPED_TRACE(::testing::Message() << "s=" << width << " fill=" << static_cast<int>(fill)
                                          << " seed=0x" << std::hex << seed);
        std::mt19937_64 rng(seed);
        SketchBank bank(0, config);
        std::vector<std::uint8_t> registers(bank.register_count());
        std::geometric_distribution<int> geometric(0.5);
        for (std::uint8_t& reg : registers) {
          switch (fill) {
            case Fill::Uniform: reg = static_cast<std::uint8_t>(rng() % 34); break;
            case Fill::Geometric: reg = static_cast<std::uint8_t>(std::min(geometric(rng), 33)); break;
            case Fill::AllZero: reg = 0; break;
            case Fill::AllMax: reg = 33; break;
          }
        }
        const std::uint64_t zeroed_slice = rng();
        if (fill != Fill::AllMax) {
          for (std::uint32_t j = 0; j < width; ++j) {
            registers[bank.slice_register(zeroed_slice, j)] = 0;
          }
        }
        double inverse_sum = 0.0;
        for (const std::uint8_t reg : registers) inverse_sum += std::ldexp(1.0, -reg);
        const auto zeros = static_cast<std::uint64_t>(
            std::count(registers.begin(), registers.end(), std::uint8_t{0}));
        bank.restore(registers, inverse_sum, zeros);

        for (int k = 0; k < 64; ++k) {
          const std::uint64_t slice = k == 0 ? zeroed_slice : rng();
          const SketchBank::SliceSum got = bank.slice_sum(slice);
          const double want = sequential_ldexp_slice_sum(bank, slice, width);
          ASSERT_TRUE(same_bits(got.inverse_sum, want))
              << "slice " << k << ": integer sum " << got.inverse_sum << " vs ldexp " << want;
          std::uint32_t want_zeros = 0;
          for (std::uint32_t j = 0; j < width; ++j) {
            want_zeros += registers[bank.slice_register(slice, j)] == 0 ? 1u : 0u;
          }
          ASSERT_EQ(got.zero_registers, want_zeros) << "slice " << k;
        }
      }
    }
  }
}

TEST(CounterProperty, CompactMemoMatchesColdBank) {
  // SketchBank memoizes its last host estimate on (slice seed, bank version).
  // After every add, each host's estimate on the live bank must match, bit
  // for bit, a bank restored from the same registers — whose memo is cold, so
  // it recomputes everything.  Runs of adds by one host over a small key pool
  // make register-neutral adds (the memo-hit case) common; resets move hosts
  // onto fresh slices mid-run.  A second bank, restored in place every step,
  // checks that restore() drops a warm memo.
  constexpr std::uint32_t kBank = 5;
  constexpr std::uint32_t kHosts = 24;
  for (const std::uint64_t seed : kSeeds) {
    SCOPED_TRACE(::testing::Message() << "seed=0x" << std::hex << seed);
    std::mt19937_64 rng(seed);
    const CompactPoolConfig config;
    SharedSketchPool pool(config);
    SketchBank& bank = pool.bank_for(kBank);
    std::vector<std::unique_ptr<CompactCounter>> counters;
    for (std::uint32_t k = 0; k < kHosts; ++k) {
      counters.push_back(std::make_unique<CompactCounter>(bank, kBank + k * kCompactBanks));
    }
    const auto slice_of = [&](std::uint32_t k) {
      return compact_slice_seed(kBank + k * kCompactBanks, counters[k]->epoch());
    };

    SketchBank reused(kBank, config);
    std::uint32_t host = 0;
    for (int step = 0; step < 3'000; ++step) {
      if (rng() % 3 == 0) host = static_cast<std::uint32_t>(rng() % kHosts);
      if (rng() % 200 == 0) {
        counters[host]->reset();
      } else {
        (void)counters[host]->add(host * 7'919u + static_cast<std::uint32_t>(rng() % 64));
      }
      SketchBank cold(kBank, config);
      cold.restore(bank.registers(), bank.inverse_sum(), bank.zero_registers());
      reused.restore(bank.registers(), bank.inverse_sum(), bank.zero_registers());

      // First the acting host: this read returns whatever add() or reset()
      // just used, memo or not.  Then everyone else, then the acting host
      // again, so the memo is left on it for its next add.
      const double acted = bank.host_estimate(slice_of(host));
      ASSERT_TRUE(same_bits(acted, cold.host_estimate(slice_of(host))))
          << "step " << step << " host " << host << ": memoized estimate is stale";
      ASSERT_TRUE(same_bits(reused.host_estimate(slice_of(host)), acted))
          << "step " << step << " host " << host << ": restore() kept a stale memo";
      for (std::uint32_t k = 0; k < kHosts; ++k) {
        if (k == host) continue;
        ASSERT_TRUE(same_bits(bank.host_estimate(slice_of(k)), cold.host_estimate(slice_of(k))))
            << "step " << step << " host " << k;
      }
      ASSERT_TRUE(same_bits(bank.host_estimate(slice_of(host)), acted)) << "step " << step;
    }
  }
}

// ---------------------------------------------------------------------------
// Pipeline-level agreement: backends × shard counts on one stream.

/// A benign synthetic population plus one unmistakable worm: host 0 scans
/// `scan_targets` distinct addresses late in the trace, far past any budget.
std::vector<trace::ConnRecord> population_with_worm(std::uint32_t scan_targets) {
  trace::LblSynthConfig cfg;
  cfg.hosts = 300;
  cfg.duration = 6.0 * sim::kDay;
  auto records = trace::synthesize_lbl_trace(cfg).records;
  const double t0 = 4.0 * sim::kDay;
  for (std::uint32_t i = 0; i < scan_targets; ++i) {
    trace::ConnRecord r;
    r.timestamp = t0 + i * 0.25;
    r.source_host = 0;
    r.destination = net::Ipv4Address(0xC0000000u + i * 977u);
    r.outcome = trace::kOutcomeFailure;  // worm scans mostly hit dead space
    records.push_back(r);
  }
  std::sort(records.begin(), records.end(), trace::stream_order);
  return records;
}

PipelineOptions agreement_config(CounterBackend backend, unsigned shards) {
  PipelineOptions cfg;
  cfg.policy.scan_limit = 600;
  cfg.policy.cycle_length = 3.0 * sim::kDay;
  cfg.policy.check_fraction = 0.5;
  cfg.backend = backend;
  cfg.shards = shards;
  return cfg;
}

TEST(FleetCounterProperty, VerdictsAgreeAcrossBackendsAndShardCounts) {
  const auto records = population_with_worm(4'000);
  constexpr unsigned kShardCounts[] = {1, 2, 4};

  for (const CounterBackend backend :
       {CounterBackend::Exact, CounterBackend::Hll, CounterBackend::Compact}) {
    SCOPED_TRACE(to_string(backend));
    const auto baseline =
        ContainmentPipeline::run(agreement_config(backend, 1), records);
    // Shard-count invariance: every backend's verdicts are a pure function
    // of the stream.  For compact this is the bank-colocation guarantee —
    // the shared registers themselves are shard-layout independent, so the
    // equality is bit-for-bit on the full verdict struct (estimates, times,
    // failure tallies and all).
    for (const unsigned shards : kShardCounts) {
      const auto result =
          ContainmentPipeline::run(agreement_config(backend, shards), records);
      ASSERT_EQ(result.verdicts, baseline.verdicts) << "shards=" << shards;
    }
    // Accuracy frontier, worm side: 4000 distinct scans against M=600 is
    // >6× over budget — beyond any backend's error envelope.
    const HostVerdict* worm = baseline.verdicts.find(0);
    ASSERT_NE(worm, nullptr);
    EXPECT_TRUE(worm->flagged) << "worm must be flagged at f*M";
    EXPECT_TRUE(worm->removed) << "worm must be removed at M";
    // Accuracy frontier, benign side: hosts the exact backend saw far below
    // the flag threshold must stay unflagged under the approximate backends.
    const auto exact =
        ContainmentPipeline::run(agreement_config(CounterBackend::Exact, 1), records);
    std::size_t deep_benign = 0;
    for (const HostVerdict& v : exact.verdicts.hosts) {
      if (v.host == 0 || v.peak_distinct >= 100) continue;  // < (f*M)/3
      ++deep_benign;
      const HostVerdict* mine = baseline.verdicts.find(v.host);
      ASSERT_NE(mine, nullptr);
      EXPECT_FALSE(mine->flagged)
          << "host " << v.host << " (exact peak " << v.peak_distinct
          << ") false-flagged by " << to_string(backend);
    }
    EXPECT_GT(deep_benign, 200u) << "population should be mostly deep-benign";
  }
}

TEST(FleetCounterProperty, FailureBudgetRemovesTheWormOnEveryBackend) {
  // The failure-counting policy is backend-independent: with a failure
  // budget well under the worm's failed-scan volume but above the benign
  // noise floor, the worm is removed on every backend even if the distinct
  // budget never trips (scan_limit raised out of reach).
  const auto records = population_with_worm(4'000);
  for (const CounterBackend backend :
       {CounterBackend::Exact, CounterBackend::Hll, CounterBackend::Compact}) {
    SCOPED_TRACE(to_string(backend));
    auto cfg = agreement_config(backend, 2);
    cfg.policy.scan_limit = 1'000'000;
    cfg.failure_budget = 500;
    const auto result = ContainmentPipeline::run(cfg, records);
    const HostVerdict* worm = result.verdicts.find(0);
    ASSERT_NE(worm, nullptr);
    EXPECT_TRUE(worm->removed);
    EXPECT_TRUE(worm->removed_by_failures);
    EXPECT_GE(worm->peak_failures, 500u);
    EXPECT_EQ(result.verdicts.hosts_removed_by_failures, 1u)
        << "benign 2% failure noise must stay under the budget";
  }
}

}  // namespace
}  // namespace worms::fleet
