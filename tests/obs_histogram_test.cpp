// Property tests for the obs metric primitives (DESIGN.md §8): the histogram
// bucket map, the merge algebra (associative, commutative, count/sum
// preserving under arbitrary shard splits), and the documented quantile
// error bound.  These lock down the invariants the golden-file tests and the
// fleet instrumentation rely on.
#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>
#include <vector>

#include "obs/registry.hpp"
#include "support/check.hpp"

namespace worms::obs {
namespace {

// Recording no-ops in a WORMS_OBS=OFF build, so value-sensitive properties
// cannot hold there; those tests skip themselves.
#define WORMS_REQUIRE_OBS() \
  if (!kEnabled) GTEST_SKIP() << "built with WORMS_OBS=OFF"

[[nodiscard]] HistogramSnapshot snapshot_of(const std::vector<double>& values,
                                            const HistogramSpec& spec = {}) {
  Histogram h(spec);
  for (std::size_t i = 0; i < values.size(); ++i) h.record(values[i], i);
  return h.snapshot("h");
}

TEST(ObsHistogram, BucketIndexRespectsInclusiveUpperBounds) {
  const Histogram h(HistogramSpec{.first_bound = 1.0, .bounds = 8});
  // Bucket i covers (bound[i-1], bound[i]] with bound[i] = 2^i.
  EXPECT_EQ(h.bucket_index(0.0), 0u);
  EXPECT_EQ(h.bucket_index(-3.0), 0u);
  EXPECT_EQ(h.bucket_index(1.0), 0u);
  EXPECT_EQ(h.bucket_index(1.0001), 1u);
  EXPECT_EQ(h.bucket_index(2.0), 1u);
  EXPECT_EQ(h.bucket_index(2.0001), 2u);
  EXPECT_EQ(h.bucket_index(128.0), 7u);
  EXPECT_EQ(h.bucket_index(128.0001), 8u);  // overflow bucket
  EXPECT_EQ(h.bucket_index(std::numeric_limits<double>::infinity()), 8u);
}

TEST(ObsHistogram, BucketIndexIsMonotoneAndConsistentWithBounds) {
  const Histogram h{HistogramSpec{}};
  const auto snap = h.snapshot("h");
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> mag(-8.0, 4.0);
  std::size_t prev = 0;
  double prev_v = 0.0;
  std::vector<double> values;
  for (int i = 0; i < 2000; ++i) values.push_back(std::pow(10.0, mag(rng)));
  std::sort(values.begin(), values.end());
  for (const double v : values) {
    const std::size_t b = h.bucket_index(v);
    ASSERT_GE(b, prev) << "bucket index regressed between " << prev_v << " and " << v;
    if (b < snap.bounds.size()) {
      EXPECT_LE(v, snap.bounds[b]);
      if (b > 0) {
        EXPECT_GT(v, snap.bounds[b - 1]);
      }
    } else {
      EXPECT_GT(v, snap.bounds.back());
    }
    prev = b;
    prev_v = v;
  }
}

TEST(ObsHistogram, MergeIsCommutative) {
  WORMS_REQUIRE_OBS();
  std::mt19937_64 rng(11);
  std::uniform_int_distribution<int> val(0, 1 << 20);
  std::vector<double> a_vals, b_vals;
  for (int i = 0; i < 500; ++i) a_vals.push_back(static_cast<double>(val(rng)));
  for (int i = 0; i < 300; ++i) b_vals.push_back(static_cast<double>(val(rng)));

  auto ab = snapshot_of(a_vals);
  ab.merge(snapshot_of(b_vals));
  auto ba = snapshot_of(b_vals);
  ba.merge(snapshot_of(a_vals));
  EXPECT_EQ(ab, ba);
}

TEST(ObsHistogram, MergeIsAssociative) {
  WORMS_REQUIRE_OBS();
  std::mt19937_64 rng(13);
  std::uniform_int_distribution<int> val(0, 1 << 16);
  std::vector<std::vector<double>> parts(3);
  for (auto& part : parts) {
    for (int i = 0; i < 200; ++i) part.push_back(static_cast<double>(val(rng)));
  }

  // (a + b) + c
  auto left = snapshot_of(parts[0]);
  left.merge(snapshot_of(parts[1]));
  left.merge(snapshot_of(parts[2]));
  // a + (b + c)
  auto right_tail = snapshot_of(parts[1]);
  right_tail.merge(snapshot_of(parts[2]));
  auto right = snapshot_of(parts[0]);
  right.merge(right_tail);
  EXPECT_EQ(left, right);
}

TEST(ObsHistogram, ArbitraryShardSplitPreservesCountAndSum) {
  WORMS_REQUIRE_OBS();
  // Integer-valued observations: double addition is exact, so any split of
  // the stream across shards must merge back to the identical snapshot.
  std::mt19937_64 rng(17);
  std::uniform_int_distribution<int> val(0, 1 << 24);
  std::vector<double> values;
  for (int i = 0; i < 4000; ++i) values.push_back(static_cast<double>(val(rng)));
  const auto whole = snapshot_of(values);

  for (const std::size_t shards : {2u, 3u, 7u, 16u}) {
    std::uniform_int_distribution<std::size_t> pick(0, shards - 1);
    std::vector<std::vector<double>> split(shards);
    for (const double v : values) split[pick(rng)].push_back(v);

    // Merge the shard snapshots in a shuffled order.
    std::vector<HistogramSnapshot> snaps;
    for (const auto& part : split) snaps.push_back(snapshot_of(part));
    std::shuffle(snaps.begin(), snaps.end(), rng);
    HistogramSnapshot merged = snaps.front();
    for (std::size_t i = 1; i < snaps.size(); ++i) merged.merge(snaps[i]);

    EXPECT_EQ(merged.count, whole.count) << shards << " shards";
    EXPECT_EQ(merged.sum, whole.sum) << shards << " shards";
    EXPECT_EQ(merged.counts, whole.counts) << shards << " shards";
  }
}

TEST(ObsHistogram, QuantileWithinDocumentedBucketBound) {
  WORMS_REQUIRE_OBS();
  // The reported quantile is the upper bound of the rank's bucket, so for
  // values above first_bound it overshoots the true quantile by at most a
  // factor of 2 (one log2 bucket width) and never undershoots.
  std::mt19937_64 rng(19);
  std::uniform_real_distribution<double> mag(-5.0, 2.0);
  std::vector<double> values;
  for (int i = 0; i < 3000; ++i) values.push_back(std::pow(10.0, mag(rng)));
  const auto snap = snapshot_of(values);

  std::sort(values.begin(), values.end());
  for (const double q : {0.01, 0.25, 0.5, 0.9, 0.99, 1.0}) {
    const auto rank = static_cast<std::size_t>(
        std::max<double>(1.0, std::ceil(q * static_cast<double>(values.size()))));
    const double truth = values[rank - 1];
    const double est = snap.quantile(q);
    EXPECT_GE(est, truth) << "q=" << q;
    if (truth > snap.bounds.front()) {
      EXPECT_LE(est, 2.0 * truth) << "q=" << q;
    }
  }
}

TEST(ObsHistogram, QuantileEdgeCases) {
  WORMS_REQUIRE_OBS();
  const HistogramSnapshot empty = Histogram{HistogramSpec{}}.snapshot("h");
  EXPECT_EQ(empty.quantile(0.5), 0.0);

  // Everything in the overflow bucket: any quantile is +Inf.
  const auto over =
      snapshot_of({1e9, 2e9}, HistogramSpec{.first_bound = 1.0, .bounds = 4});
  EXPECT_TRUE(std::isinf(over.quantile(0.5)));
}

TEST(ObsHistogram, SpecValidation) {
  EXPECT_NO_THROW(Histogram(HistogramSpec{.first_bound = 1.0, .bounds = 1}));
  EXPECT_NO_THROW(Histogram(HistogramSpec{.first_bound = 1.0, .bounds = 64}));
  EXPECT_THROW(Histogram(HistogramSpec{.first_bound = 1.0, .bounds = 0}),
               support::PreconditionError);
  EXPECT_THROW(Histogram(HistogramSpec{.first_bound = 1.0, .bounds = 65}),
               support::PreconditionError);
  EXPECT_THROW(Histogram(HistogramSpec{.first_bound = 0.0, .bounds = 8}),
               support::PreconditionError);
}

TEST(ObsSnapshot, CounterAndGaugeMergeSemantics) {
  MetricsSnapshot a;
  a.counters = {{"requests_total", 10}, {"shared_total", 3}};
  a.gauges = {{"depth", 5.0}};
  MetricsSnapshot b;
  b.counters = {{"shared_total", 4}};
  b.gauges = {{"depth", 2.0}, {"memory_bytes", 100.0}};

  a.merge(b);
  ASSERT_EQ(a.counters.size(), 2u);
  EXPECT_EQ(a.find_counter("requests_total")->value, 10u);   // one-sided carries over
  EXPECT_EQ(a.find_counter("shared_total")->value, 7u);      // counters add
  EXPECT_EQ(a.find_gauge("depth")->value, 5.0);              // gauges take the max
  EXPECT_EQ(a.find_gauge("memory_bytes")->value, 100.0);
}

TEST(ObsSnapshot, HistogramMergeRequiresIdenticalBounds) {
  const auto a = snapshot_of({1.0}, HistogramSpec{.first_bound = 1.0, .bounds = 4});
  auto b = snapshot_of({1.0}, HistogramSpec{.first_bound = 1.0, .bounds = 8});
  EXPECT_THROW(b.merge(a), support::PreconditionError);
}

TEST(ObsSnapshot, ShardSplitOfFullRegistryMergesExactly) {
  WORMS_REQUIRE_OBS();
  // The end-to-end shape of the golden tests: per-shard registries merged
  // name-wise reproduce the single-registry totals exactly.
  std::mt19937_64 rng(23);
  std::uniform_int_distribution<int> val(0, 1000);
  Registry whole;
  std::vector<std::unique_ptr<Registry>> shards;
  for (int s = 0; s < 4; ++s) shards.push_back(std::make_unique<Registry>());

  for (int i = 0; i < 2000; ++i) {
    const int v = val(rng);
    const auto s = static_cast<std::size_t>(i % 4);
    whole.counter("records_total").add(1);
    whole.histogram("sizes", {.first_bound = 1.0, .bounds = 16})
        .record(static_cast<double>(v));
    shards[s]->counter("records_total").add(1);
    shards[s]->histogram("sizes", {.first_bound = 1.0, .bounds = 16})
        .record(static_cast<double>(v));
  }

  MetricsSnapshot merged = shards[0]->snapshot();
  for (std::size_t s = 1; s < shards.size(); ++s) merged.merge(shards[s]->snapshot());
  const MetricsSnapshot expect = whole.snapshot();
  EXPECT_EQ(merged.counters, expect.counters);
  EXPECT_EQ(merged.histograms, expect.histograms);
}

}  // namespace
}  // namespace worms::obs
