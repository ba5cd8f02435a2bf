#include "core/scan_limit_policy.hpp"

#include <gtest/gtest.h>

#include "support/check.hpp"

namespace worms::core {
namespace {

net::Ipv4Address addr(std::uint32_t v) { return net::Ipv4Address(v); }

TEST(ScanLimitPolicy, AllowsBelowLimitThenRemovesAtLimit) {
  ScanCountLimitPolicy policy({.scan_limit = 5});
  for (std::uint32_t i = 0; i < 4; ++i) {
    EXPECT_EQ(policy.on_scan(0, 1.0 + i, addr(i)).action, ScanAction::Allow);
  }
  // Paper semantics: the M-th scan goes out, then the host is pulled.
  EXPECT_EQ(policy.on_scan(0, 10.0, addr(99)).action, ScanAction::AllowAndRemove);
  EXPECT_EQ(policy.count_of(0), 5u);
}

TEST(ScanLimitPolicy, CountersAreIndependentPerHost) {
  ScanCountLimitPolicy policy({.scan_limit = 3});
  (void)policy.on_scan(0, 1.0, addr(1));
  (void)policy.on_scan(0, 2.0, addr(2));
  (void)policy.on_scan(7, 3.0, addr(3));
  EXPECT_EQ(policy.count_of(0), 2u);
  EXPECT_EQ(policy.count_of(7), 1u);
  EXPECT_EQ(policy.count_of(42), 0u);  // never-seen host
}

TEST(ScanLimitPolicy, CycleBoundaryResetsCounter) {
  // 100-second containment cycle: counts in cycle 0 must not carry into 1.
  ScanCountLimitPolicy policy({.scan_limit = 3, .cycle_length = 100.0});
  (void)policy.on_scan(0, 10.0, addr(1));
  (void)policy.on_scan(0, 20.0, addr(2));
  EXPECT_EQ(policy.count_of(0), 2u);
  EXPECT_EQ(policy.on_scan(0, 150.0, addr(3)).action, ScanAction::Allow);
  EXPECT_EQ(policy.count_of(0), 1u) << "new cycle starts from zero";
}

TEST(ScanLimitPolicy, AttemptsModeCountsRepeats) {
  ScanCountLimitPolicy policy({.scan_limit = 3});
  (void)policy.on_scan(0, 1.0, addr(5));
  (void)policy.on_scan(0, 2.0, addr(5));
  EXPECT_EQ(policy.count_of(0), 2u);
}

TEST(ScanLimitPolicy, ExactDistinctModeIgnoresRepeats) {
  ScanCountLimitPolicy policy({.scan_limit = 3,
                               .counting = ScanCountLimitPolicy::CountingMode::ExactDistinct});
  (void)policy.on_scan(0, 1.0, addr(5));
  (void)policy.on_scan(0, 2.0, addr(5));
  (void)policy.on_scan(0, 3.0, addr(5));
  EXPECT_EQ(policy.count_of(0), 1u) << "same destination is one unique IP";
  (void)policy.on_scan(0, 4.0, addr(6));
  EXPECT_EQ(policy.on_scan(0, 5.0, addr(7)).action, ScanAction::AllowAndRemove);
}

TEST(ScanLimitPolicy, ExactDistinctResetsSeenSetAtCycle) {
  ScanCountLimitPolicy policy({.scan_limit = 2,
                               .cycle_length = 100.0,
                               .counting = ScanCountLimitPolicy::CountingMode::ExactDistinct});
  (void)policy.on_scan(0, 1.0, addr(5));
  // Next cycle: the same destination is "new" again.
  (void)policy.on_scan(0, 101.0, addr(5));
  EXPECT_EQ(policy.count_of(0), 1u);
}

TEST(ScanLimitPolicy, FlagsAtCheckFraction) {
  ScanCountLimitPolicy policy({.scan_limit = 10, .check_fraction = 0.5});
  for (std::uint32_t i = 0; i < 4; ++i) (void)policy.on_scan(3, 1.0 + i, addr(i));
  EXPECT_TRUE(policy.flagged_hosts().empty());
  (void)policy.on_scan(3, 5.0, addr(100));  // 5th scan = 0.5 · 10
  ASSERT_EQ(policy.flagged_hosts().size(), 1u);
  EXPECT_EQ(policy.flagged_hosts()[0], 3u);
  // Crossing again must not duplicate the flag.
  (void)policy.on_scan(3, 6.0, addr(101));
  EXPECT_EQ(policy.flagged_hosts().size(), 1u);
}

TEST(ScanLimitPolicy, RestoreClearsState) {
  ScanCountLimitPolicy policy({.scan_limit = 4});
  for (std::uint32_t i = 0; i < 3; ++i) (void)policy.on_scan(0, 1.0 + i, addr(i));
  policy.on_host_restored(0, 10.0);
  EXPECT_EQ(policy.count_of(0), 0u) << "paper step 4: counter resets on re-entry";
  EXPECT_EQ(policy.on_scan(0, 11.0, addr(9)).action, ScanAction::Allow);
}

TEST(ScanLimitPolicy, CloneStartsFresh) {
  ScanCountLimitPolicy policy({.scan_limit = 2});
  (void)policy.on_scan(0, 1.0, addr(1));
  const auto fresh = policy.clone();
  EXPECT_EQ(fresh->on_scan(0, 2.0, addr(2)).action, ScanAction::Allow);
  // Original still at count 1 → this second scan trips its limit.
  EXPECT_EQ(policy.on_scan(0, 2.0, addr(2)).action, ScanAction::AllowAndRemove);
}

TEST(ScanLimitPolicy, NameIncludesBudget) {
  ScanCountLimitPolicy policy({.scan_limit = 1234});
  EXPECT_NE(policy.name().find("1234"), std::string::npos);
}

TEST(ScanLimitPolicy, RejectsBadConfig) {
  EXPECT_THROW(ScanCountLimitPolicy({.scan_limit = 0}), support::PreconditionError);
  EXPECT_THROW(ScanCountLimitPolicy({.scan_limit = 1, .cycle_length = 0.0}),
               support::PreconditionError);
  EXPECT_THROW(ScanCountLimitPolicy({.scan_limit = 1, .check_fraction = 0.0}),
               support::PreconditionError);
  EXPECT_THROW(ScanCountLimitPolicy({.scan_limit = 1, .check_fraction = 1.5}),
               support::PreconditionError);
}

// ---------------------------------------------------------------------------
// scan_budget_step against its definition, kept here as the reference: charge
// the units prev+1..tally one at a time, removing at the first unit ≥ M and
// flagging at a unit ≥ f·M before it.

ScanBudgetStep forward_units(std::uint64_t prev, std::uint64_t tally, std::uint64_t m,
                             double f) {
  ScanBudgetStep out;
  for (std::uint64_t unit = prev + 1; unit <= tally; ++unit) {
    if (unit >= m) {
      out.remove = true;
      break;
    }
    if (f < 1.0 && static_cast<double>(unit) >= f * static_cast<double>(m)) out.flag = true;
  }
  return out;
}

void expect_step(std::uint64_t prev, std::uint64_t tally, std::uint64_t m, double f) {
  const ScanBudgetStep want = forward_units(prev, tally, m, f);
  const ScanBudgetStep got = scan_budget_step(prev, tally, m, f);
  EXPECT_EQ(got.flag, want.flag) << "prev " << prev << " tally " << tally << " M " << m
                                 << " f " << f;
  EXPECT_EQ(got.remove, want.remove) << "prev " << prev << " tally " << tally << " M " << m
                                     << " f " << f;
}

TEST(ScanBudgetStep, MatchesPerUnitForwardingExhaustively) {
  // Every (prev, tally) pair up to past M: deltas 0 and 1, jumps that cross
  // f·M, M or both in one add, and prev already at or past M.
  for (const std::uint64_t m : {1u, 2u, 3u, 7u, 10u, 20u, 33u}) {
    for (const double f : {0.05, 0.3, 1.0 / 3.0, 0.5, 0.7, 0.95, 0.99, 1.0}) {
      for (std::uint64_t prev = 0; prev <= m + 3; ++prev) {
        for (std::uint64_t tally = prev; tally <= m + 6; ++tally) expect_step(prev, tally, m, f);
      }
    }
  }
}

TEST(ScanBudgetStep, NamedCases) {
  // Delta 0 decides nothing, even at or past both thresholds.
  EXPECT_FALSE(scan_budget_step(7, 7, 10, 0.5).flag);
  EXPECT_FALSE(scan_budget_step(12, 12, 10, 0.5).remove);
  // Delta 1 onto f·M flags; onto M removes without flagging.
  EXPECT_TRUE(scan_budget_step(4, 5, 10, 0.5).flag);
  EXPECT_FALSE(scan_budget_step(4, 5, 10, 0.5).remove);
  EXPECT_TRUE(scan_budget_step(9, 10, 10, 0.5).remove);
  EXPECT_FALSE(scan_budget_step(9, 10, 10, 0.5).flag);
  // An approximate counter's jump across f·M and M in one add does both.
  const ScanBudgetStep both = scan_budget_step(2, 40, 10, 0.5);
  EXPECT_TRUE(both.flag);
  EXPECT_TRUE(both.remove);
  // Non-integer f·M = 2.1: unit 2 is below it, unit 3 flags.
  EXPECT_FALSE(scan_budget_step(1, 2, 7, 0.3).flag);
  EXPECT_TRUE(scan_budget_step(2, 3, 7, 0.3).flag);
  // ceil(f·M) = M (f·M = 9.5, M = 10): no unit below M reaches f·M, so even
  // a jump from 0 removes without a flag.
  EXPECT_FALSE(scan_budget_step(0, 10, 10, 0.95).flag);
  EXPECT_TRUE(scan_budget_step(0, 10, 10, 0.95).remove);
  EXPECT_FALSE(scan_budget_step(8, 9, 10, 0.95).flag);
  // f = 1 turns flagging off.
  EXPECT_FALSE(scan_budget_step(0, 9, 10, 1.0).flag);
  EXPECT_TRUE(scan_budget_step(0, 10, 10, 1.0).remove);
  // prev ≥ M (a tally that already spent the budget): the next unit removes.
  EXPECT_TRUE(scan_budget_step(10, 11, 10, 0.5).remove);
  EXPECT_FALSE(scan_budget_step(10, 11, 10, 0.5).flag);
  // M = 1: the first unit removes.
  EXPECT_TRUE(scan_budget_step(0, 1, 1, 0.5).remove);
  EXPECT_FALSE(scan_budget_step(0, 1, 1, 0.5).flag);
}

TEST(ScanBudgetStep, MatchesPerUnitForwardingNearLargeThresholds) {
  // Budgets too large to sweep: windows around f·M and M, with short jumps.
  // Past 2^53 a double cannot tell M − 1 from M, so f = 1 must still mean
  // "never flag" rather than "flag just below M".
  for (const std::uint64_t m : {std::uint64_t{10'000}, std::uint64_t{1'000'003},
                                std::uint64_t{4'000'000'000}, std::uint64_t{1} << 60}) {
    for (const double f : {0.5, 0.37, 0.999, 1.0}) {
      const auto flag_at = static_cast<std::uint64_t>(f * static_cast<double>(m));
      for (const std::uint64_t centre : {flag_at, m}) {
        for (std::uint64_t prev = centre - 4; prev <= centre + 4; ++prev) {
          for (std::uint64_t delta = 0; delta <= 9; ++delta) expect_step(prev, prev + delta, m, f);
        }
      }
    }
  }
}

TEST(NullPolicy, AlwaysAllows) {
  NullPolicy policy;
  for (std::uint32_t i = 0; i < 1000; ++i) {
    EXPECT_EQ(policy.on_scan(i % 3, static_cast<double>(i), addr(i)).action, ScanAction::Allow);
  }
  EXPECT_EQ(policy.name(), "none");
  EXPECT_NE(policy.clone(), nullptr);
}

}  // namespace
}  // namespace worms::core
