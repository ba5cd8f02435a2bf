// The paper's automated containment scheme (§IV):
//
//   1. choose a containment cycle (long: weeks/months) and a budget M;
//   2. count distinct destination addresses per host;
//   3. when the count reaches fraction f of M, flag the host for a full
//      check; at M, remove it for heavy-duty checking;
//   4. reset counters at each cycle boundary and when a host is restored.
//
// Distinct counting: exact per-host hash sets are available
// (CountingMode::ExactDistinct) but uniform random scans over 2^32 addresses
// essentially never repeat within M ≈ 10^4 draws, so the default counts
// attempts (CountingMode::Attempts) — the approximation the paper itself
// makes.  The trace analyzer (worms::trace) always counts exact distinct.
#pragma once

#include <algorithm>
#include <cstdint>
#include <unordered_set>
#include <vector>

#include "core/containment_policy.hpp"

namespace worms::core {

/// What charging a host its counted scans prev+1, ..., tally decides.
struct ScanBudgetStep {
  bool flag = false;    ///< some unit below M reached f·M
  bool remove = false;  ///< some unit reached M
};

/// The paper's budget rule (steps 3–4) in closed form: the outcome of
/// charging the units prev+1, ..., tally one at a time, where the first unit
/// ≥ M removes the host and any unit ≥ f·M before it flags it (f = 1 turns
/// flagging off).  `flag` reports that such a unit exists; whether it is a
/// *new* flag is the caller's in-cycle state.  A jump of an approximate
/// counter across both thresholds therefore flags and removes in one step,
/// and a unit that reaches f·M and M at once removes without a flag.
[[nodiscard]] constexpr ScanBudgetStep scan_budget_step(std::uint64_t prev, std::uint64_t tally,
                                                        std::uint64_t scan_limit,
                                                        double check_fraction) noexcept {
  if (tally <= prev) return {};
  // The last unit that does not remove; a flag needs one of prev+1..below
  // at f·M, and units are increasing, so testing `below` suffices.
  const std::uint64_t below = std::min(tally, scan_limit - 1);
  return {.flag = check_fraction < 1.0 && below > prev &&
                  static_cast<double>(below) >=
                      check_fraction * static_cast<double>(scan_limit),
          .remove = tally >= scan_limit};
}

class ScanCountLimitPolicy final : public ContainmentPolicy {
 public:
  enum class CountingMode { Attempts, ExactDistinct };

  struct Config {
    std::uint64_t scan_limit = 10'000;       ///< M
    sim::SimTime cycle_length = 30 * sim::kDay;  ///< containment cycle
    double check_fraction = 1.0;             ///< f: flag host at f·M (1 ⇒ off)
    CountingMode counting = CountingMode::Attempts;
  };

  explicit ScanCountLimitPolicy(const Config& config);

  [[nodiscard]] ScanDecision on_scan(net::HostId host, sim::SimTime now,
                                     net::Ipv4Address destination) override;
  void on_host_restored(net::HostId host, sim::SimTime now) override;

  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::unique_ptr<ContainmentPolicy> clone() const override;

  /// Current counter for a host (0 if never seen).
  [[nodiscard]] std::uint64_t count_of(net::HostId host) const;

  /// Hosts that crossed f·M and await a full check (paper's adaptive step).
  [[nodiscard]] const std::vector<net::HostId>& flagged_hosts() const noexcept {
    return flagged_;
  }

  [[nodiscard]] const Config& config() const noexcept { return config_; }

 private:
  struct HostCounter {
    std::uint64_t count = 0;
    std::uint64_t cycle = 0;   ///< cycle index the count belongs to
    bool flagged = false;
    std::unordered_set<std::uint32_t> seen;  ///< only used in ExactDistinct mode
  };

  [[nodiscard]] std::uint64_t cycle_index(sim::SimTime now) const noexcept {
    return static_cast<std::uint64_t>(now / config_.cycle_length);
  }

  HostCounter& counter_for(net::HostId host, sim::SimTime now);

  Config config_;
  std::vector<HostCounter> counters_;
  std::vector<net::HostId> flagged_;
};

}  // namespace worms::core
