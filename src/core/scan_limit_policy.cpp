#include "core/scan_limit_policy.hpp"

#include "support/check.hpp"

namespace worms::core {

ScanCountLimitPolicy::ScanCountLimitPolicy(const Config& config) : config_(config) {
  WORMS_EXPECTS(config.scan_limit >= 1);
  WORMS_EXPECTS(config.cycle_length > 0.0);
  WORMS_EXPECTS(config.check_fraction > 0.0 && config.check_fraction <= 1.0);
}

ScanCountLimitPolicy::HostCounter& ScanCountLimitPolicy::counter_for(net::HostId host,
                                                                     sim::SimTime now) {
  if (host >= counters_.size()) counters_.resize(static_cast<std::size_t>(host) + 1);
  HostCounter& c = counters_[host];
  const std::uint64_t cycle = cycle_index(now);
  if (c.cycle != cycle) {
    // New containment cycle: counters reset (paper step 2).
    c.count = 0;
    c.cycle = cycle;
    c.flagged = false;
    c.seen.clear();
  }
  return c;
}

ScanDecision ScanCountLimitPolicy::on_scan(net::HostId host, sim::SimTime now,
                                           net::Ipv4Address destination) {
  HostCounter& c = counter_for(host, now);

  if (config_.counting == CountingMode::ExactDistinct) {
    if (!c.seen.insert(destination.value()).second) {
      return ScanDecision::allow();  // repeat destination: not a new unique IP
    }
  }
  ++c.count;

  const ScanBudgetStep step =
      scan_budget_step(c.count - 1, c.count, config_.scan_limit, config_.check_fraction);
  if (step.remove) return ScanDecision::allow_and_remove();
  if (step.flag && !c.flagged) {
    c.flagged = true;
    flagged_.push_back(host);
  }
  return ScanDecision::allow();
}

void ScanCountLimitPolicy::on_host_restored(net::HostId host, sim::SimTime now) {
  HostCounter& c = counter_for(host, now);
  c.count = 0;
  c.flagged = false;
  c.seen.clear();
}

std::string ScanCountLimitPolicy::name() const {
  return "scan-limit(M=" + std::to_string(config_.scan_limit) + ")";
}

std::unique_ptr<ContainmentPolicy> ScanCountLimitPolicy::clone() const {
  return std::make_unique<ScanCountLimitPolicy>(config_);
}

std::uint64_t ScanCountLimitPolicy::count_of(net::HostId host) const {
  if (host >= counters_.size()) return 0;
  return counters_[host].count;
}

}  // namespace worms::core
