#include "oracle.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <unordered_set>

#include "support/stopwatch.hpp"

namespace perfbench {

using worms::fleet::HostVerdict;
using worms::trace::ConnRecord;

Expected replay(std::span<const ConnRecord> records, const OracleConfig& config) {
  worms::support::Stopwatch watch;
  Expected e;
  const std::size_t n = records.size();
  e.processed.assign(n, false);
  e.counted.assign(n, false);

  // Counting sort of record indices by host, stable in stream order.
  std::uint32_t max_host = 0;
  for (const ConnRecord& r : records) max_host = std::max(max_host, r.source_host);
  std::vector<std::uint64_t> start(static_cast<std::size_t>(max_host) + 2, 0);
  for (const ConnRecord& r : records) ++start[static_cast<std::size_t>(r.source_host) + 1];
  for (std::size_t h = 1; h < start.size(); ++h) start[h] += start[h - 1];
  std::vector<std::uint64_t> next(start.begin(), start.end() - 1);
  std::vector<std::uint64_t> order(n);
  for (std::uint64_t i = 0; i < n; ++i) order[next[records[i].source_host]++] = i;

  const auto cycle_of = [&](double t) {
    return static_cast<std::uint64_t>(t / config.cycle_length);
  };
  const bool flagging = config.check_fraction < 1.0;
  const double flag_at = config.check_fraction * static_cast<double>(config.scan_limit);
  std::unordered_set<std::uint32_t> seen;

  for (std::uint32_t host = 0; host <= max_host; ++host) {
    const std::uint64_t begin = start[host];
    const std::uint64_t end = start[static_cast<std::size_t>(host) + 1];
    if (begin == end) continue;
    HostVerdict v;
    v.host = host;
    seen.clear();
    std::uint64_t cycle = cycle_of(records[order[begin]].timestamp);
    bool cycle_flagged = false;
    std::uint64_t cycle_failures = 0;
    bool has_prev = false;
    double last_time = 0.0;
    std::uint32_t last_destination = 0;
    std::uint64_t full = 0;
    std::uint64_t inserted = 0;      // items of closed cycles, processed records
    std::uint64_t inserted_all = 0;  // the same, removal ignored
    std::uint64_t cycle_seen = 0;    // the open cycle's count at the last new item

    for (std::uint64_t k = begin; k < end; ++k) {
      const std::uint64_t i = order[k];
      const ConnRecord& r = records[i];
      const std::uint32_t dst = r.destination.value();
      const std::uint64_t c = cycle_of(r.timestamp);
      if (v.removed) {
        if (c != cycle) {
          inserted_all += seen.size();
          seen.clear();
          cycle = c;
        }
        seen.insert(dst);
        full = std::max<std::uint64_t>(full, seen.size());
        continue;
      }
      if (has_prev && (r.timestamp < last_time ||
                       (r.timestamp == last_time && dst == last_destination))) {
        ++e.dead_letters;
        continue;
      }
      has_prev = true;
      last_time = r.timestamp;
      last_destination = dst;
      ++v.records_seen;
      e.processed[i] = true;
      if (c != cycle) {
        inserted += seen.size();
        inserted_all += seen.size();
        seen.clear();
        cycle = c;
        cycle_flagged = false;
        cycle_failures = 0;
      }
      if (r.outcome == worms::trace::kOutcomeFailure) {
        ++v.failures_seen;
        v.peak_failures = std::max(v.peak_failures, ++cycle_failures);
      }
      if (!seen.insert(dst).second) continue;
      e.counted[i] = true;
      const std::uint64_t count = seen.size();
      cycle_seen = count;
      full = std::max(full, count);
      v.peak_distinct = std::max(v.peak_distinct, count);
      if (count >= config.scan_limit) {
        v.removed = true;
        v.removal_time = r.timestamp;
      } else if (flagging && !cycle_flagged && static_cast<double>(count) >= flag_at) {
        cycle_flagged = true;
        if (!v.flagged) {
          v.flagged = true;
          v.flag_time = r.timestamp;
        }
      }
    }
    e.hosts.push_back(v);
    e.full_distinct.push_back(full);
    // The open cycle: `seen` holds its items with removal ignored; a removed
    // host inserted `cycle_seen` of them, its count at removal.
    e.inserted.push_back(inserted + (v.removed ? cycle_seen : seen.size()));
    e.inserted_all.push_back(inserted_all + seen.size());
  }
  e.replay_seconds = watch.elapsed_seconds();
  return e;
}

namespace {

std::uint64_t parse_u64(const char*& p, const std::string& line) {
  char* end = nullptr;
  const unsigned long long value = std::strtoull(p, &end, 10);
  if (end == p || (*end != ',' && *end != '\0')) {
    throw std::runtime_error("malformed verdict row: " + line);
  }
  p = *end == ',' ? end + 1 : end;
  return value;
}

double parse_f64(const char*& p, const std::string& line) {
  char* end = nullptr;
  const double value = std::strtod(p, &end);
  if (end == p || (*end != ',' && *end != '\0')) {
    throw std::runtime_error("malformed verdict row: " + line);
  }
  p = *end == ',' ? end + 1 : end;
  return value;
}

std::string describe(const HostVerdict& v) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "host %u seen=%llu peak=%llu flagged=%d@%.17g removed=%d@%.17g failures=%llu/%llu",
                v.host, static_cast<unsigned long long>(v.records_seen),
                static_cast<unsigned long long>(v.peak_distinct), v.flagged ? 1 : 0, v.flag_time,
                v.removed ? 1 : 0, v.removal_time,
                static_cast<unsigned long long>(v.failures_seen),
                static_cast<unsigned long long>(v.peak_failures));
  return buf;
}

CheckResult fail(std::string problem) { return {false, std::move(problem), 0, {}}; }

}  // namespace

std::vector<VerdictRow> read_verdicts_csv(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open verdict CSV " + path);
  std::string line;
  if (!std::getline(in, line) || line.rfind("host,records_seen,", 0) != 0) {
    throw std::runtime_error("verdict CSV has no header: " + path);
  }
  std::vector<VerdictRow> rows;
  while (std::getline(in, line)) {
    const char* p = line.c_str();
    VerdictRow row;
    HostVerdict& v = row.verdict;
    v.host = static_cast<std::uint32_t>(parse_u64(p, line));
    v.records_seen = parse_u64(p, line);
    v.peak_distinct = parse_u64(p, line);
    v.flagged = parse_u64(p, line) != 0;
    v.flag_time = parse_f64(p, line);
    v.removed = parse_u64(p, line) != 0;
    v.removal_time = parse_f64(p, line);
    v.pre_contained = parse_u64(p, line) != 0;
    v.failures_seen = parse_u64(p, line);
    v.peak_failures = parse_u64(p, line);
    v.removed_by_failures = parse_u64(p, line) != 0;
    row.node = parse_u64(p, line);
    if (*p != '\0') throw std::runtime_error("malformed verdict row: " + line);
    rows.push_back(row);
  }
  return rows;
}

CheckResult check_exact(const std::vector<VerdictRow>& rows, const Expected& expected) {
  if (rows.size() != expected.hosts.size()) {
    return fail("verdict rows " + std::to_string(rows.size()) + " != oracle hosts " +
                std::to_string(expected.hosts.size()));
  }
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (rows[i].verdict != expected.hosts[i] || rows[i].node != 0) {
      return fail("got " + describe(rows[i].verdict) + ", oracle " + describe(expected.hosts[i]));
    }
  }
  return {};
}

CheckResult check_compact(const std::vector<VerdictRow>& rows, const Expected& expected,
                          const OracleConfig& config,
                          const worms::fleet::CompactPoolConfig& pool) {
  if (rows.size() != expected.hosts.size()) {
    return fail("verdict rows " + std::to_string(rows.size()) + " != oracle hosts " +
                std::to_string(expected.hosts.size()));
  }
  // Items per bank: every host's slices share its bank's registers.  A host
  // the backend removed stopped inserting where the oracle's removal did
  // (close enough: removals agree within the envelope, or fail below); one
  // it kept inserted every record's item.
  std::vector<double> bank_items(worms::fleet::kCompactBanks, 0.0);
  const auto own_items = [&](std::size_t i) {
    return static_cast<double>(rows[i].verdict.removed ? expected.inserted[i]
                                                       : expected.inserted_all[i]);
  };
  for (std::size_t i = 0; i < rows.size(); ++i) {
    bank_items[worms::fleet::compact_bank_of(expected.hosts[i].host)] += own_items(i);
  }
  const double m = pool.registers_per_bank();
  const double s = pool.virtual_registers;
  const double limit = static_cast<double>(config.scan_limit);
  const double flag_at = config.check_fraction * limit;
  CheckResult result;
  const auto violation = [&](bool verdict_changed, const std::string& what) {
    ++result.out_of_envelope;
    if (result.envelope_problem.empty()) result.envelope_problem = what;
    if (verdict_changed && result.ok) {
      result.ok = false;
      result.problem = what;
    }
  };
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const HostVerdict& got = rows[i].verdict;
    const HostVerdict& want = expected.hosts[i];
    if (got.host != want.host) {
      return fail("verdict host " + std::to_string(got.host) + " where the oracle has " +
                  std::to_string(want.host));
    }
    const double n = static_cast<double>(expected.full_distinct[i]);
    const double others = bank_items[worms::fleet::compact_bank_of(want.host)] - own_items(i);
    const double sigma = (1.04 / std::sqrt(s)) * (n + (s / m) * others);
    const double bound = 6.0 * sigma + 48.0;
    const auto outside = [&](double threshold) { return std::abs(n - threshold) > bound; };
    const std::string detail = " (6σ+48 bound " + std::to_string(bound) + "): got " +
                               describe(got) + ", oracle " + describe(want);
    const double count_error = std::abs(static_cast<double>(got.peak_distinct) -
                                        static_cast<double>(want.peak_distinct));
    if (got.removed != want.removed && outside(limit)) {
      violation(true, "removal disagreement outside the envelope" + detail);
    } else if (got.flagged != want.flagged && outside(flag_at)) {
      violation(true, "flag disagreement outside the envelope" + detail);
    } else if (count_error > bound) {
      violation(false, "distinct count outside the envelope" + detail);
    }
    // A host neither side removed had every record processed, whatever the
    // backend.
    if (!got.removed && !want.removed &&
        (got.records_seen != want.records_seen || got.failures_seen != want.failures_seen)) {
      return fail("records lost for an unremoved host: got " + describe(got) + ", oracle " +
                  describe(want));
    }
  }
  return result;
}

CheckResult check_worms_removed(const std::vector<VerdictRow>& rows,
                                const std::vector<std::uint32_t>& infected) {
  for (const std::uint32_t host : infected) {
    const auto it = std::lower_bound(
        rows.begin(), rows.end(), host,
        [](const VerdictRow& r, std::uint32_t h) { return r.verdict.host < h; });
    if (it == rows.end() || it->verdict.host != host || !it->verdict.removed) {
      return fail("worm host " + std::to_string(host) + " was not removed");
    }
  }
  return {};
}

bool perturb(std::vector<VerdictRow>& rows, const Expected& expected, Perturb kind,
             std::uint64_t scan_limit) {
  std::int64_t pick = -1;
  for (std::size_t i = 0; i < expected.hosts.size() && i < rows.size(); ++i) {
    if (expected.hosts[i].removed) continue;
    if (pick < 0 || expected.full_distinct[i] < expected.full_distinct[static_cast<std::size_t>(pick)]) {
      pick = static_cast<std::int64_t>(i);
    }
  }
  if (pick < 0 || kind == Perturb::None) return false;
  HostVerdict& v = rows[static_cast<std::size_t>(pick)].verdict;
  if (kind == Perturb::Removal) {
    v.removed = true;
    v.removal_time = 1.0;
  } else {
    v.peak_distinct += scan_limit / 2;
  }
  return true;
}

}  // namespace perfbench
