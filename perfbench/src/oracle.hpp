// Correctness oracle: an independent single-threaded exact replay.
//
// It shares no code with the pipeline's hot path: records are grouped per
// host by a counting sort and each host is replayed alone, in stream order,
// against a std::unordered_set of destinations.  The rules are the paper's
// procedure as the pipeline documents it: records of a removed host are
// suppressed; a record that regresses the host's time, or repeats its
// previous (time, destination), is a dead letter; a cycle boundary empties
// the set; a host is flagged when its cycle count reaches f·M and removed
// when it reaches M.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "fleet/pipeline.hpp"
#include "fleet/shared_sketch_pool.hpp"
#include "trace/record.hpp"

namespace perfbench {

struct OracleConfig {
  std::uint64_t scan_limit = 0;
  double check_fraction = 1.0;
  double cycle_length = 0.0;
};

struct Expected {
  std::vector<worms::fleet::HostVerdict> hosts;  ///< ascending host id
  /// Per entry of `hosts`: the largest per-cycle distinct count over the
  /// whole stream, removal ignored — the load the compact backend sees.
  std::vector<std::uint64_t> full_distinct;
  /// Per entry of `hosts`: the items the host puts into a compact bank, the
  /// sum over its cycles of the distinct destinations of its processed
  /// records (each cycle's slice is freshly seeded, and the old registers
  /// stay in the bank).  `inserted_all` is the same with removal ignored.
  std::vector<std::uint64_t> inserted;
  std::vector<std::uint64_t> inserted_all;
  std::vector<bool> processed;  ///< per record: reached the counter
  std::vector<bool> counted;    ///< per record: a new distinct destination
  std::uint64_t dead_letters = 0;
  double replay_seconds = 0.0;
};

[[nodiscard]] Expected replay(std::span<const worms::trace::ConnRecord> records,
                              const OracleConfig& config);

/// One row of the verdict CSV, as written by fleet::write_verdicts_csv.
struct VerdictRow {
  worms::fleet::HostVerdict verdict;
  std::uint64_t node = 0;
};

/// Parses a verdict CSV; throws std::runtime_error on a malformed file.
[[nodiscard]] std::vector<VerdictRow> read_verdicts_csv(const std::string& path);

struct CheckResult {
  bool ok = true;
  std::string problem;  ///< first violation, for the log
  /// Compact backend: hosts outside the envelope, and the first of them.
  std::uint64_t out_of_envelope = 0;
  std::string envelope_problem;
};

/// Exact backend: every row equals the oracle's verdict, field for field.
[[nodiscard]] CheckResult check_exact(const std::vector<VerdictRow>& rows, const Expected& expected);

/// Compact backend: same hosts as the oracle; hosts neither side removed saw
/// every record; every disagreement, in the peak distinct count, the flag or
/// the removal, is held against DESIGN.md §13's 6σ envelope (with the
/// property suite's integer slack of 48 and σ taken from the items the
/// host's bank really holds).  Every host outside it is counted.  A flag or
/// removal outside it fails the check; a count outside it that changed no
/// verdict is reported, not failed (perfbench/README.md, "Known defect").
[[nodiscard]] CheckResult check_compact(const std::vector<VerdictRow>& rows,
                                        const Expected& expected, const OracleConfig& config,
                                        const worms::fleet::CompactPoolConfig& pool);

/// Every injected worm host has a removed verdict.
[[nodiscard]] CheckResult check_worms_removed(const std::vector<VerdictRow>& rows,
                                              const std::vector<std::uint32_t>& infected);

enum class Perturb { None, Removal, Count };

/// The self-test's deliberate faults, applied to the oracle-unremoved host
/// with the smallest distinct load: Removal marks it removed; Count raises
/// its peak distinct count by M/2.  Returns false when no such host exists.
bool perturb(std::vector<VerdictRow>& rows, const Expected& expected, Perturb kind,
             std::uint64_t scan_limit);

}  // namespace perfbench
