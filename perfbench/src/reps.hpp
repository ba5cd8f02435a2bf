// One measured repetition of a workload: construct the pipeline or node,
// run the headline path from the first record offered to the verdict CSV
// written, then check the CSV against the oracle.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "oracle.hpp"
#include "spans.hpp"
#include "workload.hpp"

namespace perfbench {

struct RepContext {
  const WorkloadSpec* spec = nullptr;
  const Expected* expected = nullptr;
  OracleConfig oracle;
  const std::vector<std::uint32_t>* infected = nullptr;
  /// serve-loopback: the records the client streams.  File workloads read
  /// `wtrace_path` instead.
  std::span<const worms::trace::ConnRecord> records;
  std::uint64_t record_count = 0;
  std::string wtrace_path;
  std::string checkpoint_path;
  std::string csv_path;
  Perturb perturb = Perturb::None;  ///< self-test: corrupt one verdict before the check
  std::uint64_t repetition = 0;     ///< 0 for the warm-up, then 1, 2, ...
};

struct RepResult {
  double construct_seconds = 0.0;  ///< pipeline/node construction (set-up)
  double wall_seconds = 0.0;       ///< first record offered → verdict CSV written
  std::uint64_t offered = 0;
  std::uint64_t failed = 0;        ///< unaccounted records, or all of them on a bad verdict
  bool ok = false;
  std::string problem;
  std::uint64_t out_of_envelope = 0;  ///< compact hosts outside the §13 envelope
  std::string envelope_problem;       ///< the first of them

  // Observations kept for the traced run's ladder.
  std::size_t counter_bytes = 0;
  double queue_fill = 0.0;          ///< max shard-queue high water / capacity
  std::vector<double> removal_lag_ms;
  double wire_bytes_per_record = 0.0;
  std::uint64_t events = 0;
  std::uint64_t events_dropped = 0;
};

/// `spans` null = untraced.  Never throws: failures land in the result.
[[nodiscard]] RepResult run_rep(const RepContext& ctx, SpanLog* spans);

}  // namespace perfbench
