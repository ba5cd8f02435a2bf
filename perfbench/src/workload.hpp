// Workload definitions and seeded input generation.
//
// Every workload runs the paper's operating point: budget M = 5000, check
// fraction f = 0.5, a 30-day containment cycle over a 30-day LBL-shaped
// trace.  The worm overlay arrives in waves spread over the month, and every
// infected host scans to 2·M, so removals land throughout the stream and
// every worm host is over budget by far more than the compact backend's
// error envelope.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fleet/distinct_counter.hpp"
#include "fleet/pipeline.hpp"
#include "trace/record.hpp"

namespace perfbench {

inline constexpr std::uint64_t kScanLimit = 5000;  ///< M
inline constexpr double kCheckFraction = 0.5;      ///< f
inline constexpr unsigned kShards = 2;
inline constexpr std::size_t kFeedBlock = 8192;    ///< records per next_batch/feed call
inline constexpr std::size_t kWireBatch = 4096;    ///< records per Records frame

struct WorkloadSpec {
  std::string name;
  std::uint32_t hosts = 0;  ///< LBL-shaped background population
  worms::fleet::CounterBackend backend = worms::fleet::CounterBackend::Exact;
  bool serve = false;        ///< wire → verdicts through a loopback ServeNode
  bool checkpoints = false;  ///< write_checkpoint at fixed stream positions
  std::uint32_t hosts_per_wave = 8;  ///< worm hosts in each of the 8 waves
};

/// The named workload, with its population multiplied by `scale` (the
/// self-test runs at a tiny scale).  Throws std::invalid_argument for an
/// unknown name.
[[nodiscard]] WorkloadSpec find_workload(const std::string& name, double scale);

struct Inputs {
  std::vector<worms::trace::ConnRecord> records;  ///< stream order
  std::vector<std::uint32_t> infected;            ///< worm hosts, ascending
  std::uint64_t repeats_dropped = 0;  ///< identical repeats removed from the stream
};

/// Deterministic in (spec, seed).
[[nodiscard]] Inputs make_inputs(const WorkloadSpec& spec, std::uint64_t seed);

/// Pipeline options of the workload (node options add obs on top).
[[nodiscard]] worms::fleet::PipelineOptions pipeline_options(const WorkloadSpec& spec);

}  // namespace perfbench
