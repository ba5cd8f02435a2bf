// Dead-letter quarantine for the fleet containment pipeline.
//
// The paper's containment cycle is weeks long; a monitor that aborts on the
// first malformed record mid-cycle loses every host's scan budget and re-opens
// the epidemic threshold M ≤ 1/p.  Instead of aborting, the pipeline routes
// records it cannot (or must not) count — malformed fields, per-host time
// regressions, exact duplicates — into this bounded channel: per-reason
// counters are always exact, a bounded ring of recent entries supports
// diagnosis, and an optional spill file keeps a line-per-record audit trail
// for offline replay.  Nothing countable is ever silently dropped: a record
// either reaches its shard worker or is accounted for here.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <fstream>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "trace/record.hpp"

namespace worms::obs {
class Registry;
}

namespace worms::fleet {

enum class DeadLetterReason : std::uint8_t {
  Malformed,       ///< unparseable line or non-finite/negative timestamp
  OutOfOrder,      ///< timestamp regressed for its source host
  Duplicate,       ///< identical (timestamp, destination) to the host's previous record
  FrameBadMagic,   ///< wire frame header with wrong magic/version/type bytes
  FrameTruncated,  ///< connection ended mid-frame (short header or payload)
  FrameChecksum,   ///< frame payload failed its wtrace_checksum
  FrameOversized,  ///< length prefix beyond net::kMaxFramePayload
};

inline constexpr std::size_t kDeadLetterReasonCount = 7;

[[nodiscard]] const char* to_string(DeadLetterReason reason) noexcept;

struct DeadLetterEntry {
  DeadLetterReason reason = DeadLetterReason::Malformed;
  trace::ConnRecord record;      ///< zero-initialized when only text was available
  std::uint64_t stream_index = 0;  ///< feed index (or source line for parser rejects)
  std::string detail;              ///< human-readable diagnostic

  friend bool operator==(const DeadLetterEntry&, const DeadLetterEntry&) = default;
};

/// Per-reason accounting.  Counters are exact regardless of retention;
/// `overflow_dropped` counts entries whose *details* were evicted from the
/// bounded ring (their counters still incremented).
struct DeadLetterStats {
  std::uint64_t malformed = 0;
  std::uint64_t out_of_order = 0;
  std::uint64_t duplicate = 0;
  std::uint64_t frame_bad_magic = 0;
  std::uint64_t frame_truncated = 0;
  std::uint64_t frame_checksum = 0;
  std::uint64_t frame_oversized = 0;
  std::uint64_t overflow_dropped = 0;

  [[nodiscard]] std::uint64_t total() const noexcept {
    return malformed + out_of_order + duplicate + frame_bad_magic + frame_truncated +
           frame_checksum + frame_oversized;
  }

  friend bool operator==(const DeadLetterStats&, const DeadLetterStats&) = default;
};

/// Thread-safe bounded dead-letter sink shared by the ingest thread and every
/// shard worker.  All paths are off the record hot loop — only rejected
/// records pay the mutex.
class DeadLetterChannel {
 public:
  struct Config {
    std::size_t capacity = 1024;  ///< retained entries; older ones are evicted
    std::string spill_path;       ///< non-empty: append every entry as CSV
    /// Optional observability sink: per-reason `fleet_dead_letters_total`
    /// counters mirror the exact stats() accounting (DESIGN.md §8).
    obs::Registry* metrics = nullptr;
  };

  explicit DeadLetterChannel(const Config& config);

  DeadLetterChannel(const DeadLetterChannel&) = delete;
  DeadLetterChannel& operator=(const DeadLetterChannel&) = delete;

  /// Records one rejected record: bumps the reason counter, retains the entry
  /// (evicting the oldest beyond capacity), and spills it if configured.
  void report(DeadLetterEntry entry);

  /// Seeds the counters from a checkpoint so a restored pipeline's accounting
  /// continues where the snapshot left off.
  void preload(const DeadLetterStats& stats);

  [[nodiscard]] DeadLetterStats stats() const;

  /// Snapshot of the retained (most recent) entries, oldest first.
  [[nodiscard]] std::vector<DeadLetterEntry> entries() const;

 private:
  mutable std::mutex mutex_;
  Config config_;
  DeadLetterStats stats_;
  std::deque<DeadLetterEntry> retained_;
  std::ofstream spill_;
  /// Per-reason counters (index = DeadLetterReason) plus overflow; null when
  /// the channel is not instrumented.
  std::array<obs::Counter*, kDeadLetterReasonCount> reason_counters_{};
  obs::Counter* overflow_counter_ = nullptr;
};

}  // namespace worms::fleet
