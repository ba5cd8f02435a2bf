// Fleet-scale streaming containment pipeline.
//
// The paper's containment scheme is an *online* mechanism: per-host distinct-
// destination counters that flag a host at f·M and remove it at the scan
// limit M, with counters reset every containment cycle.  The offline
// TraceAnalyzer::audit_policy replays a sorted in-memory trace through one
// policy instance; this subsystem is the production shape of the same
// decision procedure — a sharded, multi-threaded pipeline that ingests a
// stream of trace::ConnRecord and emits quarantine verdicts plus operational
// metrics while the stream is still flowing.
//
// Architecture (DESIGN.md §6):
//
//   ingest thread ──feed()──► per-shard batch buffers
//        │ shard = (source_host % kCompactBanks) % shards — bank-colocated
//        │ routing: every host of a shared-pool bank lands on one shard, and
//        │ for the power-of-two shard counts the tests sweep this equals the
//        │ classic source_host % shards.
//        ▼
//   SpscRing<batch> × N     (lock-free, blocking backpressure, high-water gauges)
//        ▼
//   shard worker × N: per-host {DistinctCounter, cycle, verdict} state
//        driving one core::ScanCountLimitPolicy per shard (Attempts mode —
//        distinctness is already judged by the counter backend)
//        ▼
//   finish(): close queues, join workers, merge per-shard verdicts sorted by
//        host id, snapshot metrics.
//
// Determinism: records are sharded by source host and each queue is FIFO, so
// every host's records are processed in arrival order by exactly one worker,
// against state only that worker touches.  Per-host outcomes therefore never
// depend on the shard count or on scheduling, and the merged, host-sorted
// ContainmentVerdicts report is bit-identical for any `shards` value —
// verified in tests/fleet_pipeline_test.cpp (including under TSan).
//
// Fault tolerance (DESIGN.md §7): the counters must survive a containment
// cycle measured in weeks, so the pipeline is built to degrade and recover
// rather than abort:
//
//   * checkpoint/restore — write_checkpoint() quiesces the shards and writes
//     a versioned, checksummed snapshot of every host's full state (exact
//     sets or HLL registers, cycle indices, verdicts) plus the stream
//     position; restore() resumes mid-cycle such that checkpoint + replay of
//     the record suffix is bit-identical to an uninterrupted run, for any
//     shard count and either counter backend.
//   * dead-letter quarantine — malformed, per-host out-of-order, and
//     duplicate records are routed to a bounded DeadLetterChannel (per-reason
//     counters, optional spill file) instead of aborting the stream.
//   * overload degradation — per-shard watermarks walk a ladder
//     healthy → degraded → shedding under sustained backpressure; shedding
//     drops only records of already-removed hosts (which the worker would
//     suppress anyway), never a countable scan.
//   * fault injection — a fleet::FaultPlan kills/stalls/degrades workers and
//     corrupts records at scripted stream positions so every recovery path
//     above is exercised deterministically by tests.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/scan_limit_policy.hpp"
#include "fleet/dead_letter.hpp"
#include "fleet/distinct_counter.hpp"
#include "fleet/fault_plan.hpp"
#include "obs/metrics.hpp"
#include "support/stopwatch.hpp"
#include "trace/record.hpp"

namespace worms::support {
class ThreadPool;
}

namespace worms::obs {
class EventLog;
class EventWriter;
class Registry;
class Tracer;
class TraceRing;
}  // namespace worms::obs

namespace worms::trace {
class RecordSource;
}  // namespace worms::trace

namespace worms::fleet {

/// Overload ladder position of one shard, sampled by the ingest thread at
/// every batch push.
enum class ShardHealth : std::uint8_t { Healthy, Degraded, Shedding };

[[nodiscard]] const char* to_string(ShardHealth health) noexcept;

/// Watermark policy driving the overload ladder.  Fill fractions are of the
/// shard queue's capacity; `sustain_pushes` consecutive hot samples escalate,
/// the same number of cool samples recover.
struct OverloadPolicy {
  double degrade_watermark = 0.75;  ///< fill fraction that counts as hot
  double shed_watermark = 0.95;     ///< fill fraction that counts as critical
  unsigned sustain_pushes = 8;      ///< consecutive samples before a transition
};

/// All pipeline knobs in one designated-initializer struct (the
/// MonteCarloOptions idiom): `ContainmentPipeline({.policy = ..., .shards =
/// 4})`.  `validate()` checks every cross-field precondition and is called
/// by the pipeline constructor; call it yourself to fail fast at config
/// parse time.
struct PipelineOptions {
  /// Budget M, cycle length, and check fraction f.  `counting` is ignored:
  /// the pipeline always counts distinct destinations, via `backend`.
  core::ScanCountLimitPolicy::Config policy;
  CounterBackend backend = CounterBackend::Exact;
  int hll_precision = 12;      ///< 2^p bytes/host, ~1.04/sqrt(2^p) rel. error
  /// Shared register pool geometry for CounterBackend::Compact (a few bits
  /// per host, DESIGN.md §13).  Ignored by the other backends except as the
  /// geometry a fault plan's final degrade rung steps down into.
  CompactPoolConfig compact;
  /// Connection-failure containment budget: a host whose *failed* connection
  /// attempts (ConnRecord::outcome) reach this count within one containment
  /// cycle is removed, independent of the distinct-destination budget M —
  /// the paper's observation that worm scans fail far more often than
  /// legitimate traffic.  0 disables enforcement; failures are still tallied
  /// into the verdicts either way.
  std::uint64_t failure_budget = 0;
  unsigned shards = 0;         ///< worker count; 0 = one per hardware thread
  std::size_t batch_size = 1024;     ///< records per queue item
  std::size_t queue_capacity = 64;   ///< batches per shard queue (backpressure)

  /// Checkpointing: every `checkpoint_every` fed records, quiesce and write a
  /// snapshot to `checkpoint_path` (0 = only explicit write_checkpoint calls).
  std::string checkpoint_path;
  std::uint64_t checkpoint_every = 0;

  /// Dead-letter retention bound and optional CSV spill file.
  std::size_t dead_letter_capacity = 1024;
  std::string dead_letter_spill;

  OverloadPolicy overload;

  /// Scripted faults (empty by default): see fleet/fault_plan.hpp.
  FaultPlan faults;

  /// Observability sink (DESIGN.md §8).  Null = uninstrumented: the hot
  /// paths pay one predictable null check per record and nothing else.
  /// When set, the pipeline registers `fleet_*` counters, gauges, and
  /// histograms (and `fleet_pool_*` via the worker pool) and keeps them
  /// live while the stream flows; restore() preloads the stream-position
  /// counters so a resumed run's totals line up with an uninterrupted one.
  /// The registry must outlive the pipeline; verdict-derived metrics are
  /// folded in by finish().
  obs::Registry* metrics = nullptr;

  /// Periodic metrics export, keyed on *absolute* stream position: every
  /// `metrics_export_every` fed records (records_fed() % N == 0, the same
  /// rule maybe_auto_checkpoint uses) the registry snapshot is published
  /// atomically to `metrics_export_path`.  Because the position counts from
  /// the start of the stream — not from pipeline construction — a restored
  /// run exports at exactly the positions the uninterrupted run would have.
  /// Requires `metrics`; 0 disables.
  std::string metrics_export_path;
  std::uint64_t metrics_export_every = 0;
  bool metrics_export_json = false;  ///< JSON instead of Prometheus text

  /// Optional flight recorder (DESIGN.md §9).  Null = untraced.  When set,
  /// the pipeline claims tracer rings 0 (ingest thread), 1..shards (shard
  /// workers), and shards+1.. (pool threads) and records span/instant events
  /// along the reaction path: ingest_batch / shard_batch / checkpoint_write /
  /// checkpoint_restore / metrics_export spans, backpressure stall spans and
  /// queue-wait instants (wall-clock tracers only), and dead-lettered-record
  /// instants.  State transitions are journalled, not traced: set `events`
  /// too and fold the journal in with obs::merge_journal to see them on the
  /// trace timeline.  The tracer must outlive the pipeline.
  obs::Tracer* tracer = nullptr;

  /// Optional structured event journal (DESIGN.md §14).  Null = no journal.
  /// When set, the pipeline claims event writers 0 (ingest thread) and
  /// 1..shards (shard workers) and appends one typed event per state
  /// transition on the reaction path: DegradeStep, CheckpointWrite/Restore,
  /// HostRemoved, FaultClauseFired, OverloadTransition.  Unlike the trace
  /// ring's spans, events are positions in the *stream*, so a synthetic-clock
  /// journal is byte-stable across runs and shard schedules.  The log must
  /// outlive the pipeline.  Compiled out entirely under WORMS_OBS=OFF.
  obs::EventLog* events = nullptr;

  /// Fleet identity stamped into verdicts (the CSV `node` provenance column)
  /// and the event journal.  0 for single-process runs.
  std::uint64_t node_id = 0;

  /// Removal hook for the fleet/net alert-gossip layer: invoked by a shard
  /// worker at the instant a host's removal verdict is decided by the local
  /// policy (never for restored verdicts or pre-containments, so alerts do
  /// not echo).  Runs on the worker thread with no pipeline locks held — the
  /// callee must be thread-safe and cheap (the net layer just appends to a
  /// mutex-guarded pending-alert list).
  std::function<void(std::uint32_t host, sim::SimTime removal_time)> on_removal;

  /// Throws support::PreconditionError on any invalid combination (zero
  /// batch size or queue capacity, > 1024 shards, inverted overload
  /// watermarks, a cadence without its target path/registry).  shards == 0
  /// is valid here (auto-detect); the constructor validates the resolved
  /// count.
  void validate() const;
};

/// One monitored host's outcome.  Times are trace timestamps (sim::SimTime
/// seconds), not wall clock.
struct HostVerdict {
  // Flags first, packed beside the id, so the fields a shard worker reads on
  // every record share a cache line and the struct has no padding holes.
  std::uint32_t host = 0;
  bool flagged = false;               ///< crossed f·M (only meaningful if f < 1)
  bool removed = false;               ///< hit M within a cycle
  /// Removed by a fleet alert (pre_contain), not by the local policy —
  /// removal_time stays 0: the block is administrative, not a trace event.
  bool pre_contained = false;
  /// Removal was decided by the failure budget, not the scan-count limit.
  bool removed_by_failures = false;
  std::uint64_t records_seen = 0;     ///< records processed while the host was up
  std::uint64_t peak_distinct = 0;    ///< max counter value across cycles
  sim::SimTime flag_time = 0.0;       ///< first crossing
  sim::SimTime removal_time = 0.0;
  // Connection-failure policy accounting (always tallied; enforced only when
  // PipelineOptions::failure_budget > 0).
  std::uint64_t failures_seen = 0;   ///< failed connection records, all cycles
  std::uint64_t peak_failures = 0;   ///< max failures within any one cycle

  friend bool operator==(const HostVerdict&, const HostVerdict&) = default;
};

struct ContainmentVerdicts {
  std::vector<HostVerdict> hosts;  ///< every host seen, ascending host id
  /// Provenance: the node that owned the pipeline which decided these
  /// verdicts (PipelineOptions::node_id; 0 for single-process runs).
  std::uint64_t node_id = 0;
  std::uint32_t hosts_flagged = 0;
  std::uint32_t hosts_removed = 0;
  std::uint32_t hosts_pre_contained = 0;  ///< subset of removed: blocked by alerts
  /// Subset of removed: removal decided by the connection-failure budget.
  std::uint32_t hosts_removed_by_failures = 0;

  [[nodiscard]] const HostVerdict* find(std::uint32_t host) const noexcept;
  [[nodiscard]] std::vector<std::uint32_t> removed_hosts() const;

  friend bool operator==(const ContainmentVerdicts&, const ContainmentVerdicts&) = default;
};

struct PipelineMetrics {
  std::uint64_t records_processed = 0;  ///< records ingested via feed()
  std::uint64_t records_suppressed = 0; ///< arrived after their host's removal
  double elapsed_seconds = 0.0;         ///< wall clock, construction → finish()
  double records_per_second = 0.0;
  unsigned shards = 0;
  std::vector<std::size_t> queue_high_water;  ///< per shard, in batches
  std::size_t counter_memory_bytes = 0;       ///< sum of per-host counter footprints

  // Fault-tolerance accounting.
  DeadLetterStats dead_letters;         ///< quarantined-record counters
  std::uint64_t records_shed = 0;       ///< removed-host records dropped under shedding
  std::uint64_t backend_switches = 0;   ///< ladder rungs taken, exact→HLL→compact (incl. restored)
  std::uint32_t workers_killed = 0;     ///< fault-injected worker deaths observed
  std::uint32_t workers_respawned = 0;  ///< replacement workers started
  std::uint64_t checkpoints_written = 0;
  std::uint64_t metrics_exports = 0;  ///< periodic metrics files published
  std::vector<ShardHealth> shard_health;  ///< final ladder position per shard
};

struct PipelineResult {
  ContainmentVerdicts verdicts;
  PipelineMetrics metrics;
};

/// Live point-in-time health snapshot, readable while the stream flows —
/// the payload of a fleet StatsReport frame (`wormctl status`).  Must be
/// taken from the ingest thread (the feed() thread): everything here is
/// either ingest-owned state or an atomic published by the workers.
struct PipelineStatus {
  std::uint64_t records_fed = 0;
  std::uint64_t records_shed = 0;
  std::uint64_t checkpoints_written = 0;
  /// Stream position of the most recent checkpoint/snapshot (0 = none yet).
  std::uint64_t checkpoint_position = 0;
  CounterBackend configured_backend = CounterBackend::Exact;
  std::vector<CounterBackend> shard_backend;  ///< effective rung per shard
  std::vector<ShardHealth> shard_health;      ///< overload ladder per shard
  std::vector<std::uint64_t> queue_depth;     ///< live batches queued per shard
  DeadLetterStats dead_letters;
};

class ContainmentPipeline {
 public:
  /// Spawns the shard workers immediately; feed() may be called right away.
  explicit ContainmentPipeline(const PipelineOptions& options);

  /// Joins the workers (discarding any unprocessed input) if finish() was
  /// never called.
  ~ContainmentPipeline();

  ContainmentPipeline(const ContainmentPipeline&) = delete;
  ContainmentPipeline& operator=(const ContainmentPipeline&) = delete;

  /// Ingests records in stream order.  Timestamps must be non-decreasing
  /// *per source host* (a globally time-sorted stream qualifies); violating
  /// records are routed to the dead-letter channel, not processed.  Blocks
  /// when a shard queue is full — backpressure, not data loss.
  ///
  /// The span overload is the hot path: it validates and routes whole
  /// blocks, breaking only at checkpoint/metrics cadence boundaries and
  /// fault-plan corruption indices so its observable behaviour (snapshots,
  /// exports, dead letters, verdicts) is record-for-record identical to a
  /// loop of single-record feed() calls.
  void feed(const trace::ConnRecord& record);
  void feed(std::span<const trace::ConnRecord> records);
  void feed(const std::vector<trace::ConnRecord>& records);

  /// Pulls `source` dry through the span overload, one block at a time.
  /// The whole trace never needs to be resident.
  void feed(trace::RecordSource& source);

  /// Accounts a record that never became a ConnRecord (e.g. a line the
  /// recovering CSV parser rejected) in the dead-letter channel.
  void report_malformed(std::uint64_t source_line, std::string detail);

  /// Quiesces every shard (all fed records fully processed) and writes a
  /// checkpoint snapshot atomically.  The pipeline keeps running — feed()
  /// may continue immediately after.
  void write_checkpoint(const std::string& path);

  /// Quiesces and returns the raw snapshot image write_checkpoint() would
  /// have framed into a file — the payload a serve node replicates to its
  /// checkpoint peer.  Counts toward the checkpoints-written tally exactly
  /// like a file checkpoint.
  [[nodiscard]] std::string snapshot_blob();

  /// Administratively removes hosts before (or regardless of) any policy
  /// decision — the fleet alert-gossip "immunization" path.  Ordered after
  /// everything fed so far and before everything fed later; hosts never seen
  /// get a zero-count verdict with removed = pre_contained = true.  Must be
  /// called from the ingest thread (the feed() thread); already-removed
  /// hosts are untouched.
  void pre_contain(std::span<const std::uint32_t> hosts);

  /// Rebuilds a pipeline from a snapshot written by write_checkpoint().  The
  /// config's policy/backend/precision must match the snapshot's; the shard
  /// count may differ (state is re-sharded on load).  Resume ingest at
  /// records_fed(): feeding the record suffix yields verdicts bit-identical
  /// to the uninterrupted run.
  [[nodiscard]] static std::unique_ptr<ContainmentPipeline> restore(
      const PipelineOptions& options, const std::string& path);

  /// restore() minus the file: rebuilds from a raw snapshot image as returned
  /// by snapshot_blob() — the replica promotion path, where the snapshot
  /// arrived over a checksummed wire frame instead of a checksummed file.
  [[nodiscard]] static std::unique_ptr<ContainmentPipeline> restore_from_blob(
      const PipelineOptions& options, const std::string& snapshot);

  /// Stream position: number of feed() calls so far (snapshot-restored count
  /// included) — the index the next fed record should have.
  [[nodiscard]] std::uint64_t records_fed() const noexcept { return records_fed_; }

  /// Live dead-letter accounting (also snapshotted into PipelineMetrics).
  [[nodiscard]] const DeadLetterChannel& dead_letters() const noexcept { return dead_letters_; }

  /// Live health snapshot for the fleet status plane.  Call from the ingest
  /// thread only (same contract as feed()); cheap enough to answer every
  /// StatsQuery frame without quiescing.
  [[nodiscard]] PipelineStatus status() const;

  /// Flushes, drains, joins, and reports.  Call exactly once; the pipeline
  /// cannot be fed afterwards.  Rethrows the first worker error, if any.
  [[nodiscard]] PipelineResult finish();

  [[nodiscard]] const PipelineOptions& config() const noexcept { return config_; }

  /// One-shot convenience: construct, feed everything, finish.
  [[nodiscard]] static PipelineResult run(const PipelineOptions& options,
                                          const std::vector<trace::ConnRecord>& records);
  [[nodiscard]] static PipelineResult run(const PipelineOptions& options,
                                          trace::RecordSource& source);

 private:
  struct Shard;
  struct Monitor;
  struct ShardTask;
  struct DeferWorkersTag {};

  /// Instrument handles, resolved once at construction when
  /// config.metrics is set (null handles otherwise).  Streaming counters
  /// are recorded live on the hot paths; verdict-derived ones (hosts
  /// seen/flagged/removed, post-removal records, counter memory) are added
  /// once by finish() so they are deterministic for any shard count.
  struct Obs {
    obs::Counter* ingested = nullptr;        ///< fleet_records_ingested_total
    obs::Counter* shed = nullptr;            ///< fleet_records_shed_total
    obs::Counter* suppressed = nullptr;      ///< fleet_records_suppressed_total
    obs::Counter* post_removal = nullptr;    ///< fleet_records_post_removal_total
    obs::Counter* checkpoints = nullptr;     ///< fleet_checkpoints_written_total
    obs::Counter* hosts_seen = nullptr;      ///< fleet_hosts_seen_total
    obs::Counter* hosts_flagged = nullptr;   ///< fleet_hosts_flagged_total
    obs::Counter* hosts_removed = nullptr;   ///< fleet_hosts_removed_total
    obs::Counter* hosts_pre_contained = nullptr;  ///< fleet_hosts_pre_contained_total
    obs::Counter* backend_switches = nullptr;   ///< fleet_backend_switches_total
    obs::Counter* workers_killed = nullptr;     ///< fleet_workers_killed_total
    obs::Counter* workers_respawned = nullptr;  ///< fleet_workers_respawned_total
    /// fleet_health_transitions_total{to="..."}, indexed by ShardHealth.
    std::array<obs::Counter*, 3> health_transitions{};
    obs::Histogram* checkpoint_seconds = nullptr;  ///< fleet_checkpoint_seconds
    obs::Histogram* batch_records = nullptr;       ///< fleet_batch_records
    obs::Histogram* batch_seconds = nullptr;       ///< fleet_batch_seconds
    obs::Gauge* counter_memory = nullptr;          ///< fleet_counter_memory_bytes
    std::vector<obs::Gauge*> queue_depth;       ///< fleet_queue_depth{shard="i"}
    std::vector<obs::Gauge*> queue_high_water;  ///< fleet_queue_high_water{shard="i"}
    std::vector<obs::Gauge*> shard_health;      ///< fleet_shard_health{shard="i"}
  };

  ContainmentPipeline(const PipelineOptions& options, DeferWorkersTag);

  void setup_metrics();
  void flush_ingest_counters();
  void start_workers();
  void respawn(unsigned shard_index);
  void respawn_dead_workers();
  void push_shard_task(unsigned shard_index, ShardTask task, bool sample_overload);
  /// Pushes the shard's pending batch and starts a fresh one.
  void push_pending(unsigned shard_index, bool sample_overload);
  void observe_overload(unsigned shard_index, double fill_fraction);
  /// Waits until every shard has processed all records fed so far, and
  /// returns each shard's host section of a snapshot, encoded by its worker.
  [[nodiscard]] std::vector<std::string> quiesce();
  void flush_batches();
  /// Bank-colocated routing: all hosts of one shared-pool bank map to the
  /// same shard, so a bank's register contents are independent of the shard
  /// count (what makes compact verdicts and snapshots reshard-stable).
  [[nodiscard]] unsigned shard_of(std::uint32_t host) const noexcept {
    return compact_bank_of(host) % config_.shards;
  }
  void maybe_auto_checkpoint();
  void maybe_auto_export_metrics();
  [[nodiscard]] trace::ConnRecord corrupted(const trace::ConnRecord& record,
                                            std::uint64_t index) const;
  /// Quiesces, encodes a snapshot, writes it to `*path` when non-null, and
  /// counts it — the body of write_checkpoint() and snapshot_blob().
  [[nodiscard]] std::string take_snapshot(const std::string* path);
  [[nodiscard]] std::string encode_snapshot(std::vector<std::string> host_sections) const;
  void decode_snapshot(const std::string& payload);

  PipelineOptions config_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<Monitor> monitors_;
  std::vector<std::vector<trace::ConnRecord>> pending_;  ///< per-shard batch buffers
  std::vector<std::vector<std::uint64_t>> pending_indices_;  ///< stream index per pending record
  std::unique_ptr<support::ThreadPool> pool_;
  DeadLetterChannel dead_letters_;
  std::vector<std::uint64_t> corrupt_indices_;  ///< sorted fault-plan targets
  std::uint64_t records_fed_ = 0;
  std::uint64_t records_shed_ = 0;
  // Portions of records_fed_/records_shed_ already published to obs counters;
  // flush_ingest_counters() adds only the delta, once per batch boundary.
  std::uint64_t obs_ingested_flushed_ = 0;
  std::uint64_t obs_shed_flushed_ = 0;
  std::uint64_t checkpoints_written_ = 0;
  std::uint64_t last_checkpoint_position_ = 0;  ///< records_fed_ at last snapshot
  std::uint64_t metrics_exports_written_ = 0;
  std::uint32_t workers_respawned_ = 0;
  // Restored-from-snapshot baselines, folded into finish()'s metrics.
  std::uint64_t restored_suppressed_ = 0;
  std::uint64_t restored_backend_switches_ = 0;
  trace::ConnRecord last_routed_;  ///< most recent record handed to a shard
  bool has_last_routed_ = false;
  support::Stopwatch stopwatch_;
  Obs obs_;
  obs::TraceRing* trace_ = nullptr;  ///< ingest thread's flight-recorder ring
  obs::EventWriter* events_ = nullptr;  ///< ingest thread's event-journal writer
  bool finished_ = false;
};

/// Deterministic verdict export: one CSV row per host, ascending host id,
/// times printed as printf's %.17g prints them (std::to_chars general form,
/// precision 17) so equal doubles render identically — two runs produce
/// byte-identical files exactly when their verdicts are bit-identical (the
/// cross-format/cross-shard/failover determinism tests compare these).
/// Shared by `wormctl contain` and `wormctl serve`.
void write_verdicts_csv(const std::string& path, const ContainmentVerdicts& verdicts);

}  // namespace worms::fleet
