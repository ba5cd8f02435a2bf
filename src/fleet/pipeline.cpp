#include "fleet/pipeline.hpp"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <exception>
#include <mutex>
#include <optional>
#include <span>
#include <thread>
#include <utility>

#include "fleet/checkpoint.hpp"
#include "fleet/host_table.hpp"
#include "fleet/spsc_ring.hpp"
#include "trace/record_source.hpp"
#include "obs/event_log.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "support/check.hpp"
#include "support/thread_pool.hpp"

namespace worms::fleet {

namespace {

using Batch = std::vector<trace::ConnRecord>;

constexpr auto kWorkerPollInterval = std::chrono::milliseconds(20);

/// Per-host streaming state owned by exactly one shard worker.  Ordered for
/// the batch loop: what every record reads comes first, and the verdict —
/// whose cold tail (timestamps, failure tallies) a record rarely writes —
/// comes last.
struct HostState {
  /// The exact counter (the default backend), held inline so the batch loop
  /// reaches the destination set's slots in one hop from the host entry.
  /// Empty exactly when `approx` holds the host's HLL or compact counter;
  /// every site that places a counter (insert, degrade, snapshot restore)
  /// fills one and clears the other.  The host's backend cannot be derived
  /// from the shard's: a resharded restore may place HLL hosts under a shard
  /// whose effective backend is still Exact.
  std::optional<ExactCounter> exact;
  std::unique_ptr<DistinctCounter> approx;
  std::uint64_t cycle = 0;
  sim::SimTime last_time = 0.0;
  std::uint32_t last_destination = 0;
  bool has_prev = false;  ///< last_time/last_destination hold a processed record
  bool cycle_flagged = false;  ///< crossed f·M in the current cycle
  std::uint64_t cycle_failures = 0;  ///< failed connections in the current cycle
  HostVerdict verdict;

  [[nodiscard]] DistinctCounter& counter() noexcept {
    return exact ? static_cast<DistinctCounter&>(*exact) : *approx;
  }
  [[nodiscard]] const DistinctCounter& counter() const noexcept {
    return exact ? static_cast<const DistinctCounter&>(*exact) : *approx;
  }
};

/// Prefetches every cache line of the bytes [begin, end).
[[gnu::always_inline]] inline void prefetch_lines(const void* begin, const void* end) noexcept {
#if defined(__GNUC__) || defined(__clang__)
  const auto* first = static_cast<const char*>(begin);
  const auto* last = static_cast<const char*>(end) - 1;
  for (const char* c = first; c < last; c += 64) __builtin_prefetch(c);
  __builtin_prefetch(last);
#else
  (void)begin;
  (void)end;
#endif
}

/// Bytes of one host's snapshot record before its counter: id, cycle, flags,
/// last time, last destination, and seven u64/f64 verdict and tally fields.
constexpr std::size_t kHostRecordBytes = 4 + 8 + 1 + 8 + 4 + 7 * 8;

/// Quiesce barrier: one gate shared by a control task pushed to every shard
/// queue.  FIFO order means a worker arriving at the gate has fully processed
/// every batch fed before the quiesce began.  Before arriving, each worker
/// encodes its own hosts into its section, so a snapshot's largest part is
/// encoded on every shard's thread at once.
struct Gate {
  explicit Gate(unsigned n) : sections(n), remaining(n) {}

  /// `failure` is what encoding the shard's section threw, if anything.
  void arrive(std::exception_ptr failure) {
    {
      std::lock_guard lock(mutex);
      if (failure && !error) error = std::move(failure);
      --remaining;
    }
    cv.notify_all();
  }

  [[nodiscard]] bool wait_for(std::chrono::milliseconds timeout) {
    std::unique_lock lock(mutex);
    return cv.wait_for(lock, timeout, [&] { return remaining == 0; });
  }

  std::vector<std::string> sections;  ///< one per shard, written by its worker
  std::mutex mutex;
  std::condition_variable cv;
  unsigned remaining;
  std::exception_ptr error;  ///< first section encode failure
};

[[nodiscard]] std::uint64_t splitmix64(std::uint64_t x) noexcept {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

}  // namespace

const char* to_string(ShardHealth health) noexcept {
  switch (health) {
    case ShardHealth::Healthy: return "healthy";
    case ShardHealth::Degraded: return "degraded";
    case ShardHealth::Shedding: return "shedding";
  }
  return "unknown";
}

const HostVerdict* ContainmentVerdicts::find(std::uint32_t host) const noexcept {
  const auto it = std::lower_bound(
      hosts.begin(), hosts.end(), host,
      [](const HostVerdict& v, std::uint32_t h) { return v.host < h; });
  return (it != hosts.end() && it->host == host) ? &*it : nullptr;
}

std::vector<std::uint32_t> ContainmentVerdicts::removed_hosts() const {
  std::vector<std::uint32_t> out;
  for (const HostVerdict& v : hosts) {
    if (v.removed) out.push_back(v.host);
  }
  return out;
}

/// What travels over a shard queue: a record batch (with per-record stream
/// indices for line-accurate dead-letter diagnostics), or a control task — a
/// quiesce gate or a pre-containment order.
struct ContainmentPipeline::ShardTask {
  Batch records{};
  std::vector<std::uint64_t> indices{};  ///< parallel to records: feed order
  std::shared_ptr<Gate> gate{};
  /// Hosts to administratively remove (fleet alert gossip) — a control task,
  /// FIFO-ordered against record batches like the gate.
  std::vector<std::uint32_t> pre_contain{};
};

/// Overload ladder state for one shard, owned by the ingest thread.
struct ContainmentPipeline::Monitor {
  ShardHealth health = ShardHealth::Healthy;
  unsigned hot = 0;       ///< consecutive samples >= degrade watermark
  unsigned critical = 0;  ///< consecutive samples >= shed watermark
  unsigned cool = 0;      ///< consecutive samples below both
};

/// One shard: a queue and the per-host states of the hosts routed to it,
/// each carrying its own distinct counter and in-cycle budget state.  Host
/// state is touched only by the shard's worker thread (and by the ingest thread
/// after a quiesce gate or the final join — both synchronization points).
struct ContainmentPipeline::Shard {
  explicit Shard(const PipelineOptions& config)
      : queue(config.queue_capacity),
        effective_backend(config.backend),
        published_backend(static_cast<std::uint8_t>(config.backend)),
        hll_precision(config.hll_precision),
        scan_limit(config.policy.scan_limit),
        check_fraction(config.policy.check_fraction),
        cycle_length(config.policy.cycle_length),
        pool(config.compact),
        failure_budget(config.failure_budget) {}

  void consume(DeadLetterChannel& dead_letters) {
    for (;;) {
      // Fault-injected death, checked between tasks so a "crash" never tears
      // a batch.  kill_fired persists across respawns: the kill fires once.
      if (kill_requested && !kill_fired && batches_done >= kill_after) {
        kill_fired = true;
        if (events != nullptr) {
          events->emit(obs::EventType::FaultClauseFired, last_stream_index,
                       static_cast<std::uint64_t>(obs::FaultKind::WorkerKill), index);
        }
        dead.store(true, std::memory_order_release);
        return;
      }
      auto task = queue.pop_wait_for(kWorkerPollInterval);
      if (!task) {
        if (queue.drained()) return;
        // Timeout: re-check faults, keep waiting.  Wall-clock traces record
        // the starved poll; synthetic ones stay silent (scheduling noise).
        if (trace != nullptr && trace->wall_clock()) trace->instant("queue_pop_wait");
        continue;
      }
      if (task->gate) {
        std::exception_ptr failure;
        try {
          task->gate->sections[index] = encode_hosts();
        } catch (...) {
          failure = std::current_exception();
        }
        task->gate->arrive(std::move(failure));
        continue;
      }
      if (!task->pre_contain.empty()) {
        for (const std::uint32_t host : task->pre_contain) apply_pre_containment(host);
        continue;
      }
      if (!error) {
        WORMS_TRACE_SPAN(task->records.empty() ? nullptr : trace, "shard_batch");
        const support::Stopwatch batch_watch;
        try {
          // For big fleets each record's work is a chain of dependent misses
          // (host slot → host entry → destination-set slot), so the loop
          // walks that chain for records further ahead, one link per stage.
          // When the table still fits in L2 the lookahead is pure per-record
          // overhead (hashes + issue slots), so it only switches on once the
          // table outgrows cache residency.
          constexpr std::size_t kPrefetchMinSlots = std::size_t{1} << 15;  // 256 KiB of slots
          const std::size_t n = task->records.size();
          if (hosts.capacity() >= kPrefetchMinSlots) {
            for (std::size_t i = 0; i < n; ++i) {
              prefetch_ahead(task->records, i);
              process(task->records[i], task->indices[i], dead_letters);
            }
          } else {
            for (std::size_t i = 0; i < n; ++i) {
              process(task->records[i], task->indices[i], dead_letters);
            }
          }
        } catch (...) {
          error = std::current_exception();
          // keep draining so the producer never blocks on a full queue
        }
        if (obs != nullptr) {
          if (!task->records.empty()) {
            obs->batch_seconds->record(batch_watch.elapsed_seconds(), index);
          }
          // Suppression counts flush at batch granularity: one atomic add per
          // batch instead of one per suppressed record (DESIGN.md §8 budget).
          if (const std::uint64_t delta = suppressed - suppressed_flushed) {
            obs->suppressed->add(delta, index);
            suppressed_flushed = suppressed;
          }
        }
      }
      ++batches_done;
      for (PendingStall& stall : stalls) {
        if (!stall.fired && batches_done >= stall.after) {
          stall.fired = true;
          if (events != nullptr) {
            events->emit(obs::EventType::FaultClauseFired, last_stream_index,
                         static_cast<std::uint64_t>(obs::FaultKind::WorkerStall), index);
          }
          std::this_thread::sleep_for(std::chrono::duration<double>(stall.seconds));
        }
      }
      // Each fault-plan degrade clause walks exactly one rung of the backend
      // ladder; the fired flag keeps a passed threshold from re-firing every
      // batch (two clauses = two rungs, never more).
      for (PendingDegrade& d : degrade_after) {
        if (!d.fired && batches_done >= d.after) {
          d.fired = true;
          degrade();
        }
      }
    }
  }

  /// The batch loop's staged lookahead, run before processing record i.
  /// Each stage reads only lines the stage before it pulled in for the same
  /// record: the host slot kSlotAhead records out, then (kEntryAhead out)
  /// the host entry that slot names, then (kSetAhead out) the destination-
  /// set slot that entry's exact counter will probe.  A host the table does
  /// not hold yet (its first record) has nothing to pull in and is skipped.
  /// Always inlined, like the table prefetches it calls: a prefetch is no
  /// side effect to GCC's pure/const inference, so an out-of-line call to
  /// this would be deleted as dead.
  [[gnu::always_inline]] void prefetch_ahead(const Batch& records,
                                             std::size_t i) const noexcept {
    constexpr std::size_t kSlotAhead = 12;
    constexpr std::size_t kEntryAhead = 8;
    constexpr std::size_t kSetAhead = 4;
    const std::size_t n = records.size();
    if (i + kSlotAhead < n) hosts.prefetch(records[i + kSlotAhead].source_host);
    if (i + kEntryAhead < n) {
      if (const HostState* h = hosts.find(records[i + kEntryAhead].source_host)) {
        prefetch_lines(h, &h->verdict.flag_time);  // all but the verdict's cold tail
      }
    }
    if (i + kSetAhead < n) {
      const trace::ConnRecord& r = records[i + kSetAhead];
      const HostState* h = hosts.find(r.source_host);
      if (h != nullptr && h->exact) h->exact->prefetch(r.destination.value());
    }
  }

  void process(const trace::ConnRecord& r, std::uint64_t stream_index,
               DeadLetterChannel& dead_letters) {
    last_stream_index = stream_index;
    auto [it, inserted] = hosts.try_emplace(r.source_host);
    HostState& h = it->second;
    if (inserted) {
      place_counter(h, r.source_host);
      h.verdict.host = r.source_host;
      h.cycle = cycle_index(r.timestamp);
    }
    if (h.verdict.removed) {
      ++suppressed;  // host is offline for heavy-duty checking; obs flushes per batch
      return;
    }
    if (h.has_prev) {
      if (r.timestamp < h.last_time) {
        if (trace != nullptr) {
          trace->instant("dead_letter_out_of_order", static_cast<double>(stream_index));
        }
        dead_letters.report({DeadLetterReason::OutOfOrder, r, stream_index,
                             "timestamp regressed for host " + std::to_string(r.source_host)});
        return;
      }
      if (r.timestamp == h.last_time && r.destination.value() == h.last_destination) {
        if (trace != nullptr) {
          trace->instant("dead_letter_duplicate", static_cast<double>(stream_index));
        }
        dead_letters.report({DeadLetterReason::Duplicate, r, stream_index,
                             "repeats host " + std::to_string(r.source_host) +
                                 "'s previous record"});
        return;
      }
    }
    h.last_time = r.timestamp;
    h.last_destination = r.destination.value();
    h.has_prev = true;
    ++h.verdict.records_seen;

    const std::uint64_t cycle = cycle_index(r.timestamp);
    if (cycle != h.cycle) {
      // Containment-cycle boundary: the counter and the in-cycle flag restart.
      h.counter().reset();
      h.cycle = cycle;
      h.cycle_flagged = false;
      h.cycle_failures = 0;
    }

    // Connection-failure tally (always), enforcement (only when budgeted)
    // after the distinct-destination work below so a record that exhausts
    // both budgets reports the scan-limit removal — the paper's primary
    // mechanism — not the failure one.
    if (r.outcome == trace::kOutcomeFailure) {
      ++h.verdict.failures_seen;
      ++h.cycle_failures;
      if (h.cycle_failures > h.verdict.peak_failures) {
        h.verdict.peak_failures = h.cycle_failures;
      }
    }

    // Static dispatch for the exact backend (the default): add() and count()
    // inline down to one open-addressing probe instead of two virtual calls
    // per record — worth ~10% of the shard worker's per-record budget.
    std::uint32_t new_distinct;
    std::uint64_t tally;
    if (h.exact) {
      new_distinct = h.exact->add(r.destination.value());
      tally = h.exact->count();
    } else {
      new_distinct = h.approx->add(r.destination.value());
      tally = h.approx->count();
    }
    if (tally > h.verdict.peak_distinct) {
      h.verdict.peak_distinct = tally;
    }
    // The budget rule over this record's new distinct units, applied in one
    // step to the tally: flag at f·M, remove at M (paper steps 3–4).
    const core::ScanBudgetStep step =
        core::scan_budget_step(tally - new_distinct, tally, scan_limit, check_fraction);
    if (step.flag && !h.cycle_flagged) {
      h.cycle_flagged = true;
      if (!h.verdict.flagged) {
        h.verdict.flagged = true;
        h.verdict.flag_time = r.timestamp;
      }
    }
    if (step.remove) {
      h.verdict.removed = true;
      h.verdict.removal_time = r.timestamp;
      if (events != nullptr) {
        events->emit(obs::EventType::HostRemoved, stream_index, r.source_host, 0);
      }
      // Fire the alert hook only for genuine policy removals: restored and
      // pre-contained verdicts never re-announce, so gossip cannot echo.
      if (on_removal != nullptr && *on_removal) {
        (*on_removal)(r.source_host, r.timestamp);
      }
    }
    if (failure_budget > 0 && !h.verdict.removed && h.cycle_failures >= failure_budget) {
      h.verdict.removed = true;
      h.verdict.removed_by_failures = true;
      h.verdict.removal_time = r.timestamp;
      if (events != nullptr) {
        events->emit(obs::EventType::HostRemoved, stream_index, r.source_host, 1);
      }
      if (on_removal != nullptr && *on_removal) {
        (*on_removal)(r.source_host, r.timestamp);
      }
    }
  }

  /// Administrative removal via fleet alert (ShardTask::pre_contain).  A
  /// never-seen host gets a fresh zero-count state so its verdict reports the
  /// block; an already-removed host is untouched (the pre_contained flag
  /// marks only blocks this path performed).
  void apply_pre_containment(std::uint32_t id) {
    auto [it, inserted] = hosts.try_emplace(id);
    HostState& h = it->second;
    if (inserted) {
      place_counter(h, id);
      h.verdict.host = id;
    }
    if (h.verdict.removed) return;
    h.verdict.removed = true;
    h.verdict.pre_contained = true;
    if (events != nullptr) {
      events->emit(obs::EventType::HostRemoved, last_stream_index, id, 2);
    }
  }

  /// Gives a new host a fresh counter on this shard's backend: exact inline,
  /// compact bound to the shard-owned register pool (bank-colocated routing
  /// guarantees the host's bank lives here), HLL through the plain factory.
  void place_counter(HostState& h, std::uint32_t host) {
    if (effective_backend == CounterBackend::Exact) {
      h.exact.emplace();
    } else if (effective_backend == CounterBackend::Compact) {
      h.approx = std::make_unique<CompactCounter>(pool.bank_for(compact_bank_of(host)), host);
    } else {
      h.approx = make_distinct_counter(effective_backend, hll_precision);
    }
  }

  /// One-way, one-rung backend degrade: exact → HLL → compact.  Each rung
  /// converts this shard's live counters, carrying every tally forward as
  /// the new backend's reported baseline so no host's spent budget is
  /// refunded or double-charged — the tally the budget rule reads does not
  /// move at the switch.  Exact state replays into the successor (set
  /// contents for HLL, slice registers for compact); an HLL sketch cannot be
  /// replayed, so HLL→compact is a baseline carry over an empty slice
  /// (conservative: repeats may charge again).
  void degrade() {
    if (effective_backend == CounterBackend::Compact) return;  // bottom rung
    const CounterBackend from = effective_backend;
    effective_backend =
        from == CounterBackend::Exact ? CounterBackend::Hll : CounterBackend::Compact;
    published_backend.store(static_cast<std::uint8_t>(effective_backend),
                            std::memory_order_release);
    ++backend_switches_this_run;
    if (events != nullptr) {
      events->emit(obs::EventType::DegradeStep, last_stream_index, index,
                   static_cast<std::uint64_t>(effective_backend));
    }
    for (auto& [id, h] : hosts) {
      if (h.verdict.removed) continue;  // never counted again
      if (effective_backend == CounterBackend::Hll) {
        if (h.exact) {
          h.approx = std::make_unique<HllCounter>(hll_precision, h.exact->table(),
                                                  h.exact->count());
          h.exact.reset();
        }
      } else {
        SketchBank& bank = pool.bank_for(compact_bank_of(id));
        if (h.exact) {
          h.approx = std::make_unique<CompactCounter>(bank, id, h.exact->table(),
                                                      h.exact->count());
          h.exact.reset();
        } else if (h.approx->backend() == CounterBackend::Hll) {
          h.approx = std::make_unique<CompactCounter>(bank, id, h.approx->count());
        }
      }
    }
  }

  /// This shard's host records of a snapshot, in table order, in a buffer
  /// sized once.  Runs on the worker thread at the quiesce gate.
  [[nodiscard]] std::string encode_hosts() const {
    std::size_t bytes = 0;
    for (const auto& [id, h] : hosts) {
      bytes += kHostRecordBytes + encoded_counter_bytes(h.counter());
    }
    BinaryWriter out;
    out.reserve(bytes);
    for (const auto& [id, h] : hosts) {
      out.put_u32(id);
      out.put_u64(h.cycle);
      std::uint8_t flags = 0;
      if (h.cycle_flagged) flags |= 1u;
      if (h.verdict.flagged) flags |= 2u;
      if (h.verdict.removed) flags |= 4u;
      if (h.has_prev) flags |= 8u;
      if (h.verdict.pre_contained) flags |= 16u;
      if (h.verdict.removed_by_failures) flags |= 32u;
      out.put_u8(flags);
      out.put_f64(h.last_time);
      out.put_u32(h.last_destination);
      out.put_u64(h.verdict.records_seen);
      out.put_u64(h.verdict.peak_distinct);
      out.put_f64(h.verdict.flag_time);
      out.put_f64(h.verdict.removal_time);
      out.put_u64(h.verdict.failures_seen);
      out.put_u64(h.verdict.peak_failures);
      out.put_u64(h.cycle_failures);
      encode_counter(out, h.counter());
    }
    WORMS_ENSURES(out.size() == bytes && "snapshot host section size mismatch");
    return std::move(out).take();
  }

  [[nodiscard]] std::uint64_t cycle_index(sim::SimTime now) const noexcept {
    return static_cast<std::uint64_t>(now / cycle_length);
  }

  SpscRing<ShardTask> queue;
  CounterBackend effective_backend;  ///< what newly seen hosts get
  /// Mirror of effective_backend readable from the ingest thread (the status
  /// plane): the worker owns effective_backend and publishes every rung walk
  /// here with a release store.
  std::atomic<std::uint8_t> published_backend;
  const int hll_precision;
  const std::uint64_t scan_limit;  ///< M
  const double check_fraction;     ///< f
  const sim::SimTime cycle_length;
  /// Shared compact-counter register pool.  Declared before `hosts` so the
  /// counters' raw bank pointers outlive them at destruction (members are
  /// destroyed in reverse declaration order).
  SharedSketchPool pool;
  const std::uint64_t failure_budget;  ///< 0 = tally failures but never remove
  HostTable<HostState> hosts;
  std::uint64_t suppressed = 0;
  std::uint64_t suppressed_flushed = 0;  ///< portion of `suppressed` already in obs
  std::exception_ptr error;

  unsigned index = 0;         ///< this shard's position (labels + obs cell)
  const Obs* obs = nullptr;   ///< non-null only when the pipeline is instrumented
  /// Alert hook (PipelineOptions::on_removal); null when unset.
  const std::function<void(std::uint32_t, sim::SimTime)>* on_removal = nullptr;
  obs::TraceRing* trace = nullptr;  ///< this shard worker's flight-recorder ring
  obs::EventWriter* events = nullptr;  ///< this shard worker's journal writer
  /// Stream index of the last record handed to process() — the position a
  /// control-task event (degrade order, pre-containment) is journalled at.
  /// FIFO queues make it deterministic per shard.
  std::uint64_t last_stream_index = 0;

  // Fault wiring (configured before workers start, then worker-owned).
  bool kill_requested = false;
  std::uint64_t kill_after = 0;
  bool kill_fired = false;
  struct PendingDegrade {
    std::uint64_t after = 0;
    bool fired = false;
  };
  std::vector<PendingDegrade> degrade_after;
  struct PendingStall {
    std::uint64_t after = 0;
    double seconds = 0.0;
    bool fired = false;
  };
  std::vector<PendingStall> stalls;
  std::uint64_t batches_done = 0;

  std::uint64_t backend_switches_this_run = 0;  ///< degrade rungs walked this run
  std::atomic<bool> dead{false};   ///< worker returned via fault injection
};

void PipelineOptions::validate() const {
  WORMS_EXPECTS(policy.scan_limit >= 1);
  WORMS_EXPECTS(policy.cycle_length > 0.0);
  WORMS_EXPECTS(policy.check_fraction > 0.0 && policy.check_fraction <= 1.0);
  WORMS_EXPECTS(batch_size >= 1);
  compact.validate();  // every shard hosts a pool, whatever the start backend
  WORMS_EXPECTS(queue_capacity >= 1);
  WORMS_EXPECTS(shards <= 1024);  // 0 = auto-detect, resolved at construction
  WORMS_EXPECTS(overload.degrade_watermark <= overload.shed_watermark);
  WORMS_EXPECTS(overload.sustain_pushes >= 1);
  WORMS_EXPECTS((checkpoint_every == 0 || !checkpoint_path.empty()) &&
                "checkpoint_every requires checkpoint_path");
  WORMS_EXPECTS((metrics_export_every == 0 ||
                 (!metrics_export_path.empty() && metrics != nullptr)) &&
                "metrics_export_every requires metrics_export_path and a registry");
}

ContainmentPipeline::ContainmentPipeline(const PipelineOptions& options)
    : ContainmentPipeline(options, DeferWorkersTag{}) {
  start_workers();
}

ContainmentPipeline::ContainmentPipeline(const PipelineOptions& options, DeferWorkersTag)
    : config_(options),
      dead_letters_({.capacity = options.dead_letter_capacity,
                     .spill_path = options.dead_letter_spill,
                     .metrics = obs::kEnabled ? options.metrics : nullptr}) {
  config_.validate();
  if (config_.shards == 0) config_.shards = support::ThreadPool::hardware_threads();
  WORMS_EXPECTS(config_.shards >= 1 && config_.shards <= 1024);

  setup_metrics();
  shards_.reserve(config_.shards);
  pending_.resize(config_.shards);
  pending_indices_.resize(config_.shards);
  monitors_.resize(config_.shards);
  obs::Tracer* tracer = obs::kEnabled ? config_.tracer : nullptr;
  if (tracer != nullptr) trace_ = &tracer->ring(0);  // ingest thread
  obs::EventLog* events = obs::kEnabled ? config_.events : nullptr;
  if (events != nullptr) events_ = &events->writer(0);  // ingest thread
  for (unsigned s = 0; s < config_.shards; ++s) {
    shards_.push_back(std::make_unique<Shard>(config_));
    shards_[s]->index = s;
    if (config_.on_removal) shards_[s]->on_removal = &config_.on_removal;
    if (obs_.ingested != nullptr) shards_[s]->obs = &obs_;
    if (tracer != nullptr) {
      // Logical tid s+1 regardless of which pool thread runs the worker, so
      // a respawned worker continues its predecessor's ring (the dead-flag
      // handshake orders the handoff).
      shards_[s]->trace = &tracer->ring(s + 1);
    }
    // Same logical-id discipline as the trace rings: writer s+1 follows the
    // shard, not the pool thread, so respawned workers continue the stream.
    if (events != nullptr) shards_[s]->events = &events->writer(s + 1);
    pending_[s].reserve(config_.batch_size);
    pending_indices_[s].reserve(config_.batch_size);
  }

  for (const FaultPlan::WorkerFault& kill : config_.faults.kills) {
    WORMS_EXPECTS(kill.shard < config_.shards && "fault plan kill shard out of range");
    Shard& shard = *shards_[kill.shard];
    if (!shard.kill_requested || kill.after_batches < shard.kill_after) {
      shard.kill_requested = true;
      shard.kill_after = kill.after_batches;
    }
  }
  for (const FaultPlan::WorkerFault& degrade : config_.faults.degrades) {
    WORMS_EXPECTS(degrade.shard < config_.shards && "fault plan degrade shard out of range");
    shards_[degrade.shard]->degrade_after.push_back({degrade.after_batches, false});
  }
  for (const FaultPlan::StallFault& stall : config_.faults.stalls) {
    WORMS_EXPECTS(stall.shard < config_.shards && "fault plan stall shard out of range");
    shards_[stall.shard]->stalls.push_back({stall.after_batches, stall.seconds, false});
  }
  corrupt_indices_ = config_.faults.corrupt_records;
  std::sort(corrupt_indices_.begin(), corrupt_indices_.end());

  pool_ = std::make_unique<support::ThreadPool>(config_.shards);
  if (obs_.ingested != nullptr) pool_->instrument(*config_.metrics, "fleet_pool");
  if (tracer != nullptr) pool_->instrument_trace(*tracer, config_.shards + 1);
}

void ContainmentPipeline::setup_metrics() {
  if (!obs::kEnabled || config_.metrics == nullptr) return;
  obs::Registry& reg = *config_.metrics;
  obs_.ingested = &reg.counter("fleet_records_ingested_total");
  obs_.suppressed = &reg.counter("fleet_records_suppressed_total");
  obs_.post_removal = &reg.counter("fleet_records_post_removal_total");
  obs_.checkpoints = &reg.counter("fleet_checkpoints_written_total");
  obs_.hosts_seen = &reg.counter("fleet_hosts_seen_total");
  obs_.hosts_flagged = &reg.counter("fleet_hosts_flagged_total");
  obs_.hosts_removed = &reg.counter("fleet_hosts_removed_total");
  obs_.hosts_pre_contained = &reg.counter("fleet_hosts_pre_contained_total");
  obs_.backend_switches = &reg.counter("fleet_backend_switches_total");
  obs_.workers_killed = &reg.counter("fleet_workers_killed_total");
  obs_.workers_respawned = &reg.counter("fleet_workers_respawned_total");
  for (int h = 0; h < 3; ++h) {
    obs_.health_transitions[static_cast<std::size_t>(h)] =
        &reg.counter(std::string("fleet_health_transitions_total{to=\"") +
                     to_string(static_cast<ShardHealth>(h)) + "\"}");
  }
  obs_.checkpoint_seconds = &reg.histogram("fleet_checkpoint_seconds");
  obs_.batch_records =
      &reg.histogram("fleet_batch_records", {.first_bound = 1.0, .bounds = 16});
  obs_.batch_seconds = &reg.histogram("fleet_batch_seconds");
  obs_.counter_memory = &reg.gauge("fleet_counter_memory_bytes");
  obs_.queue_depth.resize(config_.shards);
  obs_.queue_high_water.resize(config_.shards);
  obs_.shard_health.resize(config_.shards);
  for (unsigned s = 0; s < config_.shards; ++s) {
    const std::string label = "{shard=\"" + std::to_string(s) + "\"}";
    obs_.queue_depth[s] = &reg.gauge("fleet_queue_depth" + label);
    obs_.queue_high_water[s] = &reg.gauge("fleet_queue_high_water" + label);
    obs_.shard_health[s] = &reg.gauge("fleet_shard_health" + label);
  }
}

void ContainmentPipeline::start_workers() {
  for (unsigned s = 0; s < config_.shards; ++s) {
    pool_->submit([this, s] { shards_[s]->consume(dead_letters_); });
  }
}

ContainmentPipeline::~ContainmentPipeline() {
  if (!finished_) {
    for (auto& shard : shards_) shard->queue.close();
    // ThreadPool's destructor drains the consume() jobs; a fault-killed
    // worker's leftover queue items are discarded with the queue.
  }
}

trace::ConnRecord ContainmentPipeline::corrupted(const trace::ConnRecord& record,
                                                 std::uint64_t index) const {
  const std::uint64_t roll = splitmix64(config_.faults.seed ^ index);
  if ((roll & 1) == 0 || !has_last_routed_) {
    // Malformed: a timestamp no real trace produces, caught at ingest.
    trace::ConnRecord bad = record;
    bad.timestamp = -1.0 - bad.timestamp;
    return bad;
  }
  // Duplicate: replay the last record that actually reached a shard — its
  // host's previous record is exactly it, so classification is guaranteed.
  return last_routed_;
}

void ContainmentPipeline::feed(const trace::ConnRecord& record) {
  WORMS_EXPECTS(!finished_);
  const std::uint64_t index = records_fed_++;  // obs flushes per batch, not per record
  trace::ConnRecord r = record;
  if (!corrupt_indices_.empty() &&
      std::binary_search(corrupt_indices_.begin(), corrupt_indices_.end(), index)) {
    if (events_ != nullptr) {
      events_->emit(obs::EventType::FaultClauseFired, index,
                    static_cast<std::uint64_t>(obs::FaultKind::RecordCorrupt),
                    shard_of(record.source_host));
    }
    r = corrupted(record, index);
  }
  if (!std::isfinite(r.timestamp) || r.timestamp < 0.0) {
    if (trace_ != nullptr) {
      trace_->instant("dead_letter_malformed", static_cast<double>(index));
    }
    dead_letters_.report({DeadLetterReason::Malformed, r, index,
                          "non-finite or negative timestamp"});
    maybe_auto_checkpoint();
    maybe_auto_export_metrics();
    return;
  }
  const unsigned s = shard_of(r.source_host);
  pending_[s].push_back(r);
  pending_indices_[s].push_back(index);
  last_routed_ = r;
  has_last_routed_ = true;
  if (pending_[s].size() >= config_.batch_size) push_pending(s, /*sample_overload=*/true);
  maybe_auto_checkpoint();
  maybe_auto_export_metrics();
}

void ContainmentPipeline::feed(std::span<const trace::ConnRecord> records) {
  WORMS_EXPECTS(!finished_);
  std::size_t i = 0;
  const std::size_t n = records.size();
  while (i < n) {
    // Chunk so that no checkpoint/metrics cadence boundary and no fault-plan
    // corruption index falls strictly inside a block: cadences fire exactly
    // at block ends, corrupt records detour through the single-record path.
    // Everything the single-record feed() observes per record, this path
    // observes at the same stream positions — that is the bit-identity
    // contract the determinism suites pin.
    std::uint64_t chunk = n - i;
    if (config_.checkpoint_every != 0) {
      chunk = std::min<std::uint64_t>(
          chunk, config_.checkpoint_every - records_fed_ % config_.checkpoint_every);
    }
    if (config_.metrics_export_every != 0) {
      chunk = std::min<std::uint64_t>(
          chunk, config_.metrics_export_every - records_fed_ % config_.metrics_export_every);
    }
    if (!corrupt_indices_.empty()) {
      const auto next = std::lower_bound(corrupt_indices_.begin(), corrupt_indices_.end(),
                                         records_fed_);
      if (next != corrupt_indices_.end()) {
        if (*next == records_fed_) {
          feed(records[i]);
          ++i;
          continue;
        }
        chunk = std::min<std::uint64_t>(chunk, *next - records_fed_);
      }
    }

    const trace::ConnRecord* last = nullptr;
    const std::size_t block_end = i + static_cast<std::size_t>(chunk);
    for (; i < block_end; ++i) {
      const trace::ConnRecord& r = records[i];
      const std::uint64_t index = records_fed_++;
      if (!std::isfinite(r.timestamp) || r.timestamp < 0.0) {
        if (trace_ != nullptr) {
          trace_->instant("dead_letter_malformed", static_cast<double>(index));
        }
        dead_letters_.report({DeadLetterReason::Malformed, r, index,
                              "non-finite or negative timestamp"});
        continue;
      }
      const unsigned s = shard_of(r.source_host);
      pending_[s].push_back(r);
      pending_indices_[s].push_back(index);
      last = &r;
      if (pending_[s].size() >= config_.batch_size) push_pending(s, /*sample_overload=*/true);
    }
    if (last != nullptr) {
      last_routed_ = *last;
      has_last_routed_ = true;
    }
    maybe_auto_checkpoint();
    maybe_auto_export_metrics();
  }
}

void ContainmentPipeline::feed(const std::vector<trace::ConnRecord>& records) {
  feed(std::span<const trace::ConnRecord>(records));
}

void ContainmentPipeline::feed(trace::RecordSource& source) {
  // Block size trades RecordSource virtual-call amortization against cache
  // residency of the staging buffer (8192 records = 128 KiB).
  constexpr std::size_t kPullBlock = 8192;
  std::vector<trace::ConnRecord> block(kPullBlock);
  for (;;) {
    const std::size_t got = source.next_batch(std::span<trace::ConnRecord>(block));
    if (got == 0) break;
    feed(std::span<const trace::ConnRecord>(block.data(), got));
  }
}

void ContainmentPipeline::report_malformed(std::uint64_t source_line, std::string detail) {
  dead_letters_.report(
      {DeadLetterReason::Malformed, trace::ConnRecord{}, source_line, std::move(detail)});
}

void ContainmentPipeline::push_pending(unsigned shard_index, bool sample_overload) {
  ShardTask task{.records = std::move(pending_[shard_index]),
                 .indices = std::move(pending_indices_[shard_index])};
  pending_[shard_index] = Batch();
  pending_[shard_index].reserve(config_.batch_size);
  pending_indices_[shard_index] = std::vector<std::uint64_t>();
  pending_indices_[shard_index].reserve(config_.batch_size);
  push_shard_task(shard_index, std::move(task), sample_overload);
}

void ContainmentPipeline::push_shard_task(unsigned shard_index, ShardTask task,
                                          bool sample_overload) {
  Shard& shard = *shards_[shard_index];
  const std::size_t batch_len = task.records.size();
  WORMS_TRACE_SPAN(batch_len > 0 ? trace_ : nullptr, "ingest_batch");
  bool first_attempt = true;
  bool stall_open = false;  // wall-gated queue_push_stall span in flight
  unsigned spins = 0;
  for (;;) {
    if (shard.dead.load(std::memory_order_acquire)) respawn(shard_index);
    if (shard.queue.try_push(task)) {
      if (stall_open) trace_->span_end("queue_push_stall");
      flush_ingest_counters();
      if (sample_overload && first_attempt) {
        if (obs_.batch_records != nullptr) {
          const double depth = static_cast<double>(shard.queue.size());
          obs_.queue_depth[shard_index]->set(depth);
          obs_.queue_high_water[shard_index]->update_max(depth);
          obs_.batch_records->record(static_cast<double>(batch_len));
        }
        observe_overload(shard_index,
                         static_cast<double>(shard.queue.size()) /
                             static_cast<double>(shard.queue.capacity()));
      }
      return;
    }
    if (sample_overload && first_attempt) {
      observe_overload(shard_index, 1.0);  // a failed push is a full queue
      first_attempt = false;
    }
    // Backpressure stall: a span (not an instant) so the viewer shows the
    // blocked ingest wall time.  Wall clocks only — in synthetic time the
    // retry count is scheduling noise.
    if (!stall_open && trace_ != nullptr && trace_->wall_clock()) {
      trace_->span_begin("queue_push_stall");
      stall_open = true;
    }
    // Workers drain a full queue in tens of microseconds, so a fixed 1 ms nap
    // here used to be the pipeline's wall-clock floor: the ingest thread
    // oversleeps the drain by ~30x and every queue sits empty meanwhile.
    // Spin briefly (the common case resolves within one batch's processing
    // time), then back off in 50 us slices — the same cadence SpscRing's
    // consumer wait uses.
    if (++spins < 64) {
      std::this_thread::yield();
    } else {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }
}

void ContainmentPipeline::flush_ingest_counters() {
  // Ingest-side counters mirror plain members that feed() already maintains;
  // publishing the delta once per batch keeps the per-record hot path free of
  // atomic operations (the overhead budget in DESIGN.md §8).  Only the ingest
  // thread calls this, so the flushed marker needs no synchronisation.
  if (obs_.ingested == nullptr) return;
  obs_.ingested->add(records_fed_ - obs_ingested_flushed_);
  obs_ingested_flushed_ = records_fed_;
}

void ContainmentPipeline::observe_overload(unsigned shard_index, double fill_fraction) {
  Monitor& m = monitors_[shard_index];
  const OverloadPolicy& p = config_.overload;
  if (fill_fraction >= p.shed_watermark) {
    ++m.hot;
    ++m.critical;
    m.cool = 0;
  } else if (fill_fraction >= p.degrade_watermark) {
    ++m.hot;
    m.critical = 0;
    m.cool = 0;
  } else {
    ++m.cool;
    m.hot = 0;
    m.critical = 0;
  }

  const auto transition = [&](ShardHealth next) {
    m.health = next;
    m.hot = m.critical = m.cool = 0;
    if (obs_.ingested != nullptr) {
      obs_.health_transitions[static_cast<std::size_t>(next)]->add(1);
      obs_.shard_health[shard_index]->set(static_cast<double>(next));
    }
    // Overload transitions are queue-timing artifacts: journal them only on
    // the wall clock, so synthetic journals stay scheduling-independent.
    if (events_ != nullptr && events_->wall_clock()) {
      events_->emit(obs::EventType::OverloadTransition, records_fed_, shard_index,
                    static_cast<std::uint64_t>(next));
    }
  };
  switch (m.health) {
    case ShardHealth::Healthy:
      if (m.hot >= p.sustain_pushes) transition(ShardHealth::Degraded);
      break;
    case ShardHealth::Degraded:
      if (m.critical >= p.sustain_pushes) {
        transition(ShardHealth::Shedding);
      } else if (m.cool >= p.sustain_pushes) {
        transition(ShardHealth::Healthy);
      }
      break;
    case ShardHealth::Shedding:
      if (m.cool >= p.sustain_pushes) transition(ShardHealth::Degraded);
      break;
  }
}

void ContainmentPipeline::respawn(unsigned shard_index) {
  Shard& shard = *shards_[shard_index];
  shard.dead.store(false, std::memory_order_release);
  ++workers_respawned_;
  if (obs_.workers_respawned != nullptr) obs_.workers_respawned->add(1);
  // The respawn position depends on when the ingest thread *notices* the dead
  // flag — wall-clock journals only, like the overload transitions above.
  if (events_ != nullptr && events_->wall_clock()) {
    events_->emit(obs::EventType::FaultClauseFired, records_fed_,
                  static_cast<std::uint64_t>(obs::FaultKind::WorkerRespawn), shard_index);
  }
  pool_->submit([this, shard_index] { shards_[shard_index]->consume(dead_letters_); });
}

void ContainmentPipeline::respawn_dead_workers() {
  for (unsigned s = 0; s < config_.shards; ++s) {
    if (shards_[s]->dead.load(std::memory_order_acquire)) respawn(s);
  }
}

void ContainmentPipeline::flush_batches() {
  for (unsigned s = 0; s < config_.shards; ++s) {
    if (!pending_[s].empty()) push_pending(s, /*sample_overload=*/false);
  }
}

std::vector<std::string> ContainmentPipeline::quiesce() {
  flush_batches();
  auto gate = std::make_shared<Gate>(config_.shards);
  for (unsigned s = 0; s < config_.shards; ++s) {
    push_shard_task(s, ShardTask{.gate = gate}, /*sample_overload=*/false);
  }
  // FIFO queues: once every worker has arrived, every record fed before this
  // call has been fully processed.  A fault can kill a worker with the gate
  // still queued, so poll-and-respawn rather than wait unconditionally: the
  // respawned worker encodes the section.
  while (!gate->wait_for(kWorkerPollInterval)) {
    respawn_dead_workers();
  }
  if (gate->error) std::rethrow_exception(gate->error);
  return std::move(gate->sections);
}

void ContainmentPipeline::maybe_auto_checkpoint() {
  if (config_.checkpoint_every == 0) return;
  if (records_fed_ % config_.checkpoint_every == 0) {
    write_checkpoint(config_.checkpoint_path);
  }
}

void ContainmentPipeline::maybe_auto_export_metrics() {
  // Gated on the registry, not on kEnabled: a WORMS_OBS=OFF build still
  // publishes the (all-zero) snapshot so tooling that polls the file works.
  if (config_.metrics_export_every == 0 || config_.metrics == nullptr) return;
  if (records_fed_ % config_.metrics_export_every != 0) return;
  WORMS_TRACE_SPAN(trace_, "metrics_export");
  flush_ingest_counters();
  const obs::MetricsSnapshot snap = config_.metrics->snapshot();
  obs::write_metrics_file(config_.metrics_export_path,
                          config_.metrics_export_json
                              ? obs::Registry::render_json(snap)
                              : obs::Registry::render_prometheus(snap));
  ++metrics_exports_written_;
}

void ContainmentPipeline::write_checkpoint(const std::string& path) {
  WORMS_EXPECTS(!path.empty());
  (void)take_snapshot(&path);
}

std::string ContainmentPipeline::snapshot_blob() { return take_snapshot(nullptr); }

std::string ContainmentPipeline::take_snapshot(const std::string* path) {
  WORMS_EXPECTS(!finished_);
  WORMS_TRACE_SPAN(trace_, "checkpoint_write");
  const support::Stopwatch watch;
  std::string blob = encode_snapshot(quiesce());
  if (path != nullptr) write_snapshot_file(*path, blob);
  ++checkpoints_written_;
  last_checkpoint_position_ = records_fed_;
  if (events_ != nullptr) {
    events_->emit(obs::EventType::CheckpointWrite, records_fed_, checkpoints_written_,
                  blob.size());
  }
  flush_ingest_counters();
  if (obs_.checkpoints != nullptr) {
    obs_.checkpoints->add(1);
    obs_.checkpoint_seconds->record(watch.elapsed_seconds());
  }
  return blob;
}

void ContainmentPipeline::pre_contain(std::span<const std::uint32_t> hosts) {
  WORMS_EXPECTS(!finished_);
  if (hosts.empty()) return;
  // Flush pending batches first so the control task is ordered exactly at the
  // current stream position: records fed before this call are processed
  // before the block lands, records fed after it are suppressed.
  flush_batches();
  std::vector<std::vector<std::uint32_t>> per_shard(config_.shards);
  for (const std::uint32_t host : hosts) {
    per_shard[shard_of(host)].push_back(host);
  }
  for (unsigned s = 0; s < config_.shards; ++s) {
    if (per_shard[s].empty()) continue;
    ShardTask task;
    task.pre_contain = std::move(per_shard[s]);
    push_shard_task(s, std::move(task), /*sample_overload=*/false);
  }
}

std::string ContainmentPipeline::encode_snapshot(std::vector<std::string> host_sections) const {
  BinaryWriter out;
  out.put_u32(kSnapshotMagic);
  out.put_u16(kSnapshotVersion);
  out.put_u8(static_cast<std::uint8_t>(config_.backend));
  out.put_u8(static_cast<std::uint8_t>(config_.hll_precision));
  // v2: pool geometry and failure budget are config-identity fields — a
  // restore under different values would misdecode slices or change verdicts.
  out.put_u8(static_cast<std::uint8_t>(config_.compact.bits_per_host));
  out.put_u32(config_.compact.virtual_registers);
  out.put_u64(config_.compact.expected_hosts);
  out.put_u64(config_.failure_budget);
  out.put_u64(config_.policy.scan_limit);
  out.put_f64(config_.policy.cycle_length);
  out.put_f64(config_.policy.check_fraction);
  out.put_u32(config_.shards);
  out.put_u64(records_fed_);
  out.put_u64(0);  // formerly records shed at ingest; the ladder drops nothing
  std::uint64_t suppressed = restored_suppressed_;
  std::uint64_t switches = restored_backend_switches_;
  std::uint64_t host_count = 0;
  for (const auto& shard : shards_) {
    suppressed += shard->suppressed;
    switches += shard->backend_switches_this_run;
    host_count += shard->hosts.size();
  }
  out.put_u64(suppressed);
  const DeadLetterStats dl = dead_letters_.stats();
  out.put_u64(dl.malformed);
  out.put_u64(dl.out_of_order);
  out.put_u64(dl.duplicate);
  out.put_u64(dl.overflow_dropped);
  out.put_u64(switches);
  // +1: this snapshot counts itself, so a restored run's checkpoint tally
  // lines up with the uninterrupted run's.
  out.put_u64(checkpoints_written_ + 1);
  out.put_u8(has_last_routed_ ? 1 : 0);
  out.put_f64(last_routed_.timestamp);
  out.put_u32(last_routed_.source_host);
  out.put_u32(last_routed_.destination.value());

  // Shards whose effective backend degraded below the configured one (with
  // the rung they sit on); only meaningful to re-apply when the restoring
  // shard count matches.
  std::vector<std::uint32_t> degraded_shards;
  for (std::uint32_t s = 0; s < config_.shards; ++s) {
    if (shards_[s]->effective_backend != config_.backend) {
      degraded_shards.push_back(s);
    }
  }
  out.put_u32(static_cast<std::uint32_t>(degraded_shards.size()));
  for (const std::uint32_t s : degraded_shards) {
    out.put_u32(s);
    out.put_u8(static_cast<std::uint8_t>(shards_[s]->effective_backend));
  }

  // Shared-pool bank section, ordered by global bank index (bank-colocated
  // routing puts each bank on exactly one shard, so no index repeats).  The
  // incrementally maintained inverse_sum travels verbatim: recomputing it on
  // restore could differ in the last ulp and fork every later estimate.
  std::vector<const SketchBank*> banks;
  for (const auto& shard : shards_) {
    for (const auto& [index, bank] : shard->pool.banks()) banks.push_back(bank.get());
  }
  std::sort(banks.begin(), banks.end(), [](const SketchBank* a, const SketchBank* b) {
    return a->bank_index() < b->bank_index();
  });
  // The rest — banks, host count, and the shards' host sections — is sized
  // now, so the buffer grows once.
  std::size_t rest = 4 + 8;
  for (const SketchBank* bank : banks) rest += 4 + 4 + 8 + 8 + bank->registers().size();
  for (const std::string& section : host_sections) rest += section.size();
  out.reserve(rest);
  out.put_u32(static_cast<std::uint32_t>(banks.size()));
  for (const SketchBank* bank : banks) {
    out.put_u32(bank->bank_index());
    out.put_u32(static_cast<std::uint32_t>(bank->register_count()));
    out.put_f64(bank->inverse_sum());
    out.put_u64(bank->zero_registers());
    out.put_bytes(bank->registers().data(), bank->registers().size());
  }

  // Host records, in shard order and each shard's table order, as its worker
  // encoded them at the gate.  Each section is freed once joined.
  out.put_u64(host_count);
  for (std::string& section : host_sections) {
    out.put_bytes(section.data(), section.size());
    std::string().swap(section);
  }
  return std::move(out).take();
}

void ContainmentPipeline::decode_snapshot(const std::string& payload) {
  BinaryReader in(payload);
  WORMS_EXPECTS(in.get_u32() == kSnapshotMagic && "not a fleet pipeline snapshot");
  const std::uint16_t version = in.get_u16();
  WORMS_EXPECTS((version == kSnapshotVersion || version == kSnapshotVersionFnv) &&
                "unsupported snapshot version");
  WORMS_EXPECTS(static_cast<CounterBackend>(in.get_u8()) == config_.backend &&
                "snapshot counter backend differs from config");
  WORMS_EXPECTS(static_cast<int>(in.get_u8()) == config_.hll_precision &&
                "snapshot HLL precision differs from config");
  WORMS_EXPECTS(static_cast<std::uint32_t>(in.get_u8()) == config_.compact.bits_per_host &&
                "snapshot compact bits-per-host differs from config");
  WORMS_EXPECTS(in.get_u32() == config_.compact.virtual_registers &&
                "snapshot compact virtual-register count differs from config");
  WORMS_EXPECTS(in.get_u64() == config_.compact.expected_hosts &&
                "snapshot compact expected-host count differs from config");
  WORMS_EXPECTS(in.get_u64() == config_.failure_budget &&
                "snapshot failure budget differs from config");
  WORMS_EXPECTS(in.get_u64() == config_.policy.scan_limit &&
                "snapshot scan limit differs from config");
  WORMS_EXPECTS(in.get_f64() == config_.policy.cycle_length &&
                "snapshot cycle length differs from config");
  WORMS_EXPECTS(in.get_f64() == config_.policy.check_fraction &&
                "snapshot check fraction differs from config");
  const std::uint32_t snapshot_shards = in.get_u32();
  records_fed_ = in.get_u64();
  // A file from a build whose overload ladder shed records at ingest: those
  // records arrived after their host's removal, so they count as suppressed.
  restored_suppressed_ = in.get_u64();
  restored_suppressed_ += in.get_u64();
  DeadLetterStats dl;
  dl.malformed = in.get_u64();
  dl.out_of_order = in.get_u64();
  dl.duplicate = in.get_u64();
  dl.overflow_dropped = in.get_u64();
  dead_letters_.preload(dl);
  restored_backend_switches_ = in.get_u64();
  checkpoints_written_ = in.get_u64();
  // Preload the streaming obs counters with the restored baselines so a
  // resumed run's totals are identical to an uninterrupted run's (the golden
  // resume test depends on this; dead letters preload via the channel above).
  // flush_ingest_counters() publishes records_fed_ and advances the flushed
  // marker, so later batch flushes add only post-resume deltas.
  flush_ingest_counters();
  if (obs_.ingested != nullptr) {
    obs_.suppressed->add(restored_suppressed_);
    obs_.checkpoints->add(checkpoints_written_);
  }
  has_last_routed_ = in.get_u8() != 0;
  last_routed_.timestamp = in.get_f64();
  last_routed_.source_host = in.get_u32();
  last_routed_.destination = worms::net::Ipv4Address(in.get_u32());

  const std::uint32_t degraded_count = in.get_u32();
  for (std::uint32_t i = 0; i < degraded_count; ++i) {
    const std::uint32_t s = in.get_u32();
    WORMS_EXPECTS(s < snapshot_shards && "degraded shard index out of range in snapshot");
    const auto rung = in.get_u8();
    WORMS_EXPECTS(rung <= 2 && "degraded shard backend out of range in snapshot");
    if (snapshot_shards == config_.shards) {
      // Same sharding: the degraded shard resumes on its rung (new hosts get
      // the degraded backend).  Different sharding: per-host counters still
      // restore exactly, but shard-level degradation does not carry over.
      // Restored rungs are state, not transitions — no DegradeStep re-emits.
      shards_[s]->effective_backend = static_cast<CounterBackend>(rung);
      shards_[s]->published_backend.store(rung, std::memory_order_release);
    }
  }

  // Shared-pool banks restore before any host so a compact counter's decode
  // can bind to live registers.  Bank-colocated routing decides the owner:
  // bank b's hosts all route to shard b % shards, whatever the shard count.
  const std::uint32_t bank_count = in.get_u32();
  for (std::uint32_t i = 0; i < bank_count; ++i) {
    const std::uint32_t bank_index = in.get_u32();
    WORMS_EXPECTS(bank_index < kCompactBanks && "bank index out of range in snapshot");
    const std::uint32_t register_count = in.get_u32();
    WORMS_EXPECTS(register_count == config_.compact.registers_per_bank() &&
                  "snapshot bank register count differs from pool geometry");
    const double inverse_sum = in.get_f64();
    const std::uint64_t zero_registers = in.get_u64();
    std::vector<std::uint8_t> registers(register_count);
    in.get_bytes(registers.data(), registers.size());
    Shard& owner = *shards_[bank_index % config_.shards];
    owner.pool.bank_for(bank_index).restore(registers, inverse_sum, zero_registers);
  }

  const std::uint64_t host_count = in.get_u64();
  for (std::uint64_t i = 0; i < host_count; ++i) {
    const std::uint32_t id = in.get_u32();
    Shard& shard = *shards_[shard_of(id)];
    auto [it, inserted] = shard.hosts.try_emplace(id);
    WORMS_EXPECTS(inserted && "duplicate host in snapshot");
    HostState& h = it->second;
    h.cycle = in.get_u64();
    const std::uint8_t flags = in.get_u8();
    h.cycle_flagged = (flags & 1u) != 0;
    h.verdict.host = id;
    h.verdict.flagged = (flags & 2u) != 0;
    h.verdict.removed = (flags & 4u) != 0;
    h.has_prev = (flags & 8u) != 0;
    h.verdict.pre_contained = (flags & 16u) != 0;
    h.verdict.removed_by_failures = (flags & 32u) != 0;
    h.last_time = in.get_f64();
    h.last_destination = in.get_u32();
    h.verdict.records_seen = in.get_u64();
    h.verdict.peak_distinct = in.get_u64();
    h.verdict.flag_time = in.get_f64();
    h.verdict.removal_time = in.get_f64();
    h.verdict.failures_seen = in.get_u64();
    h.verdict.peak_failures = in.get_u64();
    h.cycle_failures = in.get_u64();
    const CompactDecodeContext compact{&shard.pool, id};
    std::unique_ptr<DistinctCounter> counter = decode_counter(in, &compact);
    if (counter->backend() == CounterBackend::Exact) {
      h.exact.emplace(std::move(static_cast<ExactCounter&>(*counter)));
    } else {
      h.approx = std::move(counter);
    }
  }
  WORMS_EXPECTS(in.remaining() == 0 && "trailing bytes in snapshot");
  last_checkpoint_position_ = records_fed_;
  if (events_ != nullptr) {
    events_->emit(obs::EventType::CheckpointRestore, records_fed_, snapshot_shards,
                  payload.size());
  }
}

std::unique_ptr<ContainmentPipeline> ContainmentPipeline::restore(const PipelineOptions& config,
                                                                  const std::string& path) {
  return restore_from_blob(config, read_snapshot_file(path));
}

std::unique_ptr<ContainmentPipeline> ContainmentPipeline::restore_from_blob(
    const PipelineOptions& config, const std::string& snapshot) {
  std::unique_ptr<ContainmentPipeline> pipeline(
      new ContainmentPipeline(config, DeferWorkersTag{}));
  {
    WORMS_TRACE_SPAN(pipeline->trace_, "checkpoint_restore");
    pipeline->decode_snapshot(snapshot);
  }
  pipeline->start_workers();
  return pipeline;
}

PipelineResult ContainmentPipeline::finish() {
  WORMS_EXPECTS(!finished_);
  flush_batches();
  for (auto& shard : shards_) shard->queue.close();
  // A fault-killed worker leaves its queue unread; respawn until every shard
  // drains.  Kills fire once each, so this terminates.
  for (;;) {
    pool_->wait_idle();
    bool respawned = false;
    for (unsigned s = 0; s < config_.shards; ++s) {
      if (shards_[s]->dead.load(std::memory_order_acquire)) {
        respawn(s);
        respawned = true;
      }
    }
    if (!respawned) break;
  }
  finished_ = true;
  const double elapsed = stopwatch_.elapsed_seconds();

  for (const auto& shard : shards_) {
    if (shard->error) std::rethrow_exception(shard->error);
  }

  PipelineResult result;
  result.verdicts.node_id = config_.node_id;
  PipelineMetrics& m = result.metrics;
  m.records_processed = records_fed_;
  m.elapsed_seconds = elapsed;
  m.records_per_second =
      elapsed > 0.0 ? static_cast<double>(records_fed_) / elapsed : 0.0;
  m.shards = config_.shards;
  m.dead_letters = dead_letters_.stats();
  m.backend_switches = restored_backend_switches_;
  m.workers_respawned = workers_respawned_;
  m.checkpoints_written = checkpoints_written_;
  m.metrics_exports = metrics_exports_written_;
  m.records_suppressed = restored_suppressed_;
  for (const Monitor& monitor : monitors_) m.shard_health.push_back(monitor.health);

  auto& hosts = result.verdicts.hosts;
  for (const auto& shard : shards_) {
    m.records_suppressed += shard->suppressed;
    m.backend_switches += shard->backend_switches_this_run;
    if (shard->kill_fired) ++m.workers_killed;
    m.queue_high_water.push_back(shard->queue.high_water());
    for (const auto& [id, state] : shard->hosts) {
      m.counter_memory_bytes += state.counter().memory_bytes();
      hosts.push_back(state.verdict);
    }
  }
  std::sort(hosts.begin(), hosts.end(),
            [](const HostVerdict& a, const HostVerdict& b) { return a.host < b.host; });
  for (const HostVerdict& v : hosts) {
    if (v.flagged) ++result.verdicts.hosts_flagged;
    if (v.removed) ++result.verdicts.hosts_removed;
    if (v.pre_contained) ++result.verdicts.hosts_pre_contained;
    if (v.removed_by_failures) ++result.verdicts.hosts_removed_by_failures;
  }

  // Verdict-derived metrics, folded in exactly once.  post_removal — records
  // arriving after their host's removal verdict — depends on the stream alone,
  // like every suppression count, since no record is dropped before its shard.
  flush_ingest_counters();
  if (obs_.ingested != nullptr) {
    obs_.hosts_seen->add(hosts.size());
    obs_.hosts_flagged->add(result.verdicts.hosts_flagged);
    obs_.hosts_removed->add(result.verdicts.hosts_removed);
    obs_.hosts_pre_contained->add(result.verdicts.hosts_pre_contained);
    obs_.post_removal->add(m.records_suppressed);
    obs_.backend_switches->add(m.backend_switches);
    obs_.workers_killed->add(m.workers_killed);
    obs_.counter_memory->set(static_cast<double>(m.counter_memory_bytes));
    for (unsigned s = 0; s < config_.shards; ++s) {
      obs_.queue_high_water[s]->update_max(static_cast<double>(m.queue_high_water[s]));
      obs_.shard_health[s]->set(static_cast<double>(monitors_[s].health));
    }
  }
  return result;
}

PipelineStatus ContainmentPipeline::status() const {
  PipelineStatus s;
  s.records_fed = records_fed_;
  s.checkpoints_written = checkpoints_written_;
  s.checkpoint_position = last_checkpoint_position_;
  s.configured_backend = config_.backend;
  s.dead_letters = dead_letters_.stats();
  s.shard_backend.reserve(config_.shards);
  s.shard_health.reserve(config_.shards);
  s.queue_depth.reserve(config_.shards);
  for (unsigned i = 0; i < config_.shards; ++i) {
    s.shard_backend.push_back(static_cast<CounterBackend>(
        shards_[i]->published_backend.load(std::memory_order_acquire)));
    s.shard_health.push_back(monitors_[i].health);
    s.queue_depth.push_back(shards_[i]->queue.size());
  }
  return s;
}

PipelineResult ContainmentPipeline::run(const PipelineOptions& options,
                                        const std::vector<trace::ConnRecord>& records) {
  ContainmentPipeline pipeline(options);
  pipeline.feed(records);
  return pipeline.finish();
}

PipelineResult ContainmentPipeline::run(const PipelineOptions& options,
                                        trace::RecordSource& source) {
  ContainmentPipeline pipeline(options);
  pipeline.feed(source);
  return pipeline.finish();
}

namespace {

/// Longest verdict CSV row: five u64 fields (20 digits), one u32, two
/// doubles at precision 17 (24 characters), four 0/1 flags, 11 commas and
/// the newline come to 194 bytes.
constexpr std::size_t kMaxVerdictRow = 256;

/// Formats one verdict row at `out`, which has room for kMaxVerdictRow
/// bytes, and returns its end.  std::to_chars in general form at precision
/// 17 is specified to print exactly what printf's %.17g prints.
char* format_verdict_row(char* out, const HostVerdict& h, std::uint64_t node_id) {
  char* const last = out + kMaxVerdictRow;
  const auto field = [&](auto value) {
    out = std::to_chars(out, last, value).ptr;
    *out++ = ',';
  };
  const auto time = [&](double t) {
    out = std::to_chars(out, last, t, std::chars_format::general, 17).ptr;
    *out++ = ',';
  };
  const auto flag = [&](bool b) {
    *out++ = b ? '1' : '0';
    *out++ = ',';
  };
  field(h.host);
  field(h.records_seen);
  field(h.peak_distinct);
  flag(h.flagged);
  time(h.flag_time);
  flag(h.removed);
  time(h.removal_time);
  flag(h.pre_contained);
  field(h.failures_seen);
  field(h.peak_failures);
  flag(h.removed_by_failures);
  out = std::to_chars(out, last, node_id).ptr;
  *out++ = '\n';
  return out;
}

}  // namespace

void write_verdicts_csv(const std::string& path, const ContainmentVerdicts& v) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  WORMS_EXPECTS(f != nullptr && "cannot open verdicts CSV file");
  // Rows are formatted into one buffer and written in 64 KiB blocks.
  constexpr std::size_t kBlock = std::size_t{64} << 10;
  std::string buffer(kBlock + kMaxVerdictRow, '\0');
  constexpr std::string_view kHeader =
      "host,records_seen,peak_distinct,flagged,flag_time,removed,removal_time,"
      "pre_contained,failures_seen,peak_failures,removed_by_failures,node\n";
  bool written = std::fwrite(kHeader.data(), 1, kHeader.size(), f) == kHeader.size();
  char* const begin = buffer.data();
  char* out = begin;
  const auto flush = [&] {
    const auto bytes = static_cast<std::size_t>(out - begin);
    written = written && std::fwrite(begin, 1, bytes, f) == bytes;
    out = begin;
  };
  for (const HostVerdict& h : v.hosts) {
    out = format_verdict_row(out, h, v.node_id);
    if (static_cast<std::size_t>(out - begin) >= kBlock) flush();
  }
  flush();
  WORMS_ENSURES(std::fclose(f) == 0 && written && "verdicts CSV write failed");
}

}  // namespace worms::fleet
