#include "layers.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>

#include "core/scan_limit_policy.hpp"
#include "fleet/host_table.hpp"
#include "fleet/net/wire.hpp"
#include "fleet/shared_sketch_pool.hpp"
#include "fleet/spsc_ring.hpp"
#include "support/stopwatch.hpp"

namespace perfbench {

namespace {

using worms::trace::ConnRecord;

// Keeps replay results observable so the loops cannot be optimized away.
volatile std::uint64_t g_sink = 0;

double ns_per(double seconds, std::uint64_t units) {
  return units == 0 ? 0.0 : seconds * 1e9 / static_cast<double>(units);
}

/// The pipeline's queue item for a batch: records plus their stream indices.
struct ShardTask {
  std::vector<ConnRecord> records;
  std::vector<std::uint64_t> indices;
};

}  // namespace

double replay_route(std::span<const ConnRecord> records,
                    const worms::fleet::PipelineOptions& options, std::size_t block) {
  using worms::fleet::ShardHealth;
  const unsigned shards = options.shards;
  const std::size_t batch = options.batch_size;
  std::vector<std::vector<ConnRecord>> pending(shards);
  std::vector<std::vector<std::uint64_t>> pending_indices(shards);
  for (unsigned s = 0; s < shards; ++s) {
    pending[s].reserve(batch);
    pending_indices[s].reserve(batch);
  }
  const std::vector<ShardHealth> health(shards, ShardHealth::Healthy);
  std::vector<std::deque<ShardTask>> handed_off(shards);
  std::uint64_t fed = 0;
  std::uint64_t dropped = 0;
  ConnRecord last_routed{};
  worms::support::Stopwatch watch;
  for (std::size_t at = 0; at < records.size(); at += block) {
    const std::size_t block_end = std::min(records.size(), at + block);
    const ConnRecord* last = nullptr;
    for (std::size_t i = at; i < block_end; ++i) {
      const ConnRecord& r = records[i];
      const std::uint64_t index = fed++;
      if (!std::isfinite(r.timestamp) || r.timestamp < 0.0) {
        ++dropped;
        continue;
      }
      const unsigned s = worms::fleet::compact_bank_of(r.source_host) % shards;
      if (health[s] == ShardHealth::Shedding) {
        ++dropped;
        continue;
      }
      pending[s].push_back(r);
      pending_indices[s].push_back(index);
      last = &r;
      if (pending[s].size() >= batch) {
        ShardTask task{std::move(pending[s]), std::move(pending_indices[s])};
        pending[s] = std::vector<ConnRecord>();
        pending[s].reserve(batch);
        pending_indices[s] = std::vector<std::uint64_t>();
        pending_indices[s].reserve(batch);
        std::deque<ShardTask>& queue = handed_off[s];
        if (queue.size() == options.queue_capacity) queue.pop_front();
        queue.push_back(std::move(task));
      }
    }
    if (last != nullptr) last_routed = *last;
  }
  const double seconds = watch.elapsed_seconds();
  g_sink = dropped + last_routed.source_host;
  return ns_per(seconds, records.size());
}

double replay_handoff(std::span<const ConnRecord> records, std::size_t batch,
                      std::size_t capacity) {
  // Tasks shaped like the pipeline's (records plus stream indices) are built
  // before the clock starts: filling them is routing's work, and reading
  // their records is the counter rung's.  This rung is the ring and the
  // consumer's receipt and free of each task.
  constexpr std::size_t kMaxRecords = std::size_t{1} << 21;
  const std::size_t n = std::min(records.size(), kMaxRecords);
  std::vector<ShardTask> tasks;
  tasks.reserve(n / batch + 1);
  for (std::size_t at = 0; at < n; at += batch) {
    const std::size_t len = std::min(batch, n - at);
    ShardTask task;
    task.records.assign(records.begin() + static_cast<std::ptrdiff_t>(at),
                        records.begin() + static_cast<std::ptrdiff_t>(at + len));
    task.indices.resize(len);
    for (std::size_t k = 0; k < len; ++k) task.indices[k] = at + k;
    tasks.push_back(std::move(task));
  }
  worms::fleet::SpscRing<ShardTask> ring(capacity);
  std::uint64_t consumed = 0;
  worms::support::Stopwatch watch;
  std::thread consumer([&] {
    std::uint64_t sum = 0;
    while (std::optional<ShardTask> item = ring.pop()) {
      sum += item->records.size() + item->indices.back();
      ++consumed;
    }
    g_sink = sum;
  });
  for (ShardTask& task : tasks) ring.push(std::move(task));
  ring.close();
  consumer.join();
  const double seconds = watch.elapsed_seconds();
  if (consumed != tasks.size()) throw std::runtime_error("handoff replay lost batches");
  return ns_per(seconds, tasks.size());
}

double replay_counter(std::span<const ConnRecord> records, const std::vector<bool>& processed,
                      const worms::fleet::PipelineOptions& options) {
  using worms::fleet::CounterBackend;
  using worms::fleet::DistinctCounter;
  // Field-for-field copy of the pipeline's per-host state (HostState in
  // fleet/pipeline.cpp), so table slots have the pipeline's size and stride.
  struct HostEntry {
    std::unique_ptr<DistinctCounter> counter;
    CounterBackend counter_backend = CounterBackend::Exact;
    std::uint64_t cycle = 0;
    bool cycle_flagged = false;
    std::uint64_t cycle_failures = 0;
    double last_time = 0.0;
    std::uint32_t last_destination = 0;
    bool has_prev = false;
    worms::fleet::HostVerdict verdict;
  };
  constexpr std::size_t kPrefetchAhead = 8;
  constexpr std::size_t kPrefetchMinSlots = std::size_t{1} << 15;

  const unsigned shards = options.shards;
  const std::size_t batch = options.batch_size;
  const CounterBackend backend = options.backend;
  const double cycle_length = options.policy.cycle_length;
  const auto cycle_of = [&](double t) { return static_cast<std::uint64_t>(t / cycle_length); };
  // Each worker's stream: the indices of the records routed to its shard.
  std::vector<std::vector<std::uint32_t>> routed(shards);
  for (std::size_t i = 0; i < records.size(); ++i) {
    routed[worms::fleet::compact_bank_of(records[i].source_host) % shards].push_back(
        static_cast<std::uint32_t>(i));
  }
  // Built and torn down outside the timed loop, as a worker's are.
  std::vector<worms::fleet::HostTable<HostEntry>> tables(shards);
  std::vector<std::unique_ptr<worms::fleet::SharedSketchPool>> pools;
  for (unsigned s = 0; s < shards; ++s) {
    pools.push_back(std::make_unique<worms::fleet::SharedSketchPool>(options.compact));
  }
  std::uint64_t added = 0;
  worms::support::Stopwatch watch;
  for (unsigned s = 0; s < shards; ++s) {
    worms::fleet::HostTable<HostEntry>& hosts = tables[s];
    worms::fleet::SharedSketchPool& pool = *pools[s];
    const std::vector<std::uint32_t>& stream = routed[s];
    for (std::size_t at = 0; at < stream.size(); at += batch) {
      const std::size_t n = std::min(batch, stream.size() - at);
      const std::uint32_t* task = stream.data() + at;
      const bool prefetch = hosts.capacity() >= kPrefetchMinSlots;
      for (std::size_t k = 0; k < n; ++k) {
        if (prefetch && k + kPrefetchAhead < n) {
          hosts.prefetch(records[task[k + kPrefetchAhead]].source_host);
        }
        const ConnRecord& r = records[task[k]];
        auto [it, inserted] = hosts.try_emplace(r.source_host);
        HostEntry& h = it->second;
        if (inserted) {
          h.counter = backend == CounterBackend::Compact
                          ? std::make_unique<worms::fleet::CompactCounter>(
                                pool.bank_for(worms::fleet::compact_bank_of(r.source_host)),
                                r.source_host)
                          : worms::fleet::make_distinct_counter(backend, options.hll_precision);
          h.counter_backend = backend;
          h.verdict.host = r.source_host;
          h.cycle = cycle_of(r.timestamp);
        }
        if (!processed[task[k]]) continue;
        const std::uint64_t cycle = cycle_of(r.timestamp);
        if (cycle != h.cycle) {
          h.counter->reset();
          h.cycle = cycle;
        }
        if (h.counter_backend == CounterBackend::Exact) {
          auto& exact = static_cast<worms::fleet::ExactCounter&>(*h.counter);
          added += exact.add(r.destination.value());
          added += exact.count();
        } else {
          added += h.counter->add(r.destination.value());
          added += h.counter->count();
        }
      }
    }
  }
  const double seconds = watch.elapsed_seconds();
  g_sink = added;
  return ns_per(seconds, records.size());
}

double replay_policy(std::span<const ConnRecord> records, const std::vector<bool>& counted,
                     const worms::fleet::PipelineOptions& options) {
  worms::core::ScanCountLimitPolicy policy(
      {.scan_limit = options.policy.scan_limit,
       .cycle_length = options.policy.cycle_length,
       .check_fraction = options.policy.check_fraction,
       .counting = worms::core::ScanCountLimitPolicy::CountingMode::Attempts});
  std::uint64_t removals = 0;
  std::uint64_t calls = 0;
  worms::support::Stopwatch watch;
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (!counted[i]) continue;
    const ConnRecord& r = records[i];
    const worms::core::ScanDecision d = policy.on_scan(r.source_host, r.timestamp, r.destination);
    removals += d.action == worms::core::ScanAction::AllowAndRemove ? 1 : 0;
    ++calls;
  }
  const double seconds = watch.elapsed_seconds();
  g_sink = removals;
  return ns_per(seconds, calls);
}

WireCost replay_wire(std::span<const ConnRecord> records, std::size_t batch) {
  namespace net = worms::fleet::net;
  WireCost cost;
  std::vector<std::string> frames;
  frames.reserve(records.size() / batch + 1);
  worms::support::Stopwatch encode_watch;
  for (std::size_t at = 0; at < records.size(); at += batch) {
    const auto slice = records.subspan(at, std::min(batch, records.size() - at));
    frames.push_back(net::encode_frame(net::FrameType::Records, net::encode_records(slice, 0, at)));
  }
  cost.encode_ns_per_rec = ns_per(encode_watch.elapsed_seconds(), records.size());

  net::FrameDecoder decoder;
  std::vector<ConnRecord> decoded;
  decoded.reserve(records.size());
  worms::support::Stopwatch decode_watch;
  for (const std::string& frame : frames) {
    decoder.append(frame);
    for (;;) {
      net::FrameDecoder::Result result = decoder.next();
      if (result.status != net::FrameDecoder::Status::Ready) break;
      const net::RecordsPayload payload = net::decode_records(result.frame.payload);
      decoded.insert(decoded.end(), payload.records.begin(), payload.records.end());
    }
  }
  cost.decode_ns_per_rec = ns_per(decode_watch.elapsed_seconds(), records.size());
  cost.roundtrip_ok = decoded.size() == records.size() &&
                      std::equal(decoded.begin(), decoded.end(), records.begin());
  return cost;
}

}  // namespace perfbench
