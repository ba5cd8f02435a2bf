#include "reps.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <exception>
#include <memory>
#include <stdexcept>
#include <thread>

#include "fleet/net/node.hpp"
#include "fleet/pipeline.hpp"
#include "obs/event_log.hpp"
#include "obs/registry.hpp"
#include "trace/record_source.hpp"

namespace perfbench {

namespace {

using worms::trace::ConnRecord;
using Scope = SpanLog::Scope;

double seconds_between(std::int64_t from_ns, std::int64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) * 1e-9;
}

/// Reads the CSV the run wrote and checks it against the oracle.
void check_output(const RepContext& ctx, const worms::fleet::PipelineResult& result,
                  RepResult& out, std::vector<VerdictRow>& rows) {
  rows = read_verdicts_csv(ctx.csv_path);
  perturb(rows, *ctx.expected, ctx.perturb, ctx.oracle.scan_limit);
  CheckResult check =
      ctx.spec->backend == worms::fleet::CounterBackend::Exact
          ? check_exact(rows, *ctx.expected)
          : check_compact(rows, *ctx.expected, ctx.oracle, pipeline_options(*ctx.spec).compact);
  out.out_of_envelope = check.out_of_envelope;
  out.envelope_problem = check.envelope_problem;
  if (check.ok) check = check_worms_removed(rows, *ctx.infected);
  // fed = Σ records_seen + suppressed + shed + dead letters: shedding drops
  // only records of already-removed hosts, and only the suppressed + shed sum
  // is schedule-independent.  A shed countable record would fail the oracle.
  std::uint64_t accounted = result.metrics.records_suppressed + result.metrics.records_shed;
  for (const VerdictRow& row : rows) accounted += row.verdict.records_seen;
  if (check.ok && accounted > out.offered) {
    check = {false, "verdicts account for more records than were offered", 0, {}};
  }
  out.ok = check.ok;
  out.problem = check.problem;
  out.failed = check.ok ? out.offered - accounted : out.offered;
  out.counter_bytes = result.metrics.counter_memory_bytes;
  std::size_t high_water = 0;
  for (const std::size_t h : result.metrics.queue_high_water) high_water = std::max(high_water, h);
  out.queue_fill = static_cast<double>(high_water) /
                   static_cast<double>(pipeline_options(*ctx.spec).queue_capacity);
}

/// Feed-to-on_removal lag for every removal: the removal-triggering record
/// is the host's record stamped with its removal time, and the lag runs from
/// the start of the feed() call that offered it.
std::vector<double> removal_lags(std::span<const ConnRecord> records,
                                 const std::vector<VerdictRow>& rows,
                                 const std::vector<std::pair<std::uint64_t, std::int64_t>>& fed,
                                 const std::vector<std::atomic<std::int64_t>>& removed_at) {
  std::vector<double> lags;
  for (const VerdictRow& row : rows) {
    const worms::fleet::HostVerdict& v = row.verdict;
    if (!v.removed || v.host >= removed_at.size()) continue;
    const std::int64_t t_removed = removed_at[v.host].load(std::memory_order_relaxed);
    if (t_removed == 0) continue;
    auto it = std::lower_bound(records.begin(), records.end(), v.removal_time,
                               [](const ConnRecord& r, double t) { return r.timestamp < t; });
    while (it != records.end() && it->source_host != v.host) ++it;
    if (it == records.end()) continue;
    const auto index = static_cast<std::uint64_t>(it - records.begin());
    auto block = std::upper_bound(fed.begin(), fed.end(), index,
                                  [](std::uint64_t i, const auto& b) { return i < b.first; });
    if (block == fed.begin()) continue;
    --block;
    lags.push_back(static_cast<double>(t_removed - block->second) * 1e-6);
  }
  return lags;
}

RepResult run_file_rep(const RepContext& ctx, SpanLog* spans) {
  RepResult out;
  out.offered = ctx.record_count;
  worms::fleet::PipelineOptions options = pipeline_options(*ctx.spec);

  // Traced runs time removals: block feed start times + on_removal stamps.
  std::vector<std::pair<std::uint64_t, std::int64_t>> fed_blocks;
  std::vector<std::atomic<std::int64_t>> removed_at(
      spans != nullptr && !ctx.expected->hosts.empty() ? ctx.expected->hosts.back().host + 1 : 0);
  if (spans != nullptr) {
    options.on_removal = [&removed_at](std::uint32_t host, double) {
      if (host < removed_at.size()) removed_at[host].store(now_ns(), std::memory_order_relaxed);
    };
  }

  std::vector<ConnRecord> block(kFeedBlock);
  const std::int64_t construct_start = now_ns();
  auto pipeline = std::make_unique<worms::fleet::ContainmentPipeline>(options);
  const std::int64_t start = now_ns();
  out.construct_seconds = seconds_between(construct_start, start);

  worms::fleet::PipelineResult result;
  {
    Scope run(spans, "run");
    std::unique_ptr<worms::trace::BinarySource> source;
    {
      Scope s(spans, "trace.open");
      source = std::make_unique<worms::trace::BinarySource>(ctx.wtrace_path, true);
    }
    std::uint64_t fed = 0;
    unsigned checkpoints = 0;
    for (;;) {
      std::size_t got = 0;
      {
        Scope s(spans, "trace.next_batch");
        got = source->next_batch(block);
      }
      if (got == 0) break;
      if (spans != nullptr) fed_blocks.emplace_back(fed, now_ns());
      {
        Scope s(spans, "pipeline.feed");
        pipeline->feed(std::span<const ConnRecord>(block.data(), got));
      }
      fed += got;
      // Three snapshots at fixed quarters of the stream.
      if (ctx.spec->checkpoints && checkpoints < 3 &&
          fed * 4 >= (checkpoints + 1) * ctx.record_count) {
        Scope s(spans, "pipeline.checkpoint");
        pipeline->write_checkpoint(ctx.checkpoint_path);
        ++checkpoints;
      }
    }
    {
      Scope s(spans, "pipeline.finish");
      result = pipeline->finish();
    }
    {
      Scope s(spans, "verdict.csv");
      worms::fleet::write_verdicts_csv(ctx.csv_path, result.verdicts);
    }
  }
  out.wall_seconds = seconds_between(start, now_ns());
  pipeline.reset();

  std::vector<VerdictRow> rows;
  check_output(ctx, result, out, rows);
  if (spans != nullptr) out.removal_lag_ms = removal_lags(ctx.records, rows, fed_blocks, removed_at);
  return out;
}

RepResult run_serve_rep(const RepContext& ctx, SpanLog* spans) {
  namespace net = worms::fleet::net;
  RepResult out;
  out.offered = ctx.record_count;

  // A deployed node's configuration: metrics registry and event journal on.
  const std::int64_t construct_start = now_ns();
  auto registry = std::make_unique<worms::obs::Registry>();
  auto events = std::make_unique<worms::obs::EventLog>();
  net::NodeOptions options;
  options.listen = net::Endpoint{"127.0.0.1", 0};
  options.expect_clients = 1;
  options.pipeline = pipeline_options(*ctx.spec);
  options.pipeline.metrics = registry.get();
  options.pipeline.events = events.get();
  auto node = std::make_unique<net::ServeNode>(options);
  net::IngestOptions client;
  client.connect = {net::Endpoint{"127.0.0.1", node->port()}};
  client.batch_records = kWireBatch;
  out.construct_seconds = seconds_between(construct_start, now_ns());

  // ServeNode's accept loop polls in 100 ms slices, restarted when the
  // client connects, and wait() joins it, so teardown ends on a 100 ms grid
  // counted from the connection.  Started in step with that grid,
  // repetitions of nearly equal work all end on one grid point or the next,
  // and their times flip between two levels.  So the client pauses between
  // its handshake and its first record for a phase that steps through the
  // slice (golden-ratio sequence over repetitions).  The clock starts after
  // the pause: teardown costs its mean half slice, and a few repetitions
  // average it out.
  constexpr double kPollSliceSeconds = 0.1;
  const double phase =
      kPollSliceSeconds * std::fmod(static_cast<double>(ctx.repetition) * 0.6180339887498949, 1.0);
  std::int64_t start = 0;  // written by the client thread, read after join
  std::int64_t ingest_end = 0;
  std::exception_ptr client_error;
  net::NodeReport report;
  {
    Scope run(spans, "run");
    std::thread ingest([&] {
      try {
        (void)net::run_ingest(client, [&] {
          if (start == 0) {  // a reconnect resumes without a second pause
            std::this_thread::sleep_for(std::chrono::duration<double>(phase));
            start = now_ns();
          }
          return std::make_unique<worms::trace::VectorSource>(ctx.records);
        });
      } catch (...) {
        client_error = std::current_exception();
        node->stop();
      }
      ingest_end = now_ns();
    });
    std::int64_t wait_end = 0;
    try {
      Scope s(spans, "node.wait");
      report = node->wait();
      wait_end = now_ns();
    } catch (...) {
      ingest.join();
      throw;
    }
    ingest.join();
    if (client_error) std::rethrow_exception(client_error);
    if (start == 0) throw std::runtime_error("the client offered no records");
    if (spans != nullptr) {
      spans->add("node.run_ingest", start, ingest_end);
      spans->add("node.drain", ingest_end, wait_end);
    }
    Scope s(spans, "verdict.csv");
    worms::fleet::write_verdicts_csv(ctx.csv_path, report.result.verdicts);
  }
  out.wall_seconds = seconds_between(start, now_ns());
  node.reset();

  if (spans != nullptr) {
    {
      Scope s(spans, "obs.render");
      const std::string text =
          worms::obs::Registry::render_prometheus(registry->snapshot());
      if (text.empty()) throw std::runtime_error("empty metrics exposition");
    }
    Scope s(spans, "obs.collect");
    const worms::obs::EventCollection collected = events->collect();
    out.events = collected.recorded;
    out.events_dropped = collected.dropped;
  }
  out.wire_bytes_per_record =
      static_cast<double>(report.bytes_received) / static_cast<double>(ctx.record_count);
  std::vector<VerdictRow> rows;
  check_output(ctx, report.result, out, rows);
  return out;
}

}  // namespace

RepResult run_rep(const RepContext& ctx, SpanLog* spans) {
  try {
    return ctx.spec->serve ? run_serve_rep(ctx, spans) : run_file_rep(ctx, spans);
  } catch (const std::exception& e) {
    RepResult failed;
    failed.offered = ctx.record_count;
    failed.failed = ctx.record_count;
    failed.problem = e.what();
    return failed;
  }
}

}  // namespace perfbench
