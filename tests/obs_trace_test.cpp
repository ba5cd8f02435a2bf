// Property tests for the flight-recorder tracing layer (DESIGN.md §9): ring
// wraparound/drop accounting, clock semantics, single-writer tid assignment,
// the Chrome trace-event render/parse roundtrip, and the span summary's
// agreement with the metrics layer's log₂ histograms.
#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace_export.hpp"
#include "support/check.hpp"

namespace worms::obs {
namespace {

// Recording no-ops in a WORMS_OBS=OFF build; tests that assert on recorded
// events skip themselves there (the OFF build is covered by compiling them).
#define WORMS_REQUIRE_OBS() \
  if (!kEnabled) GTEST_SKIP() << "built with WORMS_OBS=OFF"

[[nodiscard]] TracerOptions synthetic_options(std::size_t buffer_events = 1u << 10) {
  TracerOptions options;
  options.buffer_events = buffer_events;
  options.clock = TraceClock::Synthetic;
  return options;
}

TEST(ObsTrace, RecordsEventsInOrderWithSyntheticTicksEqualToSequence) {
  WORMS_REQUIRE_OBS();
  Tracer tracer(synthetic_options());
  TraceRing& ring = tracer.ring(7);
  ring.span_begin("work");
  ring.instant("hit", 3.5);
  ring.counter("depth", 12.0);
  ring.span_end("work");

  const TraceCollection collection = tracer.collect();
  ASSERT_EQ(collection.events.size(), 4u);
  EXPECT_EQ(collection.recorded, 4u);
  EXPECT_EQ(collection.dropped, 0u);
  EXPECT_EQ(collection.clock, TraceClock::Synthetic);
  for (std::size_t i = 0; i < collection.events.size(); ++i) {
    EXPECT_EQ(collection.events[i].tick, i);  // synthetic tick == ring seq
    EXPECT_EQ(collection.events[i].seq, i);
    EXPECT_EQ(collection.events[i].tid, 7u);
  }
  EXPECT_EQ(collection.events[0].kind, TraceEventKind::SpanBegin);
  EXPECT_EQ(collection.events[0].name, "work");
  EXPECT_EQ(collection.events[1].kind, TraceEventKind::Instant);
  EXPECT_DOUBLE_EQ(collection.events[1].value, 3.5);
  EXPECT_EQ(collection.events[2].kind, TraceEventKind::Counter);
  EXPECT_DOUBLE_EQ(collection.events[2].value, 12.0);
  EXPECT_EQ(collection.events[3].kind, TraceEventKind::SpanEnd);
}

TEST(ObsTrace, WraparoundKeepsNewestEventsAndCountsDropped) {
  WORMS_REQUIRE_OBS();
  Tracer tracer(synthetic_options(64));
  TraceRing& ring = tracer.ring(0);
  for (int i = 0; i < 100; ++i) ring.instant("tick", static_cast<double>(i));

  const TraceCollection collection = tracer.collect();
  EXPECT_EQ(collection.recorded, 100u);
  EXPECT_EQ(collection.dropped, 36u);
  ASSERT_EQ(collection.events.size(), 64u);
  // The retained window is exactly the newest `capacity` events, in order.
  for (std::size_t i = 0; i < collection.events.size(); ++i) {
    EXPECT_DOUBLE_EQ(collection.events[i].value, static_cast<double>(36 + i));
    EXPECT_EQ(collection.events[i].seq, 36 + i);
  }
}

TEST(ObsTrace, CapacityIsNormalizedToPowerOfTwoFloor64) {
  Tracer tiny(synthetic_options(1));
  EXPECT_EQ(tiny.ring(0).capacity(), 64u);
  Tracer odd(synthetic_options(1000));
  EXPECT_EQ(odd.ring(0).capacity(), 1024u);
}

TEST(ObsTrace, WallClockTicksAreMonotonicNonDecreasing) {
  WORMS_REQUIRE_OBS();
  Tracer tracer;  // default: wall clock
  EXPECT_TRUE(tracer.wall_clock());
  TraceRing& ring = tracer.ring(0);
  for (int i = 0; i < 32; ++i) ring.instant("t");
  const TraceCollection collection = tracer.collect();
  ASSERT_EQ(collection.events.size(), 32u);
  for (std::size_t i = 1; i < collection.events.size(); ++i) {
    EXPECT_GE(collection.events[i].tick, collection.events[i - 1].tick);
  }
}

TEST(ObsTrace, LocalRingsGetDistinctAutoTidsAcrossThreads) {
  WORMS_REQUIRE_OBS();
  Tracer tracer(synthetic_options());
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&tracer] { tracer.local_ring().instant("from_thread"); });
  }
  for (auto& t : threads) t.join();

  const TraceCollection collection = tracer.collect();
  ASSERT_EQ(collection.events.size(), static_cast<std::size_t>(kThreads));
  std::set<std::uint32_t> tids;
  for (const CollectedTraceEvent& ev : collection.events) {
    EXPECT_GE(ev.tid, kTraceAutoTidBase);
    tids.insert(ev.tid);
  }
  EXPECT_EQ(tids.size(), static_cast<std::size_t>(kThreads));  // no sharing
}

TEST(ObsTrace, LocalRingSkipsExplicitlyClaimedTids) {
  WORMS_REQUIRE_OBS();
  Tracer tracer(synthetic_options());
  // Claim the first auto tid explicitly, as a pool instrumented at the auto
  // base would; the calling thread's local ring must not share it.
  TraceRing& claimed = tracer.ring(kTraceAutoTidBase);
  TraceRing& local = tracer.local_ring();
  EXPECT_NE(&claimed, &local);
  EXPECT_EQ(local.tid(), kTraceAutoTidBase + 1);
}

TEST(ObsTrace, SpanGuardAndMacroAreNoOpsOnNullSink) {
  // Must not crash or record anywhere.
  SpanGuard guard(static_cast<TraceRing*>(nullptr), "nothing");
  WORMS_TRACE_SPAN(static_cast<Tracer*>(nullptr), "nothing_either");
  Tracer tracer(synthetic_options());
  { WORMS_TRACE_SPAN(&tracer, "real"); }
  if (kEnabled) {
    EXPECT_EQ(tracer.collect().events.size(), 2u);  // only the real span
  }
}

TEST(ObsTrace, CollectWhileRecordingYieldsConsistentPrefix) {
  WORMS_REQUIRE_OBS();
  Tracer tracer(synthetic_options(1u << 14));
  std::atomic<bool> stop{false};
  std::thread writer([&tracer, &stop] {
    TraceRing& ring = tracer.ring(1);
    std::uint64_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      ring.instant("n", static_cast<double>(i++));
    }
  });
  for (int round = 0; round < 50; ++round) {
    const TraceCollection collection = tracer.collect();
    // Every drained event was fully published: names valid, values are the
    // dense prefix counter (within the retained window).
    for (const CollectedTraceEvent& ev : collection.events) {
      EXPECT_EQ(ev.name, "n");
      EXPECT_DOUBLE_EQ(ev.value, static_cast<double>(ev.seq));
    }
  }
  stop.store(true);
  writer.join();
}

TEST(ObsTraceExport, ChromeRenderParsesBackLossless) {
  WORMS_REQUIRE_OBS();
  Tracer tracer(synthetic_options());
  TraceRing& ingest = tracer.ring(0);
  TraceRing& shard = tracer.ring(1);
  ingest.span_begin("ingest_batch");
  shard.instant("health_degraded", 1.0);
  shard.counter("queue_depth", 17.0);
  ingest.span_end("ingest_batch");
  const TraceCollection original = tracer.collect();

  const std::string json = render_chrome_trace(original);
  const TraceCollection parsed = parse_chrome_trace(json);

  EXPECT_EQ(parsed.clock, TraceClock::Synthetic);
  EXPECT_EQ(parsed.recorded, original.recorded);
  EXPECT_EQ(parsed.dropped, original.dropped);
  ASSERT_EQ(parsed.events.size(), original.events.size());
  for (std::size_t i = 0; i < parsed.events.size(); ++i) {
    EXPECT_EQ(parsed.events[i].tick, original.events[i].tick) << i;
    EXPECT_EQ(parsed.events[i].name, original.events[i].name) << i;
    EXPECT_EQ(parsed.events[i].tid, original.events[i].tid) << i;
    EXPECT_EQ(parsed.events[i].kind, original.events[i].kind) << i;
    EXPECT_DOUBLE_EQ(parsed.events[i].value, original.events[i].value) << i;
  }
}

TEST(ObsTraceExport, JournalEventsRenderAsNamedInstantsOnWriterTids) {
  WORMS_REQUIRE_OBS();
  Tracer tracer(synthetic_options());
  tracer.ring(0).span_begin("ingest_batch");
  tracer.ring(0).span_end("ingest_batch");
  EventLogOptions journal_options;
  journal_options.clock = TraceClock::Synthetic;
  EventLog journal(journal_options);
  journal.writer(1).emit(EventType::DegradeStep, 64, 0, 1);
  journal.writer(0).emit(EventType::FaultClauseFired, 40,
                         static_cast<std::uint64_t>(FaultKind::RecordCorrupt), 3);
  journal.writer(0).emit(EventType::OverloadTransition, 90, 2, 2);
  journal.writer(0).emit(EventType::CheckpointWrite, 80, 1, 512);

  const TraceCollection merged = merge_journal(tracer.collect(), journal.collect());
  EXPECT_EQ(merged.recorded, 6u);
  EXPECT_EQ(merged.dropped, 0u);
  ASSERT_EQ(merged.events.size(), 6u);
  for (std::size_t i = 1; i < merged.events.size(); ++i) {
    EXPECT_FALSE(trace_order(merged.events[i], merged.events[i - 1])) << i;
  }

  const TraceCollection parsed = parse_chrome_trace(render_chrome_trace(merged));
  ASSERT_EQ(parsed.events.size(), merged.events.size());
  const auto find = [&parsed](const std::string& name) -> const CollectedTraceEvent* {
    for (const CollectedTraceEvent& ev : parsed.events) {
      if (ev.name == name) return &ev;
    }
    return nullptr;
  };
  const CollectedTraceEvent* degrade = find("backend_degrade");
  ASSERT_NE(degrade, nullptr);
  EXPECT_EQ(degrade->kind, TraceEventKind::Instant);
  EXPECT_EQ(degrade->tid, 1u);
  EXPECT_DOUBLE_EQ(degrade->value, 0.0);  // the degraded shard
  const CollectedTraceEvent* corrupt = find("fault_corrupt");
  ASSERT_NE(corrupt, nullptr);
  EXPECT_EQ(corrupt->tid, 0u);
  EXPECT_DOUBLE_EQ(corrupt->value, 3.0);  // the shard the record was bound for
  const CollectedTraceEvent* shedding = find("health_shedding");
  ASSERT_NE(shedding, nullptr);
  EXPECT_DOUBLE_EQ(shedding->value, 2.0);
  ASSERT_NE(find("CheckpointWrite"), nullptr);  // no trace name: journal type name

  const TraceSummary summary = summarize_trace(parsed);
  for (const char* name : {"backend_degrade", "fault_corrupt", "health_shedding",
                           "CheckpointWrite"}) {
    const InstantStats* s = summary.find_instant(name);
    ASSERT_NE(s, nullptr) << name;
    EXPECT_EQ(s->count, 1u) << name;
  }
  const SpanStats* ingest = summary.find_span("ingest_batch");
  ASSERT_NE(ingest, nullptr);
  EXPECT_EQ(ingest->count, 1u);
}

TEST(ObsTraceExport, MergeJournalRejectsAClockMismatch) {
  Tracer tracer;  // wall clock
  EventLogOptions journal_options;
  journal_options.clock = TraceClock::Synthetic;
  EventLog journal(journal_options);
  EXPECT_THROW((void)merge_journal(tracer.collect(), journal.collect()),
               support::PreconditionError);
}

TEST(ObsTraceExport, WallTimestampRoundtripIsExactForNanosecondTicks) {
  // ts is rendered as microseconds with 3 decimals, so nanosecond ticks
  // survive the µs detour exactly.
  TraceCollection collection;
  collection.clock = TraceClock::Wall;
  collection.ticks_per_second = 1e9;
  collection.events.push_back({123456789u, 0, "t", 0.0, 3, TraceEventKind::Instant});
  collection.events.push_back({1u, 1, "t", 0.0, 3, TraceEventKind::Instant});
  collection.recorded = 2;

  const TraceCollection parsed = parse_chrome_trace(render_chrome_trace(collection));
  ASSERT_EQ(parsed.events.size(), 2u);
  EXPECT_EQ(parsed.events[0].tick, 123456789u);
  EXPECT_EQ(parsed.events[1].tick, 1u);
  EXPECT_EQ(parsed.clock, TraceClock::Wall);
}

TEST(ObsTraceExport, RenderEscapesQuotesAndBackslashes) {
  TraceCollection collection;
  collection.events.push_back({0, 0, "quo\"te\\back", 0.0, 0, TraceEventKind::Instant});
  collection.recorded = 1;
  const std::string json = render_chrome_trace(collection);
  EXPECT_NE(json.find("quo\\\"te\\\\back"), std::string::npos);
  const TraceCollection parsed = parse_chrome_trace(json);
  ASSERT_EQ(parsed.events.size(), 1u);
  EXPECT_EQ(parsed.events[0].name, "quo\"te\\back");
}

TEST(ObsTraceExport, ParseRejectsNonTraceInput) {
  EXPECT_THROW((void)parse_chrome_trace("not json at all"), support::PreconditionError);
  EXPECT_THROW((void)parse_chrome_trace("{\"events\":[]}"), support::PreconditionError);
  // A traceEvents file with an event line missing ts is malformed, not skipped.
  EXPECT_THROW((void)parse_chrome_trace("{\"traceEvents\":[\n"
                                        "{\"name\":\"x\",\"ph\":\"B\",\"tid\":0}\n]}"),
               support::PreconditionError);
}

TEST(ObsTraceExport, ParseSkipsUnmodeledPhases) {
  const std::string json =
      "{\"traceEvents\":[\n"
      "{\"name\":\"process_name\",\"ph\":\"M\",\"ts\":0.000,\"pid\":0,\"tid\":0},\n"
      "{\"name\":\"x\",\"ph\":\"i\",\"ts\":2.000,\"pid\":0,\"tid\":4,\"s\":\"t\","
      "\"args\":{\"value\":5}}\n"
      "],\n\"otherData\":{\"clock\":\"synthetic\"}\n}\n";
  const TraceCollection parsed = parse_chrome_trace(json);
  ASSERT_EQ(parsed.events.size(), 1u);
  EXPECT_EQ(parsed.events[0].name, "x");
  EXPECT_EQ(parsed.events[0].tick, 2u);
  EXPECT_DOUBLE_EQ(parsed.events[0].value, 5.0);
}

TEST(ObsTraceSummary, PairsSpansPerThreadAndCountsUnmatched) {
  TraceCollection collection;
  collection.clock = TraceClock::Synthetic;
  collection.ticks_per_second = 1.0;
  auto push = [&collection](std::uint64_t tick, std::uint32_t tid, const char* name,
                            TraceEventKind kind) {
    collection.events.push_back(
        {tick, collection.events.size(), name, 0.0, tid, kind});
  };
  // tid 0: two complete "batch" spans of 3 and 5 ticks.
  push(0, 0, "batch", TraceEventKind::SpanBegin);
  push(3, 0, "batch", TraceEventKind::SpanEnd);
  push(10, 0, "batch", TraceEventKind::SpanBegin);
  push(15, 0, "batch", TraceEventKind::SpanEnd);
  // tid 1: a "batch" end whose begin was overwritten, plus a dangling begin.
  push(4, 1, "batch", TraceEventKind::SpanEnd);
  push(20, 1, "checkpoint", TraceEventKind::SpanBegin);
  collection.recorded = collection.events.size();

  const TraceSummary summary = summarize_trace(collection);
  const SpanStats* batch = summary.find_span("batch");
  ASSERT_NE(batch, nullptr);
  EXPECT_EQ(batch->count, 2u);
  EXPECT_EQ(batch->unmatched, 1u);
  EXPECT_DOUBLE_EQ(batch->total_seconds, 8.0);
  const SpanStats* checkpoint = summary.find_span("checkpoint");
  ASSERT_NE(checkpoint, nullptr);
  EXPECT_EQ(checkpoint->count, 0u);
  EXPECT_EQ(checkpoint->unmatched, 1u);
}

TEST(ObsTraceSummary, NestedSpansPairInnermostFirst) {
  TraceCollection collection;
  collection.clock = TraceClock::Synthetic;
  collection.ticks_per_second = 1.0;
  collection.events.push_back({0, 0, "outer", 0.0, 0, TraceEventKind::SpanBegin});
  collection.events.push_back({1, 1, "inner", 0.0, 0, TraceEventKind::SpanBegin});
  collection.events.push_back({3, 2, "inner", 0.0, 0, TraceEventKind::SpanEnd});
  collection.events.push_back({9, 3, "outer", 0.0, 0, TraceEventKind::SpanEnd});
  collection.recorded = 4;

  const TraceSummary summary = summarize_trace(collection);
  const SpanStats* outer = summary.find_span("outer");
  const SpanStats* inner = summary.find_span("inner");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_DOUBLE_EQ(outer->total_seconds, 9.0);
  EXPECT_DOUBLE_EQ(inner->total_seconds, 2.0);
  EXPECT_EQ(outer->unmatched, 0u);
  EXPECT_EQ(inner->unmatched, 0u);
}

TEST(ObsTraceSummary, QuantilesMatchMetricsHistogramBuckets) {
  WORMS_REQUIRE_OBS();
  // The acceptance bar: summary p50/p99 must agree with an obs::Histogram
  // fed the same durations — same spec, same bucket upper bounds.
  std::vector<double> durations;
  TraceCollection collection;
  collection.clock = TraceClock::Wall;
  collection.ticks_per_second = 1e9;
  std::uint64_t now = 0;
  std::uint64_t seq = 0;
  for (int i = 1; i <= 200; ++i) {
    const std::uint64_t ns = static_cast<std::uint64_t>(i) * 37'000;  // 37µs..7.4ms
    durations.push_back(static_cast<double>(ns) / 1e9);
    collection.events.push_back({now, seq++, "op", 0.0, 0, TraceEventKind::SpanBegin});
    collection.events.push_back({now + ns, seq++, "op", 0.0, 0, TraceEventKind::SpanEnd});
    now += ns + 1'000;
  }
  collection.recorded = collection.events.size();

  Histogram reference{HistogramSpec{}};  // the metrics layer's latency spec
  for (const double d : durations) reference.record(d);
  const HistogramSnapshot snap = reference.snapshot("op");

  const TraceSummary summary = summarize_trace(collection);
  const SpanStats* op = summary.find_span("op");
  ASSERT_NE(op, nullptr);
  EXPECT_EQ(op->count, 200u);
  EXPECT_DOUBLE_EQ(op->p50_seconds, snap.quantile(0.5));
  EXPECT_DOUBLE_EQ(op->p99_seconds, snap.quantile(0.99));
}

TEST(ObsTraceSummary, RenderMentionsCountsAndClock) {
  TraceCollection collection;
  collection.clock = TraceClock::Synthetic;
  collection.ticks_per_second = 1.0;
  collection.events.push_back({0, 0, "b", 0.0, 0, TraceEventKind::SpanBegin});
  collection.events.push_back({4, 1, "b", 0.0, 0, TraceEventKind::SpanEnd});
  collection.events.push_back({5, 2, "hit", 2.0, 0, TraceEventKind::Instant});
  collection.events.push_back({6, 3, "depth", 9.0, 0, TraceEventKind::Counter});
  collection.recorded = 4;
  collection.dropped = 0;

  const std::string text = render_trace_summary(summarize_trace(collection));
  EXPECT_NE(text.find("4 event(s)"), std::string::npos);
  EXPECT_NE(text.find("synthetic clock"), std::string::npos);
  EXPECT_NE(text.find("total_ticks"), std::string::npos);
  EXPECT_NE(text.find("b "), std::string::npos);
  EXPECT_NE(text.find("hit"), std::string::npos);
  EXPECT_NE(text.find("depth"), std::string::npos);
}

TEST(ObsTrace, DisabledBuildRecordsNothing) {
  if (kEnabled) GTEST_SKIP() << "covers the WORMS_OBS=OFF build only";
  Tracer tracer(synthetic_options());
  TraceRing& ring = tracer.ring(0);
  for (int i = 0; i < 10; ++i) ring.instant("gone");
  { WORMS_TRACE_SPAN(&tracer, "also_gone"); }
  const TraceCollection collection = tracer.collect();
  EXPECT_TRUE(collection.events.empty());
  EXPECT_EQ(collection.recorded, 0u);
}

}  // namespace
}  // namespace worms::obs
