// Unit tests for the structured event journal (obs/event_log.hpp): emit /
// collect ordering, wrap-drop accounting, synthetic-clock determinism, JSONL
// round trips, strict-parser rejections, and thread-local auto writers.
#include "obs/event_log.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "support/check.hpp"

namespace {

using namespace worms::obs;

EventLogOptions synthetic_options(std::size_t buffer = 1u << 12) {
  EventLogOptions options;
  options.buffer_events = buffer;
  options.clock = worms::obs::TraceClock::Synthetic;
  options.node_id = 7;
  return options;
}

TEST(ObsEventLog, CollectOrdersByPositionThenWriterThenSeq) {
  if (!kEnabled) GTEST_SKIP() << "built with WORMS_OBS=OFF";
  EventLog log(synthetic_options());
  // Emit out of position order across two writers; collect() must produce
  // the (position, writer, seq) order regardless of emission interleaving.
  log.writer(1).emit(EventType::HostRemoved, 300, 42, 0);
  log.writer(0).emit(EventType::CheckpointWrite, 100, 1, 512);
  log.writer(1).emit(EventType::HostRemoved, 100, 17, 1);
  log.writer(0).emit(EventType::CheckpointWrite, 300, 2, 1024);

  const EventCollection c = log.collect();
  ASSERT_EQ(c.events.size(), 4u);
  EXPECT_EQ(c.events[0].position, 100u);
  EXPECT_EQ(c.events[0].writer, 0u);
  EXPECT_EQ(c.events[0].type, EventType::CheckpointWrite);
  EXPECT_EQ(c.events[1].position, 100u);
  EXPECT_EQ(c.events[1].writer, 1u);
  EXPECT_EQ(c.events[2].position, 300u);
  EXPECT_EQ(c.events[2].writer, 0u);
  EXPECT_EQ(c.events[3].position, 300u);
  EXPECT_EQ(c.events[3].writer, 1u);
  EXPECT_EQ(c.recorded, 4u);
  EXPECT_EQ(c.dropped, 0u);
  EXPECT_EQ(c.node_id, 7u);
  EXPECT_EQ(c.clock, worms::obs::TraceClock::Synthetic);
}

TEST(ObsEventLog, SyntheticClockStampsWriterSequence) {
  if (!kEnabled) GTEST_SKIP() << "built with WORMS_OBS=OFF";
  EventLog log(synthetic_options());
  EXPECT_FALSE(log.wall_clock());
  EXPECT_FALSE(log.writer(0).wall_clock());
  for (std::uint64_t i = 0; i < 5; ++i) {
    log.writer(0).emit(EventType::DegradeStep, 10 * i, i, 0);
  }
  const EventCollection c = log.collect();
  ASSERT_EQ(c.events.size(), 5u);
  for (std::uint64_t i = 0; i < 5; ++i) {
    EXPECT_EQ(c.events[i].tick, i);  // tick == writer seq, not wall time
    EXPECT_EQ(c.events[i].seq, i);
  }
}

TEST(ObsEventLog, WrapOverwritesOldestAndCountsDropped) {
  if (!kEnabled) GTEST_SKIP() << "built with WORMS_OBS=OFF";
  // buffer_events below the 64 floor is normalized up to 64.
  EventLog log(synthetic_options(1));
  EXPECT_EQ(log.writer(0).capacity(), 64u);
  for (std::uint64_t i = 0; i < 100; ++i) {
    log.writer(0).emit(EventType::HostRemoved, i, i, 0);
  }
  const EventCollection c = log.collect();
  EXPECT_EQ(c.recorded, 100u);
  EXPECT_EQ(c.dropped, 36u);
  ASSERT_EQ(c.events.size(), 64u);
  // The retained window is the newest 64, still in order.
  EXPECT_EQ(c.events.front().position, 36u);
  EXPECT_EQ(c.events.back().position, 99u);
}

TEST(ObsEventLog, LocalWriterIdsStartAtAutoBaseAndAreDistinctPerThread) {
  if (!kEnabled) GTEST_SKIP() << "built with WORMS_OBS=OFF";
  EventLog log(synthetic_options());
  EXPECT_GE(log.local_writer().id(), kEventAutoWriterBase);
  // Same thread: cached, same writer.
  EXPECT_EQ(&log.local_writer(), &log.local_writer());
  std::uint32_t other_id = 0;
  std::thread t([&] {
    log.local_writer().emit(EventType::NetQuarantine, 5, 1, 9);
    other_id = log.local_writer().id();
  });
  t.join();
  EXPECT_NE(other_id, log.local_writer().id());
  EXPECT_GE(other_id, kEventAutoWriterBase);
  const EventCollection c = log.collect();
  ASSERT_EQ(c.events.size(), 1u);
  EXPECT_EQ(c.events[0].writer, other_id);
}

TEST(ObsEventLog, CollectWhileEmittingYieldsConsistentPrefix) {
  if (!kEnabled) GTEST_SKIP() << "built with WORMS_OBS=OFF";
  EventLog log(synthetic_options(1u << 14));
  EventWriter& writer = log.writer(1);
  std::atomic<bool> stop{false};
  std::thread emitter([&writer, &stop] {
    std::uint64_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      writer.emit(EventType::HostRemoved, i, i, i);
      ++i;
    }
  });
  while (writer.recorded() == 0) std::this_thread::yield();
  for (int round = 0; round < 50; ++round) {
    const EventCollection c = log.collect();
    // Every drained event was fully published: each field is the writer's
    // dense counter at that event, never a mix of two laps.
    for (const CollectedEvent& ev : c.events) {
      EXPECT_EQ(ev.type, EventType::HostRemoved);
      EXPECT_EQ(ev.tick, ev.seq);
      EXPECT_EQ(ev.position, ev.seq);
      EXPECT_EQ(ev.a, ev.seq);
      EXPECT_EQ(ev.b, ev.seq);
    }
    EXPECT_EQ(c.recorded, c.events.size() + c.dropped);
  }
  stop.store(true);
  emitter.join();
}

TEST(ObsEventLog, EventTypeNamesRoundTrip) {
  const EventType all[] = {
      EventType::DegradeStep,     EventType::CheckpointWrite,
      EventType::CheckpointRestore, EventType::ReplicaPromotion,
      EventType::HostRemoved,     EventType::FaultClauseFired,
      EventType::NetQuarantine,   EventType::OverloadTransition,
  };
  for (const EventType t : all) {
    EventType back = EventType::DegradeStep;
    ASSERT_TRUE(parse_event_type(to_string(t), back)) << to_string(t);
    EXPECT_EQ(back, t);
  }
  EventType unused = EventType::DegradeStep;
  EXPECT_FALSE(parse_event_type("NoSuchEvent", unused));
  EXPECT_FALSE(parse_event_type("", unused));
  EXPECT_FALSE(parse_event_type("hostremoved", unused));  // case-sensitive
}

TEST(ObsEventLog, JsonlRoundTripPreservesEverything) {
  if (!kEnabled) GTEST_SKIP() << "built with WORMS_OBS=OFF";
  EventLog log(synthetic_options());
  log.writer(0).emit(EventType::CheckpointWrite, 2000, 1, 18286);
  log.writer(2).emit(EventType::HostRemoved, 2781, 1072, 1);
  log.writer(0).emit(EventType::FaultClauseFired, 50, 2, 1);
  const EventCollection original = log.collect();

  const std::string text = render_events_jsonl(original);
  const EventCollection parsed = parse_events_jsonl(text);
  EXPECT_EQ(parsed.events, original.events);
  EXPECT_EQ(parsed.recorded, original.recorded);
  EXPECT_EQ(parsed.dropped, original.dropped);
  EXPECT_EQ(parsed.clock, original.clock);
  EXPECT_EQ(parsed.node_id, original.node_id);

  // Byte stability: render(parse(render(x))) == render(x).
  EXPECT_EQ(render_events_jsonl(parsed), text);
}

TEST(ObsEventLog, JsonlRenderIsByteStableAcrossIdenticalLogs) {
  if (!kEnabled) GTEST_SKIP() << "built with WORMS_OBS=OFF";
  const auto build = [] {
    EventLog log(synthetic_options());
    log.writer(0).emit(EventType::DegradeStep, 128, 1, 1);
    log.writer(1).emit(EventType::OverloadTransition, 256, 1, 2);
    return render_events_jsonl(log.collect());
  };
  EXPECT_EQ(build(), build());
}

TEST(ObsEventLog, ParserRejectsMalformedJournals) {
  const char* kBad[] = {
      // No meta line.
      "{\"node\":0,\"type\":\"HostRemoved\",\"position\":1,\"writer\":0,"
      "\"seq\":0,\"tick\":0,\"a\":0,\"b\":0}\n",
      // Wrong schema tag.
      "{\"schema\":\"worms-events-v9\",\"node\":0,\"clock\":\"wall\","
      "\"recorded\":0,\"dropped\":0}\n",
      // Unknown event type.
      "{\"schema\":\"worms-events-v1\",\"node\":0,\"clock\":\"synthetic\","
      "\"recorded\":1,\"dropped\":0}\n"
      "{\"node\":0,\"type\":\"Explosion\",\"position\":1,\"writer\":0,"
      "\"seq\":0,\"tick\":0,\"a\":0,\"b\":0}\n",
      // Truncated event line.
      "{\"schema\":\"worms-events-v1\",\"node\":0,\"clock\":\"wall\","
      "\"recorded\":1,\"dropped\":0}\n"
      "{\"node\":0,\"type\":\"HostRemoved\",\"position\":1\n",
      // Garbage.
      "not json at all\n",
  };
  for (const char* text : kBad) {
    EXPECT_THROW((void)parse_events_jsonl(std::string(text)),
                 worms::support::PreconditionError)
        << text;
  }
}

TEST(ObsEventLog, DisabledBuildRecordsNothingButToolingStillWorks) {
  if (kEnabled) GTEST_SKIP() << "covers the WORMS_OBS=OFF build only";
  EventLog log(synthetic_options());
  log.writer(0).emit(EventType::HostRemoved, 1, 2, 3);
  log.local_writer().emit(EventType::NetQuarantine, 4, 5, 6);
  const EventCollection c = log.collect();
  EXPECT_TRUE(c.events.empty());
  EXPECT_EQ(c.recorded, 0u);
  // The JSONL parser/renderer are plain code, available either way: a
  // journal produced by an enabled build still loads here.
  const std::string text =
      "{\"schema\":\"worms-events-v1\",\"node\":3,\"clock\":\"synthetic\","
      "\"recorded\":1,\"dropped\":0}\n"
      "{\"node\":3,\"type\":\"DegradeStep\",\"position\":64,\"writer\":1,"
      "\"seq\":0,\"tick\":0,\"a\":0,\"b\":1}\n";
  const EventCollection parsed = parse_events_jsonl(text);
  ASSERT_EQ(parsed.events.size(), 1u);
  EXPECT_EQ(parsed.events[0].type, EventType::DegradeStep);
  EXPECT_EQ(parsed.node_id, 3u);
}

}  // namespace
