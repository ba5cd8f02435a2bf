#include "obs/event_log.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <cstdio>

#include "support/check.hpp"

namespace worms::obs {

namespace {

constexpr std::array<EventType, 8> kAllEventTypes = {
    EventType::DegradeStep,      EventType::CheckpointWrite,
    EventType::CheckpointRestore, EventType::ReplicaPromotion,
    EventType::HostRemoved,      EventType::FaultClauseFired,
    EventType::NetQuarantine,    EventType::OverloadTransition,
};

}  // namespace

const char* to_string(EventType type) noexcept {
  switch (type) {
    case EventType::DegradeStep: return "DegradeStep";
    case EventType::CheckpointWrite: return "CheckpointWrite";
    case EventType::CheckpointRestore: return "CheckpointRestore";
    case EventType::ReplicaPromotion: return "ReplicaPromotion";
    case EventType::HostRemoved: return "HostRemoved";
    case EventType::FaultClauseFired: return "FaultClauseFired";
    case EventType::NetQuarantine: return "NetQuarantine";
    case EventType::OverloadTransition: return "OverloadTransition";
  }
  return "unknown";
}

bool parse_event_type(std::string_view name, EventType& out) noexcept {
  for (const EventType t : kAllEventTypes) {
    if (name == to_string(t)) {
      out = t;
      return true;
    }
  }
  return false;
}

EventLog::EventLog(const EventLogOptions& options)
    : WriterRingSet(options.buffer_events, options.clock), node_id_(options.node_id) {}

EventCollection EventLog::collect() const {
  EventCollection out;
  out.clock = clock();
  out.node_id = node_id_;
  drain(
      [&out](const Event& ev, std::uint64_t seq, std::uint32_t writer) {
        out.events.push_back({ev.tick, ev.position, ev.a, ev.b, seq, writer, ev.type});
      },
      out.recorded, out.dropped);
  std::sort(out.events.begin(), out.events.end(),
            [](const CollectedEvent& a, const CollectedEvent& b) {
              if (a.position != b.position) return a.position < b.position;
              if (a.writer != b.writer) return a.writer < b.writer;
              return a.seq < b.seq;
            });
  return out;
}

namespace {

[[nodiscard]] std::string fmt_u64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%llu", static_cast<unsigned long long>(v));
  return buf;
}

/// Strict left-to-right scanner over one JSONL line.  The exporter writes
/// fields in one fixed order, so the parser demands exactly that order —
/// any deviation means the file is not a wormctl event journal.
struct LineScanner {
  const char* p;
  const char* end;
  std::size_t line;

  [[noreturn]] void fail(const char* why) const {
    throw support::PreconditionError("event journal line " + std::to_string(line) +
                                     ": " + why);
  }

  void expect(std::string_view literal) {
    if (static_cast<std::size_t>(end - p) < literal.size() ||
        std::string_view(p, literal.size()) != literal) {
      fail("malformed event object");
    }
    p += literal.size();
  }

  [[nodiscard]] std::uint64_t u64_field(std::string_view key) {
    expect("\"");
    expect(key);
    expect("\":");
    std::uint64_t v = 0;
    const auto [np, ec] = std::from_chars(p, end, v);
    if (ec != std::errc() || np == p) fail("expected an unsigned integer field");
    p = np;
    return v;
  }

  [[nodiscard]] std::string_view string_field(std::string_view key) {
    expect("\"");
    expect(key);
    expect("\":\"");
    const char* start = p;
    while (p < end && *p != '"') ++p;
    if (p == end) fail("unterminated string field");
    const std::string_view v(start, static_cast<std::size_t>(p - start));
    ++p;
    return v;
  }
};

}  // namespace

std::string render_events_jsonl(const EventCollection& collection) {
  std::string out = "{\"schema\":\"worms-events-v1\",\"node\":" +
                    fmt_u64(collection.node_id) + ",\"clock\":\"" +
                    to_string(collection.clock) + "\",\"recorded\":" +
                    fmt_u64(collection.recorded) + ",\"dropped\":" +
                    fmt_u64(collection.dropped) + "}\n";
  for (const CollectedEvent& ev : collection.events) {
    out += "{\"node\":" + fmt_u64(collection.node_id) + ",\"type\":\"" +
           to_string(ev.type) + "\",\"position\":" + fmt_u64(ev.position) +
           ",\"writer\":" + fmt_u64(ev.writer) + ",\"seq\":" + fmt_u64(ev.seq) +
           ",\"tick\":" + fmt_u64(ev.tick) + ",\"a\":" + fmt_u64(ev.a) +
           ",\"b\":" + fmt_u64(ev.b) + "}\n";
  }
  return out;
}

EventCollection parse_events_jsonl(const std::string& text) {
  EventCollection out;
  std::size_t pos = 0;
  std::size_t line_no = 0;
  bool saw_meta = false;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    ++line_no;
    LineScanner s{text.data() + pos, text.data() + eol, line_no};
    pos = eol + 1;
    if (s.p == s.end) continue;  // tolerate a trailing blank line
    s.expect("{");
    if (!saw_meta) {
      const std::string_view schema = s.string_field("schema");
      if (schema != "worms-events-v1") s.fail("not a worms event journal");
      s.expect(",");
      out.node_id = s.u64_field("node");
      s.expect(",");
      const std::string_view clock = s.string_field("clock");
      if (clock == "wall") {
        out.clock = TraceClock::Wall;
      } else if (clock == "synthetic") {
        out.clock = TraceClock::Synthetic;
      } else {
        s.fail("unknown clock");
      }
      s.expect(",");
      out.recorded = s.u64_field("recorded");
      s.expect(",");
      out.dropped = s.u64_field("dropped");
      s.expect("}");
      saw_meta = true;
      continue;
    }
    CollectedEvent ev;
    (void)s.u64_field("node");  // per-line copy of the journal's node id
    s.expect(",");
    const std::string_view type_name = s.string_field("type");
    if (!parse_event_type(type_name, ev.type)) s.fail("unknown event type");
    s.expect(",");
    ev.position = s.u64_field("position");
    s.expect(",");
    ev.writer = static_cast<std::uint32_t>(s.u64_field("writer"));
    s.expect(",");
    ev.seq = s.u64_field("seq");
    s.expect(",");
    ev.tick = s.u64_field("tick");
    s.expect(",");
    ev.a = s.u64_field("a");
    s.expect(",");
    ev.b = s.u64_field("b");
    s.expect("}");
    out.events.push_back(ev);
  }
  if (!saw_meta) {
    throw support::PreconditionError("event journal: missing schema line");
  }
  return out;
}

}  // namespace worms::obs
