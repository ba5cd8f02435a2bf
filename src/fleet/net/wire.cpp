#include "fleet/net/wire.hpp"

#include <cstdio>
#include <cstring>
#include <utility>

#include "fleet/checkpoint.hpp"
#include "support/check.hpp"
#include "trace/binary_io.hpp"

namespace worms::fleet::net {

namespace {

/// Little-endian field access into a raw header (mirrors BinaryWriter's
/// encoding without requiring a contiguous parse).
template <typename T>
[[nodiscard]] T get_le(const char* p) noexcept {
  T v = 0;
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    v |= static_cast<T>(static_cast<unsigned char>(p[i])) << (8 * i);
  }
  return v;
}

}  // namespace

const char* to_string(FrameType type) noexcept {
  switch (type) {
    case FrameType::Hello: return "hello";
    case FrameType::Welcome: return "welcome";
    case FrameType::Records: return "records";
    case FrameType::Alert: return "alert";
    case FrameType::Checkpoint: return "checkpoint";
    case FrameType::Bye: return "bye";
    case FrameType::StatsQuery: return "stats_query";
    case FrameType::StatsReport: return "stats_report";
  }
  return "unknown";
}

bool frame_type_known(std::uint8_t raw) noexcept {
  return raw >= static_cast<std::uint8_t>(FrameType::Hello) &&
         raw <= static_cast<std::uint8_t>(FrameType::StatsReport);
}

std::string encode_frame(FrameType type, std::string_view payload) {
  WORMS_EXPECTS(payload.size() <= kMaxFramePayload && "frame payload exceeds kMaxFramePayload");
  BinaryWriter out;
  out.reserve(kFrameHeaderBytes + payload.size());
  out.put_u32(kFrameMagic);
  out.put_u8(kFrameVersion);
  out.put_u8(static_cast<std::uint8_t>(type));
  out.put_u16(0);  // reserved
  out.put_u32(static_cast<std::uint32_t>(payload.size()));
  out.put_u64(trace::wtrace_checksum(payload.data(), payload.size()));
  out.put_bytes(payload.data(), payload.size());
  return std::move(out).take();
}

void FrameDecoder::append(const char* data, std::size_t size) {
  if (poisoned_) return;  // connection is dead; don't buffer what we won't parse
  // Compact the consumed prefix before growing: the buffer never holds more
  // than one maximal frame plus whatever the last read appended.
  if (consumed_ > 0 && consumed_ == buffer_.size()) {
    buffer_.clear();
    consumed_ = 0;
  } else if (consumed_ > (64u << 10) && consumed_ > buffer_.size() / 2) {
    buffer_.erase(0, consumed_);
    consumed_ = 0;
  }
  buffer_.append(data, size);
}

FrameDecoder::Result FrameDecoder::fail(DeadLetterReason reason, std::string detail) {
  poisoned_ = true;
  Result r;
  r.status = Status::Error;
  r.reason = reason;
  r.detail = std::move(detail);
  return r;
}

FrameDecoder::Result FrameDecoder::next() {
  if (poisoned_) return {};
  const std::size_t available = buffer_.size() - consumed_;
  const char* p = buffer_.data() + consumed_;
  if (available < kFrameHeaderBytes) {
    if (finished_ && available > 0) {
      return fail(DeadLetterReason::FrameTruncated,
                  "stream ended inside a frame header (" + std::to_string(available) +
                      " of " + std::to_string(kFrameHeaderBytes) + " bytes)");
    }
    return {};
  }

  const std::uint32_t magic = get_le<std::uint32_t>(p);
  if (magic != kFrameMagic) {
    return fail(DeadLetterReason::FrameBadMagic,
                "bad frame magic 0x" + [magic] {
                  char hex[9];
                  std::snprintf(hex, sizeof hex, "%08X", magic);
                  return std::string(hex);
                }());
  }
  const std::uint8_t version = static_cast<std::uint8_t>(p[4]);
  if (version != kFrameVersion) {
    return fail(DeadLetterReason::FrameBadMagic,
                "unsupported frame version " + std::to_string(version));
  }
  const std::uint8_t raw_type = static_cast<std::uint8_t>(p[5]);
  if (!frame_type_known(raw_type)) {
    return fail(DeadLetterReason::FrameBadMagic,
                "unknown frame type " + std::to_string(raw_type));
  }
  if (get_le<std::uint16_t>(p + 6) != 0) {
    return fail(DeadLetterReason::FrameBadMagic, "nonzero reserved header field");
  }
  const std::uint32_t length = get_le<std::uint32_t>(p + 8);
  if (length > kMaxFramePayload) {
    return fail(DeadLetterReason::FrameOversized,
                "length prefix " + std::to_string(length) + " exceeds limit " +
                    std::to_string(kMaxFramePayload));
  }
  if (available < kFrameHeaderBytes + length) {
    if (finished_) {
      return fail(DeadLetterReason::FrameTruncated,
                  "stream ended inside a " + std::string(to_string(static_cast<FrameType>(
                      raw_type))) + " payload (" +
                      std::to_string(available - kFrameHeaderBytes) + " of " +
                      std::to_string(length) + " bytes)");
    }
    return {};
  }
  const std::uint64_t want = get_le<std::uint64_t>(p + 12);
  const std::uint64_t got = trace::wtrace_checksum(p + kFrameHeaderBytes, length);
  if (want != got) {
    return fail(DeadLetterReason::FrameChecksum,
                std::string("payload checksum mismatch on a ") +
                    to_string(static_cast<FrameType>(raw_type)) + " frame");
  }

  Result r;
  r.status = Status::Ready;
  r.frame.type = static_cast<FrameType>(raw_type);
  r.frame.payload.assign(p + kFrameHeaderBytes, length);
  consumed_ += kFrameHeaderBytes + length;
  ++frames_decoded_;
  return r;
}

// ---------------------------------------------------------------------------
// Payloads.

std::string encode_hello(const HelloPayload& hello) {
  BinaryWriter out;
  out.put_u64(hello.client_id);
  out.put_u8(static_cast<std::uint8_t>(hello.kind));
  return std::move(out).take();
}

HelloPayload decode_hello(std::string_view payload) {
  BinaryReader in(payload);
  HelloPayload hello;
  hello.client_id = in.get_u64();
  const std::uint8_t kind = in.get_u8();
  WORMS_EXPECTS(kind <= 1 && "hello payload: unknown connection kind");
  hello.kind = static_cast<HelloPayload::Kind>(kind);
  WORMS_EXPECTS(in.remaining() == 0 && "hello payload: trailing bytes");
  return hello;
}

std::string encode_welcome(const WelcomePayload& welcome) {
  BinaryWriter out;
  out.put_u64(welcome.resume_position);
  return std::move(out).take();
}

WelcomePayload decode_welcome(std::string_view payload) {
  BinaryReader in(payload);
  WelcomePayload welcome;
  welcome.resume_position = in.get_u64();
  WORMS_EXPECTS(in.remaining() == 0 && "welcome payload: trailing bytes");
  return welcome;
}

std::string encode_records(std::span<const trace::ConnRecord> records,
                           std::uint64_t node_id, std::uint64_t stream_position) {
  BinaryWriter stamp;
  stamp.put_u64(node_id);
  stamp.put_u64(stream_position);
  std::string payload = std::move(stamp).take();
  const std::size_t base = payload.size();
  payload.resize(base + records.size() * trace::kWtraceRecordBytes);
  char* out = payload.data() + base;
  for (const trace::ConnRecord& r : records) {
    trace::encode_wtrace_record(r, out);
    out += trace::kWtraceRecordBytes;
  }
  return payload;
}

RecordsPayload decode_records(std::string_view payload) {
  WORMS_EXPECTS(payload.size() >= 16 && "records payload: missing provenance stamp");
  BinaryReader in(payload.substr(0, 16));
  RecordsPayload batch;
  batch.node_id = in.get_u64();
  batch.stream_position = in.get_u64();
  const std::string_view images = payload.substr(16);
  WORMS_EXPECTS(images.size() % trace::kWtraceRecordBytes == 0 &&
                "records payload is not a whole number of record images");
  batch.records.resize(images.size() / trace::kWtraceRecordBytes);
  const char* raw = images.data();
  for (trace::ConnRecord& r : batch.records) {
    r = trace::decode_wtrace_record(raw);
    raw += trace::kWtraceRecordBytes;
  }
  return batch;
}

std::string encode_alerts(std::span<const AlertEntry> alerts) {
  BinaryWriter out;
  out.put_u32(static_cast<std::uint32_t>(alerts.size()));
  for (const AlertEntry& a : alerts) {
    out.put_u32(a.host);
    out.put_f64(a.removal_time);
  }
  return std::move(out).take();
}

std::vector<AlertEntry> decode_alerts(std::string_view payload) {
  BinaryReader in(payload);
  const std::uint32_t count = in.get_u32();
  WORMS_EXPECTS(payload.size() == 4 + static_cast<std::size_t>(count) * 12 &&
                "alert payload size disagrees with its count");
  std::vector<AlertEntry> alerts(count);
  for (AlertEntry& a : alerts) {
    a.host = in.get_u32();
    a.removal_time = in.get_f64();
  }
  return alerts;
}

std::string encode_checkpoint(const CheckpointPayload& checkpoint) {
  BinaryWriter out;
  out.put_u32(static_cast<std::uint32_t>(checkpoint.client_positions.size()));
  for (const auto& [client, position] : checkpoint.client_positions) {
    out.put_u64(client);
    out.put_u64(position);
  }
  out.put_u64(checkpoint.snapshot.size());
  out.put_bytes(checkpoint.snapshot.data(), checkpoint.snapshot.size());
  return std::move(out).take();
}

CheckpointPayload decode_checkpoint(std::string_view payload) {
  BinaryReader in(payload);
  CheckpointPayload checkpoint;
  const std::uint32_t clients = in.get_u32();
  checkpoint.client_positions.reserve(clients);
  for (std::uint32_t i = 0; i < clients; ++i) {
    const std::uint64_t client = in.get_u64();
    const std::uint64_t position = in.get_u64();
    checkpoint.client_positions.emplace_back(client, position);
  }
  const std::uint64_t snapshot_size = in.get_u64();
  WORMS_EXPECTS(in.remaining() == snapshot_size &&
                "checkpoint payload size disagrees with its snapshot length");
  checkpoint.snapshot.resize(snapshot_size);
  in.get_bytes(checkpoint.snapshot.data(), snapshot_size);
  return checkpoint;
}

std::string encode_bye(const ByePayload& bye) {
  BinaryWriter out;
  out.put_u64(bye.records_sent);
  return std::move(out).take();
}

ByePayload decode_bye(std::string_view payload) {
  BinaryReader in(payload);
  ByePayload bye;
  bye.records_sent = in.get_u64();
  WORMS_EXPECTS(in.remaining() == 0 && "bye payload: trailing bytes");
  return bye;
}

namespace {

void put_samples(BinaryWriter& out, const std::vector<StatsSample>& samples) {
  out.put_u32(static_cast<std::uint32_t>(samples.size()));
  for (const StatsSample& s : samples) {
    WORMS_EXPECTS(s.name.size() <= 0xFFFF && "stats sample name too long");
    out.put_u16(static_cast<std::uint16_t>(s.name.size()));
    out.put_bytes(s.name.data(), s.name.size());
    out.put_f64(s.value);
  }
}

[[nodiscard]] std::vector<StatsSample> get_samples(BinaryReader& in) {
  const std::uint32_t count = in.get_u32();
  WORMS_EXPECTS(in.remaining() >= static_cast<std::size_t>(count) * 10 &&
                "stats report: sample count disagrees with payload size");
  std::vector<StatsSample> samples(count);
  for (StatsSample& s : samples) {
    const std::uint16_t len = in.get_u16();
    WORMS_EXPECTS(in.remaining() >= static_cast<std::size_t>(len) + 8 &&
                  "stats report: sample name runs past the payload");
    s.name.resize(len);
    in.get_bytes(s.name.data(), len);
    s.value = in.get_f64();
  }
  return samples;
}

}  // namespace

std::string encode_stats_report(const StatsReportPayload& report) {
  WORMS_EXPECTS(report.shard_backend.size() == report.shard_health.size() &&
                report.shard_backend.size() == report.queue_depth.size() &&
                "stats report: per-shard vectors disagree on shard count");
  BinaryWriter out;
  out.put_u64(report.node_id);
  out.put_u64(report.records_fed);
  out.put_u64(report.checkpoints_written);
  out.put_u64(report.checkpoint_position);
  out.put_u8(report.counter_backend);
  out.put_u8(report.promoted);
  out.put_u32(static_cast<std::uint32_t>(report.shard_backend.size()));
  for (std::size_t i = 0; i < report.shard_backend.size(); ++i) {
    out.put_u8(report.shard_backend[i]);
    out.put_u8(report.shard_health[i]);
    out.put_u64(report.queue_depth[i]);
  }
  out.put_u64(report.dead_letters_malformed);
  out.put_u64(report.dead_letters_out_of_order);
  out.put_u64(report.dead_letters_duplicate);
  out.put_u64(report.dead_letters_overflow);
  put_samples(out, report.counters);
  put_samples(out, report.gauges);
  return std::move(out).take();
}

StatsReportPayload decode_stats_report(std::string_view payload) {
  BinaryReader in(payload);
  StatsReportPayload report;
  report.node_id = in.get_u64();
  report.records_fed = in.get_u64();
  report.checkpoints_written = in.get_u64();
  report.checkpoint_position = in.get_u64();
  report.counter_backend = in.get_u8();
  report.promoted = in.get_u8();
  const std::uint32_t shards = in.get_u32();
  WORMS_EXPECTS(in.remaining() >= static_cast<std::size_t>(shards) * 10 &&
                "stats report: shard count disagrees with payload size");
  report.shard_backend.resize(shards);
  report.shard_health.resize(shards);
  report.queue_depth.resize(shards);
  for (std::uint32_t i = 0; i < shards; ++i) {
    report.shard_backend[i] = in.get_u8();
    report.shard_health[i] = in.get_u8();
    report.queue_depth[i] = in.get_u64();
  }
  report.dead_letters_malformed = in.get_u64();
  report.dead_letters_out_of_order = in.get_u64();
  report.dead_letters_duplicate = in.get_u64();
  report.dead_letters_overflow = in.get_u64();
  report.counters = get_samples(in);
  report.gauges = get_samples(in);
  WORMS_EXPECTS(in.remaining() == 0 && "stats report payload: trailing bytes");
  return report;
}

}  // namespace worms::fleet::net
