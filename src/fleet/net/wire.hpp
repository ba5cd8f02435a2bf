// Wire framing for the distributed containment fleet (DESIGN.md §12).
//
// Everything that crosses a node boundary — record batches, contained-host
// alerts, checkpoint replication — travels in one frame shape: a fixed
// 20-byte header carrying magic/version/type, a length prefix, and the
// payload's trace::wtrace_checksum, followed by the payload itself.
// TCP guarantees ordered bytes, not sane bytes: a peer speaking a different
// protocol, a half-written buffer from a killed process, or a flipped bit in
// transit must all be *detected and quarantined*, never fed to the pipeline.
// Every decode failure maps onto a DeadLetterReason so the receiving node's
// dead-letter channel accounts for it per reason, exactly like a malformed
// trace record (ISSUE 8 satellite).
//
// Header layout (little-endian, kFrameHeaderBytes = 20):
//
//   offset  size  field
//        0     4  magic 'WFN1' (0x314E4657 as a LE u32)
//        4     1  protocol version (currently 1)
//        5     1  frame type (FrameType)
//        6     2  reserved, must be zero
//        8     4  payload length (<= kMaxFramePayload)
//       12     8  payload checksum (trace::wtrace_checksum)
//
// Record payloads reuse the `.wtrace` 16-byte record wire image, so a record
// batch on the wire is bit-identical to the same records in a trace file —
// one codec, one golden fixture, one checksum routine.
//
// FrameDecoder is a pure incremental parser (bytes in, frames or typed
// errors out) with no socket anywhere near it, so every protocol violation
// is unit-testable without a network.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "fleet/dead_letter.hpp"
#include "trace/record.hpp"

namespace worms::fleet::net {

/// 'WFN1' — worms fleet network frame.
inline constexpr std::uint32_t kFrameMagic = 0x314E4657u;
inline constexpr std::uint8_t kFrameVersion = 1;
inline constexpr std::size_t kFrameHeaderBytes = 20;
/// Upper bound on a payload the receiver will buffer.  Checkpoint frames are
/// the largest legitimate traffic (a snapshot of every host's counter);
/// 64 MiB covers ~1M exact-counter hosts with headroom.  Anything larger is
/// a corrupt or hostile length prefix, dead-lettered without allocation.
inline constexpr std::uint32_t kMaxFramePayload = 64u << 20;

enum class FrameType : std::uint8_t {
  Hello = 1,       ///< client → server: client id + role, opens every connection
  Welcome = 2,     ///< server → ingest client: resume position for its stream
  Records = 3,     ///< ingest client → server: stamped batch of record images
  Alert = 4,       ///< node → peers: hosts contained since the last flush
  Checkpoint = 5,  ///< primary → replica: client positions + pipeline snapshot
  Bye = 6,         ///< ingest client → server: stream complete, total records
  StatsQuery = 7,  ///< status client → node: request a stats snapshot (empty)
  StatsReport = 8, ///< node → status client: metrics + health snapshot
};

[[nodiscard]] const char* to_string(FrameType type) noexcept;
[[nodiscard]] bool frame_type_known(std::uint8_t raw) noexcept;

struct Frame {
  FrameType type = FrameType::Hello;
  std::string payload;

  friend bool operator==(const Frame&, const Frame&) = default;
};

/// Serializes one frame: header (magic, version, type, length, checksum) +
/// payload.  The only producer of valid wire bytes.
[[nodiscard]] std::string encode_frame(FrameType type, std::string_view payload);

/// Incremental frame parser.  append() bytes as they arrive, then drain
/// next() until it reports NeedMore.  A decode error poisons the decoder —
/// the connection's framing is unrecoverable past a bad header, so the
/// caller must dead-letter the reported reason and close the connection.
class FrameDecoder {
 public:
  enum class Status : std::uint8_t {
    NeedMore,  ///< no complete frame buffered (or decoder drained post-error)
    Ready,     ///< `frame` holds the next complete, checksum-valid frame
    Error,     ///< `reason`/`detail` describe the violation; decoder poisoned
  };

  struct Result {
    Status status = Status::NeedMore;
    Frame frame;
    DeadLetterReason reason = DeadLetterReason::FrameBadMagic;
    std::string detail;
  };

  void append(const char* data, std::size_t size);
  void append(std::string_view bytes) { append(bytes.data(), bytes.size()); }

  /// Parses the next frame out of the buffer.  Returns Error exactly once
  /// per violation; afterwards the decoder reports NeedMore forever.
  [[nodiscard]] Result next();

  /// Marks end-of-stream: a partially buffered frame becomes a
  /// FrameTruncated error on the next next() call.
  void finish() noexcept { finished_ = true; }

  [[nodiscard]] bool poisoned() const noexcept { return poisoned_; }
  [[nodiscard]] std::uint64_t frames_decoded() const noexcept { return frames_decoded_; }
  [[nodiscard]] std::size_t buffered() const noexcept { return buffer_.size() - consumed_; }

 private:
  [[nodiscard]] Result fail(DeadLetterReason reason, std::string detail);

  std::string buffer_;
  std::size_t consumed_ = 0;  ///< parsed prefix, compacted lazily
  std::uint64_t frames_decoded_ = 0;
  bool finished_ = false;
  bool poisoned_ = false;
};

// ---------------------------------------------------------------------------
// Typed payloads.  Encoders produce the payload only (encode_frame wraps it);
// decoders throw support::PreconditionError on size/shape violations — by the
// time a payload decoder runs, the frame checksum already passed, so a shape
// violation means a sender bug, not line noise.

struct HelloPayload {
  /// Role of the connecting socket, from the receiver's point of view.
  enum class Kind : std::uint8_t { Ingest = 0, Peer = 1 };

  std::uint64_t client_id = 0;
  Kind kind = Kind::Ingest;

  friend bool operator==(const HelloPayload&, const HelloPayload&) = default;
};

struct WelcomePayload {
  /// Records of this client's stream the server has already fed; the client
  /// skips exactly this many and resumes — the single mechanism behind
  /// initial connect, reconnect-after-drop, and failover to a promoted
  /// replica.
  std::uint64_t resume_position = 0;

  friend bool operator==(const WelcomePayload&, const WelcomePayload&) = default;
};

/// One contained host, gossiped to peers.
struct AlertEntry {
  std::uint32_t host = 0;
  double removal_time = 0.0;  ///< trace time of the removal verdict

  friend bool operator==(const AlertEntry&, const AlertEntry&) = default;
};

struct CheckpointPayload {
  /// (client id, records fed) per ingest client the primary has seen, so the
  /// promoted replica can issue correct Welcome resume positions.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> client_positions;
  /// Raw pipeline snapshot (ContainmentPipeline::snapshot_blob()).
  std::string snapshot;

  friend bool operator==(const CheckpointPayload&, const CheckpointPayload&) = default;
};

struct ByePayload {
  std::uint64_t records_sent = 0;  ///< client's final stream position

  friend bool operator==(const ByePayload&, const ByePayload&) = default;
};

/// A record batch plus its provenance stamp: which node shipped it and where
/// in that node's stream the batch starts.  The stamp is what lets a merged
/// fleet verdict table say which ingest stream produced each observation.
struct RecordsPayload {
  std::uint64_t node_id = 0;
  std::uint64_t stream_position = 0;  ///< stream index of records.front()
  std::vector<trace::ConnRecord> records;

  friend bool operator==(const RecordsPayload&, const RecordsPayload&) = default;
};

/// One named sample inside a StatsReport (counter value or gauge value).
struct StatsSample {
  std::string name;  ///< full metric name, labels inline (`fleet_x{k="v"}`)
  double value = 0.0;

  friend bool operator==(const StatsSample&, const StatsSample&) = default;
};

/// Node → status client snapshot: identity, checkpoint/failover state,
/// per-shard health, dead-letter accounting, and the node's whole metric
/// registry flattened to named samples so `wormctl status` can merge nodes
/// with MetricsSnapshot::merge semantics (counters add, gauges max).
struct StatsReportPayload {
  std::uint64_t node_id = 0;
  std::uint64_t records_fed = 0;
  std::uint64_t checkpoints_written = 0;
  std::uint64_t checkpoint_position = 0;  ///< stream position of last checkpoint
  std::uint8_t counter_backend = 0;       ///< configured fleet::CounterBackend
  std::uint8_t promoted = 0;              ///< 1 once a replica took over as primary
  std::vector<std::uint8_t> shard_backend;  ///< effective degrade rung per shard
  std::vector<std::uint8_t> shard_health;   ///< fleet::ShardHealth per shard
  std::vector<std::uint64_t> queue_depth;   ///< live task-queue depth per shard
  std::uint64_t dead_letters_malformed = 0;
  std::uint64_t dead_letters_out_of_order = 0;
  std::uint64_t dead_letters_duplicate = 0;
  std::uint64_t dead_letters_overflow = 0;
  std::vector<StatsSample> counters;
  std::vector<StatsSample> gauges;

  friend bool operator==(const StatsReportPayload&, const StatsReportPayload&) = default;
};

[[nodiscard]] std::string encode_hello(const HelloPayload& hello);
[[nodiscard]] HelloPayload decode_hello(std::string_view payload);

[[nodiscard]] std::string encode_welcome(const WelcomePayload& welcome);
[[nodiscard]] WelcomePayload decode_welcome(std::string_view payload);

/// Record batches are a 16-byte {node id, stream position} provenance stamp
/// followed by .wtrace record images back to back (16 bytes each).
[[nodiscard]] std::string encode_records(std::span<const trace::ConnRecord> records,
                                         std::uint64_t node_id,
                                         std::uint64_t stream_position);
[[nodiscard]] RecordsPayload decode_records(std::string_view payload);

[[nodiscard]] std::string encode_alerts(std::span<const AlertEntry> alerts);
[[nodiscard]] std::vector<AlertEntry> decode_alerts(std::string_view payload);

[[nodiscard]] std::string encode_checkpoint(const CheckpointPayload& checkpoint);
[[nodiscard]] CheckpointPayload decode_checkpoint(std::string_view payload);

[[nodiscard]] std::string encode_bye(const ByePayload& bye);
[[nodiscard]] ByePayload decode_bye(std::string_view payload);

/// StatsQuery frames carry an empty payload; only the report has a codec.
[[nodiscard]] std::string encode_stats_report(const StatsReportPayload& report);
[[nodiscard]] StatsReportPayload decode_stats_report(std::string_view payload);

}  // namespace worms::fleet::net
