// Snapshot serialization substrate for the fleet containment pipeline.
//
// A checkpoint is a single versioned, checksummed binary blob: fixed-width
// little-endian fields appended by BinaryWriter, consumed by BinaryReader
// (which throws on any truncation), wrapped by a magic/version header and a
// 64-bit trailer so a torn write or bit rot is detected before any state is
// trusted.  On little-endian hosts both move each field with one memcpy into
// a buffer sized up front, so encoding runs at memory speed; big-endian hosts
// shuffle bytes and produce identical images.  Version 3 files carry the
// word-at-a-time trace::wtrace_checksum (the `.wtrace` and wire-frame hash);
// version 2 files, whose payload layout is the same, carry the legacy
// byte-at-a-time FNV-1a-64 and stay readable.  Files are written atomically
// (temp file + rename) so a crash *during* checkpointing leaves the previous
// snapshot intact — the pipeline can always fall back to the last complete
// one.
//
// The counter codec serializes either DistinctCounter backend with a type
// tag, including the HLL's incrementally maintained float state verbatim —
// that verbatim restore is what makes "checkpoint + replay of the suffix"
// bit-identical to an uninterrupted run even for the approximate backend.
//
// The snapshot *assembly* (which hosts, which verdicts, stream position)
// lives with the pipeline itself; this header is the format layer.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>

#include "fleet/distinct_counter.hpp"

namespace worms::fleet {

/// 'WFS1' — worms fleet snapshot.  Version 2 added the shared-pool section,
/// the compact counter tag, and the failure-policy fields; version 3 changed
/// only the file trailer (FNV-1a-64 → trace::wtrace_checksum).  Readers
/// accept 2 and 3; older snapshots are rejected (re-run from the trace rather
/// than risk misdecoding state).
inline constexpr std::uint32_t kSnapshotMagic = 0x31534657u;
inline constexpr std::uint16_t kSnapshotVersion = 3;
/// The last version whose file trailer is the byte-at-a-time fnv1a64.
inline constexpr std::uint16_t kSnapshotVersionFnv = 2;

/// Appends fixed-width little-endian fields to a buffer.  Call reserve() with
/// the encoded size when it is known, so the buffer is sized once; otherwise
/// it grows by doubling.
class BinaryWriter {
 public:
  /// Makes room for `bytes` more bytes without a later regrow.
  void reserve(std::size_t bytes);

  void put_u8(std::uint8_t v) { *claim(1) = static_cast<char>(v); }
  void put_u16(std::uint16_t v) { put_le(v); }
  void put_u32(std::uint32_t v) { put_le(v); }
  void put_u64(std::uint64_t v) { put_le(v); }
  void put_f64(double v) { put_le(std::bit_cast<std::uint64_t>(v)); }
  void put_bytes(const void* data, std::size_t size) {
    if (size != 0) std::memcpy(claim(size), data, size);
  }

  /// The next `bytes` bytes of the buffer, for the caller to fill with
  /// little-endian fields; grows the buffer when they do not fit.
  [[nodiscard]] char* claim(std::size_t bytes) {
    if (buffer_.size() - size_ < bytes) grow(bytes);
    char* out = buffer_.data() + size_;
    size_ += bytes;
    return out;
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] std::string_view buffer() const noexcept { return {buffer_.data(), size_}; }
  /// Moves the encoded bytes out; the writer is empty afterwards.
  [[nodiscard]] std::string take() &&;

 private:
  template <typename T>
  void put_le(T v) {
    char* out = claim(sizeof(T));
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(out, &v, sizeof(T));
    } else {
      for (std::size_t i = 0; i < sizeof(T); ++i) {
        out[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
      }
    }
  }

  void grow(std::size_t bytes);

  std::string buffer_;  ///< bytes [0, size_) are written; the rest is room
  std::size_t size_ = 0;
};

/// Consumes what BinaryWriter produced; throws support::PreconditionError on
/// truncation so corrupt snapshots fail loudly rather than misparse.
class BinaryReader {
 public:
  explicit BinaryReader(std::string_view data) : data_(data) {}

  [[nodiscard]] std::uint8_t get_u8() {
    require(1);
    return static_cast<std::uint8_t>(data_[offset_++]);
  }
  [[nodiscard]] std::uint16_t get_u16() { return get_le<std::uint16_t>(); }
  [[nodiscard]] std::uint32_t get_u32() { return get_le<std::uint32_t>(); }
  [[nodiscard]] std::uint64_t get_u64() { return get_le<std::uint64_t>(); }
  [[nodiscard]] double get_f64() { return std::bit_cast<double>(get_u64()); }
  void get_bytes(void* out, std::size_t size);

  [[nodiscard]] std::size_t remaining() const noexcept { return data_.size() - offset_; }

 private:
  void require(std::size_t bytes) const {
    if (bytes > data_.size() - offset_) truncated();
  }
  [[noreturn]] static void truncated();

  template <typename T>
  T get_le() {
    require(sizeof(T));
    const char* in = data_.data() + offset_;
    offset_ += sizeof(T);
    T v = 0;
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(&v, in, sizeof(T));
    } else {
      for (std::size_t i = 0; i < sizeof(T); ++i) {
        v |= static_cast<T>(static_cast<unsigned char>(in[i])) << (8 * i);
      }
    }
    return v;
  }

  std::string_view data_;
  std::size_t offset_ = 0;
};

/// Byte-at-a-time FNV-1a 64 — the trailer of version-2 snapshot files, kept
/// only to verify them.  Version 3 files use trace::wtrace_checksum.
[[nodiscard]] std::uint64_t fnv1a64(std::string_view data) noexcept;

/// Writes `payload` + its trace::wtrace_checksum trailer atomically (temp
/// file + rename).
void write_snapshot_file(const std::string& path, std::string_view payload);

/// Reads a snapshot file, validates the checksum trailer (fnv1a64 when the
/// payload's version field says 2, trace::wtrace_checksum otherwise), and
/// returns the payload.  Throws support::PreconditionError on missing file,
/// truncation, or checksum mismatch.
[[nodiscard]] std::string read_snapshot_file(const std::string& path);

/// Serializes one counter (backend tag + payload).  A compact counter's
/// payload is only its per-host offsets (epoch, reported tally, anchor) —
/// the registers live in the pool section of the pipeline snapshot.
void encode_counter(BinaryWriter& out, const DistinctCounter& counter);

/// The number of bytes encode_counter() appends for `counter`.
[[nodiscard]] std::size_t encoded_counter_bytes(const DistinctCounter& counter) noexcept;

/// Bank binding for decoding compact counters: which pool to attach to and
/// which host the counter belongs to (the slice is re-derived from the host
/// id).  Exact/HLL tags ignore it; a compact tag with no context is rejected.
struct CompactDecodeContext {
  SharedSketchPool* pool = nullptr;
  std::uint32_t host = 0;
};

/// Rebuilds a counter from its serialized form.
[[nodiscard]] std::unique_ptr<DistinctCounter> decode_counter(
    BinaryReader& in, const CompactDecodeContext* compact = nullptr);

}  // namespace worms::fleet
