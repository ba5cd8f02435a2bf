#include "fleet/checkpoint.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <vector>

#include "support/check.hpp"
#include "trace/binary_io.hpp"

namespace worms::fleet {

void BinaryWriter::reserve(std::size_t bytes) {
  if (buffer_.size() - size_ < bytes) buffer_.resize(size_ + bytes);
}

void BinaryWriter::grow(std::size_t bytes) {
  buffer_.resize(std::max({size_ + bytes, buffer_.size() * 2, std::size_t{64}}));
}

std::string BinaryWriter::take() && {
  buffer_.resize(size_);
  size_ = 0;
  return std::move(buffer_);
}

void BinaryReader::get_bytes(void* out, std::size_t size) {
  require(size);
  if (size != 0) std::memcpy(out, data_.data() + offset_, size);
  offset_ += size;
}

void BinaryReader::truncated() {
  support::precondition_failure("truncated snapshot", __FILE__, __LINE__);
}

std::uint64_t fnv1a64(std::string_view data) noexcept {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : data) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

void write_snapshot_file(const std::string& path, std::string_view payload) {
  const std::string tmp = path + ".tmp";
  {
    BinaryWriter trailer;
    trailer.put_u64(trace::wtrace_checksum(payload.data(), payload.size()));
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    WORMS_EXPECTS(out.good() && "cannot open snapshot temp file");
    out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
    out.write(trailer.buffer().data(), static_cast<std::streamsize>(trailer.size()));
    out.flush();
    WORMS_ENSURES(out.good() && "snapshot write failed");
  }
  // Atomic publish: a crash before this rename leaves the previous snapshot
  // untouched; after it, the new one is complete (checksum included).
  WORMS_ENSURES(std::rename(tmp.c_str(), path.c_str()) == 0 && "snapshot rename failed");
}

std::string read_snapshot_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  WORMS_EXPECTS(in.good() && "cannot open snapshot file");
  const std::streamoff size = in.tellg();
  WORMS_EXPECTS(size >= 8 && "snapshot shorter than its checksum trailer");
  std::string blob(static_cast<std::size_t>(size), '\0');
  in.seekg(0);
  in.read(blob.data(), size);
  WORMS_EXPECTS(in.gcount() == size && "snapshot file shrank while reading");
  const std::string_view payload(blob.data(), blob.size() - 8);
  BinaryReader trailer(std::string_view(blob).substr(blob.size() - 8));
  const std::uint64_t stored = trailer.get_u64();
  // The trailer algorithm follows the payload's version field; a flipped
  // version byte fails whichever check it selects.
  std::uint16_t version = 0;
  if (payload.size() >= 6) version = BinaryReader(payload.substr(4, 2)).get_u16();
  const std::uint64_t expected = version == kSnapshotVersionFnv
                                     ? fnv1a64(payload)
                                     : trace::wtrace_checksum(payload.data(), payload.size());
  WORMS_EXPECTS(stored == expected && "snapshot checksum mismatch");
  blob.resize(blob.size() - 8);
  return blob;
}

void encode_counter(BinaryWriter& out, const DistinctCounter& counter) {
  out.put_u8(static_cast<std::uint8_t>(counter.backend()));
  switch (counter.backend()) {
    case CounterBackend::Exact: {
      const worms::net::AddressTable& table = static_cast<const ExactCounter&>(counter).table();
      out.put_u64(table.size());
      if constexpr (std::endian::native == std::endian::little) {
        table.copy_addresses(out.claim(4 * table.size()));
      } else {
        table.for_each(
            [&out](worms::net::Ipv4Address addr, std::uint32_t) { out.put_u32(addr.value()); });
      }
      break;
    }
    case CounterBackend::Hll: {
      const auto& hll = static_cast<const HllCounter&>(counter);
      const trace::HyperLogLog& sketch = hll.sketch();
      out.put_u8(static_cast<std::uint8_t>(sketch.precision()));
      out.put_u64(hll.count());
      out.put_f64(sketch.inverse_sum());
      out.put_u64(sketch.zero_register_count());
      out.put_u64(sketch.register_count());
      out.put_bytes(sketch.registers().data(), sketch.registers().size());
      break;
    }
    case CounterBackend::Compact: {
      const auto& compact = static_cast<const CompactCounter&>(counter);
      out.put_u64(compact.epoch());
      out.put_u64(compact.count());
      out.put_u64(static_cast<std::uint64_t>(compact.anchor()));
      break;
    }
  }
}

std::size_t encoded_counter_bytes(const DistinctCounter& counter) noexcept {
  switch (counter.backend()) {
    case CounterBackend::Exact:
      return 1 + 8 + 4 * static_cast<const ExactCounter&>(counter).table().size();
    case CounterBackend::Hll:
      return 1 + 1 + 4 * 8 +
             static_cast<const HllCounter&>(counter).sketch().registers().size();
    case CounterBackend::Compact:
      return 1 + 3 * 8;
  }
  return 0;
}

std::unique_ptr<DistinctCounter> decode_counter(BinaryReader& in,
                                                const CompactDecodeContext* compact) {
  const auto tag = in.get_u8();
  WORMS_EXPECTS(tag <= 2 && "unknown counter backend tag in snapshot");
  if (static_cast<CounterBackend>(tag) == CounterBackend::Compact) {
    WORMS_EXPECTS(compact != nullptr && compact->pool != nullptr &&
                  "compact counter in snapshot but no shared pool to bind it to");
    const std::uint64_t epoch = in.get_u64();
    const std::uint64_t reported = in.get_u64();
    const auto anchor = static_cast<std::int64_t>(in.get_u64());
    // The anchor offsets a floored estimate; a magnitude beyond ±2^48 cannot
    // arise from any real run and marks a corrupt offset.
    WORMS_EXPECTS(anchor <= (std::int64_t{1} << 48) && anchor >= -(std::int64_t{1} << 48) &&
                  "compact counter anchor out of range in snapshot");
    SketchBank& bank = compact->pool->bank_for(compact_bank_of(compact->host));
    return std::make_unique<CompactCounter>(bank, compact->host, epoch, reported, anchor);
  }
  if (static_cast<CounterBackend>(tag) == CounterBackend::Exact) {
    auto counter = std::make_unique<ExactCounter>();
    const std::uint64_t n = in.get_u64();
    for (std::uint64_t i = 0; i < n; ++i) {
      const std::uint32_t inserted = counter->add(in.get_u32());
      WORMS_EXPECTS(inserted == 1 && "duplicate address in exact-counter snapshot");
    }
    return counter;
  }
  const int precision = in.get_u8();
  const std::uint64_t reported = in.get_u64();
  const double inverse_sum = in.get_f64();
  const std::uint64_t zero_registers = in.get_u64();
  const std::uint64_t register_count = in.get_u64();
  WORMS_EXPECTS(precision >= 4 && precision <= 16);
  WORMS_EXPECTS(register_count == (std::uint64_t{1} << precision));
  std::vector<std::uint8_t> registers(register_count);
  in.get_bytes(registers.data(), registers.size());
  return std::make_unique<HllCounter>(
      trace::HyperLogLog::restore(precision, std::move(registers), inverse_sum,
                                  static_cast<std::size_t>(zero_registers)),
      reported);
}

}  // namespace worms::fleet
