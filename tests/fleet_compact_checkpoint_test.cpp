// Checkpoint/restore for the compact (shared-pool) counter backend: the
// crash-at-every-boundary equivalence sweep, resharded restore (banks rehome
// by bank % shards), replication-blob failover, and the negative space —
// truncation, checksum bit flips, version mismatch, pool-geometry mismatch,
// bank-index / register-count / anchor out-of-range rejection.
#include "fleet/checkpoint.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "fleet/pipeline.hpp"
#include "fleet/shared_sketch_pool.hpp"
#include "support/check.hpp"
#include "trace/synth.hpp"

namespace worms::fleet {
namespace {

/// Shared ~70k-record trace (synthesized once).  Smaller than the exact/HLL
/// sweep's: the compact sweep multiplies boundaries × shard counts too, and
/// the bank section makes each snapshot heavier.
const std::vector<trace::ConnRecord>& sweep_trace() {
  static const std::vector<trace::ConnRecord> records = [] {
    trace::LblSynthConfig cfg;
    cfg.hosts = 500;
    cfg.duration = 7.0 * sim::kDay;
    return trace::synthesize_lbl_trace(cfg).records;
  }();
  return records;
}

PipelineOptions sweep_config(unsigned shards) {
  PipelineOptions cfg;
  cfg.policy.scan_limit = 500;
  cfg.policy.cycle_length = 3 * sim::kDay;  // checkpoints land mid- and cross-cycle
  cfg.policy.check_fraction = 0.5;
  cfg.backend = CounterBackend::Compact;
  cfg.compact.bits_per_host = 16;
  cfg.compact.expected_hosts = 1u << 20;
  cfg.failure_budget = 2'000;  // enforced but rarely hit: exercises the codec fields
  cfg.shards = shards;
  return cfg;
}

std::string snapshot_path(const char* tag) {
  return ::testing::TempDir() + "worms_fleet_compact_snapshot_" + tag + ".bin";
}

void checkpoint_prefix(const PipelineOptions& cfg, const std::vector<trace::ConnRecord>& records,
                       std::size_t boundary, const std::string& path) {
  ContainmentPipeline pipeline(cfg);
  for (std::size_t i = 0; i < boundary; ++i) pipeline.feed(records[i]);
  pipeline.write_checkpoint(path);
}

PipelineResult restore_and_replay(const PipelineOptions& cfg,
                                  const std::vector<trace::ConnRecord>& records,
                                  const std::string& path) {
  auto pipeline = ContainmentPipeline::restore(cfg, path);
  for (std::size_t i = pipeline->records_fed(); i < records.size(); ++i) {
    pipeline->feed(records[i]);
  }
  return pipeline->finish();
}

TEST(FleetCompactCheckpoint, CrashRecoveryEquivalenceSweep) {
  // Crash at every boundary, restore, replay the suffix: verdicts must match
  // the uninterrupted run bit for bit — the estimator's incremental float
  // state (each bank's inverse_sum) travels verbatim, so the post-restore
  // estimate sequence cannot fork.
  const auto& records = sweep_trace();
  ASSERT_GE(records.size(), 50'000u);
  const std::string path = snapshot_path("sweep");
  for (const unsigned shards : {1u, 2u, 4u}) {
    const auto cfg = sweep_config(shards);
    const auto baseline = ContainmentPipeline::run(cfg, records);
    const std::size_t step = records.size() / 10;
    for (std::size_t boundary = 0; boundary <= records.size(); boundary += step) {
      const std::size_t at = std::min(boundary, records.size());
      checkpoint_prefix(cfg, records, at, path);
      const auto resumed = restore_and_replay(cfg, records, path);
      ASSERT_EQ(resumed.verdicts, baseline.verdicts)
          << "shards=" << shards << " boundary=" << at;
    }
  }
  std::remove(path.c_str());
}

TEST(FleetCompactCheckpoint, RestoreWithDifferentShardCount) {
  // Banks are keyed globally (bank % shards picks the owner), so a snapshot
  // written at one shard count restores at any other — including a
  // non-power-of-two count — with bit-identical verdicts.
  const auto& records = sweep_trace();
  const std::string path = snapshot_path("reshard");
  const auto baseline = ContainmentPipeline::run(sweep_config(1), records);
  checkpoint_prefix(sweep_config(4), records, records.size() / 2, path);
  for (const unsigned shards : {1u, 2u, 3u}) {
    const auto resumed = restore_and_replay(sweep_config(shards), records, path);
    EXPECT_EQ(resumed.verdicts, baseline.verdicts) << "restored into shards=" << shards;
  }
  std::remove(path.c_str());
}

TEST(FleetCompactCheckpoint, ReplicationBlobFailoverSweep) {
  const auto& records = sweep_trace();
  const auto cfg = sweep_config(2);
  const auto baseline = ContainmentPipeline::run(cfg, records);
  const std::size_t step = records.size() / 6;
  for (std::size_t boundary = step; boundary <= records.size(); boundary += step) {
    const std::size_t at = std::min(boundary, records.size());
    std::string blob;
    {
      ContainmentPipeline primary(cfg);
      primary.feed(std::span<const trace::ConnRecord>(records).first(at));
      blob = primary.snapshot_blob();
    }  // primary "crashes" here
    auto replica = ContainmentPipeline::restore_from_blob(cfg, blob);
    ASSERT_EQ(replica->records_fed(), at);
    replica->feed(std::span<const trace::ConnRecord>(records).subspan(at));
    ASSERT_EQ(replica->finish().verdicts, baseline.verdicts) << "boundary=" << at;
  }
}

// ---------------------------------------------------------------------------
// Negative space.  File-level corruption reuses the snapshot trailer; the
// field-level cases splice a valid payload and re-wrap it so the checksum
// passes and the *decoder's* validation has to catch the damage.

/// A checkpoint file's decoded payload (trailer validated and stripped).
std::string payload_of(const std::string& path) { return read_snapshot_file(path); }

/// Byte offset of the bank-section count within a v2 payload that has no
/// degraded shards: the fixed header (magic..last-routed record) plus the
/// empty degraded-shard list.  Pinned arithmetic — if the layout changes,
/// this test is *supposed* to fail until it is re-derived.
constexpr std::size_t kBankSectionOffset =
    4 + 2 + 1 + 1 +      // magic, version, backend, hll_precision
    1 + 4 + 8 + 8 +      // compact: bits_per_host, virtual_registers, expected_hosts; failure_budget
    8 + 8 + 8 +          // scan_limit, cycle_length, check_fraction
    4 + 8 + 8 + 8 +      // shards, records_fed, legacy shed slot (0), suppressed
    4 * 8 +              // dead-letter stats
    8 + 8 +              // backend_switches, checkpoints_written
    1 + 8 + 4 + 4 +      // last-routed: flag, timestamp, source, destination
    4;                   // degraded-shard count (0 here)

std::uint32_t read_u32_at(const std::string& payload, std::size_t offset) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(static_cast<unsigned char>(payload[offset + i])) << (8 * i);
  }
  return v;
}

void write_u32_at(std::string& payload, std::size_t offset, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) payload[offset + i] = static_cast<char>((v >> (8 * i)) & 0xFF);
}

TEST(FleetCompactCheckpoint, CorruptedSnapshotIsRejected) {
  const auto& records = sweep_trace();
  const std::string path = snapshot_path("corrupt");
  const auto cfg = sweep_config(2);
  checkpoint_prefix(cfg, records, 10'000, path);

  std::string blob;
  {
    std::ifstream in(path, std::ios::binary);
    blob.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }
  ASSERT_GT(blob.size(), 1'000u);
  // A single flipped bit mid-payload (statistically: inside a bank's
  // register file) must fail the checksum trailer.
  blob[blob.size() / 2] ^= 0x40;
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(blob.data(), static_cast<std::streamsize>(blob.size()));
  }
  EXPECT_THROW((void)ContainmentPipeline::restore(cfg, path), support::PreconditionError);

  // Torn write and missing file.
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(blob.data(), static_cast<std::streamsize>(blob.size() / 3));
  }
  EXPECT_THROW((void)ContainmentPipeline::restore(cfg, path), support::PreconditionError);
  std::remove(path.c_str());
  EXPECT_THROW((void)ContainmentPipeline::restore(cfg, path), support::PreconditionError);
}

TEST(FleetCompactCheckpoint, VersionMismatchIsRejected) {
  // A v1 snapshot (pre-pool format) must be rejected outright, not
  // misdecoded: flip the version field inside an otherwise-valid payload and
  // re-wrap it so only the version check can object.
  const auto& records = sweep_trace();
  const std::string path = snapshot_path("version");
  const auto cfg = sweep_config(2);
  checkpoint_prefix(cfg, records, 5'000, path);

  std::string payload = payload_of(path);
  payload[4] = 1;  // version u16 at offset 4, little-endian
  payload[5] = 0;
  write_snapshot_file(path, payload);
  try {
    (void)ContainmentPipeline::restore(cfg, path);
    FAIL() << "v1 snapshot must be rejected";
  } catch (const support::PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos) << e.what();
  }
  std::remove(path.c_str());
}

TEST(FleetCompactCheckpoint, PoolGeometryMismatchIsRejected) {
  // The pool geometry and failure budget are config-identity fields: a
  // restore under any different value would misdecode slices (or silently
  // change enforcement), so each must be rejected.
  const auto& records = sweep_trace();
  const std::string path = snapshot_path("geometry");
  checkpoint_prefix(sweep_config(2), records, 5'000, path);

  auto wrong_bits = sweep_config(2);
  wrong_bits.compact.bits_per_host = 8;
  EXPECT_THROW((void)ContainmentPipeline::restore(wrong_bits, path),
               support::PreconditionError);

  auto wrong_slices = sweep_config(2);
  wrong_slices.compact.virtual_registers = 64;
  EXPECT_THROW((void)ContainmentPipeline::restore(wrong_slices, path),
               support::PreconditionError);

  auto wrong_population = sweep_config(2);
  wrong_population.compact.expected_hosts = 1u << 18;
  EXPECT_THROW((void)ContainmentPipeline::restore(wrong_population, path),
               support::PreconditionError);

  auto wrong_budget = sweep_config(2);
  wrong_budget.failure_budget = 3'000;
  EXPECT_THROW((void)ContainmentPipeline::restore(wrong_budget, path),
               support::PreconditionError);

  // And the backend tag itself: an exact-configured restore of a compact
  // snapshot must not limp along without the pool.
  auto wrong_backend = sweep_config(2);
  wrong_backend.backend = CounterBackend::Exact;
  EXPECT_THROW((void)ContainmentPipeline::restore(wrong_backend, path),
               support::PreconditionError);
  std::remove(path.c_str());
}

TEST(FleetCompactCheckpoint, BankIndexOutOfRangeIsRejected) {
  const auto& records = sweep_trace();
  const std::string path = snapshot_path("bankindex");
  const auto cfg = sweep_config(2);
  checkpoint_prefix(cfg, records, 5'000, path);

  std::string payload = payload_of(path);
  ASSERT_GT(read_u32_at(payload, kBankSectionOffset), 0u) << "expected materialized banks";
  // First bank record starts right after the count; its index field leads.
  write_u32_at(payload, kBankSectionOffset + 4, kCompactBanks + 7);
  write_snapshot_file(path, payload);
  EXPECT_THROW((void)ContainmentPipeline::restore(cfg, path), support::PreconditionError);
  std::remove(path.c_str());
}

TEST(FleetCompactCheckpoint, BankRegisterCountMismatchIsRejected) {
  // A register_count that disagrees with the configured geometry would
  // desynchronize every following field; the decoder must stop at the field.
  const auto& records = sweep_trace();
  const std::string path = snapshot_path("bankregs");
  const auto cfg = sweep_config(2);
  checkpoint_prefix(cfg, records, 5'000, path);

  std::string payload = payload_of(path);
  const std::uint32_t expected = cfg.compact.registers_per_bank();
  ASSERT_EQ(read_u32_at(payload, kBankSectionOffset + 8), expected)
      << "layout drifted: re-derive kBankSectionOffset";
  write_u32_at(payload, kBankSectionOffset + 8, expected / 2);
  write_snapshot_file(path, payload);
  EXPECT_THROW((void)ContainmentPipeline::restore(cfg, path), support::PreconditionError);
  std::remove(path.c_str());
}

TEST(FleetCompactCheckpoint, CounterCodecRoundTripsAndContinuesIdentically) {
  CompactPoolConfig config;
  SharedSketchPool pool(config);
  CompactCounter original(pool.bank_for(compact_bank_of(99)), 99);
  for (std::uint32_t d = 0; d < 5'000; ++d) (void)original.add(0x0A000000u + d * 7u);
  original.reset();  // non-zero epoch must survive the trip
  for (std::uint32_t d = 0; d < 2'000; ++d) (void)original.add(0x0B000000u + d * 13u);

  BinaryWriter out;
  encode_counter(out, original);
  BinaryReader in(out.buffer());
  const CompactDecodeContext context{&pool, 99};
  const auto restored = decode_counter(in, &context);
  EXPECT_EQ(in.remaining(), 0u);
  ASSERT_EQ(restored->backend(), CounterBackend::Compact);
  EXPECT_EQ(restored->count(), original.count());
  EXPECT_EQ(static_cast<CompactCounter&>(*restored).epoch(), original.epoch());
  EXPECT_EQ(static_cast<CompactCounter&>(*restored).anchor(), original.anchor());
  // Both attach to the *same* shared bank, so identical continuation here
  // means identical slice addressing, not just copied fields.
  for (std::uint32_t d = 0; d < 1'000; ++d) {
    ASSERT_EQ(restored->add(0x0C000000u + d), original.add(0x0C000000u + d));
  }
  EXPECT_EQ(restored->count(), original.count());
}

TEST(FleetCompactCheckpoint, CompactTagWithoutPoolContextIsRejected) {
  CompactPoolConfig config;
  SharedSketchPool pool(config);
  CompactCounter counter(pool.bank_for(0), 0);
  BinaryWriter out;
  encode_counter(out, counter);
  BinaryReader in(out.buffer());
  EXPECT_THROW((void)decode_counter(in), support::PreconditionError);
  BinaryReader in2(out.buffer());
  const CompactDecodeContext no_pool{nullptr, 0};
  EXPECT_THROW((void)decode_counter(in2, &no_pool), support::PreconditionError);
}

TEST(FleetCompactCheckpoint, AnchorOutOfRangeIsRejected) {
  CompactPoolConfig config;
  SharedSketchPool pool(config);
  const CompactDecodeContext context{&pool, 0};
  for (const std::int64_t anchor :
       {(std::int64_t{1} << 48) + 1, -((std::int64_t{1} << 48) + 1)}) {
    BinaryWriter out;
    out.put_u8(static_cast<std::uint8_t>(CounterBackend::Compact));
    out.put_u64(0);  // epoch
    out.put_u64(0);  // reported
    out.put_u64(static_cast<std::uint64_t>(anchor));
    BinaryReader in(out.buffer());
    EXPECT_THROW((void)decode_counter(in, &context), support::PreconditionError)
        << "anchor=" << anchor;
  }
}

TEST(FleetCompactCheckpoint, TruncatedCounterPayloadIsRejected) {
  CompactPoolConfig config;
  SharedSketchPool pool(config);
  CompactCounter counter(pool.bank_for(0), 0);
  BinaryWriter out;
  encode_counter(out, counter);
  const CompactDecodeContext context{&pool, 0};
  for (std::size_t cut = 1; cut < out.buffer().size(); cut += 5) {
    BinaryReader in(std::string_view(out.buffer()).substr(0, cut));
    EXPECT_THROW((void)decode_counter(in, &context), support::PreconditionError)
        << "cut=" << cut;
  }
}

}  // namespace
}  // namespace worms::fleet
