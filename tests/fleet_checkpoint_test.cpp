// Checkpoint/restore for the fleet containment pipeline: the crash-recovery
// equivalence sweep (snapshot at every boundary, "crash", restore, replay the
// suffix — verdicts must be bit-identical to an uninterrupted run, for any
// shard count and either counter backend), snapshot integrity (checksum and
// config-mismatch rejection), the auto-checkpoint resume flow, and the
// snapshot codec itself: byte-stable images from the per-shard encode at the
// quiesce gate, the v3 payload's unchanged layout, and v2 files and blobs
// that still restore, with any legacy shed count counted as suppressed.
#include "fleet/checkpoint.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "fleet/pipeline.hpp"
#include "support/check.hpp"
#include "trace/synth.hpp"

namespace worms::fleet {
namespace {

/// ~100k-record LBL-style trace shared by the sweep (synthesized once).
const std::vector<trace::ConnRecord>& sweep_trace() {
  static const std::vector<trace::ConnRecord> records = [] {
    trace::LblSynthConfig cfg;
    cfg.hosts = 600;
    cfg.duration = 8.0 * sim::kDay;
    return trace::synthesize_lbl_trace(cfg).records;
  }();
  return records;
}

PipelineOptions sweep_config(CounterBackend backend, unsigned shards) {
  PipelineOptions cfg;
  cfg.policy.scan_limit = 500;
  // Shorter than the trace so checkpoints land both mid-cycle and across
  // cycle-boundary counter resets.
  cfg.policy.cycle_length = 3 * sim::kDay;
  cfg.policy.check_fraction = 0.5;
  cfg.backend = backend;
  cfg.shards = shards;
  return cfg;
}

/// A unique temp path per test to keep parallel ctest runs apart.
std::string snapshot_path(const char* tag) {
  return ::testing::TempDir() + "worms_fleet_snapshot_" + tag + ".bin";
}

/// Feeds `records[0, boundary)`, snapshots, and "crashes" (destroys the
/// pipeline with work possibly still queued — the destructor path).
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

TEST(FleetCheckpoint, CrashRecoveryEquivalenceSweepExact) {
  // Crash at every boundary (size/10 apart, including 0 and the final
  // record), restore, replay the suffix: verdicts must match the
  // uninterrupted run bit for bit, for every shard count.
  const auto& records = sweep_trace();
  ASSERT_GE(records.size(), 100'000u);
  const std::string path = snapshot_path("sweep_exact");
  for (const unsigned shards : {1u, 2u, 4u}) {
    const auto cfg = sweep_config(CounterBackend::Exact, shards);
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

TEST(FleetCheckpoint, CrashRecoveryEquivalenceSweepHll) {
  // The HLL backend's estimate sequence depends on its incrementally
  // maintained float state; the snapshot restores it verbatim, so replay
  // must still be bit-identical.
  const auto& records = sweep_trace();
  const std::string path = snapshot_path("sweep_hll");
  for (const unsigned shards : {1u, 2u, 4u}) {
    const auto cfg = sweep_config(CounterBackend::Hll, shards);
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

TEST(FleetCheckpoint, RestoreWithDifferentShardCount) {
  // Snapshots are host-keyed, not shard-keyed: state written by an N-shard
  // pipeline restores into an M-shard one with identical verdicts.
  const auto& records = sweep_trace();
  const std::string path = snapshot_path("reshard");
  const auto baseline =
      ContainmentPipeline::run(sweep_config(CounterBackend::Exact, 1), records);
  checkpoint_prefix(sweep_config(CounterBackend::Exact, 4), records, records.size() / 2, path);
  for (const unsigned shards : {1u, 2u, 3u}) {
    const auto resumed =
        restore_and_replay(sweep_config(CounterBackend::Exact, shards), records, path);
    EXPECT_EQ(resumed.verdicts, baseline.verdicts) << "restored into shards=" << shards;
  }
  std::remove(path.c_str());
}

TEST(FleetCheckpoint, RestorePreservesMetricsBaselines) {
  const auto& records = sweep_trace();
  const std::string path = snapshot_path("metrics");
  const auto cfg = sweep_config(CounterBackend::Exact, 2);
  const auto baseline = ContainmentPipeline::run(cfg, records);

  checkpoint_prefix(cfg, records, records.size() / 2, path);
  auto pipeline = ContainmentPipeline::restore(cfg, path);
  EXPECT_EQ(pipeline->records_fed(), records.size() / 2);
  for (std::size_t i = pipeline->records_fed(); i < records.size(); ++i) {
    pipeline->feed(records[i]);
  }
  const auto resumed = pipeline->finish();
  // Stream-position metrics continue across the restore rather than reset.
  EXPECT_EQ(resumed.metrics.records_processed, baseline.metrics.records_processed);
  EXPECT_EQ(resumed.metrics.records_suppressed, baseline.metrics.records_suppressed);
  EXPECT_EQ(resumed.metrics.dead_letters, baseline.metrics.dead_letters);
  std::remove(path.c_str());
}

TEST(FleetCheckpoint, AutoCheckpointEveryNRecordsAndResume) {
  const auto& records = sweep_trace();
  const std::string path = snapshot_path("auto");
  auto cfg = sweep_config(CounterBackend::Exact, 2);
  cfg.checkpoint_path = path;
  cfg.checkpoint_every = 40'000;

  const auto baseline = ContainmentPipeline::run(sweep_config(CounterBackend::Exact, 2), records);
  {
    ContainmentPipeline pipeline(cfg);
    // "Crash" partway: the last auto snapshot on disk is the recovery point.
    for (std::size_t i = 0; i < 90'000; ++i) pipeline.feed(records[i]);
  }
  auto pipeline = ContainmentPipeline::restore(cfg, path);
  EXPECT_EQ(pipeline->records_fed(), 80'000u);  // 2 snapshots of 40k each
  for (std::size_t i = pipeline->records_fed(); i < records.size(); ++i) {
    pipeline->feed(records[i]);
  }
  const auto resumed = pipeline->finish();
  EXPECT_EQ(resumed.verdicts, baseline.verdicts);
  EXPECT_GE(resumed.metrics.checkpoints_written, 2u);
  std::remove(path.c_str());
}

TEST(FleetCheckpoint, CorruptedSnapshotIsRejected) {
  const auto& records = sweep_trace();
  const std::string path = snapshot_path("corrupt");
  const auto cfg = sweep_config(CounterBackend::Exact, 2);
  checkpoint_prefix(cfg, records, 10'000, path);

  std::string blob;
  {
    std::ifstream in(path, std::ios::binary);
    blob.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }
  ASSERT_GT(blob.size(), 100u);
  blob[blob.size() / 2] ^= 0x40;  // flip one bit mid-payload
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(blob.data(), static_cast<std::streamsize>(blob.size()));
  }
  EXPECT_THROW((void)ContainmentPipeline::restore(cfg, path), support::PreconditionError);

  // Truncation (torn write) is also caught, as is a missing file.
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(blob.data(), static_cast<std::streamsize>(blob.size() / 3));
  }
  EXPECT_THROW((void)ContainmentPipeline::restore(cfg, path), support::PreconditionError);
  std::remove(path.c_str());
  EXPECT_THROW((void)ContainmentPipeline::restore(cfg, path), support::PreconditionError);
}

TEST(FleetCheckpoint, ConfigMismatchIsRejected) {
  const auto& records = sweep_trace();
  const std::string path = snapshot_path("mismatch");
  checkpoint_prefix(sweep_config(CounterBackend::Exact, 2), records, 5'000, path);

  auto wrong_budget = sweep_config(CounterBackend::Exact, 2);
  wrong_budget.policy.scan_limit = 501;
  EXPECT_THROW((void)ContainmentPipeline::restore(wrong_budget, path),
               support::PreconditionError);

  EXPECT_THROW(
      (void)ContainmentPipeline::restore(sweep_config(CounterBackend::Hll, 2), path),
      support::PreconditionError);

  auto wrong_fraction = sweep_config(CounterBackend::Exact, 2);
  wrong_fraction.policy.check_fraction = 0.25;
  EXPECT_THROW((void)ContainmentPipeline::restore(wrong_fraction, path),
               support::PreconditionError);
  std::remove(path.c_str());
}

TEST(FleetCheckpoint, BinaryCodecRoundTripsAndDetectsTruncation) {
  BinaryWriter out;
  out.put_u8(0xAB);
  out.put_u16(0x1234);
  out.put_u32(0xDEADBEEFu);
  out.put_u64(0x0123456789ABCDEFull);
  out.put_f64(-1234.5678);
  BinaryReader in(out.buffer());
  EXPECT_EQ(in.get_u8(), 0xAB);
  EXPECT_EQ(in.get_u16(), 0x1234);
  EXPECT_EQ(in.get_u32(), 0xDEADBEEFu);
  EXPECT_EQ(in.get_u64(), 0x0123456789ABCDEFull);
  EXPECT_DOUBLE_EQ(in.get_f64(), -1234.5678);
  EXPECT_EQ(in.remaining(), 0u);
  EXPECT_THROW((void)in.get_u8(), support::PreconditionError);
}

TEST(FleetCheckpoint, CounterCodecRoundTripsBothBackends) {
  auto exact = make_distinct_counter(CounterBackend::Exact, 12);
  auto hll = make_distinct_counter(CounterBackend::Hll, 10);
  for (std::uint32_t d = 0; d < 5'000; ++d) {
    (void)exact->add(0x0A000000u + d * 7u);
    (void)hll->add(0x0A000000u + d * 7u);
  }
  BinaryWriter out;
  encode_counter(out, *exact);
  encode_counter(out, *hll);
  BinaryReader in(out.buffer());
  const auto exact2 = decode_counter(in);
  const auto hll2 = decode_counter(in);
  EXPECT_EQ(in.remaining(), 0u);
  EXPECT_EQ(exact2->backend(), CounterBackend::Exact);
  EXPECT_EQ(hll2->backend(), CounterBackend::Hll);
  EXPECT_EQ(exact2->count(), exact->count());
  EXPECT_EQ(hll2->count(), hll->count());
  // Restored counters must continue identically, not just report the same
  // tally: feed both the original and the copy the same suffix.
  for (std::uint32_t d = 0; d < 1'000; ++d) {
    EXPECT_EQ(exact2->add(0x0B000000u + d), exact->add(0x0B000000u + d));
    EXPECT_EQ(hll2->add(0x0B000000u + d), hll->add(0x0B000000u + d));
  }
  EXPECT_EQ(exact2->count(), exact->count());
  EXPECT_EQ(hll2->count(), hll->count());
}

TEST(FleetCheckpoint, ReplicationBlobFailoverSweep) {
  // The replica-promotion path: snapshot_blob() at a boundary (the image a
  // primary replicates over the wire), "kill the primary", restore_from_blob
  // on the replica, replay the suffix — verdicts bit-identical to the
  // uninterrupted run at every boundary, both backends.
  const auto& records = sweep_trace();
  for (const CounterBackend backend : {CounterBackend::Exact, CounterBackend::Hll}) {
    const auto cfg = sweep_config(backend, 2);
    const auto baseline = ContainmentPipeline::run(cfg, records);
    const std::size_t step = records.size() / 6;
    for (std::size_t boundary = step; boundary <= records.size(); boundary += step) {
      const std::size_t at = std::min(boundary, records.size());
      std::string blob;
      {
        ContainmentPipeline primary(cfg);
        primary.feed(std::span<const trace::ConnRecord>(records).first(at));
        blob = primary.snapshot_blob();
      }  // primary "crashes" here: destroyed without finish()
      auto replica = ContainmentPipeline::restore_from_blob(cfg, blob);
      ASSERT_EQ(replica->records_fed(), at);
      replica->feed(std::span<const trace::ConnRecord>(records).subspan(at));
      const auto promoted = replica->finish();
      ASSERT_EQ(promoted.verdicts, baseline.verdicts)
          << to_string(backend) << " boundary=" << at;
    }
  }
}

TEST(FleetCheckpoint, BlobRestoreThenPreContainKeepsDeterminism) {
  // Failover composed with gossip: restore from a blob, administratively
  // pre-contain a few hosts, replay the suffix.  The pre-contained hosts
  // must come out removed+pre_contained and the run must stay deterministic.
  const auto& records = sweep_trace();
  const auto cfg = sweep_config(CounterBackend::Exact, 2);
  const std::size_t at = records.size() / 2;
  std::string blob;
  {
    ContainmentPipeline primary(cfg);
    primary.feed(std::span<const trace::ConnRecord>(records).first(at));
    blob = primary.snapshot_blob();
  }
  // Alert hosts the local policy never removes (removal is monotone, so a
  // host clean at the end of the baseline was clean at the boundary too) —
  // pre_contain leaves already-removed hosts untouched by contract.
  std::vector<std::uint32_t> alerted;
  for (const HostVerdict& v : ContainmentPipeline::run(cfg, records).verdicts.hosts) {
    if (!v.removed) alerted.push_back(v.host);
    if (alerted.size() == 3) break;
  }
  ASSERT_EQ(alerted.size(), 3u);
  const auto run_once = [&] {
    auto replica = ContainmentPipeline::restore_from_blob(cfg, blob);
    replica->pre_contain(alerted);
    replica->feed(std::span<const trace::ConnRecord>(records).subspan(at));
    return replica->finish();
  };
  const auto first = run_once();
  const auto second = run_once();
  EXPECT_EQ(first.verdicts, second.verdicts);
  EXPECT_GE(first.verdicts.hosts_pre_contained, 3u);
  for (const std::uint32_t host : alerted) {
    const HostVerdict* verdict = first.verdicts.find(host);
    ASSERT_NE(verdict, nullptr);
    EXPECT_TRUE(verdict->removed);
    EXPECT_TRUE(verdict->pre_contained);
  }
}

// ---------------------------------------------------------------------------
// Snapshot codec.  Every worker encodes its own hosts at the quiesce gate and
// the ingest thread joins the sections in shard order; version 3 changed only
// the file trailer.

/// The codec tests' configuration for one backend: the sweep's policy on a
/// compact geometry that fits the sweep's hosts.
PipelineOptions codec_config(CounterBackend backend, unsigned shards) {
  auto cfg = sweep_config(backend, shards);
  cfg.compact.bits_per_host = 16;
  cfg.compact.expected_hosts = 1u << 20;
  return cfg;
}

/// The snapshot image after the first half of the sweep trace.
std::string half_stream_blob(const PipelineOptions& cfg) {
  const std::span<const trace::ConnRecord> records(sweep_trace());
  ContainmentPipeline pipeline(cfg);
  pipeline.feed(records.first(records.size() / 2));
  return pipeline.snapshot_blob();
}

std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_bytes(const std::string& path, std::string_view bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

constexpr CounterBackend kAllBackends[] = {CounterBackend::Exact, CounterBackend::Hll,
                                          CounterBackend::Compact};

TEST(FleetCheckpoint, SnapshotBlobIsByteStableAcrossRunsAndWorkerKills) {
  // The image must not depend on which worker reaches the gate first, nor
  // on a worker killed before the gate: its respawned successor encodes the
  // section.  The kill fires after two batches, well before the half-stream
  // gate at any of these shard counts.
  for (const CounterBackend backend : kAllBackends) {
    for (const unsigned shards : {2u, 4u}) {
      const auto cfg = codec_config(backend, shards);
      const std::string reference = half_stream_blob(cfg);
      for (int run = 1; run < 10; ++run) {
        ASSERT_TRUE(half_stream_blob(cfg) == reference)
            << to_string(backend) << " shards=" << shards << " run=" << run;
      }
      auto killed = cfg;
      killed.faults.kills.push_back({.shard = shards - 1, .after_batches = 2});
      ASSERT_TRUE(half_stream_blob(killed) == reference)
          << to_string(backend) << " shards=" << shards << " with a worker kill";
    }
  }
}

TEST(FleetCheckpoint, V3PayloadKeepsTheV2Layout) {
  // With its version field set back to 2, a v3 payload is byte for byte what
  // the v2 encoder (one serial loop over the shards on the ingest thread)
  // wrote.  The sizes and FNV-1a-64 digests were taken from that encoder at
  // the same stream position and configuration.
  struct Pin {
    CounterBackend backend;
    unsigned shards;
    std::size_t size;
    std::uint64_t fnv;
  };
  constexpr Pin kPins[] = {
      {CounterBackend::Exact, 2, 73'318, 0x239a42bcc7fcf98bull},
      {CounterBackend::Exact, 4, 73'318, 0x870097865ac51f1dull},
      {CounterBackend::Hll, 2, 2'459'386, 0xa20d9b36e933489dull},
      {CounterBackend::Compact, 4, 1'272'114, 0xfa72d3ebecde271dull},
  };
  for (const Pin& pin : kPins) {
    std::string payload = half_stream_blob(codec_config(pin.backend, pin.shards));
    ASSERT_GE(payload.size(), 6u);
    EXPECT_EQ(payload[4], static_cast<char>(kSnapshotVersion));
    EXPECT_EQ(payload[5], 0);
    payload[4] = 2;
    EXPECT_EQ(payload.size(), pin.size) << to_string(pin.backend) << " shards=" << pin.shards;
    EXPECT_EQ(fnv1a64(payload), pin.fnv) << to_string(pin.backend) << " shards=" << pin.shards;
  }
}

TEST(FleetCheckpoint, V2SnapshotFileAndBlobStillRestore) {
  const auto& records = sweep_trace();
  const std::size_t at = records.size() / 3;
  for (const CounterBackend backend : kAllBackends) {
    const auto cfg = codec_config(backend, 2);
    const std::string path = snapshot_path("v3");
    checkpoint_prefix(cfg, records, at, path);
    const auto from_v3 = restore_and_replay(cfg, records, path);

    // A v2 file: the same payload under version 2 and an FNV-1a-64 trailer.
    std::string v2 = read_snapshot_file(path);
    v2[4] = 2;
    v2[5] = 0;
    BinaryWriter file;
    file.put_bytes(v2.data(), v2.size());
    file.put_u64(fnv1a64(v2));
    const std::string v2_path = snapshot_path("v2");
    write_bytes(v2_path, file.buffer());
    EXPECT_EQ(restore_and_replay(cfg, records, v2_path).verdicts, from_v3.verdicts)
        << to_string(backend);

    // A v2 replication blob: the payload alone, as a v2 primary sent it.
    auto replica = ContainmentPipeline::restore_from_blob(cfg, v2);
    replica->feed(std::span<const trace::ConnRecord>(records).subspan(at));
    EXPECT_EQ(replica->finish().verdicts, from_v3.verdicts) << to_string(backend);

    // The trailer algorithm follows the version field: a v2 payload under a
    // v3 trailer fails the FNV check.
    write_snapshot_file(v2_path, v2);
    EXPECT_THROW((void)ContainmentPipeline::restore(cfg, v2_path), support::PreconditionError);
    std::remove(path.c_str());
    std::remove(v2_path.c_str());
  }
}

TEST(FleetCheckpoint, LegacyShedCountFoldsIntoSuppressed) {
  // Builds whose overload ladder dropped removed hosts' records at ingest
  // split the post-removal count between a shed slot and the suppressed slot
  // of the header.  Those records arrived after their host's removal, so a
  // restore counts both as suppressed.  The shed slot sits after magic,
  // version, the config-identity fields, the shard count and records_fed.
  constexpr std::size_t kShedOffset = 4 + 2 + 1 + 1 + 1 + 4 + 8 + 8 + 8 + 8 + 8 + 4 + 8;
  const auto read_u64 = [](const std::string& bytes, std::size_t offset) {
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= std::uint64_t{static_cast<unsigned char>(bytes[offset + i])} << (8 * i);
    }
    return v;
  };
  const auto write_u64 = [](std::string& bytes, std::size_t offset, std::uint64_t v) {
    for (int i = 0; i < 8; ++i) bytes[offset + i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  };
  const std::span<const trace::ConnRecord> records(sweep_trace());
  const auto resume = [&](const PipelineOptions& cfg, const std::string& blob) {
    auto pipeline = ContainmentPipeline::restore_from_blob(cfg, blob);
    pipeline->feed(records.subspan(pipeline->records_fed()));
    return pipeline->finish();
  };
  for (const CounterBackend backend : kAllBackends) {
    const auto cfg = codec_config(backend, 2);
    const std::string blob = half_stream_blob(cfg);
    EXPECT_EQ(read_u64(blob, kShedOffset), 0u) << to_string(backend);
    const std::uint64_t suppressed = read_u64(blob, kShedOffset + 8);
    ASSERT_GT(suppressed, 0u) << to_string(backend);

    std::string legacy = blob;
    write_u64(legacy, kShedOffset, suppressed / 2);
    write_u64(legacy, kShedOffset + 8, suppressed - suppressed / 2);
    const auto from_current = resume(cfg, blob);
    const auto from_legacy = resume(cfg, legacy);
    EXPECT_EQ(from_legacy.verdicts, from_current.verdicts) << to_string(backend);
    EXPECT_EQ(from_legacy.metrics.records_suppressed, from_current.metrics.records_suppressed)
        << to_string(backend);
    EXPECT_EQ(from_legacy.metrics.records_shed, 0u) << to_string(backend);
  }
}

TEST(FleetCheckpoint, FlippedTrailerBitIsRejected) {
  const std::string path = snapshot_path("trailer");
  const auto cfg = sweep_config(CounterBackend::Exact, 2);
  checkpoint_prefix(cfg, sweep_trace(), 10'000, path);
  const std::string intact = read_bytes(path);
  ASSERT_GT(intact.size(), 8u);
  EXPECT_NO_THROW((void)read_snapshot_file(path));
  for (const std::size_t bit : {0u, 29u, 63u}) {
    std::string damaged = intact;
    damaged[damaged.size() - 8 + bit / 8] ^= static_cast<char>(1u << (bit % 8));
    write_bytes(path, damaged);
    try {
      (void)ContainmentPipeline::restore(cfg, path);
      ADD_FAILURE() << "trailer bit " << bit << " flipped but the snapshot restored";
    } catch (const support::PreconditionError& e) {
      EXPECT_NE(std::string(e.what()).find("checksum"), std::string::npos) << e.what();
    }
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace worms::fleet
