// Per-layer replays for the traced run's ladder.
//
// Layers whose work happens inside a pipeline thread cannot be timed around
// a single public call, so each is replayed single-threaded on the
// workload's own records through the same public types the pipeline uses:
// routing into per-shard batches, the SPSC batch handoff, HostTable plus
// the workload's counter backend, ScanCountLimitPolicy::on_scan, and wire
// framing.  The route and counter replays copy the pipeline's loops
// (fleet/pipeline.cpp: ContainmentPipeline::feed and the shard worker's
// batch loop) statement for statement, minus obs and fault hooks that are
// off in every workload.  Each function returns its per-unit cost in
// nanoseconds.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "fleet/distinct_counter.hpp"
#include "fleet/pipeline.hpp"
#include "trace/record.hpp"

namespace perfbench {

/// ContainmentPipeline::feed's routing of `block`-record feed calls: the
/// timestamp check, the shard's Shedding test, records plus stream indices
/// into per-shard batches, and a moved-out task with freshly reserved
/// buffers per full batch.  Handed-off tasks are held, a full queue per
/// shard, then freed.  ns per record.
[[nodiscard]] double replay_route(std::span<const worms::trace::ConnRecord> records,
                                  const worms::fleet::PipelineOptions& options,
                                  std::size_t block);

/// Prebuilt tasks of `batch` records plus stream indices (from the first 2M
/// records) pushed through a fleet::SpscRing of `capacity` slots to a
/// consumer thread that receives and frees each task.  ns per batch,
/// producer and consumer overlapped as in the pipeline.
[[nodiscard]] double replay_handoff(std::span<const worms::trace::ConnRecord> records,
                                    std::size_t batch, std::size_t capacity);

/// The shard workers' per-record counter work, one shard after another, in
/// the pipeline's batches: HostTable<HostState-sized entry> lookup (with the
/// pipeline's prefetch once the table reaches 32k slots) for every record,
/// then for each record the oracle says reached the counter the cycle reset
/// and the backend's add() and count().  ns per record routed.
[[nodiscard]] double replay_counter(std::span<const worms::trace::ConnRecord> records,
                                    const std::vector<bool>& processed,
                                    const worms::fleet::PipelineOptions& options);

/// ScanCountLimitPolicy::on_scan for every counted scan.  ns per call.
[[nodiscard]] double replay_policy(std::span<const worms::trace::ConnRecord> records,
                                   const std::vector<bool>& counted,
                                   const worms::fleet::PipelineOptions& options);

struct WireCost {
  double encode_ns_per_rec = 0.0;
  double decode_ns_per_rec = 0.0;
  bool roundtrip_ok = false;  ///< decoded records equal the encoded ones
};

/// Records frames of `batch` records: encode_records + encode_frame, then
/// FrameDecoder + decode_records over the whole encoded stream.
[[nodiscard]] WireCost replay_wire(std::span<const worms::trace::ConnRecord> records,
                                   std::size_t batch);

}  // namespace perfbench
