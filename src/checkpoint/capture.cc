#include "checkpoint/capture.h"

#include <atomic>
#include <string>
#include <thread>

#include "obs/obs.h"
#include "util/clock.h"
#include "util/fault_injection.h"

namespace calcdb {

namespace {

#if CALCDB_OBS_ENABLED
// Per-segment capture span names must be string literals (the trace ring
// stores the pointer, not a copy); segments beyond the table share one
// overflow name.
const char* SegmentSpanName(size_t seg) {
  static constexpr const char* kNames[] = {
      "capture.seg0",  "capture.seg1",  "capture.seg2",  "capture.seg3",
      "capture.seg4",  "capture.seg5",  "capture.seg6",  "capture.seg7",
      "capture.seg8",  "capture.seg9",  "capture.seg10", "capture.seg11",
      "capture.seg12", "capture.seg13", "capture.seg14", "capture.seg15",
  };
  constexpr size_t kCount = sizeof(kNames) / sizeof(kNames[0]);
  return seg < kCount ? kNames[seg] : "capture.seg+";
}
#endif  // CALCDB_OBS_ENABLED

}  // namespace

CaptureSource CaptureSource::AllSlots(const ShardedStore& store) {
  CaptureSource source;
  source.limits.reserve(store.num_shards());
  for (uint32_t s = 0; s < store.num_shards(); ++s) {
    source.limits.push_back(store.shard(s)->NumSlots());
  }
  return source;
}

Status capture_internal::Run(const EngineContext& engine,
                             const ShardScan& scan, CheckpointInfo* info,
                             CheckpointCycleStats* stats) {
  Stopwatch capture_sw;
  // Segment K is shard K, whole: the file layout is a property of the
  // data's partitioning, not of how many workers happened to run. One
  // shard keeps the legacy single file, byte for byte.
  const uint32_t nshards = engine.store->num_shards();
  CheckpointStorage* storage = engine.ckpt_storage;
  info->path = storage->PathFor(info->id, info->type);
  struct Segment {
    std::string path;
    Status status;
    uint64_t entries = 0;
    uint64_t bytes = 0;
  };
  std::vector<Segment> segs(nshards);
  for (uint32_t k = 0; k < nshards; ++k) {
    segs[k].path = nshards == 1
                       ? info->path
                       : storage->SegmentPathFor(info->id, info->type, k);
  }

  // Every writer draws from the storage-wide budget (carried in
  // writer_options), keeping the configured rate an aggregate cap over
  // all concurrent writers.
  const CheckpointWriterOptions& writer_options = storage->writer_options();
  auto capture_segment = [&](uint32_t k) {
    Segment& seg = segs[k];
    CALCDB_OBS_ONLY(int64_t seg_start_us = NowMicros();)
    CheckpointFileWriter writer;
    seg.status = writer.Open(seg.path, info->type, info->id, info->vpoc_lsn,
                             writer_options);
    if (seg.status.ok()) seg.status = scan(k, &writer);
    // Worker-thread context: route the injected Status into the segment's
    // status slot by hand (CALCDB_RETURN_NOT_OK can't return from here).
    if (seg.status.ok()) {
      seg.status = CALCDB_FAULT_STATUS("ckpt.segment.finish");
    }
    if (seg.status.ok()) seg.status = writer.Finish();
    seg.entries = writer.entries_written();
    seg.bytes = writer.bytes_written();
#if CALCDB_OBS_ENABLED
    int64_t now = NowMicros();
    obs::Tracer::Global().EmitComplete(SegmentSpanName(k), "ckpt",
                                       seg_start_us, now - seg_start_us,
                                       info->id);
    CALCDB_COUNTER_ADD("calcdb.ckpt.segments_written", 1);
    CALCDB_COUNTER_ADD("calcdb.ckpt.segment_bytes", seg.bytes);
#endif
  };
  // capture_threads sizes the pool and nothing else: workers pull shard
  // ids from a shared cursor, the calling thread being one of them.
  uint32_t pool = engine.capture_threads < 1
                      ? 1
                      : static_cast<uint32_t>(engine.capture_threads);
  if (pool > nshards) pool = nshards;
  std::atomic<uint32_t> next_seg{0};
  auto worker = [&] {
    for (;;) {
      uint32_t k = next_seg.fetch_add(1, std::memory_order_relaxed);
      if (k >= nshards) return;
      capture_segment(k);
    }
  };
  std::vector<std::thread> workers;
  workers.reserve(pool - 1);
  for (uint32_t w = 1; w < pool; ++w) workers.emplace_back(worker);
  worker();
  for (std::thread& t : workers) t.join();

  // The checkpoint is valid only once every segment footer is durable; on
  // any failure the caller registers nothing and recovery ignores the
  // files already written (the manifest never lists them).
  for (const Segment& seg : segs) {
    CALCDB_RETURN_NOT_OK(seg.status);
  }
  info->segments.clear();
  info->num_entries = 0;
  stats->bytes_written = 0;
  for (const Segment& seg : segs) {
    if (nshards > 1) info->segments.push_back(seg.path);
    info->num_entries += seg.entries;
    stats->bytes_written += seg.bytes;
  }
  stats->records_written = info->num_entries;
  stats->capture_micros = capture_sw.ElapsedMicros();
  return Status::OK();
}

}  // namespace calcdb
