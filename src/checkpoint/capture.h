#ifndef CALCDB_CHECKPOINT_CAPTURE_H_
#define CALCDB_CHECKPOINT_CAPTURE_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "checkpoint/checkpointer.h"
#include "checkpoint/ckpt_file.h"
#include "checkpoint/ckpt_storage.h"
#include "checkpoint/dirty_tracker.h"
#include "storage/record.h"
#include "storage/sharded_store.h"
#include "storage/value.h"
#include "util/latch.h"
#include "util/status.h"

namespace calcdb {

/// One record's version at the point of consistency, as an algorithm's
/// version selection picks it.
struct CapturedVersion {
  uint64_t key = ~uint64_t{0};
  /// A reference the capture job writes and then releases; null when the
  /// record is absent at the point of consistency (a tombstone in a
  /// partial checkpoint, nothing in a full one).
  Value* value = nullptr;
};

/// The live version, read under the record latch: the selection of every
/// algorithm whose capture sees a frozen (or deliberately fuzzy) store.
inline CapturedVersion LiveVersion(Record& rec) {
  SpinLatchGuard guard(rec.latch);
  return {rec.key,
          Record::IsRealValue(rec.live) ? Value::Ref(rec.live) : nullptr};
}

/// Which records of each shard a capture visits, in ascending slot order.
struct CaptureSource {
  /// Per-shard slot count at the point of consistency; slots at or above
  /// it are never visited.
  std::vector<uint32_t> limits;
  /// Null: every slot below the limit. Otherwise only the indexes on
  /// `side` of this dirty set, which must stay frozen during the capture.
  const DirtySet* dirty = nullptr;
  uint32_t side = 0;

  /// Every slot the store holds right now (the caller has reached its
  /// point of consistency, so no slot can appear that belongs in it).
  static CaptureSource AllSlots(const ShardedStore& store);
};

/// Visits shard `s`'s records of `source` in ascending slot order,
/// stopping at (and returning) the first error `visit(Record&)` returns.
template <typename Visit>
[[nodiscard]] Status ScanShard(ShardedStore& store,
                               const CaptureSource& source, uint32_t s,
                               Visit&& visit) {
  KVStore* shard = store.shard(s);
  const uint32_t limit = source.limits[s];
  if (source.dirty == nullptr) {
    for (uint32_t idx = 0; idx < limit; ++idx) {
      CALCDB_RETURN_NOT_OK(visit(*shard->ByIndex(idx)));
    }
    return Status::OK();
  }
  Status st;
  source.dirty->Side(source.side, s).ForEach(limit, [&](uint32_t idx) {
    if (st.ok()) st = visit(*shard->ByIndex(idx));
  });
  return st;
}

namespace capture_internal {
/// Writes shard `shard`'s records into `writer`.
using ShardScan =
    std::function<Status(uint32_t shard, CheckpointFileWriter* writer)>;
/// The non-template half of RunCapture: layout, worker pool, stats.
[[nodiscard]] Status Run(const EngineContext& engine, const ShardScan& scan,
                         CheckpointInfo* info, CheckpointCycleStats* stats);
}  // namespace capture_internal

/// The capture job every checkpointer writes through (Fork's child aside).
///
/// Layout: a one-shard store writes the legacy single file at
/// PathFor(id, type); N shards write one segment per shard, `.segK`
/// holding exactly shard K's records, with min(capture_threads, N)
/// workers pulling shard ids. `select(Record&) -> CapturedVersion` runs
/// once per visited record, on the worker threads — concurrently for
/// records of different shards — and is inlined into the scan loop.
///
/// `info` arrives with id, type and vpoc_lsn set; on success the job
/// fills its path, segment list and entry count, and the records, bytes
/// and capture time of `stats`. Each segment's first error is returned;
/// files already written then stay unregistered orphans.
template <typename Select>
[[nodiscard]] Status RunCapture(const EngineContext& engine,
                                const CaptureSource& source, Select&& select,
                                CheckpointInfo* info,
                                CheckpointCycleStats* stats) {
  const bool partial = info->type == CheckpointType::kPartial;
  auto emit = [&](Record& rec, CheckpointFileWriter* writer) -> Status {
    CapturedVersion version = select(rec);
    if (version.value != nullptr) {
      Status st = writer->Append(version.key, version.value->data());
      Value::Unref(version.value);
      return st;
    }
    // Partial checkpoints must record deletions; a merge would otherwise
    // resurrect the previous checkpoint's value.
    if (partial && version.key != ~uint64_t{0}) {
      return writer->AppendTombstone(version.key);
    }
    return Status::OK();
  };
  return capture_internal::Run(
      engine,
      [&](uint32_t s, CheckpointFileWriter* writer) -> Status {
        return ScanShard(*engine.store, source, s,
                         [&](Record& rec) { return emit(rec, writer); });
      },
      info, stats);
}

}  // namespace calcdb

#endif  // CALCDB_CHECKPOINT_CAPTURE_H_
