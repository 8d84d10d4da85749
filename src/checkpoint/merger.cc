#include "checkpoint/merger.h"

#include <map>
#include <string>
#include <thread>
#include <vector>

#include "checkpoint/ckpt_file.h"
#include "obs/obs.h"
#include "util/clock.h"
#include "util/fault_injection.h"

namespace calcdb {

Status CheckpointMerger::CollapseOnce(size_t max_partials,
                                      bool* did_merge) {
  *did_merge = false;
  std::vector<CheckpointInfo> chain = storage_->RecoveryChain();
  // Need at least a (full, partial) pair — or two partials from an
  // empty-start chain — for collapsing to be worthwhile.
  if (chain.size() < 2) return Status::OK();
  CALCDB_TRACE_SPAN(merge_span, "merge", "ckpt", chain.size());
  size_t take = chain.size() - 1;
  if (take > max_partials) take = max_partials;

  // Latest-wins merge. std::map keeps keys ordered, which makes merged
  // checkpoints deterministic byte-for-byte.
  std::map<uint64_t, std::string> merged;
  std::vector<uint64_t> retired;
  for (size_t i = 0; i <= take; ++i) {
    const CheckpointInfo& info = chain[i];
    // Segments of one checkpoint hold disjoint key ranges, so reading
    // them in file order preserves latest-wins semantics across the
    // chain.
    for (const std::string& file : info.files()) {
      CheckpointFileReader reader;
      CALCDB_RETURN_NOT_OK(reader.Open(file));
      CALCDB_RETURN_NOT_OK(
          reader.ReadAll([&](const CheckpointEntry& entry) -> Status {
            if (entry.tombstone) {
              merged.erase(entry.key);
            } else {
              merged[entry.key] = entry.value;
            }
            return Status::OK();
          }));
    }
    retired.push_back(info.id);
  }
  const CheckpointInfo& last = chain[take];

  // The merged full checkpoint adopts the last input's identity: it
  // represents the database exactly as of that partial's point of
  // consistency.
  CheckpointInfo out;
  out.id = last.id;
  out.type = CheckpointType::kFull;
  out.vpoc_lsn = last.vpoc_lsn;
  out.path = storage_->PathFor(out.id, CheckpointType::kFull);

  CheckpointFileWriter writer;
  CALCDB_RETURN_NOT_OK(writer.Open(out.path, CheckpointType::kFull, out.id,
                                   out.vpoc_lsn,
                                   storage_->writer_options()));
  for (const auto& [key, value] : merged) {
    CALCDB_RETURN_NOT_OK(writer.Append(key, value));
  }
  CALCDB_RETURN_NOT_OK(writer.Finish());
  out.num_entries = writer.entries_written();

  // Crash before ReplaceCollapsed: the merged file exists but the on-disk
  // manifest still lists the inputs — recovery uses the old chain.
  CALCDB_FAULT_POINT("merge.replace");
  CALCDB_RETURN_NOT_OK(storage_->ReplaceCollapsed(retired, out));
  // Crash after ReplaceCollapsed deleted the retired files but before the
  // manifest records the swap: the on-disk manifest lists files that no
  // longer exist, recovery rejects them as torn and falls back (possibly
  // all the way to log-only replay).
  CALCDB_FAULT_POINT("merge.persist");
  CALCDB_RETURN_NOT_OK(storage_->PersistManifest());
  merges_done_.fetch_add(1, std::memory_order_relaxed);
  CALCDB_COUNTER_ADD("calcdb.ckpt.merges", 1);
  CALCDB_COUNTER_ADD("calcdb.ckpt.merge_entries_out",
                     writer.entries_written());
  *did_merge = true;
  return Status::OK();
}

void CheckpointMerger::StartBackground(size_t trigger_batch, int poll_ms) {
  if (running_.exchange(true, std::memory_order_acq_rel)) return;
  thread_ = std::thread([this, trigger_batch, poll_ms] {
    while (running_.load(std::memory_order_acquire)) {
      std::vector<CheckpointInfo> chain = storage_->RecoveryChain();
      if (chain.size() >= trigger_batch + 1) {
        bool did_merge = false;
        // Best effort: errors leave the inputs intact for the next try.
        CollapseOnce(trigger_batch, &did_merge).ok();
      }
      SleepMicros(static_cast<int64_t>(poll_ms) * 1000);
    }
  });
}

void CheckpointMerger::StopBackground() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  if (thread_.joinable()) thread_.join();
}

}  // namespace calcdb
