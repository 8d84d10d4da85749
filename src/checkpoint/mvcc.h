#ifndef CALCDB_CHECKPOINT_MVCC_H_
#define CALCDB_CHECKPOINT_MVCC_H_

#include <atomic>
#include <memory>
#include <vector>

#include "checkpoint/checkpointer.h"

namespace calcdb {

/// Full multi-versioning checkpointer (paper §2.1's MVCC alternative).
///
/// "Systems implementing snapshot isolation via MVCC implement full
/// multi-versioning. In such schemes, a full view of database state can
/// be obtained for any recent timestamp simply by selecting the latest
/// versions of each record whose timestamp precedes the chosen
/// timestamp." This checkpointer realizes exactly that: every committed
/// write appends a version stamped with its commit-log LSN; a checkpoint
/// appends a point-of-consistency token at LSN V and asynchronously scans
/// every record, emitting the newest version with stamp <= V. No phase
/// machinery, no quiesce, no per-write version routing — the virtual
/// point of consistency is free. The price is the version chains' memory
/// (Figure 6 territory), which is why the paper builds CALC's *precise
/// partial* multi-versioning instead.
///
/// Concurrency: versions are stamped in OnCommit (after the commit token
/// assigns the LSN, before locks release). The capture scan briefly
/// spin-waits on a record whose newest version is not yet stamped — that
/// writer is inside its commit path, so the wait is bounded by
/// microseconds and never blocks transactions.
class MvccCheckpointer : public Checkpointer {
 public:
  /// `eager_gc` false (default): paper-style *full multi-versioning* —
  /// versions accumulate between checkpoints and are trimmed only by the
  /// capture scan, demonstrating §2.1's "complete multi-versioning ... is
  /// likely to be too expensive in terms of memory resources". true:
  /// writers eagerly free superseded versions whenever no capture is in
  /// progress, collapsing the memory profile toward CALC's.
  MvccCheckpointer(EngineContext engine, bool eager_gc);
  ~MvccCheckpointer() override;

  const char* name() const override { return "MVCC"; }

  Value* ReadRecord(Txn& txn, Record& rec) override;
  void ApplyWrite(Txn& txn, Record& rec, Value* new_val) override;
  void OnCommit(Txn& txn) override;

  /// Number of version nodes currently alive (tests / memory analysis).
  int64_t live_versions() const {
    return live_versions_.load(std::memory_order_relaxed);
  }

 protected:
  [[nodiscard]] Status Capture(CheckpointInfo* info,
                               CheckpointCycleStats* stats) override;

 private:
  struct VersionNode {
    Value* value;    ///< owned; null = tombstone (deleted)
    uint64_t stamp;  ///< commit-log LSN; kUnstamped while in commit path
    VersionNode* next;
  };
  static constexpr uint64_t kUnstamped = ~uint64_t{0};

  /// Frees `node` and everything below it.
  void FreeChain(VersionNode* node);

  const bool eager_gc_;

  /// Version chain heads, per shard ([shard][index]). Guarded by the
  /// record's micro-latch.
  std::vector<std::vector<VersionNode*>> heads_;

  /// Capture coordination for eager GC: while a capture at LSN V runs,
  /// writers must retain the newest version with stamp <= V.
  std::atomic<bool> capture_active_{false};
  std::atomic<uint64_t> capture_lsn_{0};

  std::atomic<int64_t> live_versions_{0};
};

}  // namespace calcdb

#endif  // CALCDB_CHECKPOINT_MVCC_H_
