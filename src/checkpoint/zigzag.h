#ifndef CALCDB_CHECKPOINT_ZIGZAG_H_
#define CALCDB_CHECKPOINT_ZIGZAG_H_

#include <memory>
#include <vector>

#include "checkpoint/checkpointer.h"
#include "checkpoint/dirty_tracker.h"
#include "util/bitvec.h"

namespace calcdb {

/// Zigzag (Cao et al., adapted per paper §4.1.4): two versions of every
/// record — AS[key]_0 and AS[key]_1, stored in the record's two version
/// slots — plus two bit vectors MR (which version reads use) and MW (which
/// version writes overwrite). Every update writes AS[key]_MW[key] and sets
/// MR[key] := MW[key]. Each checkpoint period begins, at a physical point
/// of consistency, by setting MW[key] := ¬MR[key] for every key (done
/// word-wise while the system is drained); the asynchronous checkpoint
/// thread then safely writes AS[key]_¬MW[key], which no writer can touch.
///
/// Baseline cost at rest: no extra data copying ("Zigzag only has to
/// perform writes once"), but every write reads and updates the two bit
/// vectors, and both version slots stay permanently allocated — 2x record
/// memory (Figure 6).
class ZigzagCheckpointer : public Checkpointer {
 public:
  /// `partial`: pZigzag — write only records dirtied since the previous
  /// checkpoint (paper §4.1.4: "a second version of the ...
  /// implementations that take only partial snapshots using the same bit
  /// vectors as used for pCALC").
  ZigzagCheckpointer(EngineContext engine, bool partial);

  const char* name() const override {
    return is_partial() ? "pZigzag" : "Zigzag";
  }

  Value* ReadRecord(Txn& txn, Record& rec) override;
  void ApplyWrite(Txn& txn, Record& rec, Value* new_val) override;
  void OnCommit(Txn& txn) override;

 protected:
  [[nodiscard]] Status Capture(CheckpointInfo* info,
                               CheckpointCycleStats* stats) override;

 private:
  /// Pointer to the record's version slot `v` (0 => live, 1 => stable).
  static Value** Slot(Record& rec, bool v) {
    return v ? &rec.stable : &rec.live;
  }

  /// MR[key] / MW[key], one bit vector per shard (indexed by the shard's
  /// own dense record indexes).
  std::vector<std::unique_ptr<AtomicBitVector>> mr_;  ///< version to read
  std::vector<std::unique_ptr<AtomicBitVector>> mw_;  ///< version to write

  /// pZigzag only; flipped during the physical point of consistency.
  std::unique_ptr<DirtySet> dirty_;
};

}  // namespace calcdb

#endif  // CALCDB_CHECKPOINT_ZIGZAG_H_
