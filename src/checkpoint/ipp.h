#ifndef CALCDB_CHECKPOINT_IPP_H_
#define CALCDB_CHECKPOINT_IPP_H_

#include <vector>

#include "checkpoint/checkpointer.h"
#include "checkpoint/dirty_tracker.h"

namespace calcdb {

/// Interleaved Ping-Pong (Cao et al., adapted per paper §4.1.3): the
/// storage layer keeps the application state plus two additional copies,
/// `odd` and `even`, each with a dirty bit per record. Every write updates
/// the application state AND physically copies the value into the array
/// pointed to by `current`, setting its dirty bit — the duplicated-write
/// cost behind IPP's ~25% baseline throughput loss ("it needs to maintain
/// two copies of the database state at all times, which involves memory
/// copy operations during normal operation").
///
/// At a physical point of consistency `current` flips; a background thread
/// then merges the previous period's dirty values into the last consistent
/// in-memory checkpoint and writes the result to disk, then clears the
/// period's dirty bits — or, when the write fails, hands them to the next
/// period. With the application state, both ping-pong arrays, and the
/// in-memory consistent snapshot resident, IPP holds up to 4 copies of the
/// database (Figure 6).
class IppCheckpointer : public Checkpointer {
 public:
  /// `partial`: pIPP — write only records dirtied since the previous
  /// checkpoint.
  IppCheckpointer(EngineContext engine, bool partial);
  ~IppCheckpointer() override;

  const char* name() const override { return is_partial() ? "pIPP" : "IPP"; }

  void ApplyWrite(Txn& txn, Record& rec, Value* new_val) override;

 protected:
  [[nodiscard]] Status Capture(CheckpointInfo* info,
                               CheckpointCycleStats* stats) override;

 private:
  /// Ping-pong copies, per shard ([shard][index]); arrays_[current]
  /// receives write duplicates, where `current` is dirty_.active().
  std::vector<std::vector<Value*>> arrays_[2];
  /// The per-record dirty bits of each ping-pong array (always bit
  /// vectors: they are part of the algorithm, not the §2.3 ablation).
  DirtySet dirty_;

  /// Ends a failed capture of the frozen `side`: moves its dirty records
  /// to the active side, so the next cycle merges and writes them.
  void CarryFrozenSide(uint32_t side, const std::vector<uint32_t>& limits);

  /// The last consistent checkpoint, kept in memory as the merge base
  /// ([shard][index]).
  std::vector<std::vector<Value*>> snapshot_;
};

}  // namespace calcdb

#endif  // CALCDB_CHECKPOINT_IPP_H_
