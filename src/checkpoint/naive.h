#ifndef CALCDB_CHECKPOINT_NAIVE_H_
#define CALCDB_CHECKPOINT_NAIVE_H_

#include <memory>

#include "checkpoint/checkpointer.h"
#include "checkpoint/dirty_tracker.h"

namespace calcdb {

/// Naive snapshot (paper §4.1.1): acquire exclusive access to the entire
/// database — implemented as closing the admission gate and draining all
/// active transactions — then iterate every key and write its value to
/// disk, with the system quiesced for the full duration of the write.
/// "The throughput drops to 0 transactions per second while the checkpoint
/// is being taken ... the time to take this checkpoint is very small,
/// since all database resources are devoted to creating the checkpoint."
/// (Our checkpoint duration is disk-bandwidth-bound rather than CPU-bound,
/// matching the paper's Appendix A observation.)
class NaiveSnapshotCheckpointer : public Checkpointer {
 public:
  /// `partial`: pNaive — quiesce, but write only records dirtied since
  /// the previous checkpoint.
  NaiveSnapshotCheckpointer(EngineContext engine, bool partial);

  const char* name() const override {
    return is_partial() ? "pNaive" : "Naive";
  }

  void ApplyWrite(Txn& txn, Record& rec, Value* new_val) override;
  void OnCommit(Txn& txn) override;

 protected:
  [[nodiscard]] Status Capture(CheckpointInfo* info,
                               CheckpointCycleStats* stats) override;

 private:
  /// pNaive only; flipped during the quiesce, when no transaction is in
  /// flight.
  std::unique_ptr<DirtySet> dirty_;
};

}  // namespace calcdb

#endif  // CALCDB_CHECKPOINT_NAIVE_H_
