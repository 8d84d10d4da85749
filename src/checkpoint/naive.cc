#include "checkpoint/naive.h"

#include "checkpoint/capture.h"
#include "checkpoint/quiesce.h"

namespace calcdb {

NaiveSnapshotCheckpointer::NaiveSnapshotCheckpointer(EngineContext engine,
                                                     bool partial)
    : Checkpointer(engine, partial) {
  if (partial) {
    dirty_ = std::make_unique<DirtySet>(*engine_.store);
  }
}

void NaiveSnapshotCheckpointer::ApplyWrite(Txn& txn, Record& rec,
                                           Value* new_val) {
  (void)txn;
  SpinLatchGuard guard(rec.latch);
  engine_.store->ReplaceLive(rec, new_val);
}

void NaiveSnapshotCheckpointer::OnCommit(Txn& txn) {
  if (dirty_ == nullptr) return;
  for (Record* rec : txn.written_records) dirty_->MarkActive(*rec);
}

Status NaiveSnapshotCheckpointer::Capture(CheckpointInfo* info,
                                          CheckpointCycleStats* stats) {
  // The entire snapshot is written inside the quiesce window: exclusive
  // access to the whole database for the duration of the checkpoint.
  Status st;
  stats->quiesce_micros = QuiesceAndRun(
      engine_,
      [&]() -> Status {
        info->vpoc_lsn = engine_.log->AppendPhaseTransition(
            Phase::kResolve, info->id, /*pc=*/nullptr);
        CaptureSource source = CaptureSource::AllSlots(*engine_.store);
        if (dirty_ != nullptr) {
          // No transactions are active: capture the side that was being
          // marked, and flip marking to the other (cleared) side.
          source.dirty = dirty_.get();
          source.side = dirty_->Flip();
        }
        Status capture =
            RunCapture(engine_, source, LiveVersion, info, stats);
        if (dirty_ != nullptr) {
          if (capture.ok()) {
            dirty_->Clear(source.side);
          } else {
            dirty_->Carry(source.side, source.limits);
          }
        }
        return capture;
      },
      &st);
  return st;
}

}  // namespace calcdb
