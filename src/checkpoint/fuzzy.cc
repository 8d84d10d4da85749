#include "checkpoint/fuzzy.h"

#include "checkpoint/quiesce.h"
#include "util/throttled_file.h"

namespace calcdb {

FuzzyCheckpointer::FuzzyCheckpointer(EngineContext engine, bool partial)
    : Checkpointer(engine, partial),
      dirty_(*engine.store) {
  if (!partial) {
    // Full fuzzy keeps the latest snapshot resident. Seed it with a
    // physical copy of the current database contents.
    uint32_t nshards = engine_.store->num_shards();
    snapshot_.resize(nshards);
    for (uint32_t s = 0; s < nshards; ++s) {
      KVStore* shard = engine_.store->shard(s);
      snapshot_[s].assign(shard->max_records(), nullptr);
      uint32_t slots = shard->NumSlots();
      for (uint32_t idx = 0; idx < slots; ++idx) {
        Record* rec = shard->ByIndex(idx);
        SpinLatchGuard guard(rec->latch);
        if (Record::IsRealValue(rec->live)) {
          snapshot_[s][idx] = Value::Create(rec->live->data());
        }
      }
    }
  }
}

FuzzyCheckpointer::~FuzzyCheckpointer() {
  for (auto& shard_snap : snapshot_) {
    for (Value* v : shard_snap) {
      if (v != nullptr) Value::Unref(v);
    }
  }
}

void FuzzyCheckpointer::ApplyWrite(Txn& txn, Record& rec, Value* new_val) {
  (void)txn;
  SpinLatchGuard guard(rec.latch);
  engine_.store->ReplaceLive(rec, new_val);
}

void FuzzyCheckpointer::OnCommit(Txn& txn) {
  for (Record* rec : txn.written_records) dirty_.MarkActive(*rec);
}

std::string FuzzyCheckpointer::DirtyTablePath() const {
  return engine_.ckpt_storage->dir() + "/fuzzy_dirty_table.meta";
}

Status FuzzyCheckpointer::WriteDirtyTable(const CaptureSource& source) {
  ThrottledFileWriter table;
  CALCDB_RETURN_NOT_OK(
      table.Open(DirtyTablePath(), engine_.ckpt_storage->write_budget()));
  Status st;
  for (uint32_t s = 0; s < engine_.store->num_shards(); ++s) {
    KVStore* shard = engine_.store->shard(s);
    dirty_.Side(source.side, s).ForEach(source.limits[s], [&](uint32_t idx) {
      if (!st.ok()) return;
      uint64_t key = shard->ByIndex(idx)->key;
      st = table.Append(&key, sizeof(key));
    });
    CALCDB_RETURN_NOT_OK(st);
  }
  return table.Close();
}

Status FuzzyCheckpointer::Capture(CheckpointInfo* info,
                                  CheckpointCycleStats* stats) {
  // Quiesce: write the checkpoint record (the dirty-record table; the
  // active-transaction list is empty because the drain completed) to the
  // log, then resume. Only this table write blocks the system.
  CaptureSource source;
  Status st;
  stats->quiesce_micros = QuiesceAndRun(
      engine_,
      [&]() -> Status {
        info->vpoc_lsn = engine_.log->AppendPhaseTransition(
            Phase::kResolve, info->id, /*pc=*/nullptr);
        source = CaptureSource::AllSlots(*engine_.store);
        source.side = dirty_.Flip();
        return WriteDirtyTable(source);
      },
      &st);

  // Asynchronous flush, concurrent with new mutators: values read here
  // may already postdate the checkpoint record — fuzzy checkpoints are
  // not transaction-consistent.
  if (st.ok() && is_partial()) {
    source.dirty = &dirty_;
    st = RunCapture(engine_, source, LiveVersion, info, stats);
  } else if (st.ok()) {
    // Full: scan the resident snapshot, first refreshing each dirty
    // record's slot from its live value (a lazy merge: the same files
    // as merging every dirty record before writing).
    const uint32_t side = source.side;
    st = RunCapture(
        engine_, source,
        [&](Record& rec) {
          Value*& snap = snapshot_[rec.shard][rec.index];
          if (dirty_.Test(side, rec)) {
            CapturedVersion live = LiveVersion(rec);
            if (snap != nullptr) Value::Unref(snap);
            snap = live.value;  // may be null (deleted)
          }
          return CapturedVersion{
              rec.key, snap != nullptr ? Value::Ref(snap) : nullptr};
        },
        info, stats);
  }
  // A failed cycle passes its dirty records on: the next one refreshes
  // the snapshot slots this scan did not reach, and a partial chain must
  // not lose them.
  if (st.ok()) {
    dirty_.Clear(source.side);
  } else {
    dirty_.Carry(source.side, source.limits);
  }
  return st;
}

}  // namespace calcdb
