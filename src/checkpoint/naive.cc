#include "checkpoint/naive.h"

#include "checkpoint/quiesce.h"
#include "obs/obs.h"
#include "util/clock.h"

namespace calcdb {

NaiveSnapshotCheckpointer::NaiveSnapshotCheckpointer(EngineContext engine,
                                                     NaiveOptions options)
    : Checkpointer(engine), options_(options) {
  if (options_.partial) {
    uint32_t nshards = engine_.store->num_shards();
    for (int i = 0; i < 2; ++i) {
      dirty_[i].reserve(nshards);
      for (uint32_t s = 0; s < nshards; ++s) {
        dirty_[i].emplace_back(std::make_unique<DirtyKeyTracker>(
            options_.tracker, engine_.store->shard(s)->max_records()));
      }
    }
  }
}

void NaiveSnapshotCheckpointer::ApplyWrite(Txn& txn, Record& rec,
                                           Value* new_val) {
  (void)txn;
  SpinLatchGuard guard(rec.latch);
  engine_.store->ReplaceLive(rec, new_val);
}

void NaiveSnapshotCheckpointer::OnCommit(Txn& txn) {
  if (!options_.partial || txn.written_records.empty()) return;
  uint32_t side = active_dirty_.load(std::memory_order_acquire);
  for (Record* rec : txn.written_records) {
    dirty_[side][rec->shard]->Mark(rec->index);
  }
}

Status NaiveSnapshotCheckpointer::RunCheckpointCycle() {
  Stopwatch total;
  CALCDB_TRACE_SPAN(cycle_span, name(), "ckpt", 0);
  CheckpointCycleStats stats;
  uint64_t id = engine_.ckpt_storage->NextId();
  stats.checkpoint_id = id;

  CheckpointType type =
      options_.partial ? CheckpointType::kPartial : CheckpointType::kFull;
  std::string path = engine_.ckpt_storage->PathFor(id, type);
  CheckpointFileWriter writer;

  // The entire snapshot is written inside the quiesce window: exclusive
  // access to the whole database for the duration of the checkpoint.
  Status st;
  stats.quiesce_micros = QuiesceAndRun(
      engine_,
      [&]() -> Status {
        uint64_t poc_lsn = engine_.log->AppendPhaseTransition(
            Phase::kResolve, id, /*pc=*/nullptr);
        CALCDB_RETURN_NOT_OK(
            writer.Open(path, type, id, poc_lsn,
                        engine_.ckpt_storage->writer_options()));
        uint32_t nshards = engine_.store->num_shards();
        if (options_.partial) {
          // No transactions are active: capture the side that was being
          // marked, and flip marking to the other (cleared) side.
          uint32_t capture =
              active_dirty_.load(std::memory_order_acquire);
          active_dirty_.store(1 - capture, std::memory_order_release);
          for (uint32_t s = 0; s < nshards; ++s) {
            KVStore* shard = engine_.store->shard(s);
            Status scan_st;
            dirty_[capture][s]->ForEach(shard->NumSlots(), [&](uint32_t
                                                                   idx) {
              if (!scan_st.ok()) return;
              Record* rec = shard->ByIndex(idx);
              if (Record::IsRealValue(rec->live)) {
                scan_st = writer.Append(rec->key, rec->live->data());
              } else if (rec->key != ~uint64_t{0}) {
                scan_st = writer.AppendTombstone(rec->key);
              }
            });
            CALCDB_RETURN_NOT_OK(scan_st);
            dirty_[capture][s]->Clear();
          }
        } else {
          for (uint32_t s = 0; s < nshards; ++s) {
            KVStore* shard = engine_.store->shard(s);
            uint32_t slots = shard->NumSlots();
            for (uint32_t idx = 0; idx < slots; ++idx) {
              Record* rec = shard->ByIndex(idx);
              if (Record::IsRealValue(rec->live)) {
                CALCDB_RETURN_NOT_OK(
                    writer.Append(rec->key, rec->live->data()));
              }
            }
          }
        }
        return writer.Finish();
      },
      &st);
  CALCDB_RETURN_NOT_OK(st);

  CheckpointInfo info;
  info.id = id;
  info.type = type;
  info.vpoc_lsn = 0;
  {
    // The PoC token LSN was recorded before writing; recover it from the
    // log rather than plumbing it out of the lambda.
    uint64_t lsn = 0;
    if (engine_.log->FindPhaseToken(id, Phase::kResolve, &lsn)) {
      info.vpoc_lsn = lsn;
    }
  }
  info.num_entries = writer.entries_written();
  info.path = path;
  CALCDB_RETURN_NOT_OK(PublishCheckpoint(info));

  stats.records_written = writer.entries_written();
  stats.bytes_written = writer.bytes_written();
  stats.capture_micros = stats.quiesce_micros;
  stats.total_micros = total.ElapsedMicros();
  SetLastCycle(stats);
  return Status::OK();
}

}  // namespace calcdb
