#include "checkpoint/fuzzy.h"

#include "checkpoint/quiesce.h"
#include "obs/obs.h"
#include "util/clock.h"
#include "util/throttled_file.h"

namespace calcdb {

FuzzyCheckpointer::FuzzyCheckpointer(EngineContext engine,
                                     FuzzyOptions options)
    : Checkpointer(engine), options_(options) {
  uint32_t nshards = engine_.store->num_shards();
  for (int i = 0; i < 2; ++i) {
    dirty_[i].reserve(nshards);
    for (uint32_t s = 0; s < nshards; ++s) {
      dirty_[i].emplace_back(std::make_unique<DirtyKeyTracker>(
          options_.tracker, engine_.store->shard(s)->max_records()));
    }
  }
  if (!options_.partial) {
    // Full fuzzy keeps the latest snapshot resident. Seed it with a
    // physical copy of the current database contents.
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
  if (txn.written_records.empty()) return;
  uint32_t side = active_dirty_.load(std::memory_order_acquire);
  for (Record* rec : txn.written_records) {
    dirty_[side][rec->shard]->Mark(rec->index);
  }
}

Status FuzzyCheckpointer::RunCheckpointCycle() {
  Stopwatch total;
  CALCDB_TRACE_SPAN(cycle_span, name(), "ckpt", 0);
  CheckpointCycleStats stats;
  uint64_t id = engine_.ckpt_storage->NextId();
  stats.checkpoint_id = id;

  uint32_t nshards = engine_.store->num_shards();
  uint32_t capture_side = 0;
  std::vector<uint32_t> slots_at_poc(nshards, 0);
  uint64_t poc_lsn = 0;

  // Quiesce: write the checkpoint record (the dirty-record table; the
  // active-transaction list is empty because the drain completed) to the
  // log, then resume. Only this table write blocks the system.
  Status st;
  stats.quiesce_micros = QuiesceAndRun(
      engine_,
      [&]() -> Status {
        poc_lsn = engine_.log->AppendPhaseTransition(Phase::kResolve, id,
                                                     /*pc=*/nullptr);
        for (uint32_t s = 0; s < nshards; ++s) {
          slots_at_poc[s] = engine_.store->shard(s)->NumSlots();
        }
        capture_side = active_dirty_.load(std::memory_order_acquire);
        active_dirty_.store(1 - capture_side, std::memory_order_release);

        // Serialize the dirty-record table: one 8-byte key per dirty
        // record, through the same throttled device as checkpoints.
        ThrottledFileWriter record_writer;
        std::string record_path =
            engine_.ckpt_storage->dir() + "/fuzzy_record_" +
            std::to_string(id) + ".meta";
        CALCDB_RETURN_NOT_OK(record_writer.Open(
            record_path, engine_.ckpt_storage->write_budget()));
        Status write_st;
        for (uint32_t s = 0; s < nshards; ++s) {
          KVStore* shard = engine_.store->shard(s);
          dirty_[capture_side][s]->ForEach(
              slots_at_poc[s], [&](uint32_t idx) {
                if (!write_st.ok()) return;
                uint64_t key = shard->ByIndex(idx)->key;
                write_st = record_writer.Append(&key, sizeof(key));
              });
          CALCDB_RETURN_NOT_OK(write_st);
        }
        return record_writer.Close();
      },
      &st);
  CALCDB_RETURN_NOT_OK(st);

  // Asynchronous flush of dirty records, concurrent with new mutators:
  // values read here may already postdate the checkpoint record — fuzzy
  // checkpoints are not transaction-consistent.
  Stopwatch capture_sw;
  CheckpointType type =
      options_.partial ? CheckpointType::kPartial : CheckpointType::kFull;
  std::string path = engine_.ckpt_storage->PathFor(id, type);
  CheckpointFileWriter writer;
  CALCDB_RETURN_NOT_OK(
      writer.Open(path, type, id, poc_lsn,
                  engine_.ckpt_storage->writer_options()));

  if (options_.partial) {
    for (uint32_t s = 0; s < nshards; ++s) {
      KVStore* shard = engine_.store->shard(s);
      Status scan_st;
      dirty_[capture_side][s]->ForEach(slots_at_poc[s], [&](uint32_t idx) {
        if (!scan_st.ok()) return;
        Record* rec = shard->ByIndex(idx);
        Value* v = nullptr;
        {
          SpinLatchGuard guard(rec->latch);
          if (Record::IsRealValue(rec->live)) v = Value::Ref(rec->live);
        }
        if (v != nullptr) {
          scan_st = writer.Append(rec->key, v->data());
          Value::Unref(v);
        } else if (rec->key != ~uint64_t{0}) {
          scan_st = writer.AppendTombstone(rec->key);
        }
      });
      CALCDB_RETURN_NOT_OK(scan_st);
    }
  } else {
    // Full: merge dirty records into the resident snapshot, then write
    // the complete snapshot, shard-major.
    for (uint32_t s = 0; s < nshards; ++s) {
      KVStore* shard = engine_.store->shard(s);
      dirty_[capture_side][s]->ForEach(slots_at_poc[s], [&](uint32_t idx) {
        Record* rec = shard->ByIndex(idx);
        Value* v = nullptr;
        {
          SpinLatchGuard guard(rec->latch);
          if (Record::IsRealValue(rec->live)) v = Value::Ref(rec->live);
        }
        if (snapshot_[s][idx] != nullptr) Value::Unref(snapshot_[s][idx]);
        snapshot_[s][idx] = v;  // may be null (deleted)
      });
    }
    for (uint32_t s = 0; s < nshards; ++s) {
      KVStore* shard = engine_.store->shard(s);
      for (uint32_t idx = 0; idx < slots_at_poc[s]; ++idx) {
        if (snapshot_[s][idx] != nullptr) {
          CALCDB_RETURN_NOT_OK(writer.Append(shard->ByIndex(idx)->key,
                                             snapshot_[s][idx]->data()));
        }
      }
    }
  }
  CALCDB_RETURN_NOT_OK(writer.Finish());
  for (uint32_t s = 0; s < nshards; ++s) dirty_[capture_side][s]->Clear();
  stats.capture_micros = capture_sw.ElapsedMicros();

  CheckpointInfo info;
  info.id = id;
  info.type = type;
  info.vpoc_lsn = poc_lsn;
  info.num_entries = writer.entries_written();
  info.path = path;
  CALCDB_RETURN_NOT_OK(PublishCheckpoint(info));

  stats.records_written = writer.entries_written();
  stats.bytes_written = writer.bytes_written();
  stats.total_micros = total.ElapsedMicros();
  SetLastCycle(stats);
  return Status::OK();
}

}  // namespace calcdb
