#include "checkpoint/zigzag.h"

#include "checkpoint/quiesce.h"
#include "obs/obs.h"
#include "util/clock.h"

namespace calcdb {

ZigzagCheckpointer::ZigzagCheckpointer(EngineContext engine,
                                       ZigzagOptions options)
    : Checkpointer(engine), options_(options) {
  // "Zig-Zag starts with two identical versions of each record": duplicate
  // the loaded database into the second version slot. MR starts all zeros
  // (read version 0), MW all ones (write version 1). All structures are
  // per shard, sized to each shard's own index space.
  uint32_t nshards = engine_.store->num_shards();
  mr_.reserve(nshards);
  mw_.reserve(nshards);
  for (uint32_t s = 0; s < nshards; ++s) {
    KVStore* shard = engine_.store->shard(s);
    mr_.emplace_back(std::make_unique<AtomicBitVector>(shard->max_records()));
    mw_.emplace_back(std::make_unique<AtomicBitVector>(shard->max_records()));
    uint32_t slots = shard->NumSlots();
    for (uint32_t idx = 0; idx < slots; ++idx) {
      Record* rec = shard->ByIndex(idx);
      SpinLatchGuard guard(rec->latch);
      if (Record::IsRealValue(rec->live)) {
        rec->stable = Value::Create(rec->live->data());
      }
    }
    for (size_t w = 0; w < mw_[s]->num_words(); ++w) {
      mw_[s]->SetWord(w, ~uint64_t{0});
    }
  }
  if (options_.partial) {
    for (int i = 0; i < 2; ++i) {
      dirty_[i].reserve(nshards);
      for (uint32_t s = 0; s < nshards; ++s) {
        dirty_[i].emplace_back(std::make_unique<DirtyKeyTracker>(
            options_.tracker, engine_.store->shard(s)->max_records()));
      }
    }
  }
}

Value* ZigzagCheckpointer::ReadRecord(Txn& txn, Record& rec) {
  (void)txn;
  Value* v = *Slot(rec, mr_[rec.shard]->Get(rec.index));
  return Record::IsRealValue(v) ? v : nullptr;
}

void ZigzagCheckpointer::ApplyWrite(Txn& txn, Record& rec, Value* new_val) {
  (void)txn;
  // "New updates of Key are always written to AS[Key]_MW[Key], and
  // MR[Key] is set equal to MW[Key] each time Key is updated."
  bool w = mw_[rec.shard]->Get(rec.index);
  SpinLatchGuard guard(rec.latch);
  if (w) {
    // Writing the stable slot: the live pointer (and with it the present
    // counter) is untouched.
    Value** slot = Slot(rec, true);
    if (Record::IsRealValue(*slot)) Value::Unref(*slot);
    *slot = new_val;
    mr_[rec.shard]->Set(rec.index);
  } else {
    engine_.store->ReplaceLive(rec, new_val);
    mr_[rec.shard]->Clear(rec.index);
  }
}

void ZigzagCheckpointer::OnCommit(Txn& txn) {
  if (!options_.partial || txn.written_records.empty()) return;
  uint32_t side = active_dirty_.load(std::memory_order_acquire);
  for (Record* rec : txn.written_records) {
    dirty_[side][rec->shard]->Mark(rec->index);
  }
}

Status ZigzagCheckpointer::RunCheckpointCycle() {
  Stopwatch total;
  CALCDB_TRACE_SPAN(cycle_span, name(), "ckpt", 0);
  CheckpointCycleStats stats;
  uint64_t id = engine_.ckpt_storage->NextId();
  stats.checkpoint_id = id;

  uint32_t nshards = engine_.store->num_shards();
  std::vector<uint32_t> slots_at_poc(nshards, 0);
  uint64_t poc_lsn = 0;
  uint32_t capture_side = 0;

  // Physical point of consistency: drain, then flip MW := ¬MR word-wise.
  Status st;
  stats.quiesce_micros = QuiesceAndRun(
      engine_,
      [&]() -> Status {
        poc_lsn = engine_.log->AppendPhaseTransition(Phase::kResolve, id,
                                                     /*pc=*/nullptr);
        for (uint32_t s = 0; s < nshards; ++s) {
          slots_at_poc[s] = engine_.store->shard(s)->NumSlots();
          for (size_t w = 0; w < mw_[s]->num_words(); ++w) {
            mw_[s]->SetWord(w, ~mr_[s]->Word(w));
          }
        }
        if (options_.partial) {
          capture_side = active_dirty_.load(std::memory_order_acquire);
          active_dirty_.store(1 - capture_side,
                              std::memory_order_release);
        }
        return Status::OK();
      },
      &st);
  CALCDB_RETURN_NOT_OK(st);

  // Asynchronous capture: AS[key]_¬MW[key] is immutable until the next
  // flip, so the scan needs only the per-record latch for safe refcounts.
  Stopwatch capture_sw;
  CheckpointType type =
      options_.partial ? CheckpointType::kPartial : CheckpointType::kFull;
  std::string path = engine_.ckpt_storage->PathFor(id, type);
  CheckpointFileWriter writer;
  CALCDB_RETURN_NOT_OK(
      writer.Open(path, type, id, poc_lsn,
                  engine_.ckpt_storage->writer_options()));

  auto capture_record = [&](uint32_t s, uint32_t idx) -> Status {
    Record* rec = engine_.store->shard(s)->ByIndex(idx);
    Value* v = nullptr;
    {
      SpinLatchGuard guard(rec->latch);
      Value* stable_side = *Slot(*rec, !mw_[s]->Get(idx));
      if (Record::IsRealValue(stable_side)) {
        v = Value::Ref(stable_side);
      }
    }
    Status append_st;
    if (v != nullptr) {
      append_st = writer.Append(rec->key, v->data());
      Value::Unref(v);
    } else if (options_.partial && rec->key != ~uint64_t{0}) {
      append_st = writer.AppendTombstone(rec->key);
    }
    return append_st;
  };

  if (options_.partial) {
    for (uint32_t s = 0; s < nshards; ++s) {
      Status scan_st;
      dirty_[capture_side][s]->ForEach(slots_at_poc[s], [&](uint32_t idx) {
        if (!scan_st.ok()) return;
        scan_st = capture_record(s, idx);
      });
      CALCDB_RETURN_NOT_OK(scan_st);
      dirty_[capture_side][s]->Clear();
    }
  } else {
    for (uint32_t s = 0; s < nshards; ++s) {
      for (uint32_t idx = 0; idx < slots_at_poc[s]; ++idx) {
        CALCDB_RETURN_NOT_OK(capture_record(s, idx));
      }
    }
  }
  CALCDB_RETURN_NOT_OK(writer.Finish());
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
