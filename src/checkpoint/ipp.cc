#include "checkpoint/ipp.h"

#include "checkpoint/quiesce.h"
#include "obs/obs.h"
#include "util/clock.h"

namespace calcdb {

IppCheckpointer::IppCheckpointer(EngineContext engine, IppOptions options)
    : Checkpointer(engine), options_(options) {
  uint32_t nshards = engine_.store->num_shards();
  for (int i = 0; i < 2; ++i) {
    arrays_[i].resize(nshards);
    dirty_bits_[i].reserve(nshards);
  }
  snapshot_.resize(nshards);
  for (uint32_t s = 0; s < nshards; ++s) {
    KVStore* shard = engine_.store->shard(s);
    size_t cap = shard->max_records();
    arrays_[0][s].assign(cap, nullptr);
    arrays_[1][s].assign(cap, nullptr);
    snapshot_[s].assign(cap, nullptr);
    dirty_bits_[0].emplace_back(std::make_unique<AtomicBitVector>(cap));
    dirty_bits_[1].emplace_back(std::make_unique<AtomicBitVector>(cap));
    // Pre-populate all copies with the loaded database, matching the
    // algorithm's pre-allocated fixed arrays (and Figure 6's constant 4x
    // memory profile).
    uint32_t slots = shard->NumSlots();
    for (uint32_t idx = 0; idx < slots; ++idx) {
      Record* rec = shard->ByIndex(idx);
      SpinLatchGuard guard(rec->latch);
      if (Record::IsRealValue(rec->live)) {
        arrays_[0][s][idx] = Value::Create(rec->live->data());
        arrays_[1][s][idx] = Value::Create(rec->live->data());
        snapshot_[s][idx] = Value::Create(rec->live->data());
      }
    }
  }
}

IppCheckpointer::~IppCheckpointer() {
  for (auto* per_shard : {&arrays_[0], &arrays_[1], &snapshot_}) {
    for (auto& vec : *per_shard) {
      for (Value*& v : vec) {
        if (v != nullptr) {
          Value::Unref(v);
          v = nullptr;
        }
      }
    }
  }
}

void IppCheckpointer::ApplyWrite(Txn& txn, Record& rec, Value* new_val) {
  (void)txn;
  uint32_t cur = current_.load(std::memory_order_acquire);
  SpinLatchGuard guard(rec.latch);
  // Write 1: the application state.
  engine_.store->ReplaceLive(rec, new_val);
  // Write 2: a physical copy into the current ping-pong array (IPP's
  // duplicated-write overhead), plus the dirty bit.
  Value*& copy = arrays_[cur][rec.shard][rec.index];
  if (copy != nullptr) Value::Unref(copy);
  copy = (new_val != nullptr) ? Value::Create(new_val->data()) : nullptr;
  dirty_bits_[cur][rec.shard]->Set(rec.index);
}

Status IppCheckpointer::RunCheckpointCycle() {
  Stopwatch total;
  CALCDB_TRACE_SPAN(cycle_span, name(), "ckpt", 0);
  CheckpointCycleStats stats;
  uint64_t id = engine_.ckpt_storage->NextId();
  stats.checkpoint_id = id;

  uint32_t nshards = engine_.store->num_shards();
  std::vector<uint32_t> slots_at_poc(nshards, 0);
  uint64_t poc_lsn = 0;
  uint32_t merge_side = 0;

  // Physical point of consistency: drain, flip `current`.
  Status st;
  stats.quiesce_micros = QuiesceAndRun(
      engine_,
      [&]() -> Status {
        poc_lsn = engine_.log->AppendPhaseTransition(Phase::kResolve, id,
                                                     /*pc=*/nullptr);
        for (uint32_t s = 0; s < nshards; ++s) {
          slots_at_poc[s] = engine_.store->shard(s)->NumSlots();
        }
        merge_side = current_.load(std::memory_order_acquire);
        current_.store(1 - merge_side, std::memory_order_release);
        return Status::OK();
      },
      &st);
  CALCDB_RETURN_NOT_OK(st);

  // Asynchronous merge + write: fold the dirty values of the just-closed
  // period into the in-memory consistent snapshot, clearing each dirty
  // bit after its element is handled, then emit the checkpoint.
  Stopwatch capture_sw;
  CheckpointType type =
      options_.partial ? CheckpointType::kPartial : CheckpointType::kFull;
  std::string path = engine_.ckpt_storage->PathFor(id, type);
  CheckpointFileWriter writer;
  CALCDB_RETURN_NOT_OK(
      writer.Open(path, type, id, poc_lsn,
                  engine_.ckpt_storage->writer_options()));

  Status scan_st;
  for (uint32_t s = 0; s < nshards && scan_st.ok(); ++s) {
    KVStore* shard = engine_.store->shard(s);
    AtomicBitVector& dirty = *dirty_bits_[merge_side][s];
    std::vector<Value*>& merged_from = arrays_[merge_side][s];
    std::vector<Value*>& snap = snapshot_[s];
    size_t words = (static_cast<size_t>(slots_at_poc[s]) + 63) / 64;
    for (size_t w = 0; w < words && scan_st.ok(); ++w) {
      uint64_t word = dirty.Word(w);
      while (word != 0 && scan_st.ok()) {
        int bit = __builtin_ctzll(word);
        word &= word - 1;
        uint32_t idx = static_cast<uint32_t>(w * 64 + bit);
        if (idx >= slots_at_poc[s]) break;
        // Merge into the consistent snapshot. The merge side is only
        // written by transactions of the *next* period after another
        // flip, which cannot happen while this cycle is still running.
        // The snapshot keeps its own physical copy — Cao et al.'s
        // consistent checkpoint is a separate buffer, which is what makes
        // IPP's resident footprint "up to 4 copies of the database"
        // (Figure 6).
        if (snap[idx] != nullptr) Value::Unref(snap[idx]);
        snap[idx] = (merged_from[idx] != nullptr)
                        ? Value::Create(merged_from[idx]->data())
                        : nullptr;
        if (options_.partial) {
          Record* rec = shard->ByIndex(idx);
          if (snap[idx] != nullptr) {
            scan_st = writer.Append(rec->key, snap[idx]->data());
          } else if (rec->key != ~uint64_t{0}) {
            scan_st = writer.AppendTombstone(rec->key);
          }
        }
        dirty.Clear(idx);
      }
    }
  }
  CALCDB_RETURN_NOT_OK(scan_st);
  if (!options_.partial) {
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
