#include "checkpoint/ipp.h"

#include <utility>

#include "checkpoint/capture.h"
#include "checkpoint/quiesce.h"

namespace calcdb {

IppCheckpointer::IppCheckpointer(EngineContext engine, bool partial)
    : Checkpointer(engine, partial),
      dirty_(*engine.store) {
  uint32_t nshards = engine_.store->num_shards();
  arrays_[0].resize(nshards);
  arrays_[1].resize(nshards);
  snapshot_.resize(nshards);
  for (uint32_t s = 0; s < nshards; ++s) {
    KVStore* shard = engine_.store->shard(s);
    size_t cap = shard->max_records();
    arrays_[0][s].assign(cap, nullptr);
    arrays_[1][s].assign(cap, nullptr);
    snapshot_[s].assign(cap, nullptr);
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
  uint32_t cur = dirty_.active();
  SpinLatchGuard guard(rec.latch);
  // Write 1: the application state.
  engine_.store->ReplaceLive(rec, new_val);
  // Write 2: a physical copy into the current ping-pong array (IPP's
  // duplicated-write overhead), plus the dirty bit.
  Value*& copy = arrays_[cur][rec.shard][rec.index];
  if (copy != nullptr) Value::Unref(copy);
  copy = (new_val != nullptr) ? Value::Create(new_val->data()) : nullptr;
  dirty_.Mark(cur, rec);
}

Status IppCheckpointer::Capture(CheckpointInfo* info,
                                CheckpointCycleStats* stats) {
  // Physical point of consistency: drain, flip `current`.
  CaptureSource source;
  Status st;
  stats->quiesce_micros = QuiesceAndRun(
      engine_,
      [&]() -> Status {
        info->vpoc_lsn = engine_.log->AppendPhaseTransition(
            Phase::kResolve, info->id, /*pc=*/nullptr);
        source = CaptureSource::AllSlots(*engine_.store);
        source.side = dirty_.Flip();
        return Status::OK();
      },
      &st);
  CALCDB_RETURN_NOT_OK(st);

  // Asynchronous merge + write: fold each dirty value of the just-closed
  // period into the in-memory consistent snapshot as the scan reaches
  // it, then emit the snapshot's version. The merge side is only written
  // by transactions of the *next* period after another flip, which
  // cannot happen while this cycle is still running. The snapshot keeps
  // its own physical copy — Cao et al.'s consistent checkpoint is a
  // separate buffer, which is what makes IPP's resident footprint "up to
  // 4 copies of the database" (Figure 6).
  if (is_partial()) source.dirty = &dirty_;
  const uint32_t side = source.side;
  Status capture = RunCapture(
      engine_, source,
      [&](Record& rec) {
        Value*& snap = snapshot_[rec.shard][rec.index];
        if (source.dirty != nullptr || dirty_.Test(side, rec)) {
          Value* merged_from = arrays_[side][rec.shard][rec.index];
          if (snap != nullptr) Value::Unref(snap);
          snap = merged_from != nullptr ? Value::Create(merged_from->data())
                                        : nullptr;
        }
        return CapturedVersion{
            rec.key, snap != nullptr ? Value::Ref(snap) : nullptr};
      },
      info, stats);
  if (capture.ok()) {
    dirty_.Clear(side);
  } else {
    CarryFrozenSide(side, source.limits);
  }
  return capture;
}

void IppCheckpointer::CarryFrozenSide(uint32_t side,
                                      const std::vector<uint32_t>& limits) {
  // The failed scan may have merged only part of the period into the
  // snapshot, and pIPP's chain holds none of it: hand each frozen index,
  // with its ping-pong value, to the active side unless a newer write
  // already sits there. The next cycle merges (and writes) it. The
  // frozen side's value for a clean index is never read, so a swap
  // suffices.
  const uint32_t next = 1 - side;
  for (uint32_t s = 0; s < engine_.store->num_shards(); ++s) {
    KVStore* shard = engine_.store->shard(s);
    dirty_.Side(side, s).ForEach(limits[s], [&](uint32_t idx) {
      Record& rec = *shard->ByIndex(idx);
      SpinLatchGuard guard(rec.latch);
      if (dirty_.Test(next, rec)) return;
      std::swap(arrays_[next][s][idx], arrays_[side][s][idx]);
      dirty_.Mark(next, rec);
    });
  }
  dirty_.Clear(side);
}

}  // namespace calcdb
