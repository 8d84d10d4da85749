#include "txn/executor.h"

#include <atomic>
#include <string>
#include <unordered_map>

#include "obs/obs.h"
#include "storage/value.h"
#include "txn/txn_context.h"
#include "util/clock.h"

namespace calcdb {

#if CALCDB_OBS_ENABLED
namespace {

// Binds (once per procedure) and bumps the per-procedure outcome
// counter. The cached pointer lives in the procedure itself so the hot
// path is one acquire load + one relaxed add. Publication must be
// release/acquire: a thread that reads the pointer without having
// taken the registry latch needs the counter's construction to be
// visible before it touches the shards.
void BumpProcCounter(const StoredProcedure* proc, bool committed) {
  auto& slot = committed ? proc->obs_commits : proc->obs_aborts;
  obs::ShardedCounter* c = slot.load(std::memory_order_acquire);
  if (c == nullptr) {
    std::string name = committed ? "calcdb.txn.committed.by_proc."
                                 : "calcdb.txn.aborted.by_proc.";
    name += proc->name();
    c = obs::MetricsRegistry::Global().GetCounter(name);
    slot.store(c, std::memory_order_release);
  }
  c->Add(1);
}

}  // namespace
#endif  // CALCDB_OBS_ENABLED

Status Executor::Execute(uint32_t proc_id, std::string args,
                         int64_t arrival_us, Txn* txn_out) {
  const StoredProcedure* proc = registry_->Find(proc_id);
  if (proc == nullptr) {
    return Status::InvalidArgument("unknown procedure id");
  }

  // 1. Admission: quiesce-based checkpointers may block us here.
  checkpointer_->AdmitTransaction();

  Txn txn;
  txn.txn_id = next_txn_id_.fetch_add(1, std::memory_order_relaxed);
  txn.proc_id = proc_id;
  txn.arrival_us = arrival_us;

  // 2. Register: "each transaction makes note of the phase during which it
  // begins executing".
  txn.start_phase = engine_.phases->BeginTxn();

  // 3. Locks, acquired in canonical order.
  KeySets sets;
  proc->GetKeys(args, &sets);
  LockManager::LockSet locks = lock_manager_->Resolve(sets);
  CALCDB_OBS_ONLY(int64_t lock_wait_start_us = NowMicros();)
  lock_manager_->AcquireAll(locks);
  CALCDB_HISTOGRAM_RECORD("calcdb.txn.lock_wait_us",
                          NowMicros() - lock_wait_start_us);
  PrefetchFootprint(*engine_.store, sets);

  // 4. Run procedure logic against the buffering context.
  TxnContext ctx(engine_.store, checkpointer_, &txn, &sets);
  Status st = proc->Run(ctx, args);

  if (st.ok()) {
    // 5. Apply buffered writes through the checkpointer's write hook.
    // Only the last write per key is applied: intermediate values are
    // invisible under serializability, and the checkpointer hooks rely on
    // at most one ApplyWrite per (transaction, record) pair.
    const std::vector<BufferedWrite>& writes = ctx.writes();
    txn.written_records.reserve(writes.size());
    // For large write sets (batch loaders), use a map to find the last
    // write per key; quadratic scan is faster for the common tiny sets.
    std::unordered_map<uint64_t, size_t> last_write;
    const bool use_map = writes.size() > 64;
    if (use_map) {
      last_write.reserve(writes.size());
      for (size_t i = 0; i < writes.size(); ++i) {
        last_write[writes[i].key] = i;
      }
    }
    // Pass 1: resolve/reserve every slot. A capacity failure must abort
    // the transaction BEFORE any write is applied — partial application
    // would break atomicity (and hence checkpoint consistency and
    // replay). Pre-created slots for an aborted transaction remain as
    // harmless absent records.
    std::vector<std::pair<size_t, Record*>> to_apply;
    to_apply.reserve(writes.size());
    for (size_t i = 0; i < writes.size() && st.ok(); ++i) {
      bool superseded = false;
      if (use_map) {
        superseded = last_write[writes[i].key] != i;
      } else {
        for (size_t j = i + 1; j < writes.size(); ++j) {
          if (writes[j].key == writes[i].key) {
            superseded = true;
            break;
          }
        }
      }
      if (superseded) continue;
      Record* rec = engine_.store->FindOrCreate(writes[i].key);
      if (rec == nullptr) {
        st = Status::Busy("store at capacity");
        break;
      }
      to_apply.emplace_back(i, rec);
    }
    // Pass 2: apply — infallible.
    if (st.ok()) {
      for (const auto& [i, rec] : to_apply) {
        const BufferedWrite& bw = writes[i];
        Value* v = bw.is_delete
                       ? nullptr
                       : Value::Create(bw.value, engine_.store->pool());
        checkpointer_->ApplyWrite(txn, *rec, v);
        txn.written_records.push_back(rec);
      }
    }
  }

  if (st.ok()) {
    // 6. Commit token: atomically records the phase and VPoC count at the
    // instant of commit. "Each transaction commits by atomically appending
    // a commit token to this log before releasing any of its locks."
    txn.commit_lsn = engine_.log->AppendCommit(
        txn.txn_id, proc_id, args, engine_.phases,
        &txn.commit_phase, &txn.vpoc_count);
    txn.committed = true;
    txn.commit_us = NowMicros();

    // 7. Post-commit fixup (e.g. CALC's prepare-phase stable cleanup),
    // still before lock release.
    checkpointer_->OnCommit(txn);
    committed_.fetch_add(1, std::memory_order_relaxed);
    CALCDB_COUNTER_ADD("calcdb.txn.committed", 1);
    CALCDB_OBS_ONLY(BumpProcCounter(proc, true);)
  } else {
    aborted_.fetch_add(1, std::memory_order_relaxed);
    CALCDB_COUNTER_ADD("calcdb.txn.aborted", 1);
    CALCDB_OBS_ONLY(BumpProcCounter(proc, false);)
  }

  // 8. Release locks, then deregister.
  lock_manager_->ReleaseAll(locks);
  engine_.phases->EndTxn(txn.start_phase);

  if (txn_out != nullptr) *txn_out = std::move(txn);
  return st;
}

void Executor::PrefetchFootprint(const ShardedStore& store,
                                 const KeySets& sets) {
  uint64_t keys[ShardedStore::kMaxPrefetchKeys];
  size_t n = 0;
  for (const std::vector<uint64_t>* list :
       {&sets.write_keys, &sets.read_keys}) {
    for (size_t i = 0;
         i < list->size() && n < ShardedStore::kMaxPrefetchKeys; ++i) {
      keys[n++] = (*list)[i];
    }
  }
  store.Prefetch(keys, n);
}

Status Executor::ExtractFootprint(const ProcedureRegistry& registry,
                                  uint32_t proc_id, std::string_view args,
                                  KeySets* sets) {
  const StoredProcedure* proc = registry.Find(proc_id);
  if (proc == nullptr) {
    return Status::InvalidArgument("unknown procedure id in replay");
  }
  sets->read_keys.clear();
  sets->write_keys.clear();
  sets->allow_undeclared_writes = false;
  proc->GetKeys(args, sets);
  return Status::OK();
}

Status Executor::Replay(uint32_t proc_id, std::string_view args,
                        const KeySets& sets) {
  const StoredProcedure* proc = registry_->Find(proc_id);
  if (proc == nullptr) {
    return Status::InvalidArgument("unknown procedure id in replay");
  }
  Txn txn;
  txn.proc_id = proc_id;
  PrefetchFootprint(*engine_.store, sets);
  // No locks: replay is serial (or ticket-ordered). No checkpointer
  // hooks: writes land directly in the store.
  NoCheckpointer direct(engine_);
  TxnContext ctx(engine_.store, &direct, &txn, &sets);
  CALCDB_RETURN_NOT_OK(proc->Run(ctx, args));
  // Reserve-then-apply, mirroring Execute: replay must be atomic too.
  std::vector<Record*> records;
  records.reserve(ctx.writes().size());
  for (const BufferedWrite& bw : ctx.writes()) {
    Record* rec = engine_.store->FindOrCreate(bw.key);
    if (rec == nullptr) return Status::Busy("store at capacity");
    records.push_back(rec);
  }
  for (size_t i = 0; i < ctx.writes().size(); ++i) {
    const BufferedWrite& bw = ctx.writes()[i];
    Value* v = bw.is_delete
                   ? nullptr
                   : Value::Create(bw.value, engine_.store->pool());
    direct.ApplyWrite(txn, *records[i], v);
  }
  return Status::OK();
}

}  // namespace calcdb
