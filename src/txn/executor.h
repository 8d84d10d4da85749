#ifndef CALCDB_TXN_EXECUTOR_H_
#define CALCDB_TXN_EXECUTOR_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "checkpoint/checkpointer.h"
#include "storage/sharded_store.h"
#include "txn/lock_manager.h"
#include "txn/procedure.h"
#include "txn/txn.h"
#include "util/status.h"

namespace calcdb {

/// The transaction execution engine — Figure 1's Execute() function.
///
/// Execute runs one transaction synchronously on the calling thread:
///
///   1. admission (blocks if the checkpointer has closed the gate),
///   2. register with the PhaseController (txn.start_phase := current),
///   3. acquire all stripe locks in canonical order (deadlock-free 2PL),
///      then prefetch the declared footprint (PrefetchFootprint),
///   4. run the stored procedure against a buffering TxnContext,
///   5. apply the buffered writes through the checkpointer's write hook,
///   6. atomically append the commit token (capturing commit phase),
///   7. run the checkpointer's post-commit fixup,
///   8. release all locks, deregister from the PhaseController.
///
/// Worker pools live in the drivers (driver.h); they all funnel into this
/// class.
class Executor {
 public:
  Executor(EngineContext engine, const ProcedureRegistry* registry,
           Checkpointer* checkpointer, LockManager* lock_manager)
      : engine_(engine),
        registry_(registry),
        checkpointer_(checkpointer),
        lock_manager_(lock_manager) {}

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// Executes one transaction to completion. `arrival_us` stamps the
  /// latency clock (pass NowMicros() for closed-loop). On success the
  /// transaction is committed and durable in the commit log. If `txn_out`
  /// is non-null it receives the final descriptor.
  Status Execute(uint32_t proc_id, std::string args, int64_t arrival_us,
                 Txn* txn_out = nullptr);

  /// Replays an already-committed command without checkpointer hooks or
  /// commit logging — the recovery path (paper §3.1). `sets` is the
  /// command's footprint as ExtractFootprint computed it (the caller has
  /// it already: the scheduler orders commands by it). Must not run
  /// concurrently with normal execution. Concurrent Replay calls are
  /// permitted ONLY when the caller guarantees that their key footprints
  /// are disjoint (the ReplayScheduler's ticket rule); this path takes
  /// no locks of its own.
  Status Replay(uint32_t proc_id, std::string_view args,
                const KeySets& sets);

  /// Computes a command's declared key footprint without acquiring any
  /// locks or touching the store: a registry lookup plus GetKeys, which
  /// is a pure function of `args`. `*sets` is cleared first. Returns
  /// InvalidArgument for an unknown procedure id (same condition Replay
  /// would hit). Safe to call from any thread — this is the dispatcher
  /// side of parallel command replay.
  [[nodiscard]] static Status ExtractFootprint(
      const ProcedureRegistry& registry, uint32_t proc_id,
      std::string_view args, KeySets* sets);

  /// ShardedStore::Prefetch over a footprint's declared keys, write keys
  /// first. The caller must own every key against live writers (see
  /// ShardedStore::Prefetch): Execute calls it holding the stripe locks,
  /// Replay holding the footprint ticket, and serial replay for the next
  /// command before running the current one on the same thread.
  static void PrefetchFootprint(const ShardedStore& store,
                                const KeySets& sets);

  uint64_t committed() const {
    return committed_.load(std::memory_order_relaxed);
  }
  uint64_t aborted() const {
    return aborted_.load(std::memory_order_relaxed);
  }

  Checkpointer* checkpointer() const { return checkpointer_; }
  const EngineContext& engine() const { return engine_; }

 private:
  EngineContext engine_;
  const ProcedureRegistry* registry_;
  Checkpointer* checkpointer_;
  LockManager* lock_manager_;

  std::atomic<uint64_t> next_txn_id_{1};
  std::atomic<uint64_t> committed_{0};
  std::atomic<uint64_t> aborted_{0};
};

}  // namespace calcdb

#endif  // CALCDB_TXN_EXECUTOR_H_
