#ifndef CALCDB_RECOVERY_REPLAY_SCHEDULER_H_
#define CALCDB_RECOVERY_REPLAY_SCHEDULER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "checkpoint/admission_gate.h"
#include "checkpoint/checkpointer.h"
#include "checkpoint/phase.h"
#include "log/commit_log.h"
#include "storage/sharded_store.h"
#include "txn/executor.h"
#include "txn/lock_manager.h"
#include "txn/procedure.h"
#include "util/status.h"

namespace calcdb {

struct RecoveryStats;

/// Parallel deterministic command replay (cf. Wu et al., "Fast Failure
/// Recovery for Main-Memory DBMSs on Multicores"): command logging only
/// records transaction *inputs*, but our stored-procedure model declares
/// each command's read/write key sets up front (the same property that
/// makes deadlock-free 2PL possible), so replay can dispatch
/// non-conflicting commands to a worker pool and still reproduce the
/// serial replay state exactly.
///
/// Dependency rule — per-key "last writer" tickets:
///
///   - A dispatcher walks the replay set in LSN order, assigning each
///     command a dense sequence number (its ticket).
///   - Every canonical key hashes into one of kTicketSlots slots. The
///     dispatcher remembers, per slot, the ticket of the last command
///     whose footprint touched it; each dispatched command carries
///     (slot, last_ticket) pairs for its whole footprint and the slot
///     table is advanced to the command's own ticket.
///   - A worker runs a command only once, for every carried pair, the
///     slot's *completed* ticket has reached the recorded value. Two
///     commands with intersecting footprints therefore execute in LSN
///     order; disjoint commands run concurrently. Hash collisions only
///     add false conflicts — never missed ones.
///
/// Liveness: the task queue is FIFO, so when a worker pops a command,
/// every command it can possibly wait on has already been popped (it is
/// retired or held by another worker). The earliest unretired command
/// always has its tickets satisfied, so the pool cannot deadlock.
///
/// Commands whose footprint is not fully declared
/// (KeySets::allow_undeclared_writes, e.g. TPC-C NewOrder) cannot be
/// ticketed: the dispatcher drains the pool, replays them inline on the
/// dispatcher thread (a serial fallback, surfaced via the
/// `recovery.replay_fallback` WARN event), then resumes parallel
/// dispatch.
///
/// With `threads <= 1` no pool is created and Replay() is the legacy
/// strictly-serial loop, byte-for-byte (pinned by
/// ReplayScheduler.ThreadsOneMatchesSerial).
class ReplayScheduler {
 public:
  /// `registry` and `store` must outlive the scheduler. `threads > 1`
  /// spawns the worker pool immediately; it is joined by the destructor.
  ReplayScheduler(const ProcedureRegistry& registry, ShardedStore* store,
                  int threads);
  ~ReplayScheduler();

  ReplayScheduler(const ReplayScheduler&) = delete;
  ReplayScheduler& operator=(const ReplayScheduler&) = delete;

  /// Replays `commits` in dependency order and blocks until every
  /// command has retired. May be called repeatedly (once per log
  /// generation); tickets persist across calls, so cross-call ordering
  /// is a strict barrier (Drain before return). On the first command
  /// failure the remaining work is abandoned and the first error is
  /// returned; the store may then hold a replayed prefix, exactly like
  /// serial replay.
  ///
  /// Updates stats: txns_replayed (+= this call), replay_conflicts /
  /// replay_serial_fallbacks / replayed_per_worker (cumulative for this
  /// scheduler), replay_threads_used.
  [[nodiscard]] Status Replay(const std::vector<LogEntry>& commits,
                              RecoveryStats* stats);

  int threads() const { return threads_; }

 private:
  /// Ticket-table width. Collisions are correctness-neutral (they only
  /// serialize more), so a fixed power of two keeps the table compact:
  /// 64 Ki slots ≈ one 512 KiB array.
  static constexpr uint32_t kTicketSlots = 1u << 16;
  /// Dispatcher backpressure bound on queued-but-unpopped commands.
  static constexpr size_t kMaxQueued = 4096;

  struct TicketDep {
    uint32_t slot = 0;
    uint64_t wait = 0;  ///< run once done_[slot] >= wait
  };
  struct Task {
    uint64_t seq = 0;  ///< this command's ticket (1-based, dense)
    const LogEntry* entry = nullptr;
    /// One entry per distinct footprint slot: the wait precondition,
    /// and the slots to publish `seq` to after retiring.
    std::vector<TicketDep> deps;
    /// The command's footprint, computed once by the dispatcher.
    KeySets sets;
  };

  Status SerialReplay(const std::vector<LogEntry>& commits,
                      RecoveryStats* stats);
  void WorkerLoop(int worker_index);
  bool RunCommand(const Task& task);
  void Dispatch(Task task);
  void Drain();
  void Fail(const Status& st);
  void CountReplayed(const LogEntry& entry);

  static uint32_t SlotOf(uint64_t key) {
    // Fibonacci multiplicative hash: adjacent keys (the common layout)
    // spread across the whole table.
    return static_cast<uint32_t>((key * 0x9E3779B97F4A7C15ull) >> 48);
  }

  // Minimal engine plumbing for command replay: a scratch log (the
  // replayed transactions' own commits are discarded), no checkpointer,
  // a single-stripe lock manager (replay takes no locks).
  CommitLog scratch_log_;
  PhaseController phases_;
  AdmissionGate gate_;
  EngineContext engine_;
  std::unique_ptr<NoCheckpointer> none_;
  LockManager locks_{1};
  std::unique_ptr<Executor> executor_;

  const ProcedureRegistry* registry_;
  const int threads_;

  // Ticket state. last_ is touched only by the dispatcher (the thread
  // inside Replay()); done_ is the workers' completion table.
  std::vector<uint64_t> last_;
  std::unique_ptr<std::atomic<uint64_t>[]> done_;
  uint64_t next_seq_ = 0;  ///< dispatcher only

  std::mutex mu_;
  std::condition_variable cv_pop_;      ///< workers: queue non-empty / stop
  std::condition_variable cv_space_;    ///< dispatcher: queue below bound
  std::condition_variable cv_drained_;  ///< dispatcher: all work retired
  std::deque<Task> queue_;      ///< guarded by mu_
  uint64_t inflight_ = 0;       ///< dispatched, unretired; guarded by mu_
  bool stop_ = false;           ///< guarded by mu_
  Status first_error_;          ///< guarded by mu_
  std::atomic<bool> failed_{false};

  // Cumulative over the scheduler's lifetime (all Replay calls).
  std::atomic<uint64_t> replayed_total_{0};
  std::atomic<uint64_t> conflicts_{0};  ///< dispatch-time footprint overlaps
  uint64_t serial_fallbacks_ = 0;  ///< dispatcher only
  std::unique_ptr<std::atomic<uint64_t>[]> worker_replayed_;

  std::vector<std::thread> workers_;
};

}  // namespace calcdb

#endif  // CALCDB_RECOVERY_REPLAY_SCHEDULER_H_
