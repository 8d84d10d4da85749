#include "recovery/replay_scheduler.h"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <thread>
#include <utility>

#include "obs/obs.h"
#include "recovery/recovery_manager.h"

namespace calcdb {

ReplayScheduler::ReplayScheduler(const ProcedureRegistry& registry,
                                 ShardedStore* store, int threads)
    : registry_(&registry), threads_(threads < 1 ? 1 : threads) {
  engine_.store = store;
  engine_.log = &scratch_log_;
  engine_.phases = &phases_;
  engine_.gate = &gate_;
  engine_.ckpt_storage = nullptr;
  none_ = std::make_unique<NoCheckpointer>(engine_);
  executor_ =
      std::make_unique<Executor>(engine_, registry_, none_.get(), &locks_);
  if (threads_ > 1) {
    last_.assign(kTicketSlots, 0);
    done_ = std::make_unique<std::atomic<uint64_t>[]>(kTicketSlots);
    for (uint32_t i = 0; i < kTicketSlots; ++i) {
      done_[i].store(0, std::memory_order_relaxed);
    }
    worker_replayed_ =
        std::make_unique<std::atomic<uint64_t>[]>(threads_);
    for (int i = 0; i < threads_; ++i) {
      worker_replayed_[i].store(0, std::memory_order_relaxed);
    }
    workers_.reserve(static_cast<size_t>(threads_));
    for (int i = 0; i < threads_; ++i) {
      workers_.emplace_back([this, i] { WorkerLoop(i); });
    }
  }
}

ReplayScheduler::~ReplayScheduler() {
  if (!workers_.empty()) {
    {
      std::lock_guard<std::mutex> guard(mu_);
      stop_ = true;
    }
    cv_pop_.notify_all();
    for (std::thread& t : workers_) t.join();
  }
}

void ReplayScheduler::CountReplayed(const LogEntry& entry) {
  CALCDB_COUNTER_ADD("calcdb.recovery.txns_replayed", 1);
  CALCDB_COUNTER_ADD("calcdb.recovery.log_read_bytes",
                     CommitLog::FramedCommitBytes(entry.args.size()));
  // Batch markers let a trace show replay progress over time.
  uint64_t n = replayed_total_.fetch_add(1, std::memory_order_relaxed) + 1;
  if ((n & 8191) == 0) {
    CALCDB_TRACE_INSTANT("replay_batch", "recovery", n);
  }
}

Status ReplayScheduler::SerialReplay(const std::vector<LogEntry>& commits,
                                     RecoveryStats* stats) {
  if (commits.empty()) return Status::OK();
  // Lookahead: command i+1's footprint is computed and prefetched before
  // command i runs, so its misses overlap command i's work. Each
  // footprint is computed once and handed to Replay.
  KeySets sets, next_sets;
  Status next = Executor::ExtractFootprint(*registry_, commits[0].proc_id,
                                           commits[0].args, &next_sets);
  for (size_t i = 0; i < commits.size(); ++i) {
    CALCDB_RETURN_NOT_OK(next);
    std::swap(sets, next_sets);
    if (i + 1 < commits.size()) {
      // An error here surfaces only after command i has run, so a failed
      // replay leaves exactly the prefix strict one-by-one replay would.
      next = Executor::ExtractFootprint(*registry_, commits[i + 1].proc_id,
                                        commits[i + 1].args, &next_sets);
      if (next.ok()) Executor::PrefetchFootprint(*engine_.store, next_sets);
    }
    const LogEntry& entry = commits[i];
    CALCDB_RETURN_NOT_OK(executor_->Replay(entry.proc_id, entry.args, sets));
    ++stats->txns_replayed;
    CountReplayed(entry);
  }
  return Status::OK();
}

void ReplayScheduler::Fail(const Status& st) {
  std::lock_guard<std::mutex> guard(mu_);
  if (first_error_.ok()) first_error_ = st;
  failed_.store(true, std::memory_order_release);
}

bool ReplayScheduler::RunCommand(const Task& task) {
  // Wait for every footprint ticket. The spin is bounded by the pool's
  // forward progress (see the liveness argument in the header) and by
  // failed_, which releases all waiters.
  for (const TicketDep& dep : task.deps) {
    while (done_[dep.slot].load(std::memory_order_acquire) < dep.wait) {
      if (failed_.load(std::memory_order_acquire)) break;
      std::this_thread::yield();
    }
    if (failed_.load(std::memory_order_acquire)) break;
  }
  bool executed = false;
  if (!failed_.load(std::memory_order_acquire)) {
    Status st = executor_->Replay(task.entry->proc_id, task.entry->args,
                                  task.sets);
    if (st.ok()) {
      CountReplayed(*task.entry);
      executed = true;
    } else {
      Fail(st);
    }
  }
  // Publish completion even when skipped on failure, so no surviving
  // waiter spins on a ticket that will never advance. Safe to publish
  // unconditionally: same-slot commands are serialized by the rule
  // itself, so each slot's ticket only ever moves forward.
  for (const TicketDep& dep : task.deps) {
    done_[dep.slot].store(task.seq, std::memory_order_release);
  }
  return executed;
}

void ReplayScheduler::WorkerLoop(int worker_index) {
  CALCDB_TRACE_SPAN(worker_span, "replay_worker", "recovery", worker_index);
  for (;;) {
    Task task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_pop_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ with no residual work
      task = std::move(queue_.front());
      queue_.pop_front();
      cv_space_.notify_one();
    }
    if (RunCommand(task)) {
      worker_replayed_[worker_index].fetch_add(1,
                                               std::memory_order_relaxed);
    }
    {
      std::lock_guard<std::mutex> guard(mu_);
      if (--inflight_ == 0 && queue_.empty()) cv_drained_.notify_all();
    }
  }
}

void ReplayScheduler::Dispatch(Task task) {
  std::unique_lock<std::mutex> lock(mu_);
  cv_space_.wait(lock, [this] { return queue_.size() < kMaxQueued; });
  queue_.push_back(std::move(task));
  ++inflight_;
  cv_pop_.notify_one();
}

void ReplayScheduler::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_drained_.wait(lock, [this] { return inflight_ == 0 && queue_.empty(); });
}

Status ReplayScheduler::Replay(const std::vector<LogEntry>& commits,
                               RecoveryStats* stats) {
  CALCDB_TRACE_SPAN(replay_span, "replay_log", "recovery", commits.size());
  stats->replay_threads_used = static_cast<uint64_t>(threads_);
  if (threads_ <= 1) {
    return SerialReplay(commits, stats);
  }

  uint64_t replayed_before = replayed_total_.load(std::memory_order_relaxed);
  Status dispatch_error;
  std::vector<uint32_t> slots;
  KeySets sets;
  for (const LogEntry& entry : commits) {
    if (failed_.load(std::memory_order_acquire)) break;
    Status fp = Executor::ExtractFootprint(*registry_, entry.proc_id,
                                           entry.args, &sets);
    if (!fp.ok()) {
      dispatch_error = fp;
      break;
    }
    if (sets.allow_undeclared_writes) {
      // The declared sets under-approximate this command's footprint
      // (e.g. TPC-C NewOrder's state-dependent insert keys), so the
      // ticket rule cannot order it. Degrade to a full barrier: drain
      // the pool, replay inline, resume parallel dispatch.
      Drain();
      if (failed_.load(std::memory_order_acquire)) break;
      ++serial_fallbacks_;
      CALCDB_WARN("recovery.replay_fallback", "recovery",
                  "undeclared footprint forces serial replay",
                  {"proc_id", static_cast<int64_t>(entry.proc_id)},
                  {"fallbacks", static_cast<int64_t>(serial_fallbacks_)});
      Status st = executor_->Replay(entry.proc_id, entry.args, sets);
      if (!st.ok()) {
        dispatch_error = st;
        break;
      }
      CountReplayed(entry);
      continue;
    }
    Task task;
    task.seq = ++next_seq_;
    task.entry = &entry;
    slots.clear();
    for (uint64_t key : sets.read_keys) slots.push_back(SlotOf(key));
    for (uint64_t key : sets.write_keys) slots.push_back(SlotOf(key));
    std::sort(slots.begin(), slots.end());
    slots.erase(std::unique(slots.begin(), slots.end()), slots.end());
    task.deps.reserve(slots.size());
    bool conflicting = false;
    for (uint32_t slot : slots) {
      task.deps.push_back(TicketDep{slot, last_[slot]});
      conflicting |= last_[slot] != 0;
      last_[slot] = task.seq;
    }
    // The worker replays with this footprint rather than recomputing it;
    // ExtractFootprint refills `sets` for the next command.
    task.sets = std::move(sets);
    if (conflicting) {
      // Deterministic (schedule-independent): this command's footprint
      // intersects an earlier command's, so tickets order it rather
      // than leaving it free to run.
      conflicts_.fetch_add(1, std::memory_order_relaxed);
      CALCDB_COUNTER_ADD("calcdb.recovery.replay_conflicts", 1);
    }
    Dispatch(std::move(task));
  }
  Drain();

  stats->txns_replayed +=
      replayed_total_.load(std::memory_order_relaxed) - replayed_before;
  stats->replay_conflicts = conflicts_.load(std::memory_order_relaxed);
  stats->replay_serial_fallbacks = serial_fallbacks_;
  stats->replayed_per_worker.assign(static_cast<size_t>(threads_), 0);
  for (int i = 0; i < threads_; ++i) {
    stats->replayed_per_worker[static_cast<size_t>(i)] =
        worker_replayed_[i].load(std::memory_order_relaxed);
  }

  if (!dispatch_error.ok()) return dispatch_error;
  std::lock_guard<std::mutex> guard(mu_);
  return first_error_;
}

}  // namespace calcdb
