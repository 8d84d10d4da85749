#ifndef CALCDB_CHECKPOINT_CHECKPOINTER_H_
#define CALCDB_CHECKPOINT_CHECKPOINTER_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "checkpoint/admission_gate.h"
#include "checkpoint/ckpt_storage.h"
#include "checkpoint/phase.h"
#include "log/commit_log.h"
#include "storage/sharded_store.h"
#include "txn/txn.h"
#include "util/status.h"

namespace calcdb {

class CommandLogStreamer;

/// Everything a checkpointing algorithm needs from the engine.
struct EngineContext {
  ShardedStore* store = nullptr;
  CommitLog* log = nullptr;
  PhaseController* phases = nullptr;
  AdmissionGate* gate = nullptr;
  CheckpointStorage* ckpt_storage = nullptr;
  /// The command-log streamer, when one is attached (null otherwise).
  /// Checkpoint cycles gate manifest registration on its durability
  /// horizon (WaitLogDurable).
  const CommandLogStreamer* streamer = nullptr;
  /// Worker-pool size of the capture job (Options::capture_threads,
  /// resolved). Never changes the file layout.
  int capture_threads = 1;
};

/// Statistics for one completed checkpoint cycle.
struct CheckpointCycleStats {
  uint64_t checkpoint_id = 0;
  uint64_t records_written = 0;
  uint64_t bytes_written = 0;
  uint64_t segments = 0;        ///< files written (1 = single-file)
  int64_t quiesce_micros = 0;   ///< time the admission gate was closed
  int64_t capture_micros = 0;   ///< asynchronous capture duration
  int64_t total_micros = 0;
};

/// Interface every checkpointing algorithm implements.
///
/// The executor calls the transaction-side hooks; a coordinator thread (or
/// the benchmark harness) calls RunCheckpointCycle to take one checkpoint.
/// Implementations: CalcCheckpointer (the paper's contribution, full and
/// partial), NaiveSnapshotCheckpointer, FuzzyCheckpointer, IppCheckpointer,
/// ZigzagCheckpointer, MvccCheckpointer, ForkSnapshotCheckpointer, and
/// NoCheckpointer (the "None" baseline).
class Checkpointer {
 public:
  /// `partial`: the algorithm writes partial checkpoints.
  explicit Checkpointer(EngineContext engine, bool partial = false)
      : engine_(engine), partial_(partial) {}
  virtual ~Checkpointer() = default;

  Checkpointer(const Checkpointer&) = delete;
  Checkpointer& operator=(const Checkpointer&) = delete;

  virtual const char* name() const = 0;

  /// True if this algorithm only ever writes records changed since the
  /// previous checkpoint (the "p" variants).
  bool is_partial() const { return partial_; }

  /// True if recovery can load this algorithm's checkpoints into a
  /// transaction-consistent state without a full ARIES-style log. False
  /// only for fuzzy checkpoints (paper §2.1).
  virtual bool transaction_consistent() const { return true; }

  // ------------------------------------------------------------------
  // Transaction-side hooks. All are invoked by the executor with the
  // transaction's stripe locks held (strict 2PL), except AdmitTransaction
  // which runs before the transaction registers.
  // ------------------------------------------------------------------

  /// Blocks while the algorithm has admission closed (quiesce). CALC's
  /// implementation is a no-op beyond the gate's single atomic load.
  virtual void AdmitTransaction() { engine_.gate->WaitAdmitted(); }

  /// Returns the version of `rec` this transaction should read, or null if
  /// the record is absent. Default: the live version.
  virtual Value* ReadRecord(Txn& txn, Record& rec);

  /// Applies a committed-buffer write. `new_val` is an owned reference the
  /// hook consumes (or null for a delete).
  virtual void ApplyWrite(Txn& txn, Record& rec, Value* new_val) = 0;

  /// Post-commit fixup: runs after the commit token has been appended to
  /// the commit log and before the transaction's locks are released.
  virtual void OnCommit(Txn& txn) { (void)txn; }

  // ------------------------------------------------------------------
  // Checkpoint lifecycle.
  // ------------------------------------------------------------------

  /// Takes one checkpoint synchronously on the calling thread; returns
  /// once the checkpoint is durable and the system is back at rest. The
  /// one cycle every algorithm shares: allocate the id, run the
  /// algorithm's Capture, PublishCheckpoint, record the cycle stats. A
  /// failed capture registers nothing.
  [[nodiscard]] Status RunCheckpointCycle();

  /// Stats of the most recent completed cycle.
  CheckpointCycleStats last_cycle() const {
    SpinLatchGuard guard(stats_latch_);
    return last_cycle_;
  }

 protected:
  /// The algorithm's part of one cycle: reach its point of consistency,
  /// set `info->vpoc_lsn`, and write the checkpoint files (through
  /// RunCapture in capture.h, except Fork's child). `info` arrives with
  /// id and type set; `stats` with checkpoint_id. Fills the rest of
  /// `info` and the records / bytes / quiesce / capture fields of
  /// `stats`.
  [[nodiscard]] virtual Status Capture(CheckpointInfo* info,
                                       CheckpointCycleStats* stats) = 0;

  EngineContext engine_;

 private:
  /// The one publish step every algorithm ends its cycle with:
  /// WaitLogDurable(info.vpoc_lsn), Register, PersistManifest, then —
  /// only while a command-log streamer runs — advance the commit log's
  /// retention horizon to `info.vpoc_lsn`, letting the streamer drop the
  /// entries this checkpoint covers (docs/DURABILITY.md, "Commit-log
  /// retention"). The `ckpt.register` crash point sits between the
  /// barrier and Register.
  [[nodiscard]] Status PublishCheckpoint(const CheckpointInfo& info);

  /// Publishes cycle stats and mirrors them into the metrics registry
  /// (per-algorithm counters + duration histograms). Cold path: runs
  /// once per checkpoint cycle.
  void SetLastCycle(const CheckpointCycleStats& stats);

  /// Durability barrier for the checkpoint's point-of-consistency token.
  /// Blocks until the attached command-log streamer (if any) has fsynced
  /// the log through `vpoc_lsn` inclusive; a no-op when no streamer is
  /// attached. PublishCheckpoint passes this barrier before Register +
  /// PersistManifest: a checkpoint registered while its RESOLVE token is
  /// still unflushed breaks recovery's anchor rule — a later lifetime's
  /// fsynced commits would be skipped as "nothing after the token
  /// persisted" (docs/DURABILITY.md). Returns the streamer's error if it
  /// can no longer make progress, failing the cycle before anything is
  /// registered.
  [[nodiscard]] Status WaitLogDurable(uint64_t vpoc_lsn);

  const bool partial_;
  mutable SpinLatch stats_latch_;
  CheckpointCycleStats last_cycle_;
};

/// The "None" baseline: no snapshotting work at all.
class NoCheckpointer : public Checkpointer {
 public:
  explicit NoCheckpointer(EngineContext engine) : Checkpointer(engine) {}

  const char* name() const override { return "None"; }

  void ApplyWrite(Txn& txn, Record& rec, Value* new_val) override;

 protected:
  [[nodiscard]] Status Capture(CheckpointInfo*,
                               CheckpointCycleStats*) override {
    return Status::NotSupported("NoCheckpointer takes no checkpoints");
  }
};

}  // namespace calcdb

#endif  // CALCDB_CHECKPOINT_CHECKPOINTER_H_
