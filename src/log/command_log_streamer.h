#ifndef CALCDB_LOG_COMMAND_LOG_STREAMER_H_
#define CALCDB_LOG_COMMAND_LOG_STREAMER_H_

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "log/commit_log.h"
#include "util/latch.h"
#include "util/status.h"
#include "util/throttled_file.h"

namespace calcdb {

/// Continuously persists the command log to stable storage.
///
/// CALC's durability story (paper §1, §3) pairs checkpoints with
/// "command logging" — logging transactional *input* in commit order. The
/// streamer tails the in-memory CommitLog from a background thread,
/// appending newly committed entries to a file in batches and fsyncing
/// after every batch (group durability). After a crash, the frame decoder
/// (log/log_reader.h: recovery's generation scan, CommitLog::LoadFrom)
/// yields every entry whose append hit the device; a torn final entry is
/// discarded.
///
/// Log generations. Each process lifetime streams into its own
/// generation-numbered file, `<path>.NNNNNN`: Start scans for existing
/// generations and opens max+1 — with O_EXCL semantics, so an existing
/// file can never be truncated even if the scan were wrong. That closes
/// the restart-clobber hazard — a restart-after-recovery would otherwise
/// destroy the only log covering the pre-crash tail before any new
/// checkpoint exists. A log directory that exists but cannot be listed
/// fails Start/ListLogFiles outright (only ENOENT means "no
/// generations"), and numeric suffixes are bounded (< 10^12) so every
/// accepted generation round-trips through GenerationPath. Recovery
/// replays the generations in order
/// (RecoveryManager::ReplayLogGenerations; retirement rules in
/// docs/DURABILITY.md). A streamer is single-use: one Start/Stop per
/// instance, one generation per process lifetime.
///
/// Checkpoint cycles use `persisted_lsn()` as a durability barrier: a
/// checkpoint may be registered in the manifest only after its RESOLVE
/// token's flush batch is fsynced (Checkpointer::WaitLogDurable).
///
/// Each flush pins the batch's entries with one latch acquisition
/// (CommitLog::SnapshotRange) and encodes the frames outside the latch.
/// After each fsync the streamer thread truncates the in-memory log
/// (CommitLog::TruncateDurable): entries below both the persisted LSN and
/// the newest registered checkpoint's point of consistency are dropped,
/// so appending workers never free log memory themselves.
///
/// Note on durability semantics: like VoltDB's asynchronous command
/// logging, a window of the most recent commits (up to one flush
/// interval) can be lost in a crash. Synchronous command logging would
/// reintroduce the per-transaction log-flush latency CALC exists to avoid;
/// the intended deployments bound the loss with K-safety replication or
/// accept it (paper §1's three application classes).
class CommandLogStreamer {
 public:
  explicit CommandLogStreamer(CommitLog* log) : log_(log) {}
  ~CommandLogStreamer() {
    // calcdb-status-ignored: destructor has no error channel; Stop()
    // already folds final-drain failures into background_status, and
    // durability-sensitive callers invoke Stop() directly and check.
    (void)Stop();
  }

  CommandLogStreamer(const CommandLogStreamer&) = delete;
  CommandLogStreamer& operator=(const CommandLogStreamer&) = delete;

  /// Picks the next unused generation of `path`, opens it, and starts the
  /// streaming thread. Never touches earlier generations.
  [[nodiscard]] Status Start(const std::string& path,
                             int flush_interval_ms = 10);

  /// Drains every entry currently in the log, fsyncs, and stops. Returns
  /// the first background flush error if the streaming thread died.
  [[nodiscard]] Status Stop();

  /// LSNs [0, persisted_lsn) are durable in this streamer's generation.
  uint64_t persisted_lsn() const {
    return persisted_lsn_.load(std::memory_order_acquire);
  }

  bool running() const { return running_.load(std::memory_order_acquire); }

  /// The generation file this streamer writes (empty before Start).
  std::string active_path() const;

  /// First error the background flush thread hit (OK while healthy).
  [[nodiscard]] Status background_status() const;

  /// `base` + ".NNNNNN" for generation `gen`.
  static std::string GenerationPath(const std::string& base, uint64_t gen);

  /// All existing generations of `base`, in replay order: a bare legacy
  /// `base` file first (generation 0, from before rotation existed), then
  /// `base.NNNNNN` ascending. Missing directory yields an empty list.
  [[nodiscard]] static Status ListLogFiles(const std::string& base,
                                           std::vector<std::string>* out);

 private:
  [[nodiscard]] Status FlushUpTo(uint64_t target_lsn);
  void SetBackgroundStatus(const Status& st);

  CommitLog* log_;
  ThrottledFileWriter writer_;
  std::string batch_;  ///< reused encode buffer (flushing thread only)
  std::atomic<bool> running_{false};
  std::atomic<uint64_t> persisted_lsn_{0};
  std::thread thread_;
  std::string active_path_;

  mutable SpinLatch status_latch_;
  Status background_status_ CALCDB_GUARDED_BY(status_latch_);
};

}  // namespace calcdb

#endif  // CALCDB_LOG_COMMAND_LOG_STREAMER_H_
