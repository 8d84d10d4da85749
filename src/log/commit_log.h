#ifndef CALCDB_LOG_COMMIT_LOG_H_
#define CALCDB_LOG_COMMIT_LOG_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "checkpoint/phase.h"
#include "util/latch.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace calcdb {

/// One entry of the commit log.
///
/// Commit entries double as *command log* records (VoltDB-style command
/// logging, paper §1): they carry the transaction's input — stored
/// procedure id plus serialized arguments — in commit order, which is all a
/// deterministic replayer needs. Phase-transition entries are the tokens
/// CALC appends at each phase boundary; the PREPARE -> RESOLVE token *is*
/// the virtual point of consistency.
struct LogEntry {
  enum class Type : uint8_t {
    kCommit = 0,
    kPhaseTransition = 1,
  };

  Type type = Type::kCommit;
  uint64_t txn_id = 0;     ///< commit entries
  uint32_t proc_id = 0;    ///< commit entries: stored procedure id
  std::string args;        ///< commit entries: serialized procedure input
  Phase phase = Phase::kRest;   ///< phase entries: the phase entered
  uint64_t checkpoint_id = 0;   ///< phase entries: checkpoint cycle id
};

/// Side-index entry for one phase-transition token: where it sits in the
/// log. The live CommitLog keeps one per appended token; the
/// persisted-log scan (log/log_reader.h) builds the same index for a
/// generation file without retaining its entries.
struct PhaseTokenMark {
  uint64_t checkpoint_id = 0;
  Phase phase = Phase::kRest;
  uint64_t lsn = 0;
  uint64_t next_offset = 0;  ///< decoded from a file: byte offset of the
                             ///< frame after the token (0 for tokens
                             ///< appended in memory)
};

/// The first mark (in LSN order) entering `phase` for checkpoint
/// `checkpoint_id`, or nullptr. The one lookup rule shared by
/// CommitLog::FindPhaseToken and recovery's anchor search.
const PhaseTokenMark* FindPhaseMark(const std::vector<PhaseTokenMark>& marks,
                                    uint64_t checkpoint_id, Phase phase);

/// The "simple log containing the order in which transactions commit"
/// (paper §2.2) plus command-log payloads for deterministic replay.
///
/// Appends are serialized by a latch, which makes the append of a commit
/// token atomic with respect to phase-transition tokens: a transaction's
/// position relative to the virtual point of consistency is unambiguous.
/// Each transaction appends its commit token *before releasing any locks*
/// (enforced by the executor).
class CommitLog {
 public:
  CommitLog() = default;
  CommitLog(const CommitLog&) = delete;
  CommitLog& operator=(const CommitLog&) = delete;

  /// Appends a commit token; returns its LSN (0-based, dense).
  ///
  /// If `pc` is non-null, `*commit_phase` receives the system phase at the
  /// instant the token entered the log. Because phase-transition tokens
  /// update the controller under the same latch (see
  /// AppendPhaseTransition), "the phase during which the transaction
  /// committed" is exact, never racy — the property CALC's post-commit
  /// fixup (paper §2.2.2-2.2.3) depends on.
  /// If `vpoc_count` is non-null it receives the number of RESOLVE tokens
  /// (virtual points of consistency) preceding this commit — pCALC uses
  /// its parity to route the transaction's dirty keys to the correct
  /// partial-checkpoint bit vector (paper §2.3).
  uint64_t AppendCommit(uint64_t txn_id, uint32_t proc_id, std::string args,
                        const PhaseController* pc = nullptr,
                        Phase* commit_phase = nullptr,
                        uint64_t* vpoc_count = nullptr);

  /// Appends a phase-transition token; returns its LSN. If `pc` is
  /// non-null, the controller's phase is switched to `phase` atomically
  /// with the token append. If `under_latch` is non-null it runs inside
  /// the log latch *before* the phase switch — CALC uses it to publish
  /// the capture watermark and dirty-set parity so that no transaction
  /// can observe the new phase with stale cycle state.
  uint64_t AppendPhaseTransition(
      Phase phase, uint64_t checkpoint_id, PhaseController* pc = nullptr,
      const std::function<void()>& under_latch = nullptr);

  /// Number of virtual points of consistency (RESOLVE tokens) so far.
  uint64_t VpocCount() const;

  /// As VpocCount, but without taking the latch — only callable from an
  /// `under_latch` callback passed to AppendPhaseTransition. The callback
  /// runs with `latch_` held, but the holder is invisible to clang's
  /// static analysis, hence the annotation opt-out.
  uint64_t VpocCountLocked() const CALCDB_NO_THREAD_SAFETY_ANALYSIS {
    return vpoc_count_;
  }

  /// As Size, but without taking the latch — only callable from an
  /// `under_latch` callback. At that point the in-flight token has not
  /// been pushed yet, so this equals the token's LSN.
  uint64_t SizeLocked() const CALCDB_NO_THREAD_SAFETY_ANALYSIS {
    return entries_.size();
  }

  /// Number of entries.
  uint64_t Size() const;

  /// Number of commit entries (excludes phase-transition tokens) — the
  /// size of the full replay set. O(1): entries minus the phase-token
  /// side index.
  uint64_t CommitCount() const;

  /// Copy of entry at `lsn` (test/recovery use; not on the hot path).
  LogEntry Entry(uint64_t lsn) const;

  /// Collects the commit entries with LSN strictly greater than
  /// `after_lsn`, in order — the replay set for a checkpoint whose
  /// point-of-consistency token sits at `after_lsn`.
  std::vector<LogEntry> CommitsAfter(uint64_t after_lsn) const;

  /// Collects the commit entries with LSN >= `from_lsn`, in order — the
  /// replay set when no checkpoint exists (recover from the beginning).
  std::vector<LogEntry> CommitsFrom(uint64_t from_lsn) const;

  /// Finds the LSN of the phase-transition token entering `phase` for
  /// checkpoint `checkpoint_id`; returns false if absent. O(#tokens):
  /// searches the phase-token side index, not the entries, so the append
  /// latch is held only briefly even on a long live log.
  bool FindPhaseToken(uint64_t checkpoint_id, Phase phase,
                      uint64_t* lsn) const;

  /// Serializes one entry into the on-disk framing (length + CRC +
  /// payload), appending to `*out`. Shared by PersistTo and the
  /// CommandLogStreamer.
  static void EncodeEntry(const LogEntry& entry, std::string* out);

  /// Serializes entries to a file (length-prefixed, CRC-protected) so
  /// recovery can replay across a process restart.
  [[nodiscard]] Status PersistTo(const std::string& path) const;

  /// Loads entries from a file previously written by PersistTo (or
  /// streamed by CommandLogStreamer), replacing current contents. Decodes
  /// with the shared frame decoder (log/log_reader.h), so it accepts and
  /// rejects exactly what recovery's generation scan does. `block_bytes`
  /// sizes the decoder's read block (0: LogFrameReader's default).
  [[nodiscard]] Status LoadFrom(const std::string& path,
                                size_t block_bytes = 0);

 private:
  mutable SpinLatch latch_;
  std::deque<LogEntry> entries_ CALCDB_GUARDED_BY(latch_);
  uint64_t vpoc_count_ CALCDB_GUARDED_BY(latch_) = 0;
  std::vector<PhaseTokenMark> phase_marks_ CALCDB_GUARDED_BY(latch_);
};

}  // namespace calcdb

#endif  // CALCDB_LOG_COMMIT_LOG_H_
