#ifndef CALCDB_LOG_COMMIT_LOG_H_
#define CALCDB_LOG_COMMIT_LOG_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
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
///
/// Storage is a list of fixed-capacity chunks: one compact slot per entry
/// plus a per-chunk arena holding the args bytes. A chunk seals when its
/// slots or its arena fill (args larger than an arena get a chunk sized
/// to fit). Sealed slots and arena bytes are never written again, so a
/// Snapshot taken under the latch is read without it.
///
/// Retention. LSNs are lifetime-dense and never reused, but the log need
/// not keep every entry: once a checkpoint is registered, recovery
/// replays only past its point of consistency. The command-log streamer
/// drops whole sealed chunks below min(its persisted LSN, the retention
/// horizon); the horizon is the vpoc LSN of the newest checkpoint
/// registered in this lifetime, advanced by Checkpointer::
/// PublishCheckpoint and only while a streamer runs. Without a streamer
/// nothing is ever dropped: the in-memory log is then the only command
/// log (docs/DURABILITY.md, "Commit-log retention"). Reading below the
/// first retained LSN is a programming error and fails an assert.
class CommitLog {
 private:
  struct Slot;
  struct Chunk;

 public:
  /// Slots per chunk (24 KiB of slots) and args bytes per chunk arena.
  /// Both allocations stay below glibc's default 128 KiB mmap threshold,
  /// so opening a chunk under the append latch takes heap memory (often
  /// a chunk truncation just freed) instead of mapping fresh pages.
  static constexpr uint32_t kChunkSlots = 1024;
  static constexpr uint32_t kChunkArenaBytes = 96 << 10;

  /// On-disk framing: `[u32 len][u32 crc32(payload)][payload]`.
  static constexpr uint64_t kFrameHeaderBytes = 4 + 4;
  /// Commit payload ahead of the args: type + txn_id + proc_id + args_len.
  static constexpr uint64_t kCommitFixedBytes = 1 + 8 + 4 + 4;
  /// Phase-token payload: type + phase + checkpoint_id.
  static constexpr uint64_t kPhasePayloadBytes = 1 + 1 + 8;

  /// Framed size of a commit entry carrying `args_len` bytes of args.
  static constexpr uint64_t FramedCommitBytes(uint64_t args_len) {
    return kFrameHeaderBytes + kCommitFixedBytes + args_len;
  }

  /// A range of entries pinned for reading without the latch: the chunks
  /// holding them stay alive while the snapshot does, even if the log
  /// truncates them meanwhile.
  class Snapshot {
   public:
    /// Number of chunk pieces; EncodePiece frames one of them, so a
    /// writer can emit large blocks without holding the whole range.
    size_t pieces() const { return pieces_.size(); }

    /// Appends the on-disk framing of piece `i`'s entries to `*out`.
    void EncodePiece(size_t i, std::string* out) const;

    /// Appends the on-disk framing of every entry to `*out`.
    void EncodeAll(std::string* out) const;

    /// Owning copies of the commit entries, in LSN order.
    std::vector<LogEntry> Commits() const;

   private:
    friend class CommitLog;
    struct Piece {
      std::shared_ptr<const Chunk> chunk;
      uint32_t begin = 0;  ///< first slot index
      uint32_t end = 0;    ///< one past the last slot index
    };
    std::vector<Piece> pieces_;
  };

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
  uint64_t AppendCommit(uint64_t txn_id, uint32_t proc_id,
                        std::string_view args,
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
    return end_lsn_;
  }

  /// Number of entries ever appended (the end LSN), truncated ones
  /// included.
  uint64_t Size() const;

  /// Number of commit entries ever appended (excludes phase-transition
  /// tokens) — the size of the full replay set. O(1): entries minus the
  /// phase-token side index.
  uint64_t CommitCount() const;

  /// First LSN still held in memory (0 until something is truncated).
  uint64_t FirstRetainedLsn() const;

  /// Entries held in memory: Size() - FirstRetainedLsn().
  uint64_t RetainedEntries() const;

  /// Copy of entry at `lsn` (test/recovery use; not on the hot path).
  LogEntry Entry(uint64_t lsn) const;

  /// Collects the commit entries with LSN strictly greater than
  /// `after_lsn`, in order — the replay set for a checkpoint whose
  /// point-of-consistency token sits at `after_lsn`.
  std::vector<LogEntry> CommitsAfter(uint64_t after_lsn) const;

  /// Collects the commit entries with LSN >= `from_lsn`, in order — the
  /// replay set when no checkpoint exists (recover from the beginning).
  std::vector<LogEntry> CommitsFrom(uint64_t from_lsn) const;

  /// Pins entries [from_lsn, min(to_lsn, Size())) under one latch
  /// acquisition.
  Snapshot SnapshotRange(uint64_t from_lsn, uint64_t to_lsn) const;

  /// Finds the LSN of the phase-transition token entering `phase` for
  /// checkpoint `checkpoint_id`; returns false if absent. O(#tokens):
  /// searches the phase-token side index (kept for the whole lifetime,
  /// truncation never touches it), not the entries.
  bool FindPhaseToken(uint64_t checkpoint_id, Phase phase,
                      uint64_t* lsn) const;

  /// Raises the retention horizon to `vpoc_lsn` (never lowers it). Called
  /// once a checkpoint whose point of consistency sits at `vpoc_lsn` is
  /// registered, and only while a command-log streamer runs.
  void AdvanceRetentionHorizon(uint64_t vpoc_lsn);

  /// Drops every sealed chunk that lies wholly below
  /// min(`persisted_lsn`, retention horizon); returns the number of
  /// entries dropped. The chunks are unlinked under the latch and freed
  /// on the calling thread after it is released. Only the command-log
  /// streamer calls this, after an fsync made `persisted_lsn` durable.
  uint64_t TruncateDurable(uint64_t persisted_lsn);

  /// Serializes one entry into the on-disk framing (length + CRC +
  /// payload), appending to `*out` in place.
  static void EncodeEntry(const LogEntry& entry, std::string* out);

  /// Serializes entries to a file (length-prefixed, CRC-protected) so
  /// recovery can replay across a process restart. The log must still
  /// hold LSN 0 onward. Frames are encoded and written outside the latch.
  [[nodiscard]] Status PersistTo(const std::string& path) const;

  /// Loads entries from a file previously written by PersistTo (or
  /// streamed by CommandLogStreamer), replacing current contents. Decodes
  /// with the shared frame decoder (log/log_reader.h), so it accepts and
  /// rejects exactly what recovery's generation scan does. `block_bytes`
  /// sizes the decoder's read block (0: LogFrameReader's default).
  [[nodiscard]] Status LoadFrom(const std::string& path,
                                size_t block_bytes = 0);

 private:
  using ChunkList = std::deque<std::shared_ptr<Chunk>>;

  /// Writes entry `lsn` into the next slot of `chunks` (`id` is the
  /// txn_id of a commit, the checkpoint_id of a phase token), opening a
  /// new chunk when the open one is out of slots or arena.
  static void PushEntry(ChunkList* chunks, uint64_t lsn, LogEntry::Type type,
                        uint64_t id, uint32_t proc_id, Phase phase,
                        std::string_view args);

  /// Index in chunks_ of the chunk holding `lsn` (a retained LSN).
  size_t ChunkIndexLocked(uint64_t lsn) const CALCDB_REQUIRES(latch_);

  mutable SpinLatch latch_;
  ChunkList chunks_ CALCDB_GUARDED_BY(latch_);
  uint64_t end_lsn_ CALCDB_GUARDED_BY(latch_) = 0;
  uint64_t first_retained_lsn_ CALCDB_GUARDED_BY(latch_) = 0;
  uint64_t retention_horizon_ CALCDB_GUARDED_BY(latch_) = 0;
  uint64_t vpoc_count_ CALCDB_GUARDED_BY(latch_) = 0;
  std::vector<PhaseTokenMark> phase_marks_ CALCDB_GUARDED_BY(latch_);
};

}  // namespace calcdb

#endif  // CALCDB_LOG_COMMIT_LOG_H_
