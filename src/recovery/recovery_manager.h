#ifndef CALCDB_RECOVERY_RECOVERY_MANAGER_H_
#define CALCDB_RECOVERY_RECOVERY_MANAGER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "checkpoint/ckpt_storage.h"
#include "log/commit_log.h"
#include "storage/sharded_store.h"
#include "txn/procedure.h"
#include "util/status.h"

namespace calcdb {

/// Timing and size breakdown of a recovery (paper §5.1.3 measures the
/// merge component of this as "recovery time").
struct RecoveryStats {
  /// Per-generation replay breakdown (ReplayLogGenerations): how many of
  /// each generation file's commits were replayed vs. retired as covered
  /// by the loaded checkpoint chain (the anchor rule).
  struct GenerationReplay {
    std::string file;
    uint64_t commits_total = 0;
    uint64_t replayed = 0;
    uint64_t skipped = 0;
  };

  uint64_t checkpoints_loaded = 0;
  uint64_t checkpoints_rejected = 0;  ///< torn (crash-artifact) checkpoints
  uint64_t segments_loaded = 0;       ///< checkpoint files applied
  uint64_t entries_applied = 0;
  uint64_t txns_replayed = 0;
  int64_t load_micros = 0;    ///< checkpoint chain load + merge time
  int64_t replay_micros = 0;  ///< command-log scan + collect + replay
  /// Share of replay_micros spent decoding command-log generations (the
  /// validation scan of every generation plus the replay-tail collect).
  int64_t log_scan_micros = 0;
  /// Bytes the generation decoder read: every generation once (scan)
  /// plus the replay tail once more (collect).
  uint64_t log_bytes_scanned = 0;
  uint64_t replay_from_lsn = 0;
  uint64_t last_checkpoint_id = 0;  ///< id of the last applied checkpoint
  uint64_t log_generations_replayed = 0;

  // Parallel replay (ReplayScheduler). With replay_threads = 1 these
  // stay at their serial values: threads_used 1, no conflicts, no
  // fallbacks, empty per-worker breakdown.
  uint64_t replay_threads_used = 0;
  uint64_t replay_conflicts = 0;  ///< commands ordered behind an earlier
                                  ///< command's footprint (deterministic:
                                  ///< counted at dispatch, not at wait)
  uint64_t replay_serial_fallbacks = 0;  ///< undeclared-footprint commands
  std::vector<uint64_t> replayed_per_worker;
  std::vector<GenerationReplay> generations;
};

/// Recovery (paper §3): load the newest full checkpoint, apply every later
/// partial in order (latest wins, tombstones delete), then deterministically
/// replay the command log's committed transactions from the loaded
/// checkpoint's point of consistency onward.
///
/// Replay correctness rests on two properties of this engine: strict 2PL
/// makes the commit-token order consistent with the serialization order
/// for every conflicting transaction pair, and stored procedures are
/// deterministic functions of (args, visible state) — so serial
/// re-execution in commit order reproduces the pre-crash state exactly.
class RecoveryManager {
 public:
  /// Loads the manifest's recovery chain into `store` (which should be
  /// empty). Sets `*replay_from_lsn` to the last loaded checkpoint's
  /// point-of-consistency LSN (0 with no checkpoints).
  ///
  /// Every chain member is validated (all segment footers + CRCs) before
  /// anything is applied. A checkpoint with a torn file — a short read,
  /// the signature of a crash mid-write or mid-truncation — is rejected
  /// together with every later checkpoint, and the chain is recomputed
  /// from the surviving prefix; command-log replay from the older point
  /// of consistency re-covers the discarded window. A checkpoint whose
  /// bytes are present but wrong (CRC / entry-count mismatch) fails
  /// loudly with Corruption: that is damage, not a crash artifact.
  ///
  /// `load_threads > 1` loads the segment files of each checkpoint with a
  /// parallel worker pool (segments of one checkpoint hold disjoint keys;
  /// checkpoints still apply in chain order so latest-wins is preserved).
  [[nodiscard]] static Status LoadCheckpoints(CheckpointStorage* storage,
                                              ShardedStore* store,
                                              RecoveryStats* stats,
                                              int load_threads = 1);

  /// Replays committed transactions with LSN > stats->replay_from_lsn.
  ///
  /// `replay_threads > 1` replays with the parallel deterministic
  /// scheduler (recovery/replay_scheduler.h): commands whose declared
  /// key footprints are disjoint execute concurrently, conflicting
  /// commands serialize in LSN order, and the final store state is
  /// byte-identical to serial replay. 1 is the legacy serial loop.
  [[nodiscard]] static Status ReplayLog(const CommitLog& log,
                                        const ProcedureRegistry& registry,
                                        ShardedStore* store, RecoveryStats* stats,
                                        int replay_threads = 1);

  /// Replays a sequence of streamed command-log generation files (oldest
  /// first, as CommandLogStreamer::ListLogFiles returns them) on top of a
  /// loaded checkpoint chain, in three steps: *scan* validates every frame
  /// of every generation and keeps only its commit count and phase-token
  /// side index; the anchor is chosen from those indexes; *collect*
  /// decodes only the replay set (the anchor's tail from the token's byte
  /// offset, later generations in full), which is then *replayed*.
  /// Damage anywhere, including the retired pre-anchor region, fails with
  /// Corruption before the store is touched.
  ///
  /// LSNs restart at 0 in every generation, so
  /// `stats->replay_from_lsn` only applies within the *anchor*
  /// generation: the newest one containing the RESOLVE phase token of the
  /// last applied checkpoint (id `stats->last_checkpoint_id`) at exactly
  /// that LSN. The anchor replays commits after the token; every later
  /// generation replays in full; generations before the anchor are
  /// retired (fully covered by the checkpoint). If no generation holds
  /// the anchor token, the checkpoint postdates everything the log
  /// persisted — since log appends are sequential, nothing after the
  /// token persisted either, and there is nothing to replay. With no
  /// checkpoints loaded every generation replays in full. See
  /// docs/DURABILITY.md, "Composing recovery with streamed logs", and
  /// docs/RECOVERY.md for the full contract.
  ///
  /// `replay_threads` as in ReplayLog; the scheduler drains completely
  /// at every generation boundary, so the anchor rule composes with
  /// parallel replay unchanged. `log_block_bytes` sizes the generation
  /// decoder's read block (0: LogFrameReader's default). Fills
  /// stats->generations with the per-generation replayed/skipped
  /// breakdown.
  [[nodiscard]] static Status ReplayLogGenerations(
      const std::vector<std::string>& files,
      const ProcedureRegistry& registry, ShardedStore* store,
      RecoveryStats* stats, int replay_threads = 1,
      size_t log_block_bytes = 0);

  /// LoadCheckpoints + ReplayLog.
  [[nodiscard]] static Status Recover(CheckpointStorage* storage,
                                      const CommitLog& log,
                                      const ProcedureRegistry& registry,
                                      ShardedStore* store, RecoveryStats* stats,
                                      int load_threads = 1,
                                      int replay_threads = 1);
};

}  // namespace calcdb

#endif  // CALCDB_RECOVERY_RECOVERY_MANAGER_H_
