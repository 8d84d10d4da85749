#ifndef CALCDB_DB_OPTIONS_H_
#define CALCDB_DB_OPTIONS_H_

#include <cstddef>
#include <cstdint>
#include <string>

namespace calcdb {

/// Which checkpointing algorithm a Database instance runs (paper §4.1:
/// CALC/pCALC plus the four comparison points, each with a partial
/// variant, plus the no-checkpointing baseline).
enum class CheckpointAlgorithm {
  kNone = 0,
  kCalc,
  kPCalc,
  kNaive,
  kPNaive,
  kFuzzy,   // full variant (extra in-memory snapshot copy)
  kPFuzzy,  // traditional fuzzy: partial (the paper's default)
  kIpp,
  kPIpp,
  kZigzag,
  kPZigzag,
  /// Full multi-versioning (paper §2.1's MVCC alternative): free virtual
  /// points of consistency, version-chain memory cost.
  kMvcc,
  /// Hyper-style fork() + OS copy-on-write snapshot (paper §6): requires
  /// a physical point of consistency; no partial checkpoints.
  kFork,
};

const char* AlgorithmName(CheckpointAlgorithm algo);

/// Parses "calc", "pcalc", "naive", ... (case-insensitive). Returns false
/// on unknown names.
bool ParseAlgorithm(const std::string& name, CheckpointAlgorithm* out);

/// Database configuration.
struct Options {
  /// Hard cap on distinct keys (sizes the hash table and every per-record
  /// bit vector / sidecar array).
  uint64_t max_records = 1 << 20;

  CheckpointAlgorithm algorithm = CheckpointAlgorithm::kCalc;

  /// Directory for checkpoint files and the manifest.
  std::string checkpoint_dir = "/tmp/calcdb_ckpt";

  /// Simulated checkpoint-device bandwidth (paper testbed: a magnetic
  /// disk at 100-150 MB/s sequential). 0 disables throttling.
  uint64_t disk_bytes_per_sec = 125ull << 20;

  /// Storage-engine partitions (storage/sharded_store.h). Keys hash onto
  /// shards; each shard owns an independent bucket array, record arena,
  /// dense index space, and present counter, and checkpoint capture
  /// aligns its segments with shards. 1 is the legacy single-store
  /// engine, byte-identical checkpoint streams included. 0 means auto:
  /// the CALCDB_STORAGE_SHARDS environment variable if set, else 1.
  int storage_shards = 0;

  /// Size of the capture job's worker pool, for every algorithm, and
  /// nothing else: the files follow `storage_shards` (one file per
  /// shard), with min(capture_threads, shards) workers writing them and
  /// the aggregate write rate still capped by `disk_bytes_per_sec`. 0
  /// means auto: the CALCDB_CAPTURE_THREADS environment variable if set,
  /// else 1.
  int capture_threads = 0;

  /// Checkpoint-writer serialization block size: entries accumulate into
  /// blocks of this size before hitting the file (one token charge + one
  /// write per block instead of four per record). Never changes the
  /// on-disk byte stream, only the append granularity. 0 keeps the
  /// default (256 KiB).
  size_t ckpt_block_bytes = 256 * 1024;

  /// Async double-buffered checkpoint I/O: each checkpoint writer gets a
  /// dedicated I/O thread, so capture serializes block N+1 while block N
  /// drains to disk. 0 means auto: on iff the CALCDB_CKPT_ASYNC_IO
  /// environment variable is a positive integer; > 0 forces on, < 0
  /// forces off.
  int ckpt_async_io = 0;

  /// Recovery checkpoint-load worker threads. Segments of one checkpoint
  /// are loaded concurrently (they hold disjoint keys); checkpoints still
  /// apply in chain order. 0 means auto: CALCDB_RECOVERY_THREADS if set,
  /// else the capture-thread resolution (segments are best loaded with as
  /// much parallelism as wrote them).
  int recovery_threads = 0;

  /// Command-log replay worker threads (recovery). Commands whose
  /// declared key footprints are disjoint replay concurrently under the
  /// ticket dependency rule (recovery/replay_scheduler.h); the final
  /// state is byte-identical to serial replay. 1 keeps the legacy
  /// strictly-serial replay loop. 0 means auto: the
  /// CALCDB_REPLAY_THREADS environment variable if set, else 1.
  int replay_threads = 0;

  /// Pre-allocate/recycle stable-record memory from a pool (paper §5.1.6).
  bool use_value_pool = true;

  /// Run the background partial-checkpoint collapser, merging once
  /// `merge_batch` partials accumulate (paper §5.1.3: batches of 4/8/16).
  bool background_merge = false;
  size_t merge_batch = 4;

  /// Stream the command log (transaction inputs in commit order) to this
  /// file continuously; empty disables streaming. Recovery replays it
  /// after loading the newest checkpoint chain.
  std::string command_log_path;
  int command_log_flush_ms = 10;

  /// kMvcc only: eagerly free superseded versions (see the
  /// MvccCheckpointer constructor).
  bool mvcc_eager_gc = false;

  /// Periodic metrics reporter (obs/stats_reporter.h): every
  /// `stats_dump_period_ms` the registry is snapshotted and appended as
  /// one JSON line to `stats_dump_path` (empty path: human-readable
  /// text to stderr). 0 disables the reporter.
  int64_t stats_dump_period_ms = 0;
  std::string stats_dump_path;

  /// Structured-event JSONL sink (obs/event_log.h): every admitted
  /// event (WARN on leaked files, torn-checkpoint rejection, background
  /// failures, ...) is appended as one JSON line to this file. Empty
  /// keeps events in the in-memory ring only; benches export the ring
  /// at exit via --events_out.
  std::string events_path;

  /// Checkpoint-stall watchdog (obs/health.h): with periodic
  /// checkpoints running, Database::GetHealth() reports a stall when no
  /// cycle has completed within `health_stall_multiplier` × the
  /// configured interval.
  double health_stall_multiplier = 3.0;
};

}  // namespace calcdb

#endif  // CALCDB_DB_OPTIONS_H_
