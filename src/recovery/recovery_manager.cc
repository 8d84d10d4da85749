#include "recovery/recovery_manager.h"

#include <atomic>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "log/log_reader.h"
#include "obs/obs.h"
#include "recovery/replay_scheduler.h"
#include "util/clock.h"

namespace calcdb {

namespace {

/// Runs `fn` over every file with up to `nthreads` workers. Returns the
/// first Corruption seen (damage always wins), else the first other
/// non-OK status in file order.
Status ForEachFileParallel(
    const std::vector<std::string>& files, int nthreads,
    const std::function<Status(const std::string&)>& fn) {
  if (nthreads > static_cast<int>(files.size())) {
    nthreads = static_cast<int>(files.size());
  }
  std::vector<Status> statuses(files.size());
  if (nthreads <= 1) {
    for (size_t i = 0; i < files.size(); ++i) statuses[i] = fn(files[i]);
  } else {
    std::atomic<size_t> next{0};
    auto worker = [&] {
      for (;;) {
        size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= files.size()) return;
        statuses[i] = fn(files[i]);
      }
    };
    std::vector<std::thread> threads;
    threads.reserve(static_cast<size_t>(nthreads) - 1);
    for (int t = 1; t < nthreads; ++t) threads.emplace_back(worker);
    worker();
    for (std::thread& t : threads) t.join();
  }
  for (const Status& st : statuses) {
    if (st.IsCorruption()) return st;
  }
  for (const Status& st : statuses) {
    if (!st.ok()) return st;
  }
  return Status::OK();
}

/// Reads every entry and the footer of one checkpoint file without
/// applying anything. A short read (IOError) means the file is torn; a
/// CRC / count mismatch means Corruption.
Status ValidateCheckpointFile(const std::string& path) {
  CheckpointFileReader reader;
  CALCDB_RETURN_NOT_OK(reader.Open(path));
  return reader.ReadAll(
      [](const CheckpointEntry&) -> Status { return Status::OK(); });
}

/// Applies one (already validated) checkpoint file into the store.
Status ApplyCheckpointFile(const std::string& path, ShardedStore* store,
                           std::atomic<uint64_t>* entries_applied) {
  CheckpointFileReader reader;
  CALCDB_RETURN_NOT_OK(reader.Open(path));
  uint64_t applied = 0;
  Status st = reader.ReadAll([&](const CheckpointEntry& entry) -> Status {
    ++applied;
    CALCDB_COUNTER_ADD("calcdb.recovery.entries_applied", 1);
    CALCDB_COUNTER_ADD("calcdb.recovery.checkpoint_read_bytes",
                       entry.value.size() + sizeof(entry.key));
    if (entry.tombstone) {
      // Deleting an absent key is fine: a partial may tombstone a
      // record the loaded base never contained. Anything other than
      // NotFound still propagates.
      Status del = store->Delete(entry.key);
      if (!del.ok() && !del.IsNotFound()) return del;
      return Status::OK();
    }
    return store->Put(entry.key, entry.value);
  });
  entries_applied->fetch_add(applied, std::memory_order_relaxed);
  return st;
}

}  // namespace

Status RecoveryManager::LoadCheckpoints(CheckpointStorage* storage,
                                        ShardedStore* store, RecoveryStats* stats,
                                        int load_threads) {
  Stopwatch sw;
  CALCDB_TRACE_SPAN(load_span, "load_checkpoints", "recovery", 0);
  if (load_threads < 1) load_threads = 1;

  // Validate the whole chain before applying anything: a torn segment
  // must reject its checkpoint before any sibling segment touches the
  // store, and rejection shortens the chain — so validation and
  // application cannot be interleaved.
  std::vector<CheckpointInfo> candidates = storage->List();
  std::vector<CheckpointInfo> chain;
  for (;;) {
    chain = CheckpointStorage::ChainFrom(candidates);
    uint64_t torn_id = 0;
    bool torn = false;
    for (const CheckpointInfo& info : chain) {
      Status st = ForEachFileParallel(
          info.files(), load_threads, ValidateCheckpointFile);
      if (st.ok()) continue;
      if (st.IsCorruption()) return st;  // damage: fail loudly
      // Short read / missing file: a crash artifact — fall back.
      torn = true;
      torn_id = info.id;
      CALCDB_WARN("recovery.torn_checkpoint", "recovery", st.ToString(),
                  {"checkpoint_id", static_cast<int64_t>(info.id)});
      break;
    }
    if (!torn) break;
    // Reject the torn checkpoint and everything after it: a later partial
    // layered onto the older surviving base would claim a too-new replay
    // LSN and silently lose the torn checkpoint's window of commits.
    // Command-log replay from the surviving chain's point of consistency
    // re-covers the whole discarded window.
    std::vector<CheckpointInfo> kept;
    for (CheckpointInfo& c : candidates) {
      if (c.id < torn_id) {
        kept.push_back(std::move(c));
      } else {
        ++stats->checkpoints_rejected;
        CALCDB_COUNTER_ADD("calcdb.recovery.checkpoints_rejected", 1);
        CALCDB_WARN("recovery.checkpoint_rejected", "recovery", c.path,
                    {"checkpoint_id", static_cast<int64_t>(c.id)},
                    {"torn_id", static_cast<int64_t>(torn_id)});
      }
    }
    candidates = std::move(kept);
  }

  // Apply checkpoints strictly in chain order (latest wins across
  // checkpoints); within one checkpoint the segment files hold disjoint
  // keys, so the worker pool loads them concurrently.
  std::atomic<uint64_t> entries_applied{0};
  for (const CheckpointInfo& info : chain) {
    std::vector<std::string> files = info.files();
    CALCDB_RETURN_NOT_OK(ForEachFileParallel(
        files, load_threads, [&](const std::string& path) -> Status {
          return ApplyCheckpointFile(path, store, &entries_applied);
        }));
    stats->segments_loaded += files.size();
    CALCDB_COUNTER_ADD("calcdb.recovery.segments_loaded", files.size());
    ++stats->checkpoints_loaded;
    stats->replay_from_lsn = info.vpoc_lsn;
    stats->last_checkpoint_id = info.id;
  }
  stats->entries_applied += entries_applied.load(std::memory_order_relaxed);
  stats->load_micros = sw.ElapsedMicros();
  return Status::OK();
}

Status RecoveryManager::ReplayLog(const CommitLog& log,
                                  const ProcedureRegistry& registry,
                                  ShardedStore* store, RecoveryStats* stats,
                                  int replay_threads) {
  Stopwatch sw;
  ReplayScheduler replayer(registry, store, replay_threads);
  // With no checkpoint loaded, the whole log (from LSN 0) is the replay
  // set; otherwise replay strictly after the loaded point of consistency.
  std::vector<LogEntry> commits =
      stats->checkpoints_loaded == 0
          ? log.CommitsFrom(0)
          : log.CommitsAfter(stats->replay_from_lsn);
  CALCDB_RETURN_NOT_OK(replayer.Replay(commits, stats));
  stats->replay_micros = sw.ElapsedMicros();
  return Status::OK();
}

Status RecoveryManager::ReplayLogGenerations(
    const std::vector<std::string>& files,
    const ProcedureRegistry& registry, ShardedStore* store,
    RecoveryStats* stats, int replay_threads, size_t log_block_bytes) {
  Stopwatch sw;
  // Scan: validate every frame of every generation before any replay
  // mutates the store — damage anywhere, even in a region the anchor
  // rule will retire, fails recovery (a torn final frame is accepted).
  // Only commit counts and the phase-token side index survive the scan.
  std::vector<LogScan> scans(files.size());
  for (size_t i = 0; i < files.size(); ++i) {
    Stopwatch scan_sw;
    CALCDB_TRACE_SPAN(scan_span, "log_scan", "recovery", i);
    CALCDB_RETURN_NOT_OK(ScanLogFile(files[i], log_block_bytes, &scans[i]));
    stats->log_scan_micros += scan_sw.ElapsedMicros();
    stats->log_bytes_scanned += scans[i].bytes_read;
    CALCDB_COUNTER_ADD("calcdb.recovery.log_scan_bytes", scans[i].bytes_read);
  }

  // Find the anchor generation: the newest one holding the last applied
  // checkpoint's RESOLVE token at exactly the checkpoint's vpoc LSN.
  // Newest-first, because a crashed lifetime can reuse a checkpoint id
  // (the id was never persisted) — the replayed chain's token is the one
  // from the latest lifetime that produced a surviving checkpoint.
  size_t anchor = files.size();  // "none"
  const PhaseTokenMark* anchor_mark = nullptr;
  if (stats->checkpoints_loaded != 0) {
    for (size_t i = scans.size(); i-- > 0;) {
      const PhaseTokenMark* mark = FindPhaseMark(
          scans[i].tokens, stats->last_checkpoint_id, Phase::kResolve);
      if (mark != nullptr && mark->lsn == stats->replay_from_lsn) {
        anchor = i;
        anchor_mark = mark;
        break;
      }
    }
    if (anchor == files.size()) {
      // No generation persisted the checkpoint's RESOLVE token. Checkpoint
      // cycles gate registration on the token being fsynced
      // (Checkpointer::WaitLogDurable; WriteBaseCheckpoint pre-flushes),
      // so when streaming was on for the checkpoint's lifetime its token
      // reached that lifetime's generation before the manifest could name
      // it — a missing token means the only generations that could hold
      // commits past it have been retired, or the checkpoint was taken
      // without streaming and appends within its lifetime's generation
      // (if any) are sequential, so nothing *after* the token persisted
      // either. Both ways the checkpoint already covers every durable
      // commit, and there is nothing to replay.
      CALCDB_EVENT("recovery.anchor_not_found", "recovery", "",
                   {"checkpoint_id",
                    static_cast<int64_t>(stats->last_checkpoint_id)},
                   {"generations", static_cast<int64_t>(files.size())});
      for (size_t i = 0; i < scans.size(); ++i) {
        RecoveryStats::GenerationReplay gen;
        gen.file = files[i];
        gen.commits_total = scans[i].commits;
        gen.skipped = gen.commits_total;
        stats->generations.push_back(std::move(gen));
      }
      stats->replay_micros = sw.ElapsedMicros();
      return Status::OK();
    }
  }

  // Generations before the anchor are fully covered by the checkpoint
  // chain; with no checkpoint loaded, every generation replays.
  auto retired = [&](size_t i) {
    return stats->checkpoints_loaded != 0 && i < anchor;
  };

  // Collect: decode only the replay set — the anchor's commits after its
  // token (seeking straight to the token's byte offset) and every later
  // generation in full.
  std::vector<std::vector<LogEntry>> tails(files.size());
  for (size_t i = 0; i < files.size(); ++i) {
    if (retired(i)) continue;
    uint64_t offset = i == anchor ? anchor_mark->next_offset : 0;
    Stopwatch collect_sw;
    CALCDB_TRACE_SPAN(collect_span, "log_collect", "recovery", i);
    uint64_t bytes = 0;
    CALCDB_RETURN_NOT_OK(
        CollectCommits(files[i], log_block_bytes, offset, &tails[i], &bytes));
    stats->log_scan_micros += collect_sw.ElapsedMicros();
    stats->log_bytes_scanned += bytes;
    CALCDB_COUNTER_ADD("calcdb.recovery.log_scan_bytes", bytes);
  }

  ReplayScheduler replayer(registry, store, replay_threads);
  for (size_t i = 0; i < files.size(); ++i) {
    RecoveryStats::GenerationReplay gen;
    gen.file = files[i];
    gen.commits_total = scans[i].commits;
    gen.replayed = tails[i].size();
    gen.skipped = gen.commits_total - gen.replayed;
    CALCDB_EVENT("recovery.generation_replayed", "recovery", files[i],
                 {"generation", static_cast<int64_t>(i)},
                 {"replayed", static_cast<int64_t>(gen.replayed)},
                 {"skipped", static_cast<int64_t>(gen.skipped)});
    stats->generations.push_back(std::move(gen));
    if (retired(i)) continue;
    CALCDB_RETURN_NOT_OK(replayer.Replay(tails[i], stats));
    std::vector<LogEntry>().swap(tails[i]);  // free as we go
    ++stats->log_generations_replayed;
  }
  stats->replay_micros = sw.ElapsedMicros();
  return Status::OK();
}

Status RecoveryManager::Recover(CheckpointStorage* storage,
                                const CommitLog& log,
                                const ProcedureRegistry& registry,
                                ShardedStore* store, RecoveryStats* stats,
                                int load_threads, int replay_threads) {
  CALCDB_RETURN_NOT_OK(LoadCheckpoints(storage, store, stats, load_threads));
  return ReplayLog(log, registry, store, stats, replay_threads);
}

}  // namespace calcdb
