// Parallel deterministic command replay (recovery/replay_scheduler.h):
// the scheduler must produce byte-identical final state to serial replay
// under every schedule — randomized conflict-prone workloads, an
// adversarial all-one-hot-key stream that degenerates to serial, and
// undeclared-footprint commands that force the serial fallback — while
// replay_threads = 1 stays pinned to the legacy serial loop.

#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "db/database.h"
#include "gtest/gtest.h"
#include "log/commit_log.h"
#include "recovery/recovery_manager.h"
#include "recovery/replay_scheduler.h"
#include "storage/kv_store.h"
#include "test_util.h"
#include "txn/executor.h"
#include "txn/procedure.h"
#include "txn/txn_context.h"
#include "util/rng.h"
#include "workload/microbench.h"

namespace calcdb {
namespace {

using testing_util::StateMap;
using testing_util::TempDir;

constexpr size_t kValueSize = 48;

/// A procedure whose declared sets under-approximate its footprint: it
/// declares (and writes) `key`, then also writes `key + 1` undeclared —
/// the TPC-C NewOrder shape that must force the scheduler's serial
/// fallback. Args: [u64 key][u64 salt].
constexpr uint32_t kUndeclaredProcId = 77;
class UndeclaredWriteProcedure : public StoredProcedure {
 public:
  uint32_t id() const override { return kUndeclaredProcId; }
  const char* name() const override { return "undeclared_write"; }

  void GetKeys(std::string_view args, KeySets* sets) const override {
    uint64_t key;
    std::memcpy(&key, args.data(), 8);
    sets->write_keys.push_back(key);
    sets->allow_undeclared_writes = true;
  }

  Status Run(TxnContext& ctx, std::string_view args) const override {
    uint64_t key, salt;
    std::memcpy(&key, args.data(), 8);
    std::memcpy(&salt, args.data() + 8, 8);
    std::string v = std::to_string(key * 31 + salt);
    CALCDB_RETURN_NOT_OK(ctx.Write(key, v));
    CALCDB_RETURN_NOT_OK(ctx.Write(key + 1, v + "+undeclared"));
    return Status::OK();
  }

  static std::string MakeArgs(uint64_t key, uint64_t salt) {
    std::string out(16, '\0');
    std::memcpy(out.data(), &key, 8);
    std::memcpy(out.data() + 8, &salt, 8);
    return out;
  }
};

std::unique_ptr<ProcedureRegistry> MakeRegistry() {
  auto registry = std::make_unique<ProcedureRegistry>();
  registry->Register(std::make_unique<RmwProcedure>(kValueSize));
  registry->Register(std::make_unique<UndeclaredWriteProcedure>());
  return registry;
}

/// Seeds a fresh store with the deterministic microbench content.
std::unique_ptr<ShardedStore> SeedStore(uint64_t num_records,
                                        uint64_t max_records = 4096) {
  auto store = std::make_unique<ShardedStore>(max_records);
  for (uint64_t k = 0; k < num_records; ++k) {
    EXPECT_TRUE(
        store->Put(k, MicrobenchInitialValue(k, kValueSize)).ok());
  }
  return store;
}

StateMap StoreToMap(const ShardedStore& store) {
  StateMap out;
  store.ForEachRecord([&](Record* rec) {
    if (rec == nullptr || rec->key == ~uint64_t{0}) return;
    std::string value;
    if (store.Get(rec->key, &value).ok()) out[rec->key] = std::move(value);
  });
  return out;
}

/// Appends `num_txns` RMW commands over random key sets drawn from
/// [0, keyspace) — small keyspaces make footprint intersections common.
void AppendRandomRmws(CommitLog* log, uint64_t num_txns, uint64_t keyspace,
                      int ops_per_txn, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint64_t> keys;
  for (uint64_t t = 0; t < num_txns; ++t) {
    keys.clear();
    for (int i = 0; i < ops_per_txn; ++i) {
      keys.push_back(rng.Next() % keyspace);
    }
    log->AppendCommit(t + 1, kRmwProcId,
                      RmwProcedure::MakeArgs(
                          keys.data(), static_cast<uint32_t>(keys.size())));
  }
}

/// Replays `log` into a fresh seeded store with `threads` workers,
/// returning the final state and filling `*stats`.
StateMap ReplayWith(const CommitLog& log, const ProcedureRegistry& registry,
                    int threads, uint64_t num_records,
                    RecoveryStats* stats) {
  std::unique_ptr<ShardedStore> store = SeedStore(num_records);
  EXPECT_TRUE(RecoveryManager::ReplayLog(log, registry, store.get(), stats,
                                         threads)
                  .ok());
  return StoreToMap(*store);
}

/// The whole-log recovery path the streaming scan replaced, kept as an
/// oracle: decode every generation in full with CommitLog::LoadFrom, pick
/// the anchor newest-first with FindPhaseToken, replay CommitsAfter /
/// CommitsFrom serially.
void OracleReplayGenerations(const std::vector<std::string>& files,
                             const ProcedureRegistry& registry,
                             ShardedStore* store, RecoveryStats* stats) {
  std::vector<std::unique_ptr<CommitLog>> logs;
  for (const std::string& file : files) {
    logs.push_back(std::make_unique<CommitLog>());
    ASSERT_TRUE(logs.back()->LoadFrom(file).ok()) << file;
  }
  size_t anchor = files.size();
  if (stats->checkpoints_loaded != 0) {
    for (size_t i = logs.size(); i-- > 0;) {
      uint64_t lsn = 0;
      if (logs[i]->FindPhaseToken(stats->last_checkpoint_id,
                                  Phase::kResolve, &lsn) &&
          lsn == stats->replay_from_lsn) {
        anchor = i;
        break;
      }
    }
  }
  ReplayScheduler replayer(registry, store, 1);
  for (size_t i = 0; i < logs.size(); ++i) {
    RecoveryStats::GenerationReplay gen;
    gen.file = files[i];
    gen.commits_total = logs[i]->CommitCount();
    std::vector<LogEntry> commits;
    bool skip = stats->checkpoints_loaded != 0 &&
                (anchor == files.size() || i < anchor);
    if (!skip) {
      commits = i == anchor ? logs[i]->CommitsAfter(stats->replay_from_lsn)
                            : logs[i]->CommitsFrom(0);
    }
    gen.replayed = commits.size();
    gen.skipped = gen.commits_total - gen.replayed;
    stats->generations.push_back(gen);
    if (skip) continue;
    ASSERT_TRUE(replayer.Replay(commits, stats).ok());
    ++stats->log_generations_replayed;
  }
}

/// Replays `files` into a fresh seeded store, either through
/// ReplayLogGenerations (`threads` workers, `block_bytes` scan blocks) or,
/// with threads == 0, through the oracle. `ckpt` simulates the loaded
/// checkpoint: {last_checkpoint_id, replay_from_lsn}, or none if null.
struct SimulatedCheckpoint {
  uint64_t id = 0;
  uint64_t vpoc_lsn = 0;
};
StateMap ReplayGenerationsWith(const std::vector<std::string>& files,
                               const ProcedureRegistry& registry,
                               const SimulatedCheckpoint* ckpt, int threads,
                               size_t block_bytes, uint64_t num_records,
                               RecoveryStats* stats) {
  std::unique_ptr<ShardedStore> store = SeedStore(num_records);
  if (ckpt != nullptr) {
    stats->checkpoints_loaded = 1;
    stats->last_checkpoint_id = ckpt->id;
    stats->replay_from_lsn = ckpt->vpoc_lsn;
  }
  if (threads == 0) {
    OracleReplayGenerations(files, registry, store.get(), stats);
  } else {
    EXPECT_TRUE(RecoveryManager::ReplayLogGenerations(
                    files, registry, store.get(), stats, threads,
                    block_bytes)
                    .ok());
  }
  return StoreToMap(*store);
}

void ExpectSameGenerationStats(const RecoveryStats& want,
                               const RecoveryStats& got) {
  ASSERT_EQ(want.generations.size(), got.generations.size());
  for (size_t i = 0; i < want.generations.size(); ++i) {
    EXPECT_EQ(want.generations[i].file, got.generations[i].file);
    EXPECT_EQ(want.generations[i].commits_total,
              got.generations[i].commits_total) << i;
    EXPECT_EQ(want.generations[i].replayed, got.generations[i].replayed)
        << i;
    EXPECT_EQ(want.generations[i].skipped, got.generations[i].skipped)
        << i;
  }
  EXPECT_EQ(want.txns_replayed, got.txns_replayed);
  EXPECT_EQ(want.log_generations_replayed, got.log_generations_replayed);
}

// The core acceptance property: replay_threads = 4 must produce
// byte-identical store contents to serial replay, and the same
// txns_replayed, across randomized conflict-prone workloads.
TEST(ReplayScheduler, SerialParallelEquivalenceRandomized) {
  auto registry = MakeRegistry();
  const uint64_t kRecords = 512;
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    CommitLog log;
    uint64_t num_txns = 200 + seed * 170;
    AppendRandomRmws(&log, num_txns, kRecords, 6, seed);

    RecoveryStats serial_stats, parallel_stats;
    StateMap serial =
        ReplayWith(log, *registry, 1, kRecords, &serial_stats);
    StateMap parallel =
        ReplayWith(log, *registry, 4, kRecords, &parallel_stats);

    ASSERT_EQ(serial, parallel) << "seed " << seed;
    EXPECT_EQ(serial_stats.txns_replayed, num_txns);
    EXPECT_EQ(parallel_stats.txns_replayed, num_txns);
    EXPECT_EQ(serial_stats.replay_threads_used, 1u);
    EXPECT_EQ(parallel_stats.replay_threads_used, 4u);
    // Every command a worker replayed shows up in exactly one per-worker
    // bucket.
    uint64_t per_worker_sum = 0;
    ASSERT_EQ(parallel_stats.replayed_per_worker.size(), 4u);
    for (uint64_t n : parallel_stats.replayed_per_worker) {
      per_worker_sum += n;
    }
    EXPECT_EQ(per_worker_sum + parallel_stats.replay_serial_fallbacks,
              parallel_stats.txns_replayed);
    EXPECT_EQ(parallel_stats.replay_serial_fallbacks, 0u);
  }
}

// Adversarial schedule: every command touches the same hot key, so the
// ticket rule must serialize the whole stream — still correct, and the
// conflict counter must show the degeneration.
TEST(ReplayScheduler, ConflictHeavyHotKeyDegeneratesToSerial) {
  auto registry = MakeRegistry();
  const uint64_t kRecords = 256;
  const uint64_t kHotKey = 7;
  CommitLog log;
  Rng rng(99);
  const uint64_t kTxns = 400;
  for (uint64_t t = 0; t < kTxns; ++t) {
    // Footprint = {hot key} ∪ {one varying key}: each command conflicts
    // with its predecessor through the hot key.
    uint64_t keys[2] = {kHotKey, rng.Next() % kRecords};
    log.AppendCommit(t + 1, kRmwProcId, RmwProcedure::MakeArgs(keys, 2));
  }

  RecoveryStats serial_stats, parallel_stats;
  StateMap serial = ReplayWith(log, *registry, 1, kRecords, &serial_stats);
  StateMap parallel =
      ReplayWith(log, *registry, 4, kRecords, &parallel_stats);

  ASSERT_EQ(serial, parallel);
  EXPECT_EQ(parallel_stats.txns_replayed, kTxns);
  // Every command after the first overlaps its predecessor through the
  // hot key; the dispatch-time conflict counter is deterministic, so
  // the count is exact regardless of worker timing.
  EXPECT_EQ(parallel_stats.replay_conflicts, kTxns - 1);
}

// Undeclared-footprint commands (allow_undeclared_writes) cannot be
// ticketed; the scheduler must drain, replay them inline, and still
// reproduce the serial state — including the undeclared writes.
TEST(ReplayScheduler, UndeclaredFootprintFallsBackToSerial) {
  auto registry = MakeRegistry();
  const uint64_t kRecords = 128;
  CommitLog log;
  Rng rng(31);
  uint64_t expected_fallbacks = 0;
  for (uint64_t t = 0; t < 300; ++t) {
    if (t % 17 == 5) {
      log.AppendCommit(
          t + 1, kUndeclaredProcId,
          UndeclaredWriteProcedure::MakeArgs(rng.Next() % kRecords, t));
      ++expected_fallbacks;
    } else {
      uint64_t keys[4] = {rng.Next() % kRecords, rng.Next() % kRecords,
                          rng.Next() % kRecords, rng.Next() % kRecords};
      log.AppendCommit(t + 1, kRmwProcId, RmwProcedure::MakeArgs(keys, 4));
    }
  }

  RecoveryStats serial_stats, parallel_stats;
  StateMap serial = ReplayWith(log, *registry, 1, kRecords, &serial_stats);
  StateMap parallel =
      ReplayWith(log, *registry, 4, kRecords, &parallel_stats);

  ASSERT_EQ(serial, parallel);
  EXPECT_EQ(parallel_stats.replay_serial_fallbacks, expected_fallbacks);
  EXPECT_EQ(serial_stats.replay_serial_fallbacks, 0u);
  EXPECT_EQ(parallel_stats.txns_replayed, serial_stats.txns_replayed);
}

// replay_threads = 1 must stay behaviorally identical to the legacy
// serial path: same state, stats untouched by parallel-only machinery.
TEST(ReplayScheduler, ThreadsOneMatchesSerial) {
  auto registry = MakeRegistry();
  const uint64_t kRecords = 200;
  CommitLog log;
  AppendRandomRmws(&log, 500, kRecords, 5, 11);

  // Default-parameter path (today's callers) vs. explicit threads = 1.
  std::unique_ptr<ShardedStore> store_default = SeedStore(kRecords);
  RecoveryStats default_stats;
  ASSERT_TRUE(RecoveryManager::ReplayLog(log, *registry,
                                         store_default.get(), &default_stats)
                  .ok());
  RecoveryStats one_stats;
  StateMap one = ReplayWith(log, *registry, 1, kRecords, &one_stats);

  EXPECT_EQ(StoreToMap(*store_default), one);
  EXPECT_EQ(default_stats.txns_replayed, one_stats.txns_replayed);
  EXPECT_EQ(one_stats.replay_threads_used, 1u);
  EXPECT_EQ(one_stats.replay_conflicts, 0u);
  EXPECT_EQ(one_stats.replay_serial_fallbacks, 0u);
  EXPECT_TRUE(one_stats.replayed_per_worker.empty());
}

// An unknown procedure id mid-stream must fail the replay with
// InvalidArgument — promptly, with no worker left spinning on a ticket
// that will never be published.
TEST(ReplayScheduler, ErrorPropagatesWithoutHanging) {
  auto registry = MakeRegistry();
  const uint64_t kRecords = 64;
  CommitLog log;
  AppendRandomRmws(&log, 100, kRecords, 4, 3);
  log.AppendCommit(101, /*proc_id=*/999, "bogus");
  AppendRandomRmws(&log, 100, kRecords, 4, 4);

  std::unique_ptr<ShardedStore> store = SeedStore(kRecords);
  RecoveryStats stats;
  Status st =
      RecoveryManager::ReplayLog(log, *registry, store.get(), &stats, 4);
  EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
}

// Per-generation replayed/skipped accounting (the RecoveryStats
// granularity fix): generations before the anchor are fully skipped,
// the anchor splits at the RESOLVE token, later generations replay in
// full — and the breakdown is identical for serial and parallel replay.
TEST(ReplayScheduler, GenerationStatsBreakdown) {
  auto registry = MakeRegistry();
  const uint64_t kRecords = 128;
  const uint64_t kCkptId = 7;
  TempDir dir;

  // Generation 0: 40 commits, the checkpoint's RESOLVE token, 25 more.
  // Generation 1: 60 commits.
  CommitLog gen0, gen1;
  AppendRandomRmws(&gen0, 40, kRecords, 4, 21);
  uint64_t token_lsn = gen0.AppendPhaseTransition(Phase::kResolve, kCkptId);
  AppendRandomRmws(&gen0, 25, kRecords, 4, 22);
  AppendRandomRmws(&gen1, 60, kRecords, 4, 23);
  std::string f0 = dir.path() + "/gen0", f1 = dir.path() + "/gen1";
  ASSERT_TRUE(gen0.PersistTo(f0).ok());
  ASSERT_TRUE(gen1.PersistTo(f1).ok());
  std::vector<std::string> files = {f0, f1};

  auto run = [&](int threads, RecoveryStats* stats) {
    std::unique_ptr<ShardedStore> store = SeedStore(kRecords);
    // Simulate a loaded checkpoint whose point of consistency is the
    // token in generation 0.
    stats->checkpoints_loaded = 1;
    stats->last_checkpoint_id = kCkptId;
    stats->replay_from_lsn = token_lsn;
    EXPECT_TRUE(RecoveryManager::ReplayLogGenerations(
                    files, *registry, store.get(), stats, threads)
                    .ok());
    return StoreToMap(*store);
  };

  RecoveryStats serial_stats, parallel_stats;
  StateMap serial = run(1, &serial_stats);
  StateMap parallel = run(4, &parallel_stats);
  ASSERT_EQ(serial, parallel);

  for (const RecoveryStats* stats : {&serial_stats, &parallel_stats}) {
    ASSERT_EQ(stats->generations.size(), 2u);
    EXPECT_EQ(stats->generations[0].file, f0);
    EXPECT_EQ(stats->generations[0].commits_total, 65u);
    EXPECT_EQ(stats->generations[0].replayed, 25u);
    EXPECT_EQ(stats->generations[0].skipped, 40u);
    EXPECT_EQ(stats->generations[1].file, f1);
    EXPECT_EQ(stats->generations[1].commits_total, 60u);
    EXPECT_EQ(stats->generations[1].replayed, 60u);
    EXPECT_EQ(stats->generations[1].skipped, 0u);
    EXPECT_EQ(stats->txns_replayed, 85u);
    EXPECT_EQ(stats->log_generations_replayed, 2u);
  }
}

// Options::replay_threads resolution: explicit value wins, 0 defers to
// CALCDB_REPLAY_THREADS, else 1.
TEST(ReplayScheduler, ResolvedReplayThreads) {
  const char* saved = std::getenv("CALCDB_REPLAY_THREADS");
  std::string saved_value = saved != nullptr ? saved : "";
  unsetenv("CALCDB_REPLAY_THREADS");

  Options options;
  EXPECT_EQ(Database::ResolvedReplayThreads(options), 1);
  options.replay_threads = 3;
  EXPECT_EQ(Database::ResolvedReplayThreads(options), 3);
  options.replay_threads = 0;
  setenv("CALCDB_REPLAY_THREADS", "5", 1);
  EXPECT_EQ(Database::ResolvedReplayThreads(options), 5);
  options.replay_threads = 2;  // explicit beats environment
  EXPECT_EQ(Database::ResolvedReplayThreads(options), 2);

  if (saved != nullptr) {
    setenv("CALCDB_REPLAY_THREADS", saved_value.c_str(), 1);
  } else {
    unsetenv("CALCDB_REPLAY_THREADS");
  }
}

// End-to-end: a full database run (CALC checkpoints + streamed command
// log), crash, then RecoverFromCommandLog with parallel replay — the
// recovered state must match a serial recovery of the same directory.
TEST(ReplayScheduler, EndToEndCommandLogRecoveryMatchesSerial) {
  TempDir dir;
  Options options;
  options.max_records = 4096;
  options.algorithm = CheckpointAlgorithm::kCalc;
  options.checkpoint_dir = dir.path() + "/ckpt";
  options.command_log_path = dir.path() + "/cmdlog";
  options.disk_bytes_per_sec = 0;

  MicrobenchConfig config;
  config.num_records = 600;
  config.value_size = kValueSize;
  config.ops_per_txn = 6;

  StateMap pre_crash;
  {
    std::unique_ptr<Database> db;
    ASSERT_TRUE(Database::Open(options, &db).ok());
    ASSERT_TRUE(SetupMicrobench(db.get(), config).ok());
    ASSERT_TRUE(db->Start().ok());
    Rng rng(17);
    std::vector<uint64_t> keys(static_cast<size_t>(config.ops_per_txn));
    for (int t = 0; t < 800; ++t) {
      for (auto& k : keys) k = rng.Next() % config.num_records;
      ASSERT_TRUE(db->executor()
                      ->Execute(kRmwProcId,
                                RmwProcedure::MakeArgs(
                                    keys.data(),
                                    static_cast<uint32_t>(keys.size())),
                                0)
                      .ok());
      if (t == 400) ASSERT_TRUE(db->Checkpoint().ok());
    }
    pre_crash = testing_util::DbToMap(db.get());
    ASSERT_TRUE(db->Shutdown().ok());
  }

  auto recover = [&](int threads, RecoveryStats* stats) {
    Options opts = options;
    opts.replay_threads = threads;
    std::unique_ptr<Database> db;
    EXPECT_TRUE(Database::Open(opts, &db).ok());
    MicrobenchConfig reg_only = config;
    reg_only.num_records = 0;  // register procedures, load nothing
    EXPECT_TRUE(SetupMicrobench(db.get(), reg_only).ok());
    EXPECT_TRUE(db->RecoverFromCommandLog(stats).ok());
    // Read the store directly instead of Start()ing the database:
    // Start() reattaches the command-log streamer, which rotates a new
    // generation file and would change what the next recovery sees.
    return StoreToMap(*db->store());
  };

  RecoveryStats serial_stats, parallel_stats;
  StateMap serial = recover(1, &serial_stats);
  StateMap parallel = recover(4, &parallel_stats);
  EXPECT_EQ(serial, pre_crash);
  ASSERT_EQ(serial, parallel);
  EXPECT_EQ(serial_stats.txns_replayed, parallel_stats.txns_replayed);
  ASSERT_EQ(serial_stats.generations.size(),
            parallel_stats.generations.size());
  for (size_t i = 0; i < serial_stats.generations.size(); ++i) {
    EXPECT_EQ(serial_stats.generations[i].replayed,
              parallel_stats.generations[i].replayed);
    EXPECT_EQ(serial_stats.generations[i].skipped,
              parallel_stats.generations[i].skipped);
  }
}

// Anchor in an older generation, a retired generation before it and
// several full generations after it. Two other generations carry a
// RESOLVE token with the checkpoint's id (crashed lifetimes reuse ids):
// the older one at the very same LSN, which newest-first must pass over,
// and a later one at a different LSN, which must not anchor. State and
// every per-generation stat match the whole-log oracle, for serial and
// parallel replay and for scan blocks from tiny (every frame straddles a
// block) to the default.
TEST(ReplayScheduler, StreamingScanMatchesWholeLogOracle) {
  auto registry = MakeRegistry();
  const uint64_t kRecords = 128;
  const uint64_t kCkptId = 9;
  TempDir dir;

  CommitLog gens[4];
  AppendRandomRmws(&gens[0], 17, kRecords, 4, 40);  // retired
  gens[0].AppendPhaseTransition(Phase::kPrepare, kCkptId);
  uint64_t stale_lsn = gens[0].AppendPhaseTransition(Phase::kResolve,
                                                     kCkptId);
  AppendRandomRmws(&gens[0], 13, kRecords, 4, 41);
  AppendRandomRmws(&gens[1], 17, kRecords, 4, 42);
  gens[1].AppendPhaseTransition(Phase::kPrepare, kCkptId);
  uint64_t token_lsn = gens[1].AppendPhaseTransition(Phase::kResolve,
                                                     kCkptId);
  ASSERT_EQ(stale_lsn, token_lsn);
  AppendRandomRmws(&gens[1], 23, kRecords, 4, 43);
  AppendRandomRmws(&gens[2], 11, kRecords, 4, 44);
  gens[2].AppendPhaseTransition(Phase::kResolve, kCkptId);  // decoy
  AppendRandomRmws(&gens[2], 9, kRecords, 4, 45);
  AppendRandomRmws(&gens[3], 35, kRecords, 4, 46);
  std::vector<std::string> files;
  for (int g = 0; g < 4; ++g) {
    files.push_back(dir.path() + "/gen" + std::to_string(g));
    ASSERT_TRUE(gens[g].PersistTo(files.back()).ok());
  }

  const SimulatedCheckpoint ckpt{kCkptId, token_lsn};
  const std::vector<const SimulatedCheckpoint*> cases = {&ckpt, nullptr};
  for (const SimulatedCheckpoint* c : cases) {
    RecoveryStats oracle_stats;
    StateMap oracle = ReplayGenerationsWith(files, *registry, c, 0, 0,
                                            kRecords, &oracle_stats);
    for (int threads : {1, 4}) {
      for (size_t block : {size_t{16}, size_t{100}, size_t{0}}) {
        SCOPED_TRACE("threads=" + std::to_string(threads) +
                     " block=" + std::to_string(block) +
                     (c != nullptr ? " anchored" : " no checkpoint"));
        RecoveryStats stats;
        StateMap got = ReplayGenerationsWith(files, *registry, c, threads,
                                             block, kRecords, &stats);
        EXPECT_EQ(got, oracle);
        ExpectSameGenerationStats(oracle_stats, stats);
        EXPECT_GT(stats.log_bytes_scanned, 0u);
      }
    }
  }
  // Anchored: gen0 retired, gen1 split at the token, gen2/gen3 in full.
  RecoveryStats stats;
  ReplayGenerationsWith(files, *registry, &ckpt, 1, 0, kRecords, &stats);
  ASSERT_EQ(stats.generations.size(), 4u);
  EXPECT_EQ(stats.generations[0].skipped, 30u);
  EXPECT_EQ(stats.generations[1].skipped, 17u);
  EXPECT_EQ(stats.generations[1].replayed, 23u);
  EXPECT_EQ(stats.generations[2].replayed, 20u);
  EXPECT_EQ(stats.generations[3].replayed, 35u);
  EXPECT_EQ(stats.log_generations_replayed, 3u);
}

// Frames straddling scan-block boundaries, and one frame whose args
// alone exceed the scan block (the decoder grows its buffer for it):
// every block size recovers the same state as the oracle.
TEST(ReplayScheduler, StreamingScanHandlesFramesLargerThanBlock) {
  auto registry = MakeRegistry();
  const uint64_t kRecords = 256;
  TempDir dir;
  CommitLog log;
  AppendRandomRmws(&log, 20, kRecords, 4, 51);
  // ~40 keys x 8 B = a 320 B args payload, then one with 600 keys.
  AppendRandomRmws(&log, 5, kRecords, 40, 52);
  AppendRandomRmws(&log, 1, kRecords, 600, 53);
  uint64_t token_lsn = log.AppendPhaseTransition(Phase::kResolve, 3);
  AppendRandomRmws(&log, 1, kRecords, 600, 54);
  AppendRandomRmws(&log, 30, kRecords, 4, 55);
  std::vector<std::string> files = {dir.path() + "/gen0"};
  ASSERT_TRUE(log.PersistTo(files[0]).ok());

  const SimulatedCheckpoint ckpt{3, token_lsn};
  RecoveryStats oracle_stats;
  StateMap oracle = ReplayGenerationsWith(files, *registry, &ckpt, 0, 0,
                                          kRecords, &oracle_stats);
  ASSERT_EQ(oracle_stats.txns_replayed, 31u);
  const size_t kLargeArgs = 600 * 8;
  for (size_t block : {size_t{1}, size_t{7}, size_t{64}, kLargeArgs / 2,
                       size_t{1} << 20}) {
    SCOPED_TRACE("block=" + std::to_string(block));
    RecoveryStats stats;
    StateMap got = ReplayGenerationsWith(files, *registry, &ckpt, 4, block,
                                         kRecords, &stats);
    EXPECT_EQ(got, oracle);
    ExpectSameGenerationStats(oracle_stats, stats);
    // The scan reads the whole file; the collect re-reads only the tail.
    uint64_t size = testing_util::FileSize(files[0]);
    EXPECT_GT(stats.log_bytes_scanned, size);
    EXPECT_LT(stats.log_bytes_scanned, 2 * size);
  }
}

// No generation holds the loaded checkpoint's RESOLVE token at its LSN:
// nothing replays and every generation reports all commits skipped.
TEST(ReplayScheduler, AnchorNotFoundSkipsEveryGeneration) {
  auto registry = MakeRegistry();
  const uint64_t kRecords = 64;
  TempDir dir;
  CommitLog gen0, gen1;
  AppendRandomRmws(&gen0, 12, kRecords, 3, 61);
  gen0.AppendPhaseTransition(Phase::kResolve, 5);  // other checkpoint
  AppendRandomRmws(&gen0, 8, kRecords, 3, 62);
  AppendRandomRmws(&gen1, 15, kRecords, 3, 63);
  std::vector<std::string> files = {dir.path() + "/gen0",
                                    dir.path() + "/gen1"};
  ASSERT_TRUE(gen0.PersistTo(files[0]).ok());
  ASSERT_TRUE(gen1.PersistTo(files[1]).ok());

  const SimulatedCheckpoint ckpt{6, 12};
  RecoveryStats oracle_stats, stats;
  StateMap oracle = ReplayGenerationsWith(files, *registry, &ckpt, 0, 0,
                                          kRecords, &oracle_stats);
  StateMap got = ReplayGenerationsWith(files, *registry, &ckpt, 4, 0,
                                       kRecords, &stats);
  EXPECT_EQ(got, oracle);
  EXPECT_EQ(got, StoreToMap(*SeedStore(kRecords)));
  ExpectSameGenerationStats(oracle_stats, stats);
  ASSERT_EQ(stats.generations.size(), 2u);
  EXPECT_EQ(stats.generations[0].commits_total, 20u);
  EXPECT_EQ(stats.generations[0].skipped, 20u);
  EXPECT_EQ(stats.generations[1].commits_total, 15u);
  EXPECT_EQ(stats.generations[1].skipped, 15u);
  EXPECT_EQ(stats.txns_replayed, 0u);
  EXPECT_EQ(stats.log_generations_replayed, 0u);
}

}  // namespace
}  // namespace calcdb
