// Tests for the footprint prefetch (ShardedStore::Prefetch, called by
// Executor::Execute after AcquireAll, by Executor::Replay, and one
// command ahead by serial replay). The prefetch is a hint: it must leave
// the store untouched, and execution and replay through it must produce
// exactly the states they would without it, on every lookup outcome —
// present keys, absent keys, tombstones, and the undeclared inserts of
// TPC-C NewOrder.

#include <memory>
#include <string>
#include <vector>

#include "db/database.h"
#include "gtest/gtest.h"
#include "obs/obs.h"
#include "recovery/recovery_manager.h"
#include "recovery/replay_scheduler.h"
#include "storage/sharded_store.h"
#include "tests/test_util.h"
#include "util/rng.h"
#include "workload/microbench.h"
#include "workload/tpcc.h"

namespace calcdb {
namespace {

using testing_util::DbToMap;
using testing_util::StateMap;
using testing_util::TempDir;

StateMap StoreToMap(const ShardedStore& store) {
  StateMap out;
  store.ForEachRecord([&](Record* rec) {
    if (rec->key == ~uint64_t{0}) return;
    std::string value;
    if (store.Get(rec->key, &value).ok()) out[rec->key] = std::move(value);
  });
  return out;
}

TEST(ShardedStorePrefetchTest, ReadOnlyOverPresentAbsentAndTombstonedKeys) {
  for (uint32_t shards : {1u, 4u}) {
    SCOPED_TRACE(shards);
    ValuePool pool;
    ShardedStore store(4096, shards, &pool);
    for (uint64_t k = 0; k < 1000; ++k) {
      ASSERT_TRUE(store.Put(k, std::string(100, 'a' + k % 26)).ok());
    }
    for (uint64_t k = 0; k < 100; ++k) ASSERT_TRUE(store.Delete(k).ok());

    // Tombstones, present keys, never-inserted keys and a repeat, more
    // than kMaxPrefetchKeys of them in all.
    std::vector<uint64_t> keys;
    for (uint64_t k = 0; k < 15; ++k) keys.push_back(k * 7);
    for (uint64_t k = 500; k < 515; ++k) keys.push_back(k);
    for (uint64_t k = 9000; k < 9015; ++k) keys.push_back(k);
    keys.push_back(500);
    ASSERT_GT(keys.size(), ShardedStore::kMaxPrefetchKeys);

    const StateMap before = StoreToMap(store);
    const uint64_t slots = store.TotalSlots();
    const uint64_t present = store.CountPresent();
#if CALCDB_OBS_ENABLED
    const uint64_t probes = obs::MetricsRegistry::Global()
                                .GetHistogram("calcdb.storage.probe_len")
                                ->count();
#endif
    store.Prefetch(keys.data(), keys.size());
    store.Prefetch(keys.data(), 1);
    store.Prefetch(nullptr, 0);
#if CALCDB_OBS_ENABLED
    // Not a lookup: probe_len keeps counting only Find/FindOrCreate.
    EXPECT_EQ(obs::MetricsRegistry::Global()
                  .GetHistogram("calcdb.storage.probe_len")
                  ->count(),
              probes);
#endif
    EXPECT_EQ(store.TotalSlots(), slots);  // creates nothing
    EXPECT_EQ(store.CountPresent(), present);
    EXPECT_EQ(StoreToMap(store), before);
  }
}

std::vector<LogEntry> Commits(const CommitLog& log) {
  std::vector<LogEntry> out;
  for (uint64_t lsn = 0; lsn < log.Size(); ++lsn) {
    LogEntry entry = log.Entry(lsn);
    if (entry.type == LogEntry::Type::kCommit) out.push_back(entry);
  }
  return out;
}

// Replays `commits` with a ReplayScheduler of `threads` into a fresh
// database built by `open`, returning the replayed state.
template <typename OpenFn>
StateMap ReplayInto(OpenFn open, const std::vector<LogEntry>& commits,
                    int threads) {
  TempDir dir;
  std::unique_ptr<Database> db = open(dir.path());
  ReplayScheduler scheduler(*db->registry(), db->store(), threads);
  RecoveryStats stats;
  EXPECT_TRUE(scheduler.Replay(commits, &stats).ok());
  EXPECT_EQ(stats.txns_replayed, commits.size());
  return DbToMap(db.get());
}

constexpr uint64_t kLoaded = 2000;

std::unique_ptr<Database> OpenMicroDb(const std::string& dir) {
  Options options;
  options.max_records = 8192;
  options.algorithm = CheckpointAlgorithm::kNone;
  options.checkpoint_dir = dir;
  options.disk_bytes_per_sec = 0;
  std::unique_ptr<Database> db;
  EXPECT_TRUE(Database::Open(options, &db).ok());
  MicrobenchConfig config;
  config.num_records = kLoaded;
  EXPECT_TRUE(SetupMicrobench(db.get(), config).ok());
  // Tombstone every tenth loaded key before the run.
  for (uint64_t k = 0; k < kLoaded; k += 10) {
    EXPECT_TRUE(db->store()->Delete(k).ok());
  }
  EXPECT_TRUE(db->Start().ok());
  return db;
}

// RMW footprints mixing present keys, tombstones and never-inserted
// keys: Execute reads NotFound on the latter two and inserts, and the
// replays (serial with lookahead, and ticketed) must land the same state.
TEST(FootprintPrefetchTest, ExecuteAndReplayAgreeOnAbsentAndTombstonedKeys) {
  TempDir dir;
  std::unique_ptr<Database> db = OpenMicroDb(dir.path());
  Rng rng(17);
  for (int t = 0; t < 600; ++t) {
    uint64_t keys[10];
    for (uint64_t& k : keys) {
      switch (rng.Uniform(3)) {
        case 0:
          k = rng.Uniform(kLoaded / 10) * 10;  // tombstone
          break;
        case 1:
          k = kLoaded + rng.Uniform(4000);  // never inserted
          break;
        default:
          k = rng.Uniform(kLoaded);
      }
    }
    // RMW footprints are duplicate-free.
    bool dup = false;
    for (int i = 0; i < 10; ++i) {
      for (int j = 0; j < i; ++j) dup |= keys[i] == keys[j];
    }
    if (dup) continue;
    ASSERT_TRUE(db->executor()
                    ->Execute(kRmwProcId, RmwProcedure::MakeArgs(keys, 10),
                              0)
                    .ok());
  }
  const StateMap live = DbToMap(db.get());
  const std::vector<LogEntry> commits = Commits(*db->commit_log());
  ASSERT_GT(commits.size(), 100u);
  EXPECT_EQ(ReplayInto(OpenMicroDb, commits, 1), live);
  EXPECT_EQ(ReplayInto(OpenMicroDb, commits, 3), live);
}

tpcc::TpccConfig TinyTpcc() {
  tpcc::TpccConfig config;
  config.num_warehouses = 2;
  config.districts_per_warehouse = 3;
  config.customers_per_district = 20;
  config.num_items = 50;
  config.initial_orders_per_district = 0;
  return config;
}

std::unique_ptr<Database> OpenTpccDb(const std::string& dir) {
  tpcc::TpccConfig config = TinyTpcc();
  Options options;
  options.max_records = tpcc::InitialRecordCount(config) + 100000;
  options.algorithm = CheckpointAlgorithm::kNone;
  options.checkpoint_dir = dir;
  std::unique_ptr<Database> db;
  EXPECT_TRUE(Database::Open(options, &db).ok());
  EXPECT_TRUE(tpcc::SetupTpcc(db.get(), config).ok());
  EXPECT_TRUE(db->Start().ok());
  return db;
}

// NewOrder declares reads and writes and inserts undeclared order rows
// (allow_undeclared_writes): the prefetch covers the declared keys only,
// and the inserts go through FindOrCreate as before.
TEST(FootprintPrefetchTest, TpccNewOrderInsertsReplayIdentically) {
  TempDir dir;
  std::unique_ptr<Database> db = OpenTpccDb(dir.path());
  tpcc::TpccWorkload workload(TinyTpcc());
  Rng rng(23);
  uint64_t new_orders = 0;
  for (int t = 0; t < 400; ++t) {
    TxnRequest req = workload.Next(rng);
    Status st = db->executor()->Execute(req.proc_id, std::move(req.args), 0);
    ASSERT_TRUE(st.ok() || st.IsAborted()) << st.ToString();
    if (st.ok() && req.proc_id == tpcc::kNewOrderProcId) ++new_orders;
  }
  ASSERT_GT(new_orders, 50u);
  const StateMap live = DbToMap(db.get());
  const std::vector<LogEntry> commits = Commits(*db->commit_log());
  EXPECT_EQ(ReplayInto(OpenTpccDb, commits, 1), live);
  EXPECT_EQ(ReplayInto(OpenTpccDb, commits, 3), live);
}

// Serial replay computes command i+1's footprint ahead of running
// command i; a bad command must still fail only after its predecessor
// ran, leaving the prefix one-by-one replay would leave.
TEST(FootprintPrefetchTest, LookaheadKeepsTheReplayedPrefixOnError) {
  TempDir dir;
  std::unique_ptr<Database> db = OpenMicroDb(dir.path());
  const uint64_t key = kLoaded + 1;
  ASSERT_TRUE(db->executor()
                  ->Execute(kRmwProcId, RmwProcedure::MakeArgs(&key, 1), 0)
                  .ok());
  std::vector<LogEntry> commits = Commits(*db->commit_log());
  ASSERT_EQ(commits.size(), 1u);
  LogEntry bad = commits[0];
  bad.proc_id = 424242;  // unknown procedure
  commits.push_back(bad);

  TempDir replay_dir;
  std::unique_ptr<Database> replayed = OpenMicroDb(replay_dir.path());
  ReplayScheduler scheduler(*replayed->registry(), replayed->store(), 1);
  RecoveryStats stats;
  EXPECT_TRUE(scheduler.Replay(commits, &stats).IsInvalidArgument());
  EXPECT_EQ(stats.txns_replayed, 1u);
  EXPECT_EQ(DbToMap(replayed.get()), DbToMap(db.get()));
}

}  // namespace
}  // namespace calcdb
