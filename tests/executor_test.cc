// Tests for the lock manager, the executor (Figure 1's Execute function),
// the TxnContext buffering semantics, and the Database facade lifecycle.

#include <atomic>
#include <map>
#include <memory>
#include <thread>

#include "db/database.h"
#include "gtest/gtest.h"
#include "tests/test_util.h"
#include "txn/lock_manager.h"
#include "txn/txn_context.h"
#include "util/rng.h"

namespace calcdb {
namespace {

using testing_util::TempDir;

// ---- LockManager ------------------------------------------------------

TEST(LockManagerTest, ResolveDeduplicatesAndSorts) {
  LockManager lm(1 << 10);
  KeySets sets;
  sets.write_keys = {5, 9, 5};
  sets.read_keys = {9, 100};
  LockManager::LockSet locks = lm.Resolve(sets);
  // No duplicate stripes; sorted ascending.
  for (size_t i = 1; i < locks.size(); ++i) {
    EXPECT_GT(locks[i].stripe, locks[i - 1].stripe);
  }
  // Key 9 appears as both read and write: exclusive must win.
  KeySets both;
  both.write_keys = {9};
  both.read_keys = {9};
  LockManager::LockSet merged = lm.Resolve(both);
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_TRUE(merged[0].exclusive);
}

// Resolve dedups in place after sorting; pin it against a map oracle:
// one lock per stripe, ascending, exclusive iff any key on that stripe
// is written. The key -> stripe hash is pinned too: it fixes the global
// lock order, which must not move under a change of storage layout.
TEST(LockManagerTest, ResolveMatchesDedupOracle) {
  LockManager lm(1 << 8);
  ASSERT_EQ(lm.num_stripes(), 256u);
  const std::pair<uint64_t, uint32_t> pinned[] = {
      {0, 0}, {1, 222}, {5, 146}, {9, 150}, {100, 153}, {12345, 247}};
  for (const auto& [key, stripe] : pinned) {
    KeySets one;
    one.write_keys = {key};
    EXPECT_EQ(lm.Resolve(one)[0].stripe, stripe) << key;
  }
  Rng rng(1);
  for (int trial = 0; trial < 500; ++trial) {
    KeySets sets;
    size_t writes = rng.Uniform(12), reads = rng.Uniform(12);
    for (size_t i = 0; i < writes; ++i) {
      sets.write_keys.push_back(rng.Uniform(600));
    }
    for (size_t i = 0; i < reads; ++i) {
      sets.read_keys.push_back(rng.Uniform(600));
    }
    LockManager::LockSet locks = lm.Resolve(sets);
    // Oracle over single-key resolutions.
    std::map<uint32_t, bool> oracle;
    auto add = [&](uint64_t key, bool exclusive) {
      KeySets one;
      (exclusive ? one.write_keys : one.read_keys).push_back(key);
      oracle[lm.Resolve(one)[0].stripe] |= exclusive;
    };
    for (uint64_t k : sets.write_keys) add(k, true);
    for (uint64_t k : sets.read_keys) add(k, false);
    ASSERT_EQ(locks.size(), oracle.size());
    size_t i = 0;
    for (const auto& [stripe, exclusive] : oracle) {
      EXPECT_EQ(locks[i].stripe, stripe);
      EXPECT_EQ(locks[i].exclusive, exclusive);
      ++i;
    }
  }
}

TEST(LockManagerTest, ConcurrentTransfersConserveTotal) {
  LockManager lm(1 << 8);
  // 64 accounts; threads transfer between random pairs under 2PL-style
  // lock sets; the sum must be conserved.
  int64_t balance[64];
  for (auto& b : balance) b = 1000;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(static_cast<uint64_t>(t) + 1);
      for (int i = 0; i < 5000; ++i) {
        uint64_t a = rng.Uniform(64), b = rng.Uniform(64);
        if (a == b) continue;
        KeySets sets;
        sets.write_keys = {a, b};
        LockManager::LockSet locks = lm.Resolve(sets);
        lm.AcquireAll(locks);
        balance[a] -= 1;
        balance[b] += 1;
        lm.ReleaseAll(locks);
      }
    });
  }
  for (auto& t : threads) t.join();
  int64_t total = 0;
  for (int64_t b : balance) total += b;
  EXPECT_EQ(total, 64 * 1000);
}

// ---- Test procedures ---------------------------------------------------

constexpr uint32_t kSetProcId = 100;
constexpr uint32_t kAbortProcId = 101;
constexpr uint32_t kRywProcId = 102;
constexpr uint32_t kUndeclaredProcId = 103;
constexpr uint32_t kDeleteProcId = 104;

// args: [u64 key][value bytes...] -> writes value at key.
class SetProcedure : public StoredProcedure {
 public:
  uint32_t id() const override { return kSetProcId; }
  const char* name() const override { return "set"; }
  void GetKeys(std::string_view args, KeySets* sets) const override {
    uint64_t key;
    memcpy(&key, args.data(), 8);
    sets->write_keys.push_back(key);
  }
  Status Run(TxnContext& ctx, std::string_view args) const override {
    uint64_t key;
    memcpy(&key, args.data(), 8);
    return ctx.Write(key, args.substr(8));
  }
};

// Writes then aborts: nothing must stick.
class AbortingProcedure : public StoredProcedure {
 public:
  uint32_t id() const override { return kAbortProcId; }
  const char* name() const override { return "abort"; }
  void GetKeys(std::string_view, KeySets* sets) const override {
    sets->write_keys.push_back(1);
  }
  Status Run(TxnContext& ctx, std::string_view) const override {
    EXPECT_TRUE(ctx.Write(1, "should never land").ok());
    return Status::Aborted("intentional");
  }
};

// Read-your-writes inside one transaction; also write-then-delete.
class RywProcedure : public StoredProcedure {
 public:
  uint32_t id() const override { return kRywProcId; }
  const char* name() const override { return "ryw"; }
  void GetKeys(std::string_view, KeySets* sets) const override {
    sets->write_keys = {10, 11};
  }
  Status Run(TxnContext& ctx, std::string_view) const override {
    EXPECT_TRUE(ctx.Write(10, "first").ok());
    std::string value;
    EXPECT_TRUE(ctx.Read(10, &value).ok());
    EXPECT_EQ(value, "first");
    EXPECT_TRUE(ctx.Write(10, "second").ok());
    EXPECT_TRUE(ctx.Read(10, &value).ok());
    EXPECT_EQ(value, "second");
    EXPECT_TRUE(ctx.Insert(11, "fresh").ok());
    EXPECT_TRUE(ctx.Exists(11));
    EXPECT_TRUE(ctx.Delete(11).ok());
    EXPECT_FALSE(ctx.Exists(11));
    return Status::OK();
  }
};

// Touches a key it never declared: must be rejected.
class UndeclaredProcedure : public StoredProcedure {
 public:
  uint32_t id() const override { return kUndeclaredProcId; }
  const char* name() const override { return "undeclared"; }
  void GetKeys(std::string_view, KeySets* sets) const override {
    sets->write_keys = {1};
  }
  Status Run(TxnContext& ctx, std::string_view) const override {
    return ctx.Write(999, "nope");
  }
};

class DeleteProcedure : public StoredProcedure {
 public:
  uint32_t id() const override { return kDeleteProcId; }
  const char* name() const override { return "delete"; }
  void GetKeys(std::string_view args, KeySets* sets) const override {
    uint64_t key;
    memcpy(&key, args.data(), 8);
    sets->write_keys.push_back(key);
  }
  Status Run(TxnContext& ctx, std::string_view args) const override {
    uint64_t key;
    memcpy(&key, args.data(), 8);
    return ctx.Delete(key);
  }
};

std::string SetArgs(uint64_t key, std::string_view value) {
  std::string args(reinterpret_cast<const char*>(&key), 8);
  args.append(value);
  return args;
}

std::unique_ptr<Database> OpenTestDb(const std::string& dir,
                                     CheckpointAlgorithm algo) {
  Options options;
  options.max_records = 10000;
  options.algorithm = algo;
  options.checkpoint_dir = dir;
  options.disk_bytes_per_sec = 0;
  std::unique_ptr<Database> db;
  EXPECT_TRUE(Database::Open(options, &db).ok());
  db->registry()->Register(std::make_unique<SetProcedure>());
  db->registry()->Register(std::make_unique<AbortingProcedure>());
  db->registry()->Register(std::make_unique<RywProcedure>());
  db->registry()->Register(std::make_unique<UndeclaredProcedure>());
  db->registry()->Register(std::make_unique<DeleteProcedure>());
  return db;
}

// ---- Executor ----------------------------------------------------------

TEST(ExecutorTest, CommitWritesAndLogs) {
  TempDir dir;
  auto db = OpenTestDb(dir.path(), CheckpointAlgorithm::kNone);
  ASSERT_TRUE(db->Start().ok());
  Txn txn;
  ASSERT_TRUE(db->executor()
                  ->Execute(kSetProcId, SetArgs(5, "hello"), 0, &txn)
                  .ok());
  EXPECT_TRUE(txn.committed);
  EXPECT_EQ(txn.written_records.size(), 1u);
  std::string value;
  ASSERT_TRUE(db->Read(5, &value).ok());
  EXPECT_EQ(value, "hello");
  EXPECT_EQ(db->executor()->committed(), 1u);
  EXPECT_EQ(db->commit_log()->Size(), 1u);
  LogEntry e = db->commit_log()->Entry(0);
  EXPECT_EQ(e.proc_id, kSetProcId);
  EXPECT_EQ(e.args, SetArgs(5, "hello"));
}

TEST(ExecutorTest, AbortLeavesNoTrace) {
  TempDir dir;
  auto db = OpenTestDb(dir.path(), CheckpointAlgorithm::kNone);
  ASSERT_TRUE(db->Start().ok());
  EXPECT_TRUE(
      db->executor()->Execute(kAbortProcId, "", 0).IsAborted());
  std::string value;
  EXPECT_TRUE(db->Read(1, &value).IsNotFound());
  EXPECT_EQ(db->executor()->aborted(), 1u);
  EXPECT_EQ(db->commit_log()->Size(), 0u);  // no commit token
  EXPECT_EQ(db->phases()->TotalActive(), 0);
}

TEST(ExecutorTest, ReadYourWritesAndInsertDelete) {
  TempDir dir;
  auto db = OpenTestDb(dir.path(), CheckpointAlgorithm::kNone);
  ASSERT_TRUE(db->Start().ok());
  ASSERT_TRUE(db->executor()->Execute(kRywProcId, "", 0).ok());
  std::string value;
  ASSERT_TRUE(db->Read(10, &value).ok());
  EXPECT_EQ(value, "second");      // coalesced to the last write
  EXPECT_TRUE(db->Read(11, &value).IsNotFound());  // insert then delete
}

TEST(ExecutorTest, UndeclaredKeyRejected) {
  TempDir dir;
  auto db = OpenTestDb(dir.path(), CheckpointAlgorithm::kNone);
  ASSERT_TRUE(db->Start().ok());
  EXPECT_TRUE(db->executor()
                  ->Execute(kUndeclaredProcId, "", 0)
                  .IsInvalidArgument());
  std::string value;
  EXPECT_TRUE(db->Read(999, &value).IsNotFound());
}

TEST(ExecutorTest, DeleteCommits) {
  TempDir dir;
  auto db = OpenTestDb(dir.path(), CheckpointAlgorithm::kNone);
  ASSERT_TRUE(db->Load(7, "doomed").ok());
  ASSERT_TRUE(db->Start().ok());
  uint64_t key = 7;
  std::string key_args(reinterpret_cast<const char*>(&key), 8);
  ASSERT_TRUE(db->executor()->Execute(kDeleteProcId, key_args, 0).ok());
  std::string value;
  EXPECT_TRUE(db->Read(7, &value).IsNotFound());
  // Deleting again: procedure returns NotFound -> abort.
  EXPECT_TRUE(
      db->executor()->Execute(kDeleteProcId, key_args, 0).IsNotFound());
}

TEST(ExecutorTest, UnknownProcedureRejected) {
  TempDir dir;
  auto db = OpenTestDb(dir.path(), CheckpointAlgorithm::kNone);
  ASSERT_TRUE(db->Start().ok());
  EXPECT_TRUE(
      db->executor()->Execute(424242, "", 0).IsInvalidArgument());
}

TEST(ExecutorTest, ConcurrentIncrementsSerializable) {
  TempDir dir;
  auto db = OpenTestDb(dir.path(), CheckpointAlgorithm::kNone);
  ASSERT_TRUE(db->Start().ok());
  // Counter procedure semantics via Set + read-modify-write would need a
  // dedicated proc; instead hammer disjoint keys from multiple threads
  // and verify all commits landed.
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 500; ++i) {
        uint64_t key = static_cast<uint64_t>(t) * 1000 + i;
        if (!db->executor()
                 ->Execute(kSetProcId, SetArgs(key, "v"), 0)
                 .ok()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(db->executor()->committed(), 2000u);
  EXPECT_EQ(db->commit_log()->Size(), 2000u);
}

// ---- Database facade ---------------------------------------------------

TEST(DatabaseTest, LifecycleEnforced) {
  TempDir dir;
  Options options;
  options.checkpoint_dir = dir.path();
  std::unique_ptr<Database> db;
  ASSERT_TRUE(Database::Open(options, &db).ok());
  ASSERT_TRUE(db->Load(1, "x").ok());
  ASSERT_TRUE(db->Start().ok());
  EXPECT_TRUE(db->Load(2, "y").IsInvalidArgument());
  EXPECT_TRUE(db->Start().IsInvalidArgument());
  std::string value;
  ASSERT_TRUE(db->Read(1, &value).ok());
  EXPECT_EQ(value, "x");
}

TEST(DatabaseTest, InvalidOptionsRejected) {
  Options options;
  options.max_records = 0;
  std::unique_ptr<Database> db;
  EXPECT_TRUE(Database::Open(options, &db).IsInvalidArgument());
}

TEST(DatabaseTest, ParseAlgorithmNames) {
  CheckpointAlgorithm algo;
  EXPECT_TRUE(ParseAlgorithm("calc", &algo));
  EXPECT_EQ(algo, CheckpointAlgorithm::kCalc);
  EXPECT_TRUE(ParseAlgorithm("pCALC", &algo));
  EXPECT_EQ(algo, CheckpointAlgorithm::kPCalc);
  EXPECT_TRUE(ParseAlgorithm("Zigzag", &algo));
  EXPECT_EQ(algo, CheckpointAlgorithm::kZigzag);
  EXPECT_FALSE(ParseAlgorithm("aries", &algo));
  EXPECT_STREQ(AlgorithmName(CheckpointAlgorithm::kPIpp), "pIPP");
}

TEST(DatabaseTest, CheckpointBeforeStartRejected) {
  TempDir dir;
  Options options;
  options.checkpoint_dir = dir.path();
  std::unique_ptr<Database> db;
  ASSERT_TRUE(Database::Open(options, &db).ok());
  EXPECT_TRUE(db->Checkpoint().IsInvalidArgument());
}

}  // namespace
}  // namespace calcdb
