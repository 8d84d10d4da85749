// Crash-robustness of the durability chain: checkpoints interrupted by
// the very crash they protect against must never be loaded; the manifest
// is the source of truth; stray and torn files are harmless.

#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "log/command_log_streamer.h"
#include "log/log_reader.h"
#include "obs/event_log.h"
#include "obs/obs.h"
#include "tests/test_util.h"
#include "workload/microbench.h"

namespace calcdb {
namespace {

using testing_util::DbToMap;
using testing_util::StateMap;
using testing_util::TempDir;

Options MakeOptions(const std::string& dir) {
  Options options;
  options.max_records = 2048;
  options.algorithm = CheckpointAlgorithm::kCalc;
  options.checkpoint_dir = dir;
  options.disk_bytes_per_sec = 0;
  return options;
}

MicrobenchConfig SmallConfig() {
  MicrobenchConfig config;
  config.num_records = 300;
  config.value_size = 64;
  config.ops_per_txn = 4;
  return config;
}

/// Store contents read directly (no Start(): Start() would attach a new
/// command-log generation and change what the next recovery sees).
StateMap StoreMap(const ShardedStore& store) {
  StateMap out;
  store.ForEachRecord([&](Record* rec) {
    if (rec == nullptr || rec->key == ~uint64_t{0}) return;
    std::string value;
    if (store.Get(rec->key, &value).ok()) out[rec->key] = std::move(value);
  });
  return out;
}

/// One streamed lifetime: `before` transactions, a CALC checkpoint,
/// `after` more, clean shutdown. Returns the command-log generations.
std::vector<std::string> RunStreamedLifetime(const Options& options,
                                             const MicrobenchConfig& config,
                                             int before, int after) {
  std::unique_ptr<Database> db;
  EXPECT_TRUE(Database::Open(options, &db).ok());
  EXPECT_TRUE(SetupMicrobench(db.get(), config).ok());
  EXPECT_TRUE(db->Start().ok());
  MicrobenchWorkload workload(config);
  Rng rng(31);
  for (int i = 0; i < before + after; ++i) {
    if (i == before) {
      EXPECT_TRUE(db->Checkpoint().ok());
    }
    TxnRequest req = workload.Next(rng);
    EXPECT_TRUE(
        db->executor()->Execute(req.proc_id, std::move(req.args), 0).ok());
  }
  EXPECT_TRUE(db->Shutdown().ok());
  std::vector<std::string> files;
  EXPECT_TRUE(
      CommandLogStreamer::ListLogFiles(options.command_log_path, &files)
          .ok());
  return files;
}

/// RecoverFromCommandLog into a fresh database; fills `*state` on success.
Status RecoverFromLog(const Options& options, const MicrobenchConfig& config,
                      RecoveryStats* stats, StateMap* state) {
  std::unique_ptr<Database> db;
  CALCDB_RETURN_NOT_OK(Database::Open(options, &db));
  MicrobenchConfig reg_only = config;
  reg_only.num_records = 0;  // register procedures, load nothing
  CALCDB_RETURN_NOT_OK(SetupMicrobench(db.get(), reg_only));
  CALCDB_RETURN_NOT_OK(db->RecoverFromCommandLog(stats));
  *state = StoreMap(*db->store());
  return Status::OK();
}

/// Byte offset of the last frame of a generation file.
uint64_t LastFrameOffset(const std::string& path) {
  LogFrameReader reader;
  EXPECT_TRUE(reader.Open(path, /*block_bytes=*/0).ok());
  uint64_t start = 0, last = 0;
  LogFrame frame;
  for (bool done = false;;) {
    EXPECT_TRUE(reader.Next(&frame, &done).ok());
    if (done) break;
    last = start;
    start = frame.end_offset;
  }
  return last;
}

// A crash during capture leaves a checkpoint file without a footer and —
// crucially — without a manifest entry: Register/PersistManifest run only
// after Finish(). Recovery must restore from the previous chain.
TEST(RecoveryRobustnessTest, UnregisteredTornCheckpointIgnored) {
  TempDir dir;
  Options options = MakeOptions(dir.path());
  MicrobenchConfig config = SmallConfig();

  StateMap at_first_poc;
  {
    std::unique_ptr<Database> db;
    ASSERT_TRUE(Database::Open(options, &db).ok());
    ASSERT_TRUE(SetupMicrobench(db.get(), config).ok());
    ASSERT_TRUE(db->Start().ok());
    MicrobenchWorkload workload(config);
    Rng rng(4);
    for (int i = 0; i < 150; ++i) {
      TxnRequest req = workload.Next(rng);
      ASSERT_TRUE(
          db->executor()->Execute(req.proc_id, std::move(req.args), 0).ok());
    }
    ASSERT_TRUE(db->Checkpoint().ok());
    at_first_poc = testing_util::ReplayGroundTruth(
        *db->commit_log(),
        db->checkpoint_storage()->List().back().vpoc_lsn, options,
        [&](Database* fresh) {
          ASSERT_TRUE(SetupMicrobench(fresh, config).ok());
        });
  }

  // Simulate a crash mid-second-checkpoint: a partial file with a valid
  // header but no footer appears in the directory, unregistered.
  {
    FILE* f = fopen((dir.path() + "/ckpt_00000002.full").c_str(), "wb");
    ASSERT_NE(f, nullptr);
    fputs("CALCKPT1", f);  // magic only; truncated mid-write
    fclose(f);
  }

  std::unique_ptr<Database> recovered;
  ASSERT_TRUE(Database::Open(options, &recovered).ok());
  recovered->registry()->Register(
      std::make_unique<RmwProcedure>(config.value_size));
  recovered->registry()->Register(
      std::make_unique<BatchWriteProcedure>(config.value_size));
  RecoveryStats stats;
  ASSERT_TRUE(recovered->Recover(nullptr, &stats).ok());
  EXPECT_EQ(stats.checkpoints_loaded, 1u);  // only the registered one
  ASSERT_TRUE(recovered->Start().ok());
  EXPECT_EQ(DbToMap(recovered.get()), at_first_poc);
}

// If the manifest references a file that is itself corrupt (bit rot),
// recovery must fail loudly rather than load a wrong state.
TEST(RecoveryRobustnessTest, CorruptRegisteredCheckpointFailsLoudly) {
  TempDir dir;
  Options options = MakeOptions(dir.path());
  MicrobenchConfig config = SmallConfig();
  std::string ckpt_path;
  {
    std::unique_ptr<Database> db;
    ASSERT_TRUE(Database::Open(options, &db).ok());
    ASSERT_TRUE(SetupMicrobench(db.get(), config).ok());
    ASSERT_TRUE(db->Start().ok());
    ASSERT_TRUE(db->Checkpoint().ok());
    // files() resolves to the single legacy file or the first segment of
    // a parallel capture; corrupting either must fail recovery loudly.
    ckpt_path = db->checkpoint_storage()->List()[0].files()[0];
  }
  // Flip a byte in the middle of a registered checkpoint.
  FILE* f = fopen(ckpt_path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  fseek(f, 200, SEEK_SET);
  int c = fgetc(f);
  fseek(f, 200, SEEK_SET);
  fputc(c ^ 0x42, f);
  fclose(f);

  std::unique_ptr<Database> recovered;
  ASSERT_TRUE(Database::Open(options, &recovered).ok());
  RecoveryStats stats;
  EXPECT_TRUE(recovered->Recover(nullptr, &stats).IsCorruption());

#if CALCDB_OBS_ENABLED
  // The reader must leave an operator-visible trace: a ckpt.crc_mismatch
  // ERROR event naming the corrupt file, not just a Status return.
  bool found = false;
  for (const obs::Event& ev : obs::EventLog::Global().ring().Snapshot()) {
    if (ev.name != nullptr &&
        std::string(ev.name) == "ckpt.crc_mismatch" &&
        std::string(ev.detail).find(ckpt_path) != std::string::npos) {
      found = true;
    }
  }
  EXPECT_TRUE(found)
      << "expected a ckpt.crc_mismatch event naming " << ckpt_path;
#endif
}

// A registered segmented checkpoint with one torn segment is a crash
// artifact, not bit rot: recovery must reject the whole checkpoint (all
// segment footers durable or nothing) and restore from the previous
// chain instead of failing or loading a partial slice of the keyspace.
TEST(RecoveryRobustnessTest, TornSegmentFallsBackToPreviousCheckpoint) {
  TempDir dir;
  Options options = MakeOptions(dir.path());
  options.capture_threads = 4;
  options.storage_shards = 4;  // force segmented capture
  MicrobenchConfig config = SmallConfig();

  StateMap at_first_poc;
  std::vector<std::string> second_segments;
  {
    std::unique_ptr<Database> db;
    ASSERT_TRUE(Database::Open(options, &db).ok());
    ASSERT_TRUE(SetupMicrobench(db.get(), config).ok());
    ASSERT_TRUE(db->Start().ok());
    MicrobenchWorkload workload(config);
    Rng rng(11);
    for (int i = 0; i < 120; ++i) {
      TxnRequest req = workload.Next(rng);
      ASSERT_TRUE(
          db->executor()->Execute(req.proc_id, std::move(req.args), 0).ok());
    }
    ASSERT_TRUE(db->Checkpoint().ok());
    at_first_poc = testing_util::ReplayGroundTruth(
        *db->commit_log(),
        db->checkpoint_storage()->List().back().vpoc_lsn, options,
        [&](Database* fresh) {
          ASSERT_TRUE(SetupMicrobench(fresh, config).ok());
        });
    for (int i = 0; i < 120; ++i) {
      TxnRequest req = workload.Next(rng);
      ASSERT_TRUE(
          db->executor()->Execute(req.proc_id, std::move(req.args), 0).ok());
    }
    ASSERT_TRUE(db->Checkpoint().ok());
    second_segments = db->checkpoint_storage()->List().back().segments;
  }
  // Segment layout: one per shard.
  ASSERT_EQ(second_segments.size(), 4u);

  // Truncate one segment of the newest checkpoint mid-record.
  const std::string& victim = second_segments[1];
  struct stat st;
  ASSERT_EQ(stat(victim.c_str(), &st), 0);
  ASSERT_GT(st.st_size, 64);
  ASSERT_EQ(truncate(victim.c_str(), st.st_size / 2), 0);

  std::unique_ptr<Database> recovered;
  ASSERT_TRUE(Database::Open(options, &recovered).ok());
  recovered->registry()->Register(
      std::make_unique<RmwProcedure>(config.value_size));
  recovered->registry()->Register(
      std::make_unique<BatchWriteProcedure>(config.value_size));
  RecoveryStats stats;
  ASSERT_TRUE(recovered->Recover(nullptr, &stats).ok());
  EXPECT_EQ(stats.checkpoints_rejected, 1u);
  EXPECT_EQ(stats.checkpoints_loaded, 1u);
  EXPECT_EQ(stats.replay_from_lsn,
            recovered->checkpoint_storage()->List().front().vpoc_lsn);
  ASSERT_TRUE(recovered->Start().ok());
  EXPECT_EQ(DbToMap(recovered.get()), at_first_poc);
}

// Replaying with zero checkpoints restores the full history, including
// LSN 0.
TEST(RecoveryRobustnessTest, NoCheckpointReplaysFromLsnZero) {
  TempDir dir;
  Options options = MakeOptions(dir.path() + "/ckpt");
  MicrobenchConfig config = SmallConfig();
  StateMap pre_crash;
  std::string log_path = dir.path() + "/log";
  {
    std::unique_ptr<Database> db;
    ASSERT_TRUE(Database::Open(options, &db).ok());
    ASSERT_TRUE(SetupMicrobench(db.get(), config).ok());
    ASSERT_TRUE(db->Start().ok());
    MicrobenchWorkload workload(config);
    Rng rng(8);
    for (int i = 0; i < 60; ++i) {
      TxnRequest req = workload.Next(rng);
      ASSERT_TRUE(
          db->executor()->Execute(req.proc_id, std::move(req.args), 0).ok());
    }
    pre_crash = DbToMap(db.get());
    ASSERT_TRUE(db->commit_log()->PersistTo(log_path).ok());
  }
  // Recovery with no checkpoint directory content: the initial Load is
  // re-done by the operator (here: SetupMicrobench), then the log
  // replays in full.
  std::unique_ptr<Database> recovered;
  ASSERT_TRUE(Database::Open(options, &recovered).ok());
  ASSERT_TRUE(SetupMicrobench(recovered.get(), config).ok());
  CommitLog replay_log;
  ASSERT_TRUE(replay_log.LoadFrom(log_path).ok());
  RecoveryStats stats;
  ASSERT_TRUE(RecoveryManager::ReplayLog(replay_log,
                                         *recovered->registry(),
                                         recovered->store(), &stats)
                  .ok());
  EXPECT_EQ(stats.txns_replayed, 60u);
  ASSERT_TRUE(recovered->Start().ok());
  EXPECT_EQ(DbToMap(recovered.get()), pre_crash);
}

// The collapse crash-safety contract (paper §2.3.1): inputs are retired
// only after the merged checkpoint is durable, so a crash at any point
// leaves a loadable chain.
TEST(RecoveryRobustnessTest, CrashBeforeCollapseCommitKeepsInputs) {
  TempDir dir;
  Options options = MakeOptions(dir.path());
  options.algorithm = CheckpointAlgorithm::kPCalc;
  MicrobenchConfig config = SmallConfig();
  std::unique_ptr<Database> db;
  ASSERT_TRUE(Database::Open(options, &db).ok());
  ASSERT_TRUE(SetupMicrobench(db.get(), config).ok());
  ASSERT_TRUE(db->WriteBaseCheckpoint().ok());
  ASSERT_TRUE(db->Start().ok());
  MicrobenchWorkload workload(config);
  Rng rng(5);
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 50; ++i) {
      TxnRequest req = workload.Next(rng);
      ASSERT_TRUE(
          db->executor()->Execute(req.proc_id, std::move(req.args), 0).ok());
    }
    ASSERT_TRUE(db->Checkpoint().ok());
  }
  // Simulate "merged file written but crash before ReplaceCollapsed":
  // write the merged artifact manually; don't touch the manifest.
  std::vector<CheckpointInfo> chain_before =
      db->checkpoint_storage()->RecoveryChain();
  ASSERT_EQ(chain_before.size(), 4u);  // base + 3 partials
  // Recovery from the untouched manifest still sees the full chain.
  StateMap pre = DbToMap(db.get());
  uint64_t last_vpoc = chain_before.back().vpoc_lsn;
  StateMap expected = testing_util::ReplayGroundTruth(
      *db->commit_log(), last_vpoc, options, [&](Database* fresh) {
        ASSERT_TRUE(SetupMicrobench(fresh, config).ok());
      });
  StateMap loaded;
  ASSERT_TRUE(testing_util::ChainToMap(chain_before, &loaded).ok());
  EXPECT_EQ(loaded, expected);
  (void)pre;
}

// Recovery validates every generation before it replays anything, so a
// damaged frame in the region the anchor rule retires (commits the
// checkpoint already covers) still fails loudly — and the store sees no
// replay at all.
TEST(RecoveryRobustnessTest, CorruptFrameInSkippedRegionFailsRecovery) {
  TempDir dir;
  Options options = MakeOptions(dir.path() + "/ckpt");
  options.command_log_path = dir.path() + "/cmdlog";
  MicrobenchConfig config = SmallConfig();
  std::vector<std::string> files =
      RunStreamedLifetime(options, config, /*before=*/40, /*after=*/30);
  ASSERT_EQ(files.size(), 1u);

  // Undamaged, the first 40 commits are retired (skipped), 30 replay.
  RecoveryStats clean;
  StateMap state;
  ASSERT_TRUE(RecoverFromLog(options, config, &clean, &state).ok());
  ASSERT_EQ(clean.generations.size(), 1u);
  EXPECT_EQ(clean.generations[0].skipped, 40u);
  EXPECT_EQ(clean.generations[0].replayed, 30u);

  // Flip one payload byte of the very first frame: a pre-anchor commit.
  {
    std::FILE* f = std::fopen(files[0].c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, 8 + 3, SEEK_SET), 0);
    int c = std::fgetc(f);
    ASSERT_NE(c, EOF);
    ASSERT_EQ(std::fseek(f, 8 + 3, SEEK_SET), 0);
    std::fputc(c ^ 0x5a, f);
    std::fclose(f);
  }
  RecoveryStats damaged;
  Status st = RecoverFromLog(options, config, &damaged, &state);
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
  EXPECT_EQ(damaged.checkpoints_loaded, 1u);
  EXPECT_EQ(damaged.txns_replayed, 0u);
  EXPECT_TRUE(damaged.generations.empty());
}

// A torn final frame in the anchor generation (crash mid-append) ends
// the log: recovery replays the complete prefix after the anchor, exactly
// as if the torn frame had never been written.
TEST(RecoveryRobustnessTest, TornTailInAnchorGenerationReplaysPrefix) {
  TempDir dir;
  Options options = MakeOptions(dir.path() + "/ckpt");
  options.command_log_path = dir.path() + "/cmdlog";
  MicrobenchConfig config = SmallConfig();
  std::vector<std::string> files =
      RunStreamedLifetime(options, config, /*before=*/25, /*after=*/20);
  ASSERT_EQ(files.size(), 1u);
  uint64_t last = LastFrameOffset(files[0]);
  ASSERT_GT(testing_util::FileSize(files[0]), last + 8 + 8);

  // Torn inside the header, then inside the payload, then cut cleanly at
  // the frame boundary: all three recover the same state and stats.
  const uint64_t cuts[] = {last + 5, last + 8 + 8, last};
  std::vector<StateMap> states(3);
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(::truncate(files[0].c_str(), static_cast<off_t>(cuts[i])), 0);
    RecoveryStats stats;
    ASSERT_TRUE(RecoverFromLog(options, config, &stats, &states[i]).ok())
        << "cut " << i;
    ASSERT_EQ(stats.generations.size(), 1u);
    EXPECT_EQ(stats.generations[0].skipped, 25u) << "cut " << i;
    EXPECT_EQ(stats.generations[0].replayed, 19u) << "cut " << i;
    EXPECT_EQ(stats.txns_replayed, 19u) << "cut " << i;
  }
  EXPECT_EQ(states[0], states[2]);
  EXPECT_EQ(states[1], states[2]);
}

}  // namespace
}  // namespace calcdb
