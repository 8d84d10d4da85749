// Tests for the command-log streamer: continuous persistence, torn-tail
// tolerance, and end-to-end streamed recovery through the Database facade.

#include <atomic>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "log/command_log_streamer.h"
#include "log/log_reader.h"
#include "tests/test_util.h"
#include "util/throttled_file.h"
#include "workload/microbench.h"

namespace calcdb {
namespace {

using testing_util::DbToMap;
using testing_util::TempDir;

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

TEST(CommandLogStreamerTest, StreamsAndDrainsOnStop) {
  TempDir dir;
  std::string path = dir.path() + "/stream";
  CommitLog log;
  CommandLogStreamer streamer(&log);
  ASSERT_TRUE(streamer.Start(path, /*flush_interval_ms=*/1).ok());

  for (int i = 0; i < 500; ++i) {
    log.AppendCommit(static_cast<uint64_t>(i), 7,
                     "args" + std::to_string(i));
  }
  // Wait for the background flusher to catch up.
  for (int tries = 0; tries < 500 && streamer.persisted_lsn() < 500;
       ++tries) {
    SleepMicros(2000);
  }
  EXPECT_GE(streamer.persisted_lsn(), 1u);  // streamed while running
  log.AppendCommit(999, 7, "tail");
  ASSERT_TRUE(streamer.Stop().ok());
  EXPECT_EQ(streamer.persisted_lsn(), 501u);  // drained on stop

  // The streamer writes a generation file, never the bare base path.
  EXPECT_EQ(streamer.active_path(), path + ".000001");
  CommitLog loaded;
  ASSERT_TRUE(loaded.LoadFrom(streamer.active_path()).ok());
  ASSERT_EQ(loaded.Size(), 501u);
  EXPECT_EQ(loaded.Entry(0).args, "args0");
  EXPECT_EQ(loaded.Entry(500).txn_id, 999u);
}

TEST(CommandLogStreamerTest, StreamsPhaseTokensToo) {
  TempDir dir;
  std::string path = dir.path() + "/stream";
  CommitLog log;
  CommandLogStreamer streamer(&log);
  ASSERT_TRUE(streamer.Start(path, 1).ok());
  log.AppendCommit(1, 2, "a");
  log.AppendPhaseTransition(Phase::kResolve, 5);
  log.AppendCommit(2, 2, "b");
  ASSERT_TRUE(streamer.Stop().ok());
  CommitLog loaded;
  ASSERT_TRUE(loaded.LoadFrom(streamer.active_path()).ok());
  ASSERT_EQ(loaded.Size(), 3u);
  EXPECT_EQ(loaded.Entry(1).type, LogEntry::Type::kPhaseTransition);
  EXPECT_EQ(loaded.VpocCount(), 0u);  // count rebuilt only via appends
  uint64_t lsn;
  EXPECT_TRUE(loaded.FindPhaseToken(5, Phase::kResolve, &lsn));
  EXPECT_EQ(lsn, 1u);
}

TEST(CommandLogStreamerTest, TornTailDiscardedOnLoad) {
  TempDir dir;
  std::string path = dir.path() + "/stream";
  CommitLog log;
  log.AppendCommit(1, 2, "complete-entry");
  log.AppendCommit(2, 2, "will-be-torn");
  ASSERT_TRUE(log.PersistTo(path).ok());

  // Tear the final entry: crash mid-append.
  FILE* f = fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  fseek(f, 0, SEEK_END);
  long size = ftell(f);
  fclose(f);
  ASSERT_EQ(truncate(path.c_str(), size - 5), 0);

  CommitLog loaded;
  ASSERT_TRUE(loaded.LoadFrom(path).ok());
  ASSERT_EQ(loaded.Size(), 1u);
  EXPECT_EQ(loaded.Entry(0).args, "complete-entry");
}

TEST(CommandLogStreamerTest, LargeGenerationNumbersRoundTrip) {
  TempDir dir;
  std::string path = dir.path() + "/stream";
  // %06llu is a minimum width, not a cap: a 12-digit generation must
  // produce a path that round-trips through the scan untruncated.
  std::string big = CommandLogStreamer::GenerationPath(path, 123456789012ull);
  EXPECT_EQ(big, path + ".123456789012");
  { std::ofstream(big) << "keep"; }
  // Suffixes GenerationPath cannot produce are ignored, not half-parsed:
  // out-of-bound numbers, sign characters, trailing junk.
  { std::ofstream(path + ".99999999999999999999") << "x"; }
  { std::ofstream(path + ".+5") << "x"; }
  { std::ofstream(path + ".12junk") << "x"; }
  std::vector<std::string> files;
  ASSERT_TRUE(CommandLogStreamer::ListLogFiles(path, &files).ok());
  ASSERT_EQ(files.size(), 1u);
  EXPECT_EQ(files[0], big);

  // Start picks max+1 of the accepted generations and never touches the
  // existing file.
  CommitLog log;
  CommandLogStreamer streamer(&log);
  ASSERT_TRUE(streamer.Start(path, 5).ok());
  EXPECT_EQ(streamer.active_path(), path + ".123456789013");
  ASSERT_TRUE(streamer.Stop().ok());
  std::ifstream in(big);
  std::string contents;
  in >> contents;
  EXPECT_EQ(contents, "keep");
}

TEST(CommandLogStreamerTest, ExclusiveCreateNeverTruncates) {
  TempDir dir;
  std::string path = dir.path() + "/f";
  { std::ofstream(path) << "precious"; }
  // The streamer opens its generation with O_EXCL semantics: even if the
  // generation scan chose an existing file, it cannot be clobbered.
  ThrottledFileWriter writer;
  Status st = writer.Open(path, /*budget=*/nullptr, /*exclusive=*/true);
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(st.IsIOError()) << st.ToString();
  std::ifstream in(path);
  std::string contents;
  in >> contents;
  EXPECT_EQ(contents, "precious");
}

TEST(CommandLogStreamerTest, UnlistableLogDirFailsInsteadOfClobbering) {
  TempDir dir;
  // The base path's directory component is a regular file: opendir fails
  // with ENOTDIR (not ENOENT). Treating that as "no generations" could
  // reuse generation 1 and clobber an existing file, so both the scan
  // and Start must fail loudly instead.
  std::string notadir = dir.path() + "/notadir";
  { std::ofstream(notadir) << "file"; }
  std::string base = notadir + "/stream";
  std::vector<std::string> files;
  EXPECT_FALSE(CommandLogStreamer::ListLogFiles(base, &files).ok());
  CommitLog log;
  CommandLogStreamer streamer(&log);
  EXPECT_FALSE(streamer.Start(base, 5).ok());
  EXPECT_FALSE(streamer.running());
  EXPECT_TRUE(streamer.Stop().ok());  // failed Start leaves a clean stop
  // A missing directory stays a soft "no generations yet".
  ASSERT_TRUE(CommandLogStreamer::ListLogFiles(
                  dir.path() + "/nosuchdir/stream", &files)
                  .ok());
  EXPECT_TRUE(files.empty());
}

TEST(CommandLogStreamerTest, DoubleStartRejected) {
  TempDir dir;
  CommitLog log;
  CommandLogStreamer streamer(&log);
  ASSERT_TRUE(streamer.Start(dir.path() + "/s1", 5).ok());
  EXPECT_FALSE(streamer.Start(dir.path() + "/s2", 5).ok());
  EXPECT_TRUE(streamer.Stop().ok());
  EXPECT_TRUE(streamer.Stop().ok());  // idempotent
}

// Truncation only affects memory: the generation file a truncating
// streamer writes is byte-identical to PersistTo of an untruncated twin.
TEST(CommandLogStreamerTest, TruncatedGenerationMatchesPersistTo) {
  TempDir dir;
  CommitLog log, twin;
  CommandLogStreamer streamer(&log);
  ASSERT_TRUE(streamer.Start(dir.path() + "/stream", 1).ok());
  const uint64_t kEntries = 4 * CommitLog::kChunkSlots;
  for (uint64_t i = 0; i < kEntries; ++i) {
    if (i % 1000 == 0) {
      uint64_t vpoc = log.AppendPhaseTransition(Phase::kResolve, i + 1);
      twin.AppendPhaseTransition(Phase::kResolve, i + 1);
      log.AdvanceRetentionHorizon(vpoc);
    } else {
      std::string args(i % 61, static_cast<char>('a' + i % 26));
      log.AppendCommit(i, 3, args);
      twin.AppendCommit(i, 3, args);
    }
  }
  ASSERT_TRUE(streamer.Stop().ok());
  EXPECT_GT(log.FirstRetainedLsn(), 0u);
  const std::string persisted = dir.path() + "/persisted";
  ASSERT_TRUE(twin.PersistTo(persisted).ok());
  EXPECT_EQ(ReadFile(streamer.active_path()), ReadFile(persisted));
}

// The registration durability barrier: a checkpoint may enter the
// manifest only after its RESOLVE token's flush batch is fsynced.
// Without the barrier, Checkpoint() returns within a flush interval of
// appending the token, and a crash in that window leaves a registered
// checkpoint whose token is in no generation — recovery's anchor rule
// would then silently skip later lifetimes' durable commits.
TEST(StreamedRecoveryTest, CheckpointRegistrationWaitsForTokenDurability) {
  TempDir dir;
  MicrobenchConfig config;
  config.num_records = 100;
  config.value_size = 32;
  config.ops_per_txn = 3;

  Options options;
  options.max_records = 512;
  options.algorithm = CheckpointAlgorithm::kCalc;
  options.checkpoint_dir = dir.path() + "/ckpt";
  options.disk_bytes_per_sec = 0;
  options.command_log_path = dir.path() + "/commandlog";
  // A flush interval far longer than a checkpoint cycle: when the cycle
  // reaches registration, nothing it logged is durable yet, so only the
  // barrier can make the postcondition below hold.
  options.command_log_flush_ms = 250;

  std::unique_ptr<Database> db;
  ASSERT_TRUE(Database::Open(options, &db).ok());
  ASSERT_TRUE(SetupMicrobench(db.get(), config).ok());
  ASSERT_TRUE(db->Start().ok());
  MicrobenchWorkload workload(config);
  Rng rng(7);
  for (int i = 0; i < 50; ++i) {
    TxnRequest req = workload.Next(rng);
    ASSERT_TRUE(
        db->executor()->Execute(req.proc_id, std::move(req.args), 0).ok());
  }
  ASSERT_TRUE(db->Checkpoint().ok());
  std::vector<CheckpointInfo> chain =
      db->checkpoint_storage()->RecoveryChain();
  ASSERT_EQ(chain.size(), 1u);
  // The token at vpoc_lsn is durable before the cycle returned.
  EXPECT_GT(db->command_log_streamer()->persisted_lsn(),
            chain[0].vpoc_lsn);
}

TEST(StreamedRecoveryTest, DatabaseRecoversFromStreamedLog) {
  TempDir dir;
  MicrobenchConfig config;
  config.num_records = 300;
  config.value_size = 64;
  config.ops_per_txn = 5;

  Options options;
  options.max_records = 1024;
  options.algorithm = CheckpointAlgorithm::kCalc;
  options.checkpoint_dir = dir.path() + "/ckpt";
  options.disk_bytes_per_sec = 0;
  options.command_log_path = dir.path() + "/commandlog";
  options.command_log_flush_ms = 1;

  testing_util::StateMap pre_crash;
  {
    std::unique_ptr<Database> db;
    ASSERT_TRUE(Database::Open(options, &db).ok());
    ASSERT_TRUE(SetupMicrobench(db.get(), config).ok());
    ASSERT_TRUE(db->Start().ok());
    ASSERT_NE(db->command_log_streamer(), nullptr);

    MicrobenchWorkload workload(config);
    Rng rng(5);
    for (int i = 0; i < 200; ++i) {
      TxnRequest req = workload.Next(rng);
      ASSERT_TRUE(
          db->executor()->Execute(req.proc_id, std::move(req.args), 0).ok());
    }
    ASSERT_TRUE(db->Checkpoint().ok());
    for (int i = 0; i < 150; ++i) {
      TxnRequest req = workload.Next(rng);
      ASSERT_TRUE(
          db->executor()->Execute(req.proc_id, std::move(req.args), 0).ok());
    }
    pre_crash = DbToMap(db.get());
    // Graceful shutdown flushes the streamed log; the Database destructor
    // would do the same.
    ASSERT_TRUE(db->Shutdown().ok());
  }

  std::unique_ptr<Database> recovered;
  ASSERT_TRUE(Database::Open(options, &recovered).ok());
  recovered->registry()->Register(
      std::make_unique<RmwProcedure>(config.value_size));
  recovered->registry()->Register(
      std::make_unique<BatchWriteProcedure>(config.value_size));
  RecoveryStats stats;
  ASSERT_TRUE(recovered->RecoverFromCommandLog(&stats).ok());
  EXPECT_GT(stats.txns_replayed, 0u);
  EXPECT_EQ(stats.log_generations_replayed, 1u);
  // Start() opens the *next* generation instead of truncating the one
  // just replayed (the restart-clobber fix): the pre-crash tail stays on
  // disk until a post-restart checkpoint covers it.
  EXPECT_TRUE(recovered->Start().ok());
  std::vector<std::string> generations;
  ASSERT_TRUE(CommandLogStreamer::ListLogFiles(options.command_log_path,
                                               &generations)
                  .ok());
  ASSERT_EQ(generations.size(), 2u);
  EXPECT_EQ(recovered->command_log_streamer()->active_path(),
            generations[1]);
  EXPECT_EQ(DbToMap(recovered.get()), pre_crash);
}

// Soak: CALC cycles back to back under three concurrent workers with the
// streamer truncating behind every registered checkpoint. The in-memory
// log stays bounded by one cycle's entries, and recovery from the
// streamed generations still reproduces the live store exactly.
TEST(StreamedRecoveryTest, TruncationSoakBoundsLogAndRecoversExactly) {
  TempDir dir;
  MicrobenchConfig config;
  config.num_records = 400;
  config.value_size = 32;
  config.ops_per_txn = 4;

  Options options;
  options.max_records = 1024;
  options.algorithm = CheckpointAlgorithm::kCalc;
  options.checkpoint_dir = dir.path() + "/ckpt";
  options.disk_bytes_per_sec = 0;
  options.command_log_path = dir.path() + "/commandlog";
  options.command_log_flush_ms = 1;

  constexpr int kCycles = 20;
  constexpr uint64_t kEntriesPerCycle = 600;
  testing_util::StateMap live;
  {
    std::unique_ptr<Database> db;
    ASSERT_TRUE(Database::Open(options, &db).ok());
    ASSERT_TRUE(SetupMicrobench(db.get(), config).ok());
    // The base checkpoint's short-lived flush streamer drops nothing.
    ASSERT_TRUE(db->WriteBaseCheckpoint().ok());
    ASSERT_TRUE(db->Start().ok());
    const CommitLog* log = db->commit_log();
    EXPECT_EQ(log->FirstRetainedLsn(), 0u);

    std::atomic<bool> stop{false};
    std::vector<std::thread> workers;
    for (int w = 0; w < 3; ++w) {
      workers.emplace_back([&, w] {
        MicrobenchWorkload workload(config);
        Rng rng(100 + w);
        while (!stop.load(std::memory_order_acquire)) {
          TxnRequest req = workload.Next(rng);
          EXPECT_TRUE(db->executor()
                          ->Execute(req.proc_id, std::move(req.args), 0)
                          .ok());
        }
      });
    }
    uint64_t prev_vpoc = 0;
    for (int cycle = 0; cycle < kCycles; ++cycle) {
      const uint64_t start = log->Size();
      for (int i = 0; i < 20000 && log->Size() < start + kEntriesPerCycle;
           ++i) {
        SleepMicros(250);
      }
      ASSERT_TRUE(db->Checkpoint().ok());
      // Retained is read before Size: the bound holds at any later Size.
      const uint64_t retained = log->RetainedEntries();
      const uint64_t size = log->Size();
      EXPECT_LE(retained, size - prev_vpoc + CommitLog::kChunkSlots)
          << "cycle " << cycle;
      prev_vpoc = db->checkpoint_storage()->List().back().vpoc_lsn;
    }
    stop.store(true, std::memory_order_release);
    for (auto& t : workers) t.join();
    EXPECT_GT(log->FirstRetainedLsn(), 0u);
    live = DbToMap(db.get());
    ASSERT_TRUE(db->Shutdown().ok());

    // Every generation still starts at LSN 0: the running lifetime's
    // generation holds every entry the log ever appended.
    std::vector<std::string> generations;
    ASSERT_TRUE(CommandLogStreamer::ListLogFiles(options.command_log_path,
                                                 &generations)
                    .ok());
    ASSERT_EQ(generations.size(), 2u);  // base-checkpoint flush + lifetime
    LogScan scan;
    ASSERT_TRUE(ScanLogFile(generations.back(), 0, &scan).ok());
    EXPECT_EQ(scan.entries, log->Size());
  }

  std::unique_ptr<Database> recovered;
  ASSERT_TRUE(Database::Open(options, &recovered).ok());
  recovered->registry()->Register(
      std::make_unique<RmwProcedure>(config.value_size));
  recovered->registry()->Register(
      std::make_unique<BatchWriteProcedure>(config.value_size));
  RecoveryStats stats;
  ASSERT_TRUE(recovered->RecoverFromCommandLog(&stats).ok());
  EXPECT_GT(stats.txns_replayed, 0u);
  EXPECT_EQ(DbToMap(recovered.get()), live);
}

// Without a streamer the in-memory log is the only command log: however
// many checkpoints register, nothing is dropped and PersistTo still
// writes the log from LSN 0.
TEST(StreamedRecoveryTest, NonStreamingLogKeepsEverything) {
  TempDir dir;
  MicrobenchConfig config;
  config.num_records = 200;
  config.value_size = 32;
  config.ops_per_txn = 3;

  Options options;
  options.max_records = 512;
  options.algorithm = CheckpointAlgorithm::kCalc;
  options.checkpoint_dir = dir.path() + "/ckpt";
  options.disk_bytes_per_sec = 0;

  std::unique_ptr<Database> db;
  ASSERT_TRUE(Database::Open(options, &db).ok());
  ASSERT_TRUE(SetupMicrobench(db.get(), config).ok());
  ASSERT_TRUE(db->Start().ok());
  MicrobenchWorkload workload(config);
  Rng rng(3);
  for (int cycle = 0; cycle < 4; ++cycle) {
    for (uint32_t i = 0; i < 2 * CommitLog::kChunkSlots; ++i) {
      TxnRequest req = workload.Next(rng);
      ASSERT_TRUE(
          db->executor()->Execute(req.proc_id, std::move(req.args), 0).ok());
    }
    ASSERT_TRUE(db->Checkpoint().ok());
  }
  const CommitLog* log = db->commit_log();
  EXPECT_EQ(log->FirstRetainedLsn(), 0u);
  EXPECT_EQ(log->RetainedEntries(), log->Size());
  const std::string path = dir.path() + "/persisted";
  ASSERT_TRUE(log->PersistTo(path).ok());
  CommitLog loaded;
  ASSERT_TRUE(loaded.LoadFrom(path).ok());
  ASSERT_EQ(loaded.Size(), log->Size());
  EXPECT_EQ(loaded.CommitCount(), log->CommitCount());
  LogEntry first = loaded.Entry(0), want = log->Entry(0);
  EXPECT_EQ(first.type, want.type);
  EXPECT_EQ(first.args, want.args);
}

}  // namespace
}  // namespace calcdb
