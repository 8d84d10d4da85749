// Fault-injection unit tests: registry sanity, the mechanical sync
// between the crash-point registry and docs/DURABILITY.md's survival
// table, and — with probes enabled — error-mode injection at every IO
// site, verifying the injected Status propagates to a caller (no silent
// success) and that background paths surface it via BackgroundStatus().

#include <fstream>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include <cstdlib>

#include "checkpoint/merger.h"
#include "gtest/gtest.h"
#include "obs/event_log.h"
#include "obs/obs.h"
#include "tests/test_util.h"
#include "tests/torture/bank_workload.h"
#include "util/clock.h"
#include "util/fault_injection.h"
#include "workload/microbench.h"

#ifndef CALCDB_REPO_ROOT
#define CALCDB_REPO_ROOT "."
#endif

namespace calcdb {
namespace {

using testing_util::TempDir;
using torture::kTransferProcId;
using torture::SetupBank;
using torture::TransferProcedure;
using torture::TransferStream;

std::set<std::string> RegistryNames() {
  size_t count = 0;
  const fault::FaultPointInfo* points = fault::RegisteredPoints(&count);
  std::set<std::string> names;
  for (size_t i = 0; i < count; ++i) names.insert(points[i].name);
  return names;
}

TEST(FaultRegistry, NamesAreUniqueAndDescribed) {
  size_t count = 0;
  const fault::FaultPointInfo* points = fault::RegisteredPoints(&count);
  ASSERT_GT(count, 0u);
  std::set<std::string> seen;
  for (size_t i = 0; i < count; ++i) {
    EXPECT_TRUE(seen.insert(points[i].name).second)
        << "duplicate crash point " << points[i].name;
    EXPECT_NE(points[i].site[0], '\0')
        << points[i].name << " has an empty site description";
  }
  EXPECT_TRUE(fault::IsRegistered("ckpt_file.header"));
  EXPECT_FALSE(fault::IsRegistered("no.such.point"));
}

/// docs/DURABILITY.md's survival table and the registry must list
/// exactly the same crash points, in both directions: a probe without a
/// documented contract is as bad as a documented contract without a
/// probe. Table rows look like `| `point.name` | ... |`.
TEST(DurabilityDoc, SurvivalTableMatchesRegistry) {
  std::ifstream doc(std::string(CALCDB_REPO_ROOT) + "/docs/DURABILITY.md");
  ASSERT_TRUE(doc.is_open()) << "docs/DURABILITY.md missing";
  std::set<std::string> documented;
  std::string line;
  while (std::getline(doc, line)) {
    if (line.rfind("| `", 0) != 0) continue;
    size_t open = line.find('`');
    size_t close = line.find('`', open + 1);
    if (close == std::string::npos) continue;
    documented.insert(line.substr(open + 1, close - open - 1));
  }
  std::set<std::string> registered = RegistryNames();
  for (const std::string& name : registered) {
    EXPECT_TRUE(documented.count(name))
        << "crash point " << name
        << " is not documented in docs/DURABILITY.md's survival table";
  }
  for (const std::string& name : documented) {
    EXPECT_TRUE(registered.count(name))
        << "docs/DURABILITY.md documents " << name
        << ", which is not a registered crash point";
  }
}

#if CALCDB_FAULTS_ENABLED

/// Error-mode injections arm process-global state; always disarm so a
/// failing assertion can't leak a pending fault into later tests.
class FaultInjectionTest : public ::testing::Test {
 protected:
  void TearDown() override { fault::Disarm(); }

  /// A started CALC database with a seeded bank and a few executed
  /// transfers (so checkpoints have content).
  void OpenBankDb(const TempDir& dir, std::unique_ptr<Database>* db,
                  CheckpointAlgorithm algo, int capture_threads,
                  bool with_streamer = false, bool base_checkpoint = false,
                  int storage_shards = 0) {
    Options options;
    options.max_records = 128;
    options.algorithm = algo;
    options.checkpoint_dir = dir.path() + "/ckpt";
    options.disk_bytes_per_sec = 0;
    options.capture_threads = capture_threads;
    options.storage_shards = storage_shards;
    if (with_streamer) {
      options.command_log_path = dir.path() + "/commandlog";
      options.command_log_flush_ms = 1;
    }
    ASSERT_TRUE(Database::Open(options, db).ok());
    (*db)->registry()->Register(std::make_unique<TransferProcedure>());
    ASSERT_TRUE(SetupBank(db->get(), 16).ok());
    if (base_checkpoint) {
      ASSERT_TRUE((*db)->WriteBaseCheckpoint().ok());
    }
    ASSERT_TRUE((*db)->Start().ok());
    TransferStream stream(3, 16);
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE((*db)
                      ->executor()
                      ->Execute(kTransferProcId, stream.NextArgs(), 0)
                      .ok());
    }
  }
};

/// Every foreground checkpoint IO site: the injected IOError must reach
/// the Checkpoint() caller — a checkpoint that silently "succeeds" after
/// a failed write would claim durability it does not have.
TEST_F(FaultInjectionTest, CheckpointIoErrorsPropagate) {
  const char* points[] = {
      "ckpt_file.header", "ckpt_file.body",  "ckpt_file.block",
      "ckpt_file.footer", "ckpt_file.fsync", "ckpt.register",
      "manifest.write",   "manifest.rename",
  };
  for (const char* point : points) {
    SCOPED_TRACE(point);
    TempDir dir;
    std::unique_ptr<Database> db;
    OpenBankDb(dir, &db, CheckpointAlgorithm::kCalc, /*capture_threads=*/1);
    fault::ArmError(point);
    Status st = db->Checkpoint();
    ASSERT_FALSE(st.ok());
    EXPECT_TRUE(st.IsIOError()) << st.ToString();
    EXPECT_NE(st.ToString().find("injected fault"), std::string::npos)
        << st.ToString();
    // The foreground error is not a background failure...
    EXPECT_TRUE(db->BackgroundStatus().ok());
    // ...and injection is single-shot: the engine recovers, the next
    // cycle succeeds without disarming.
    EXPECT_TRUE(db->Checkpoint().ok()) << point;
  }
}

TEST_F(FaultInjectionTest, SegmentFinishErrorPropagates) {
  TempDir dir;
  std::unique_ptr<Database> db;
  OpenBankDb(dir, &db, CheckpointAlgorithm::kCalc, /*capture_threads=*/2,
             /*with_streamer=*/false, /*base_checkpoint=*/false,
             /*storage_shards=*/2);
  fault::ArmError("ckpt.segment.finish");
  Status st = db->Checkpoint();
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.IsIOError()) << st.ToString();
  EXPECT_TRUE(db->Checkpoint().ok());
}

class FailedCaptureTest
    : public FaultInjectionTest,
      public ::testing::WithParamInterface<
          std::tuple<CheckpointAlgorithm, std::string>> {};

/// A failed capture registers nothing, and the writes of its period must
/// still reach the checkpoints after it. IPP and full Fuzzy fold dirty
/// records into a resident snapshot while they scan, and a partial chain
/// holds a record only if some registered partial captured it, so the
/// failed cycle's dirty records have to pass to the next cycle. Period A
/// writes keys 0-15 and its capture fails, after the scan
/// (ckpt.segment.finish) or in the middle of it (the third entry);
/// period B rewrites keys 0-7, period C writes keys 16-19. The chain
/// after each later checkpoint must equal the live state.
TEST_P(FailedCaptureTest, NextCheckpointsHoldTheFailedPeriod) {
  const auto [algo, point] = GetParam();
  TempDir dir;
  Options options;
  options.max_records = 128;
  options.algorithm = algo;
  options.checkpoint_dir = dir.path() + "/ckpt";
  options.disk_bytes_per_sec = 0;
  options.storage_shards = 1;
  options.capture_threads = 1;
  std::unique_ptr<Database> db;
  ASSERT_TRUE(Database::Open(options, &db).ok());
  MicrobenchConfig config;
  config.num_records = 32;
  config.value_size = 16;
  ASSERT_TRUE(SetupMicrobench(db.get(), config).ok());
  ASSERT_TRUE(db->WriteBaseCheckpoint().ok());
  ASSERT_TRUE(db->Start().ok());
  auto write = [&](uint64_t first, uint64_t last) {
    for (uint64_t key = first; key <= last; ++key) {
      ASSERT_TRUE(db->executor()
                      ->Execute(kRmwProcId, RmwProcedure::MakeArgs(&key, 1),
                                0)
                      .ok());
    }
  };
  auto chain_state = [&] {
    testing_util::StateMap state;
    EXPECT_TRUE(testing_util::ChainToMap(
                    db->checkpoint_storage()->RecoveryChain(), &state)
                    .ok());
    return state;
  };

  write(0, 15);
  fault::ArmError(point.c_str(), point == "ckpt_file.body" ? 3 : 1);
  const size_t registered = db->checkpoint_storage()->List().size();
  Status st = db->Checkpoint();
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.IsIOError()) << st.ToString();
  EXPECT_EQ(db->checkpoint_storage()->List().size(), registered);
  EXPECT_EQ(db->phases()->current(), Phase::kRest);  // the cycle ended

  write(0, 7);
  ASSERT_TRUE(db->Checkpoint().ok());
  EXPECT_EQ(chain_state(), testing_util::DbToMap(db.get()))
      << "first checkpoint after the failed one";
  write(16, 19);
  ASSERT_TRUE(db->Checkpoint().ok());
  EXPECT_EQ(chain_state(), testing_util::DbToMap(db.get()))
      << "second checkpoint after the failed one";
}

INSTANTIATE_TEST_SUITE_P(
    CaptureAlgorithms, FailedCaptureTest,
    ::testing::Combine(
        ::testing::Values(CheckpointAlgorithm::kCalc,
                          CheckpointAlgorithm::kPCalc,
                          CheckpointAlgorithm::kNaive,
                          CheckpointAlgorithm::kPNaive,
                          CheckpointAlgorithm::kFuzzy,
                          CheckpointAlgorithm::kPFuzzy,
                          CheckpointAlgorithm::kIpp,
                          CheckpointAlgorithm::kPIpp,
                          CheckpointAlgorithm::kZigzag,
                          CheckpointAlgorithm::kPZigzag,
                          CheckpointAlgorithm::kMvcc),
        ::testing::Values(std::string("ckpt.segment.finish"),
                          std::string("ckpt_file.body"))),
    [](const ::testing::TestParamInfo<FailedCaptureTest::ParamType>& info) {
      std::string name = AlgorithmName(std::get<0>(info.param));
      name += std::get<1>(info.param) == "ckpt_file.body"
                  ? "_MidScan"
                  : "_AfterScan";
      return name;
    });

/// An error hit on the async writer's I/O thread must travel through
/// `io_status_` and surface from Finish() on the capture thread. With the
/// default 256 KiB block size nothing is sealed before Finish, so the
/// fault deterministically fires on the I/O thread, not inline.
TEST_F(FaultInjectionTest, AsyncWriterIoErrorSurfacesFromFinish) {
  TempDir dir;
  std::string path = dir.path() + "/async_ckpt";
  CheckpointWriterOptions writer_options;
  writer_options.async_io = true;
  CheckpointFileWriter writer;
  ASSERT_TRUE(
      writer.Open(path, CheckpointType::kFull, 1, 0, writer_options).ok());
  fault::ArmError("ckpt_file.block");
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(writer.Append(static_cast<uint64_t>(i), "value").ok());
  }
  Status st = writer.Finish();
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.IsIOError()) << st.ToString();
  EXPECT_NE(st.ToString().find("injected fault"), std::string::npos)
      << st.ToString();
}

/// Same fault, but through the full checkpoint path with async I/O on:
/// the Checkpoint() caller sees the error and the next cycle recovers.
TEST_F(FaultInjectionTest, AsyncCheckpointIoErrorPropagates) {
  TempDir dir;
  std::unique_ptr<Database> db;
  {
    Options options;
    options.max_records = 128;
    options.algorithm = CheckpointAlgorithm::kCalc;
    options.checkpoint_dir = dir.path() + "/ckpt";
    options.disk_bytes_per_sec = 0;
    options.capture_threads = 1;
    options.ckpt_async_io = 1;
    ASSERT_TRUE(Database::Open(options, &db).ok());
    db->registry()->Register(std::make_unique<TransferProcedure>());
    ASSERT_TRUE(SetupBank(db.get(), 16).ok());
    ASSERT_TRUE(db->Start().ok());
  }
  fault::ArmError("ckpt_file.block");
  Status st = db->Checkpoint();
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.IsIOError()) << st.ToString();
  EXPECT_TRUE(db->Checkpoint().ok());
}

TEST_F(FaultInjectionTest, BaseCheckpointRegisterErrorPropagates) {
  TempDir dir;
  Options options;
  options.max_records = 128;
  options.algorithm = CheckpointAlgorithm::kCalc;
  options.checkpoint_dir = dir.path() + "/ckpt";
  options.disk_bytes_per_sec = 0;
  std::unique_ptr<Database> db;
  ASSERT_TRUE(Database::Open(options, &db).ok());
  ASSERT_TRUE(SetupBank(db.get(), 16).ok());
  fault::ArmError("base_ckpt.register");
  Status st = db->WriteBaseCheckpoint();
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.IsIOError()) << st.ToString();
  EXPECT_TRUE(db->WriteBaseCheckpoint().ok());  // single-shot
}

TEST_F(FaultInjectionTest, MergeErrorsPropagate) {
  for (const char* point : {"merge.replace", "merge.persist"}) {
    SCOPED_TRACE(point);
    TempDir dir;
    std::unique_ptr<Database> db;
    OpenBankDb(dir, &db, CheckpointAlgorithm::kPCalc, /*capture_threads=*/1,
               /*with_streamer=*/false, /*base_checkpoint=*/true);
    for (int i = 0; i < 3; ++i) ASSERT_TRUE(db->Checkpoint().ok());
    CheckpointMerger merger(db->checkpoint_storage());
    fault::ArmError(point);
    bool did_merge = false;
    Status st = merger.CollapseOnce(3, &did_merge);
    ASSERT_FALSE(st.ok());
    EXPECT_TRUE(st.IsIOError()) << st.ToString();
    // A retry must succeed either way, but the two points differ:
    // merge.replace fails *before* the chain swap, so the inputs are all
    // still there and the retry performs the merge; merge.persist fails
    // *after* the in-memory swap (only the manifest write was lost), so
    // the retry finds nothing left to collapse.
    did_merge = false;
    EXPECT_TRUE(merger.CollapseOnce(3, &did_merge).ok());
    EXPECT_EQ(did_merge, std::string(point) == "merge.replace");
  }
}

/// Streamer flush errors happen on a background thread; they must
/// surface through Database::BackgroundStatus() and fail the eventual
/// Shutdown() instead of vanishing.
TEST_F(FaultInjectionTest, StreamerErrorSurfacesInBackgroundStatus) {
  for (const char* point : {"log.batch_append", "log.fsync"}) {
    SCOPED_TRACE(point);
    TempDir dir;
    std::unique_ptr<Database> db;
    OpenBankDb(dir, &db, CheckpointAlgorithm::kCalc, /*capture_threads=*/1,
               /*with_streamer=*/true);
    fault::ArmError(point);
    TransferStream stream(4, 16);
    Status bg;
    for (int tries = 0; tries < 2000; ++tries) {
      ASSERT_TRUE(db->executor()
                      ->Execute(kTransferProcId, stream.NextArgs(), 0)
                      .ok());
      bg = db->BackgroundStatus();
      if (!bg.ok()) break;
      SleepMicros(1000);
    }
    ASSERT_FALSE(bg.ok()) << "flusher never hit the armed fault";
    EXPECT_TRUE(bg.IsIOError()) << bg.ToString();
    EXPECT_NE(bg.ToString().find("injected fault"), std::string::npos);
    EXPECT_FALSE(db->Shutdown().ok());
  }
}

/// The registration durability barrier propagates streamer failures: if
/// the flusher dies, the RESOLVE token can never become durable, and the
/// checkpoint cycle must fail *before* Register — a manifest naming a
/// checkpoint with no durable token would break recovery's anchor rule.
TEST_F(FaultInjectionTest, CheckpointBarrierPropagatesStreamerFailure) {
  for (const char* point : {"log.batch_append", "log.fsync"}) {
    SCOPED_TRACE(point);
    TempDir dir;
    std::unique_ptr<Database> db;
    OpenBankDb(dir, &db, CheckpointAlgorithm::kCalc, /*capture_threads=*/1,
               /*with_streamer=*/true);
    fault::ArmError(point);
    Status st = db->Checkpoint();
    ASSERT_FALSE(st.ok());
    EXPECT_TRUE(st.IsIOError()) << st.ToString();
    EXPECT_NE(st.ToString().find("injected fault"), std::string::npos)
        << st.ToString();
    // Nothing was registered: the barrier sits before Register.
    EXPECT_TRUE(db->checkpoint_storage()->List().empty());
    // The flusher death is a background failure and fails Shutdown too.
    EXPECT_FALSE(db->BackgroundStatus().ok());
    EXPECT_FALSE(db->Shutdown().ok());
  }
}

/// Periodic-checkpoint-loop errors likewise surface via
/// BackgroundStatus() rather than being dropped by the loop thread.
TEST_F(FaultInjectionTest, PeriodicCheckpointErrorSurfaces) {
  TempDir dir;
  std::unique_ptr<Database> db;
  OpenBankDb(dir, &db, CheckpointAlgorithm::kCalc, /*capture_threads=*/1);
  ASSERT_TRUE(db->StartPeriodicCheckpoints(1).ok());
  fault::ArmError("ckpt.register");
  Status bg;
  for (int tries = 0; tries < 2000; ++tries) {
    bg = db->BackgroundStatus();
    if (!bg.ok()) break;
    SleepMicros(1000);
  }
  db->StopPeriodicCheckpoints();
  ASSERT_FALSE(bg.ok()) << "periodic loop never hit the armed fault";
  EXPECT_TRUE(bg.IsIOError()) << bg.ToString();
  EXPECT_NE(bg.ToString().find("injected fault"), std::string::npos);
}

/// A streamer failure is not just a Status: it must flip GetHealth()
/// red and (with observability on) announce itself as one ERROR event
/// on the structured channel.
TEST_F(FaultInjectionTest, StreamerFailureEmitsEventAndUnhealthyReport) {
  obs::EventLog::Global().ResetForTest();
  obs::EventLog::Global().SetStderrMirror(false);
  TempDir dir;
  std::unique_ptr<Database> db;
  OpenBankDb(dir, &db, CheckpointAlgorithm::kCalc, /*capture_threads=*/1,
             /*with_streamer=*/true);
  EXPECT_TRUE(db->GetHealth().healthy);
  fault::ArmError("log.fsync");
  TransferStream stream(4, 16);
  Status bg;
  for (int tries = 0; tries < 2000; ++tries) {
    ASSERT_TRUE(db->executor()
                    ->Execute(kTransferProcId, stream.NextArgs(), 0)
                    .ok());
    bg = db->BackgroundStatus();
    if (!bg.ok()) break;
    SleepMicros(1000);
  }
  ASSERT_FALSE(bg.ok()) << "flusher never hit the armed fault";
  obs::HealthReport report = db->GetHealth();
  EXPECT_FALSE(report.healthy);
  EXPECT_FALSE(report.background_ok);
  EXPECT_NE(report.background_error.find("injected fault"),
            std::string::npos);
#if CALCDB_OBS_ENABLED
  // The streamer announced its first OK->failed transition, and the
  // injection itself left its own event. (No db.background_error here:
  // Database *polls* the streamer's status rather than copying it, so
  // the one failure is announced once, at the site that owns it.)
  std::set<std::string> names;
  for (const obs::Event& ev :
       obs::EventLog::Global().ring().Snapshot()) {
    if (ev.name != nullptr) names.insert(ev.name);
  }
  EXPECT_TRUE(names.count("log.background_error"));
  EXPECT_TRUE(names.count("fault.injected"));
#endif
  EXPECT_FALSE(db->Shutdown().ok());
  obs::EventLog::Global().ResetForTest();
}

/// The fork-snapshot child's fault channel: CALCDB_CHILD_EXIT_CODE
/// forces the child to _exit mid-snapshot (before its fsync), and the
/// parent maps the death to an IOError carrying the exit code.
TEST_F(FaultInjectionTest, ForkChildForcedExitSurfacesExitCode) {
  CALCDB_SKIP_FORK_UNDER_TSAN(CheckpointAlgorithm::kFork);
  obs::EventLog::Global().ResetForTest();
  obs::EventLog::Global().SetStderrMirror(false);
  TempDir dir;
  std::unique_ptr<Database> db;
  OpenBankDb(dir, &db, CheckpointAlgorithm::kFork, /*capture_threads=*/1);
  ASSERT_EQ(setenv("CALCDB_CHILD_EXIT_CODE", "7", 1), 0);
  Status st = db->Checkpoint();
  ASSERT_EQ(unsetenv("CALCDB_CHILD_EXIT_CODE"), 0);
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.IsIOError()) << st.ToString();
  EXPECT_NE(st.ToString().find("exit code 7"), std::string::npos)
      << st.ToString();
  // The child died before registration: no checkpoint exists, and the
  // next cycle (environment cleared) succeeds.
  EXPECT_TRUE(db->checkpoint_storage()->List().empty());
  EXPECT_TRUE(db->Checkpoint().ok());
  obs::EventLog::Global().ResetForTest();
}

#endif  // CALCDB_FAULTS_ENABLED

}  // namespace
}  // namespace calcdb
