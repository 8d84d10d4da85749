// Tests for the commit log (commit tokens, phase tokens, VPoC counting,
// side counters, persistence), the shared frame decoder, and the
// PhaseController.

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "checkpoint/phase.h"
#include "gtest/gtest.h"
#include "log/commit_log.h"
#include "log/log_reader.h"
#include "tests/test_util.h"
#include "util/crc32.h"

namespace calcdb {
namespace {

TEST(CommitLogTest, AppendAndRead) {
  CommitLog log;
  uint64_t lsn0 = log.AppendCommit(1, 10, "argsA");
  uint64_t lsn1 = log.AppendCommit(2, 11, "argsB");
  EXPECT_EQ(lsn0, 0u);
  EXPECT_EQ(lsn1, 1u);
  EXPECT_EQ(log.Size(), 2u);
  LogEntry e = log.Entry(0);
  EXPECT_EQ(e.type, LogEntry::Type::kCommit);
  EXPECT_EQ(e.txn_id, 1u);
  EXPECT_EQ(e.proc_id, 10u);
  EXPECT_EQ(e.args, "argsA");
}

TEST(CommitLogTest, PhaseTokensAndVpocCount) {
  CommitLog log;
  PhaseController pc;
  EXPECT_EQ(log.VpocCount(), 0u);
  log.AppendPhaseTransition(Phase::kPrepare, 1, &pc);
  EXPECT_EQ(pc.current(), Phase::kPrepare);
  EXPECT_EQ(log.VpocCount(), 0u);
  uint64_t vpoc_lsn = log.AppendPhaseTransition(Phase::kResolve, 1, &pc);
  EXPECT_EQ(pc.current(), Phase::kResolve);
  EXPECT_EQ(log.VpocCount(), 1u);
  uint64_t found = 0;
  EXPECT_TRUE(log.FindPhaseToken(1, Phase::kResolve, &found));
  EXPECT_EQ(found, vpoc_lsn);
  EXPECT_FALSE(log.FindPhaseToken(2, Phase::kResolve, &found));
}

TEST(CommitLogTest, CommitCapturesPhaseAtomically) {
  CommitLog log;
  PhaseController pc;
  Phase commit_phase = Phase::kCapture;
  uint64_t vpoc_count = 99;
  log.AppendCommit(1, 1, "", &pc, &commit_phase, &vpoc_count);
  EXPECT_EQ(commit_phase, Phase::kRest);
  EXPECT_EQ(vpoc_count, 0u);
  log.AppendPhaseTransition(Phase::kPrepare, 1, &pc);
  log.AppendPhaseTransition(Phase::kResolve, 1, &pc);
  log.AppendCommit(2, 1, "", &pc, &commit_phase, &vpoc_count);
  EXPECT_EQ(commit_phase, Phase::kResolve);
  EXPECT_EQ(vpoc_count, 1u);
}

TEST(CommitLogTest, UnderLatchCallbackRunsBeforePhaseSwitch) {
  CommitLog log;
  PhaseController pc;
  Phase observed = Phase::kCapture;
  log.AppendPhaseTransition(Phase::kResolve, 1, &pc,
                            [&] { observed = pc.current(); });
  // The callback ran before SetPhase.
  EXPECT_EQ(observed, Phase::kRest);
  EXPECT_EQ(pc.current(), Phase::kResolve);
}

TEST(CommitLogTest, CommitsAfterFiltersPhaseTokens) {
  CommitLog log;
  log.AppendCommit(1, 1, "a");
  uint64_t vpoc = log.AppendPhaseTransition(Phase::kResolve, 1);
  log.AppendCommit(2, 1, "b");
  log.AppendPhaseTransition(Phase::kCapture, 1);
  log.AppendCommit(3, 1, "c");
  std::vector<LogEntry> commits = log.CommitsAfter(vpoc);
  ASSERT_EQ(commits.size(), 2u);
  EXPECT_EQ(commits[0].args, "b");
  EXPECT_EQ(commits[1].args, "c");
}

TEST(CommitLogTest, PersistAndLoadRoundtrip) {
  testing_util::TempDir dir;
  std::string path = dir.path() + "/commitlog";
  CommitLog log;
  log.AppendCommit(1, 10, std::string("binary\0args", 11));
  log.AppendPhaseTransition(Phase::kResolve, 7);
  log.AppendCommit(2, 11, "");
  ASSERT_TRUE(log.PersistTo(path).ok());

  CommitLog loaded;
  ASSERT_TRUE(loaded.LoadFrom(path).ok());
  ASSERT_EQ(loaded.Size(), 3u);
  EXPECT_EQ(loaded.Entry(0).args, std::string("binary\0args", 11));
  EXPECT_EQ(loaded.Entry(1).type, LogEntry::Type::kPhaseTransition);
  EXPECT_EQ(loaded.Entry(1).phase, Phase::kResolve);
  EXPECT_EQ(loaded.Entry(1).checkpoint_id, 7u);
  EXPECT_EQ(loaded.Entry(2).proc_id, 11u);
}

TEST(CommitLogTest, LoadDetectsCorruption) {
  testing_util::TempDir dir;
  std::string path = dir.path() + "/commitlog";
  CommitLog log;
  log.AppendCommit(1, 10, "payload-payload-payload");
  ASSERT_TRUE(log.PersistTo(path).ok());
  // Flip a byte in the middle of the file.
  FILE* f = fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  fseek(f, 12, SEEK_SET);
  int c = fgetc(f);
  fseek(f, 12, SEEK_SET);
  fputc(c ^ 0xff, f);
  fclose(f);
  CommitLog loaded;
  EXPECT_FALSE(loaded.LoadFrom(path).ok());
}

TEST(CommitLogTest, SideCountersTrackAppendsAndLoads) {
  testing_util::TempDir dir;
  std::string path = dir.path() + "/commitlog";
  CommitLog log;
  log.AppendCommit(1, 1, "a");
  uint64_t first = log.AppendPhaseTransition(Phase::kResolve, 4);
  log.AppendCommit(2, 1, "b");
  log.AppendPhaseTransition(Phase::kResolve, 4);  // a reused id: ignored
  log.AppendCommit(3, 1, "c");
  EXPECT_EQ(log.CommitCount(), 3u);
  uint64_t lsn = 0;
  ASSERT_TRUE(log.FindPhaseToken(4, Phase::kResolve, &lsn));
  EXPECT_EQ(lsn, first);  // the first match in LSN order
  ASSERT_TRUE(log.PersistTo(path).ok());

  // Every block size, including ones smaller than a frame header, decodes
  // the same log and rebuilds the same side counters.
  for (size_t block : {size_t{1}, size_t{5}, size_t{24}, size_t{0}}) {
    CommitLog loaded;
    loaded.AppendCommit(9, 9, "replaced by the load");
    ASSERT_TRUE(loaded.LoadFrom(path, block).ok()) << block;
    ASSERT_EQ(loaded.Size(), 5u);
    EXPECT_EQ(loaded.CommitCount(), 3u);
    EXPECT_EQ(loaded.Entry(4).args, "c");
    ASSERT_TRUE(loaded.FindPhaseToken(4, Phase::kResolve, &lsn));
    EXPECT_EQ(lsn, first);
  }
}

std::string Frame(const std::string& payload) {
  uint32_t len = static_cast<uint32_t>(payload.size());
  uint32_t crc = Crc32(payload.data(), payload.size());
  std::string out(reinterpret_cast<const char*>(&len), 4);
  out.append(reinterpret_cast<const char*>(&crc), 4);
  return out + payload;
}

void WriteFile(const std::string& path, const std::string& bytes) {
  FILE* f = fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  fclose(f);
}

// The one frame decoder: the recovery scan and CommitLog::LoadFrom must
// reject and accept exactly the same files.
TEST(LogFrameReaderTest, ScanAndLoadAgreeOnDamageAndTornTails) {
  testing_util::TempDir dir;
  std::string path = dir.path() + "/gen";
  std::string good;
  CommitLog::EncodeEntry(LogEntry{LogEntry::Type::kCommit, 1, 2, "xyz"},
                         &good);
  std::string bad_len(8, '\0');  // len 0
  std::string huge(4, '\xff');
  huge += std::string(4, '\0');  // len > 1 GiB
  std::string unknown_type = Frame(std::string(1, '\x07') + "abcdefghij");
  // A commit whose args_len claims more than the frame holds.
  std::string short_commit_payload(1 + 8 + 4 + 4, '\0');
  short_commit_payload[13] = 5;
  std::string size_mismatch = Frame(short_commit_payload);
  std::string truncated_commit = Frame(std::string(5, '\0'));  // type 0
  std::string truncated_phase = Frame(std::string("\x01\x02", 2));
  std::string crc_flip = good;
  crc_flip.back() ^= 1;

  struct Case {
    std::string bytes;
    bool ok;
    uint64_t entries;
  };
  const Case cases[] = {
      {good + good, true, 2},
      {good + good.substr(0, 3), true, 1},               // torn header
      {good + good.substr(0, 6), true, 1},               // torn crc
      {good + good.substr(0, good.size() - 1), true, 1},  // torn payload
      {good + huge.substr(0, 4) + "ab", true, 1},   // torn before len check
      {good + bad_len, false, 0},
      {good + huge, false, 0},
      {good + unknown_type, false, 0},
      {good + size_mismatch, false, 0},
      {good + truncated_commit, false, 0},
      {good + truncated_phase, false, 0},
      {crc_flip + good, false, 0},
  };
  for (size_t i = 0; i < sizeof(cases) / sizeof(cases[0]); ++i) {
    WriteFile(path, cases[i].bytes);
    CommitLog loaded;
    Status load = loaded.LoadFrom(path);
    LogScan scan;
    Status scanned = ScanLogFile(path, 3, &scan);
    EXPECT_EQ(load.ok(), cases[i].ok) << i << ": " << load.ToString();
    EXPECT_EQ(scanned.ok(), cases[i].ok) << i << ": " << scanned.ToString();
    if (!cases[i].ok) {
      EXPECT_TRUE(load.IsCorruption()) << i;
      EXPECT_TRUE(scanned.IsCorruption()) << i;
      continue;
    }
    EXPECT_EQ(loaded.Size(), cases[i].entries) << i;
    EXPECT_EQ(scan.entries, cases[i].entries) << i;
    EXPECT_EQ(scan.bytes_read, cases[i].bytes.size()) << i;
  }
}

TEST(CommitLogTest, ConcurrentAppendsAllLand) {
  CommitLog log;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&log, t] {
      for (int i = 0; i < 1000; ++i) {
        log.AppendCommit(static_cast<uint64_t>(t) * 1000 + i, 1, "x");
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(log.Size(), 4000u);
}

TEST(PhaseControllerTest, BeginEndCounts) {
  PhaseController pc;
  EXPECT_EQ(pc.current(), Phase::kRest);
  Phase p1 = pc.BeginTxn();
  EXPECT_EQ(p1, Phase::kRest);
  EXPECT_EQ(pc.ActiveIn(Phase::kRest), 1);
  EXPECT_EQ(pc.TotalActive(), 1);
  pc.SetPhase(Phase::kPrepare);
  Phase p2 = pc.BeginTxn();
  EXPECT_EQ(p2, Phase::kPrepare);
  EXPECT_EQ(pc.ActiveNotIn(Phase::kPrepare), 1);
  pc.EndTxn(p1);
  EXPECT_EQ(pc.ActiveNotIn(Phase::kPrepare), 0);
  pc.EndTxn(p2);
  EXPECT_EQ(pc.TotalActive(), 0);
}

TEST(PhaseControllerTest, ConcurrentBeginEndBalances) {
  PhaseController pc;
  std::atomic<bool> stop{false};
  std::thread flipper([&] {
    int i = 0;
    while (!stop.load()) {
      pc.SetPhase(static_cast<Phase>(i % kNumPhases));
      ++i;
    }
  });
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&] {
      for (int i = 0; i < 20000; ++i) {
        Phase p = pc.BeginTxn();
        pc.EndTxn(p);
      }
    });
  }
  for (auto& t : workers) t.join();
  stop = true;
  flipper.join();
  EXPECT_EQ(pc.TotalActive(), 0);
  for (int i = 0; i < kNumPhases; ++i) {
    EXPECT_EQ(pc.ActiveIn(static_cast<Phase>(i)), 0) << i;
  }
}

}  // namespace
}  // namespace calcdb
