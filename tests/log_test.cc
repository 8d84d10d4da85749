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

// EncodeEntry writes frames in place; the bytes must stay exactly the
// documented layout every existing generation file uses.
TEST(CommitLogTest, EncodeEntryMatchesFrameLayout) {
  std::string commit_payload(1, '\x00');
  uint64_t txn_id = 0x0102030405060708ull;
  uint32_t proc_id = 9, args_len = 3;
  commit_payload.append(reinterpret_cast<const char*>(&txn_id), 8);
  commit_payload.append(reinterpret_cast<const char*>(&proc_id), 4);
  commit_payload.append(reinterpret_cast<const char*>(&args_len), 4);
  commit_payload += std::string("a\0c", 3);
  std::string phase_payload("\x01\x02", 2);
  uint64_t ckpt = 77;
  phase_payload.append(reinterpret_cast<const char*>(&ckpt), 8);

  std::string out = "prefix";
  CommitLog::EncodeEntry(
      LogEntry{LogEntry::Type::kCommit, txn_id, proc_id,
               std::string("a\0c", 3)},
      &out);
  LogEntry token;
  token.type = LogEntry::Type::kPhaseTransition;
  token.phase = Phase::kResolve;
  token.checkpoint_id = ckpt;
  CommitLog::EncodeEntry(token, &out);
  EXPECT_EQ(out, "prefix" + Frame(commit_payload) + Frame(phase_payload));
  EXPECT_EQ(Frame(commit_payload).size(), CommitLog::FramedCommitBytes(3));
}

/// Appends the same deterministic mix of commits (args of varied sizes,
/// some larger than a chunk arena) and phase tokens to every log in
/// `logs`. Returns the LSN of the last RESOLVE token.
uint64_t AppendMix(const std::vector<CommitLog*>& logs, uint64_t entries) {
  uint64_t last_vpoc = 0;
  for (uint64_t i = 0; i < entries; ++i) {
    for (CommitLog* log : logs) {
      if (i % 997 == 0) {
        last_vpoc = log->AppendPhaseTransition(Phase::kResolve, i / 997 + 1);
      } else {
        size_t len = i % 5000 == 1 ? CommitLog::kChunkArenaBytes + 17
                                   : static_cast<size_t>(i % 200);
        log->AppendCommit(i, static_cast<uint32_t>(i % 7),
                          std::string(len, static_cast<char>('a' + i % 26)));
      }
    }
  }
  return last_vpoc;
}

std::string EncodeRange(const CommitLog& log, uint64_t from, uint64_t to) {
  std::string out;
  log.SnapshotRange(from, to).EncodeAll(&out);
  return out;
}

// Truncation drops whole sealed chunks below min(persisted, horizon) and
// nothing else changes: LSNs, counts and the token index keep their
// lifetime meaning, and every retained entry is byte-equal to an
// untruncated twin.
TEST(CommitLogTest, TruncationKeepsLsnsCountsAndRetainedBytes) {
  CommitLog log, twin;
  const uint64_t kEntries = 5 * CommitLog::kChunkSlots + 123;
  const uint64_t vpoc = AppendMix({&log, &twin}, kEntries);
  ASSERT_GT(vpoc, 3 * uint64_t{CommitLog::kChunkSlots});

  // No horizon yet (no checkpoint registered): nothing is dropped, however
  // far the log is persisted.
  EXPECT_EQ(log.TruncateDurable(kEntries), 0u);
  EXPECT_EQ(log.FirstRetainedLsn(), 0u);

  // The horizon is min(persisted, vpoc): a small persisted LSN bounds it.
  log.AdvanceRetentionHorizon(vpoc);
  log.AdvanceRetentionHorizon(1);  // never lowers the horizon
  const uint64_t below_ten = log.TruncateDurable(10);
  EXPECT_LE(below_ten, 10u);
  EXPECT_EQ(log.FirstRetainedLsn(), below_ten);
  const uint64_t dropped = log.TruncateDurable(kEntries);
  ASSERT_GT(dropped, 0u);
  const uint64_t first = log.FirstRetainedLsn();
  EXPECT_EQ(first, below_ten + dropped);
  EXPECT_LE(first, vpoc);
  EXPECT_GT(first + CommitLog::kChunkSlots, vpoc);  // whole chunks only
  EXPECT_EQ(log.RetainedEntries(), kEntries - first);
  EXPECT_EQ(log.TruncateDurable(kEntries), 0u);  // idempotent

  EXPECT_EQ(log.Size(), twin.Size());
  EXPECT_EQ(log.CommitCount(), twin.CommitCount());
  EXPECT_EQ(log.VpocCount(), twin.VpocCount());
  for (uint64_t id = 1; id <= kEntries / 997 + 1; ++id) {
    uint64_t a = 0, b = 0;
    ASSERT_EQ(log.FindPhaseToken(id, Phase::kResolve, &a),
              twin.FindPhaseToken(id, Phase::kResolve, &b));
    EXPECT_EQ(a, b);
  }
  EXPECT_EQ(EncodeRange(log, first, UINT64_MAX),
            EncodeRange(twin, first, UINT64_MAX));
  for (uint64_t lsn = first; lsn < kEntries; lsn += 331) {
    LogEntry a = log.Entry(lsn), b = twin.Entry(lsn);
    EXPECT_EQ(a.type, b.type);
    EXPECT_EQ(a.txn_id, b.txn_id);
    EXPECT_EQ(a.proc_id, b.proc_id);
    EXPECT_EQ(a.args, b.args);
    EXPECT_EQ(a.checkpoint_id, b.checkpoint_id);
  }
  std::vector<LogEntry> tail = log.CommitsAfter(vpoc);
  std::vector<LogEntry> twin_tail = twin.CommitsAfter(vpoc);
  ASSERT_EQ(tail.size(), twin_tail.size());
  for (size_t i = 0; i < tail.size(); ++i) {
    EXPECT_EQ(tail[i].txn_id, twin_tail[i].txn_id);
    EXPECT_EQ(tail[i].args, twin_tail[i].args);
  }

  // Appends after truncation keep the dense LSN sequence.
  EXPECT_EQ(log.AppendCommit(1, 1, "after"), twin.AppendCommit(1, 1, "after"));
}

// A read below the first retained LSN is a programming error: it fails
// an assert instead of returning a silently shorter log.
TEST(CommitLogDeathTest, ReadBelowRetainedAsserts) {
#ifdef NDEBUG
  GTEST_SKIP() << "asserts compiled out";
#endif
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  CommitLog log;
  const uint64_t vpoc = AppendMix({&log}, 3 * CommitLog::kChunkSlots);
  log.AdvanceRetentionHorizon(vpoc);
  ASSERT_GT(log.TruncateDurable(log.Size()), 0u);
  EXPECT_DEATH((void)log.Entry(0), "retained");
  EXPECT_DEATH((void)log.CommitsFrom(0), "retained");
  testing_util::TempDir dir;
  // calcdb-status-ignored: the call must abort before returning.
  EXPECT_DEATH((void)log.PersistTo(dir.path() + "/log"), "retained");
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
