// Overhead guard for the observability layer (ISSUE acceptance: obs ON
// must stay within 3% of obs OFF on the fig2 workload).
//
// A single binary cannot flip the compile-time CALCDB_OBS switch, so
// this test bounds the same quantity from the inside: it measures the
// per-transaction cost of the real workload and the standalone cost of
// one transaction's worth of instrumentation (the exact instrument
// sequence executor.cc, kv_store.cc, value.cc and commit_log.cc run per
// committed 10-key read-modify-write), and asserts the ratio is under
// budget. Both sides run on kThreads threads at once, as micro_ckpt's
// workers do, so instruments that share a cache line across threads pay
// their coherence cost here too. Trials are interleaved and the minimum
// kept, so scheduler noise inflates neither side.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "db/database.h"
#include "gtest/gtest.h"
#include "obs/obs.h"
#include "tests/test_util.h"
#include "util/clock.h"
#include "workload/microbench.h"

#if !CALCDB_TSAN && defined(__has_feature)
#if __has_feature(address_sanitizer)
#define CALCDB_OBS_TEST_SANITIZED 1
#endif
#endif
#if defined(__SANITIZE_ADDRESS__) || CALCDB_TSAN
#define CALCDB_OBS_TEST_SANITIZED 1
#endif
#ifndef CALCDB_OBS_TEST_SANITIZED
#define CALCDB_OBS_TEST_SANITIZED 0
#endif

namespace calcdb {
namespace {

using testing_util::ScaledThreshold;
using testing_util::TempDir;

#if CALCDB_OBS_ENABLED

constexpr int kThreads = 3;
constexpr int kKeysPerTxn = 10;

// One committed transaction's instrumentation load: the two clock
// reads bracketing lock acquisition and the lock-wait histogram record;
// per key, the probe_len record of the procedure's read (Find), the
// probe_len record and pool hit of applying its write (FindOrCreate,
// Value::Create); then the four counter bumps (txn.committed, by-proc,
// log.appends, log.bytes).
void RunPerTxnInstrumentation(int64_t fake_wait_us) {
  CALCDB_OBS_ONLY(int64_t t0 = NowMicros();)
  CALCDB_OBS_ONLY(int64_t t1 = NowMicros();)
  CALCDB_HISTOGRAM_RECORD("calcdb.overhead_test.lock_wait_us",
                          t1 - t0 + fake_wait_us);
  for (int k = 0; k < kKeysPerTxn; ++k) {
    CALCDB_HISTOGRAM_RECORD("calcdb.overhead_test.probe_len", 1);
  }
  for (int k = 0; k < kKeysPerTxn; ++k) {
    CALCDB_HISTOGRAM_RECORD("calcdb.overhead_test.probe_len", 1);
    CALCDB_COUNTER_ADD("calcdb.overhead_test.pool_hit", 1);
  }
  CALCDB_COUNTER_ADD("calcdb.overhead_test.committed", 1);
  CALCDB_COUNTER_ADD("calcdb.overhead_test.by_proc", 1);
  CALCDB_COUNTER_ADD("calcdb.overhead_test.log_appends", 1);
  CALCDB_COUNTER_ADD("calcdb.overhead_test.log_bytes", 73);
}

// Runs fn(thread_index) on kThreads threads released together; returns
// the wall time in microseconds from release to the last finish.
template <typename Fn>
int64_t RunConcurrently(Fn fn) {
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1, std::memory_order_acq_rel);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      fn(t);
    });
  }
  while (ready.load(std::memory_order_acquire) < kThreads) {
    std::this_thread::yield();
  }
  int64_t start = NowMicros();
  go.store(true, std::memory_order_release);
  for (auto& th : threads) th.join();
  return NowMicros() - start;
}

TEST(ObsOverheadTest, InstrumentationWithinThreePercentOfTxnCost) {
  TempDir dir;
  Options options;
  options.max_records = 1 << 14;
  options.algorithm = CheckpointAlgorithm::kCalc;
  options.checkpoint_dir = dir.path();
  options.disk_bytes_per_sec = 0;
  std::unique_ptr<Database> db;
  ASSERT_TRUE(Database::Open(options, &db).ok());
  MicrobenchConfig config;
  config.num_records = 10000;
  ASSERT_TRUE(SetupMicrobench(db.get(), config).ok());
  ASSERT_TRUE(db->Start().ok());

  const uint64_t kTxns = ScaledThreshold(2000, 500);  // per thread
  // Amplify the (much cheaper) instrumentation loop so each trial's
  // duration is far above timer resolution.
  const uint64_t kObsReps = kTxns * 50;
  const int kTrials = 3;

  std::atomic<int> txn_failures{0};
  double txn_ns = 1e300, obs_ns = 1e300;
  for (int trial = 0; trial < kTrials; ++trial) {
    int64_t txn_us = RunConcurrently([&](int t) {
      MicrobenchConfig thread_config = config;
      thread_config.seed = config.seed + static_cast<uint64_t>(
                                             trial * kThreads + t + 1);
      Rng rng(thread_config.seed);
      MicrobenchWorkload workload(thread_config);
      for (uint64_t i = 0; i < kTxns; ++i) {
        TxnRequest req = workload.Next(rng);
        if (!db->executor()
                 ->Execute(req.proc_id, std::move(req.args), NowMicros())
                 .ok()) {
          txn_failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
    int64_t instr_us = RunConcurrently([&](int) {
      for (uint64_t i = 0; i < kObsReps; ++i) {
        RunPerTxnInstrumentation(static_cast<int64_t>(i & 0xff));
      }
    });
    // Wall time per transaction on one of the kThreads concurrent
    // threads, the cost each worker sees.
    txn_ns = std::min(txn_ns, static_cast<double>(txn_us) * 1000.0 /
                                  static_cast<double>(kTxns));
    obs_ns = std::min(obs_ns, static_cast<double>(instr_us) * 1000.0 /
                                  static_cast<double>(kObsReps));
  }
  ASSERT_EQ(txn_failures.load(std::memory_order_relaxed), 0);

  // Sanitizers multiply the cost of relaxed atomics far more than the
  // cost of a whole transaction; the 3% budget is a release-build
  // property, so instrumented builds only smoke-check the machinery
  // with a loose bound.
  const double kBudget = CALCDB_OBS_TEST_SANITIZED ? 0.25 : 0.03;
  std::printf("obs overhead: %.1f ns instrumentation / %.1f ns txn "
              "(%.2f%%, budget %.0f%%) on %d threads\n",
              obs_ns, txn_ns, 100.0 * obs_ns / txn_ns, 100.0 * kBudget,
              kThreads);
  EXPECT_LT(obs_ns, kBudget * txn_ns)
      << "per-txn instrumentation costs " << obs_ns
      << "ns against a txn cost of " << txn_ns << "ns ("
      << (100.0 * obs_ns / txn_ns) << "%, budget "
      << (100.0 * kBudget) << "%)";

  // The loop must have exercised the real instruments.
  EXPECT_EQ(obs::MetricsRegistry::Global()
                .GetCounter("calcdb.overhead_test.committed")
                ->Sum(),
            kObsReps * kTrials * kThreads);
  EXPECT_EQ(obs::MetricsRegistry::Global()
                .GetHistogram("calcdb.overhead_test.probe_len")
                ->count(),
            kObsReps * kTrials * kThreads * 2 * kKeysPerTxn);
}

#else  // !CALCDB_OBS_ENABLED

TEST(ObsOverheadTest, InstrumentationWithinThreePercentOfTxnCost) {
  GTEST_SKIP() << "built with CALCDB_OBS=OFF: instrumentation compiles "
                  "to nothing, overhead is zero by construction";
}

#endif  // CALCDB_OBS_ENABLED

}  // namespace
}  // namespace calcdb
