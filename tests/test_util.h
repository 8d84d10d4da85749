#ifndef CALCDB_TESTS_TEST_UTIL_H_
#define CALCDB_TESTS_TEST_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>

#include <sys/stat.h>

#include "checkpoint/ckpt_file.h"
#include "checkpoint/ckpt_storage.h"
#include "db/database.h"
#include "gtest/gtest.h"
#include "log/commit_log.h"
#include "recovery/recovery_manager.h"
#include "storage/kv_store.h"

/// True when the build is instrumented by ThreadSanitizer. Tests use this
/// to shrink iteration counts further or to skip scenarios TSan cannot
/// follow (e.g. fork-based snapshots: TSan does not instrument the child).
#if defined(__SANITIZE_THREAD__)
#define CALCDB_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define CALCDB_TSAN 1
#endif
#endif
#ifndef CALCDB_TSAN
#define CALCDB_TSAN 0
#endif

/// Skips the current test when `algo` is the fork-based snapshotter and the
/// build runs under TSan. fork() from a multithreaded process is unsupported
/// by the TSan runtime (the child can deadlock on runtime-internal locks and
/// is not instrumented), so every kFork scenario hangs rather than reports.
#define CALCDB_SKIP_FORK_UNDER_TSAN(algo)                                 \
  do {                                                                    \
    if (CALCDB_TSAN && (algo) == ::calcdb::CheckpointAlgorithm::kFork) {  \
      GTEST_SKIP() << "fork-based snapshots hang under TSan "             \
                      "(multithreaded fork is unsupported by the "        \
                      "runtime)";                                         \
    }                                                                     \
  } while (0)

namespace calcdb {
namespace testing_util {

/// Duration/iteration scale factor for wall-clock-driven tests, read from
/// the CALCDB_TEST_SCALE environment variable (sanitizer ctest runs export
/// 0.25 by default — see tests/CMakeLists.txt). 1.0 when unset.
inline double TestScale() {
  static const double scale = [] {
    const char* env = std::getenv("CALCDB_TEST_SCALE");
    if (env == nullptr) return 1.0;
    double v = std::atof(env);
    return v > 0.0 ? v : 1.0;
  }();
  return scale;
}

/// `us` microseconds scaled by CALCDB_TEST_SCALE (minimum 1ms so scaled
/// sleeps still let background threads make progress).
inline int64_t ScaledMicros(int64_t us) {
  int64_t scaled = static_cast<int64_t>(static_cast<double>(us) * TestScale());
  return scaled < 1000 ? 1000 : scaled;
}

/// A progress threshold scaled by CALCDB_TEST_SCALE, floored at `min`:
/// shrunken runs accomplish proportionally less, but must still do
/// *something* for the test to be meaningful.
inline uint64_t ScaledThreshold(uint64_t n, uint64_t min = 1) {
  uint64_t scaled =
      static_cast<uint64_t>(static_cast<double>(n) * TestScale());
  return scaled < min ? min : scaled;
}

/// Creates a unique scratch directory under /tmp, removed on destruction.
class TempDir {
 public:
  TempDir() {
    char tmpl[] = "/tmp/calcdb_test_XXXXXX";
    char* dir = mkdtemp(tmpl);
    EXPECT_NE(dir, nullptr);
    path_ = dir;
  }
  ~TempDir() {
    std::string cmd = "rm -rf '" + path_ + "'";
    int rc = std::system(cmd.c_str());
    (void)rc;
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Size in bytes of `path`; 0 when the file cannot be stat'ed.
inline uint64_t FileSize(const std::string& path) {
  struct ::stat st;
  if (::stat(path.c_str(), &st) != 0) return 0;
  return static_cast<uint64_t>(st.st_size);
}

using StateMap = std::map<uint64_t, std::string>;

/// Materializes the database state a checkpoint chain represents
/// (latest-wins merge, tombstones delete).
inline Status ChainToMap(const std::vector<CheckpointInfo>& chain,
                         StateMap* out) {
  for (const CheckpointInfo& info : chain) {
    for (const std::string& file : info.files()) {
      CheckpointFileReader reader;
      CALCDB_RETURN_NOT_OK(reader.Open(file));
      CALCDB_RETURN_NOT_OK(
          reader.ReadAll([&](const CheckpointEntry& e) -> Status {
            if (e.tombstone) {
              out->erase(e.key);
            } else {
              (*out)[e.key] = e.value;
            }
            return Status::OK();
          }));
    }
  }
  return Status::OK();
}

/// Current full state of a running database, read through the
/// checkpointer's read hook (authoritative for Zigzag).
inline StateMap DbToMap(Database* db) {
  StateMap out;
  db->store()->ForEachRecord([&](Record* rec) {
    if (rec->key == ~uint64_t{0}) return;
    std::string value;
    if (db->Read(rec->key, &value).ok()) {
      out[rec->key] = std::move(value);
    }
  });
  return out;
}

/// Replays the commit log's committed transactions with LSN < `upto_lsn`
/// into a fresh database seeded by `seed_db_fn`, returning its state —
/// the ground-truth state at the point of consistency `upto_lsn`.
template <typename SeedFn>
StateMap ReplayGroundTruth(const CommitLog& log, uint64_t upto_lsn,
                           const Options& base_options, SeedFn seed_db_fn) {
  Options options = base_options;
  options.algorithm = CheckpointAlgorithm::kNone;
  std::unique_ptr<Database> db;
  EXPECT_TRUE(Database::Open(options, &db).ok());
  seed_db_fn(db.get());
  EXPECT_TRUE(db->Start().ok());
  for (uint64_t lsn = 0; lsn < upto_lsn && lsn < log.Size(); ++lsn) {
    LogEntry entry = log.Entry(lsn);
    if (entry.type != LogEntry::Type::kCommit) continue;
    KeySets sets;
    EXPECT_TRUE(Executor::ExtractFootprint(*db->registry(), entry.proc_id,
                                           entry.args, &sets)
                    .ok());
    EXPECT_TRUE(
        db->executor()->Replay(entry.proc_id, entry.args, sets).ok());
  }
  return DbToMap(db.get());
}

}  // namespace testing_util
}  // namespace calcdb

#endif  // CALCDB_TESTS_TEST_UTIL_H_
