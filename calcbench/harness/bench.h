#ifndef CALCBENCH_HARNESS_BENCH_H_
#define CALCBENCH_HARNESS_BENCH_H_

// Shared pieces of the benchmark harness: flags, the latency histogram,
// per-worker outcome counters and the report the harness writes.

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "db/database.h"
#include "trace.h"

namespace calcbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// --key=value flags. Every workload parameter comes from calcbench's
/// config file through run.py; a missing one is an error, not a default.
class Flags {
 public:
  Flags(int argc, char** argv);

  bool Has(const std::string& name) const { return values_.count(name) != 0; }
  std::string Str(const std::string& name);
  int64_t Int(const std::string& name);
  double Double(const std::string& name);

  /// Names asked for but not given.
  const std::vector<std::string>& missing() const { return missing_; }

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> missing_;
};

/// Log-linear histogram of non-negative nanosecond values: exact below 64,
/// then 64 sub-buckets per power of two (<= 1.6 % bucket width). Quantiles
/// interpolate by rank inside a bucket. Fixed 32 KiB, so recording never
/// allocates and memory does not grow with throughput. (calcdb::Histogram
/// counts whole microseconds in 4.6 % buckets: too coarse for ~15 us txns.)
class Hist {
 public:
  void Add(int64_t ns) {
    uint64_t v = ns < 0 ? 0 : static_cast<uint64_t>(ns);
    counts_[Index(v)]++;
    n_++;
    sum_ += static_cast<double>(v);
  }
  void Merge(const Hist& o) {
    for (size_t i = 0; i < counts_.size(); ++i) counts_[i] += o.counts_[i];
    n_ += o.n_;
    sum_ += o.sum_;
  }
  uint64_t count() const { return n_; }
  double MeanNs() const { return n_ == 0 ? 0 : sum_ / static_cast<double>(n_); }

  /// q in [0, 1]; 0 when empty.
  double QuantileNs(double q) const {
    if (n_ == 0) return 0;
    double rank = q * static_cast<double>(n_ - 1);
    uint64_t cum = 0;
    for (size_t i = 0; i < counts_.size(); ++i) {
      if (counts_[i] == 0) continue;
      if (static_cast<double>(cum + counts_[i]) > rank) {
        double frac = (rank - static_cast<double>(cum) + 0.5) /
                      static_cast<double>(counts_[i]);
        return Lower(i) + frac * Width(i);
      }
      cum += counts_[i];
    }
    return Lower(counts_.size() - 1);
  }

 private:
  static constexpr int kSubBits = 6;
  static constexpr uint64_t kSub = 1ull << kSubBits;

  static size_t Index(uint64_t v) {
    if (v < kSub) return static_cast<size_t>(v);
    int msb = 63 - std::countl_zero(v);
    int shift = msb - kSubBits;
    return static_cast<size_t>((shift + 1) * kSub + ((v >> shift) - kSub));
  }
  static double Lower(size_t i) {
    if (i < kSub) return static_cast<double>(i);
    uint64_t shift = i / kSub - 1;
    return static_cast<double>((kSub + i % kSub) << shift);
  }
  static double Width(size_t i) {
    return i < kSub ? 1.0 : static_cast<double>(1ull << (i / kSub - 1));
  }

  std::array<uint64_t, 59 * kSub> counts_{};
  uint64_t n_ = 0;
  double sum_ = 0;
};

/// What one worker thread saw. Each worker owns one; they are merged after
/// the workers have joined.
struct WorkerStats {
  uint64_t attempted = 0;
  uint64_t committed = 0;
  uint64_t user_aborts = 0;  ///< the workload's designed abort
  uint64_t failed = 0;       ///< any other non-OK status
  uint64_t new_orders = 0;   ///< TPC-C NewOrder attempts
  Hist latency;              ///< arrival (or due instant) -> commit
  /// The same latencies split into kSliceNs slices of the window by arrival.
  std::vector<Hist> latency_slices;
  static constexpr int64_t kSliceNs = 100000000;
  Hist execute;              ///< span around Executor::Execute
  Hist next;                 ///< span around WorkloadGenerator::Next
  Hist late;                 ///< open loop: start - due instant
  uint64_t window_commits = 0;  ///< commits that ended inside the window
  std::vector<uint32_t> commits_per_ms;  ///< from the window start
  std::string first_error;

  /// Sizes the per-millisecond commit bins and the latency slices for a
  /// window of `seconds` (bins reach 60 s past it, for overrun).
  void SizeFor(double seconds);
  /// One committed transaction that arrived `arrival_ns` after the window
  /// start and took `latency_ns` to commit.
  void AddLatency(int64_t arrival_ns, int64_t latency_ns);
  void Merge(const WorkerStats& o);
};

/// One checkpoint cycle as seen from outside: the wall span of
/// Database::Checkpoint() plus the engine's own stats for it.
struct CycleRecord {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  calcdb::CheckpointCycleStats stats;
};

/// The harness's output: metrics with units, counts, correctness.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  void Fail(const std::string& why);
  void Stamp(const std::string& key, const std::string& value);

  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct() const { return errors_.empty(); }

  bool WriteJson(const std::string& path) const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::vector<std::string> errors_;
  std::vector<std::pair<std::string, std::string>> stamp_;
};

/// Everything a workload run needs from main().
struct RunContext {
  Flags* flags;
  Tracer* tracer;
  Report* report;
  uint64_t seed;
  double seconds;
  bool setup_only;
  bool tamper;  ///< alter one recovered record to prove the check fires
  std::string work_dir;
  uint64_t root_span;
};

double Median(std::vector<double> v);

/// Options every workload shares: the pinned env-auto knobs, unthrottled
/// checkpoint device, command-log streaming on with 10 ms fsync batches.
calcdb::Options BaseOptions(RunContext& ctx);

/// Records the resolved knobs and build facts in the report's stamp.
void StampOptions(const calcdb::Options& options, Report* report);

/// Byte-for-byte comparison of the recovered store against the live store
/// taken at shutdown. Returns an empty string on a match.
std::string CompareStores(const calcdb::ShardedStore& live,
                          const calcdb::ShardedStore& recovered);

/// Bytes of user data (key + value) held by present records.
uint64_t UserBytes(const calcdb::ShardedStore& store);

/// Commits per second inside and outside the checkpoint cycles, from the
/// per-millisecond commit bins of a window that starts at `window_start`.
void AddCaptureRates(const WorkerStats& total,
                     const std::vector<CycleRecord>& cycles,
                     int64_t window_start, int64_t window_end,
                     Report* report);

/// Per-cycle checkpoint metrics (ckpt.*) and ckpt_cycle_s.
void AddCycleMetrics(const std::vector<CycleRecord>& cycles,
                     uint64_t user_bytes, Report* report);

/// recovery.* metrics from the median-time recovery.
void AddRecoveryMetrics(const std::vector<calcdb::RecoveryStats>& stats,
                        const std::vector<double>& seconds, Report* report);

/// Peak resident set of this process, MiB.
double PeakRssMb();

/// Shared tail of the transactional workloads: txn.* / workload.* metrics
/// and the end-to-end latency figures.
void AddTxnMetrics(const WorkerStats& total, double window_s,
                   Report* report);

/// Stamps of the memory tracker and the store (storage.*), read while
/// the database is still live.
void AddStorageMetrics(calcdb::Database* db, Report* report);

/// Timed recoveries of the database described by `options`: each is a
/// fresh Open, `register_procs`, and RecoverFromCommandLog, followed by a
/// byte-for-byte comparison with `live` and `extra_check`. Runs at least
/// `min_recoveries` and keeps going until `min_seconds` have passed. Adds
/// recovery_s (median) and recovery.*; any mismatch fails the run.
void TimedRecoveries(RunContext& ctx, const calcdb::Options& options,
                     const calcdb::ShardedStore& live, int min_recoveries,
                     double min_seconds, uint64_t parent,
                     const std::function<void(calcdb::Database*)>& register_procs,
                     const std::function<void(const calcdb::ShardedStore&)>&
                         extra_check);

/// The workloads (runs.cc). Each reads its parameters from ctx.flags,
/// sets up, measures and checks, and writes into ctx.report.
void RunMicroCkpt(RunContext& ctx);
void RunTpccOpen(RunContext& ctx);
void RunRecoverReplay(RunContext& ctx);

/// SplitMix64 finalizer: derives independent seeds from the run seed.
uint64_t SplitMix(uint64_t x);

}  // namespace calcbench

#endif  // CALCBENCH_HARNESS_BENCH_H_
