#ifndef CALCDB_BENCH_BENCH_COMMON_H_
#define CALCDB_BENCH_BENCH_COMMON_H_

// Shared harness for the figure-reproduction benchmarks. Each bench
// binary reproduces one table/figure from the paper (see DESIGN.md's
// experiment index) and prints the same series/rows the paper plots.
//
// Scale note: the paper ran 20M x 100B records for 200s windows on a
// 16-core EC2 instance with a 100-150 MB/s disk. Defaults here are
// time-compressed and size-reduced so the whole suite completes on a
// small CI box; every knob is a flag (--records, --seconds, --threads,
// --disk_mbps, ...) so the experiment can be scaled back up. Shapes —
// who dips, for how long, relative overheads — are preserved.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "db/database.h"
#include "obs/obs.h"
#include "storage/memory_tracker.h"
#include "txn/driver.h"
#include "util/clock.h"
#include "workload/microbench.h"

namespace calcdb {
namespace bench {

/// Minimal --key=value flag parser.
class Flags {
 public:
  Flags(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) continue;
      size_t eq = arg.find('=');
      // assign(str, pos, len) instead of substr temporaries: gcc 12's
      // -Wrestrict misfires on the inlined substr-assign at -O2.
      if (eq == std::string::npos) {
        flags_[arg.substr(2)] = "1";
      } else {
        flags_[arg.substr(2, eq - 2)].assign(arg, eq + 1,
                                             std::string::npos);
      }
    }
  }

  int64_t Int(const std::string& name, int64_t def) const {
    auto it = flags_.find(name);
    return it == flags_.end() ? def : std::atoll(it->second.c_str());
  }
  double Double(const std::string& name, double def) const {
    auto it = flags_.find(name);
    return it == flags_.end() ? def : std::atof(it->second.c_str());
  }
  std::string Str(const std::string& name, const std::string& def) const {
    auto it = flags_.find(name);
    return it == flags_.end() ? def : it->second;
  }
  bool Bool(const std::string& name, bool def) const {
    auto it = flags_.find(name);
    if (it == flags_.end()) return def;
    return it->second != "0" && it->second != "false";
  }

 private:
  std::map<std::string, std::string> flags_;
};

/// A fresh scratch directory under /tmp for checkpoint output.
inline std::string MakeScratchDir(const std::string& tag) {
  std::string tmpl = "/tmp/calcdb_bench_" + tag + "_XXXXXX";
  std::vector<char> buf(tmpl.begin(), tmpl.end());
  buf.push_back('\0');
  char* dir = mkdtemp(buf.data());
  return dir != nullptr ? std::string(dir) : std::string("/tmp");
}

inline void RemoveDir(const std::string& dir) {
  std::string cmd = "rm -rf '" + dir + "'";
  int rc = std::system(cmd.c_str());
  (void)rc;
}

/// One experiment run's configuration.
struct RunConfig {
  CheckpointAlgorithm algorithm = CheckpointAlgorithm::kCalc;
  MicrobenchConfig micro;
  int seconds = 16;                 ///< experiment window
  std::vector<double> ckpt_at;      ///< checkpoint trigger times (s)
  int threads = 2;
  uint64_t disk_bytes_per_sec = 25ull << 20;
  double open_loop_rate = 0;        ///< 0 = closed loop (peak load)
  bool base_checkpoint = false;     ///< write a base full ckpt pre-run
  bool background_merge = false;
  size_t merge_batch = 4;
  int capture_threads = 0;          ///< 0 = auto (env var, else 1)
  int storage_shards = 0;           ///< 0 = auto (env var, else 1)
  uint64_t seed = 42;
};

/// One experiment run's outputs.
struct RunResult {
  std::string name;
  std::vector<uint64_t> per_second;   ///< committed txns per second
  uint64_t total_committed = 0;
  std::vector<int64_t> latency_cdf_points;
  std::vector<double> latency_cdf;
  int64_t p50_us = 0, p99_us = 0, p999_us = 0;
  std::vector<CheckpointCycleStats> cycles;
  std::string checkpoint_dir;  ///< retained if keep_dir was set
};

/// Runs one microbenchmark experiment: loads the DB, drives it for
/// `config.seconds`, triggering one checkpoint cycle at each `ckpt_at`
/// instant from a dedicated checkpointer thread (the paper's
/// "signal to start checkpointing").
inline RunResult RunMicrobenchExperiment(const RunConfig& config,
                                         bool keep_dir = false) {
  RunResult result;
  result.name = AlgorithmName(config.algorithm);
  std::string dir = MakeScratchDir(result.name);

  Options options;
  options.max_records = config.micro.num_records + 1024;
  options.algorithm = config.algorithm;
  options.checkpoint_dir = dir;
  options.disk_bytes_per_sec = config.disk_bytes_per_sec;
  options.background_merge = config.background_merge;
  options.merge_batch = config.merge_batch;
  options.capture_threads = config.capture_threads;
  options.storage_shards = config.storage_shards;

  std::unique_ptr<Database> db;
  Status st = Database::Open(options, &db);
  if (!st.ok()) {
    std::fprintf(stderr, "open failed: %s\n", st.ToString().c_str());
    return result;
  }
  st = SetupMicrobench(db.get(), config.micro);
  if (!st.ok()) {
    std::fprintf(stderr, "setup failed: %s\n", st.ToString().c_str());
    return result;
  }
  if (config.base_checkpoint) {
    st = db->WriteBaseCheckpoint();
    if (!st.ok()) {
      std::fprintf(stderr, "base checkpoint failed: %s\n",
                   st.ToString().c_str());
      return result;
    }
  }
  if (!db->Start().ok()) return result;

  MicrobenchWorkload workload(config.micro);
  RunMetrics metrics(config.seconds + 5);

  std::unique_ptr<ClosedLoopDriver> closed;
  std::unique_ptr<OpenLoopDriver> open;
  if (config.open_loop_rate > 0) {
    open = std::make_unique<OpenLoopDriver>(db->executor(), &workload,
                                            &metrics, config.threads,
                                            config.open_loop_rate,
                                            config.seed);
    open->Start();
  } else {
    closed = std::make_unique<ClosedLoopDriver>(
        db->executor(), &workload, &metrics, config.threads, config.seed);
    closed->Start();
  }

  // Checkpoint scheduler thread.
  std::thread scheduler([&] {
    int64_t start = metrics.throughput.start_us();
    for (double at : config.ckpt_at) {
      int64_t target = start + static_cast<int64_t>(at * 1e6);
      while (NowMicros() < target) SleepMicros(5000);
      if (config.algorithm == CheckpointAlgorithm::kNone) continue;
      Status ckpt_st = db->Checkpoint();
      if (!ckpt_st.ok()) {
        std::fprintf(stderr, "[%s] checkpoint failed: %s\n",
                     result.name.c_str(), ckpt_st.ToString().c_str());
      }
      result.cycles.push_back(db->checkpointer()->last_cycle());
    }
  });

  int64_t end = metrics.throughput.start_us() +
                static_cast<int64_t>(config.seconds) * 1000000;
  while (NowMicros() < end) SleepMicros(20000);
  if (closed) closed->Stop();
  if (open) open->Stop();
  scheduler.join();

  result.per_second = metrics.throughput.Series(config.seconds);
  result.total_committed = metrics.throughput.total();
  result.p50_us = metrics.latency.PercentileUs(0.5);
  result.p99_us = metrics.latency.PercentileUs(0.99);
  result.p999_us = metrics.latency.PercentileUs(0.999);
  result.latency_cdf_points = {1000,    3000,    10000,   30000,
                               100000,  300000,  1000000, 3000000,
                               10000000};
  result.latency_cdf = metrics.latency.CdfAt(result.latency_cdf_points);

  if (keep_dir) {
    result.checkpoint_dir = dir;
  } else {
    db.reset();
    RemoveDir(dir);
  }
  return result;
}

/// Prints throughput-over-time series, one row per second, one column per
/// run — the data behind the paper's Figure 2/3/4/7 style plots.
inline void PrintThroughputTable(const std::vector<RunResult>& runs) {
  std::printf("\n%-8s", "sec");
  for (const RunResult& r : runs) std::printf("%12s", r.name.c_str());
  std::printf("\n");
  size_t seconds = 0;
  for (const RunResult& r : runs) {
    seconds = std::max(seconds, r.per_second.size());
  }
  for (size_t s = 0; s < seconds; ++s) {
    std::printf("%-8zu", s + 1);
    for (const RunResult& r : runs) {
      if (s < r.per_second.size()) {
        std::printf("%12llu",
                     static_cast<unsigned long long>(r.per_second[s]));
      } else {
        std::printf("%12s", "-");
      }
    }
    std::printf("\n");
  }
}

/// Prints the "transactions lost" summary: baseline total minus each
/// algorithm's total (paper Figures 2(c), 3(c), 7(b)).
inline void PrintTransactionsLost(const RunResult& baseline,
                                  const std::vector<RunResult>& runs) {
  std::printf("\n%-10s %14s %18s %10s\n", "algo", "committed",
              "txns_lost_vs_none", "lost_%");
  std::printf("%-10s %14llu %18s %10s\n", baseline.name.c_str(),
              static_cast<unsigned long long>(baseline.total_committed),
              "-", "-");
  for (const RunResult& r : runs) {
    int64_t lost = static_cast<int64_t>(baseline.total_committed) -
                   static_cast<int64_t>(r.total_committed);
    double pct = baseline.total_committed == 0
                     ? 0
                     : 100.0 * static_cast<double>(lost) /
                           static_cast<double>(baseline.total_committed);
    std::printf("%-10s %14llu %18lld %9.2f%%\n", r.name.c_str(),
                static_cast<unsigned long long>(r.total_committed),
                static_cast<long long>(lost), pct);
  }
}

/// Discarded warm-up run: the first experiment in a process otherwise
/// pays one-time costs (allocator arena growth, page faults) that would
/// bias the baseline it happens to be. Runs the no-checkpoint workload
/// briefly at the same record count.
inline void WarmUp(const RunConfig& base) {
  RunConfig w = base;
  w.algorithm = CheckpointAlgorithm::kNone;
  w.seconds = 4;
  w.ckpt_at.clear();
  w.micro.long_txn_fraction = 0;
  w.open_loop_rate = 0;
  w.background_merge = false;
  std::printf("warm-up run (discarded)...\n");
  std::fflush(stdout);
  RunMicrobenchExperiment(w);
}

/// Writes the global metrics-registry snapshot as JSON to `path`,
/// tagging the snapshot with the bench name. Returns false on I/O
/// error. With CALCDB_OBS=OFF the instrument sections are empty but
/// the file is still valid against tools/metrics_schema.json.
inline bool ExportMetricsJson(const std::string& path,
                              const std::string& bench_name) {
  char ts[32];
  std::snprintf(ts, sizeof(ts), "%lld",
                static_cast<long long>(NowMicros()));
  std::string json = obs::MetricsRegistry::Global().SnapshotJson(
      {{"bench", bench_name}, {"ts_us", ts}});
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  size_t written = std::fwrite(json.data(), 1, json.size(), f);
  std::fputc('\n', f);
  int rc = std::fclose(f);
  return written == json.size() && rc == 0;
}

/// Standard observability tail for every fig* binary: dumps a metrics
/// JSON (--metrics_out, default "<bench>_metrics.json"; "none"
/// disables) and, when --trace_out is set (fig5 defaults it to
/// trace.json), the Perfetto-loadable trace ring.
inline void ExportObsArtifacts(const Flags& flags,
                               const std::string& bench_name,
                               const std::string& default_trace = "") {
  std::string metrics_path =
      flags.Str("metrics_out", bench_name + "_metrics.json");
  if (metrics_path != "none" && !metrics_path.empty()) {
    if (ExportMetricsJson(metrics_path, bench_name)) {
      std::printf("metrics json: %s\n", metrics_path.c_str());
    } else {
      std::fprintf(stderr, "failed to write metrics json: %s\n",
                   metrics_path.c_str());
    }
  }
  std::string trace_path = flags.Str("trace_out", default_trace);
  if (trace_path != "none" && !trace_path.empty()) {
    if (obs::Tracer::Global().ExportJson(trace_path)) {
      std::printf("trace json:   %s (open in https://ui.perfetto.dev)\n",
                  trace_path.c_str());
    } else {
      std::fprintf(stderr, "failed to write trace json: %s\n",
                   trace_path.c_str());
    }
  }
#if CALCDB_OBS_ENABLED
  // Event dump: the in-memory ring, newest-first window of the run's
  // structured events (tools/validate_events.py checks the format in
  // CI). Off by default — a clean run usually has nothing to say.
  std::string events_path = flags.Str("events_out", "");
  if (events_path != "none" && !events_path.empty()) {
    if (obs::EventLog::Global().ExportJsonl(events_path)) {
      std::printf("events jsonl: %s\n", events_path.c_str());
    } else {
      std::fprintf(stderr, "failed to write events jsonl: %s\n",
                   events_path.c_str());
    }
  }
#endif
}

/// Reads the standard scale flags shared by the figure benches.
inline RunConfig ConfigFromFlags(const Flags& flags) {
  RunConfig config;
  config.micro.num_records =
      static_cast<uint64_t>(flags.Int("records", 300000));
  config.micro.value_size =
      static_cast<size_t>(flags.Int("value_size", 100));
  config.micro.ops_per_txn = static_cast<int>(flags.Int("ops", 10));
  config.seconds = static_cast<int>(flags.Int("seconds", 12));
  config.threads = static_cast<int>(flags.Int("threads", 2));
  config.disk_bytes_per_sec =
      static_cast<uint64_t>(flags.Double("disk_mbps", 25.0) * 1048576.0);
  config.capture_threads =
      static_cast<int>(flags.Int("capture_threads", 0));
  config.storage_shards =
      static_cast<int>(flags.Int("storage_shards", 0));
  config.seed = static_cast<uint64_t>(flags.Int("seed", 42));
  return config;
}

inline std::vector<CheckpointAlgorithm> AlgorithmsFromFlag(
    const Flags& flags, const std::string& def) {
  std::vector<CheckpointAlgorithm> out;
  std::string list = flags.Str("algos", def);
  size_t pos = 0;
  while (pos < list.size()) {
    size_t comma = list.find(',', pos);
    if (comma == std::string::npos) comma = list.size();
    std::string name = list.substr(pos, comma - pos);
    CheckpointAlgorithm algo;
    if (ParseAlgorithm(name, &algo)) out.push_back(algo);
    pos = comma + 1;
  }
  return out;
}

}  // namespace bench
}  // namespace calcdb

#endif  // CALCDB_BENCH_BENCH_COMMON_H_
