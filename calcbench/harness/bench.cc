#include "bench.h"

#include <sys/resource.h>

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <thread>

#include "storage/memory_tracker.h"

namespace calcbench {

using calcdb::Database;
using calcdb::Options;
using calcdb::Record;
using calcdb::RecoveryStats;
using calcdb::ShardedStore;
using calcdb::Status;

Flags::Flags(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) continue;
    size_t eq = arg.find('=');
    if (eq == std::string::npos) {
      values_[arg.substr(2)] = "1";
    } else {
      values_[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
    }
  }
}

std::string Flags::Str(const std::string& name) {
  auto it = values_.find(name);
  if (it == values_.end()) {
    missing_.push_back(name);
    return "";
  }
  return it->second;
}

int64_t Flags::Int(const std::string& name) {
  std::string v = Str(name);
  return v.empty() ? 0 : std::strtoll(v.c_str(), nullptr, 10);
}

double Flags::Double(const std::string& name) {
  std::string v = Str(name);
  return v.empty() ? 0 : std::strtod(v.c_str(), nullptr);
}

void WorkerStats::SizeFor(double seconds) {
  commits_per_ms.assign(static_cast<size_t>((seconds + 60) * 1000), 0);
  latency_slices.assign(
      static_cast<size_t>(std::ceil(seconds * 1e9 / kSliceNs)) + 1, Hist{});
}

void WorkerStats::AddLatency(int64_t arrival_ns, int64_t latency_ns) {
  latency.Add(latency_ns);
  size_t slice = static_cast<size_t>(std::max<int64_t>(arrival_ns, 0) / kSliceNs);
  if (slice < latency_slices.size()) latency_slices[slice].Add(latency_ns);
}

void WorkerStats::Merge(const WorkerStats& o) {
  attempted += o.attempted;
  committed += o.committed;
  window_commits += o.window_commits;
  user_aborts += o.user_aborts;
  failed += o.failed;
  new_orders += o.new_orders;
  latency.Merge(o.latency);
  if (latency_slices.size() < o.latency_slices.size()) {
    latency_slices.resize(o.latency_slices.size());
  }
  for (size_t i = 0; i < o.latency_slices.size(); ++i) {
    latency_slices[i].Merge(o.latency_slices[i]);
  }
  execute.Merge(o.execute);
  next.Merge(o.next);
  late.Merge(o.late);
  if (commits_per_ms.size() < o.commits_per_ms.size()) {
    commits_per_ms.resize(o.commits_per_ms.size(), 0);
  }
  for (size_t i = 0; i < o.commits_per_ms.size(); ++i) {
    commits_per_ms[i] += o.commits_per_ms[i];
  }
  if (first_error.empty()) first_error = o.first_error;
}

void Report::Add(const std::string& name, double value,
                 const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void Report::Fail(const std::string& why) {
  std::fprintf(stderr, "calcbench: FAIL: %s\n", why.c_str());
  errors_.push_back(why);
}

void Report::Stamp(const std::string& key, const std::string& value) {
  stamp_.emplace_back(key, value);
}

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace

bool Report::WriteJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"correct\": %s, \"attempted\": %" PRIu64
                  ", \"failed\": %" PRIu64 ",\n \"errors\": [",
               correct() ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < errors_.size(); ++i) {
    std::fprintf(f, "%s%s", i ? ", " : "", JsonString(errors_[i]).c_str());
  }
  std::fprintf(f, "],\n \"stamp\": {");
  for (size_t i = 0; i < stamp_.size(); ++i) {
    std::fprintf(f, "%s%s: %s", i ? ", " : "",
                 JsonString(stamp_[i].first).c_str(),
                 JsonString(stamp_[i].second).c_str());
  }
  std::fprintf(f, "},\n \"metrics\": {");
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    std::fprintf(f, "%s\n  %s: {\"value\": ", i ? "," : "",
                 JsonString(m.name).c_str());
    if (std::isfinite(m.value)) {
      std::fprintf(f, "%.17g", m.value);
    } else {
      std::fprintf(f, "null");
    }
    std::fprintf(f, ", \"unit\": %s}", JsonString(m.unit).c_str());
  }
  std::fprintf(f, "\n }\n}\n");
  return std::fclose(f) == 0;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

uint64_t SplitMix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

Options BaseOptions(RunContext& ctx) {
  Flags& flags = *ctx.flags;
  Options options;
  options.checkpoint_dir = ctx.work_dir + "/ckpt";
  options.command_log_path = ctx.work_dir + "/log/cmdlog";
  options.command_log_flush_ms = static_cast<int>(flags.Int("log_flush_ms"));
  options.disk_bytes_per_sec = static_cast<uint64_t>(flags.Int("disk_bytes_per_sec"));
  options.storage_shards = static_cast<int>(flags.Int("storage_shards"));
  options.capture_threads = static_cast<int>(flags.Int("capture_threads"));
  options.recovery_threads = static_cast<int>(flags.Int("recovery_threads"));
  options.replay_threads = static_cast<int>(flags.Int("replay_threads"));
  options.ckpt_async_io = static_cast<int>(flags.Int("ckpt_async_io"));
  std::error_code ec;
  std::filesystem::create_directories(ctx.work_dir + "/log", ec);
  if (ec) ctx.report->Fail("cannot create " + ctx.work_dir + "/log");
  return options;
}

void StampOptions(const Options& options, Report* report) {
  report->Stamp("algorithm", calcdb::AlgorithmName(options.algorithm));
  report->Stamp("storage_shards",
                std::to_string(Database::ResolvedStorageShards(options)));
  report->Stamp("capture_threads",
                std::to_string(Database::ResolvedCaptureThreads(options)));
  report->Stamp("recovery_threads",
                std::to_string(Database::ResolvedRecoveryThreads(options)));
  report->Stamp("replay_threads",
                std::to_string(Database::ResolvedReplayThreads(options)));
  report->Stamp("ckpt_async_io",
                Database::ResolvedAsyncIo(options) ? "on" : "off");
  report->Stamp("disk_bytes_per_sec",
                std::to_string(options.disk_bytes_per_sec));
  report->Stamp("command_log_flush_ms",
                std::to_string(options.command_log_flush_ms));
  report->Stamp("host_cores",
                std::to_string(std::thread::hardware_concurrency()));
  report->Stamp("compiler", __VERSION__);
  report->Stamp("build_type", CALCBENCH_BUILD_TYPE);
  report->Stamp("calcdb_obs", CALCDB_OBS_ENABLED ? "on" : "off");
  report->Stamp("calcdb_faults", CALCDB_FAULTS_ENABLED ? "on" : "off");
}

namespace {

template <typename Fn>
uint64_t ForEachPresent(const ShardedStore& store, Fn&& fn) {
  uint64_t n = 0;
  std::string value;
  store.ForEachRecord([&](Record* rec) {
    if (rec == nullptr || rec->key == ~uint64_t{0}) return;
    if (!store.Get(rec->key, &value).ok()) return;
    n++;
    fn(rec->key, value);
  });
  return n;
}

}  // namespace

std::string CompareStores(const ShardedStore& live,
                          const ShardedStore& recovered) {
  std::string mismatch;
  std::string other;
  uint64_t live_n = ForEachPresent(live, [&](uint64_t key,
                                             const std::string& value) {
    if (!mismatch.empty()) return;
    if (!recovered.Get(key, &other).ok()) {
      mismatch = "key " + std::to_string(key) + " missing after recovery";
    } else if (other != value) {
      mismatch = "key " + std::to_string(key) + " differs after recovery";
    }
  });
  if (!mismatch.empty()) return mismatch;
  uint64_t rec_n =
      ForEachPresent(recovered, [](uint64_t, const std::string&) {});
  if (rec_n != live_n) {
    return "recovered " + std::to_string(rec_n) + " records, live store had " +
           std::to_string(live_n);
  }
  return "";
}

uint64_t UserBytes(const ShardedStore& store) {
  uint64_t bytes = 0;
  ForEachPresent(store, [&](uint64_t, const std::string& value) {
    bytes += sizeof(uint64_t) + value.size();
  });
  return bytes;
}

void AddCaptureRates(const WorkerStats& total,
                     const std::vector<CycleRecord>& cycles,
                     int64_t window_start, int64_t window_end,
                     Report* report) {
  const int64_t kMs = 1000000;
  uint64_t in_capture = 0, at_rest = 0;
  for (size_t b = 0; b < total.commits_per_ms.size(); ++b) {
    int64_t mid = window_start + static_cast<int64_t>(b) * kMs + kMs / 2;
    if (mid >= window_end) break;
    bool inside = false;
    for (const CycleRecord& c : cycles) {
      if (mid >= c.start_ns && mid < c.end_ns) inside = true;
    }
    (inside ? in_capture : at_rest) += total.commits_per_ms[b];
  }
  int64_t capture_ns = 0;
  for (const CycleRecord& c : cycles) {
    capture_ns += std::max<int64_t>(
        0, std::min(c.end_ns, window_end) - std::max(c.start_ns, window_start));
  }
  int64_t rest_ns = window_end - window_start - capture_ns;
  double tps_in = capture_ns > 0 ? static_cast<double>(in_capture) * 1e9 /
                                       static_cast<double>(capture_ns)
                                 : 0;
  double tps_rest = rest_ns > 0 ? static_cast<double>(at_rest) * 1e9 /
                                      static_cast<double>(rest_ns)
                                : 0;
  report->Add("txn.tps_in_capture", tps_in, "1/s");
  report->Add("txn.tps_at_rest", tps_rest, "1/s");
  report->Add("txn.capture_tps_ratio", tps_rest > 0 ? tps_in / tps_rest : 0,
              "ratio");
  report->Add("txn.capture_share",
              static_cast<double>(capture_ns) /
                  static_cast<double>(std::max<int64_t>(1, window_end - window_start)),
              "fraction");
}

void AddCycleMetrics(const std::vector<CycleRecord>& cycles,
                     uint64_t user_bytes, Report* report) {
  std::vector<double> wall, quiesce, capture, mbps, per_user;
  double bytes = 0, records = 0, segments = 0;
  for (const CycleRecord& c : cycles) {
    wall.push_back(static_cast<double>(c.end_ns - c.start_ns) / 1e9);
    quiesce.push_back(static_cast<double>(c.stats.quiesce_micros));
    capture.push_back(static_cast<double>(c.stats.capture_micros));
    if (c.stats.capture_micros > 0) {
      mbps.push_back(static_cast<double>(c.stats.bytes_written) /
                     static_cast<double>(c.stats.capture_micros));
    }
    if (user_bytes > 0) {
      per_user.push_back(static_cast<double>(c.stats.bytes_written) /
                         static_cast<double>(user_bytes));
    }
    bytes += static_cast<double>(c.stats.bytes_written);
    records += static_cast<double>(c.stats.records_written);
    segments += static_cast<double>(c.stats.segments);
  }
  if (cycles.empty()) report->Fail("no checkpoint cycle completed");
  report->Add("ckpt_cycle_s", Median(wall), "s");
  report->Add("ckpt.cycles", static_cast<double>(cycles.size()), "count");
  report->Add("ckpt.quiesce_us", Median(quiesce), "us");
  report->Add("ckpt.capture_us", Median(capture), "us");
  report->Add("ckpt.write_mbps", Median(mbps), "MB/s");
  report->Add("ckpt.bytes_written", bytes, "B");
  report->Add("ckpt.records_written", records, "count");
  report->Add("ckpt.segments", segments, "count");
  report->Add("ckpt.bytes_per_user_byte", Median(per_user), "ratio");
}

void AddRecoveryMetrics(const std::vector<RecoveryStats>& stats,
                        const std::vector<double>& seconds, Report* report) {
  std::vector<double> load, replay, rate;
  for (const RecoveryStats& s : stats) {
    load.push_back(static_cast<double>(s.load_micros));
    replay.push_back(static_cast<double>(s.replay_micros));
    if (s.replay_micros > 0) {
      rate.push_back(static_cast<double>(s.txns_replayed) * 1e6 /
                     static_cast<double>(s.replay_micros));
    }
  }
  report->Add("recovery_s", Median(seconds), "s");
  report->Add("recovery.runs", static_cast<double>(seconds.size()), "count");
  report->Add("recovery.load_us", Median(load), "us");
  report->Add("recovery.replay_us", Median(replay), "us");
  report->Add("recovery.replay_txns_per_s", Median(rate), "1/s");
  const RecoveryStats first = stats.empty() ? RecoveryStats{} : stats[0];
  report->Add("recovery.entries_applied",
              static_cast<double>(first.entries_applied), "count");
  report->Add("recovery.txns_replayed",
              static_cast<double>(first.txns_replayed), "count");
  report->Add("recovery.serial_fallbacks",
              static_cast<double>(first.replay_serial_fallbacks), "count");
  double skew = 1.0;
  if (first.replayed_per_worker.size() > 1) {
    auto [lo, hi] = std::minmax_element(first.replayed_per_worker.begin(),
                                        first.replayed_per_worker.end());
    skew = static_cast<double>(*hi) /
           static_cast<double>(std::max<uint64_t>(*lo, 1));
  }
  report->Add("recovery.worker_skew", skew, "ratio");
}

namespace {

// A slice's p99 needs at least ten samples beyond it.
constexpr uint64_t kMinSliceSamples = 1000;

}  // namespace

double PeakRssMb() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void AddTxnMetrics(const WorkerStats& total, double window_s,
                   Report* report) {
  report->attempted = total.attempted;
  report->failed = total.failed;
  report->Add("throughput_tps",
              window_s > 0 ? static_cast<double>(total.window_commits) / window_s : 0,
              "txn/s");
  // Latency percentiles are the median over the window's whole 100 ms slices
  // of each slice's percentile, so one stall in one slice cannot swing the
  // figure; the whole-window p99 is reported beside it.
  std::vector<double> p50, p99;
  for (size_t i = 0; i < total.latency_slices.size(); ++i) {
    const Hist& h = total.latency_slices[i];
    double slice_end_s = static_cast<double>((i + 1) * WorkerStats::kSliceNs) / 1e9;
    if (slice_end_s > window_s || h.count() < kMinSliceSamples) continue;
    p50.push_back(h.QuantileNs(0.50));
    p99.push_back(h.QuantileNs(0.99));
  }
  if (p50.empty()) {
    p50.push_back(total.latency.QuantileNs(0.50));
    p99.push_back(total.latency.QuantileNs(0.99));
  }
  report->Add("txn_p50_us", Median(p50) / 1e3, "us");
  report->Add("txn_p99_us", Median(p99) / 1e3, "us");
  report->Add("txn.p99_us_window", total.latency.QuantileNs(0.99) / 1e3, "us");
  report->Add("txn.latency_slices", static_cast<double>(p50.size()), "count");
  report->Add("txn.latency_samples", static_cast<double>(total.latency.count()),
              "count");
  // The complement of the failed share, so the end-to-end figure is never 0.
  report->Add("txn_ok_frac",
              total.attempted > 0
                  ? static_cast<double>(total.attempted - total.failed) /
                        static_cast<double>(total.attempted)
                  : 0,
              "fraction");
  report->Add("txn.failed_frac",
              total.attempted > 0 ? static_cast<double>(total.failed) /
                                        static_cast<double>(total.attempted)
                                  : 0,
              "fraction");
  report->Add("txn.attempted", static_cast<double>(total.attempted), "count");
  report->Add("txn.committed", static_cast<double>(total.committed), "count");
  report->Add("txn.user_aborts", static_cast<double>(total.user_aborts),
              "count");
  report->Add("txn.failed", static_cast<double>(total.failed), "count");
  report->Add("txn.user_abort_share",
              total.new_orders > 0 ? static_cast<double>(total.user_aborts) /
                                         static_cast<double>(total.new_orders)
                                   : 0,
              "fraction");
  report->Add("txn.execute_us_p50", total.execute.QuantileNs(0.50) / 1e3, "us");
  report->Add("txn.execute_us_p99", total.execute.QuantileNs(0.99) / 1e3, "us");
  report->Add("workload.next_us", total.next.MeanNs() / 1e3, "us");
  report->Add("workload.late_ms_p99", total.late.QuantileNs(0.99) / 1e6, "ms");
  if (total.failed > 0) {
    std::fprintf(stderr, "calcbench: %" PRIu64 " failed transactions; first: %s\n",
                 total.failed, total.first_error.c_str());
  }
}

void AddStorageMetrics(Database* db, Report* report) {
  const calcdb::MemoryTracker& mem = calcdb::MemoryTracker::Global();
  report->Add("storage.value_bytes", static_cast<double>(mem.value_bytes()), "B");
  report->Add("storage.pool_bytes", static_cast<double>(mem.pool_bytes()), "B");
  report->Add("storage.present_records",
              static_cast<double>(db->store()->CountPresent()), "count");
}

void TimedRecoveries(RunContext& ctx, const Options& options,
                     const ShardedStore& live, int min_recoveries,
                     double min_seconds, uint64_t parent,
                     const std::function<void(Database*)>& register_procs,
                     const std::function<void(const ShardedStore&)>& extra_check) {
  std::vector<RecoveryStats> stats;
  std::vector<double> seconds;
  int64_t begin = NowNs();
  while (static_cast<int>(seconds.size()) < min_recoveries ||
         static_cast<double>(NowNs() - begin) / 1e9 < min_seconds) {
    int64_t t0 = NowNs();
    std::unique_ptr<Database> db;
    Status st;
    {
      ScopedSpan span(ctx.tracer, "db.open", parent);
      st = Database::Open(options, &db);
    }
    if (!st.ok()) {
      ctx.report->Fail("recovery open: " + st.ToString());
      return;
    }
    register_procs(db.get());
    RecoveryStats rs;
    {
      ScopedSpan span(ctx.tracer, "recovery.recover", parent);
      st = db->RecoverFromCommandLog(&rs);
    }
    double elapsed = static_cast<double>(NowNs() - t0) / 1e9;
    if (!st.ok()) {
      ctx.report->Fail("recovery: " + st.ToString());
      return;
    }
    if (ctx.tamper && seconds.empty()) {
      // Self-test hook: flip one byte of one recovered record.
      ShardedStore* store = db->store();
      bool done = false;
      std::string value;
      store->ForEachRecord([&](Record* rec) {
        if (done || rec == nullptr || rec->key == ~uint64_t{0}) return;
        if (!store->Get(rec->key, &value).ok() || value.empty()) return;
        value[0] = static_cast<char>(value[0] ^ 0x5a);
        done = store->Put(rec->key, value).ok();
      });
    }
    std::string mismatch = CompareStores(live, *db->store());
    if (!mismatch.empty()) {
      ctx.report->Fail("recovered state != live state: " + mismatch);
      return;
    }
    if (extra_check) extra_check(*db->store());
    seconds.push_back(elapsed);
    stats.push_back(rs);
  }
  AddRecoveryMetrics(stats, seconds, ctx.report);
}

}  // namespace calcbench
