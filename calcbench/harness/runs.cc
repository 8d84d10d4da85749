// The three benchmark workloads. Each drives the engine only through its
// public API, with its own worker loops around Executor::Execute that count
// every outcome, and checks the recovered state against the live store.

#include <time.h>

#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <mutex>
#include <thread>

#include "bench.h"
#include "log/command_log_streamer.h"
#include "workload/microbench.h"
#include "workload/tpcc.h"

namespace calcbench {

using calcdb::CheckpointAlgorithm;
using calcdb::CommandLogStreamer;
using calcdb::Database;
using calcdb::Options;
using calcdb::Rng;
using calcdb::ShardedStore;
using calcdb::Status;
using calcdb::Txn;
using calcdb::TxnRequest;
using calcdb::WorkloadGenerator;

namespace {

constexpr int64_t kMsNs = 1000000;
constexpr int64_t kSecNs = 1000000000;

void SleepUntilNs(int64_t deadline) {
  timespec ts{};
  ts.tv_sec = deadline / kSecNs;
  ts.tv_nsec = deadline % kSecNs;
  // steady_clock is CLOCK_MONOTONIC on Linux.
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) == EINTR) {
  }
}

double SecondsSince(int64_t start) {
  return static_cast<double>(NowNs() - start) / 1e9;
}

/// TPC-C's designed NewOrder rollback (~1 % of NewOrders).
bool IsDesignedAbort(const Status& st) {
  return st.IsAborted() && st.message() == "unused item number";
}

void RecordOutcome(WorkerStats* ws, const Status& st, bool designed_aborts) {
  ws->attempted++;
  if (st.ok()) {
    ws->committed++;
  } else if (designed_aborts && IsDesignedAbort(st)) {
    ws->user_aborts++;
  } else {
    ws->failed++;
    if (ws->first_error.empty()) ws->first_error = st.ToString();
  }
}

/// Measures how long a commit waits until the command-log streamer has
/// fsynced it: workers push (commit LSN, commit instant) samples, and a
/// poller checks them against CommandLogStreamer::persisted_lsn every
/// 100 us. Only used in the traced run.
class LagSampler {
 public:
  explicit LagSampler(const CommandLogStreamer* streamer)
      : streamer_(streamer), thread_([this] { Loop(); }) {}
  ~LagSampler() { Stop(); }
  LagSampler(const LagSampler&) = delete;
  LagSampler& operator=(const LagSampler&) = delete;

  void Push(uint64_t lsn, int64_t commit_ns) {
    std::lock_guard<std::mutex> lock(mu_);
    pending_.push_back({lsn, commit_ns});
  }

  /// Waits (at most 2 s) until every pushed commit is durable, then stops.
  void Stop() {
    if (!thread_.joinable()) return;
    stop_.store(true, std::memory_order_release);
    thread_.join();
  }

  const Hist& hist() const { return hist_; }

 private:
  struct Sample {
    uint64_t lsn;
    int64_t commit_ns;
  };

  void Loop() {
    std::vector<Sample> waiting;
    int64_t give_up = 0;
    while (true) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        waiting.insert(waiting.end(), pending_.begin(), pending_.end());
        pending_.clear();
      }
      uint64_t durable = streamer_->persisted_lsn();
      int64_t now = NowNs();
      std::erase_if(waiting, [&](const Sample& s) {
        if (s.lsn >= durable) return false;
        hist_.Add(now - s.commit_ns);
        return true;
      });
      if (stop_.load(std::memory_order_acquire)) {
        if (give_up == 0) give_up = now + 2 * kSecNs;
        if (waiting.empty() || now > give_up) break;
      }
      SleepUntilNs(now + 100000);
    }
  }

  const CommandLogStreamer* streamer_;
  std::mutex mu_;
  std::vector<Sample> pending_;  // guarded by mu_
  Hist hist_;                    // poller thread only until joined
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

void AddLagMetrics(LagSampler* lag, Report* report) {
  if (lag == nullptr) return;
  lag->Stop();
  report->Add("log.durable_lag_ms_p50", lag->hist().QuantileNs(0.50) / 1e6, "ms");
  report->Add("log.durable_lag_ms_p99", lag->hist().QuantileNs(0.99) / 1e6, "ms");
  report->Add("log.durable_lag_samples", static_cast<double>(lag->hist().count()),
              "count");
}

/// Per-worker span and trace lane: the worker's leaf spans hang off it.
class WorkerTrace {
 public:
  WorkerTrace(Tracer* tracer, uint64_t parent)
      : tracer_(tracer),
        span_(tracer->Begin("bench.worker", parent)),
        lane_(tracer->NewLane(span_)) {}
  ~WorkerTrace() { tracer_->End(span_); }
  WorkerTrace(const WorkerTrace&) = delete;
  WorkerTrace& operator=(const WorkerTrace&) = delete;

  void Leaves(int64_t t0, int64_t t1, int64_t t2) {
    if (lane_ == nullptr) return;
    lane_->Leaf("workload.next", t0, t1);
    lane_->Leaf("txn.execute", t1, t2);
  }

 private:
  Tracer* tracer_;
  uint64_t span_;
  TraceLane* lane_;
};

// --- set-up and tear-down shared by the workloads ---------------------------

void RegisterMicro(Database* db, size_t value_size) {
  db->registry()->Register(std::make_unique<calcdb::RmwProcedure>(value_size));
}

void RegisterTpcc(Database* db) {
  db->registry()->Register(std::make_unique<calcdb::tpcc::NewOrderProcedure>());
  db->registry()->Register(std::make_unique<calcdb::tpcc::PaymentProcedure>());
}

bool OpenDb(RunContext& ctx, const Options& options, uint64_t parent,
            std::unique_ptr<Database>* db) {
  int64_t t0 = NowNs();
  Status st;
  {
    ScopedSpan span(ctx.tracer, "db.open", parent);
    st = Database::Open(options, db);
  }
  ctx.report->Add("db.open_us", static_cast<double>(NowNs() - t0) / 1e3, "us");
  if (!st.ok()) ctx.report->Fail("open: " + st.ToString());
  return st.ok();
}

bool StartDb(RunContext& ctx, Database* db, uint64_t parent) {
  int64_t t0 = NowNs();
  Status st;
  {
    ScopedSpan span(ctx.tracer, "db.start", parent);
    st = db->Start();
  }
  ctx.report->Add("db.start_us", static_cast<double>(NowNs() - t0) / 1e3, "us");
  if (!st.ok()) ctx.report->Fail("start: " + st.ToString());
  return st.ok();
}

/// Loads `records` microbenchmark records through Database::Load.
bool LoadMicro(RunContext& ctx, Database* db, uint64_t records,
               size_t value_size, uint64_t parent) {
  int64_t t0 = NowNs();
  ScopedSpan span(ctx.tracer, "storage.load", parent);
  for (uint64_t key = 0; key < records; ++key) {
    Status st = db->Load(key, calcdb::MicrobenchInitialValue(key, value_size));
    if (!st.ok()) {
      ctx.report->Fail("load: " + st.ToString());
      return false;
    }
  }
  ctx.report->Add("storage.load_us_per_record",
                  static_cast<double>(NowNs() - t0) / 1e3 /
                      static_cast<double>(std::max<uint64_t>(records, 1)),
                  "us");
  return true;
}

/// Takes one checkpoint cycle and records it.
bool TimedCheckpoint(RunContext& ctx, Database* db, uint64_t parent,
                     std::vector<CycleRecord>* cycles) {
  CycleRecord c;
  c.start_ns = NowNs();
  Status st;
  {
    ScopedSpan span(ctx.tracer, "ckpt.cycle", parent);
    st = db->Checkpoint();
  }
  c.end_ns = NowNs();
  if (!st.ok()) {
    ctx.report->Fail("checkpoint: " + st.ToString());
    return false;
  }
  c.stats = db->checkpointer()->last_cycle();
  cycles->push_back(c);
  return true;
}

/// Shuts the live database down (the final log drain) and reports the
/// command-log figures.
bool ShutdownLive(RunContext& ctx, Database* db, const Options& options,
                  uint64_t parent) {
  uint64_t entries = db->commit_log()->Size();
  int64_t t0 = NowNs();
  Status st;
  {
    ScopedSpan span(ctx.tracer, "db.shutdown", parent);
    st = db->Shutdown();
  }
  ctx.report->Add("db.shutdown_us", static_cast<double>(NowNs() - t0) / 1e3, "us");
  if (!st.ok()) {
    ctx.report->Fail("shutdown: " + st.ToString());
    return false;
  }
  ctx.report->Add("log.entries_end", static_cast<double>(entries), "count");
  std::vector<std::string> files;
  st = CommandLogStreamer::ListLogFiles(options.command_log_path, &files);
  if (!st.ok()) {
    ctx.report->Fail("list log files: " + st.ToString());
    return false;
  }
  uint64_t bytes = 0;
  for (const std::string& f : files) {
    std::error_code ec;
    uint64_t size = std::filesystem::file_size(f, ec);
    if (!ec) bytes += size;
  }
  ctx.report->Add("log.bytes_per_txn",
                  static_cast<double>(bytes) /
                      static_cast<double>(
                          std::max<uint64_t>(db->executor()->committed(), 1)),
                  "B");
  return true;
}

// --- closed loop -------------------------------------------------------------

struct ClosedLoop {
  calcdb::Executor* executor;
  WorkloadGenerator* workload;
  uint64_t seed;
  LagSampler* lag;
  std::atomic<int64_t> window_start{0};  ///< 0 while warming up
  std::atomic<bool> stop{false};
};

/// One closed-loop worker: issue, wait for the outcome, repeat. Only
/// transactions issued inside the window and finished before it closed
/// count; every outcome of those is counted.
void ClosedLoopWorker(ClosedLoop* loop, int index, WorkerStats* ws,
                      WorkerTrace* trace) {
  Rng rng(SplitMix(loop->seed ^ (0x51ed2701ULL * static_cast<uint64_t>(index + 1))));
  while (!loop->stop.load(std::memory_order_acquire)) {
    int64_t t0 = NowNs();
    TxnRequest req = loop->workload->Next(rng);
    int64_t t1 = NowNs();
    Txn txn;
    Status st = loop->executor->Execute(req.proc_id, std::move(req.args),
                                        t1 / 1000, &txn);
    int64_t t2 = NowNs();
    trace->Leaves(t0, t1, t2);
    int64_t start = loop->window_start.load(std::memory_order_acquire);
    if (start == 0 || t1 < start || loop->stop.load(std::memory_order_acquire)) {
      continue;
    }
    RecordOutcome(ws, st, /*designed_aborts=*/false);
    ws->next.Add(t1 - t0);
    ws->execute.Add(t2 - t1);
    if (!st.ok()) continue;
    ws->window_commits++;
    ws->AddLatency(t1 - start, t2 - t1);
    size_t bin = static_cast<size_t>((t2 - start) / kMsNs);
    if (bin < ws->commits_per_ms.size()) ws->commits_per_ms[bin]++;
    if (loop->lag != nullptr && ws->committed % 16 == 0) {
      loop->lag->Push(txn.commit_lsn, txn.commit_us * 1000);
    }
  }
}

// --- open loop ---------------------------------------------------------------

struct OpenLoop {
  calcdb::Executor* executor = nullptr;
  WorkloadGenerator* workload = nullptr;
  uint64_t seed = 0;
  LagSampler* lag = nullptr;
  std::vector<int64_t> due;    ///< arrival offsets from sched_start, ns
  size_t first_measured = 0;   ///< arrivals before this are warm-up
  int64_t sched_start = 0;
  int64_t window_start = 0;
  int64_t window_end = 0;
  std::atomic<size_t> next{0};
  std::atomic<bool> closed{false};
};

/// Poisson arrivals at `rate` per second over [0, span_ns): a fixed function
/// of the rate and the seed.
std::vector<int64_t> ArrivalSchedule(double rate, int64_t span_ns, uint64_t seed) {
  Rng rng(SplitMix(seed ^ 0x5c4ed11eULL));
  std::vector<int64_t> due;
  double t = 0;
  while (true) {
    t += -std::log(1.0 - rng.NextDouble()) / rate * 1e9;
    if (t >= static_cast<double>(span_ns)) break;
    due.push_back(static_cast<int64_t>(t));
  }
  return due;
}

/// One open-loop worker: take the next arrival, wait for its due instant,
/// run it. Latency and lateness count from the due instant, so a stall
/// charges every arrival queued behind it. Arrival i's input comes from
/// its own Rng(seed, i), whichever worker runs it.
void OpenLoopWorker(OpenLoop* loop, WorkerStats* ws, WorkerTrace* trace) {
  while (true) {
    size_t i = loop->next.fetch_add(1, std::memory_order_relaxed);
    if (i >= loop->due.size()) break;
    int64_t due = loop->sched_start + loop->due[i];
    // Wait by yielding rather than sleeping: a sleeping thread's vCPU may
    // go idle and wake milliseconds late on a shared host, which would be
    // charged to the engine as lateness.
    while (NowNs() < due) std::this_thread::yield();
    if (loop->closed.load(std::memory_order_acquire)) break;
    int64_t t0 = NowNs();
    Rng rng(SplitMix(loop->seed ^ SplitMix(i)));
    TxnRequest req = loop->workload->Next(rng);
    uint32_t proc_id = req.proc_id;
    int64_t t1 = NowNs();
    Txn txn;
    Status st =
        loop->executor->Execute(proc_id, std::move(req.args), due / 1000, &txn);
    int64_t t2 = NowNs();
    trace->Leaves(t0, t1, t2);
    if (i < loop->first_measured) continue;
    RecordOutcome(ws, st, /*designed_aborts=*/true);
    if (proc_id == calcdb::tpcc::kNewOrderProcId) ws->new_orders++;
    ws->late.Add(t0 - due);
    ws->next.Add(t1 - t0);
    ws->execute.Add(t2 - t1);
    if (!st.ok()) continue;
    ws->AddLatency(due - loop->window_start, t2 - due);
    if (t2 <= loop->window_end) ws->window_commits++;
    if (t2 >= loop->window_start) {
      size_t bin = static_cast<size_t>((t2 - loop->window_start) / kMsNs);
      if (bin < ws->commits_per_ms.size()) ws->commits_per_ms[bin]++;
    }
    if (loop->lag != nullptr && ws->committed % 16 == 0) {
      loop->lag->Push(txn.commit_lsn, txn.commit_us * 1000);
    }
  }
}

WorkerStats MergeAll(const std::vector<WorkerStats>& stats) {
  WorkerStats total;
  for (const WorkerStats& s : stats) total.Merge(s);
  return total;
}

/// W_YTD of every warehouse must equal the sum of its districts' D_YTD
/// (every Payment adds the same amount to both).
void CheckYtd(const ShardedStore& store, const calcdb::tpcc::TpccConfig& tc,
              const char* which, Report* report) {
  using namespace calcdb::tpcc;
  std::string bytes;
  for (uint32_t w = 1; w <= tc.num_warehouses; ++w) {
    WarehouseRow wr{};
    if (!store.Get(WarehouseKey(w), &bytes).ok() || !ParseRow(bytes, &wr).ok()) {
      report->Fail(std::string(which) + ": warehouse row unreadable");
      return;
    }
    double sum = 0;
    for (uint32_t d = 1; d <= tc.districts_per_warehouse; ++d) {
      DistrictRow dr{};
      if (!store.Get(DistrictKey(w, d), &bytes).ok() ||
          !ParseRow(bytes, &dr).ok()) {
        report->Fail(std::string(which) + ": district row unreadable");
        return;
      }
      sum += dr.d_ytd;
    }
    if (std::fabs(wr.w_ytd - sum) > 0.005) {
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "%s: warehouse %u W_YTD %.2f != sum of D_YTD %.2f", which,
                    w, wr.w_ytd, sum);
      report->Fail(buf);
      return;
    }
  }
}

}  // namespace

// --- micro_ckpt ----------------------------------------------------------------

void RunMicroCkpt(RunContext& ctx) {
  Flags& f = *ctx.flags;
  Report* report = ctx.report;
  uint64_t records = static_cast<uint64_t>(f.Int("records"));
  size_t value_size = static_cast<size_t>(f.Int("value_size"));
  int ops = static_cast<int>(f.Int("ops_per_txn"));
  int workers = static_cast<int>(f.Int("workers"));
  double warmup_s = f.Double("warmup_s");
  int64_t rest_ns = f.Int("ckpt_rest_ms") * kMsNs;
  int recoveries = static_cast<int>(f.Int("recoveries"));
  Options options = BaseOptions(ctx);
  if (!f.missing().empty()) return;
  options.algorithm = CheckpointAlgorithm::kCalc;
  options.max_records = records + 1024;
  StampOptions(options, report);

  std::unique_ptr<Database> db;
  int64_t setup_start = NowNs();
  {
    ScopedSpan setup(ctx.tracer, "bench.setup", ctx.root_span);
    if (!OpenDb(ctx, options, setup.id(), &db)) return;
    RegisterMicro(db.get(), value_size);
    if (!LoadMicro(ctx, db.get(), records, value_size, setup.id())) return;
    if (!StartDb(ctx, db.get(), setup.id())) return;
  }
  report->Add("setup_s", SecondsSince(setup_start), "s");
  if (ctx.setup_only) return;

  calcdb::MicrobenchConfig mc;
  mc.num_records = records;
  mc.value_size = value_size;
  mc.ops_per_txn = ops;
  mc.long_txn_fraction = 0;
  mc.hot_fraction = 1.0;
  calcdb::MicrobenchWorkload workload(mc);

  std::unique_ptr<LagSampler> lag;
  if (ctx.tracer->enabled()) {
    lag = std::make_unique<LagSampler>(db->command_log_streamer());
  }
  ClosedLoop loop{db->executor(), &workload, ctx.seed, lag.get()};
  std::vector<WorkerStats> stats(static_cast<size_t>(workers));
  for (WorkerStats& s : stats) s.SizeFor(ctx.seconds);
  std::vector<CycleRecord> cycles;
  int64_t window_start = 0, window_end = 0;
  {
    ScopedSpan window(ctx.tracer, "bench.window", ctx.root_span);
    std::vector<std::thread> threads;
    for (int i = 0; i < workers; ++i) {
      threads.emplace_back([&, i] {
        WorkerTrace trace(ctx.tracer, window.id());
        ClosedLoopWorker(&loop, i, &stats[static_cast<size_t>(i)], &trace);
      });
    }
    SleepUntilNs(NowNs() + static_cast<int64_t>(warmup_s * 1e9));
    window_start = NowNs();
    loop.window_start.store(window_start, std::memory_order_release);
    // One checkpoint thread (this one): a fixed rest, then a cycle, until
    // the first cycle that ends past the deadline. Ending the window on a
    // cycle boundary keeps the recovery tail at one cycle's commits.
    int64_t deadline = window_start + static_cast<int64_t>(ctx.seconds * 1e9);
    while (true) {
      SleepUntilNs(NowNs() + rest_ns);
      if (!TimedCheckpoint(ctx, db.get(), window.id(), &cycles)) break;
      if (cycles.back().end_ns >= deadline) break;
    }
    window_end = NowNs();
    loop.stop.store(true, std::memory_order_release);
    for (std::thread& t : threads) t.join();
  }

  WorkerStats total = MergeAll(stats);
  AddTxnMetrics(total, static_cast<double>(window_end - window_start) / 1e9, report);
  AddCaptureRates(total, cycles, window_start, window_end, report);
  AddStorageMetrics(db.get(), report);
  AddLagMetrics(lag.get(), report);
  ScopedSpan verify(ctx.tracer, "bench.verify", ctx.root_span);
  if (!ShutdownLive(ctx, db.get(), options, verify.id())) return;
  AddCycleMetrics(cycles, UserBytes(*db->store()), report);
  TimedRecoveries(ctx, options, *db->store(), recoveries, 0, verify.id(),
                  [&](Database* r) { RegisterMicro(r, value_size); }, nullptr);
  report->Add("peak_rss_mb", PeakRssMb(), "MiB");
}

// --- tpcc_open -------------------------------------------------------------------

void RunTpccOpen(RunContext& ctx) {
  Flags& f = *ctx.flags;
  Report* report = ctx.report;
  calcdb::tpcc::TpccConfig tc;
  tc.num_warehouses = static_cast<uint32_t>(f.Int("warehouses"));
  tc.districts_per_warehouse = static_cast<uint32_t>(f.Int("districts"));
  tc.customers_per_district = static_cast<uint32_t>(f.Int("customers"));
  tc.num_items = static_cast<uint32_t>(f.Int("items"));
  // A full ring from the start: new orders overwrite old ring slots, so
  // the order tables stay the same size through the run.
  tc.order_ring_size = static_cast<uint32_t>(f.Int("order_ring"));
  tc.initial_orders_per_district = tc.order_ring_size;
  tc.history_ring_size = static_cast<uint64_t>(f.Int("history_ring"));
  tc.seed = SplitMix(ctx.seed ^ 0x7cc);
  double rate = f.Double("rate");
  int workers = static_cast<int>(f.Int("workers"));
  double warmup_s = f.Double("warmup_s");
  int64_t interval_ns = f.Int("ckpt_interval_ms") * kMsNs;
  int64_t drain_ns = static_cast<int64_t>(f.Double("drain_s") * 1e9);
  int recoveries = static_cast<int>(f.Int("recoveries"));
  Options options = BaseOptions(ctx);
  if (!f.missing().empty()) return;
  options.algorithm = CheckpointAlgorithm::kPCalc;
  options.max_records =
      calcdb::tpcc::InitialRecordCount(tc) +
      static_cast<uint64_t>(tc.num_warehouses) * tc.districts_per_warehouse *
          tc.order_ring_size * 13 +
      tc.num_warehouses * tc.history_ring_size;
  StampOptions(options, report);
  report->Stamp("offered_rate", std::to_string(rate));

  std::unique_ptr<Database> db;
  int64_t setup_start = NowNs();
  {
    ScopedSpan setup(ctx.tracer, "bench.setup", ctx.root_span);
    if (!OpenDb(ctx, options, setup.id(), &db)) return;
    int64_t t0 = NowNs();
    Status st;
    {
      ScopedSpan load(ctx.tracer, "storage.load", setup.id());
      st = calcdb::tpcc::SetupTpcc(db.get(), tc);
    }
    if (!st.ok()) {
      report->Fail("tpcc setup: " + st.ToString());
      return;
    }
    report->Add("storage.load_us_per_record",
                static_cast<double>(NowNs() - t0) / 1e3 /
                    static_cast<double>(calcdb::tpcc::InitialRecordCount(tc)),
                "us");
    {
      ScopedSpan base(ctx.tracer, "ckpt.base", setup.id());
      st = db->WriteBaseCheckpoint();
    }
    if (!st.ok()) {
      report->Fail("base checkpoint: " + st.ToString());
      return;
    }
    if (!StartDb(ctx, db.get(), setup.id())) return;
  }
  report->Add("setup_s", SecondsSince(setup_start), "s");
  if (ctx.setup_only) return;

  calcdb::tpcc::TpccWorkload workload(tc);
  std::unique_ptr<LagSampler> lag;
  if (ctx.tracer->enabled()) {
    lag = std::make_unique<LagSampler>(db->command_log_streamer());
  }
  int64_t warmup_ns = static_cast<int64_t>(warmup_s * 1e9);
  int64_t measure_ns = static_cast<int64_t>(ctx.seconds * 1e9);
  OpenLoop loop;
  loop.executor = db->executor();
  loop.workload = &workload;
  loop.seed = ctx.seed;
  loop.lag = lag.get();
  loop.due = ArrivalSchedule(rate, warmup_ns + measure_ns, ctx.seed);
  loop.first_measured = static_cast<size_t>(
      std::lower_bound(loop.due.begin(), loop.due.end(), warmup_ns) -
      loop.due.begin());
  std::vector<WorkerStats> stats(static_cast<size_t>(workers));
  for (WorkerStats& s : stats) s.SizeFor(ctx.seconds);
  std::vector<CycleRecord> cycles;
  {
    ScopedSpan window(ctx.tracer, "bench.window", ctx.root_span);
    loop.sched_start = NowNs() + 20 * kMsNs;
    loop.window_start = loop.sched_start + warmup_ns;
    loop.window_end = loop.window_start + measure_ns;
    std::vector<std::thread> threads;
    for (int i = 0; i < workers; ++i) {
      threads.emplace_back([&, i] {
        WorkerTrace trace(ctx.tracer, window.id());
        OpenLoopWorker(&loop, &stats[static_cast<size_t>(i)], &trace);
      });
    }
    // Partial checkpoints at a fixed interval from the window start.
    for (int64_t at = loop.window_start + interval_ns; at < loop.window_end;
         at += interval_ns) {
      SleepUntilNs(at);
      if (!TimedCheckpoint(ctx, db.get(), window.id(), &cycles)) break;
    }
    // Arrivals still unstarted `drain_s` after the last due instant failed.
    SleepUntilNs(loop.window_end + drain_ns);
    loop.closed.store(true, std::memory_order_release);
    for (std::thread& t : threads) t.join();
  }

  WorkerStats total = MergeAll(stats);
  uint64_t measured = loop.due.size() - loop.first_measured;
  if (measured > total.attempted) {
    uint64_t unstarted = measured - total.attempted;
    total.failed += unstarted;
    total.attempted += unstarted;
    if (total.first_error.empty()) total.first_error = "arrival never started";
  }
  AddTxnMetrics(total, ctx.seconds, report);
  AddCaptureRates(total, cycles, loop.window_start, loop.window_end, report);
  // The generator rolls back 1 % of NewOrders; allow 5 sigma.
  double expect = 0.01 * static_cast<double>(total.new_orders);
  if (std::fabs(static_cast<double>(total.user_aborts) - expect) >
      5 * std::sqrt(expect * 0.99) + 3) {
    report->Fail("designed NewOrder aborts " + std::to_string(total.user_aborts) +
                 " of " + std::to_string(total.new_orders) + ", expected ~1 %");
  }
  AddStorageMetrics(db.get(), report);
  AddLagMetrics(lag.get(), report);
  ScopedSpan verify(ctx.tracer, "bench.verify", ctx.root_span);
  if (!ShutdownLive(ctx, db.get(), options, verify.id())) return;
  CheckYtd(*db->store(), tc, "live store", report);
  AddCycleMetrics(cycles, UserBytes(*db->store()), report);
  TimedRecoveries(
      ctx, options, *db->store(), recoveries, 0, verify.id(), RegisterTpcc,
      [&](const ShardedStore& store) { CheckYtd(store, tc, "recovered", report); });
  report->Add("peak_rss_mb", PeakRssMb(), "MiB");
}

// --- recover_replay --------------------------------------------------------------

void RunRecoverReplay(RunContext& ctx) {
  Flags& f = *ctx.flags;
  Report* report = ctx.report;
  uint64_t records = static_cast<uint64_t>(f.Int("records"));
  size_t value_size = static_cast<size_t>(f.Int("value_size"));
  int ops = static_cast<int>(f.Int("ops_per_txn"));
  uint64_t log_txns = static_cast<uint64_t>(f.Int("log_txns"));
  int setup_ckpts = static_cast<int>(f.Int("setup_ckpts"));
  int recoveries = static_cast<int>(f.Int("recoveries"));
  Options options = BaseOptions(ctx);
  if (!f.missing().empty()) return;
  options.algorithm = CheckpointAlgorithm::kCalc;
  options.max_records = records + 1024;
  StampOptions(options, report);

  // Set-up: load, full checkpoints of the quiet store, then a fixed command
  // log of uniform RMW transactions from one thread, so every run replays
  // the same commands.
  std::unique_ptr<Database> db;
  std::vector<CycleRecord> cycles;
  WorkerStats gen;
  int64_t gen_start = 0, gen_end = 0;
  int64_t setup_start = NowNs();
  {
    ScopedSpan setup(ctx.tracer, "bench.setup", ctx.root_span);
    if (!OpenDb(ctx, options, setup.id(), &db)) return;
    RegisterMicro(db.get(), value_size);
    if (!LoadMicro(ctx, db.get(), records, value_size, setup.id())) return;
    if (!StartDb(ctx, db.get(), setup.id())) return;
    for (int i = 0; i < setup_ckpts; ++i) {
      if (!TimedCheckpoint(ctx, db.get(), setup.id(), &cycles)) return;
    }
    calcdb::MicrobenchConfig mc;
    mc.num_records = records;
    mc.value_size = value_size;
    mc.ops_per_txn = ops;
    mc.long_txn_fraction = 0;
    mc.hot_fraction = 1.0;
    calcdb::MicrobenchWorkload workload(mc);
    std::unique_ptr<LagSampler> lag;
    if (ctx.tracer->enabled()) {
      lag = std::make_unique<LagSampler>(db->command_log_streamer());
    }
    gen.SizeFor(60);  // log generation takes a few seconds
    {
      ScopedSpan loggen(ctx.tracer, "bench.loggen", setup.id());
      WorkerTrace trace(ctx.tracer, loggen.id());
      Rng rng(SplitMix(ctx.seed ^ 0x10991e));
      gen_start = NowNs();
      for (uint64_t i = 0; i < log_txns; ++i) {
        int64_t t0 = NowNs();
        TxnRequest req = workload.Next(rng);
        int64_t t1 = NowNs();
        Txn txn;
        Status st = db->executor()->Execute(req.proc_id, std::move(req.args),
                                            t1 / 1000, &txn);
        int64_t t2 = NowNs();
        trace.Leaves(t0, t1, t2);
        RecordOutcome(&gen, st, /*designed_aborts=*/false);
        gen.next.Add(t1 - t0);
        gen.execute.Add(t2 - t1);
        if (!st.ok()) continue;
        gen.window_commits++;
        gen.AddLatency(t1 - gen_start, t2 - t1);
        size_t bin = static_cast<size_t>((t2 - gen_start) / kMsNs);
        if (bin < gen.commits_per_ms.size()) gen.commits_per_ms[bin]++;
        if (lag != nullptr && gen.committed % 16 == 0) {
          lag->Push(txn.commit_lsn, txn.commit_us * 1000);
        }
      }
      gen_end = NowNs();
    }
    AddStorageMetrics(db.get(), report);
    AddLagMetrics(lag.get(), report);
    if (!ShutdownLive(ctx, db.get(), options, setup.id())) return;
  }
  report->Add("setup_s", SecondsSince(setup_start), "s");
  AddTxnMetrics(gen, static_cast<double>(gen_end - gen_start) / 1e9, report);
  AddCaptureRates(gen, cycles, gen_start, gen_end, report);
  AddCycleMetrics(cycles, UserBytes(*db->store()), report);
  if (ctx.setup_only) return;

  {
    ScopedSpan window(ctx.tracer, "bench.window", ctx.root_span);
    TimedRecoveries(ctx, options, *db->store(), recoveries, ctx.seconds,
                    window.id(),
                    [&](Database* r) { RegisterMicro(r, value_size); }, nullptr);
  }
  report->Add("peak_rss_mb", PeakRssMb(), "MiB");
}

}  // namespace calcbench
