#include "db/database.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "obs/obs.h"
#include "storage/memory_tracker.h"
#include "util/clock.h"
#include "util/fault_injection.h"

#include "checkpoint/calc.h"
#include "checkpoint/capture.h"
#include "checkpoint/fork_snapshot.h"
#include "checkpoint/fuzzy.h"
#include "checkpoint/ipp.h"
#include "checkpoint/mvcc.h"
#include "checkpoint/naive.h"
#include "checkpoint/zigzag.h"

namespace calcdb {

namespace {

// Lock-table stripes, one flat table whatever the storage shard count.
constexpr size_t kLockStripes = 1 << 16;

// Recovery decodes each command-log generation through one reused
// buffer of this many bytes.
constexpr size_t kLogScanBlockBytes = 1 << 20;

}  // namespace

const char* AlgorithmName(CheckpointAlgorithm algo) {
  switch (algo) {
    case CheckpointAlgorithm::kNone:
      return "None";
    case CheckpointAlgorithm::kCalc:
      return "CALC";
    case CheckpointAlgorithm::kPCalc:
      return "pCALC";
    case CheckpointAlgorithm::kNaive:
      return "Naive";
    case CheckpointAlgorithm::kPNaive:
      return "pNaive";
    case CheckpointAlgorithm::kFuzzy:
      return "Fuzzy";
    case CheckpointAlgorithm::kPFuzzy:
      return "pFuzzy";
    case CheckpointAlgorithm::kIpp:
      return "IPP";
    case CheckpointAlgorithm::kPIpp:
      return "pIPP";
    case CheckpointAlgorithm::kZigzag:
      return "Zigzag";
    case CheckpointAlgorithm::kPZigzag:
      return "pZigzag";
    case CheckpointAlgorithm::kMvcc:
      return "MVCC";
    case CheckpointAlgorithm::kFork:
      return "Fork";
  }
  return "?";
}

bool ParseAlgorithm(const std::string& name, CheckpointAlgorithm* out) {
  std::string lower = name;
  std::transform(lower.begin(), lower.end(), lower.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  struct Mapping {
    const char* name;
    CheckpointAlgorithm algo;
  };
  static constexpr Mapping kMappings[] = {
      {"none", CheckpointAlgorithm::kNone},
      {"calc", CheckpointAlgorithm::kCalc},
      {"pcalc", CheckpointAlgorithm::kPCalc},
      {"naive", CheckpointAlgorithm::kNaive},
      {"pnaive", CheckpointAlgorithm::kPNaive},
      {"fuzzy", CheckpointAlgorithm::kFuzzy},
      {"pfuzzy", CheckpointAlgorithm::kPFuzzy},
      {"ipp", CheckpointAlgorithm::kIpp},
      {"pipp", CheckpointAlgorithm::kPIpp},
      {"zigzag", CheckpointAlgorithm::kZigzag},
      {"pzigzag", CheckpointAlgorithm::kPZigzag},
      {"mvcc", CheckpointAlgorithm::kMvcc},
      {"fork", CheckpointAlgorithm::kFork},
  };
  for (const Mapping& m : kMappings) {
    if (lower == m.name) {
      *out = m.algo;
      return true;
    }
  }
  return false;
}

namespace {

// Resolves a 0 = "auto" thread-count option: the environment variable if
// set to a positive integer, else `fallback`. Lets CI sweep parallel
// capture/recovery across the existing test suite without touching every
// Options construction site.
int ResolveThreadOption(int configured, const char* env_var, int fallback) {
  if (configured > 0) return configured;
  const char* env = std::getenv(env_var);
  if (env != nullptr) {
    int parsed = std::atoi(env);
    if (parsed > 0) return parsed;
  }
  return fallback;
}

}  // namespace

int Database::ResolvedCaptureThreads(const Options& options) {
  return ResolveThreadOption(options.capture_threads,
                             "CALCDB_CAPTURE_THREADS", 1);
}

int Database::ResolvedRecoveryThreads(const Options& options) {
  return ResolveThreadOption(options.recovery_threads,
                             "CALCDB_RECOVERY_THREADS",
                             ResolvedCaptureThreads(options));
}

int Database::ResolvedReplayThreads(const Options& options) {
  return ResolveThreadOption(options.replay_threads,
                             "CALCDB_REPLAY_THREADS", 1);
}

uint32_t Database::ResolvedStorageShards(const Options& options) {
  return ShardedStore::ResolveShards(options.storage_shards);
}

bool Database::ResolvedAsyncIo(const Options& options) {
  if (options.ckpt_async_io != 0) return options.ckpt_async_io > 0;
  const char* env = std::getenv("CALCDB_CKPT_ASYNC_IO");
  return env != nullptr && std::atoi(env) > 0;
}

Database::Database(const Options& options)
    : options_(options),
      pool_(options.use_value_pool ? new ValuePool() : nullptr),
      store_(new ShardedStore(options.max_records,
                              ResolvedStorageShards(options), pool_.get())),
      ckpt_storage_(options.checkpoint_dir, options.disk_bytes_per_sec),
      lock_manager_(kLockStripes) {
  CheckpointWriterOptions writer_options;
  writer_options.block_bytes = options.ckpt_block_bytes;
  writer_options.async_io = ResolvedAsyncIo(options);
  ckpt_storage_.ConfigureWriters(std::move(writer_options));
}

Database::~Database() {
  // calcdb-status-ignored: destructor has no error channel; callers that
  // need the final log drain to be durable call Shutdown() and check.
  (void)Shutdown();
}

Status Database::Shutdown() {
  Status st;
  StopPeriodicCheckpoints();
  if (stats_reporter_ != nullptr) {
    stats_reporter_->Stop();
    stats_reporter_.reset();
  }
  if (streamer_ != nullptr) {
    st = streamer_->Stop();
    streamer_.reset();
#if CALCDB_OBS_ENABLED
    // The durability-lag gauge captured `this`; freeze it so later
    // snapshots cannot touch a destroyed Database.
    obs::MetricsRegistry::Global().RegisterCallbackGauge(
        "calcdb.log.durability_lag", []() -> int64_t { return 0; });
#endif  // CALCDB_OBS_ENABLED
  }
  if (merger_ != nullptr) {
    merger_->StopBackground();
    merger_.reset();
  }
#if CALCDB_OBS_ENABLED
  if (retained_gauge_live_) {
    // Freeze the retained-entries gauge at its final value: it captured
    // `this`.
    retained_gauge_live_ = false;
    const auto retained = static_cast<int64_t>(log_.RetainedEntries());
    obs::MetricsRegistry::Global().RegisterCallbackGauge(
        "calcdb.log.retained_entries", [retained] { return retained; });
  }
#endif  // CALCDB_OBS_ENABLED
  return st;
}

Status Database::Open(const Options& options,
                      std::unique_ptr<Database>* db) {
  if (options.max_records == 0) {
    return Status::InvalidArgument("max_records must be positive");
  }
  std::unique_ptr<Database> out(new Database(options));
  CALCDB_RETURN_NOT_OK(out->ckpt_storage_.Init());
#if CALCDB_OBS_ENABLED
  // Callback gauges: externally owned values sampled at snapshot time.
  auto& registry = obs::MetricsRegistry::Global();
  registry.RegisterCallbackGauge("calcdb.memory.value_bytes", [] {
    return MemoryTracker::Global().value_bytes();
  });
  registry.RegisterCallbackGauge("calcdb.memory.pool_bytes", [] {
    return MemoryTracker::Global().pool_bytes();
  });
  registry.RegisterCallbackGauge("calcdb.latch.contended_acquires", [] {
    return static_cast<int64_t>(
        obs::g_latch_contention.load(std::memory_order_relaxed));
  });
  registry.RegisterCallbackGauge("calcdb.txn.phase_restarts", [] {
    return static_cast<int64_t>(
        obs::g_phase_restarts.load(std::memory_order_relaxed));
  });
  registry.RegisterCallbackGauge("calcdb.events.emitted", [] {
    return static_cast<int64_t>(obs::EventLog::Global().emitted());
  });
  registry.RegisterCallbackGauge("calcdb.events.suppressed", [] {
    return static_cast<int64_t>(obs::EventLog::Global().suppressed());
  });
  registry.RegisterCallbackGauge("calcdb.events.dropped", [] {
    return static_cast<int64_t>(obs::EventLog::Global().dropped());
  });
  if (!options.events_path.empty()) {
    obs::EventLog::Global().SetSinkPath(options.events_path);
  }
#endif  // CALCDB_OBS_ENABLED
  *db = std::move(out);
  return Status::OK();
}

Status Database::Load(uint64_t key, std::string_view value) {
  if (started_) return Status::InvalidArgument("Load after Start");
  return store_->Put(key, value);
}

Status Database::Recover(const CommitLog* replay_log,
                         RecoveryStats* stats) {
  if (started_) return Status::InvalidArgument("Recover after Start");
  Status st = ckpt_storage_.LoadManifest();
  if (st.IsNotFound()) return Status::OK();  // nothing to recover
  CALCDB_RETURN_NOT_OK(st);
  RecoveryStats local;
  RecoveryStats* s = stats != nullptr ? stats : &local;
  CALCDB_RETURN_NOT_OK(RecoveryManager::LoadCheckpoints(
      &ckpt_storage_, store_.get(), s, ResolvedRecoveryThreads(options_)));
  if (replay_log != nullptr) {
    CALCDB_RETURN_NOT_OK(
        RecoveryManager::ReplayLog(*replay_log, registry_, store_.get(), s,
                                   ResolvedReplayThreads(options_)));
  }
  return Status::OK();
}

Status Database::RecoverFromCommandLog(RecoveryStats* stats) {
  if (started_) return Status::InvalidArgument("Recover after Start");
  if (options_.command_log_path.empty()) {
    return Status::InvalidArgument("no command_log_path configured");
  }
  RecoveryStats local;
  RecoveryStats* s = stats != nullptr ? stats : &local;
  Status st = ckpt_storage_.LoadManifest();
  if (!st.IsNotFound()) {
    CALCDB_RETURN_NOT_OK(st);
    CALCDB_RETURN_NOT_OK(RecoveryManager::LoadCheckpoints(
        &ckpt_storage_, store_.get(), s,
        ResolvedRecoveryThreads(options_)));
  }
  std::vector<std::string> generations;
  CALCDB_RETURN_NOT_OK(CommandLogStreamer::ListLogFiles(
      options_.command_log_path, &generations));
  return RecoveryManager::ReplayLogGenerations(
      generations, registry_, store_.get(), s,
      ResolvedReplayThreads(options_), kLogScanBlockBytes);
}

Status Database::WriteBaseCheckpoint() {
  if (started_) return Status::InvalidArgument("base ckpt after Start");
  CheckpointInfo info;
  info.id = ckpt_storage_.NextId();
  info.type = CheckpointType::kFull;
  info.vpoc_lsn =
      log_.AppendPhaseTransition(Phase::kResolve, info.id, /*pc=*/nullptr);
  CheckpointCycleStats stats;
  CALCDB_RETURN_NOT_OK(RunCapture(Engine(), CaptureSource::AllSlots(*store_),
                                  LiveVersion, &info, &stats));
  if (!options_.command_log_path.empty()) {
    // Durability barrier (the pre-Start analogue of
    // Checkpointer::WaitLogDurable): the manifest may name this
    // checkpoint only once its PoC token is on stable storage, else a
    // crash leaves a registered checkpoint whose token exists in no log
    // generation and recovery's anchor rule skips later lifetimes'
    // durable commits. The streamer is not running yet, so drain the
    // in-memory log (just the token, typically) into its own generation
    // with a short-lived streamer; Start()'s streamer re-flushes the
    // prefix into the next generation, which the anchor rule's
    // newest-first match handles.
    CommandLogStreamer flush(&log_);
    CALCDB_RETURN_NOT_OK(
        flush.Start(options_.command_log_path, /*flush_interval_ms=*/1));
    CALCDB_RETURN_NOT_OK(flush.Stop());
  }
  // A crash here orphans the finished base-checkpoint file: the manifest
  // never lists it, so recovery replays the log from scratch instead.
  CALCDB_FAULT_POINT("base_ckpt.register");
  ckpt_storage_.Register(info);
  return ckpt_storage_.PersistManifest();
}

EngineContext Database::Engine() {
  EngineContext engine;
  engine.store = store_.get();
  engine.log = &log_;
  engine.phases = &phases_;
  engine.gate = &gate_;
  engine.ckpt_storage = &ckpt_storage_;
  engine.streamer = streamer_.get();
  engine.capture_threads = ResolvedCaptureThreads(options_);
  return engine;
}

Status Database::MakeCheckpointer() {
  const EngineContext engine = Engine();
  const CheckpointAlgorithm algo = options_.algorithm;
  switch (algo) {
    case CheckpointAlgorithm::kNone:
      checkpointer_ = std::make_unique<NoCheckpointer>(engine);
      return Status::OK();
    case CheckpointAlgorithm::kCalc:
    case CheckpointAlgorithm::kPCalc:
      checkpointer_ = std::make_unique<CalcCheckpointer>(
          engine, algo == CheckpointAlgorithm::kPCalc);
      return Status::OK();
    case CheckpointAlgorithm::kNaive:
    case CheckpointAlgorithm::kPNaive:
      checkpointer_ = std::make_unique<NaiveSnapshotCheckpointer>(
          engine, algo == CheckpointAlgorithm::kPNaive);
      return Status::OK();
    case CheckpointAlgorithm::kFuzzy:
    case CheckpointAlgorithm::kPFuzzy:
      checkpointer_ = std::make_unique<FuzzyCheckpointer>(
          engine, algo == CheckpointAlgorithm::kPFuzzy);
      return Status::OK();
    case CheckpointAlgorithm::kIpp:
    case CheckpointAlgorithm::kPIpp:
      checkpointer_ = std::make_unique<IppCheckpointer>(
          engine, algo == CheckpointAlgorithm::kPIpp);
      return Status::OK();
    case CheckpointAlgorithm::kZigzag:
    case CheckpointAlgorithm::kPZigzag:
      checkpointer_ = std::make_unique<ZigzagCheckpointer>(
          engine, algo == CheckpointAlgorithm::kPZigzag);
      return Status::OK();
    case CheckpointAlgorithm::kMvcc:
      checkpointer_ =
          std::make_unique<MvccCheckpointer>(engine, options_.mvcc_eager_gc);
      return Status::OK();
    case CheckpointAlgorithm::kFork:
      checkpointer_ = std::make_unique<ForkSnapshotCheckpointer>(engine);
      return Status::OK();
  }
  return Status::InvalidArgument("unknown checkpoint algorithm");
}

Status Database::Start() {
  if (started_) return Status::InvalidArgument("already started");
  // The streamer starts first: the checkpointer's EngineContext carries
  // it so checkpoint cycles can gate registration on log durability.
  if (!options_.command_log_path.empty()) {
    streamer_ = std::make_unique<CommandLogStreamer>(&log_);
    CALCDB_RETURN_NOT_OK(streamer_->Start(options_.command_log_path,
                                          options_.command_log_flush_ms));
#if CALCDB_OBS_ENABLED
    // Log-durability lag: committed entries whose flush batch has not
    // been fsynced yet. Shutdown() re-registers this with a constant so
    // a snapshot taken after this Database dies touches nothing freed.
    obs::MetricsRegistry::Global().RegisterCallbackGauge(
        "calcdb.log.durability_lag", [this]() -> int64_t {
          CommandLogStreamer* s = streamer_.get();
          if (s == nullptr) return 0;
          uint64_t committed = log_.Size();
          uint64_t persisted = s->persisted_lsn();
          return committed > persisted
                     ? static_cast<int64_t>(committed - persisted)
                     : 0;
        });
#endif  // CALCDB_OBS_ENABLED
  }
#if CALCDB_OBS_ENABLED
  // Entries the in-memory commit log still holds: everything without a
  // streamer, else what truncation has not yet dropped behind the newest
  // registered checkpoint (docs/DURABILITY.md, "Commit-log retention").
  obs::MetricsRegistry::Global().RegisterCallbackGauge(
      "calcdb.log.retained_entries", [this]() -> int64_t {
        return static_cast<int64_t>(log_.RetainedEntries());
      });
  retained_gauge_live_ = true;
#endif  // CALCDB_OBS_ENABLED
  CALCDB_RETURN_NOT_OK(MakeCheckpointer());
  executor_ = std::make_unique<Executor>(Engine(), &registry_,
                                         checkpointer_.get(),
                                         &lock_manager_);
  if (options_.background_merge && checkpointer_->is_partial()) {
    merger_ = std::make_unique<CheckpointMerger>(&ckpt_storage_);
    merger_->StartBackground(options_.merge_batch);
  }
  ConfigureHealthMonitor();
  if (options_.stats_dump_period_ms > 0) {
    stats_reporter_ = std::make_unique<obs::StatsReporter>(
        options_.stats_dump_period_ms, options_.stats_dump_path);
    stats_reporter_->SetHealthSupplier(
        [this] { return GetHealth().ToJson(); });
    stats_reporter_->Start();
  }
  started_ = true;
  return Status::OK();
}

void Database::ConfigureHealthMonitor() {
  obs::HealthMonitor::Sources sources;
  sources.background_status = [this] { return BackgroundStatus(); };
  sources.checkpoint_cycles = [this] {
    return periodic_done_.load(std::memory_order_relaxed);
  };
  sources.checkpoint_interval_us =
      periodic_interval_us_.load(std::memory_order_relaxed);
  sources.stall_multiplier = options_.health_stall_multiplier;
  if (streamer_ != nullptr) {
    sources.committed_lsn = [this] {
      return static_cast<int64_t>(log_.Size());
    };
    sources.persisted_lsn = [this]() -> int64_t {
      // Shutdown() resets the streamer after stopping the reporter;
      // a late GetHealth() then reads a fully-drained (lag 0) log.
      CommandLogStreamer* s = streamer_.get();
      return s != nullptr ? static_cast<int64_t>(s->persisted_lsn())
                          : static_cast<int64_t>(log_.Size());
    };
  }
  health_monitor_.Configure(std::move(sources));
}

Status Database::Checkpoint() {
  if (!started_) return Status::InvalidArgument("Checkpoint before Start");
  return checkpointer_->RunCheckpointCycle();
}

Status Database::StartPeriodicCheckpoints(int interval_ms) {
  if (!started_) return Status::InvalidArgument("not started");
  if (options_.algorithm == CheckpointAlgorithm::kNone) {
    return Status::InvalidArgument("no checkpointer configured");
  }
  if (periodic_running_.exchange(true, std::memory_order_acq_rel)) {
    return Status::InvalidArgument("periodic checkpoints already running");
  }
  // Arm the stall watchdog: GetHealth() flags a stall once no cycle
  // completes within health_stall_multiplier × this interval.
  periodic_interval_us_.store(static_cast<int64_t>(interval_ms) * 1000,
                              std::memory_order_relaxed);
  ConfigureHealthMonitor();
  periodic_thread_ = std::thread([this, interval_ms] {
    int64_t next = NowMicros();
    while (periodic_running_.load(std::memory_order_acquire)) {
      int64_t now = NowMicros();
      if (now < next) {
        SleepMicros(std::min<int64_t>(next - now, 20000));
        continue;
      }
      next = now + static_cast<int64_t>(interval_ms) * 1000;
      Status st = checkpointer_->RunCheckpointCycle();
      if (st.ok()) {
        periodic_done_.fetch_add(1, std::memory_order_relaxed);
      } else {
        // A failed cycle leaves nothing registered; surface the error
        // instead of silently retrying forever with no durable progress.
        SetBackgroundStatus(st);
      }
    }
  });
  return Status::OK();
}

void Database::SetBackgroundStatus(const Status& st) {
  bool first = false;
  {
    SpinLatchGuard guard(background_status_latch_);
    if (background_status_.ok()) {
      background_status_ = st;
      first = true;
    }
  }
  if (first) {
    CALCDB_ERROR("db.background_error", "db", st.ToString());
  }
}

Status Database::BackgroundStatus() const {
  {
    SpinLatchGuard guard(background_status_latch_);
    if (!background_status_.ok()) return background_status_;
  }
  if (streamer_ != nullptr) return streamer_->background_status();
  return Status::OK();
}

void Database::StopPeriodicCheckpoints() {
  if (!periodic_running_.exchange(false, std::memory_order_acq_rel)) {
    return;
  }
  if (periodic_thread_.joinable()) periodic_thread_.join();
  // Disarm the stall watchdog: with no loop running, a quiet engine is
  // not a stalled one.
  periodic_interval_us_.store(0, std::memory_order_relaxed);
  ConfigureHealthMonitor();
}

std::string Database::GetStatsString() const {
  char buf[256];
  std::string out;
  auto line = [&](const char* key, unsigned long long v) {
    std::snprintf(buf, sizeof(buf), "calcdb.%s: %llu\n", key, v);
    out += buf;
  };
  out += "calcdb.algorithm: ";
  out += AlgorithmName(options_.algorithm);
  out += "\n";
  line("store.slots", store_->TotalSlots());
  line("store.shards", store_->num_shards());
  line("store.present", store_->CountPresent());
  line("store.max_records", options_.max_records);
  if (executor_ != nullptr) {
    line("txn.committed", executor_->committed());
    line("txn.aborted", executor_->aborted());
  }
  line("log.entries", log_.Size());
  line("log.retained", log_.RetainedEntries());
  line("log.vpoc_count", log_.VpocCount());
  std::vector<CheckpointInfo> ckpts = ckpt_storage_.List();
  line("checkpoint.count", ckpts.size());
  line("checkpoint.chain_len", ckpt_storage_.RecoveryChain().size());
  if (checkpointer_ != nullptr) {
    CheckpointCycleStats last = checkpointer_->last_cycle();
    line("checkpoint.last.records", last.records_written);
    line("checkpoint.last.bytes", last.bytes_written);
    line("checkpoint.last.segments", last.segments);
    line("checkpoint.last.quiesce_us",
         static_cast<unsigned long long>(last.quiesce_micros));
    line("checkpoint.last.capture_us",
         static_cast<unsigned long long>(last.capture_micros));
  }
  line("memory.value_bytes",
       static_cast<unsigned long long>(
           MemoryTracker::Global().value_bytes()));
  line("memory.pool_bytes", static_cast<unsigned long long>(
                                MemoryTracker::Global().pool_bytes()));
  if (streamer_ != nullptr) {
    line("commandlog.persisted_lsn", streamer_->persisted_lsn());
  }
  line("checkpoint.periodic_done",
       periodic_done_.load(std::memory_order_relaxed));
#if CALCDB_OBS_ENABLED
  out += obs::MetricsRegistry::Global().SnapshotText();
#endif
  return out;
}

Status Database::Read(uint64_t key, std::string* value) {
  if (!started_) return store_->Get(key, value);
  Record* rec = store_->Find(key);
  if (rec == nullptr) return Status::NotFound();
  Txn dummy;
  Value* v = checkpointer_->ReadRecord(dummy, *rec);
  if (v == nullptr) return Status::NotFound();
  value->assign(v->data());
  return Status::OK();
}

}  // namespace calcdb
