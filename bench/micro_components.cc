// Component microbenchmarks (google-benchmark): storage primitives and
// footprint-prefetched lookups, the lock manager, the dirty set's bit
// vector (mark and scan), value pool vs malloc (one and three threads),
// contended histogram recording, checkpoint file writing, the commit-log
// append path (alone and contended under a live streamer), and
// command-log generation decoding.

#include <benchmark/benchmark.h>

#include <array>
#include <cstring>
#include <filesystem>
#include <memory>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "checkpoint/ckpt_file.h"
#include "checkpoint/phase.h"
#include "log/command_log_streamer.h"
#include "log/commit_log.h"
#include "log/log_reader.h"
#include "storage/kv_store.h"
#include "storage/sharded_store.h"
#include "storage/value.h"
#include "txn/lock_manager.h"
#include "util/bitvec.h"
#include "util/crc32.h"
#include "util/histogram.h"
#include "util/latch.h"
#include "util/rng.h"

namespace calcdb {
namespace {

void BM_KVStorePut(benchmark::State& state) {
  KVStore store(1 << 20);
  Rng rng(1);
  std::string value(100, 'v');
  for (auto _ : state) {
    store.Put(rng.Uniform(1 << 19), value).ok();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_KVStorePut);

void BM_KVStoreGet(benchmark::State& state) {
  KVStore store(1 << 20);
  std::string value(100, 'v');
  for (uint64_t k = 0; k < (1 << 16); ++k) store.Put(k, value).ok();
  Rng rng(2);
  std::string out;
  for (auto _ : state) {
    store.Get(rng.Uniform(1 << 16), &out).ok();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_KVStoreGet);

void BM_ValueCreateMalloc(benchmark::State& state) {
  std::string payload(static_cast<size_t>(state.range(0)), 'p');
  for (auto _ : state) {
    Value* v = Value::Create(payload);
    benchmark::DoNotOptimize(v);
    Value::Unref(v);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ValueCreateMalloc)->Arg(100)->Arg(1000);

void BM_ValueCreatePooled(benchmark::State& state) {
  // The paper's §5.1.6 optimization: recycle stable-record blocks. With
  // several threads they share one pool, as a database's workers do.
  static std::unique_ptr<ValuePool> pool;
  if (state.thread_index() == 0) pool = std::make_unique<ValuePool>();
  std::string payload(static_cast<size_t>(state.range(0)), 'p');
  for (auto _ : state) {
    Value* v = Value::Create(payload, pool.get());
    benchmark::DoNotOptimize(v);
    Value::Unref(v);
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) pool.reset();
}
BENCHMARK(BM_ValueCreatePooled)->Arg(100)->Arg(1000);
BENCHMARK(BM_ValueCreatePooled)->Arg(100)->Threads(3)->UseRealTime();

/// One registry histogram recorded by three threads at once: the
/// per-lookup calcdb.storage.probe_len pattern of micro_ckpt's workers.
void BM_HistogramRecord(benchmark::State& state) {
  static std::unique_ptr<Histogram> hist;
  if (state.thread_index() == 0) hist = std::make_unique<Histogram>();
  int64_t v = state.thread_index();
  for (auto _ : state) {
    hist->Record(v);
    v = (v + 1) & 3;
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) hist.reset();
}
BENCHMARK(BM_HistogramRecord)->Threads(3)->UseRealTime();

/// Ten random lookups over 500 K 100 B records (the micro_ckpt store),
/// each reading its live value the way a transaction's read does; arg 1
/// first prefetches the ten-key footprint (ShardedStore::Prefetch; the
/// benchmark thread is the store's only user, so it owns every key).
void BM_StoreLookup(benchmark::State& state) {
  constexpr uint64_t kRecords = 500000;
  static ValuePool pool;
  static ShardedStore* store = [] {
    auto* s = new ShardedStore(kRecords, 1, &pool);
    std::string value(100, 'v');
    for (uint64_t k = 0; k < kRecords; ++k) s->Put(k, value).ok();
    return s;
  }();
  const bool prefetch = state.range(0) != 0;
  Rng rng(5);
  uint64_t keys[10];
  char sink = 0;
  for (auto _ : state) {
    for (uint64_t& k : keys) k = rng.Uniform(kRecords);
    if (prefetch) store->Prefetch(keys, 10);
    for (uint64_t k : keys) {
      Record* rec = store->Find(k);
      std::string_view data = rec->live->data();
      sink ^= data[0] ^ data[data.size() - 1];
    }
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * 10);
}
BENCHMARK(BM_StoreLookup)->Arg(0)->Arg(1);

void BM_LockManagerAcquireRelease(benchmark::State& state) {
  LockManager lm(1 << 16);
  Rng rng(3);
  KeySets sets;
  sets.write_keys.resize(10);
  for (auto _ : state) {
    for (auto& k : sets.write_keys) k = rng.Uniform(1 << 20);
    LockManager::LockSet locks = lm.Resolve(sets);
    lm.AcquireAll(locks);
    lm.ReleaseAll(locks);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LockManagerAcquireRelease);

// Cost of marking a dirty key in the DirtySet's bit vector (paper §2.3;
// EXPERIMENTS.md §2.3 has the retired hash-set and Bloom rows).
void BM_DirtyTrackerMark(benchmark::State& state) {
  AtomicBitVector bits(1 << 22);
  Rng rng(4);
  for (auto _ : state) {
    bits.Set(static_cast<uint32_t>(rng.Uniform(1 << 22)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DirtyTrackerMark);

// Enumerating a dirty side at 10% density, as a partial capture does.
void BM_DirtyTrackerScan(benchmark::State& state) {
  constexpr uint32_t kCap = 1 << 20;
  AtomicBitVector bits(kCap);
  Rng rng(5);
  for (uint32_t i = 0; i < kCap / 10; ++i) {
    bits.Set(static_cast<uint32_t>(rng.Uniform(kCap)));
  }
  for (auto _ : state) {
    uint64_t sum = 0;
    bits.ForEach(kCap, [&](uint32_t idx) { sum += idx; });
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_DirtyTrackerScan);

void BM_RWSpinLockUncontended(benchmark::State& state) {
  RWSpinLock lock;
  for (auto _ : state) {
    if (state.range(0) == 0) {
      lock.LockShared();
      lock.UnlockShared();
    } else {
      lock.Lock();
      lock.Unlock();
    }
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(state.range(0) == 0 ? "shared" : "exclusive");
}
BENCHMARK(BM_RWSpinLockUncontended)->Arg(0)->Arg(1);

void BM_CommitLogAppend(benchmark::State& state) {
  CommitLog log;
  PhaseController pc;
  Phase phase;
  uint64_t vpoc;
  std::string args(48, 'a');
  uint64_t txn_id = 0;
  for (auto _ : state) {
    log.AppendCommit(++txn_id, 1, args, &pc, &phase, &vpoc);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CommitLogAppend);

/// The commit path as micro_ckpt drives it: three appenders contend for
/// the append latch while a live streamer snapshots, encodes, fsyncs and
/// truncates behind a horizon that thread 0 advances every chunk's worth
/// of its appends (a stand-in for checkpoint registration).
void BM_CommitLogAppendStreamed(benchmark::State& state) {
  static std::unique_ptr<CommitLog> log;
  static std::unique_ptr<CommandLogStreamer> streamer;
  static std::string dir;
  if (state.thread_index() == 0) {
    dir = bench::MakeScratchDir("log_append");
    log = std::make_unique<CommitLog>();
    streamer = std::make_unique<CommandLogStreamer>(log.get());
    if (!streamer->Start(dir + "/cmdlog", /*flush_interval_ms=*/10).ok()) {
      state.SkipWithError("streamer start failed");
    }
  }
  PhaseController pc;
  Phase phase;
  uint64_t vpoc;
  std::string args(84, 'a');
  uint64_t txn_id = static_cast<uint64_t>(state.thread_index()) << 40;
  uint64_t appended = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        log->AppendCommit(++txn_id, 1, args, &pc, &phase, &vpoc));
    if (state.thread_index() == 0 &&
        ++appended % CommitLog::kChunkSlots == 0) {
      log->AdvanceRetentionHorizon(
          log->AppendPhaseTransition(Phase::kResolve, appended));
    }
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) {
    if (!streamer->Stop().ok()) state.SkipWithError("streamer stop failed");
    streamer.reset();
    log.reset();
    bench::RemoveDir(dir);
  }
}
BENCHMARK(BM_CommitLogAppendStreamed)->Threads(3)->UseRealTime();

void BM_CheckpointFileWrite(benchmark::State& state) {
  std::string value(100, 'v');
  for (auto _ : state) {
    state.PauseTiming();
    std::string path = "/tmp/calcdb_bench_ckptfile";
    state.ResumeTiming();
    CheckpointFileWriter writer;
    writer.Open(path, CheckpointType::kFull, 1, 0, /*unthrottled*/ 0).ok();
    for (uint64_t k = 0; k < 10000; ++k) {
      writer.Append(k, value).ok();
    }
    writer.Finish().ok();
  }
  state.SetItemsProcessed(state.iterations() * 10000);
  std::remove("/tmp/calcdb_bench_ckptfile");
}
BENCHMARK(BM_CheckpointFileWrite)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Checkpoint I/O fast path rows (see EXPERIMENTS.md "I/O fast path").
// ---------------------------------------------------------------------------

/// The seed's CRC inner loop — one table, one byte per step — kept here
/// as the "before" baseline for the slice-by-8 / hardware rows.
uint32_t Crc32ByteAtATime(const void* data, size_t n, uint32_t seed) {
  static const std::array<uint32_t, 256>* table = [] {
    auto* t = new std::array<uint32_t, 256>();
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      (*t)[i] = c;
    }
    return t;
  }();
  uint32_t c = seed ^ 0xFFFFFFFFu;
  const auto* p = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < n; ++i) {
    c = (*table)[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

std::string MakeCrcBuffer(size_t n) {
  Rng rng(7);
  std::string buf(n, '\0');
  for (size_t i = 0; i < n; ++i) {
    buf[i] = static_cast<char>(rng.Next());
  }
  return buf;
}

void BM_Crc32ByteBaseline(benchmark::State& state) {
  std::string buf = MakeCrcBuffer(1 << 20);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        Crc32ByteAtATime(buf.data(), buf.size(), 0));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(buf.size()));
  state.SetLabel("crc32_byte_baseline");
}
BENCHMARK(BM_Crc32ByteBaseline);

void BM_Crc32Sw(benchmark::State& state) {
  std::string buf = MakeCrcBuffer(1 << 20);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32(buf.data(), buf.size()));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(buf.size()));
  state.SetLabel("crc32_slice8");
}
BENCHMARK(BM_Crc32Sw);

void BM_Crc32Hw(benchmark::State& state) {
  if (!Crc32cHardwareAvailable()) {
    state.SkipWithError("no CRC32C instructions on this host");
    return;
  }
  std::string buf = MakeCrcBuffer(1 << 20);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32c(buf.data(), buf.size()));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(buf.size()));
  state.SetLabel("crc32c_hw");
}
BENCHMARK(BM_Crc32Hw);

void BM_SerializeBlock(benchmark::State& state) {
  // Block-buffered serialization: Append cost with the default 256 KiB
  // block (memcpy into the block + one bulk CRC per entry); the
  // occasional sealed-block write to /tmp rides along, as it does in a
  // real capture.
  std::string value(1000, 'v');
  std::string path = "/tmp/calcdb_bench_serblock";
  for (auto _ : state) {
    CheckpointFileWriter writer;
    writer.Open(path, CheckpointType::kFull, 1, 0,
                CheckpointWriterOptions{})
        .ok();
    for (uint64_t k = 0; k < 10000; ++k) {
      writer.Append(k, value).ok();
    }
    writer.Finish().ok();
  }
  state.SetBytesProcessed(state.iterations() * 10000 *
                          static_cast<int64_t>(value.size() + 13));
  state.SetLabel("serialize_block");
  std::remove(path.c_str());
}
BENCHMARK(BM_SerializeBlock)->Unit(benchmark::kMillisecond);

void BM_WriterSyncVsAsync(benchmark::State& state) {
  // Single-segment capture through the real writer stack (buffered
  // writes, the engine's default block size): Arg(0) = synchronous,
  // Arg(1) = double-buffered async I/O thread.
  CheckpointWriterOptions options;
  options.async_io = state.range(0) != 0;
  std::string value(1000, 'v');
  constexpr uint64_t kEntries = 16000;
  std::string path = "/tmp/calcdb_bench_writer";
  for (auto _ : state) {
    CheckpointFileWriter writer;
    writer.Open(path, CheckpointType::kFull, 1, 0, options).ok();
    for (uint64_t k = 0; k < kEntries; ++k) {
      writer.Append(k, value).ok();
    }
    writer.Finish().ok();
  }
  state.SetBytesProcessed(
      state.iterations() *
      static_cast<int64_t>(kEntries * (value.size() + 13)));
  state.SetLabel(options.async_io ? "writer_async" : "writer_sync");
  std::remove(path.c_str());
}
BENCHMARK(BM_WriterSyncVsAsync)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Command-log decode: recovery's validate-only generation scan versus
// materializing the whole generation with CommitLog::LoadFrom.
// ---------------------------------------------------------------------------

/// Persists a micro_ckpt-shaped generation — `commits` commits with a
/// 10-key RMW payload (84 B args) and a phase token every 10000 — and
/// returns its path.
std::string WriteLogGeneration(const std::string& dir, uint64_t commits) {
  CommitLog log;
  std::string args(84, 'a');
  for (uint64_t i = 0; i < commits; ++i) {
    std::memcpy(args.data(), &i, sizeof(i));
    log.AppendCommit(i + 1, 1, args);
    if (i % 10000 == 0) log.AppendPhaseTransition(Phase::kResolve, i + 1);
  }
  std::string path = dir + "/log_generation";
  if (!log.PersistTo(path).ok()) return "";
  return path;
}

/// Decodes `path` once: Arg 0 = ScanLogFile (validate, keep counts and
/// the token index), Arg 1 = CommitLog::LoadFrom (keep every entry).
bool DecodeLogOnce(const std::string& path, bool load_from) {
  if (load_from) {
    CommitLog log;
    return log.LoadFrom(path, size_t{1} << 20).ok();
  }
  LogScan scan;
  return ScanLogFile(path, size_t{1} << 20, &scan).ok();
}

void BM_LogScan(benchmark::State& state) {
  const bool load_from = state.range(0) != 0;
  std::string dir = bench::MakeScratchDir("log_scan");
  std::string path = WriteLogGeneration(dir, 100000);
  for (auto _ : state) {
    if (!DecodeLogOnce(path, load_from)) {
      state.SkipWithError("decode failed");
      break;
    }
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(std::filesystem::file_size(path)));
  state.SetLabel(load_from ? "log_load_from" : "log_scan");
  bench::RemoveDir(dir);
}
BENCHMARK(BM_LogScan)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

}  // namespace

// ---------------------------------------------------------------------------
// BENCH_io_fastpath.json: deterministic before/after MB/s measurements
// for the checkpoint I/O fast path (independent of google-benchmark's
// iteration policy, so CI thresholds are stable).
// ---------------------------------------------------------------------------

double MeasureCrcMbps(uint32_t (*fn)(const void*, size_t, uint32_t),
                      const std::string& buf) {
  // Warm up once, then keep the best of a few passes: the best pass is
  // the least-perturbed one on a shared CI box.
  benchmark::DoNotOptimize(fn(buf.data(), buf.size(), 0));
  double best_s = 1e30;
  for (int pass = 0; pass < 5; ++pass) {
    Stopwatch sw;
    benchmark::DoNotOptimize(fn(buf.data(), buf.size(), 0));
    double s = sw.ElapsedSeconds();
    if (s < best_s) best_s = s;
  }
  return static_cast<double>(buf.size()) / 1e6 / best_s;
}

uint32_t Crc32Bulk(const void* data, size_t n, uint32_t seed) {
  return Crc32(data, n, seed);
}
uint32_t Crc32cBulk(const void* data, size_t n, uint32_t seed) {
  return Crc32c(data, n, seed);
}

double MeasureWriterMbps(bool async_io, const std::string& dir) {
  CheckpointWriterOptions options;
  options.async_io = async_io;
  std::string value(1000, 'v');
  constexpr uint64_t kEntries = 48000;  // ~48 MB per pass
  const double payload_mb =
      static_cast<double>(kEntries * (value.size() + 13)) / 1e6;
  std::string path =
      dir + (async_io ? "/fastpath_async" : "/fastpath_sync");
  double best_s = 1e30;
  for (int pass = 0; pass < 3; ++pass) {
    CheckpointFileWriter writer;
    Stopwatch sw;
    if (!writer.Open(path, CheckpointType::kFull, 1, 0, options).ok()) {
      return 0;
    }
    for (uint64_t k = 0; k < kEntries; ++k) {
      writer.Append(k, value).ok();
    }
    if (!writer.Finish().ok()) return 0;
    double s = sw.ElapsedSeconds();
    if (s < best_s) best_s = s;
  }
  std::remove(path.c_str());
  return payload_mb / best_s;
}

double MeasureLogDecodeMbps(const std::string& path, bool load_from) {
  const double mb = static_cast<double>(std::filesystem::file_size(path)) / 1e6;
  if (!DecodeLogOnce(path, load_from)) return 0;  // warm the page cache
  double best_s = 1e30;
  for (int pass = 0; pass < 3; ++pass) {
    Stopwatch sw;
    if (!DecodeLogOnce(path, load_from)) return 0;
    double s = sw.ElapsedSeconds();
    if (s < best_s) best_s = s;
  }
  return mb / best_s;
}

/// Appends per second through the streamed commit path: three threads
/// append 84 B commits while a live streamer (10 ms batches) flushes and
/// truncates behind a horizon advanced every chunk. Best of three passes.
double MeasureLogAppendsPerSec(const std::string& dir) {
  constexpr int kThreads = 3;
  constexpr uint64_t kPerThread = 400000;
  double best_s = 1e30;
  for (int pass = 0; pass < 3; ++pass) {
    CommitLog log;
    CommandLogStreamer streamer(&log);
    if (!streamer.Start(dir + "/append_pass" + std::to_string(pass), 10)
             .ok()) {
      return 0;
    }
    Stopwatch sw;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&log, t] {
        PhaseController pc;
        Phase phase;
        uint64_t vpoc;
        std::string args(84, 'a');
        for (uint64_t i = 1; i <= kPerThread; ++i) {
          log.AppendCommit(i, 1, args, &pc, &phase, &vpoc);
          if (t == 0 && i % CommitLog::kChunkSlots == 0) {
            log.AdvanceRetentionHorizon(
                log.AppendPhaseTransition(Phase::kResolve, i));
          }
        }
      });
    }
    for (auto& th : threads) th.join();
    double s = sw.ElapsedSeconds();
    if (!streamer.Stop().ok()) return 0;
    if (s < best_s) best_s = s;
  }
  return static_cast<double>(kThreads * kPerThread) / best_s;
}

void EmitIoFastpathJson(const bench::Flags& flags) {
  std::string json_path =
      flags.Str("json_out", "BENCH_io_fastpath.json");
  if (json_path == "none" || json_path.empty()) return;

  std::string buf = MakeCrcBuffer(16 << 20);
  double base_mbps = MeasureCrcMbps(&Crc32ByteAtATime, buf);
  double slice8_mbps = MeasureCrcMbps(&Crc32Bulk, buf);
  bool hw = Crc32cHardwareAvailable();
  double hw_mbps = hw ? MeasureCrcMbps(&Crc32cBulk, buf) : 0;

  std::string dir = bench::MakeScratchDir("io_fastpath");
  double sync_mbps = MeasureWriterMbps(/*async_io=*/false, dir);
  double async_mbps = MeasureWriterMbps(/*async_io=*/true, dir);
  std::string log_path = WriteLogGeneration(dir, 300000);  // ~35 MB
  double scan_mbps = MeasureLogDecodeMbps(log_path, /*load_from=*/false);
  double load_mbps = MeasureLogDecodeMbps(log_path, /*load_from=*/true);
  double appends_per_s = MeasureLogAppendsPerSec(dir);
  bench::RemoveDir(dir);

  std::FILE* jf = std::fopen(json_path.c_str(), "w");
  if (jf == nullptr) {
    std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
    return;
  }
  std::fprintf(jf, "{\n  \"bench\": \"io_fastpath\",\n  \"crc\": [\n");
  std::fprintf(jf,
               "    {\"row\": \"crc32_byte_baseline\", "
               "\"mb_per_s\": %.1f},\n",
               base_mbps);
  std::fprintf(jf,
               "    {\"row\": \"crc32_slice8\", \"mb_per_s\": %.1f, "
               "\"speedup_vs_baseline\": %.2f},\n",
               slice8_mbps,
               base_mbps > 0 ? slice8_mbps / base_mbps : 0);
  std::fprintf(jf,
               "    {\"row\": \"crc32c_hw\", \"available\": %s, "
               "\"mb_per_s\": %.1f, \"speedup_vs_baseline\": %.2f}\n",
               hw ? "true" : "false", hw_mbps,
               base_mbps > 0 ? hw_mbps / base_mbps : 0);
  std::fprintf(jf, "  ],\n  \"writer\": [\n");
  std::fprintf(jf,
               "    {\"row\": \"writer_sync\", \"mb_per_s\": %.1f},\n",
               sync_mbps);
  std::fprintf(jf,
               "    {\"row\": \"writer_async\", \"mb_per_s\": %.1f, "
               "\"speedup_vs_sync\": %.2f}\n",
               async_mbps, sync_mbps > 0 ? async_mbps / sync_mbps : 0);
  std::fprintf(jf, "  ],\n  \"log\": [\n");
  std::fprintf(jf,
               "    {\"row\": \"log_load_from\", \"mb_per_s\": %.1f},\n",
               load_mbps);
  std::fprintf(jf,
               "    {\"row\": \"log_scan\", \"mb_per_s\": %.1f, "
               "\"speedup_vs_load_from\": %.2f}\n",
               scan_mbps, load_mbps > 0 ? scan_mbps / load_mbps : 0);
  std::fprintf(jf, "  ],\n  \"commit_log\": [\n");
  std::fprintf(jf,
               "    {\"row\": \"log_append\", \"threads\": 3, "
               "\"streamer\": true, \"appends_per_s\": %.0f, "
               "\"ns_per_append\": %.1f}\n",
               appends_per_s, appends_per_s > 0 ? 1e9 / appends_per_s : 0);
  std::fprintf(jf, "  ]\n}\n");
  std::fclose(jf);
  std::printf("io fastpath json: %s (crc slice8 %.1fx, hw %.1fx; "
              "writer async %.2fx; log scan %.0f MB/s, %.2fx LoadFrom; "
              "log append %.2f M/s)\n",
              json_path.c_str(),
              base_mbps > 0 ? slice8_mbps / base_mbps : 0,
              base_mbps > 0 ? hw_mbps / base_mbps : 0,
              sync_mbps > 0 ? async_mbps / sync_mbps : 0, scan_mbps,
              load_mbps > 0 ? scan_mbps / load_mbps : 0,
              appends_per_s / 1e6);
}

}  // namespace calcdb

// BENCHMARK_MAIN plus a metrics dump, so even the component
// microbenches feed the BENCH_*.json trajectory. Unrecognized flags
// are tolerated (google-benchmark would reject --metrics_out).
int main(int argc, char** argv) {
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  calcdb::bench::Flags flags(argc, argv);
  calcdb::EmitIoFastpathJson(flags);
  calcdb::bench::ExportObsArtifacts(flags, "micro_components");
  return 0;
}
