#include "checkpoint/calc.h"

#include <atomic>
#include <cassert>
#include <string>
#include <thread>
#include <vector>

#include "obs/obs.h"
#include "storage/memory_tracker.h"
#include "util/clock.h"
#include "util/fault_injection.h"

namespace calcdb {

#if CALCDB_OBS_ENABLED
namespace {

// Emits one completed checkpoint-phase span (trace + per-algorithm
// phase-duration histogram) and returns the new phase start time.
// `phase` must be a string literal (the trace ring stores the pointer).
int64_t EmitPhaseSpan(const char* algo, const char* phase,
                      int64_t start_us, uint64_t checkpoint_id) {
  int64_t now = NowMicros();
  obs::Tracer::Global().EmitComplete(phase, "ckpt", start_us,
                                     now - start_us, checkpoint_id);
  std::string hist = "calcdb.ckpt.";
  hist += algo;
  hist += ".phase.";
  hist += phase;
  hist += "_us";
  obs::MetricsRegistry::Global().GetHistogram(hist)->Record(now - start_us);
  return now;
}

// Per-segment capture span names must be string literals (the trace ring
// stores the pointer, not a copy); workers beyond the table share one
// overflow name.
const char* SegmentSpanName(size_t seg) {
  static constexpr const char* kNames[] = {
      "capture.seg0",  "capture.seg1",  "capture.seg2",  "capture.seg3",
      "capture.seg4",  "capture.seg5",  "capture.seg6",  "capture.seg7",
      "capture.seg8",  "capture.seg9",  "capture.seg10", "capture.seg11",
      "capture.seg12", "capture.seg13", "capture.seg14", "capture.seg15",
  };
  constexpr size_t kCount = sizeof(kNames) / sizeof(kNames[0]);
  return seg < kCount ? kNames[seg] : "capture.seg+";
}

}  // namespace
#endif  // CALCDB_OBS_ENABLED

CalcCheckpointer::CalcCheckpointer(EngineContext engine, CalcOptions options)
    : Checkpointer(engine), options_(options) {
  // The engine is in REST from the moment the checkpointer exists, so
  // even a run with a single cycle traces the full rest -> prepare ->
  // resolve -> capture -> complete cadence.
  CALCDB_OBS_ONLY(rest_start_us_ = NowMicros();)
  uint32_t nshards = engine_.store->num_shards();
  slots_at_vpoc_ = std::vector<std::atomic<uint32_t>>(nshards);
  if (options_.partial) {
    for (int i = 0; i < 2; ++i) {
      dirty_[i].reserve(nshards);
      for (uint32_t s = 0; s < nshards; ++s) {
        dirty_[i].emplace_back(std::make_unique<DirtyKeyTracker>(
            options_.tracker, engine_.store->shard(s)->max_records()));
      }
    }
  }
}

void CalcCheckpointer::InstallStable(Record& rec) {
  if (Record::IsRealValue(rec.live)) {
    // Physical copy, as in the paper ("it has to copy the live version to
    // the stable version"); drawn from the stable-record pool when one is
    // configured (§5.1.6).
    rec.stable = Value::Create(rec.live->data(), engine_.store->pool());
  } else {
    rec.stable = Record::AbsentMarker();
  }
  int64_t n = stable_versions_.fetch_add(1, std::memory_order_relaxed) + 1;
  uint64_t peak = peak_stable_versions_.load(std::memory_order_relaxed);
  while (static_cast<uint64_t>(n) > peak &&
         !peak_stable_versions_.compare_exchange_weak(
             peak, static_cast<uint64_t>(n), std::memory_order_relaxed)) {
  }
}

void CalcCheckpointer::EraseStable(Record& rec) {
  if (rec.stable == nullptr) return;
  if (Record::IsRealValue(rec.stable)) Value::Unref(rec.stable);
  rec.stable = nullptr;
  stable_versions_.fetch_sub(1, std::memory_order_relaxed);
}

void CalcCheckpointer::ApplyWrite(Txn& txn, Record& rec, Value* new_val) {
  SpinLatchGuard guard(rec.latch);
  switch (txn.start_phase) {
    case Phase::kPrepare:
      // "The system is not sure in which phase the transaction will be
      // committed": preserve the pre-write value, but do not publish it
      // (no status update) until the commit phase is known.
      if (!StableAvailable(rec)) {
        // A stable version without the current stamp is garbage from an
        // earlier cycle; replace it with the current pre-write value.
        EraseStable(rec);
        InstallStable(rec);
      }
      break;

    case Phase::kResolve:
    case Phase::kCapture: {
      // Post-point-of-consistency writer: preserve the value the capture
      // scan must see — unless the scan will never visit this record
      // (slot created after the VPoC, or not in pCALC's dirty set). Both
      // the watermark and the dirty set are the record's own shard's.
      bool in_scan_range = rec.index < VpocLimit(rec.shard);
      if (in_scan_range && options_.partial) {
        in_scan_range =
            DirtyFor(capture_parity_.load(std::memory_order_acquire),
                     rec.shard)
                .Test(rec.index);
      }
      if (in_scan_range && !StableAvailable(rec)) {
        EraseStable(rec);  // drop any stale leftover from an old cycle
        InstallStable(rec);
        SetStableAvailable(rec);
      }
      break;
    }

    case Phase::kComplete:
    case Phase::kRest:
      // No checkpoint in progress for this transaction's writes.
      EraseStable(rec);
      break;
  }
  engine_.store->ReplaceLive(rec, new_val);
}

void CalcCheckpointer::OnCommit(Txn& txn) {
  if (txn.start_phase == Phase::kPrepare) {
    if (txn.commit_phase == Phase::kPrepare) {
      // Committed before the point of consistency: the writes belong in
      // the checkpoint, so the preserved pre-write values are dropped.
      for (Record* rec : txn.written_records) {
        SpinLatchGuard guard(rec->latch);
        EraseStable(*rec);
      }
    } else {
      // Committed after the point of consistency (resolve phase): publish
      // the preserved pre-write values to the capture scan.
      assert(txn.commit_phase == Phase::kResolve);
      for (Record* rec : txn.written_records) {
        SpinLatchGuard guard(rec->latch);
        // Publish only what the capture scan will actually consume: the
        // record must be inside the scan range (slots above the VPoC
        // watermark are never visited — e.g. rows this transaction itself
        // inserted during the prepare phase) and, for pCALC, in the
        // consumed dirty set. A kept-but-never-consumed stable version
        // (often an AbsentMarker from a fresh insert) would leak into the
        // next cycle and mask the record from the *next* checkpoint.
        bool scanned = rec->index < VpocLimit(rec->shard);
        if (scanned && options_.partial) {
          scanned =
              DirtyFor(capture_parity_.load(std::memory_order_acquire),
                       rec->shard)
                  .Test(rec->index);
        }
        if (scanned && rec->stable != nullptr) {
          SetStableAvailable(*rec);
        } else {
          // The capture scan will not visit this record; a kept stable
          // version would leak a stale value into the next checkpoint.
          EraseStable(*rec);
        }
      }
    }
  }

  if (options_.partial && !txn.written_records.empty()) {
    // Route dirty keys by the parity of the VPoC count at commit: commits
    // before the n-th virtual point of consistency land in the set the
    // n-th capture consumes; later commits land in the other set.
    uint32_t parity = static_cast<uint32_t>(txn.vpoc_count & 1);
    for (Record* rec : txn.written_records) {
      DirtyFor(parity, rec->shard).Mark(rec->index);
    }
  }
}

Status CalcCheckpointer::CaptureRecord(Record& rec,
                                       CheckpointFileWriter* writer) {
  Value* to_write = nullptr;
  bool absent_at_poc = false;
  uint64_t key;
  {
    SpinLatchGuard guard(rec.latch);
    key = rec.key;
    if (StableAvailable(rec)) {
      // An explicit stable version was published for this record.
      Value* stable = rec.stable;
      rec.stable = nullptr;
      if (stable == Record::AbsentMarker()) {
        absent_at_poc = true;
        stable_versions_.fetch_sub(1, std::memory_order_relaxed);
      } else if (stable != nullptr) {
        to_write = stable;  // ownership moves to us
        stable_versions_.fetch_sub(1, std::memory_order_relaxed);
      } else if (Record::IsRealValue(rec.live)) {
        // Defensive: available with no preserved version — unreachable by
        // construction, but falling back to live is the paper's
        // "stable empty => live is the stable value" invariant.
        to_write = Value::Ref(rec.live);
      } else {
        absent_at_poc = true;
      }
    } else {
      // No stable version yet: mark available first so concurrent
      // post-VPoC writers stop trying to create one, then read the live
      // version, then re-check for a stable version that raced in
      // (Figure 1's capture-phase ordering). The record latch makes the
      // re-check always see a consistent pair.
      SetStableAvailable(rec);
      Value* stable = rec.stable;
      rec.stable = nullptr;
      if (stable == Record::AbsentMarker()) {
        absent_at_poc = true;
        stable_versions_.fetch_sub(1, std::memory_order_relaxed);
      } else if (stable != nullptr) {
        to_write = stable;
        stable_versions_.fetch_sub(1, std::memory_order_relaxed);
      } else if (Record::IsRealValue(rec.live)) {
        to_write = Value::Ref(rec.live);
      } else {
        absent_at_poc = true;  // deleted (or dead slot)
      }
    }
  }
  Status st;
  if (to_write != nullptr) {
    st = writer->Append(key, to_write->data());
    Value::Unref(to_write);
  } else if (absent_at_poc && options_.partial &&
             key != ~uint64_t{0}) {
    // Partial checkpoints must record deletions; a merge would otherwise
    // resurrect the previous checkpoint's value.
    st = writer->AppendTombstone(key);
  }
  return st;
}

Status CalcCheckpointer::CaptureAll(CheckpointFileWriter* writer) {
  uint32_t nshards = engine_.store->num_shards();
  for (uint32_t s = 0; s < nshards; ++s) {
    uint32_t limit = VpocLimit(s);
    for (uint32_t idx = 0; idx < limit; ++idx) {
      CALCDB_RETURN_NOT_OK(
          CaptureRecord(*engine_.store->shard(s)->ByIndex(idx), writer));
    }
  }
  return Status::OK();
}

Status CalcCheckpointer::CapturePartial(CheckpointFileWriter* writer) {
  uint32_t parity = capture_parity_.load(std::memory_order_acquire);
  uint32_t nshards = engine_.store->num_shards();
  Status st;
  for (uint32_t s = 0; s < nshards; ++s) {
    DirtyFor(parity, s).ForEach(VpocLimit(s), [&](uint32_t idx) {
      if (!st.ok()) return;
      st = CaptureRecord(*engine_.store->shard(s)->ByIndex(idx), writer);
    });
    CALCDB_RETURN_NOT_OK(st);
  }
  return st;
}

Status CalcCheckpointer::CaptureSegmented(CheckpointType type, uint64_t id,
                                         uint64_t vpoc_lsn,
                                         CheckpointInfo* info,
                                         CheckpointCycleStats* stats) {
  // Each segment is a (shard, work-list range) pair, written in ascending
  // slot order; no two segments ever touch the same record.
  //
  // Single-shard store: pCALC's dirty indices are collected once (cheap —
  // no value copies), and the work list (dirty indices, or the whole slot
  // range) is split into capture_threads contiguous chunks, exactly the
  // pre-shard layout. Sharded store: segment K is shard K, whole — the
  // file layout is a property of the data's partitioning, not of how many
  // workers happened to run, so segments stay byte-stable across
  // capture_threads settings.
  uint32_t nshards = engine_.store->num_shards();
  uint32_t parity = capture_parity_.load(std::memory_order_acquire);

  struct Segment {
    uint32_t shard = 0;
    size_t begin = 0;
    size_t end = 0;  // work-list index range [begin, end) within the shard
    std::string path;
    Status status;
    uint64_t entries = 0;
    uint64_t bytes = 0;
  };
  std::vector<std::vector<uint32_t>> dirty_by_shard;
  if (options_.partial) {
    dirty_by_shard.resize(nshards);
    for (uint32_t s = 0; s < nshards; ++s) {
      DirtyFor(parity, s).ForEach(VpocLimit(s), [&](uint32_t idx) {
        dirty_by_shard[s].push_back(idx);
      });
    }
  }
  auto shard_work = [&](uint32_t s) -> size_t {
    return options_.partial ? dirty_by_shard[s].size() : VpocLimit(s);
  };

  std::vector<Segment> segs;
  if (nshards == 1) {
    size_t total = shard_work(0);
    size_t nseg = static_cast<size_t>(options_.capture_threads);
    if (nseg < 1) nseg = 1;
    if (nseg > total) nseg = total < 1 ? 1 : total;
    segs.resize(nseg);
    for (size_t k = 0; k < nseg; ++k) {
      segs[k].begin = total * k / nseg;
      segs[k].end = total * (k + 1) / nseg;
    }
  } else {
    segs.resize(nshards);
    for (uint32_t s = 0; s < nshards; ++s) {
      segs[s].shard = s;
      segs[s].end = shard_work(s);
    }
  }
  for (size_t k = 0; k < segs.size(); ++k) {
    segs[k].path = engine_.ckpt_storage->SegmentPathFor(id, type, k);
  }

  // Every segment writer draws from the storage-wide budget (carried in
  // writer_options), keeping the configured rate an aggregate cap over
  // all concurrent writers.
  const CheckpointWriterOptions& writer_options =
      engine_.ckpt_storage->writer_options();
  auto capture_segment = [&](size_t k) {
    Segment& seg = segs[k];
    KVStore* shard = engine_.store->shard(seg.shard);
    CALCDB_OBS_ONLY(int64_t seg_start_us = NowMicros();)
    CheckpointFileWriter writer;
    seg.status = writer.Open(seg.path, type, id, vpoc_lsn, writer_options);
    for (size_t i = seg.begin; seg.status.ok() && i < seg.end; ++i) {
      uint32_t idx = options_.partial ? dirty_by_shard[seg.shard][i]
                                      : static_cast<uint32_t>(i);
      seg.status = CaptureRecord(*shard->ByIndex(idx), &writer);
    }
    // Worker-thread context: route the injected Status into the segment's
    // status slot by hand (CALCDB_RETURN_NOT_OK can't return from here).
    if (seg.status.ok()) {
      seg.status = CALCDB_FAULT_STATUS("ckpt.segment.finish");
    }
    if (seg.status.ok()) seg.status = writer.Finish();
    seg.entries = writer.entries_written();
    seg.bytes = writer.bytes_written();
#if CALCDB_OBS_ENABLED
    int64_t now = NowMicros();
    obs::Tracer::Global().EmitComplete(SegmentSpanName(k), "ckpt",
                                       seg_start_us, now - seg_start_us,
                                       id);
    CALCDB_COUNTER_ADD("calcdb.ckpt.segments_written", 1);
    CALCDB_COUNTER_ADD("calcdb.ckpt.segment_bytes", seg.bytes);
#endif
  };
  // Workers pull segment ids from a shared cursor: with one shard there
  // are exactly capture_threads segments (one each); with many shards a
  // smaller pool still writes every per-shard segment.
  size_t pool = static_cast<size_t>(
      options_.capture_threads < 1 ? 1 : options_.capture_threads);
  if (pool > segs.size()) pool = segs.size();
  if (pool < 1) pool = 1;
  std::atomic<size_t> next_seg{0};
  auto worker = [&] {
    for (;;) {
      size_t k = next_seg.fetch_add(1, std::memory_order_relaxed);
      if (k >= segs.size()) return;
      capture_segment(k);
    }
  };
  std::vector<std::thread> workers;
  workers.reserve(pool - 1);
  for (size_t w = 1; w < pool; ++w) workers.emplace_back(worker);
  worker();
  for (std::thread& t : workers) t.join();

  // The checkpoint is valid only once every segment footer is durable; on
  // any failure the already-written segments stay unregistered and
  // recovery ignores them (the manifest never lists this checkpoint).
  for (const Segment& seg : segs) {
    CALCDB_RETURN_NOT_OK(seg.status);
  }
  info->segments.clear();
  info->num_entries = 0;
  uint64_t bytes = 0;
  for (const Segment& seg : segs) {
    info->segments.push_back(seg.path);
    info->num_entries += seg.entries;
    bytes += seg.bytes;
  }
  stats->records_written = info->num_entries;
  stats->bytes_written = bytes;
  stats->segments = segs.size();
  return Status::OK();
}

void CalcCheckpointer::WaitForDrain(std::initializer_list<Phase> phases) {
  for (;;) {
    bool drained = true;
    for (Phase p : phases) {
      if (engine_.phases->ActiveIn(p) > 0) {
        drained = false;
        break;
      }
    }
    if (drained) return;
    SleepMicros(100);
  }
}

Status CalcCheckpointer::RunCheckpointCycle() {
  Stopwatch total;
  CheckpointCycleStats stats;
  uint64_t id = engine_.ckpt_storage->NextId();
  stats.checkpoint_id = id;

  // The rest span covers the gap since the previous cycle completed, so
  // a Perfetto timeline shows the full rest/prepare/resolve/capture/
  // complete cadence (acceptance criterion for fig5 traces).
  CALCDB_OBS_ONLY(int64_t phase_start_us = NowMicros();)
#if CALCDB_OBS_ENABLED
  if (rest_start_us_ != 0) {
    CALCDB_TRACE_COMPLETE("rest", "ckpt", rest_start_us_,
                          phase_start_us - rest_start_us_, id);
  }
#endif

  // --- Prepare phase -------------------------------------------------
  // Stamp sense: from here on, stable_cycle == cycle means "available";
  // everything stamped in earlier cycles reads "not available" — the O(1)
  // global reset.
  uint32_t cycle = next_cycle_++;
  active_cycle_.store(cycle, std::memory_order_release);
  engine_.log->AppendPhaseTransition(Phase::kPrepare, id, engine_.phases);
  WaitForDrain({Phase::kRest, Phase::kComplete, Phase::kResolve,
                Phase::kCapture});
  CALCDB_OBS_ONLY(
      phase_start_us = EmitPhaseSpan(name(), "prepare", phase_start_us, id);)

  // --- Resolve phase: the virtual point of consistency ----------------
  // Watermark and parity are published inside the log latch, before the
  // phase switch becomes visible: every commit token that precedes the
  // RESOLVE token created its slots before this point (creation precedes
  // the creator's commit append), so the watermark covers exactly the
  // pre-VPoC records; and no transaction can observe phase == RESOLVE
  // while still reading last cycle's watermark or parity.
  uint64_t vpoc_lsn = engine_.log->AppendPhaseTransition(
      Phase::kResolve, id, engine_.phases, [this] {
        uint32_t nshards = engine_.store->num_shards();
        for (uint32_t s = 0; s < nshards; ++s) {
          slots_at_vpoc_[s].store(engine_.store->shard(s)->NumSlots(),
                                  std::memory_order_release);
        }
        if (options_.partial) {
          // VpocCount was just incremented to n; the n-th capture consumes
          // the set with parity (n-1) & 1.
          capture_parity_.store(
              static_cast<uint32_t>((engine_.log->VpocCountLocked() - 1) &
                                    1),
              std::memory_order_release);
        }
      });
  WaitForDrain({Phase::kPrepare, Phase::kRest, Phase::kComplete});
  CALCDB_OBS_ONLY(
      phase_start_us = EmitPhaseSpan(name(), "resolve", phase_start_us, id);)

  // --- Capture phase ---------------------------------------------------
  engine_.log->AppendPhaseTransition(Phase::kCapture, id, engine_.phases);
  Stopwatch capture_sw;
  CheckpointType type =
      options_.partial ? CheckpointType::kPartial : CheckpointType::kFull;
  CheckpointInfo info;
  info.id = id;
  info.type = type;
  info.vpoc_lsn = vpoc_lsn;
  if (options_.capture_threads > 1 || engine_.store->num_shards() > 1) {
    // Parallel segmented capture (sharded stores always segment: the
    // files mirror the partitioning). `info.path` keeps the base name
    // the segment files derive from; no file exists at it.
    info.path = engine_.ckpt_storage->PathFor(id, type);
    CALCDB_RETURN_NOT_OK(
        CaptureSegmented(type, id, vpoc_lsn, &info, &stats));
  } else {
    // Single-threaded capture keeps the legacy single-file layout,
    // byte-for-byte (only the pacing source changed: the shared budget
    // also meters concurrent merger / base-checkpoint writes).
    std::string path = engine_.ckpt_storage->PathFor(id, type);
    CheckpointFileWriter writer;
    CALCDB_RETURN_NOT_OK(writer.Open(
        path, type, id, vpoc_lsn, engine_.ckpt_storage->writer_options()));
    CALCDB_RETURN_NOT_OK(options_.partial ? CapturePartial(&writer)
                                          : CaptureAll(&writer));
    CALCDB_RETURN_NOT_OK(writer.Finish());
    stats.records_written = writer.entries_written();
    stats.bytes_written = writer.bytes_written();
    stats.segments = 1;
    info.path = path;
    info.num_entries = writer.entries_written();
  }
  stats.capture_micros = capture_sw.ElapsedMicros();
  CALCDB_OBS_ONLY(
      phase_start_us = EmitPhaseSpan(name(), "capture", phase_start_us, id);)
  if (options_.partial) {
    CALCDB_COUNTER_ADD("calcdb.ckpt.dirty_records_captured",
                       stats.records_written);
  }

  // --- Complete phase --------------------------------------------------
  engine_.log->AppendPhaseTransition(Phase::kComplete, id, engine_.phases);
  // The paper's barrier gates on capture-started transactions; we also
  // wait out any straggling resolve-started ones (e.g. a long-running
  // transaction), which could otherwise install stable versions into the
  // next cycle.
  WaitForDrain({Phase::kPrepare, Phase::kResolve, Phase::kCapture});

  if (options_.partial) {
    uint32_t parity = capture_parity_.load(std::memory_order_acquire);
    for (uint32_t s = 0; s < engine_.store->num_shards(); ++s) {
      DirtyFor(parity, s).Clear();
    }
  }
  active_cycle_.store(0, std::memory_order_release);

  // --- Back to rest ------------------------------------------------------
  engine_.log->AppendPhaseTransition(Phase::kRest, id, engine_.phases);

  CALCDB_RETURN_NOT_OK(PublishCheckpoint(info));

  stats.quiesce_micros = 0;  // CALC never closes the admission gate
  stats.total_micros = total.ElapsedMicros();
#if CALCDB_OBS_ENABLED
  phase_start_us = EmitPhaseSpan(name(), "complete", phase_start_us, id);
  rest_start_us_ = phase_start_us;
#endif
  SetLastCycle(stats);
  return Status::OK();
}

}  // namespace calcdb
