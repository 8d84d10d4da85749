#include "checkpoint/checkpointer.h"

#include <string>

#include "log/command_log_streamer.h"
#include "obs/obs.h"
#include "util/clock.h"
#include "util/fault_injection.h"

namespace calcdb {

Status Checkpointer::WaitLogDurable(uint64_t vpoc_lsn) {
  const CommandLogStreamer* streamer = engine_.streamer;
  if (streamer == nullptr) return Status::OK();
  // The RESOLVE token occupies LSN `vpoc_lsn` and LSNs [0, persisted_lsn)
  // are durable, so the token is on stable storage once persisted_lsn
  // passes it. The wait is bounded by one flush interval; it runs with
  // the engine at REST, so transactions proceed underneath it.
  CALCDB_OBS_ONLY(Stopwatch sw;)
  while (streamer->persisted_lsn() <= vpoc_lsn) {
    CALCDB_RETURN_NOT_OK(streamer->background_status());
    if (!streamer->running()) {
      // Stop() clears `running` before its final drain; give that drain a
      // moment to land the token before declaring it unreachable.
      for (int i = 0; i < 200 && streamer->persisted_lsn() <= vpoc_lsn;
           ++i) {
        SleepMicros(1000);
      }
      if (streamer->persisted_lsn() > vpoc_lsn) break;
      CALCDB_RETURN_NOT_OK(streamer->background_status());
      return Status::IOError(
          "command-log streamer stopped before the checkpoint's RESOLVE "
          "token became durable");
    }
    SleepMicros(200);
  }
  CALCDB_HISTOGRAM_RECORD("calcdb.ckpt.log_barrier_us",
                          sw.ElapsedMicros());
  return Status::OK();
}

Status Checkpointer::RunCheckpointCycle() {
  Stopwatch total;
  CALCDB_TRACE_SPAN(cycle_span, name(), "ckpt", 0);
  CheckpointInfo info;
  info.id = engine_.ckpt_storage->NextId();
  info.type = partial_ ? CheckpointType::kPartial : CheckpointType::kFull;
  CheckpointCycleStats stats;
  stats.checkpoint_id = info.id;
  CALCDB_RETURN_NOT_OK(Capture(&info, &stats));
  CALCDB_RETURN_NOT_OK(PublishCheckpoint(info));
  stats.segments = info.files().size();
  stats.total_micros = total.ElapsedMicros();
  SetLastCycle(stats);
  return Status::OK();
}

Status Checkpointer::PublishCheckpoint(const CheckpointInfo& info) {
  // Durability barrier: the manifest may name this checkpoint only after
  // its RESOLVE token is fsynced. Registering earlier would let a crash
  // leave a checkpoint whose token exists in no log generation, and
  // recovery's anchor rule would then skip later lifetimes' durable
  // commits (docs/DURABILITY.md).
  CALCDB_RETURN_NOT_OK(WaitLogDurable(info.vpoc_lsn));
  // A crash here leaves fully-written checkpoint files that the manifest
  // never lists: recovery ignores them and replays the tail from the log.
  CALCDB_FAULT_POINT("ckpt.register");
  engine_.ckpt_storage->Register(info);
  CALCDB_RETURN_NOT_OK(engine_.ckpt_storage->PersistManifest());
  // From here on recovery replays only past info.vpoc_lsn, so the
  // streamed log's in-memory copy below it is dead weight. Without a
  // streamer the in-memory log is the only command log and keeps
  // everything.
  if (engine_.streamer != nullptr) {
    engine_.log->AdvanceRetentionHorizon(info.vpoc_lsn);
  }
  return Status::OK();
}

void Checkpointer::SetLastCycle(const CheckpointCycleStats& stats) {
  {
    SpinLatchGuard guard(stats_latch_);
    last_cycle_ = stats;
  }
#if CALCDB_OBS_ENABLED
  // Cold path (once per cycle): direct registry lookups with the
  // algorithm name baked into the metric are fine here.
  auto& registry = obs::MetricsRegistry::Global();
  std::string prefix = "calcdb.ckpt.";
  prefix += name();
  registry.GetCounter(prefix + ".cycles")->Add(1);
  registry.GetCounter(prefix + ".records_written")
      ->Add(stats.records_written);
  registry.GetCounter(prefix + ".bytes_written")->Add(stats.bytes_written);
  registry.GetHistogram(prefix + ".total_us")->Record(stats.total_micros);
  registry.GetHistogram(prefix + ".capture_us")
      ->Record(stats.capture_micros);
  if (stats.quiesce_micros > 0) {
    registry.GetHistogram(prefix + ".quiesce_us")
        ->Record(stats.quiesce_micros);
  }
  CALCDB_COUNTER_ADD("calcdb.ckpt.cycles", 1);
  CALCDB_COUNTER_ADD("calcdb.ckpt.records_written", stats.records_written);
  CALCDB_COUNTER_ADD("calcdb.ckpt.bytes_written", stats.bytes_written);
#endif  // CALCDB_OBS_ENABLED
}

Value* Checkpointer::ReadRecord(Txn& txn, Record& rec) {
  (void)txn;
  // Safe without the record latch: `live` is only modified by transactions
  // holding this record's stripe lock (which excludes the caller) — never
  // by checkpoint threads.
  return Record::IsRealValue(rec.live) ? rec.live : nullptr;
}

void NoCheckpointer::ApplyWrite(Txn& txn, Record& rec, Value* new_val) {
  (void)txn;
  SpinLatchGuard guard(rec.latch);
  engine_.store->ReplaceLive(rec, new_val);
}

}  // namespace calcdb
