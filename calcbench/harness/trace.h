#ifndef CALCBENCH_HARNESS_TRACE_H_
#define CALCBENCH_HARNESS_TRACE_H_

// Spans recorded by the benchmark around its calls into the engine.
//
// A span has a name, a start and end instant, its own id and the id of the
// span that caused it; every span of one run carries the run id. Coarse
// spans (open, load, start, checkpoint cycles, recovery, shutdown) are all
// kept. Per-transaction spans (workload.next, txn.execute) are folded into
// per-lane totals and only one in `kSampleEvery` is kept as a span, so
// memory stays bounded however long the run is. Everything stays in memory
// until WriteJson at the end of the run.

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace calcbench {

struct SpanRecord {
  uint64_t id = 0;
  uint64_t parent = 0;
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint32_t lane = 0;  ///< 0 = coarse span, else the worker lane
};

class Tracer;

/// Per-thread recorder for per-transaction spans; no locking on the hot
/// path. Owned by its Tracer.
class TraceLane {
 public:
  /// Records one leaf span whose parent is the lane's parent span.
  void Leaf(const char* name, int64_t start_ns, int64_t end_ns);

 private:
  friend class Tracer;
  struct Fold {
    uint64_t count = 0;
    int64_t total_ns = 0;
  };
  TraceLane(Tracer* tracer, uint32_t index, uint64_t parent)
      : tracer_(tracer), index_(index), parent_(parent) {}

  Tracer* tracer_;
  uint32_t index_;
  uint64_t parent_;
  std::vector<std::pair<const char*, Fold>> folds_;  ///< names are literals
  std::vector<SpanRecord> sampled_;
};

class Tracer {
 public:
  static constexpr uint64_t kSampleEvery = 256;
  static constexpr size_t kMaxSampledPerLane = 4096;

  Tracer(bool enabled, uint64_t run_id) : enabled_(enabled), run_id_(run_id) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }
  uint64_t run_id() const { return run_id_; }

  /// Opens a coarse span; returns its id (0 when tracing is off).
  uint64_t Begin(const char* name, uint64_t parent);
  void End(uint64_t id);

  /// A lane for one worker thread whose leaf spans hang off `parent`.
  /// Null when tracing is off.
  TraceLane* NewLane(uint64_t parent);

  /// Spans kept in memory (coarse plus sampled).
  uint64_t SpanCount() const;

  /// Self time per span name, in milliseconds: a span's duration minus the
  /// part of it covered by its children. Folded per-transaction spans are
  /// leaves, and a lane's folded total is subtracted from its parent.
  std::map<std::string, double> SelfMillis() const;

  /// Writes a Chrome trace-event JSON file (loadable in Perfetto).
  bool WriteJson(const std::string& path) const;

 private:
  friend class TraceLane;
  uint64_t NextId();

  const bool enabled_;
  const uint64_t run_id_;
  mutable std::mutex mu_;
  uint64_t next_id_ = 1;
  std::vector<SpanRecord> spans_;
  std::vector<std::unique_ptr<TraceLane>> lanes_;
};

/// RAII coarse span.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, uint64_t parent)
      : tracer_(tracer), id_(tracer->Begin(name, parent)) {}
  ~ScopedSpan() { tracer_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return id_; }

 private:
  Tracer* tracer_;
  uint64_t id_;
};

}  // namespace calcbench

#endif  // CALCBENCH_HARNESS_TRACE_H_
