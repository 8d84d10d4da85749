#ifndef CALCDB_OBS_METRICS_H_
#define CALCDB_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "util/histogram.h"
#include "util/latch.h"
#include "util/thread_slot.h"

namespace calcdb {
namespace obs {

/// A counter sharded across cache lines so that concurrent hot-path
/// increments from different threads do not bounce a single line.
///
/// Each thread adds into its own cache-line-aligned slot
/// (util/thread_slot.h): a relaxed load and store while the thread owns
/// the slot, a relaxed fetch_add on the shared overflow slot otherwise.
/// Sum() folds the slots; it is O(kThreadSlots) and intended for snapshot
/// paths only.
class ShardedCounter {
 public:
  ShardedCounter() = default;
  ShardedCounter(const ShardedCounter&) = delete;
  ShardedCounter& operator=(const ShardedCounter&) = delete;

  void Add(uint64_t n) {
    unsigned slot = ThisThreadSlot();
    SlotAdd(shards_[slot].v, n, slot);
  }

  uint64_t Sum() const {
    uint64_t total = 0;
    for (const auto& s : shards_) {
      total += s.v.load(std::memory_order_relaxed);
    }
    return total;
  }

  /// Zeroes every shard. An Add() racing the reset may survive it or
  /// undo it for its own slot; this is a test/diagnostic affordance, not
  /// a synchronization point.
  void Reset() {
    for (auto& s : shards_) s.v.store(0, std::memory_order_relaxed);
  }

 private:
  struct alignas(64) Shard {
    std::atomic<uint64_t> v{0};
  };

  Shard shards_[kThreadSlots + 1];
};

/// A point-in-time signed value (e.g. bytes currently resident).
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Set(int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void Add(int64_t d) { v_.fetch_add(d, std::memory_order_relaxed); }
  int64_t Get() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> v_{0};
};

/// Name -> instrument registry.
///
/// Lookup lazily creates the instrument under a latch and returns a
/// stable pointer: instruments are never destroyed or moved for the
/// lifetime of the registry, so hot paths may cache the pointer (the
/// CALCDB_COUNTER_ADD-family macros in obs/obs.h cache it in a
/// function-local static) and touch it lock-free afterwards.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  static MetricsRegistry& Global();

  ShardedCounter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name);

  /// Registers a gauge whose value is computed at snapshot time (used
  /// for externally owned values: memory tracker bytes, probe
  /// counters). Re-registering a name replaces the callback.
  void RegisterCallbackGauge(const std::string& name,
                             std::function<int64_t()> fn);

  /// Human-readable "name: value" dump, sorted by name.
  std::string SnapshotText() const;

  /// Machine-readable snapshot:
  /// {"meta":{...},"counters":{..},"gauges":{..},"histograms":{..}}.
  /// `meta_extra` adds key/value pairs under "meta" (already-escaped
  /// plain strings).
  std::string SnapshotJson(
      const std::vector<std::pair<std::string, std::string>>& meta_extra =
          {}) const;

  /// Zeroes every counter/gauge/histogram value but keeps the entries
  /// (and thus every cached pointer) alive. Callback gauges are
  /// dropped: their backing values belong to the caller.
  void ResetForTest();

 private:
  template <typename T>
  T* GetOrCreate(std::map<std::string, std::unique_ptr<T>>* table,
                 const std::string& name);

  mutable SpinLatch latch_;
  std::map<std::string, std::unique_ptr<ShardedCounter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  std::map<std::string, std::function<int64_t()>> callback_gauges_;
};

/// Escapes a string for embedding in a JSON double-quoted literal.
std::string JsonEscape(const std::string& s);

}  // namespace obs
}  // namespace calcdb

#endif  // CALCDB_OBS_METRICS_H_
