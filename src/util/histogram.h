#ifndef CALCDB_UTIL_HISTOGRAM_H_
#define CALCDB_UTIL_HISTOGRAM_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "util/thread_slot.h"

namespace calcdb {

/// A lock-free latency histogram with logarithmic buckets.
///
/// Values are recorded in microseconds. Buckets cover [1us, ~17min] with
/// ~4.6% relative resolution (16 sub-buckets per power of two), which is
/// plenty for the paper's CDF plots (Figure 5) that span 1ms..100s on a log
/// axis.
///
/// Recording is per-thread: each thread adds into the shard of its
/// util/thread_slot.h slot (allocated on the slot's first Record) with
/// plain relaxed loads and stores, so concurrent recorders never write a
/// shared line or pay for a locked add. Every reader folds the shards;
/// the fold is exact once recorders are quiet, and a racing Record may or
/// may not be included. A histogram costs kThreadSlots + 1 pointers plus
/// one ~8 KiB shard per slot that has recorded.
class Histogram {
 public:
  Histogram() = default;
  ~Histogram();

  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void Record(int64_t value_us) {
    if (value_us < 0) value_us = 0;
    uint64_t v = static_cast<uint64_t>(value_us);
    unsigned slot = ThisThreadSlot();
    Shard* s = ShardFor(slot);
    SlotAdd(s->buckets[BucketFor(v)], uint64_t{1}, slot);
    SlotAdd(s->count, uint64_t{1}, slot);
    SlotAdd(s->sum, v, slot);
  }

  uint64_t count() const;

  double MeanUs() const;

  /// Latency (us) at the given quantile in [0,1].
  int64_t PercentileUs(double q) const;

  /// CDF sampled at the given latencies: fraction of recordings <= each.
  std::vector<double> CdfAt(const std::vector<int64_t>& latencies_us) const;

  /// Multi-line human-readable summary (p50/p90/p99/p999/max).
  std::string Summary() const;

  /// Adds every recording of `other` into this histogram (bucket-wise;
  /// exact, since both share the same bucket layout). Safe against
  /// concurrent Record() on either side, though a racing Record may or
  /// may not be included.
  void Merge(const Histogram& other);

  /// Zeroes every shard; exact only while no thread records.
  void Reset();

 private:
  // 64 powers of two x 16 sub-buckets.
  static constexpr int kSubBucketBits = 4;
  static constexpr int kNumBuckets = 64 << kSubBucketBits;

  struct alignas(64) Shard {
    std::atomic<uint64_t> buckets[kNumBuckets];
    std::atomic<uint64_t> count;
    std::atomic<uint64_t> sum;
  };

  /// Every shard folded into one bucket array. `count` is the bucket
  /// total, so quantile scans stay consistent with the buckets they walk
  /// even while recorders race the fold.
  struct Folded {
    std::vector<uint64_t> buckets;
    uint64_t count = 0;
    uint64_t sum = 0;
  };

  static int BucketFor(uint64_t v) {
    if (v < (1u << kSubBucketBits)) return static_cast<int>(v);
    int log2 = 63 - __builtin_clzll(v);
    int sub = static_cast<int>((v >> (log2 - kSubBucketBits)) &
                               ((1u << kSubBucketBits) - 1));
    int idx = ((log2 - kSubBucketBits + 1) << kSubBucketBits) + sub;
    return idx < kNumBuckets ? idx : kNumBuckets - 1;
  }

  /// Lower bound value represented by bucket `idx`.
  static uint64_t BucketLowerBound(int idx) {
    if (idx < (1 << kSubBucketBits)) return static_cast<uint64_t>(idx);
    int log2 = (idx >> kSubBucketBits) + kSubBucketBits - 1;
    int sub = idx & ((1 << kSubBucketBits) - 1);
    return (uint64_t{1} << log2) |
           (static_cast<uint64_t>(sub) << (log2 - kSubBucketBits));
  }

  Shard* ShardFor(unsigned slot) {
    Shard* s = shards_[slot].load(std::memory_order_acquire);
    return s != nullptr ? s : InstallShard(shards_[slot]);
  }
  Shard* InstallShard(std::atomic<Shard*>& slot);
  Folded Fold() const;

  std::atomic<Shard*> shards_[kThreadSlots + 1] = {};
};

}  // namespace calcdb

#endif  // CALCDB_UTIL_HISTOGRAM_H_
