#include "util/histogram.h"

#include <atomic>
#include <cstdio>

namespace calcdb {

Histogram::~Histogram() {
  for (std::atomic<Shard*>& slot : shards_) {
    delete slot.load(std::memory_order_acquire);
  }
}

Histogram::Shard* Histogram::InstallShard(std::atomic<Shard*>& slot) {
  Shard* fresh = new Shard();
  Shard* expected = nullptr;
  if (slot.compare_exchange_strong(expected, fresh,
                                   std::memory_order_acq_rel,
                                   std::memory_order_acquire)) {
    return fresh;
  }
  // Another thread on the shared slot installed it first.
  delete fresh;
  return expected;
}

Histogram::Folded Histogram::Fold() const {
  Folded f;
  f.buckets.assign(kNumBuckets, 0);
  for (const std::atomic<Shard*>& slot : shards_) {
    const Shard* s = slot.load(std::memory_order_acquire);
    if (s == nullptr) continue;
    for (int i = 0; i < kNumBuckets; ++i) {
      uint64_t n = s->buckets[i].load(std::memory_order_relaxed);
      f.buckets[static_cast<size_t>(i)] += n;
      f.count += n;
    }
    f.sum += s->sum.load(std::memory_order_relaxed);
  }
  return f;
}

uint64_t Histogram::count() const {
  uint64_t n = 0;
  for (const std::atomic<Shard*>& slot : shards_) {
    const Shard* s = slot.load(std::memory_order_acquire);
    if (s != nullptr) n += s->count.load(std::memory_order_relaxed);
  }
  return n;
}

double Histogram::MeanUs() const {
  uint64_t n = 0, sum = 0;
  for (const std::atomic<Shard*>& slot : shards_) {
    const Shard* s = slot.load(std::memory_order_acquire);
    if (s == nullptr) continue;
    n += s->count.load(std::memory_order_relaxed);
    sum += s->sum.load(std::memory_order_relaxed);
  }
  return n == 0 ? 0.0
                : static_cast<double>(sum) / static_cast<double>(n);
}

void Histogram::Merge(const Histogram& other) {
  Folded f = other.Fold();
  unsigned slot = ThisThreadSlot();
  Shard* s = ShardFor(slot);
  for (int i = 0; i < kNumBuckets; ++i) {
    uint64_t n = f.buckets[static_cast<size_t>(i)];
    if (n != 0) SlotAdd(s->buckets[i], n, slot);
  }
  SlotAdd(s->count, f.count, slot);
  SlotAdd(s->sum, f.sum, slot);
}

void Histogram::Reset() {
  for (std::atomic<Shard*>& slot : shards_) {
    Shard* s = slot.load(std::memory_order_acquire);
    if (s == nullptr) continue;
    for (auto& b : s->buckets) b.store(0, std::memory_order_relaxed);
    s->count.store(0, std::memory_order_relaxed);
    s->sum.store(0, std::memory_order_relaxed);
  }
}

int64_t Histogram::PercentileUs(double q) const {
  Folded f = Fold();
  if (f.count == 0) return 0;
  if (q < 0) q = 0;
  if (q > 1) q = 1;
  uint64_t target = static_cast<uint64_t>(q * static_cast<double>(f.count));
  if (target == 0) target = 1;
  uint64_t seen = 0;
  for (int i = 0; i < kNumBuckets; ++i) {
    seen += f.buckets[static_cast<size_t>(i)];
    if (seen >= target) return static_cast<int64_t>(BucketLowerBound(i));
  }
  return static_cast<int64_t>(BucketLowerBound(kNumBuckets - 1));
}

std::vector<double> Histogram::CdfAt(
    const std::vector<int64_t>& latencies_us) const {
  std::vector<double> out;
  out.reserve(latencies_us.size());
  Folded f = Fold();
  if (f.count == 0) {
    out.assign(latencies_us.size(), 0.0);
    return out;
  }
  for (int64_t lat : latencies_us) {
    uint64_t seen = 0;
    for (int i = 0; i < kNumBuckets; ++i) {
      if (BucketLowerBound(i) > static_cast<uint64_t>(lat)) break;
      seen += f.buckets[static_cast<size_t>(i)];
    }
    out.push_back(static_cast<double>(seen) / static_cast<double>(f.count));
  }
  return out;
}

std::string Histogram::Summary() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "count=%llu mean=%.1fus p50=%lldus p90=%lldus p99=%lldus "
                "p999=%lldus p100=%lldus",
                static_cast<unsigned long long>(count()), MeanUs(),
                static_cast<long long>(PercentileUs(0.50)),
                static_cast<long long>(PercentileUs(0.90)),
                static_cast<long long>(PercentileUs(0.99)),
                static_cast<long long>(PercentileUs(0.999)),
                static_cast<long long>(PercentileUs(1.0)));
  return buf;
}

}  // namespace calcdb
