#include "storage/sharded_store.h"

#include <atomic>
#include <cstdlib>

namespace calcdb {

namespace {

// Per-shard capacity for a global bound of `max_records` over `n` shards:
// an even split plus headroom for multiplicative-hash skew (balls-in-bins
// stddev is ~sqrt(m/n), far under 12.5% at any realistic scale), so the
// global capacity contract never fails early on an unlucky shard.
uint64_t PerShardCapacity(uint64_t max_records, uint32_t n) {
  if (n <= 1) return max_records;
  uint64_t base = (max_records + n - 1) / n;
  return base + base / 8 + 64;
}

}  // namespace

ShardedStore::ShardedStore(uint64_t max_records, uint32_t num_shards,
                           ValuePool* pool)
    : max_records_(max_records), pool_(pool) {
  if (num_shards < 1) num_shards = 1;
  uint64_t per_shard = PerShardCapacity(max_records, num_shards);
  shards_.reserve(num_shards);
  for (uint32_t s = 0; s < num_shards; ++s) {
    shards_.emplace_back(new KVStore(per_shard, pool, s));
  }
}

uint32_t ShardedStore::ResolveShards(int configured) {
  if (configured > 0) return static_cast<uint32_t>(configured);
  const char* env = std::getenv("CALCDB_STORAGE_SHARDS");
  if (env != nullptr) {
    int v = std::atoi(env);
    if (v > 0) return static_cast<uint32_t>(v);
  }
  return 1;
}

Record* ShardedStore::FindOrCreate(uint64_t key) {
  KVStore* s = shards_[ShardOf(key)].get();
  if (shards_.size() == 1) return s->FindOrCreate(key);
  // Multi-shard: per-shard headroom makes the shard caps sum past
  // max_records, so re-impose the global bound on the create path only
  // (the common found-existing path stays one probe). The bound is
  // advisory under concurrent creates, exact single-threaded — the same
  // contract the single store's capacity check gives transactions.
  Record* rec = s->Find(key);
  if (rec != nullptr) return rec;
  if (TotalSlots() >= max_records_) return nullptr;
  return s->FindOrCreate(key);
}

void ShardedStore::Prefetch(const uint64_t* keys, size_t n) const {
  if (n > kMaxPrefetchKeys) n = kMaxPrefetchKeys;
  const std::atomic<Record*>* slots[kMaxPrefetchKeys];
  Record* heads[kMaxPrefetchKeys];
  for (size_t i = 0; i < n; ++i) {
    slots[i] = shards_[ShardOf(keys[i])]->BucketFor(keys[i]);
    __builtin_prefetch(slots[i]);
  }
  for (size_t i = 0; i < n; ++i) {
    heads[i] = slots[i]->load(std::memory_order_acquire);
    if (heads[i] != nullptr) {
      // A Record may straddle two lines; touch both ends.
      __builtin_prefetch(heads[i]);
      __builtin_prefetch(reinterpret_cast<const char*>(heads[i] + 1) - 1);
    }
  }
  for (size_t i = 0; i < n; ++i) {
    Record* rec = KVStore::FindInChain(heads[i], keys[i]);
    if (rec == nullptr) continue;
    const Value* v = rec->live;
    if (!Record::IsRealValue(v)) continue;
    __builtin_prefetch(v);
    __builtin_prefetch(reinterpret_cast<const char*>(v) + 64);
  }
}

uint64_t ShardedStore::TotalSlots() const {
  uint64_t n = 0;
  for (const auto& s : shards_) n += s->NumSlots();
  return n;
}

uint64_t ShardedStore::CountPresent() const {
  uint64_t n = 0;
  for (const auto& s : shards_) n += s->CountPresent();
  return n;
}

uint64_t ShardedStore::CountPresentSlow() const {
  uint64_t n = 0;
  for (const auto& s : shards_) n += s->CountPresentSlow();
  return n;
}

}  // namespace calcdb
