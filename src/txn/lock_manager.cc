#include "txn/lock_manager.h"

#include <algorithm>

#include "storage/sharded_store.h"

namespace calcdb {

namespace {
size_t NextPow2(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}
}  // namespace

LockManager::LockManager(size_t num_stripes, uint32_t num_shards) {
  if (num_shards == 0) num_shards = 1;
  // Keep the total stripe count roughly constant as the shard count grows:
  // each shard gets its proportional slice (floored at 64 so tiny
  // configurations still spread contention).
  size_t per_shard = NextPow2(std::max<size_t>(num_stripes / num_shards, 64));
  stripes_per_shard_ = per_shard;
  mask_ = per_shard - 1;
  shards_.reserve(num_shards);
  for (uint32_t s = 0; s < num_shards; ++s) {
    shards_.emplace_back(new RWSpinLock[per_shard]);
  }
}

LockManager::StripeLock LockManager::ResolveKey(uint64_t key,
                                                bool exclusive) const {
  uint32_t shard = ShardedStore::ShardOfKey(
      key, static_cast<uint32_t>(shards_.size()));
  uint64_t x = key * 0x9e3779b97f4a7c15ULL;
  x ^= x >> 29;
  return {shard, static_cast<uint32_t>(x & mask_), exclusive};
}

LockManager::LockSet LockManager::Resolve(const KeySets& sets) const {
  LockSet out;
  out.reserve(sets.read_keys.size() + sets.write_keys.size());
  for (uint64_t k : sets.write_keys) {
    out.push_back(ResolveKey(k, true));
  }
  for (uint64_t k : sets.read_keys) {
    out.push_back(ResolveKey(k, false));
  }
  std::sort(out.begin(), out.end());
  // Deduplicate stripes in place; exclusive wins. Writes sort before
  // reads within a stripe only by construction order, so merge modes
  // explicitly.
  size_t kept = 0;
  for (size_t i = 0; i < out.size(); ++i) {
    if (kept > 0 && out[kept - 1].shard == out[i].shard &&
        out[kept - 1].stripe == out[i].stripe) {
      out[kept - 1].exclusive |= out[i].exclusive;
    } else {
      out[kept++] = out[i];
    }
  }
  out.resize(kept);
  return out;
}

void LockManager::AcquireAll(const LockSet& set)
    CALCDB_NO_THREAD_SAFETY_ANALYSIS {
  for (const StripeLock& sl : set) {
    if (sl.exclusive) {
      shards_[sl.shard][sl.stripe].Lock();
    } else {
      shards_[sl.shard][sl.stripe].LockShared();
    }
  }
}

void LockManager::ReleaseAll(const LockSet& set)
    CALCDB_NO_THREAD_SAFETY_ANALYSIS {
  for (const StripeLock& sl : set) {
    if (sl.exclusive) {
      shards_[sl.shard][sl.stripe].Unlock();
    } else {
      shards_[sl.shard][sl.stripe].UnlockShared();
    }
  }
}

}  // namespace calcdb
