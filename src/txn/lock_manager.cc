#include "txn/lock_manager.h"

#include <algorithm>

namespace calcdb {

namespace {
size_t NextPow2(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}
}  // namespace

LockManager::LockManager(size_t num_stripes) {
  size_t n = NextPow2(std::max<size_t>(num_stripes, 64));
  stripes_.reset(new RWSpinLock[n]);
  mask_ = n - 1;
}

LockManager::StripeLock LockManager::ResolveKey(uint64_t key,
                                                bool exclusive) const {
  uint64_t x = key * 0x9e3779b97f4a7c15ULL;
  x ^= x >> 29;
  return {static_cast<uint32_t>(x & mask_), exclusive};
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
    if (kept > 0 && out[kept - 1].stripe == out[i].stripe) {
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
      stripes_[sl.stripe].Lock();
    } else {
      stripes_[sl.stripe].LockShared();
    }
  }
}

void LockManager::ReleaseAll(const LockSet& set)
    CALCDB_NO_THREAD_SAFETY_ANALYSIS {
  for (const StripeLock& sl : set) {
    if (sl.exclusive) {
      stripes_[sl.stripe].Unlock();
    } else {
      stripes_[sl.stripe].UnlockShared();
    }
  }
}

}  // namespace calcdb
