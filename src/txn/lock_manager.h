#ifndef CALCDB_TXN_LOCK_MANAGER_H_
#define CALCDB_TXN_LOCK_MANAGER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "txn/procedure.h"
#include "util/latch.h"
#include "util/thread_annotations.h"

namespace calcdb {

/// Striped reader-writer lock table implementing a deadlock-free variant of
/// strict two-phase locking (paper §4: "In order to eliminate deadlock ...
/// we implemented a deadlock-free variant of strict two-phase locking").
///
/// Keys hash onto one flat array of reader-writer locks, whatever the
/// storage shard count. A transaction's full key set is resolved to
/// stripes up front, deduplicated (a stripe needed in both modes is taken
/// exclusive), sorted by stripe index, and acquired in that order — a
/// global acquisition order, so no deadlock is possible. All locks are
/// held until after the commit token is appended (strictness).
class LockManager {
 public:
  /// One resolved lock request.
  struct StripeLock {
    uint32_t stripe;
    bool exclusive;
    bool operator<(const StripeLock& o) const { return stripe < o.stripe; }
  };

  /// A transaction's resolved, ordered lock set.
  using LockSet = std::vector<StripeLock>;

  /// `num_stripes` is rounded up to a power of two, at least 64.
  explicit LockManager(size_t num_stripes = 1 << 16);

  LockManager(const LockManager&) = delete;
  LockManager& operator=(const LockManager&) = delete;

  /// Resolves key sets into a canonical, deduplicated, ordered lock set.
  LockSet Resolve(const KeySets& sets) const;

  /// Acquires every lock in `set` in order. Blocks until all are held.
  ///
  /// The stripes are indexed dynamically, which clang's thread-safety
  /// analysis cannot model; the race-hunt suite exercises these paths
  /// under TSan instead.
  void AcquireAll(const LockSet& set) CALCDB_NO_THREAD_SAFETY_ANALYSIS;

  /// Releases every lock in `set`.
  void ReleaseAll(const LockSet& set) CALCDB_NO_THREAD_SAFETY_ANALYSIS;

  size_t num_stripes() const { return mask_ + 1; }

 private:
  StripeLock ResolveKey(uint64_t key, bool exclusive) const;

  /// RWSpinLock is not movable, so the table is a plain array.
  std::unique_ptr<RWSpinLock[]> stripes_;
  size_t mask_;
};

}  // namespace calcdb

#endif  // CALCDB_TXN_LOCK_MANAGER_H_
