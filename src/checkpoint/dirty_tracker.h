#ifndef CALCDB_CHECKPOINT_DIRTY_TRACKER_H_
#define CALCDB_CHECKPOINT_DIRTY_TRACKER_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "storage/record.h"
#include "util/bitvec.h"

namespace calcdb {

class ShardedStore;

/// The double-buffered, per-shard dirty set every partial algorithm
/// shares (and IPP's ping-pong dirty bits): side `s` of shard `k` is a
/// bit vector over shard `k`'s own index space, the structure paper §2.3
/// settles on (EXPERIMENTS.md §2.3 has the measurement against a hash set
/// and a Bloom filter). Transactions mark one side while a capture
/// consumes the other, frozen, side; Side(...).ForEach enumerates it in
/// ascending index order.
///
/// pCALC picks the side itself (the parity of the VPoC count at
/// commit). The physical-point-of-consistency algorithms mark the
/// active() side and Flip() it while the system is drained.
///
/// Thread-safety: Mark/Test are safe concurrently. Clear, Carry and a
/// side's ForEach require that side to be frozen.
class DirtySet {
 public:
  explicit DirtySet(const ShardedStore& store);

  DirtySet(const DirtySet&) = delete;
  DirtySet& operator=(const DirtySet&) = delete;

  void Mark(uint32_t side, const Record& rec) {
    sides_[side][rec.shard].Set(rec.index);
  }
  bool Test(uint32_t side, const Record& rec) const {
    return sides_[side][rec.shard].Get(rec.index);
  }
  const AtomicBitVector& Side(uint32_t side, uint32_t shard) const {
    return sides_[side][shard];
  }
  /// Clears every shard's bits on `side`, which must be frozen.
  void Clear(uint32_t side);
  /// Ends a failed capture of the frozen `side`: marks each of its
  /// indexes below `limits[shard]` on the other side, so the next capture
  /// covers the writes this one failed to save, then clears `side`.
  /// Transactions may mark the other side meanwhile.
  void Carry(uint32_t side, const std::vector<uint32_t>& limits);

  /// The side transactions mark between flips.
  uint32_t active() const { return active_.load(std::memory_order_acquire); }
  void MarkActive(const Record& rec) { Mark(active(), rec); }
  /// Makes the other side active and returns the previous one, now
  /// frozen for the capture. Call only while no transaction can mark.
  uint32_t Flip() {
    uint32_t frozen = active();
    active_.store(1 - frozen, std::memory_order_release);
    return frozen;
  }

 private:
  std::vector<AtomicBitVector> sides_[2];
  std::atomic<uint32_t> active_{0};
};

}  // namespace calcdb

#endif  // CALCDB_CHECKPOINT_DIRTY_TRACKER_H_
