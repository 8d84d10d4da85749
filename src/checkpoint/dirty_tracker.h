#ifndef CALCDB_CHECKPOINT_DIRTY_TRACKER_H_
#define CALCDB_CHECKPOINT_DIRTY_TRACKER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <unordered_set>
#include <vector>

#include "storage/record.h"
#include "util/bitvec.h"
#include "util/bloom.h"
#include "util/latch.h"

namespace calcdb {

/// The three dirty-key tracking structures the paper evaluates for partial
/// checkpoints (§2.3): a hash table of updated keys, a bit vector indexed
/// by record, and a Bloom filter. The paper settles on the bit vector
/// ("the additional work required by the other approaches were slightly
/// more costly than the performance savings from improved cache locality");
/// all three are kept behind this interface so that decision can be
/// re-measured (bench/micro_components) and any of them selected at run
/// time.
enum class DirtyTrackerKind {
  kBitVector = 0,
  kHashSet = 1,
  kBloom = 2,
};

/// Tracks the set of record indexes updated since a point in time.
///
/// Thread-safety: Mark/Test are safe concurrently. ForEach/Clear require
/// the set to be quiescent (pCALC only scans a side that is frozen — no
/// transaction can still mark into it).
///
/// Note on the Bloom variant: Test may return false positives, which is
/// benign for checkpointing — a clean record captured anyway carries its
/// (unchanged, hence still point-of-consistency-correct) value. False
/// negatives are impossible, so no dirty record is ever missed.
class DirtyKeyTracker {
 public:
  DirtyKeyTracker(DirtyTrackerKind kind, size_t capacity);

  DirtyKeyTracker(const DirtyKeyTracker&) = delete;
  DirtyKeyTracker& operator=(const DirtyKeyTracker&) = delete;

  DirtyTrackerKind kind() const { return kind_; }

  void Mark(uint32_t index);
  bool Test(uint32_t index) const;

  /// Invokes `fn` for every (possibly-)dirty index < `limit`, in
  /// ascending order. For the Bloom variant this scans [0, limit) and
  /// filters by MayContain. A template so capture scans inline `fn`.
  template <typename Fn>
  void ForEach(uint32_t limit, Fn&& fn) const {
    switch (kind_) {
      case DirtyTrackerKind::kBitVector: {
        size_t words = (static_cast<size_t>(limit) + 63) / 64;
        if (words > bits_->num_words()) words = bits_->num_words();
        for (size_t w = 0; w < words; ++w) {
          uint64_t bitsword = bits_->Word(w);
          while (bitsword != 0) {
            int bit = __builtin_ctzll(bitsword);
            bitsword &= bitsword - 1;
            uint32_t idx = static_cast<uint32_t>(w * 64 + bit);
            if (idx < limit) fn(idx);
          }
        }
        return;
      }
      case DirtyTrackerKind::kHashSet:
        for (uint32_t idx : SortedHashIndexes(limit)) fn(idx);
        return;
      case DirtyTrackerKind::kBloom:
        for (uint32_t idx = 0; idx < limit; ++idx) {
          if (bloom_->MayContain(idx)) fn(idx);
        }
        return;
    }
  }

  void Clear();

  /// Exact count for bit vector / hash set; upper bound (limit scan) not
  /// provided for Bloom — returns 0 for Bloom.
  size_t Count() const;

  /// Resident bytes of the structure itself (the paper's 0.25% argument).
  size_t MemoryBytes() const;

 private:
  static constexpr int kShards = 64;

  /// kHashSet: every marked index < `limit`, ascending.
  std::vector<uint32_t> SortedHashIndexes(uint32_t limit) const;

  DirtyTrackerKind kind_;
  size_t capacity_;

  // kBitVector
  std::unique_ptr<AtomicBitVector> bits_;

  // kHashSet (sharded by low bits of index)
  struct alignas(64) Shard {
    mutable SpinLatch latch;
    std::unordered_set<uint32_t> set;
  };
  std::unique_ptr<Shard[]> shards_;

  // kBloom
  std::unique_ptr<BloomFilter> bloom_;
};

class ShardedStore;

/// The double-buffered, per-shard dirty set every partial algorithm
/// shares (and IPP's ping-pong dirty bits): side `s` of shard `k` is a
/// DirtyKeyTracker over shard `k`'s own index space. Transactions mark
/// one side while a capture consumes the other, frozen, side.
///
/// pCALC picks the side itself (the parity of the VPoC count at
/// commit). The physical-point-of-consistency algorithms mark the
/// active() side and Flip() it while the system is drained.
class DirtySet {
 public:
  DirtySet(DirtyTrackerKind kind, const ShardedStore& store);

  DirtySet(const DirtySet&) = delete;
  DirtySet& operator=(const DirtySet&) = delete;

  void Mark(uint32_t side, const Record& rec) {
    sides_[side][rec.shard]->Mark(rec.index);
  }
  bool Test(uint32_t side, const Record& rec) const {
    return sides_[side][rec.shard]->Test(rec.index);
  }
  const DirtyKeyTracker& Side(uint32_t side, uint32_t shard) const {
    return *sides_[side][shard];
  }
  /// Clears every shard's tracker on `side`, which must be frozen.
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
  std::vector<std::unique_ptr<DirtyKeyTracker>> sides_[2];
  std::atomic<uint32_t> active_{0};
};

}  // namespace calcdb

#endif  // CALCDB_CHECKPOINT_DIRTY_TRACKER_H_
