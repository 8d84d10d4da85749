#ifndef CALCDB_STORAGE_KV_STORE_H_
#define CALCDB_STORAGE_KV_STORE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "storage/record.h"
#include "storage/value.h"
#include "util/latch.h"
#include "util/status.h"

namespace calcdb {

/// The memory-resident hash-table storage engine (paper §4: "we implemented
/// a memory-resident key-value store with full transactional support" with
/// "the same hash-table-based storage engine ... used for CALC").
///
/// Keys are 64-bit; values arbitrary byte strings. Record slots are never
/// physically removed: deletion clears the live pointer (tombstone), so
/// record indexes stay dense and stable for the lifetime of the store —
/// the property the bit-vector structures rely on.
///
/// Capacity is bounded by `max_records` passed at construction; the bound
/// sizes every per-record bit vector in the checkpointers. Exceeding it
/// returns an error rather than resizing (in-place resize under concurrent
/// lock-free readers is out of scope, as in the paper's prototype).
class KVStore {
 public:
  /// `max_records`: hard cap on distinct keys ever inserted.
  /// `pool`: optional value pool for allocation recycling (may be null).
  /// `shard_id`: stamped into every allocated Record (storage/record.h),
  /// so layers holding a bare Record* can route back to the owning
  /// partition of a ShardedStore. 0 for a standalone store.
  explicit KVStore(uint64_t max_records, ValuePool* pool = nullptr,
                   uint32_t shard_id = 0);
  ~KVStore();

  KVStore(const KVStore&) = delete;
  KVStore& operator=(const KVStore&) = delete;

  /// Finds the record slot for `key`, or null if no slot exists yet. The
  /// returned record may still be a tombstone (live == nullptr).
  Record* Find(uint64_t key) const;

  /// Finds or creates the record slot for `key`. Returns null only if the
  /// store is at max_records capacity.
  Record* FindOrCreate(uint64_t key);

  /// The bucket-chain head slot `key` hashes to, and the chain walk that
  /// Find() runs from it: exposed so ShardedStore::Prefetch can stage a
  /// whole key list's lookups in overlapped rounds.
  const std::atomic<Record*>* BucketFor(uint64_t key) const {
    return &buckets_[HashKey(key) & bucket_mask_];
  }
  static Record* FindInChain(Record* head, uint64_t key) {
    while (head != nullptr && head->key != key) head = head->next;
    return head;
  }

  /// Record by dense index, in [0, NumSlots()).
  Record* ByIndex(uint32_t index) const;

  /// Number of record slots ever created (dense index upper bound).
  uint32_t NumSlots() const {
    return num_slots_.load(std::memory_order_acquire);
  }

  uint64_t max_records() const { return max_records_; }
  ValuePool* pool() const { return pool_; }
  uint32_t shard_id() const { return shard_id_; }

  /// Convenience non-transactional accessors (loading, tests, recovery).
  /// Not for use while worker threads are running.
  [[nodiscard]] Status Put(uint64_t key, std::string_view value);
  [[nodiscard]] Status Get(uint64_t key, std::string* value) const;
  [[nodiscard]] Status Delete(uint64_t key);

  /// Number of present (non-tombstone) records. O(1): a relaxed counter
  /// maintained at every absent<->present live-pointer transition (Put /
  /// Delete here, ReplaceLive for the transactional write paths). Racing
  /// writers may make the value momentarily stale, never drifting — the
  /// counter moves with the transition itself, under the record latch.
  uint64_t CountPresent() const {
    int64_t n = present_.load(std::memory_order_relaxed);
    return n > 0 ? static_cast<uint64_t>(n) : 0;
  }

  /// O(slots) scan oracle for CountPresent(), kept for tests that pin the
  /// counter against ground truth. Not for hot paths.
  uint64_t CountPresentSlow() const;

  /// The single mutation point for `rec.live` once a store is running:
  /// releases the old owned reference, installs `new_val` (ownership
  /// transfers; may be nullptr for a tombstone), and moves the present
  /// counter across absent<->present transitions. Caller holds rec.latch.
  void ReplaceLive(Record& rec, Value* new_val) {
    bool was = Record::IsRealValue(rec.live);
    bool now = Record::IsRealValue(new_val);
    if (Record::IsRealValue(rec.live)) Value::Unref(rec.live);
    rec.live = new_val;
    if (was != now) {
      present_.fetch_add(now ? 1 : -1, std::memory_order_relaxed);
    }
  }

 private:
  static constexpr size_t kChunkShift = 16;  // 64K records per arena chunk
  static constexpr size_t kChunkSize = size_t{1} << kChunkShift;

  static uint64_t HashKey(uint64_t key) {
    // Fibonacci-style mix; keys in workloads are often sequential.
    uint64_t x = key * 0x9e3779b97f4a7c15ULL;
    x ^= x >> 32;
    return x;
  }

  Record* AllocateRecord(uint64_t key);

  uint64_t max_records_;
  ValuePool* pool_;
  uint32_t shard_id_;
  size_t bucket_mask_;
  std::vector<std::atomic<Record*>> buckets_;
  std::atomic<int64_t> present_{0};

  // Arena of record slots, chunked so that Record* stay valid forever.
  mutable SpinLatch arena_latch_;
  std::vector<std::unique_ptr<Record[]>> chunks_;
  std::atomic<uint32_t> num_slots_{0};
};

}  // namespace calcdb

#endif  // CALCDB_STORAGE_KV_STORE_H_
