#ifndef CALCDB_STORAGE_MEMORY_TRACKER_H_
#define CALCDB_STORAGE_MEMORY_TRACKER_H_

#include <atomic>
#include <cstdint>

#include "util/thread_slot.h"

namespace calcdb {

/// Process-wide accounting of record-storage memory.
///
/// Reproduces the measurement behind the paper's Figure 6 ("Memory used for
/// record storage over time"): `value_bytes` counts every live Value buffer
/// (primary copies plus CALC stable versions, Zigzag second copies, IPP
/// odd/even copies and in-memory consistent snapshots), and `pool_bytes`
/// counts memory parked in the value pool's freelists (allocated from the
/// OS but not holding a record). The sum is the process's record-storage
/// footprint.
///
/// Every value allocation and free moves these counters, so they are kept
/// per thread: each thread adds into its own cache-line-aligned slot
/// (util/thread_slot.h) and the getters sum the slots. A slot may go
/// negative (a block allocated on one thread and freed on another); the
/// sums are exact.
class MemoryTracker {
 public:
  static MemoryTracker& Global() {
    static MemoryTracker tracker;
    return tracker;
  }

  void AddValueBytes(int64_t n) {
    unsigned slot = ThisThreadSlot();
    SlotAdd(slots_[slot].value_bytes, n, slot);
  }
  void AddPoolBytes(int64_t n) {
    unsigned slot = ThisThreadSlot();
    SlotAdd(slots_[slot].pool_bytes, n, slot);
  }

  int64_t value_bytes() const {
    int64_t n = 0;
    for (const Slot& s : slots_) {
      n += s.value_bytes.load(std::memory_order_relaxed);
    }
    return n;
  }
  int64_t pool_bytes() const {
    int64_t n = 0;
    for (const Slot& s : slots_) {
      n += s.pool_bytes.load(std::memory_order_relaxed);
    }
    return n;
  }
  int64_t total_bytes() const { return value_bytes() + pool_bytes(); }

  /// Resets every slot to zero (benchmark harness, between
  /// configurations; exact only while no thread allocates or frees).
  void Reset() {
    for (Slot& s : slots_) {
      s.value_bytes.store(0, std::memory_order_relaxed);
      s.pool_bytes.store(0, std::memory_order_relaxed);
    }
  }

 private:
  struct alignas(64) Slot {
    std::atomic<int64_t> value_bytes{0};
    std::atomic<int64_t> pool_bytes{0};
  };

  MemoryTracker() = default;

  Slot slots_[kThreadSlots + 1];
};

}  // namespace calcdb

#endif  // CALCDB_STORAGE_MEMORY_TRACKER_H_
