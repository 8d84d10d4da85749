#ifndef CALCDB_UTIL_THREAD_SLOT_H_
#define CALCDB_UTIL_THREAD_SLOT_H_

#include <atomic>
#include <cstdint>

namespace calcdb {

/// Per-thread slots for hot-path statistics (obs counters and
/// histograms, MemoryTracker) and the value pool's freelist stripes.
///
/// A thread claims the lowest free slot in [0, kThreadSlots) on its first
/// call and frees it when it exits, so live threads own distinct slots.
/// An owned slot has exactly one writer, which updates its cells with a
/// relaxed load and store (SlotAdd) instead of a locked read-modify-write:
/// on the commit path, an uncontended locked add still costs an order of
/// magnitude more than a plain add. Threads beyond kThreadSlots live at
/// once, and anything a thread records while it exits, share
/// kSharedSlot, whose cells are updated with fetch_add. Arrays indexed
/// by slot therefore hold kThreadSlots + 1 entries.
///
/// Readers sum the cells with relaxed loads. A slot handed from an
/// exited thread to a new one keeps its cells: the new owner continues
/// the sums (the release/acquire on the claim bitmap orders the two
/// owners' updates).
constexpr unsigned kThreadSlots = 16;
constexpr unsigned kSharedSlot = kThreadSlots;

namespace thread_slot_internal {

constexpr unsigned kUnclaimed = ~0u;

/// Bit i set: slot i is owned by a live thread.
inline std::atomic<uint32_t> g_claimed{0};

/// This thread's slot; kUnclaimed until its first ThisThreadSlot().
/// Trivially destructible, so it stays readable during thread exit.
inline thread_local unsigned t_slot = kUnclaimed;

/// Frees the owning thread's slot when the thread exits.
struct Releaser {
  ~Releaser() {
    unsigned slot = t_slot;
    t_slot = kSharedSlot;  // anything recorded from here on is shared
    if (slot < kThreadSlots) {
      g_claimed.fetch_and(~(uint32_t{1} << slot),
                          std::memory_order_release);
    }
  }
};

inline unsigned Claim() {
  static_assert(kThreadSlots < 32, "claim bitmap is 32 bits");
  constexpr uint32_t kAll = (uint32_t{1} << kThreadSlots) - 1;
  uint32_t claimed = g_claimed.load(std::memory_order_relaxed);
  for (;;) {
    uint32_t free_bits = ~claimed & kAll;
    if (free_bits == 0) {
      t_slot = kSharedSlot;
      return kSharedSlot;
    }
    unsigned slot = static_cast<unsigned>(__builtin_ctz(free_bits));
    uint32_t want = claimed | (uint32_t{1} << slot);
    if (g_claimed.compare_exchange_weak(claimed, want,
                                        std::memory_order_acquire,
                                        std::memory_order_relaxed)) {
      thread_local Releaser releaser;
      t_slot = slot;
      return slot;
    }
  }
}

}  // namespace thread_slot_internal

/// The calling thread's slot: in [0, kThreadSlots) while it owns one,
/// else kSharedSlot.
inline unsigned ThisThreadSlot() {
  unsigned slot = thread_slot_internal::t_slot;
  return slot != thread_slot_internal::kUnclaimed
             ? slot
             : thread_slot_internal::Claim();
}

/// Adds `n` to a per-slot cell from the thread that owns `slot`.
template <typename T>
inline void SlotAdd(std::atomic<T>& cell, T n, unsigned slot) {
  if (slot != kSharedSlot) {
    cell.store(cell.load(std::memory_order_relaxed) + n,
               std::memory_order_relaxed);
  } else {
    cell.fetch_add(n, std::memory_order_relaxed);
  }
}

}  // namespace calcdb

#endif  // CALCDB_UTIL_THREAD_SLOT_H_
