#ifndef CALCDB_STORAGE_VALUE_H_
#define CALCDB_STORAGE_VALUE_H_

#include <atomic>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "util/latch.h"
#include "util/thread_annotations.h"

namespace calcdb {

class ValuePool;

/// An immutable, atomically refcounted byte buffer.
///
/// Record versions (live and stable) are Values. Immutability is what lets
/// the asynchronous checkpoint thread read a version without locking: a
/// transaction never mutates a Value in place, it installs a freshly
/// allocated one under the record's micro-latch. "Copy the live version to
/// the stable version" (paper Figure 1) therefore becomes a pointer install
/// plus a refcount increment, with the same memory accounting as a physical
/// copy (the old buffer stays alive for as long as the stable version is
/// needed).
class Value {
 public:
  /// Allocates a Value holding a copy of `data`. If `pool` is non-null the
  /// buffer comes from the pool's size-class freelists (paper §5.1.6:
  /// "pre-allocates a pool of space for stable records").
  static Value* Create(std::string_view data, ValuePool* pool = nullptr);

  /// Increments the refcount.
  ///
  /// `relaxed` is sufficient: the caller already holds a reference (or the
  /// record micro-latch that protects the pointer it read `v` from), so
  /// the count cannot concurrently reach zero, and an increment publishes
  /// nothing that a later reader needs to observe.
  static Value* Ref(Value* v) {
    if (v != nullptr) v->refs_.fetch_add(1, std::memory_order_relaxed);
    return v;
  }

  /// Decrements the refcount and frees at zero.
  ///
  /// Ordering invariant (enforced by tools/lint_concurrency.py): the
  /// decrement must be `memory_order_acq_rel` or stronger. The release
  /// half makes this thread's reads of the buffer happen-before the
  /// decrement; the acquire half makes the freeing thread (the one that
  /// observes the count hit zero) synchronize with every earlier
  /// decrement, so no thread's reads of `data()` can overlap the free.
  static void Unref(Value* v);

  std::string_view data() const {
    return std::string_view(
        reinterpret_cast<const char*>(this) + sizeof(Value), size_);
  }
  uint32_t size() const { return size_; }
  uint32_t refcount() const {
    return refs_.load(std::memory_order_relaxed);
  }

 private:
  friend class ValuePool;

  Value() = default;

  std::atomic<uint32_t> refs_;
  uint32_t size_;
  uint32_t alloc_size_;  // size of the whole block, for pool recycling
  ValuePool* pool_;      // null if malloc'd
};

/// A freelist-based recycler for Value blocks, sharded into size classes
/// and per-thread stripes.
///
/// Avoids the allocate/free churn of stable-version installation during
/// checkpoints (paper §5.1.6). Blocks are never returned to the OS while
/// the pool lives; MemoryTracker::pool_bytes reports parked capacity, which
/// is why CALC's practical memory profile is flat at its peak requirement.
///
/// Each thread works on one stripe of per-class freelists (its
/// util/thread_slot.h slot modulo kStripes), each freelist on its own
/// cache line. Release pushes onto the caller's stripe; Allocate pops
/// from it and, when it is empty, steals from the other stripes before
/// falling back to malloc, so a block freed on one thread still serves an
/// allocation on another. Every freelist carries a relaxed non-empty hint
/// written under its latch: Allocate latches only freelists whose hint is
/// set, so a miss on an empty pool (the bulk-load path) costs a handful
/// of unlatched reads of lines nobody writes.
class ValuePool {
 public:
  ValuePool();
  ~ValuePool();

  ValuePool(const ValuePool&) = delete;
  ValuePool& operator=(const ValuePool&) = delete;

  /// Allocates a block of at least `bytes`; returns block and its size.
  void* Allocate(size_t bytes, uint32_t* alloc_size);

  /// Returns a block of `alloc_size` bytes to the caller's freelist.
  void Release(void* block, uint32_t alloc_size);

  /// Number of blocks currently parked across all stripes and classes.
  size_t FreeBlocks() const;

 private:
  struct FreeNode {
    FreeNode* next;
    uint32_t alloc_size;
  };
  struct alignas(64) FreeList {
    // Mutable so const traversals (FreeBlocks) can latch without casts.
    mutable SpinLatch latch;
    FreeNode* head CALCDB_GUARDED_BY(latch) = nullptr;
    /// head != nullptr as of the last latched update. A stale hint only
    /// costs a wasted latch or an avoidable malloc, never correctness.
    std::atomic<bool> nonempty{false};
  };

  static constexpr int kNumClasses = 9;  // 32, 64, 128, ... 8192 bytes
  static constexpr size_t kMinClassBytes = 32;
  static constexpr unsigned kStripes = 8;

  static int ClassFor(size_t bytes);
  static size_t ClassBytes(int cls) { return kMinClassBytes << cls; }
  /// Pops one block if the freelist's hint says it has any.
  static FreeNode* TryPop(FreeList& list);

  FreeList lists_[kStripes][kNumClasses];
};

/// RAII handle to a Value.
class ValueRef {
 public:
  ValueRef() : v_(nullptr) {}
  /// Takes ownership of one reference (does not increment).
  static ValueRef Adopt(Value* v) { return ValueRef(v); }
  /// Shares ownership (increments).
  static ValueRef Share(Value* v) { return ValueRef(Value::Ref(v)); }

  ValueRef(const ValueRef& o) : v_(Value::Ref(o.v_)) {}
  ValueRef(ValueRef&& o) noexcept : v_(o.v_) { o.v_ = nullptr; }
  ValueRef& operator=(const ValueRef& o) {
    if (this != &o) {
      Value::Unref(v_);
      v_ = Value::Ref(o.v_);
    }
    return *this;
  }
  ValueRef& operator=(ValueRef&& o) noexcept {
    if (this != &o) {
      Value::Unref(v_);
      v_ = o.v_;
      o.v_ = nullptr;
    }
    return *this;
  }
  ~ValueRef() { Value::Unref(v_); }

  Value* get() const { return v_; }
  Value* release() {
    Value* v = v_;
    v_ = nullptr;
    return v;
  }
  explicit operator bool() const { return v_ != nullptr; }
  std::string_view data() const { return v_->data(); }

 private:
  explicit ValueRef(Value* v) : v_(v) {}
  Value* v_;
};

}  // namespace calcdb

#endif  // CALCDB_STORAGE_VALUE_H_
