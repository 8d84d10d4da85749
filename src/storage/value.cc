#include "storage/value.h"

#include <cstdlib>
#include <new>

#include "obs/obs.h"
#include "storage/memory_tracker.h"
#include "util/thread_slot.h"

namespace calcdb {

Value* Value::Create(std::string_view data, ValuePool* pool) {
  size_t total = sizeof(Value) + data.size();
  void* block;
  uint32_t alloc_size;
  if (pool != nullptr) {
    block = pool->Allocate(total, &alloc_size);
  } else {
    block = std::malloc(total);
    alloc_size = static_cast<uint32_t>(total);
    MemoryTracker::Global().AddValueBytes(
        static_cast<int64_t>(alloc_size));
  }
  auto* v = new (block) Value();
  v->refs_.store(1, std::memory_order_relaxed);
  v->size_ = static_cast<uint32_t>(data.size());
  v->alloc_size_ = alloc_size;
  v->pool_ = pool;
  std::memcpy(reinterpret_cast<char*>(v) + sizeof(Value), data.data(),
              data.size());
  return v;
}

void Value::Unref(Value* v) {
  if (v == nullptr) return;
  // acq_rel is load-bearing (see the invariant comment in value.h): with a
  // plain `release` decrement the freeing thread would not synchronize
  // with other threads' final reads of the buffer, and with `relaxed` not
  // even this thread's reads would be ordered before a concurrent free.
  if (v->refs_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    ValuePool* pool = v->pool_;
    uint32_t alloc_size = v->alloc_size_;
    v->~Value();
    if (pool != nullptr) {
      pool->Release(v, alloc_size);
    } else {
      MemoryTracker::Global().AddValueBytes(
          -static_cast<int64_t>(alloc_size));
      std::free(v);
    }
  }
}

ValuePool::ValuePool() = default;

ValuePool::~ValuePool() {
  // Teardown is single-threaded, but latching keeps the GUARDED_BY
  // contract uniform (and is free without contention).
  for (auto& stripe : lists_) {
    for (FreeList& list : stripe) {
      SpinLatchGuard guard(list.latch);
      FreeNode* node = list.head;
      while (node != nullptr) {
        FreeNode* next = node->next;
        MemoryTracker::Global().AddPoolBytes(
            -static_cast<int64_t>(node->alloc_size));
        std::free(node);
        node = next;
      }
      list.head = nullptr;
      list.nonempty.store(false, std::memory_order_relaxed);
    }
  }
}

int ValuePool::ClassFor(size_t bytes) {
  size_t cls_bytes = kMinClassBytes;
  for (int cls = 0; cls < kNumClasses; ++cls) {
    if (bytes <= cls_bytes) return cls;
    cls_bytes <<= 1;
  }
  return -1;  // too large for the pool
}

ValuePool::FreeNode* ValuePool::TryPop(FreeList& list) {
  if (!list.nonempty.load(std::memory_order_relaxed)) return nullptr;
  SpinLatchGuard guard(list.latch);
  FreeNode* node = list.head;
  if (node == nullptr) return nullptr;
  list.head = node->next;
  list.nonempty.store(list.head != nullptr, std::memory_order_relaxed);
  return node;
}

void* ValuePool::Allocate(size_t bytes, uint32_t* alloc_size) {
  int cls = ClassFor(bytes);
  if (cls < 0) {
    // Oversized: fall back to malloc; accounted as value bytes directly.
    *alloc_size = static_cast<uint32_t>(bytes);
    MemoryTracker::Global().AddValueBytes(static_cast<int64_t>(bytes));
    return std::malloc(bytes);
  }
  *alloc_size = static_cast<uint32_t>(ClassBytes(cls));
  // Own stripe first, then steal round-robin from the others.
  const unsigned home = ThisThreadSlot() % kStripes;
  for (unsigned i = 0; i < kStripes; ++i) {
    FreeNode* node = TryPop(lists_[(home + i) % kStripes][cls]);
    if (node != nullptr) {
      // Block moves from parked (pool) to in-use (value) accounting.
      MemoryTracker::Global().AddPoolBytes(
          -static_cast<int64_t>(*alloc_size));
      MemoryTracker::Global().AddValueBytes(
          static_cast<int64_t>(*alloc_size));
      CALCDB_COUNTER_ADD("calcdb.storage.pool_hit", 1);
      return node;
    }
  }
  CALCDB_COUNTER_ADD("calcdb.storage.pool_miss", 1);
  MemoryTracker::Global().AddValueBytes(static_cast<int64_t>(*alloc_size));
  return std::malloc(*alloc_size);
}

void ValuePool::Release(void* block, uint32_t alloc_size) {
  int cls = ClassFor(alloc_size);
  if (cls < 0 || ClassBytes(cls) != alloc_size) {
    MemoryTracker::Global().AddValueBytes(
        -static_cast<int64_t>(alloc_size));
    std::free(block);
    return;
  }
  MemoryTracker::Global().AddValueBytes(-static_cast<int64_t>(alloc_size));
  MemoryTracker::Global().AddPoolBytes(static_cast<int64_t>(alloc_size));
  auto* node = static_cast<FreeNode*>(block);
  node->alloc_size = alloc_size;
  FreeList& list = lists_[ThisThreadSlot() % kStripes][cls];
  SpinLatchGuard guard(list.latch);
  node->next = list.head;
  list.head = node;
  list.nonempty.store(true, std::memory_order_relaxed);
}

size_t ValuePool::FreeBlocks() const {
  size_t n = 0;
  for (const auto& stripe : lists_) {
    for (const FreeList& list : stripe) {
      SpinLatchGuard guard(list.latch);
      for (FreeNode* node = list.head; node != nullptr; node = node->next) {
        ++n;
      }
    }
  }
  return n;
}

}  // namespace calcdb
