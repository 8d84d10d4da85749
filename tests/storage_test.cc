// Unit tests for the storage engine: values, pool, memory tracking, the
// hash-table KV store, and throttled file IO.

#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "storage/kv_store.h"
#include "storage/memory_tracker.h"
#include "storage/value.h"
#include "tests/test_util.h"
#include "util/clock.h"
#include "util/throttled_file.h"

namespace calcdb {
namespace {

TEST(ValueTest, CreateAndRead) {
  Value* v = Value::Create("hello");
  EXPECT_EQ(v->data(), "hello");
  EXPECT_EQ(v->size(), 5u);
  EXPECT_EQ(v->refcount(), 1u);
  Value::Unref(v);
}

TEST(ValueTest, RefCounting) {
  Value* v = Value::Create("x");
  Value::Ref(v);
  EXPECT_EQ(v->refcount(), 2u);
  Value::Unref(v);
  EXPECT_EQ(v->refcount(), 1u);
  Value::Unref(v);
}

TEST(ValueTest, ValueRefSemantics) {
  Value* raw = Value::Create("abc");
  {
    ValueRef a = ValueRef::Adopt(raw);
    ValueRef b = a;  // share
    EXPECT_EQ(raw->refcount(), 2u);
    ValueRef c = std::move(b);
    EXPECT_EQ(raw->refcount(), 2u);
    EXPECT_EQ(c.data(), "abc");
  }
  // All refs dropped: no leak (checked by the memory tracker test below).
}

TEST(ValueTest, MemoryTrackerAccountsAllocations) {
  MemoryTracker::Global().Reset();
  Value* v = Value::Create(std::string(100, 'a'));
  EXPECT_GE(MemoryTracker::Global().value_bytes(), 100);
  Value::Unref(v);
  EXPECT_EQ(MemoryTracker::Global().value_bytes(), 0);
}

// The tracker keeps per-thread slots; the getters must sum them exactly,
// including when one thread gives back what another took (a block
// allocated on one worker and freed on another).
TEST(MemoryTrackerTest, PerThreadSlotsSumExactly) {
  MemoryTracker& mem = MemoryTracker::Global();
  mem.Reset();
  constexpr int kThreads = 4;
  constexpr int64_t kOps = 20000;
  auto run = [&](int sign, bool cross) {
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        // Thread t's amounts; on the cross pass thread t undoes thread
        // (t + 1)'s instead.
        int64_t who = cross ? (t + 1) % kThreads : t;
        for (int64_t i = 1; i <= kOps; ++i) {
          mem.AddValueBytes(sign * (i + who));
          mem.AddPoolBytes(sign * 2 * (i + who));
        }
      });
    }
    for (auto& th : threads) th.join();
  };
  run(+1, /*cross=*/false);
  int64_t expected = 0;
  for (int t = 0; t < kThreads; ++t) {
    expected += kOps * (kOps + 1) / 2 + kOps * t;
  }
  EXPECT_EQ(mem.value_bytes(), expected);
  EXPECT_EQ(mem.pool_bytes(), 2 * expected);
  EXPECT_EQ(mem.total_bytes(), 3 * expected);
  run(-1, /*cross=*/true);
  EXPECT_EQ(mem.value_bytes(), 0);
  EXPECT_EQ(mem.pool_bytes(), 0);

  // Reset zeroes every slot, not just the calling thread's.
  run(+1, /*cross=*/false);
  mem.Reset();
  EXPECT_EQ(mem.value_bytes(), 0);
  EXPECT_EQ(mem.pool_bytes(), 0);
}

// Blocks freed on one thread park on that thread's stripe; an allocation
// on another thread must still find them (the steal) rather than malloc.
TEST(ValuePoolTest, AllocateStealsBlocksFreedOnAnotherThread) {
  ValuePool pool;
  std::vector<Value*> values;
  for (int i = 0; i < 8; ++i) {
    values.push_back(Value::Create(std::string(100, 'x'), &pool));
  }
  std::thread([&] {
    for (Value* v : values) Value::Unref(v);
  }).join();
  EXPECT_EQ(pool.FreeBlocks(), 8u);
  values.clear();
  for (int i = 0; i < 8; ++i) {
    values.push_back(Value::Create(std::string(100, 'y'), &pool));
  }
  EXPECT_EQ(pool.FreeBlocks(), 0u);
  for (Value* v : values) Value::Unref(v);
  EXPECT_EQ(pool.FreeBlocks(), 8u);
}

TEST(ValuePoolTest, RecyclesBlocks) {
  MemoryTracker::Global().Reset();
  ValuePool pool;
  Value* v1 = Value::Create(std::string(80, 'x'), &pool);
  Value::Unref(v1);  // goes back to the pool
  EXPECT_EQ(pool.FreeBlocks(), 1u);
  EXPECT_GT(MemoryTracker::Global().pool_bytes(), 0);
  // 80 and 90 payload bytes land in the same size class (128..256 once
  // the Value header is added), so the block is recycled.
  Value* v2 = Value::Create(std::string(90, 'y'), &pool);
  EXPECT_EQ(pool.FreeBlocks(), 0u);
  EXPECT_EQ(v2->data(), std::string(90, 'y'));
  Value::Unref(v2);
}

TEST(ValuePoolTest, SizeClassesSeparate) {
  ValuePool pool;
  Value* small = Value::Create(std::string(10, 's'), &pool);
  Value* big = Value::Create(std::string(1000, 'b'), &pool);
  Value::Unref(small);
  Value::Unref(big);
  EXPECT_EQ(pool.FreeBlocks(), 2u);
}

TEST(ValuePoolTest, OversizedFallsBackToMalloc) {
  ValuePool pool;
  Value* huge = Value::Create(std::string(100000, 'h'), &pool);
  EXPECT_EQ(huge->data().size(), 100000u);
  Value::Unref(huge);
  EXPECT_EQ(pool.FreeBlocks(), 0u);  // not poolable
}

TEST(KVStoreTest, PutGetDelete) {
  KVStore store(1000);
  EXPECT_TRUE(store.Put(1, "one").ok());
  EXPECT_TRUE(store.Put(2, "two").ok());
  std::string value;
  EXPECT_TRUE(store.Get(1, &value).ok());
  EXPECT_EQ(value, "one");
  EXPECT_TRUE(store.Get(3, &value).IsNotFound());
  EXPECT_TRUE(store.Delete(1).ok());
  EXPECT_TRUE(store.Get(1, &value).IsNotFound());
  EXPECT_TRUE(store.Delete(1).IsNotFound());
  EXPECT_EQ(store.CountPresent(), 1u);
}

TEST(KVStoreTest, OverwriteKeepsSingleSlot) {
  KVStore store(1000);
  EXPECT_TRUE(store.Put(7, "a").ok());
  EXPECT_TRUE(store.Put(7, "b").ok());
  EXPECT_EQ(store.NumSlots(), 1u);
  std::string value;
  EXPECT_TRUE(store.Get(7, &value).ok());
  EXPECT_EQ(value, "b");
}

TEST(KVStoreTest, DenseIndexesAndByIndex) {
  KVStore store(1000);
  for (uint64_t k = 100; k < 110; ++k) {
    ASSERT_TRUE(store.Put(k, "v").ok());
  }
  EXPECT_EQ(store.NumSlots(), 10u);
  for (uint32_t i = 0; i < 10; ++i) {
    Record* rec = store.ByIndex(i);
    EXPECT_EQ(rec->index, i);
    EXPECT_GE(rec->key, 100u);
    EXPECT_LT(rec->key, 110u);
  }
}

TEST(KVStoreTest, CapacityEnforced) {
  KVStore store(4);
  for (uint64_t k = 0; k < 4; ++k) {
    EXPECT_TRUE(store.Put(k, "v").ok());
  }
  EXPECT_TRUE(store.Put(99, "v").IsBusy());
  // Overwrites of existing keys still work at capacity.
  EXPECT_TRUE(store.Put(0, "w").ok());
}

TEST(KVStoreTest, FindOrCreateIdempotent) {
  KVStore store(100);
  Record* a = store.FindOrCreate(42);
  Record* b = store.FindOrCreate(42);
  EXPECT_EQ(a, b);
  EXPECT_EQ(store.Find(42), a);
  EXPECT_EQ(store.Find(43), nullptr);
}

TEST(KVStoreTest, ConcurrentFindOrCreateYieldsOneSlotPerKey) {
  KVStore store(100000);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&store] {
      for (uint64_t k = 0; k < 5000; ++k) {
        ASSERT_NE(store.FindOrCreate(k), nullptr);
      }
    });
  }
  for (auto& t : threads) t.join();
  // Each key resolves to exactly one record; racing allocations may have
  // burned extra (dead) slots, but lookups must agree.
  for (uint64_t k = 0; k < 5000; ++k) {
    Record* rec = store.Find(k);
    ASSERT_NE(rec, nullptr);
    EXPECT_EQ(rec, store.FindOrCreate(k));
    EXPECT_EQ(rec->key, k);
  }
}

TEST(ThrottledFileTest, WriteReadRoundtrip) {
  testing_util::TempDir dir;
  std::string path = dir.path() + "/data";
  ThrottledFileWriter writer;
  ASSERT_TRUE(writer.Open(path, 0).ok());
  std::string payload(10000, 'z');
  ASSERT_TRUE(writer.Append(payload.data(), payload.size()).ok());
  ASSERT_TRUE(writer.Close().ok());
  EXPECT_EQ(writer.bytes_written(), 10000u);

  SequentialFileReader reader;
  ASSERT_TRUE(reader.Open(path).ok());
  std::string read_back(10000, '\0');
  ASSERT_TRUE(reader.ReadExact(read_back.data(), 10000).ok());
  EXPECT_EQ(read_back, payload);
  EXPECT_TRUE(reader.AtEof());
  ASSERT_TRUE(reader.Close().ok());
}

TEST(ThrottledFileTest, ShortReadFails) {
  testing_util::TempDir dir;
  std::string path = dir.path() + "/small";
  ThrottledFileWriter writer;
  ASSERT_TRUE(writer.Open(path, 0).ok());
  ASSERT_TRUE(writer.Append("abc", 3).ok());
  ASSERT_TRUE(writer.Close().ok());
  SequentialFileReader reader;
  ASSERT_TRUE(reader.Open(path).ok());
  char buf[10];
  EXPECT_TRUE(reader.ReadExact(buf, 10).IsIOError());
}

TEST(ThrottledFileTest, ThrottleCapsBandwidth) {
  testing_util::TempDir dir;
  std::string path = dir.path() + "/throttled";
  ThrottledFileWriter writer;
  // 1 MB/s cap; writing 300KB should take roughly 0.3s.
  ASSERT_TRUE(writer.Open(path, 1 << 20).ok());
  std::string chunk(1 << 15, 'c');
  Stopwatch sw;
  for (int i = 0; i < 10; ++i) {  // ~320KB total
    ASSERT_TRUE(writer.Append(chunk.data(), chunk.size()).ok());
  }
  double elapsed = sw.ElapsedSeconds();
  ASSERT_TRUE(writer.Close().ok());
  EXPECT_GT(elapsed, 0.15);  // must have been slowed down
  EXPECT_LT(elapsed, 3.0);
}

TEST(ThrottledFileTest, OpenFailsOnBadPath) {
  ThrottledFileWriter writer;
  EXPECT_TRUE(writer.Open("/nonexistent_dir_xyz/file", 0).IsIOError());
  SequentialFileReader reader;
  EXPECT_TRUE(reader.Open("/nonexistent_dir_xyz/file").IsIOError());
}

TEST(ThrottledFileTest, CoalescedAppendsChargeTokensOnce) {
  // Many sub-page appends get coalesced into staged drains; each payload
  // byte must be charged against the budget exactly once — not once per
  // Append *and* once per drain.
  testing_util::TempDir dir;
  std::string path = dir.path() + "/coalesced";
  auto budget = std::make_shared<TokenBucket>(uint64_t{1} << 30);
  ThrottledFileWriter writer;
  ASSERT_TRUE(writer.Open(path, budget).ok());
  std::string payload;
  auto append = [&](const std::string& piece) {
    ASSERT_TRUE(writer.Append(piece.data(), piece.size()).ok());
    payload += piece;
  };
  // Mixed sizes: tiny appends that coalesce, large appends landing on a
  // partly filled and on an empty stage (whole chunks bypass it), and an
  // odd tail; the bytes must come out in append order.
  for (int i = 0; i < 2000; ++i) {
    append(std::string(static_cast<size_t>(1 + (i % 37)), 'a' + i % 26));
  }
  std::string big(200 * 1024 + 13, '\0');
  for (size_t i = 0; i < big.size(); ++i) big[i] = static_cast<char>(i % 251);
  append(big);
  ASSERT_TRUE(writer.Flush().ok());
  append(std::string(128 * 1024 + 5, 'C'));
  append("tail");
  EXPECT_EQ(writer.bytes_written(), payload.size());
  ASSERT_TRUE(writer.Close().ok());
  EXPECT_EQ(budget->consumed(), payload.size());
  EXPECT_EQ(testing_util::FileSize(path), payload.size());
  SequentialFileReader reader;
  ASSERT_TRUE(reader.Open(path).ok());
  std::string read_back(payload.size(), '\0');
  ASSERT_TRUE(reader.ReadExact(read_back.data(), read_back.size()).ok());
  EXPECT_TRUE(read_back == payload);
}

}  // namespace
}  // namespace calcdb
