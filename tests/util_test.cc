// Unit tests for the util layer: Status, clock, latches, bit vectors,
// RNG, histogram, CRC32.

#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "util/bitvec.h"
#include "util/clock.h"
#include "util/crc32.h"
#include "util/histogram.h"
#include "util/latch.h"
#include "util/rng.h"
#include "util/status.h"

namespace calcdb {
namespace {

TEST(StatusTest, OkByDefault) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, CodesAndMessages) {
  Status st = Status::NotFound("missing key");
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(st.IsNotFound());
  EXPECT_EQ(st.ToString(), "NotFound: missing key");
  EXPECT_TRUE(Status::Corruption().IsCorruption());
  EXPECT_TRUE(Status::InvalidArgument().IsInvalidArgument());
  EXPECT_TRUE(Status::IOError().IsIOError());
  EXPECT_TRUE(Status::NotSupported().IsNotSupported());
  EXPECT_TRUE(Status::Busy().IsBusy());
  EXPECT_TRUE(Status::Aborted().IsAborted());
}

TEST(StatusTest, ReturnNotOkMacro) {
  auto fails = []() -> Status {
    CALCDB_RETURN_NOT_OK(Status::IOError("boom"));
    return Status::OK();
  };
  EXPECT_TRUE(fails().IsIOError());
  auto passes = []() -> Status {
    CALCDB_RETURN_NOT_OK(Status::OK());
    return Status::NotFound();
  };
  EXPECT_TRUE(passes().IsNotFound());
}

TEST(ClockTest, Monotonic) {
  int64_t a = NowMicros();
  SleepMicros(1000);
  int64_t b = NowMicros();
  EXPECT_GE(b - a, 900);
}

TEST(ClockTest, Stopwatch) {
  Stopwatch sw;
  SleepMicros(2000);
  EXPECT_GE(sw.ElapsedMicros(), 1500);
  sw.Restart();
  EXPECT_LT(sw.ElapsedMicros(), 1500);
}

TEST(SpinLatchTest, MutualExclusion) {
  SpinLatch latch;
  int counter = 0;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 10000; ++i) {
        SpinLatchGuard guard(latch);
        ++counter;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter, 40000);
}

TEST(SpinLatchTest, TryLock) {
  SpinLatch latch;
  EXPECT_TRUE(latch.TryLock());
  EXPECT_FALSE(latch.TryLock());
  latch.Unlock();
  EXPECT_TRUE(latch.TryLock());
  latch.Unlock();
}

TEST(RWSpinLockTest, ReadersShareWritersExclude) {
  RWSpinLock lock;
  std::atomic<int> value{0};
  std::atomic<bool> torn{false};
  std::vector<std::thread> threads;
  // Writers bump the value by 2 under the write lock; readers must never
  // observe an odd intermediate.
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 5000; ++i) {
        lock.Lock();
        value.fetch_add(1, std::memory_order_relaxed);
        value.fetch_add(1, std::memory_order_relaxed);
        lock.Unlock();
      }
    });
  }
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 20000; ++i) {
        lock.LockShared();
        if (value.load(std::memory_order_relaxed) % 2 != 0) torn = true;
        lock.UnlockShared();
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_FALSE(torn.load());
  EXPECT_EQ(value.load(), 20000);
}

TEST(AtomicBitVectorTest, SetGetClear) {
  AtomicBitVector bits(200);
  EXPECT_EQ(bits.size(), 200u);
  for (size_t i = 0; i < 200; i += 3) bits.Set(i);
  for (size_t i = 0; i < 200; ++i) {
    EXPECT_EQ(bits.Get(i), i % 3 == 0) << i;
  }
  EXPECT_EQ(bits.Count(), 67u);
  bits.Clear(0);
  EXPECT_FALSE(bits.Get(0));
  bits.ClearAll();
  EXPECT_EQ(bits.Count(), 0u);
}

TEST(AtomicBitVectorTest, TestAndSet) {
  AtomicBitVector bits(64);
  EXPECT_FALSE(bits.TestAndSet(5));
  EXPECT_TRUE(bits.TestAndSet(5));
  EXPECT_TRUE(bits.Get(5));
}

TEST(AtomicBitVectorTest, ConcurrentSetsAllLand) {
  AtomicBitVector bits(4096);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&bits, t] {
      for (size_t i = static_cast<size_t>(t); i < 4096; i += 4) {
        bits.Set(i);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(bits.Count(), 4096u);
}

TEST(AtomicBitVectorTest, WordAccess) {
  AtomicBitVector bits(128);
  bits.Set(0);
  bits.Set(63);
  bits.Set(64);
  EXPECT_EQ(bits.Word(0), (uint64_t{1} << 63) | 1u);
  EXPECT_EQ(bits.Word(1), 1u);
  bits.SetWord(1, ~uint64_t{0});
  EXPECT_EQ(bits.Count(), 2u + 64u);
}

TEST(RngTest, DeterministicGivenSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
  Rng c(124);
  EXPECT_NE(a.Next(), c.Next());
}

TEST(RngTest, UniformInRange) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    uint64_t v = rng.UniformRange(10, 20);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 20u);
  }
}

TEST(RngTest, BernoulliRoughlyCalibrated) {
  Rng rng(9);
  int hits = 0;
  for (int i = 0; i < 100000; ++i) {
    if (rng.Bernoulli(0.1)) ++hits;
  }
  EXPECT_GT(hits, 8500);
  EXPECT_LT(hits, 11500);
}

TEST(ZipfTest, BoundedAndSkewed) {
  Rng rng(3);
  ZipfGenerator zipf(10000, 0.9);
  uint64_t head_hits = 0;
  for (int i = 0; i < 20000; ++i) {
    uint64_t v = zipf.Next(rng);
    ASSERT_LT(v, 10000u);
    if (v < 100) ++head_hits;
  }
  // With theta=0.9 the top 1% of keys should draw far more than 1% of
  // accesses.
  EXPECT_GT(head_hits, 20000 / 20);
}

TEST(HotSetChooserTest, WritesConfinedToHotSet) {
  Rng rng(4);
  HotSetChooser chooser(100000, 0.1);
  EXPECT_EQ(chooser.hot_size(), 10000u);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(chooser.NextWriteKey(rng), 10000u);
    EXPECT_LT(chooser.NextReadKey(rng), 100000u);
  }
}

TEST(HistogramTest, PercentilesOrdered) {
  Histogram h;
  for (int i = 1; i <= 1000; ++i) h.Record(i);
  EXPECT_EQ(h.count(), 1000u);
  int64_t p50 = h.PercentileUs(0.50);
  int64_t p99 = h.PercentileUs(0.99);
  EXPECT_LE(p50, p99);
  EXPECT_NEAR(static_cast<double>(p50), 500.0, 60.0);
  EXPECT_NEAR(static_cast<double>(p99), 990.0, 100.0);
}

TEST(HistogramTest, CdfMonotone) {
  Histogram h;
  for (int i = 0; i < 1000; ++i) h.Record(i);
  std::vector<double> cdf = h.CdfAt({10, 100, 500, 2000});
  EXPECT_LE(cdf[0], cdf[1]);
  EXPECT_LE(cdf[1], cdf[2]);
  EXPECT_LE(cdf[2], cdf[3]);
  EXPECT_NEAR(cdf[3], 1.0, 1e-9);
}

TEST(HistogramTest, MeanAndReset) {
  Histogram h;
  h.Record(100);
  h.Record(300);
  EXPECT_NEAR(h.MeanUs(), 200.0, 1e-9);
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.PercentileUs(0.5), 0);
}

TEST(HistogramTest, EmptyPercentilesAreZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.PercentileUs(0.0), 0);
  EXPECT_EQ(h.PercentileUs(0.5), 0);
  EXPECT_EQ(h.PercentileUs(1.0), 0);
  EXPECT_NEAR(h.MeanUs(), 0.0, 1e-9);
}

TEST(HistogramTest, SingleSampleDominatesEveryQuantile) {
  Histogram h;
  h.Record(750);
  EXPECT_EQ(h.count(), 1u);
  int64_t p0 = h.PercentileUs(0.0);
  int64_t p50 = h.PercentileUs(0.5);
  int64_t p100 = h.PercentileUs(1.0);
  EXPECT_EQ(p0, p50);
  EXPECT_EQ(p50, p100);
  // Log-bucket resolution: the reported value is the lower bound of the
  // sample's bucket (~4.6% relative error).
  EXPECT_NEAR(static_cast<double>(p50), 750.0, 750.0 * 0.05);
  EXPECT_NEAR(h.MeanUs(), 750.0, 1e-9);
}

TEST(HistogramTest, MergeOfDisjointRanges) {
  Histogram low, high;
  for (int i = 1; i <= 1000; ++i) low.Record(i);           // [1, 1000]
  for (int i = 100000; i < 101000; ++i) high.Record(i);    // [100k, 101k)
  low.Merge(high);
  EXPECT_EQ(low.count(), 2000u);
  // Each source histogram occupies one half of the merged distribution.
  EXPECT_LE(low.PercentileUs(0.25), 1100);
  EXPECT_GE(low.PercentileUs(0.75), 90000);
  EXPECT_NEAR(low.MeanUs(), (500.5 + 100499.5) / 2.0, 500.0);
  // The donor is unchanged.
  EXPECT_EQ(high.count(), 1000u);
  // Merging an empty histogram is a no-op.
  Histogram empty;
  uint64_t before = low.count();
  low.Merge(empty);
  EXPECT_EQ(low.count(), before);
}

// Recording is sharded per thread and folded at read time; every reader
// must see exactly what one histogram fed the same values on one thread
// sees. 20 threads live at once exceed kThreadSlots, so some of them
// share (and race to install) the overflow shard.
TEST(HistogramTest, ShardedRecordMatchesSingleThreadedOracle) {
  constexpr int kThreads = 20;
  static_assert(kThreads > static_cast<int>(kThreadSlots));
  constexpr int kPerThread = 5000;
  auto value_of = [](int t, int i) -> int64_t {
    return (static_cast<int64_t>(i) * 7919 +
            static_cast<int64_t>(t) * 104729) %
           250000;
  };
  Histogram sharded, oracle;
  std::atomic<int> started{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // The first Record claims this thread's slot; hold it until every
      // thread has one.
      sharded.Record(value_of(t, 0));
      started.fetch_add(1, std::memory_order_acq_rel);
      while (started.load(std::memory_order_acquire) < kThreads) {
        std::this_thread::yield();
      }
      for (int i = 1; i < kPerThread; ++i) sharded.Record(value_of(t, i));
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kPerThread; ++i) oracle.Record(value_of(t, i));
  }

  auto expect_same = [](const Histogram& a, const Histogram& b) {
    EXPECT_EQ(a.count(), b.count());
    EXPECT_EQ(a.MeanUs(), b.MeanUs());
    for (double q :
         {0.0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0}) {
      EXPECT_EQ(a.PercentileUs(q), b.PercentileUs(q)) << "q=" << q;
    }
    std::vector<int64_t> at = {0, 10, 1000, 50000, 200000, 1000000};
    EXPECT_EQ(a.CdfAt(at), b.CdfAt(at));
    EXPECT_EQ(a.Summary(), b.Summary());
  };
  EXPECT_EQ(sharded.count(), uint64_t{kThreads} * kPerThread);
  expect_same(sharded, oracle);

  // Merge folds every shard of the donor.
  Histogram merged_sharded, merged_oracle;
  merged_sharded.Record(42);
  merged_oracle.Record(42);
  merged_sharded.Merge(sharded);
  merged_oracle.Merge(oracle);
  expect_same(merged_sharded, merged_oracle);
  EXPECT_EQ(merged_sharded.count(), sharded.count() + 1);

  // Reset zeroes every shard; shards stay installed and keep recording.
  sharded.Reset();
  EXPECT_EQ(sharded.count(), 0u);
  EXPECT_EQ(sharded.PercentileUs(0.5), 0);
  EXPECT_EQ(sharded.MeanUs(), 0.0);
  Histogram fresh;
  threads.clear();
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) sharded.Record(value_of(t, i));
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < 4; ++t) {
    for (int i = 0; i < kPerThread; ++i) fresh.Record(value_of(t, i));
  }
  expect_same(sharded, fresh);
}

TEST(Crc32Test, KnownVector) {
  // CRC-32 of "123456789" is 0xCBF43926.
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
}

TEST(Crc32Test, SeedChaining) {
  const char* data = "hello world";
  uint32_t whole = Crc32(data, 11);
  uint32_t part = Crc32(data, 5);
  part = Crc32(data + 5, 6, part);
  EXPECT_EQ(whole, part);
}

TEST(Crc32Test, DetectsCorruption) {
  std::string data = "some checkpoint bytes";
  uint32_t crc = Crc32(data.data(), data.size());
  data[3] ^= 1;
  EXPECT_NE(Crc32(data.data(), data.size()), crc);
}

TEST(Crc32cTest, KnownVector) {
  // CRC-32C (Castagnoli) of "123456789" is 0xE3069283.
  EXPECT_EQ(Crc32c("123456789", 9), 0xE3069283u);
  EXPECT_EQ(Crc32cSoftware("123456789", 9), 0xE3069283u);
}

TEST(Crc32cTest, SeedChaining) {
  const char* data = "hello world";
  uint32_t whole = Crc32c(data, 11);
  uint32_t part = Crc32c(data, 5);
  part = Crc32c(data + 5, 6, part);
  EXPECT_EQ(whole, part);
  uint32_t sw = Crc32cSoftware(data, 5);
  sw = Crc32cSoftware(data + 5, 6, sw);
  EXPECT_EQ(whole, sw);
}

// The runtime CPU dispatch must be invisible: the hardware path (when
// this machine has one) and the portable slice-by-8 tables agree on
// every length class the 8-byte-stride kernel can see — empty input,
// sub-stride tails of 1..7 bytes, exact multiples, and buffers at odd
// alignments (entry fields in serialized blocks are unaligned).
TEST(Crc32cTest, HardwareMatchesSoftwareOnRandomBuffers) {
  Rng rng(20260808);
  const size_t lengths[] = {0,  1,  2,   3,   7,    8,    9,     15,
                            16, 17, 63,  64,  65,   255,  256,   257,
                            1000, 4096, 65536, 65543};
  for (size_t len : lengths) {
    std::vector<uint8_t> buf(len + 8);
    for (auto& b : buf) b = static_cast<uint8_t>(rng.Next());
    for (size_t align = 0; align < 8; align += 3) {
      uint32_t hw = Crc32c(buf.data() + align, len, 0x1234);
      uint32_t sw = Crc32cSoftware(buf.data() + align, len, 0x1234);
      EXPECT_EQ(hw, sw) << "len=" << len << " align=" << align;
    }
  }
}

TEST(Crc32cTest, PolynomialsDiffer) {
  // The two checksum kinds must never validate each other's files.
  const char* data = "0123456789abcdef";
  EXPECT_NE(Crc32(data, 16), Crc32c(data, 16));
  EXPECT_EQ(ChecksumRun(ChecksumKind::kCrc32, data, 16), Crc32(data, 16));
  EXPECT_EQ(ChecksumRun(ChecksumKind::kCrc32c, data, 16),
            Crc32c(data, 16));
}

}  // namespace
}  // namespace calcdb
