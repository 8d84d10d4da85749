// Tests for the observability layer (src/obs/): sharded counters and
// the metrics registry under concurrent writers, trace-ring wraparound
// semantics, exporter golden output, and the stats reporter.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/stats_reporter.h"
#include "obs/trace.h"
#include "tests/test_util.h"
#include "util/clock.h"

namespace calcdb {
namespace obs {
namespace {

using testing_util::ScaledThreshold;

TEST(ShardedCounterTest, ConcurrentAddsSumExactly) {
  ShardedCounter counter;
  const int kThreads = 8;
  const uint64_t kPerThread = ScaledThreshold(100000, 1000);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter, kPerThread] {
      for (uint64_t i = 0; i < kPerThread; ++i) counter.Add(1);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(counter.Sum(), kThreads * kPerThread);
  counter.Reset();
  EXPECT_EQ(counter.Sum(), 0u);
  counter.Add(7);
  EXPECT_EQ(counter.Sum(), 7u);
}

TEST(MetricsRegistryTest, PointersAreStableAcrossLookupsAndReset) {
  MetricsRegistry registry;
  ShardedCounter* c1 = registry.GetCounter("calcdb.test.stable");
  ShardedCounter* c2 = registry.GetCounter("calcdb.test.stable");
  EXPECT_EQ(c1, c2);
  c1->Add(3);
  Gauge* g = registry.GetGauge("calcdb.test.gauge");
  Histogram* h = registry.GetHistogram("calcdb.test.hist");
  registry.ResetForTest();
  // Entries survive a reset (cached pointers stay valid), values don't.
  EXPECT_EQ(c1->Sum(), 0u);
  EXPECT_EQ(registry.GetCounter("calcdb.test.stable"), c1);
  EXPECT_EQ(registry.GetGauge("calcdb.test.gauge"), g);
  EXPECT_EQ(registry.GetHistogram("calcdb.test.hist"), h);
}

// The acceptance scenario: snapshots taken while writer threads hammer
// the instruments must be safe, and the post-join totals exact.
TEST(MetricsRegistryTest, SnapshotUnderConcurrentWriters) {
  MetricsRegistry registry;
  const int kThreads = 4;
  const uint64_t kPerThread = ScaledThreshold(50000, 1000);
  std::atomic<bool> stop{false};
  // Set once some writer has registered both metrics: before that a
  // snapshot is legitimately empty.
  std::atomic<bool> registered{false};
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&registry, &registered, kPerThread, t] {
      // Half the threads resolve names every time (exercising the
      // registry latch against snapshots), half cache the pointer
      // (the macro fast path).
      if (t % 2 == 0) {
        ShardedCounter* c = registry.GetCounter("calcdb.test.commits");
        Histogram* h = registry.GetHistogram("calcdb.test.lat_us");
        registered.store(true, std::memory_order_release);
        for (uint64_t i = 0; i < kPerThread; ++i) {
          c->Add(1);
          h->Record(static_cast<int64_t>(i % 1000));
        }
      } else {
        for (uint64_t i = 0; i < kPerThread; ++i) {
          registry.GetCounter("calcdb.test.commits")->Add(1);
          registry.GetHistogram("calcdb.test.lat_us")
              ->Record(static_cast<int64_t>(i % 1000));
          if (i == 0) registered.store(true, std::memory_order_release);
        }
      }
    });
  }
  std::thread snapshotter([&registry, &stop, &registered] {
    while (!registered.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    while (!stop.load(std::memory_order_relaxed)) {
      std::string text = registry.SnapshotText();
      std::string json = registry.SnapshotJson({{"phase", "test"}});
      EXPECT_NE(json.find("\"counters\""), std::string::npos);
      EXPECT_FALSE(text.empty());
    }
  });
  for (auto& th : writers) th.join();
  stop.store(true, std::memory_order_relaxed);
  snapshotter.join();
  EXPECT_EQ(registry.GetCounter("calcdb.test.commits")->Sum(),
            kThreads * kPerThread);
  EXPECT_EQ(registry.GetHistogram("calcdb.test.lat_us")->count(),
            kThreads * kPerThread);
}

TEST(MetricsRegistryTest, CallbackGaugesAppearInSnapshots) {
  MetricsRegistry registry;
  int64_t backing = 41;
  registry.RegisterCallbackGauge("calcdb.test.cb",
                                 [&backing] { return backing; });
  backing = 42;
  std::string json = registry.SnapshotJson();
  EXPECT_NE(json.find("\"calcdb.test.cb\":42"), std::string::npos);
  std::string text = registry.SnapshotText();
  EXPECT_NE(text.find("calcdb.test.cb: 42"), std::string::npos);
  // ResetForTest drops callbacks: the backing value's lifetime belongs
  // to the caller, and `backing` dies with this test.
  registry.ResetForTest();
  EXPECT_EQ(registry.SnapshotJson().find("calcdb.test.cb"),
            std::string::npos);
}

// Golden output: the exact serialization contract validated by
// tools/validate_metrics.py and consumed by docs/OBSERVABILITY.md
// examples. A local registry keeps the instrument set deterministic.
TEST(MetricsRegistryTest, SnapshotJsonGolden) {
  MetricsRegistry registry;
  registry.GetCounter("calcdb.test.a")->Add(3);
  registry.GetGauge("calcdb.test.b")->Set(-7);
  Histogram* h = registry.GetHistogram("calcdb.test.c_us");
  h->Record(100);
  h->Record(100);
  std::string json = registry.SnapshotJson({{"bench", "golden"}});
  // 100us falls exactly on a bucket lower bound, so every percentile
  // reports precisely 100 and the whole document is reproducible.
  EXPECT_EQ(json,
            "{\"meta\":{\"bench\":\"golden\"},"
            "\"counters\":{\"calcdb.test.a\":3},"
            "\"gauges\":{\"calcdb.test.b\":-7},"
            "\"histograms\":{\"calcdb.test.c_us\":{\"count\":2,"
            "\"mean_us\":100.000,\"p50_us\":100,\"p99_us\":100,"
            "\"p999_us\":100,\"max_us\":100}}}");
}

TEST(JsonEscapeTest, EscapesControlAndQuoteCharacters) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(JsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(JsonEscape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(JsonEscape(std::string("a\x01") + "b"), "a\\u0001b");
}

TEST(TraceBufferTest, WraparoundKeepsNewestAndCountsDropped) {
  TraceBuffer buffer(16);
  ASSERT_EQ(buffer.capacity(), 16u);
  for (int i = 0; i < 100; ++i) {
    TraceEvent ev;
    ev.name = "ev";
    ev.cat = "test";
    ev.ts_us = i;
    ev.dur_us = 1;
    ev.tid = 1;
    buffer.Emit(ev);
  }
  EXPECT_EQ(buffer.emitted(), 100u);
  EXPECT_EQ(buffer.dropped(), 84u);
  std::vector<TraceEvent> events = buffer.Snapshot();
  ASSERT_EQ(events.size(), 16u);
  // The ring holds exactly the 16 newest events, in timestamp order.
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].ts_us, static_cast<int64_t>(84 + i));
  }
  buffer.Reset();
  EXPECT_EQ(buffer.emitted(), 0u);
  EXPECT_TRUE(buffer.Snapshot().empty());
}

TEST(TraceBufferTest, ConcurrentEmitsWithRacingSnapshots) {
  TraceBuffer buffer(64);  // small: force heavy wrapping
  const int kThreads = 4;
  const uint64_t kPerThread = ScaledThreshold(20000, 1000);
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&buffer, kPerThread, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        TraceEvent ev;
        ev.name = "w";
        ev.cat = "test";
        ev.ts_us = static_cast<int64_t>(i);
        ev.tid = static_cast<uint32_t>(t);
        buffer.Emit(ev);
      }
    });
  }
  std::thread reader([&buffer, &stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      std::vector<TraceEvent> events = buffer.Snapshot();
      // A snapshot racing wrapping writers may drop slots but must
      // never return torn payloads.
      EXPECT_LE(events.size(), buffer.capacity());
      for (const TraceEvent& ev : events) {
        EXPECT_STREQ(ev.name, "w");
        EXPECT_STREQ(ev.cat, "test");
      }
    }
  });
  for (auto& th : writers) th.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();
  EXPECT_EQ(buffer.emitted(), kThreads * kPerThread);
  EXPECT_EQ(buffer.Snapshot().size(), buffer.capacity());
}

TEST(TraceBufferTest, ToJsonGolden) {
  std::vector<TraceEvent> events;
  TraceEvent span;
  span.name = "capture";
  span.cat = "ckpt";
  span.ts_us = 1000;
  span.dur_us = 250;
  span.arg = 42;
  span.tid = 3;
  span.ph = 'X';
  events.push_back(span);
  TraceEvent instant;
  instant.name = "kResolve";
  instant.cat = "phase_token";
  instant.ts_us = 1100;
  instant.arg = 7;
  instant.tid = 1;
  instant.ph = 'i';
  events.push_back(instant);
  EXPECT_EQ(TraceBuffer::ToJson(events),
            "{\"traceEvents\":["
            "{\"name\":\"capture\",\"cat\":\"ckpt\",\"ph\":\"X\","
            "\"ts\":1000,\"dur\":250,\"pid\":1,\"tid\":3,"
            "\"args\":{\"arg\":42}},"
            "{\"name\":\"kResolve\",\"cat\":\"phase_token\",\"ph\":\"i\","
            "\"ts\":1100,\"s\":\"g\",\"pid\":1,\"tid\":1,"
            "\"args\":{\"arg\":7}}"
            "]}");
  EXPECT_EQ(TraceBuffer::ToJson({}), "{\"traceEvents\":[]}");
}

TEST(TracerTest, DisableSuppressesEmissionAndSpansRecord) {
  Tracer& tracer = Tracer::Global();
  bool was_enabled = tracer.enabled();
  tracer.buffer().Reset();

  tracer.SetEnabled(false);
  tracer.EmitInstant("suppressed", "test");
  { TraceSpan span("suppressed_span", "test", 1); }
  EXPECT_EQ(tracer.buffer().emitted(), 0u);

  tracer.SetEnabled(true);
  int64_t before = NowMicros();
  { TraceSpan span("live_span", "test", 9); }
  tracer.EmitInstant("live_instant", "test", 2);
  std::vector<TraceEvent> events = tracer.buffer().Snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_STREQ(events[0].name, "live_span");
  EXPECT_EQ(events[0].ph, 'X');
  EXPECT_GE(events[0].ts_us, before);
  EXPECT_GE(events[0].dur_us, 0);
  EXPECT_EQ(events[0].arg, 9u);
  EXPECT_STREQ(events[1].name, "live_instant");
  EXPECT_EQ(events[1].ph, 'i');

  tracer.buffer().Reset();
  tracer.SetEnabled(was_enabled);
}

// The macro layer compiles to real instruments when CALCDB_OBS_ENABLED
// (the default); the OFF configuration is covered by the CALCDB_OBS=OFF
// CMake build, where these same macros expand to nothing.
#if CALCDB_OBS_ENABLED
TEST(ObsMacroTest, MacrosFeedTheGlobalRegistry) {
  MetricsRegistry::Global().ResetForTest();
  for (int i = 0; i < 5; ++i) {
    CALCDB_COUNTER_ADD("calcdb.test.macro_counter", 2);
  }
  CALCDB_GAUGE_SET("calcdb.test.macro_gauge", 13);
  CALCDB_HISTOGRAM_RECORD("calcdb.test.macro_hist_us", 100);
  EXPECT_EQ(MetricsRegistry::Global()
                .GetCounter("calcdb.test.macro_counter")
                ->Sum(),
            10u);
  EXPECT_EQ(
      MetricsRegistry::Global().GetGauge("calcdb.test.macro_gauge")->Get(),
      13);
  EXPECT_EQ(MetricsRegistry::Global()
                .GetHistogram("calcdb.test.macro_hist_us")
                ->count(),
            1u);
  MetricsRegistry::Global().ResetForTest();
}
#endif  // CALCDB_OBS_ENABLED

TEST(StatsReporterTest, PeriodicJsonLinesAreWritten) {
  testing_util::TempDir dir;
  std::string path = dir.path() + "/stats.jsonl";
  MetricsRegistry::Global().GetCounter("calcdb.test.reporter")->Add(1);
  StatsReporter reporter(/*period_ms=*/20, path);
  reporter.Start();
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  reporter.Stop();
  EXPECT_GE(reporter.snapshots_written(), 1u);
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char line[65536];
  size_t lines = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    ++lines;
    EXPECT_NE(std::string(line).find("\"calcdb.test.reporter\""),
              std::string::npos);
  }
  std::fclose(f);
  EXPECT_EQ(lines, reporter.snapshots_written());
}

}  // namespace
}  // namespace obs
}  // namespace calcdb
