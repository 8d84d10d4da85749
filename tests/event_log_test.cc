// Structured event log, per-site rate limiting, and the engine health
// layer: the seqlock EventRing keeps the newest events under
// wraparound; EventSite folds suppressed events into the next admitted
// one; the CALCDB_EVENT-family macros feed the global ring (and compile
// away with observability off); HealthMonitor flags injected stalls and
// background failures; and CheckpointStorage::ReplaceCollapsed reports
// a failed unlink instead of dropping it.

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "checkpoint/ckpt_storage.h"
#include "gtest/gtest.h"
#include "obs/event_log.h"
#include "obs/health.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "tests/test_util.h"
#include "util/clock.h"
#include "util/status.h"

namespace calcdb {
namespace obs {
namespace {

using testing_util::TempDir;

/// Snapshot helper: true iff the global ring currently holds an event
/// with `name`.
bool GlobalRingHas(const char* name) {
  for (const Event& ev : EventLog::Global().ring().Snapshot()) {
    if (ev.name != nullptr && std::string(ev.name) == name) return true;
  }
  return false;
}

Event MakeEvent(const char* name, int64_t ts_us) {
  Event ev;
  ev.severity = Severity::kWarn;
  ev.name = name;
  ev.cat = "test";
  ev.ts_us = ts_us;
  ev.tid = 1;
  return ev;
}

TEST(EventRingTest, WraparoundKeepsNewestAndCountsDropped) {
  EventRing ring(16);
  ASSERT_EQ(ring.capacity(), 16u);
  for (int i = 0; i < 100; ++i) {
    ring.Emit(MakeEvent("ev", i));
  }
  EXPECT_EQ(ring.emitted(), 100u);
  EXPECT_EQ(ring.dropped(), 84u);
  std::vector<Event> events = ring.Snapshot();
  ASSERT_EQ(events.size(), 16u);
  // The ring holds exactly the 16 newest events, in timestamp order.
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].ts_us, static_cast<int64_t>(84 + i));
  }
  ring.Reset();
  EXPECT_EQ(ring.emitted(), 0u);
  EXPECT_TRUE(ring.Snapshot().empty());
}

TEST(EventRingTest, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(EventRing(1).capacity(), 2u);
  EXPECT_EQ(EventRing(3).capacity(), 4u);
  EXPECT_EQ(EventRing(16).capacity(), 16u);
  EXPECT_EQ(EventRing(17).capacity(), 32u);
}

TEST(EventRingTest, PayloadRoundTripsThroughSlot) {
  EventRing ring(4);
  Event ev = MakeEvent("roundtrip", 42);
  ev.severity = Severity::kError;
  ev.suppressed = 7;
  ev.n_fields = 2;
  ev.fields[0] = {"alpha", -3};
  ev.fields[1] = {"beta", 99};
  std::snprintf(ev.detail, sizeof(ev.detail), "%s", "/some/path");
  ring.Emit(ev);
  std::vector<Event> got = ring.Snapshot();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].severity, Severity::kError);
  EXPECT_STREQ(got[0].name, "roundtrip");
  EXPECT_EQ(got[0].ts_us, 42);
  EXPECT_EQ(got[0].suppressed, 7u);
  ASSERT_EQ(got[0].n_fields, 2);
  EXPECT_STREQ(got[0].fields[0].key, "alpha");
  EXPECT_EQ(got[0].fields[0].value, -3);
  EXPECT_STREQ(got[0].fields[1].key, "beta");
  EXPECT_EQ(got[0].fields[1].value, 99);
  EXPECT_STREQ(got[0].detail, "/some/path");
}

TEST(EventRingTest, ConcurrentEmitsWithRacingSnapshots) {
  EventRing ring(64);
  constexpr int kWriters = 4;
  constexpr int kPerWriter = 2000;
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      // Torn slots must be skipped, never surfaced: every snapshotted
      // event carries a valid name and a timestamp a writer produced.
      for (const Event& ev : ring.Snapshot()) {
        ASSERT_NE(ev.name, nullptr);
        ASSERT_GE(ev.ts_us, 0);
        ASSERT_LT(ev.ts_us, kWriters * kPerWriter);
      }
    }
  });
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (int i = 0; i < kPerWriter; ++i) {
        ring.Emit(MakeEvent("race", w * kPerWriter + i));
      }
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(ring.emitted(),
            static_cast<uint64_t>(kWriters) * kPerWriter);
}

TEST(EventSiteTest, BurstThenSuppressionThenRefillFoldsCounts) {
  // burst 2, refill 1/sec: admit 2 back to back, suppress the next 3,
  // then a refill one second later admits again and carries folded=3.
  EventSite site(/*burst=*/2, /*refill_per_sec=*/1);
  const int64_t t0 = 1'000'000;
  uint64_t folded = 0;
  EXPECT_TRUE(site.Admit(t0, &folded));
  EXPECT_EQ(folded, 0u);
  EXPECT_TRUE(site.Admit(t0, &folded));
  EXPECT_EQ(folded, 0u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(site.Admit(t0, &folded));
  }
  EXPECT_EQ(site.suppressed_total(), 3u);
  EXPECT_TRUE(site.Admit(t0 + 1'000'000, &folded));
  EXPECT_EQ(folded, 3u);
  // The folded count was handed over exactly once.
  EXPECT_FALSE(site.Admit(t0 + 1'000'000, &folded));
  EXPECT_TRUE(site.Admit(t0 + 2'000'000, &folded));
  EXPECT_EQ(folded, 1u);
  EXPECT_EQ(site.suppressed_total(), 4u);
}

TEST(EventSiteTest, RefillNeverExceedsBurst) {
  EventSite site(/*burst=*/2, /*refill_per_sec=*/1000);
  uint64_t folded = 0;
  const int64_t t0 = 1'000'000;
  EXPECT_TRUE(site.Admit(t0, &folded));
  EXPECT_TRUE(site.Admit(t0, &folded));
  // An hour of refill still caps the bucket at `burst` tokens.
  const int64_t t1 = t0 + 3'600'000'000LL;
  EXPECT_TRUE(site.Admit(t1, &folded));
  EXPECT_TRUE(site.Admit(t1, &folded));
  EXPECT_FALSE(site.Admit(t1, &folded));
}

TEST(EventToJsonTest, Golden) {
  Event ev;
  ev.severity = Severity::kWarn;
  ev.name = "ckpt.gc_unlink_failed";
  ev.cat = "ckpt";
  ev.ts_us = 123;
  ev.tid = 7;
  ev.suppressed = 2;
  ev.n_fields = 1;
  ev.fields[0] = {"errno", 2};
  std::snprintf(ev.detail, sizeof(ev.detail), "%s", "/tmp/\"x\"");
  EXPECT_EQ(EventLog::EventToJson(ev),
            "{\"ts_us\":123,\"severity\":\"WARN\","
            "\"name\":\"ckpt.gc_unlink_failed\",\"cat\":\"ckpt\","
            "\"tid\":7,\"suppressed\":2,\"fields\":{\"errno\":2},"
            "\"detail\":\"/tmp/\\\"x\\\"\"}");
}

TEST(EventLogTest, SinkAppendsOneJsonLinePerAdmittedEvent) {
  TempDir dir;
  std::string path = dir.path() + "/events.jsonl";
  EventLog& log = EventLog::Global();
  log.ResetForTest();
  log.SetSinkPath(path);
  log.Emit(Severity::kInfo, "test.sink_event", "test", nullptr,
           "first", {{"k", 1}});
  log.Emit(Severity::kWarn, "test.sink_event", "test", nullptr,
           "second", {});
  log.SetSinkPath("");
  log.Emit(Severity::kWarn, "test.after_close", "test", nullptr, "", {});
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char line[4096];
  std::vector<std::string> lines;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    lines.emplace_back(line);
  }
  std::fclose(f);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("\"test.sink_event\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"detail\":\"first\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"severity\":\"WARN\""), std::string::npos);
  // The post-close event still reached the ring, just not the file.
  EXPECT_TRUE(GlobalRingHas("test.after_close"));
  log.ResetForTest();
}

TEST(EventLogTest, SuppressedEmitOnlyBumpsCounters) {
  EventLog& log = EventLog::Global();
  log.ResetForTest();
  EventSite site(/*burst=*/1, /*refill_per_sec=*/0);
  log.Emit(Severity::kInfo, "test.limited", "test", &site, "", {});
  log.Emit(Severity::kInfo, "test.limited", "test", &site, "", {});
  log.Emit(Severity::kInfo, "test.limited", "test", &site, "", {});
  EXPECT_EQ(log.emitted(), 1u);
  EXPECT_EQ(log.suppressed(), 2u);
  EXPECT_EQ(site.suppressed_total(), 2u);
  log.ResetForTest();
}

TEST(EventLogTest, DisabledChannelEmitsNothing) {
  EventLog& log = EventLog::Global();
  log.ResetForTest();
  log.SetEnabled(false);
  log.Emit(Severity::kError, "test.disabled", "test", nullptr, "", {});
  EXPECT_EQ(log.emitted(), 0u);
  log.SetEnabled(true);
  log.ResetForTest();
}

TEST(EventLogTest, ExportJsonlDumpsRingOldestFirst) {
  TempDir dir;
  std::string path = dir.path() + "/dump.jsonl";
  EventLog& log = EventLog::Global();
  log.ResetForTest();
  log.Emit(Severity::kInfo, "test.dump_a", "test", nullptr, "", {});
  log.Emit(Severity::kWarn, "test.dump_b", "test", nullptr, "", {});
  ASSERT_TRUE(log.ExportJsonl(path));
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char line[4096];
  std::vector<std::string> lines;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    lines.emplace_back(line);
  }
  std::fclose(f);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("\"test.dump_a\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"test.dump_b\""), std::string::npos);
  log.ResetForTest();
}

#if CALCDB_OBS_ENABLED
TEST(EventMacroTest, MacrosFeedTheGlobalRingWithFields) {
  EventLog::Global().ResetForTest();
  CALCDB_WARN("test.macro_event", "test", "some detail",
              {"count", 5}, {"size", 7});
  ASSERT_TRUE(GlobalRingHas("test.macro_event"));
  std::vector<Event> events = EventLog::Global().ring().Snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].severity, Severity::kWarn);
  ASSERT_EQ(events[0].n_fields, 2);
  EXPECT_STREQ(events[0].fields[0].key, "count");
  EXPECT_EQ(events[0].fields[0].value, 5);
  EXPECT_STREQ(events[0].fields[1].key, "size");
  EXPECT_EQ(events[0].fields[1].value, 7);
  EXPECT_STREQ(events[0].detail, "some detail");
  EventLog::Global().ResetForTest();
}

TEST(EventMacroTest, PerSiteRateLimitFoldsRepeatedEvents) {
  EventLog::Global().ResetForTest();
  // One call site, hammered: the site's token bucket admits at most
  // burst + a sliver of refill, and folds the rest into `suppressed`.
  for (int i = 0; i < 200; ++i) {
    CALCDB_EVENT("test.hammered", "test", "", {"i", i});
  }
  uint64_t emitted = EventLog::Global().emitted();
  uint64_t suppressed = EventLog::Global().suppressed();
  EXPECT_GE(emitted, 1u);
  EXPECT_LE(emitted, EventLog::kDefaultBurst + 4);
  EXPECT_EQ(emitted + suppressed, 200u);
  EventLog::Global().ResetForTest();
}

TEST(EventMacroTest, EmptyKvListIsValid) {
  EventLog::Global().ResetForTest();
  CALCDB_ERROR("test.no_fields", "test", "detail only");
  std::vector<Event> events = EventLog::Global().ring().Snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].n_fields, 0);
  EXPECT_EQ(events[0].severity, Severity::kError);
  EventLog::Global().ResetForTest();
}
void EmitFromOneSite() { CALCDB_EVENT("test.one_site", "test", ""); }

// A macro site's bucket is a function-local static no test can name:
// ResetForTest must refill it, or a test that runs after another test
// drained a shared site (fault.injected, say) loses its events.
TEST(EventLogTest, ResetForTestRefillsMacroSites) {
  EventLog& log = EventLog::Global();
  log.ResetForTest();
  for (uint32_t i = 0; i < 2 * EventLog::kDefaultBurst; ++i) {
    EmitFromOneSite();
  }
  ASSERT_GT(log.suppressed(), 0u) << "burst was not exhausted";
  log.ResetForTest();
  EmitFromOneSite();
  EXPECT_EQ(log.emitted(), 1u);
  EXPECT_EQ(log.suppressed(), 0u);
  log.ResetForTest();
}
#else   // !CALCDB_OBS_ENABLED
TEST(EventMacroTest, MacrosCompileAwayWithObservabilityOff) {
  EventLog::Global().ResetForTest();
  CALCDB_EVENT("test.compiled_away", "test", "", {"k", 1});
  CALCDB_WARN("test.compiled_away", "test", "detail");
  CALCDB_ERROR("test.compiled_away", "test", "detail");
  EXPECT_EQ(EventLog::Global().emitted(), 0u);
  EXPECT_EQ(EventLog::Global().suppressed(), 0u);
}
#endif  // CALCDB_OBS_ENABLED

TEST(HealthReportTest, ToJsonGolden) {
  HealthReport report;
  report.healthy = false;
  report.background_ok = false;
  report.background_error = "IOError: \"disk\" gone";
  report.checkpoint_stalled = true;
  report.checkpoint_cycles = 4;
  report.since_last_cycle_us = 900;
  report.log_lag = 12;
  report.trace_dropped = 1;
  report.events_dropped = 2;
  report.events_suppressed = 3;
  EXPECT_EQ(report.ToJson(),
            "{\"healthy\":false,\"background_ok\":false,"
            "\"background_error\":\"IOError: \\\"disk\\\" gone\","
            "\"checkpoint_stalled\":true,\"checkpoint_cycles\":4,"
            "\"since_last_cycle_us\":900,\"log_lag\":12,"
            "\"trace_dropped\":1,\"events_dropped\":2,"
            "\"events_suppressed\":3}");
}

TEST(HealthMonitorTest, UnconfiguredMonitorIsHealthy) {
  HealthMonitor monitor;
  HealthReport report = monitor.Check();
  EXPECT_TRUE(report.healthy);
  EXPECT_TRUE(report.background_ok);
  EXPECT_FALSE(report.checkpoint_stalled);
  EXPECT_EQ(report.since_last_cycle_us, -1);
  EXPECT_EQ(report.log_lag, -1);
}

TEST(HealthMonitorTest, DetectsInjectedCheckpointStall) {
  EventLog::Global().ResetForTest();
  HealthMonitor monitor;
  uint64_t cycles = 1;
  HealthMonitor::Sources sources;
  sources.checkpoint_cycles = [&cycles] { return cycles; };
  sources.checkpoint_interval_us = 2000;  // 2ms period...
  sources.stall_multiplier = 1.0;         // ...stalled after 2ms quiet
  monitor.Configure(std::move(sources));
  EXPECT_FALSE(monitor.Check().checkpoint_stalled);
  // No cycle progress past the budget: stalled, and the stall is
  // announced as one WARN event.
  SleepMicros(10'000);
  HealthReport stalled = monitor.Check();
  EXPECT_TRUE(stalled.checkpoint_stalled);
  EXPECT_FALSE(stalled.healthy);
  EXPECT_GT(stalled.since_last_cycle_us, 2000);
#if CALCDB_OBS_ENABLED
  EXPECT_TRUE(GlobalRingHas("health.checkpoint_stall"));
  uint64_t after_first = EventLog::Global().emitted();
  SleepMicros(5'000);
  EXPECT_TRUE(monitor.Check().checkpoint_stalled);
  // Still stalled, but the episode was already reported: no new event.
  EXPECT_EQ(EventLog::Global().emitted(), after_first);
#endif
  // Progress clears the stall (and re-arms the one-shot report).
  ++cycles;
  HealthReport recovered = monitor.Check();
  EXPECT_FALSE(recovered.checkpoint_stalled);
  EXPECT_TRUE(recovered.healthy);
  EXPECT_EQ(recovered.checkpoint_cycles, 2u);
  EventLog::Global().ResetForTest();
}

TEST(HealthMonitorTest, BackgroundFailureTurnsReportRed) {
  EventLog::Global().ResetForTest();
  HealthMonitor monitor;
  Status background = Status::OK();
  HealthMonitor::Sources sources;
  sources.background_status = [&background] { return background; };
  monitor.Configure(std::move(sources));
  EXPECT_TRUE(monitor.Check().healthy);
  background = Status::IOError("injected flush failure");
  HealthReport report = monitor.Check();
  EXPECT_FALSE(report.healthy);
  EXPECT_FALSE(report.background_ok);
  EXPECT_NE(report.background_error.find("injected flush failure"),
            std::string::npos);
#if CALCDB_OBS_ENABLED
  EXPECT_TRUE(GlobalRingHas("health.background_failure"));
  uint64_t after_first = EventLog::Global().emitted();
  EXPECT_FALSE(monitor.Check().healthy);
  // The failure is latched and reported once, not per Check().
  EXPECT_EQ(EventLog::Global().emitted(), after_first);
#endif
  EventLog::Global().ResetForTest();
}

TEST(HealthMonitorTest, LogLagIsCommittedMinusPersisted) {
  HealthMonitor monitor;
  HealthMonitor::Sources sources;
  sources.committed_lsn = [] { return int64_t{120}; };
  sources.persisted_lsn = [] { return int64_t{100}; };
  monitor.Configure(std::move(sources));
  HealthReport report = monitor.Check();
  EXPECT_EQ(report.log_lag, 20);
  // Lag is informational: a busy-but-progressing log is not unhealthy.
  EXPECT_TRUE(report.healthy);
}

TEST(CheckpointStorageTest, ReplaceCollapsedReportsFailedUnlink) {
  EventLog::Global().ResetForTest();
  TempDir dir;
  CheckpointStorage storage(dir.path(), 0);
  ASSERT_TRUE(storage.Init().ok());
  // A retired checkpoint whose file is already gone: std::remove fails
  // with ENOENT, which must be *counted and announced*, not swallowed
  // (the merge itself still succeeds — the manifest defines the chain).
  CheckpointInfo stale;
  stale.id = 1;
  stale.type = CheckpointType::kFull;
  stale.path = dir.path() + "/ckpt_00000001.full";  // never created
  storage.Register(stale);
  CheckpointInfo merged;
  merged.id = 2;
  merged.type = CheckpointType::kFull;
  merged.path = storage.PathFor(2, CheckpointType::kFull);
#if CALCDB_OBS_ENABLED
  uint64_t before = MetricsRegistry::Global()
                        .GetCounter("calcdb.ckpt.gc_unlink_failed")
                        ->Sum();
#endif
  ASSERT_TRUE(storage.ReplaceCollapsed({1}, merged).ok());
  ASSERT_EQ(storage.List().size(), 1u);
  EXPECT_EQ(storage.List()[0].id, 2u);
#if CALCDB_OBS_ENABLED
  EXPECT_EQ(MetricsRegistry::Global()
                .GetCounter("calcdb.ckpt.gc_unlink_failed")
                ->Sum(),
            before + 1);
  bool found = false;
  for (const Event& ev : EventLog::Global().ring().Snapshot()) {
    if (ev.name != nullptr &&
        std::string(ev.name) == "ckpt.gc_unlink_failed") {
      found = true;
      EXPECT_EQ(ev.severity, Severity::kWarn);
      // The orphaned path rides on the event so an operator can clean
      // it up by hand.
      EXPECT_NE(std::string(ev.detail).find("ckpt_00000001.full"),
                std::string::npos);
    }
  }
  EXPECT_TRUE(found);
#endif
  EventLog::Global().ResetForTest();
}

}  // namespace
}  // namespace obs
}  // namespace calcdb
