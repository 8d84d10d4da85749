#ifndef CALCDB_OBS_EVENT_LOG_H_
#define CALCDB_OBS_EVENT_LOG_H_

#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

#include "util/latch.h"
#include "util/thread_annotations.h"

namespace calcdb {
namespace obs {

/// Structured engine events: the third observability pillar next to
/// metrics (how much) and traces (how fast). An event is a discrete
/// "something notable happened" record — a background failure, a
/// rejected checkpoint, a leaked file — with a severity, a stable
/// dotted name, and a small key=value payload. Metrics aggregate these
/// away; traces drown them in hot-path spans; the event log keeps them
/// individually inspectable.
///
/// Severity policy (docs/OBSERVABILITY.md "Events & health"):
///   kInfo  — expected-but-notable state changes (throttle saturation,
///            recovery fallbacks that the contract absorbs).
///   kWarn  — degraded but running (leaked retired file, torn
///            checkpoint rejected, injected fault fired).
///   kError — a durability-bearing background path failed; the engine
///            keeps serving but BackgroundStatus()/GetHealth() is red.
enum class Severity : uint8_t { kInfo = 0, kWarn = 1, kError = 2 };

/// Stable display name: "INFO", "WARN", "ERROR".
const char* SeverityName(Severity severity);

/// One key=value payload field. `key` must be a string literal (or
/// otherwise immortal): the ring stores the pointer, not a copy.
struct EventKv {
  const char* key;
  int64_t value;
};

/// One structured event. `name` and `cat` must be immortal literals;
/// `detail` is copied (truncated to kDetailBytes - 1) so it may carry
/// dynamic strings like file paths.
struct Event {
  static constexpr int kMaxFields = 3;
  static constexpr size_t kDetailBytes = 104;

  Severity severity = Severity::kInfo;
  const char* name = nullptr;  // dotted, e.g. "ckpt.gc_unlink_failed"
  const char* cat = nullptr;   // subsystem, e.g. "ckpt"
  int64_t ts_us = 0;
  uint32_t tid = 0;
  /// Rate-limited sibling events folded into this one since the site
  /// last admitted an event.
  uint64_t suppressed = 0;
  int n_fields = 0;
  EventKv fields[kMaxFields] = {};
  char detail[kDetailBytes] = {};  // always NUL-terminated
};

/// A bounded MPSC ring of events — the TraceBuffer seqlock design
/// (obs/trace.h) with a wider slot: writers claim a ticket with one
/// relaxed fetch_add and publish with a per-slot seqlock; Snapshot()
/// drops slots that wrap mid-copy instead of returning torn data.
/// Every payload field is individually atomic (relaxed) purely so the
/// benign read/write race is defined behavior.
class EventRing {
 public:
  /// `capacity` is rounded up to a power of two, min 2. Events are
  /// rare (rate-limited cold paths), so the default is small.
  explicit EventRing(size_t capacity = kDefaultCapacity);
  EventRing(const EventRing&) = delete;
  EventRing& operator=(const EventRing&) = delete;
  ~EventRing();

  static constexpr size_t kDefaultCapacity = 1 << 10;

  void Emit(const Event& ev);

  /// Stable events, oldest first. Events overwritten mid-copy are
  /// skipped.
  std::vector<Event> Snapshot() const;

  /// Total events ever emitted into the ring.
  uint64_t emitted() const {
    return head_.load(std::memory_order_relaxed);
  }

  /// Events lost to ring wraparound.
  uint64_t dropped() const {
    uint64_t e = emitted();
    return e > capacity_ ? e - capacity_ : 0;
  }

  size_t capacity() const { return capacity_; }

  /// Forgets all events (test affordance; not linearizable against
  /// concurrent writers).
  void Reset();

 private:
  struct alignas(64) Slot {
    // Seqlock: 0 = never written, odd = write in progress,
    // even > 0 = stable generation.
    std::atomic<uint64_t> seq{0};
    std::atomic<uint8_t> severity{0};
    std::atomic<const char*> name{nullptr};
    std::atomic<const char*> cat{nullptr};
    std::atomic<int64_t> ts_us{0};
    std::atomic<uint32_t> tid{0};
    std::atomic<uint64_t> suppressed{0};
    std::atomic<int32_t> n_fields{0};
    std::atomic<const char*> keys[Event::kMaxFields] = {};
    std::atomic<int64_t> values[Event::kMaxFields] = {};
    std::atomic<char> detail[Event::kDetailBytes] = {};
  };

  size_t capacity_;  // power of two
  Slot* slots_;
  std::atomic<uint64_t> head_{0};
};

/// Per-site token bucket: at most `burst` events back to back, then
/// `refill_per_sec` per second sustained. The CALCDB_EVENT-family
/// macros keep one EventSite per call site in a function-local static,
/// so a chatty site throttles itself without silencing others; the
/// suppressed count is folded into the next admitted event so nothing
/// disappears without a trace.
///
/// Every live site is listed in a process-wide registry, so
/// EventLog::ResetForTest can refill the function-local statics that
/// no caller can reach by name.
class EventSite {
 public:
  EventSite(uint32_t burst, uint32_t refill_per_sec);
  ~EventSite();
  EventSite(const EventSite&) = delete;
  EventSite& operator=(const EventSite&) = delete;

  /// True iff this event may be emitted now. On admission, `*folded`
  /// receives the number of events this site suppressed since the
  /// previous admission (to be carried on the admitted event).
  bool Admit(int64_t now_us, uint64_t* folded);

  /// Total events this site has ever suppressed.
  uint64_t suppressed_total() const {
    return suppressed_total_.load(std::memory_order_relaxed);
  }

  /// Back to the never-touched state: a full burst, nothing folded.
  void Reset();

  /// Reset() on every live site (EventLog::ResetForTest).
  static void ResetAll();

 private:
  const uint32_t burst_;
  const uint32_t per_sec_;
  SpinLatch latch_;
  // Milli-tokens; negative last_refill_us_ marks "never refilled".
  int64_t tokens_milli_ CALCDB_GUARDED_BY(latch_) = -1;
  int64_t last_refill_us_ CALCDB_GUARDED_BY(latch_) = -1;
  uint64_t folded_ CALCDB_GUARDED_BY(latch_) = 0;
  std::atomic<uint64_t> suppressed_total_{0};
};

/// Process-global event channel: one EventRing plus an optional JSONL
/// sink and a rate-limited stderr mirror for WARN+. All engine event
/// points go through this (via the CALCDB_EVENT/CALCDB_WARN/
/// CALCDB_ERROR macros in obs/obs.h).
class EventLog {
 public:
  static EventLog& Global();

  /// Default per-site token bucket used by the macros.
  static constexpr uint32_t kDefaultBurst = 16;
  static constexpr uint32_t kDefaultRefillPerSec = 4;

  void SetEnabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }
  bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Streams every admitted event as one JSON line appended to `path`
  /// (Options::events_path / --events_out). Empty disables streaming;
  /// the ring keeps recording either way.
  void SetSinkPath(const std::string& path);
  std::string sink_path() const;

  /// WARN+ events are mirrored to stderr (rate-limited globally) so a
  /// degraded engine is visible without any sink configured. Tests
  /// that inject failures on purpose may turn the mirror off.
  void SetStderrMirror(bool on) {
    mirror_.store(on, std::memory_order_relaxed);
  }

  /// Emits one event. `site` (nullable) applies token-bucket rate
  /// limiting; a suppressed emit only bumps the suppression counters.
  void Emit(Severity severity, const char* name, const char* cat,
            EventSite* site, std::string_view detail,
            std::initializer_list<EventKv> fields);

  EventRing& ring() { return ring_; }

  /// Events admitted into the ring / suppressed by rate limiting /
  /// lost to ring wraparound — the accounting HealthMonitor reports.
  uint64_t emitted() const { return ring_.emitted(); }
  uint64_t suppressed() const {
    return suppressed_.load(std::memory_order_relaxed);
  }
  uint64_t dropped() const { return ring_.dropped(); }

  /// Writes the current ring contents as JSONL to `path` (one event
  /// object per line, oldest first). Returns false on I/O error.
  bool ExportJsonl(const std::string& path) const;

  /// Serializes one event as a single-line JSON object (the schema in
  /// tools/events_schema.json).
  static std::string EventToJson(const Event& ev);

  /// Clears the ring and counters, refills every EventSite, disables
  /// the sink (test affordance).
  void ResetForTest();

 private:
  EventLog();

  void AppendToSink(const Event& ev);
  void MirrorToStderr(const Event& ev);

  EventRing ring_;
  std::atomic<bool> enabled_{true};
  std::atomic<bool> mirror_{true};
  std::atomic<uint64_t> suppressed_{0};
  mutable SpinLatch sink_latch_;
  std::string sink_path_ CALCDB_GUARDED_BY(sink_latch_);
  EventSite stderr_site_;
};

}  // namespace obs
}  // namespace calcdb

#endif  // CALCDB_OBS_EVENT_LOG_H_
