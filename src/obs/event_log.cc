#include "obs/event_log.h"

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <cstring>

#include "obs/metrics.h"
#include "util/clock.h"

namespace calcdb {
namespace obs {

namespace {

// Same scheme as Tracer::CurrentTid: small dense ids assigned in first-
// emit order, stable per thread.
uint32_t CurrentTid() {
  static std::atomic<uint32_t> next_tid{1};
  thread_local uint32_t tid =
      next_tid.fetch_add(1, std::memory_order_relaxed);
  return tid;
}

}  // namespace

const char* SeverityName(Severity severity) {
  switch (severity) {
    case Severity::kInfo:
      return "INFO";
    case Severity::kWarn:
      return "WARN";
    case Severity::kError:
      return "ERROR";
  }
  return "INFO";
}

EventRing::EventRing(size_t capacity) {
  size_t cap = 2;
  while (cap < capacity) cap <<= 1;
  capacity_ = cap;
  slots_ = new Slot[capacity_];
}

EventRing::~EventRing() { delete[] slots_; }

void EventRing::Emit(const Event& ev) {
  uint64_t ticket = head_.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = slots_[ticket & (capacity_ - 1)];
  // Seqlock write: odd marks the slot in flux; the final even value
  // encodes the ticket generation so a reader can tell a stable slot
  // from one that wrapped underneath it. Release on both stores pairs
  // with the reader's acquire loads.
  slot.seq.store(2 * ticket + 1, std::memory_order_release);
  slot.severity.store(static_cast<uint8_t>(ev.severity),
                      std::memory_order_relaxed);
  slot.name.store(ev.name, std::memory_order_relaxed);
  slot.cat.store(ev.cat, std::memory_order_relaxed);
  slot.ts_us.store(ev.ts_us, std::memory_order_relaxed);
  slot.tid.store(ev.tid, std::memory_order_relaxed);
  slot.suppressed.store(ev.suppressed, std::memory_order_relaxed);
  int n = std::min(ev.n_fields, Event::kMaxFields);
  slot.n_fields.store(n, std::memory_order_relaxed);
  for (int i = 0; i < n; ++i) {
    slot.keys[i].store(ev.fields[i].key, std::memory_order_relaxed);
    slot.values[i].store(ev.fields[i].value, std::memory_order_relaxed);
  }
  for (size_t i = 0; i < Event::kDetailBytes; ++i) {
    slot.detail[i].store(ev.detail[i], std::memory_order_relaxed);
    if (ev.detail[i] == '\0') break;
  }
  slot.seq.store(2 * ticket + 2, std::memory_order_release);
}

std::vector<Event> EventRing::Snapshot() const {
  std::vector<Event> out;
  out.reserve(capacity_);
  for (size_t i = 0; i < capacity_; ++i) {
    const Slot& slot = slots_[i];
    uint64_t s1 = slot.seq.load(std::memory_order_acquire);
    if (s1 == 0 || (s1 & 1) != 0) continue;  // empty or mid-write
    Event ev;
    ev.severity =
        static_cast<Severity>(slot.severity.load(std::memory_order_relaxed));
    ev.name = slot.name.load(std::memory_order_relaxed);
    ev.cat = slot.cat.load(std::memory_order_relaxed);
    ev.ts_us = slot.ts_us.load(std::memory_order_relaxed);
    ev.tid = slot.tid.load(std::memory_order_relaxed);
    ev.suppressed = slot.suppressed.load(std::memory_order_relaxed);
    int n = slot.n_fields.load(std::memory_order_relaxed);
    ev.n_fields = std::clamp(n, 0, Event::kMaxFields);
    for (int f = 0; f < ev.n_fields; ++f) {
      ev.fields[f].key = slot.keys[f].load(std::memory_order_relaxed);
      ev.fields[f].value = slot.values[f].load(std::memory_order_relaxed);
    }
    for (size_t b = 0; b < Event::kDetailBytes; ++b) {
      ev.detail[b] = slot.detail[b].load(std::memory_order_relaxed);
      if (ev.detail[b] == '\0') break;
    }
    ev.detail[Event::kDetailBytes - 1] = '\0';
    uint64_t s2 = slot.seq.load(std::memory_order_acquire);
    if (s1 != s2 || ev.name == nullptr) continue;  // wrapped mid-copy
    out.push_back(ev);
  }
  std::sort(out.begin(), out.end(), [](const Event& a, const Event& b) {
    return a.ts_us < b.ts_us;
  });
  return out;
}

void EventRing::Reset() {
  for (size_t i = 0; i < capacity_; ++i) {
    slots_[i].name.store(nullptr, std::memory_order_relaxed);
    slots_[i].seq.store(0, std::memory_order_release);
  }
  head_.store(0, std::memory_order_relaxed);
}

namespace {

struct SiteRegistry {
  SpinLatch latch;
  std::vector<EventSite*> sites CALCDB_GUARDED_BY(latch);
};

SiteRegistry& Sites() {
  // Leaked: sites in other translation units' statics may unregister
  // during exit after this one would have been destroyed.
  static SiteRegistry* registry = new SiteRegistry();
  return *registry;
}

}  // namespace

EventSite::EventSite(uint32_t burst, uint32_t refill_per_sec)
    : burst_(burst > 0 ? burst : 1), per_sec_(refill_per_sec) {
  SiteRegistry& registry = Sites();
  SpinLatchGuard guard(registry.latch);
  registry.sites.push_back(this);
}

EventSite::~EventSite() {
  SiteRegistry& registry = Sites();
  SpinLatchGuard guard(registry.latch);
  std::vector<EventSite*>& sites = registry.sites;
  sites.erase(std::find(sites.begin(), sites.end(), this));
}

void EventSite::Reset() {
  SpinLatchGuard guard(latch_);
  tokens_milli_ = -1;
  last_refill_us_ = -1;
  folded_ = 0;
  suppressed_total_.store(0, std::memory_order_relaxed);
}

void EventSite::ResetAll() {
  SiteRegistry& registry = Sites();
  SpinLatchGuard guard(registry.latch);
  for (EventSite* site : registry.sites) site->Reset();
}

bool EventSite::Admit(int64_t now_us, uint64_t* folded) {
  SpinLatchGuard guard(latch_);
  if (last_refill_us_ < 0) {
    // First touch: a full burst of tokens.
    tokens_milli_ = static_cast<int64_t>(burst_) * 1000;
    last_refill_us_ = now_us;
  } else if (now_us > last_refill_us_ && per_sec_ > 0) {
    // refill = elapsed_us * per_sec tokens/s = elapsed_us*per_sec/1000
    // milli-tokens (1s * 1/s = 1000 milli-tokens).
    int64_t elapsed_us = now_us - last_refill_us_;
    tokens_milli_ += elapsed_us * static_cast<int64_t>(per_sec_) / 1000;
    int64_t cap = static_cast<int64_t>(burst_) * 1000;
    if (tokens_milli_ > cap) tokens_milli_ = cap;
    last_refill_us_ = now_us;
  }
  if (tokens_milli_ >= 1000) {
    tokens_milli_ -= 1000;
    *folded = folded_;
    folded_ = 0;
    return true;
  }
  ++folded_;
  suppressed_total_.fetch_add(1, std::memory_order_relaxed);
  return false;
}

EventLog::EventLog()
    : stderr_site_(/*burst=*/20, /*refill_per_sec=*/5) {}

EventLog& EventLog::Global() {
  static EventLog* log = new EventLog();
  return *log;
}

void EventLog::SetSinkPath(const std::string& path) {
  SpinLatchGuard guard(sink_latch_);
  sink_path_ = path;
}

std::string EventLog::sink_path() const {
  SpinLatchGuard guard(sink_latch_);
  return sink_path_;
}

void EventLog::Emit(Severity severity, const char* name, const char* cat,
                    EventSite* site, std::string_view detail,
                    std::initializer_list<EventKv> fields) {
  if (!enabled()) return;
  int64_t now_us = NowMicros();
  uint64_t folded = 0;
  if (site != nullptr && !site->Admit(now_us, &folded)) {
    suppressed_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  Event ev;
  ev.severity = severity;
  ev.name = name;
  ev.cat = cat;
  ev.ts_us = now_us;
  ev.tid = CurrentTid();
  ev.suppressed = folded;
  for (const EventKv& kv : fields) {
    if (ev.n_fields >= Event::kMaxFields) break;
    ev.fields[ev.n_fields++] = kv;
  }
  size_t len = std::min(detail.size(), Event::kDetailBytes - 1);
  std::memcpy(ev.detail, detail.data(), len);
  ev.detail[len] = '\0';
  ring_.Emit(ev);
  AppendToSink(ev);
  if (severity >= Severity::kWarn &&
      mirror_.load(std::memory_order_relaxed)) {
    MirrorToStderr(ev);
  }
}

std::string EventLog::EventToJson(const Event& ev) {
  std::string out = "{\"ts_us\":";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%" PRId64, ev.ts_us);
  out += buf;
  out += ",\"severity\":\"";
  out += SeverityName(ev.severity);
  out += "\",\"name\":\"";
  out += JsonEscape(ev.name != nullptr ? ev.name : "");
  out += "\",\"cat\":\"";
  out += JsonEscape(ev.cat != nullptr ? ev.cat : "");
  out += "\",\"tid\":";
  std::snprintf(buf, sizeof(buf), "%u", ev.tid);
  out += buf;
  out += ",\"suppressed\":";
  std::snprintf(buf, sizeof(buf), "%" PRIu64, ev.suppressed);
  out += buf;
  out += ",\"fields\":{";
  for (int i = 0; i < ev.n_fields; ++i) {
    if (i > 0) out += ",";
    out += "\"";
    out += JsonEscape(ev.fields[i].key != nullptr ? ev.fields[i].key : "");
    out += "\":";
    std::snprintf(buf, sizeof(buf), "%" PRId64, ev.fields[i].value);
    out += buf;
  }
  out += "},\"detail\":\"";
  out += JsonEscape(ev.detail);
  out += "\"}";
  return out;
}

void EventLog::AppendToSink(const Event& ev) {
  SpinLatchGuard guard(sink_latch_);
  if (sink_path_.empty()) return;
  std::string line = EventToJson(ev);
  // lint:allow(raw-io): event sink is a diagnostics artifact; it is
  // not part of the recovery chain and needs no fsync discipline. The
  // per-event open/append/close keeps the line on disk even if the
  // process dies right after a WARN — exactly when it matters.
  std::FILE* f = std::fopen(sink_path_.c_str(), "a");
  if (f == nullptr) return;
  std::fwrite(line.data(), 1, line.size(), f);
  std::fputc('\n', f);
  std::fclose(f);
}

void EventLog::MirrorToStderr(const Event& ev) {
  uint64_t folded = 0;
  if (!stderr_site_.Admit(ev.ts_us, &folded)) return;
  std::string line;
  line += "calcdb ";
  line += SeverityName(ev.severity);
  line += " [";
  line += ev.cat != nullptr ? ev.cat : "";
  line += "] ";
  line += ev.name != nullptr ? ev.name : "";
  char buf[64];
  for (int i = 0; i < ev.n_fields; ++i) {
    line += " ";
    line += ev.fields[i].key != nullptr ? ev.fields[i].key : "";
    std::snprintf(buf, sizeof(buf), "=%" PRId64, ev.fields[i].value);
    line += buf;
  }
  if (ev.detail[0] != '\0') {
    line += ": ";
    line += ev.detail;
  }
  uint64_t hidden = ev.suppressed + folded;
  if (hidden > 0) {
    std::snprintf(buf, sizeof(buf), " (+%" PRIu64 " suppressed)", hidden);
    line += buf;
  }
  // The stderr mirror is the sanctioned "engine is degraded" channel
  // (tools/lint_durability.py raw-stderr rule allows this file).
  std::fprintf(stderr, "%s\n", line.c_str());
}

bool EventLog::ExportJsonl(const std::string& path) const {
  std::string out;
  for (const Event& ev : ring_.Snapshot()) {
    out += EventToJson(ev);
    out += "\n";
  }
  // lint:allow(raw-io): event export is a diagnostics artifact; it is
  // not part of the recovery chain and needs no fsync discipline.
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  size_t written = std::fwrite(out.data(), 1, out.size(), f);
  int rc = std::fclose(f);
  return written == out.size() && rc == 0;
}

void EventLog::ResetForTest() {
  ring_.Reset();
  EventSite::ResetAll();
  suppressed_.store(0, std::memory_order_relaxed);
  SetSinkPath("");
  enabled_.store(true, std::memory_order_relaxed);
  mirror_.store(true, std::memory_order_relaxed);
}

}  // namespace obs
}  // namespace calcdb
