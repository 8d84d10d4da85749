#include "obs/metrics.h"

#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <utility>

namespace calcdb {
namespace obs {

namespace {

std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

std::string FormatInt(int64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRId64, v);
  return buf;
}

std::string FormatUint(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  return buf;
}

}  // namespace

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

template <typename T>
T* MetricsRegistry::GetOrCreate(
    std::map<std::string, std::unique_ptr<T>>* table,
    const std::string& name) {
  SpinLatchGuard guard(latch_);
  auto it = table->find(name);
  if (it == table->end()) {
    it = table->emplace(name, std::make_unique<T>()).first;
  }
  return it->second.get();
}

ShardedCounter* MetricsRegistry::GetCounter(const std::string& name) {
  return GetOrCreate(&counters_, name);
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  return GetOrCreate(&gauges_, name);
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name) {
  return GetOrCreate(&histograms_, name);
}

void MetricsRegistry::RegisterCallbackGauge(const std::string& name,
                                            std::function<int64_t()> fn) {
  SpinLatchGuard guard(latch_);
  callback_gauges_[name] = std::move(fn);
}

std::string MetricsRegistry::SnapshotText() const {
  std::string out;
  SpinLatchGuard guard(latch_);
  for (const auto& [name, c] : counters_) {
    out += name + ": " + FormatUint(c->Sum()) + "\n";
  }
  for (const auto& [name, g] : gauges_) {
    out += name + ": " + FormatInt(g->Get()) + "\n";
  }
  for (const auto& [name, fn] : callback_gauges_) {
    out += name + ": " + FormatInt(fn()) + "\n";
  }
  for (const auto& [name, h] : histograms_) {
    out += name + ": count=" + FormatUint(h->count()) +
           " mean_us=" + FormatDouble(h->MeanUs()) +
           " p50_us=" + FormatInt(h->PercentileUs(0.50)) +
           " p99_us=" + FormatInt(h->PercentileUs(0.99)) +
           " max_us=" + FormatInt(h->PercentileUs(1.0)) + "\n";
  }
  return out;
}

std::string MetricsRegistry::SnapshotJson(
    const std::vector<std::pair<std::string, std::string>>& meta_extra)
    const {
  std::string out = "{\"meta\":{";
  bool first = true;
  for (const auto& [k, v] : meta_extra) {
    if (!first) out += ",";
    first = false;
    out += "\"" + JsonEscape(k) + "\":\"" + JsonEscape(v) + "\"";
  }
  out += "},";

  SpinLatchGuard guard(latch_);

  out += "\"counters\":{";
  first = true;
  for (const auto& [name, c] : counters_) {
    if (!first) out += ",";
    first = false;
    out += "\"" + JsonEscape(name) + "\":" + FormatUint(c->Sum());
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, g] : gauges_) {
    if (!first) out += ",";
    first = false;
    out += "\"" + JsonEscape(name) + "\":" + FormatInt(g->Get());
  }
  for (const auto& [name, fn] : callback_gauges_) {
    if (!first) out += ",";
    first = false;
    out += "\"" + JsonEscape(name) + "\":" + FormatInt(fn());
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms_) {
    if (!first) out += ",";
    first = false;
    out += "\"" + JsonEscape(name) + "\":{\"count\":" +
           FormatUint(h->count()) +
           ",\"mean_us\":" + FormatDouble(h->MeanUs()) +
           ",\"p50_us\":" + FormatInt(h->PercentileUs(0.50)) +
           ",\"p99_us\":" + FormatInt(h->PercentileUs(0.99)) +
           ",\"p999_us\":" + FormatInt(h->PercentileUs(0.999)) +
           ",\"max_us\":" + FormatInt(h->PercentileUs(1.0)) + "}";
  }
  out += "}}";
  return out;
}

void MetricsRegistry::ResetForTest() {
  SpinLatchGuard guard(latch_);
  for (auto& [name, c] : counters_) c->Reset();
  for (auto& [name, g] : gauges_) g->Set(0);
  for (auto& [name, h] : histograms_) h->Reset();
  callback_gauges_.clear();
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace obs
}  // namespace calcdb
