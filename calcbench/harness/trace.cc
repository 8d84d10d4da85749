#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>

namespace calcbench {

namespace {

int64_t SteadyNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Total length of the union of [start, end) intervals.
int64_t UnionLength(std::vector<std::pair<int64_t, int64_t>> iv) {
  std::sort(iv.begin(), iv.end());
  int64_t covered = 0;
  int64_t cur_start = 0, cur_end = 0;
  bool open = false;
  for (const auto& [s, e] : iv) {
    if (!open || s > cur_end) {
      if (open) covered += cur_end - cur_start;
      cur_start = s;
      cur_end = e;
      open = true;
    } else {
      cur_end = std::max(cur_end, e);
    }
  }
  if (open) covered += cur_end - cur_start;
  return covered;
}

}  // namespace

void TraceLane::Leaf(const char* name, int64_t start_ns, int64_t end_ns) {
  Fold* fold = nullptr;
  for (auto& [n, f] : folds_) {
    if (n == name) fold = &f;
  }
  if (fold == nullptr) fold = &folds_.emplace_back(name, Fold{}).second;
  // Sampled per name, so interleaved names are all kept.
  if (fold->count++ % Tracer::kSampleEvery == 0 &&
      sampled_.size() < Tracer::kMaxSampledPerLane) {
    SpanRecord rec;
    rec.id = tracer_->NextId();
    rec.parent = parent_;
    rec.name = name;
    rec.start_ns = start_ns;
    rec.end_ns = end_ns;
    rec.lane = index_;
    sampled_.push_back(rec);
  }
  fold->total_ns += end_ns - start_ns;
}

uint64_t Tracer::NextId() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

uint64_t Tracer::Begin(const char* name, uint64_t parent) {
  if (!enabled_) return 0;
  int64_t now = SteadyNs();
  std::lock_guard<std::mutex> lock(mu_);
  SpanRecord rec;
  rec.id = next_id_++;
  rec.parent = parent;
  rec.name = name;
  rec.start_ns = now;
  rec.end_ns = now;
  spans_.push_back(rec);
  return rec.id;
}

void Tracer::End(uint64_t id) {
  if (!enabled_ || id == 0) return;
  int64_t now = SteadyNs();
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = spans_.rbegin(); it != spans_.rend(); ++it) {
    if (it->id == id) {
      it->end_ns = now;
      return;
    }
  }
}

TraceLane* Tracer::NewLane(uint64_t parent) {
  if (!enabled_) return nullptr;
  std::lock_guard<std::mutex> lock(mu_);
  uint32_t index = static_cast<uint32_t>(lanes_.size()) + 1;
  lanes_.push_back(std::unique_ptr<TraceLane>(new TraceLane(this, index, parent)));
  return lanes_.back().get();
}

uint64_t Tracer::SpanCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t n = spans_.size();
  for (const auto& lane : lanes_) n += lane->sampled_.size();
  return n;
}

std::map<std::string, double> Tracer::SelfMillis() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<uint64_t, std::vector<std::pair<int64_t, int64_t>>> children;
  for (const SpanRecord& s : spans_) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
  }
  std::map<uint64_t, int64_t> folded_under;
  std::map<std::string, double> self;
  for (const auto& lane : lanes_) {
    for (const auto& [name, fold] : lane->folds_) {
      folded_under[lane->parent_] += fold.total_ns;
      self[name] += static_cast<double>(fold.total_ns) / 1e6;
    }
  }
  for (const SpanRecord& s : spans_) {
    int64_t covered = folded_under[s.id];
    auto it = children.find(s.id);
    if (it != children.end()) covered += UnionLength(it->second);
    int64_t own = std::max<int64_t>(0, s.end_ns - s.start_ns - covered);
    self[s.name] += static_cast<double>(own) / 1e6;
  }
  return self;
}

bool Tracer::WriteJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  int64_t origin = INT64_MAX;
  for (const SpanRecord& s : spans_) origin = std::min(origin, s.start_ns);
  if (origin == INT64_MAX) origin = 0;
  std::fprintf(f, "{\"otherData\": {\"run_id\": \"%016" PRIx64
                  "\", \"sample_every\": %" PRIu64 "},\n\"traceEvents\": [\n",
               run_id_, kSampleEvery);
  bool first = true;
  auto emit = [&](const SpanRecord& s) {
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"cat\": \"calcbench\", \"ph\": \"X\", "
                 "\"pid\": 1, \"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, "
                 "\"args\": {\"span_id\": %" PRIu64 ", \"parent_id\": %" PRIu64
                 ", \"run_id\": \"%016" PRIx64 "\"}}",
                 first ? "" : ",\n", s.name, s.lane,
                 static_cast<double>(s.start_ns - origin) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.id,
                 s.parent, run_id_);
    first = false;
  };
  for (const SpanRecord& s : spans_) emit(s);
  for (const auto& lane : lanes_) {
    for (const SpanRecord& s : lane->sampled_) emit(s);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace calcbench
