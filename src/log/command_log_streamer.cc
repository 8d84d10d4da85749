#include "log/command_log_streamer.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <utility>

#include <dirent.h>
#include <sys/stat.h>

#include "obs/obs.h"
#include "util/clock.h"
#include "util/fault_injection.h"

namespace calcdb {

namespace {

/// Splits `base` into its directory ("." when none) and filename.
void SplitPath(const std::string& base, std::string* dir,
               std::string* name) {
  // assign(str, pos, len) instead of substr temporaries: gcc 12's
  // -Wrestrict misfires on the inlined substr-assign at -O2.
  size_t slash = base.rfind('/');
  if (slash == std::string::npos) {
    dir->assign(".");
    name->assign(base);
  } else {
    if (slash == 0) {
      dir->assign("/");
    } else {
      dir->assign(base, 0, slash);
    }
    name->assign(base, slash + 1, std::string::npos);
  }
}

/// Generation numbers are bounded well below 2^64: every accepted number
/// round-trips through GenerationPath and `max + 1` can never overflow.
/// A sibling file with an absurd numeric suffix (out of range, or not
/// producible by GenerationPath) is ignored rather than half-parsed.
constexpr uint64_t kMaxGeneration = 1000000000000ull;  // 10^12

/// If `entry` is `name` + "." + digits, parses the generation number.
bool ParseGeneration(const std::string& entry, const std::string& name,
                     uint64_t* gen) {
  if (entry.size() <= name.size() + 1) return false;
  if (entry.compare(0, name.size(), name) != 0) return false;
  if (entry[name.size()] != '.') return false;
  const char* digits = entry.c_str() + name.size() + 1;
  // strtoull would accept leading whitespace/signs; only digits
  // round-trip through GenerationPath.
  if (*digits < '0' || *digits > '9') return false;
  char* end = nullptr;
  unsigned long long parsed = std::strtoull(digits, &end, 10);
  if (end == digits || end == nullptr || *end != '\0') return false;
  if (parsed >= kMaxGeneration) return false;
  *gen = static_cast<uint64_t>(parsed);
  return true;
}

/// Scans `dir` for generation siblings of `name`. A missing directory
/// (ENOENT) yields an empty set; any other opendir failure is an error —
/// treating a momentarily unlistable directory (EACCES, EMFILE, ...) as
/// empty would make Start() reuse generation 1, clobbering an existing
/// file, or make recovery silently skip generations it should replay.
Status ScanGenerations(const std::string& dir, const std::string& name,
                       std::vector<uint64_t>* gens) {
  gens->clear();
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) {
    if (errno == ENOENT) return Status::OK();
    return Status::IOError("opendir " + dir + ": " +
                           std::strerror(errno));
  }
  while (struct dirent* e = ::readdir(d)) {
    uint64_t gen = 0;
    if (ParseGeneration(e->d_name, name, &gen)) gens->push_back(gen);
  }
  ::closedir(d);
  return Status::OK();
}

}  // namespace

std::string CommandLogStreamer::GenerationPath(const std::string& base,
                                               uint64_t gen) {
  // Sized for a full uint64 (20 digits) plus '.' and NUL: %06llu is a
  // minimum width, not a cap, and truncating a large generation would
  // produce a path that no longer round-trips through the scan.
  char buf[24];
  std::snprintf(buf, sizeof(buf), ".%06llu",
                static_cast<unsigned long long>(gen));
  return base + buf;
}

Status CommandLogStreamer::ListLogFiles(const std::string& base,
                                        std::vector<std::string>* out) {
  out->clear();
  std::string dir, name;
  SplitPath(base, &dir, &name);
  std::vector<uint64_t> gens;
  CALCDB_RETURN_NOT_OK(ScanGenerations(dir, name, &gens));
  std::sort(gens.begin(), gens.end());
  // A bare `base` file predates generation rotation; it holds the oldest
  // entries, so it replays first.
  struct stat st{};
  if (::stat(base.c_str(), &st) == 0) out->push_back(base);
  for (uint64_t gen : gens) out->push_back(GenerationPath(base, gen));
  return Status::OK();
}

std::string CommandLogStreamer::active_path() const {
  return active_path_;
}

Status CommandLogStreamer::background_status() const {
  SpinLatchGuard guard(status_latch_);
  return background_status_;
}

void CommandLogStreamer::SetBackgroundStatus(const Status& st) {
  bool first = false;
  {
    SpinLatchGuard guard(status_latch_);
    if (background_status_.ok()) {
      background_status_ = st;
      first = true;
    }
  }
  if (first) {
    // First-error-wins slot just transitioned OK -> failed: from here
    // every flush is dead and new commits stop becoming durable. The
    // event fires once, on the transition, not per retry.
    CALCDB_ERROR("log.background_error", "log", st.ToString());
  }
}

Status CommandLogStreamer::Start(const std::string& path,
                                 int flush_interval_ms) {
  if (running_.exchange(true, std::memory_order_acq_rel)) {
    return Status::InvalidArgument("running");
  }
  // Never reopen (and truncate) an existing generation: earlier
  // generations may hold the only copy of the pre-crash tail. The scan
  // finds the next free number; exclusive create is the backstop — even
  // if the scan were wrong, an existing file can never be truncated.
  std::string dir, name;
  SplitPath(path, &dir, &name);
  std::vector<uint64_t> gens;
  Status scan_st = ScanGenerations(dir, name, &gens);
  if (!scan_st.ok()) {
    running_.store(false, std::memory_order_release);
    return scan_st;
  }
  uint64_t max_gen = 0;
  for (uint64_t gen : gens) max_gen = std::max(max_gen, gen);
  active_path_ = GenerationPath(path, max_gen + 1);
  Status open_st = writer_.Open(active_path_, /*budget=*/nullptr,
                                /*exclusive=*/true);
  if (!open_st.ok()) {
    running_.store(false, std::memory_order_release);
    return open_st;
  }
  persisted_lsn_.store(0, std::memory_order_release);
  {
    SpinLatchGuard guard(status_latch_);
    background_status_ = Status::OK();
  }
  thread_ = std::thread([this, flush_interval_ms] {
    while (running_.load(std::memory_order_acquire)) {
      Status st = FlushUpTo(log_->Size());
      if (!st.ok()) {
        SetBackgroundStatus(st);
        return;
      }
      SleepMicros(static_cast<int64_t>(flush_interval_ms) * 1000);
    }
  });
  return Status::OK();
}

Status CommandLogStreamer::FlushUpTo(uint64_t target_lsn) {
  uint64_t from = persisted_lsn_.load(std::memory_order_acquire);
  if (target_lsn <= from) return Status::OK();
  // One latch acquisition pins [from, target); the frames are encoded
  // from the chunks' slots and arenas without the latch.
  batch_.clear();
  log_->SnapshotRange(from, target_lsn).EncodeAll(&batch_);
  CALCDB_TRACE_SPAN(flush_span, "log_flush", "log", target_lsn - from);
  CALCDB_OBS_ONLY(int64_t flush_start_us = NowMicros();)
  // A crash before the append loses the whole batch; a crash between
  // append and fsync may persist any prefix of it. The loader tolerates
  // both (torn tail discarded).
  CALCDB_FAULT_POINT("log.batch_append");
  CALCDB_RETURN_NOT_OK(writer_.Append(batch_.data(), batch_.size()));
  CALCDB_FAULT_POINT("log.fsync");
  CALCDB_RETURN_NOT_OK(writer_.Sync());
  CALCDB_HISTOGRAM_RECORD("calcdb.log.fsync_us",
                          NowMicros() - flush_start_us);
  CALCDB_COUNTER_ADD("calcdb.log.flushes", 1);
  CALCDB_COUNTER_ADD("calcdb.log.flushed_bytes", batch_.size());
  // Truncate before publishing persisted_lsn: a checkpoint cycle that
  // sees its token persisted then also sees the log truncated behind the
  // previous checkpoint's point of consistency.
  [[maybe_unused]] const uint64_t truncated =
      log_->TruncateDurable(target_lsn);
  CALCDB_COUNTER_ADD("calcdb.log.truncated_entries", truncated);
  persisted_lsn_.store(target_lsn, std::memory_order_release);
  return Status::OK();
}

Status CommandLogStreamer::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) {
    return Status::OK();
  }
  if (thread_.joinable()) thread_.join();
  CALCDB_RETURN_NOT_OK(background_status());
  // Final drain: everything committed before Stop is durable afterwards.
  // A drain failure is also recorded as the background status so a
  // checkpoint cycle blocked in WaitLogDurable observes it and fails
  // instead of waiting on a horizon that will never advance.
  Status drain_st = FlushUpTo(log_->Size());
  if (!drain_st.ok()) {
    SetBackgroundStatus(drain_st);
    return drain_st;
  }
  return writer_.Close();
}

}  // namespace calcdb
