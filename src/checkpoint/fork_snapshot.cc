#include "checkpoint/fork_snapshot.h"

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <string>

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include "checkpoint/quiesce.h"
#include "obs/obs.h"
#include "util/clock.h"
#include "util/crc32.h"
#include "util/fault_injection.h"

namespace calcdb {

namespace {

constexpr char kMagic[8] = {'C', 'A', 'L', 'C', 'K', 'P', 'T', '1'};
constexpr uint32_t kVersion = 1;
constexpr uint64_t kFooterKey = ~uint64_t{0};
constexpr uint8_t kFooterFlags = 0xFF;

/// Child-side buffered writer over a raw fd: fixed stack buffer, write()
/// syscalls, optional byte-rate cap via nanosleep. No allocation.
class RawThrottledFd {
 public:
  RawThrottledFd(int fd, uint64_t max_bytes_per_sec)
      : fd_(fd),
        max_bytes_per_sec_(max_bytes_per_sec),
        start_us_(NowMicros()) {}

  bool Append(const void* data, size_t n) {
    const auto* p = static_cast<const uint8_t*>(data);
    while (n > 0) {
      size_t room = sizeof(buf_) - used_;
      size_t take = n < room ? n : room;
      std::memcpy(buf_ + used_, p, take);
      used_ += take;
      p += take;
      n -= take;
      if (used_ == sizeof(buf_) && !Flush()) return false;
    }
    return true;
  }

  bool Flush() {
    size_t off = 0;
    while (off < used_) {
      ssize_t wrote = ::write(fd_, buf_ + off, used_ - off);
      if (wrote < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      off += static_cast<size_t>(wrote);
    }
    total_ += used_;
    used_ = 0;
    Throttle();
    return true;
  }

 private:
  void Throttle() {
    if (max_bytes_per_sec_ == 0) return;
    // Sleep until the cumulative rate falls back under the cap.
    int64_t target_us = static_cast<int64_t>(
        static_cast<double>(total_) /
        static_cast<double>(max_bytes_per_sec_) * 1e6);
    int64_t ahead_us = target_us - (NowMicros() - start_us_);
    if (ahead_us > 0) SleepMicros(ahead_us);
  }

  int fd_;
  uint64_t max_bytes_per_sec_;
  int64_t start_us_;
  uint64_t total_ = 0;
  size_t used_ = 0;
  char buf_[1 << 16];
};

}  // namespace

ForkSnapshotCheckpointer::ForkSnapshotCheckpointer(EngineContext engine)
    : Checkpointer(engine),
      slots_at_poc_(engine.store->num_shards(), 0) {
  // Force one-time initialization (CRC table's lazy static) in the
  // parent, so the forked child never allocates.
  Crc32("", 0);
}

void ForkSnapshotCheckpointer::ApplyWrite(Txn& txn, Record& rec,
                                          Value* new_val) {
  (void)txn;
  SpinLatchGuard guard(rec.latch);
  engine_.store->ReplaceLive(rec, new_val);
}

int ForkSnapshotCheckpointer::ChildWriteSnapshot(int fd, uint64_t id,
                                                 uint64_t poc_lsn) {
  RawThrottledFd out(fd, engine_.ckpt_storage->disk_bytes_per_sec());
  if (!out.Append(kMagic, sizeof(kMagic))) return 2;
  if (!out.Append(&kVersion, sizeof(kVersion))) return 2;
  uint8_t type = static_cast<uint8_t>(CheckpointType::kFull);
  if (!out.Append(&type, sizeof(type))) return 2;
  if (!out.Append(&id, sizeof(id))) return 2;
  if (!out.Append(&poc_lsn, sizeof(poc_lsn))) return 2;

  uint32_t crc = 0;
  uint64_t count = 0;
  for (uint32_t s = 0; s < engine_.store->num_shards(); ++s) {
    KVStore* shard = engine_.store->shard(s);
    for (uint32_t idx = 0; idx < slots_at_poc_[s]; ++idx) {
      // The child's image is frozen (COW): no latch needed, nothing
      // races.
      Record* rec = shard->ByIndex(idx);
      if (!Record::IsRealValue(rec->live)) continue;
      uint64_t key = rec->key;
      uint8_t flags = 0;
      std::string_view value = rec->live->data();
      uint32_t len = static_cast<uint32_t>(value.size());
      crc = Crc32(&key, sizeof(key), crc);
      crc = Crc32(&flags, sizeof(flags), crc);
      crc = Crc32(&len, sizeof(len), crc);
      crc = Crc32(value.data(), value.size(), crc);
      if (!out.Append(&key, sizeof(key)) ||
          !out.Append(&flags, sizeof(flags)) ||
          !out.Append(&len, sizeof(len)) ||
          !out.Append(value.data(), value.size())) {
        return 2;
      }
      ++count;
    }
  }
  if (!out.Append(&kFooterKey, sizeof(kFooterKey))) return 2;
  if (!out.Append(&kFooterFlags, sizeof(kFooterFlags))) return 2;
  if (!out.Append(&count, sizeof(count))) return 2;
  if (!out.Append(&crc, sizeof(crc))) return 2;
  if (!out.Flush()) return 2;
  // Child-side fault channel: CALCDB_CRASH_POINT cannot run here (the
  // arming latch may be held by a parent thread that no longer exists
  // after fork), so the child's only probe is this env-driven one. Placed
  // before the fsync: a forced exit here models the child dying with the
  // snapshot bytes written but not yet durable.
  CALCDB_CHILD_CRASH_POINT();
  if (::fsync(fd) != 0) return 3;
  ::close(fd);
  return 0;
}

Status ForkSnapshotCheckpointer::Capture(CheckpointInfo* info,
                                         CheckpointCycleStats* stats) {
  const uint64_t id = info->id;
  info->path = engine_.ckpt_storage->PathFor(id, CheckpointType::kFull);
  const std::string& path = info->path;
  // lint:allow(raw-io): the forked child must write through a raw fd —
  // sharing a buffered stdio stream across fork() would double-flush.
  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::IOError("open " + path + ": " + std::strerror(errno));
  }

  // Physical point of consistency, then fork inside the quiesce window:
  // the child's address space is the exact committed state.
  pid_t child = -1;
  uint64_t poc_lsn = 0;
  Status st;
  stats->quiesce_micros = QuiesceAndRun(
      engine_,
      [&]() -> Status {
        poc_lsn = engine_.log->AppendPhaseTransition(Phase::kResolve, id,
                                                     /*pc=*/nullptr);
        for (uint32_t s = 0; s < engine_.store->num_shards(); ++s) {
          slots_at_poc_[s] = engine_.store->shard(s)->NumSlots();
        }
        child = ::fork();
        if (child == 0) {
          // Child: write the frozen image and exit without running any
          // destructors or atexit handlers — and without returning into
          // QuiesceAndRun, whose epilogue reopens the admission gate: a
          // parent thread may have held the gate's mutex at the instant
          // of fork, leaving the child's copy locked forever.
          ::_exit(ChildWriteSnapshot(fd, id, poc_lsn));
        }
        if (child < 0) {
          return Status::IOError(std::string("fork: ") +
                                 std::strerror(errno));
        }
        return Status::OK();
      },
      &st);
  ::close(fd);  // parent's copy of the descriptor
  CALCDB_RETURN_NOT_OK(st);

  // Parent: transactions are already running again; wait for the child.
  Stopwatch capture_sw;
  int wstatus = 0;
  for (;;) {
    pid_t done = ::waitpid(child, &wstatus, WNOHANG);
    if (done == child) break;
    if (done < 0) return Status::IOError("waitpid failed");
    SleepMicros(2000);
  }
  if (!WIFEXITED(wstatus) || WEXITSTATUS(wstatus) != 0) {
    // Exit codes: 2 = write failure, 3 = fsync failure, anything else is
    // a signal or an injected CALCDB_CHILD_EXIT_CODE death; fold the code
    // into the Status so the caller (and the torture harness) can tell
    // which path the child died on.
    std::string msg = "snapshot child failed";
    if (WIFEXITED(wstatus)) {
      msg += " (exit code " + std::to_string(WEXITSTATUS(wstatus)) + ")";
    } else if (WIFSIGNALED(wstatus)) {
      msg += " (signal " + std::to_string(WTERMSIG(wstatus)) + ")";
    }
    CALCDB_WARN("ckpt.child_failed", "ckpt", msg,
                {"checkpoint_id", static_cast<int64_t>(id)});
    return Status::IOError(msg);
  }
  stats->capture_micros = capture_sw.ElapsedMicros();

  // Entry count lives in the file; read it back for the manifest.
  CheckpointFileReader reader;
  CALCDB_RETURN_NOT_OK(reader.Open(path));
  CALCDB_RETURN_NOT_OK(reader.ReadAll([&](const CheckpointEntry&) -> Status {
    ++info->num_entries;
    return Status::OK();
  }));
  std::error_code ec;
  stats->bytes_written = std::filesystem::file_size(path, ec);
  if (ec) return Status::IOError("stat " + path + ": " + ec.message());
  info->vpoc_lsn = poc_lsn;
  stats->records_written = info->num_entries;
  return Status::OK();
}

}  // namespace calcdb
