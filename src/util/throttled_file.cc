#include "util/throttled_file.h"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <utility>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "obs/obs.h"
#include "util/clock.h"

namespace calcdb {

namespace {

// Staging capacity, and the size of every token charge and of every
// write(2) but a drain's last: appends are cut into chunks of this size,
// so one large append cannot overdraw the bucket in a single step and a
// stream of small ones costs one charge and one write per chunk.
constexpr size_t kChunkBytes = 64 * 1024;

}  // namespace

TokenBucket::TokenBucket(uint64_t rate_bytes_per_sec)
    : rate_(rate_bytes_per_sec),
      burst_(static_cast<double>(rate_bytes_per_sec) / 100.0) {
  tokens_ = burst_;  // ~10ms of initial credit
  last_refill_us_ = NowMicros();
}

void TokenBucket::Consume(size_t n) {
  consumed_.fetch_add(n, std::memory_order_relaxed);
  if (rate_ == 0) return;
  const double rate = static_cast<double>(rate_);
  // Debt model: charge the balance immediately under the latch, then sleep
  // outside it until the refill stream repays this caller's share. Each
  // concurrent consumer deepens the shared debt before sleeping, so the
  // wake times of all sharers stack up and the aggregate rate stays within
  // budget no matter how many writers draw from the bucket.
  int64_t wake_us;
  {
    SpinLatchGuard guard(latch_);
    int64_t now = NowMicros();
    tokens_ += rate * static_cast<double>(now - last_refill_us_) / 1e6;
    if (tokens_ > burst_) tokens_ = burst_;
    last_refill_us_ = now;
    tokens_ -= static_cast<double>(n);
    if (tokens_ >= 0) return;
    wake_us = now + static_cast<int64_t>(-tokens_ / rate * 1e6) + 1;
  }
  CALCDB_OBS_ONLY(int64_t stall_start_us = NowMicros();)
  for (;;) {
    int64_t now = NowMicros();
    if (now >= wake_us) break;
    int64_t sleep_us = wake_us - now;
    if (sleep_us > 20000) sleep_us = 20000;
    SleepMicros(sleep_us);
  }
#if CALCDB_OBS_ENABLED
  int64_t stall_us = NowMicros() - stall_start_us;
  CALCDB_COUNTER_ADD("calcdb.io.throttle_stalls", 1);
  CALCDB_COUNTER_ADD("calcdb.io.throttle_stall_us",
                     static_cast<uint64_t>(stall_us));
  // Saturation fires on every throttled write under a busy capture, so
  // this site leans on the macro's per-site token bucket: a handful of
  // INFO events with the rest folded into their suppressed counts.
  CALCDB_EVENT("io.throttle_saturated", "io", "",
               {"stall_us", stall_us},
               {"bytes", static_cast<int64_t>(n)});
#endif
}

ThrottledFileWriter::~ThrottledFileWriter() {
  // calcdb-status-ignored: destructor has no error channel; durability
  // paths must call Close()/Sync() explicitly and check (DURABILITY.md).
  (void)Close();
}

Status ThrottledFileWriter::Open(const std::string& path,
                                 uint64_t max_bytes_per_sec) {
  std::shared_ptr<TokenBucket> budget;
  if (max_bytes_per_sec != 0) {
    budget = std::make_shared<TokenBucket>(max_bytes_per_sec);
  }
  return Open(path, std::move(budget));
}

Status ThrottledFileWriter::Open(const std::string& path,
                                 std::shared_ptr<TokenBucket> budget,
                                 bool exclusive) {
  if (is_open()) return Status::InvalidArgument("already open");
  int flags = O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC;
  if (exclusive) flags |= O_EXCL;
  fd_ = ::open(path.c_str(), flags, 0666);
  if (fd_ < 0) {
    return Status::IOError("open " + path + ": " + std::strerror(errno));
  }
  if (stage_ == nullptr) stage_.reset(new uint8_t[kChunkBytes]);
  stage_len_ = 0;
  path_ = path;
  bytes_written_ = 0;
  budget_ = std::move(budget);
  return Status::OK();
}

Status ThrottledFileWriter::WriteFd(const uint8_t* p, size_t n) {
  while (n > 0) {
    ssize_t w = ::write(fd_, p, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      return Status::IOError("write " + path_ + ": " +
                             std::strerror(errno));
    }
    p += w;
    n -= static_cast<size_t>(w);
  }
  return Status::OK();
}

Status ThrottledFileWriter::WriteThrottled(const uint8_t* p, size_t n) {
  while (n > 0) {
    size_t chunk = n < kChunkBytes ? n : kChunkBytes;
    if (budget_ != nullptr) budget_->Consume(chunk);
    CALCDB_RETURN_NOT_OK(WriteFd(p, chunk));
    p += chunk;
    n -= chunk;
  }
  return Status::OK();
}

Status ThrottledFileWriter::DrainStage() {
  size_t n = stage_len_;
  stage_len_ = 0;
  return WriteThrottled(stage_.get(), n);
}

Status ThrottledFileWriter::Append(const void* data, size_t n) {
  if (!is_open()) return Status::InvalidArgument("not open");
  const auto* p = static_cast<const uint8_t*>(data);
  size_t left = n;
  if (stage_len_ > 0 || left < kChunkBytes) {
    // Top up the stage first, so a write(2) is only ever short when a
    // Flush/Sync/Close drains it.
    size_t take = std::min(left, kChunkBytes - stage_len_);
    std::memcpy(stage_.get() + stage_len_, p, take);
    stage_len_ += take;
    p += take;
    left -= take;
    if (stage_len_ == kChunkBytes) CALCDB_RETURN_NOT_OK(DrainStage());
  }
  // Whole chunks go straight from the caller's memory; the tail waits
  // in the stage, which is empty whenever bytes remain.
  size_t whole = left - left % kChunkBytes;
  CALCDB_RETURN_NOT_OK(WriteThrottled(p, whole));
  if (left > whole) {
    std::memcpy(stage_.get(), p + whole, left - whole);
    stage_len_ = left - whole;
  }
  bytes_written_ += n;
  return Status::OK();
}

Status ThrottledFileWriter::Flush() {
  if (!is_open()) return Status::InvalidArgument("not open");
  return DrainStage();
}

Status ThrottledFileWriter::Sync() {
  CALCDB_RETURN_NOT_OK(Flush());
  if (::fsync(fd_) != 0) {
    return Status::IOError("fsync " + path_ + ": " + std::strerror(errno));
  }
  return Status::OK();
}

Status ThrottledFileWriter::Close() {
  if (!is_open()) return Status::OK();
  Status st = Sync();
  ::close(fd_);
  fd_ = -1;
  stage_len_ = 0;
  return st;
}

SequentialFileReader::~SequentialFileReader() {
  // calcdb-status-ignored: destructor cleanup of a read-only stream;
  // Close() on a reader cannot lose data.
  (void)Close();
}

Status SequentialFileReader::Open(const std::string& path,
                                  size_t read_ahead_bytes) {
  if (file_ != nullptr) return Status::InvalidArgument("already open");
  file_ = std::fopen(path.c_str(), "rb");
  if (file_ == nullptr) {
    return Status::IOError("open " + path + ": " + std::strerror(errno));
  }
  if (read_ahead_bytes > 0) {
    // Best-effort: a failed setvbuf just leaves the libc default buffer.
    read_ahead_buf_ = static_cast<char*>(std::malloc(read_ahead_bytes));
    if (read_ahead_buf_ != nullptr &&
        std::setvbuf(file_, read_ahead_buf_, _IOFBF, read_ahead_bytes) !=
            0) {
      std::free(read_ahead_buf_);
      read_ahead_buf_ = nullptr;
    }
  }
  bytes_read_ = 0;
  return Status::OK();
}

Status SequentialFileReader::ReadExact(void* out, size_t n) {
  size_t got = 0;
  CALCDB_RETURN_NOT_OK(Read(out, n, &got));
  if (got != n) return Status::IOError("short read");
  return Status::OK();
}

Status SequentialFileReader::Read(void* out, size_t n, size_t* read_n) {
  if (file_ == nullptr) return Status::InvalidArgument("not open");
  *read_n = std::fread(out, 1, n, file_);
  bytes_read_ += *read_n;
  if (*read_n < n && std::ferror(file_)) {
    return Status::IOError(std::strerror(errno));
  }
  return Status::OK();
}

bool SequentialFileReader::AtEof() {
  if (file_ == nullptr) return true;
  int c = std::fgetc(file_);
  if (c == EOF) return true;
  std::ungetc(c, file_);
  return false;
}

Status SequentialFileReader::Close() {
  if (file_ == nullptr) return Status::OK();
  std::fclose(file_);
  file_ = nullptr;
  std::free(read_ahead_buf_);
  read_ahead_buf_ = nullptr;
  return Status::OK();
}

BlockFileReader::~BlockFileReader() {
  if (fd_ >= 0) ::close(fd_);
}

Status BlockFileReader::Open(const std::string& path) {
  if (fd_ >= 0) return Status::InvalidArgument("already open");
  fd_ = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd_ < 0) {
    return Status::IOError("open " + path + ": " + std::strerror(errno));
  }
  struct stat st {};
  if (::fstat(fd_, &st) != 0) {
    Status err = Status::IOError("fstat " + path + ": " +
                                 std::strerror(errno));
    ::close(fd_);
    fd_ = -1;
    return err;
  }
  size_ = static_cast<uint64_t>(st.st_size);
  return Status::OK();
}

Status BlockFileReader::ReadAt(uint64_t offset, void* out, size_t n,
                               size_t* read_n) {
  if (fd_ < 0) return Status::InvalidArgument("not open");
  char* p = static_cast<char*>(out);
  size_t got = 0;
  while (got < n) {
    ssize_t r = ::pread(fd_, p + got, n - got,
                        static_cast<off_t>(offset + got));
    if (r < 0) {
      if (errno == EINTR) continue;
      *read_n = got;
      return Status::IOError(std::strerror(errno));
    }
    if (r == 0) break;  // end of file
    got += static_cast<size_t>(r);
  }
  *read_n = got;
  return Status::OK();
}

}  // namespace calcdb
