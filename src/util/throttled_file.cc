#include "util/throttled_file.h"

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

// Appends below this size are coalesced into the staging buffer; at or
// above it they flush the stage and go straight to the file (no copy).
constexpr size_t kCoalesceBytes = 4096;

// Staging capacity: one token charge + one stdio write per this many
// coalesced bytes. Matches the Consume() chunk size.
constexpr size_t kStageBytes = 64 * 1024;

// Direct-I/O alignment (covers 512B and 4KiB logical block devices) and
// staging capacity. The larger stage keeps each write(2) long enough to
// genuinely block in the device, which is what the async checkpoint
// writer overlaps against.
constexpr size_t kDirectAlign = 4096;
constexpr size_t kDirectStageBytes = 1024 * 1024;

// Token charges are chunked so one large drain cannot overdraw the
// bucket in a single step.
constexpr size_t kConsumeChunk = 64 * 1024;

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
  WriterOpenOptions options;
  if (max_bytes_per_sec != 0) {
    options.budget = std::make_shared<TokenBucket>(max_bytes_per_sec);
  }
  return Open(path, std::move(options));
}

Status ThrottledFileWriter::Open(const std::string& path,
                                 std::shared_ptr<TokenBucket> budget,
                                 bool exclusive) {
  WriterOpenOptions options;
  options.budget = std::move(budget);
  options.exclusive = exclusive;
  return Open(path, std::move(options));
}

Status ThrottledFileWriter::Open(const std::string& path,
                                 WriterOpenOptions options) {
  if (is_open()) return Status::InvalidArgument("already open");
  bool direct = options.direct_io;
  if (direct) {
    int flags = O_WRONLY | O_CREAT | O_TRUNC | O_DIRECT;
    if (options.exclusive) flags |= O_EXCL;
    fd_ = ::open(path.c_str(), flags, 0644);
    if (fd_ < 0 && errno == EINVAL) {
      // Filesystem without O_DIRECT support (tmpfs): fall back to the
      // buffered path rather than failing the checkpoint.
      direct = false;
    } else if (fd_ < 0) {
      return Status::IOError("open " + path + ": " + std::strerror(errno));
    }
  }
  if (!direct) {
    // "x" is C11's O_EXCL: create the file, failing if it already exists.
    file_ = std::fopen(path.c_str(), options.exclusive ? "wbx" : "wb");
    if (file_ == nullptr) {
      return Status::IOError("open " + path + ": " + std::strerror(errno));
    }
  }
  stage_cap_ = direct ? kDirectStageBytes : kStageBytes;
  if (direct) {
    void* mem = nullptr;
    if (posix_memalign(&mem, kDirectAlign, stage_cap_) != 0) {
      ::close(fd_);
      fd_ = -1;
      return Status::IOError("posix_memalign for " + path);
    }
    stage_ = static_cast<uint8_t*>(mem);
  } else {
    stage_ = static_cast<uint8_t*>(std::malloc(stage_cap_));
    if (stage_ == nullptr) {
      std::fclose(file_);
      file_ = nullptr;
      return Status::IOError("malloc stage for " + path);
    }
  }
  stage_len_ = 0;
  path_ = path;
  bytes_written_ = 0;
  budget_ = std::move(options.budget);
  return Status::OK();
}

void ThrottledFileWriter::ConsumeChunked(size_t n) {
  if (budget_ == nullptr) return;
  while (n > 0) {
    size_t chunk = n < kConsumeChunk ? n : kConsumeChunk;
    budget_->Consume(chunk);
    n -= chunk;
  }
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

Status ThrottledFileWriter::DrainStage() {
  if (stage_len_ == 0) return Status::OK();
  size_t n = stage_len_;
  stage_len_ = 0;
  ConsumeChunked(n);
  if (fd_ >= 0) return WriteFd(stage_, n);
  if (std::fwrite(stage_, 1, n, file_) != n) {
    return Status::IOError("write " + path_ + ": " + std::strerror(errno));
  }
  return Status::OK();
}

Status ThrottledFileWriter::Append(const void* data, size_t n) {
  if (!is_open()) return Status::InvalidArgument("not open");
  const auto* p = static_cast<const uint8_t*>(data);
  if (fd_ >= 0 || n < kCoalesceBytes) {
    // Coalesce through the stage. Direct mode always stages: write(2)
    // under O_DIRECT needs aligned buffers and lengths, and the stage is
    // the aligned memory.
    size_t remaining = n;
    while (remaining > 0) {
      size_t room = stage_cap_ - stage_len_;
      size_t take = remaining < room ? remaining : room;
      std::memcpy(stage_ + stage_len_, p, take);
      stage_len_ += take;
      p += take;
      remaining -= take;
      if (stage_len_ == stage_cap_) CALCDB_RETURN_NOT_OK(DrainStage());
    }
    bytes_written_ += n;
    return Status::OK();
  }
  // Large buffered append: drain the stage to preserve byte order, then
  // write straight from the caller's memory, throttling in chunks.
  CALCDB_RETURN_NOT_OK(DrainStage());
  size_t remaining = n;
  while (remaining > 0) {
    size_t chunk = remaining < kConsumeChunk ? remaining : kConsumeChunk;
    if (budget_ != nullptr) budget_->Consume(chunk);
    if (std::fwrite(p, 1, chunk, file_) != chunk) {
      return Status::IOError("write " + path_ + ": " +
                             std::strerror(errno));
    }
    p += chunk;
    remaining -= chunk;
  }
  bytes_written_ += n;
  return Status::OK();
}

Status ThrottledFileWriter::Flush() {
  if (!is_open()) return Status::InvalidArgument("not open");
  if (fd_ >= 0) {
    // Only an aligned prefix of the stage can be issued under O_DIRECT;
    // keep the tail staged until Close() pads and trims it.
    size_t aligned = stage_len_ & ~(kDirectAlign - 1);
    if (aligned > 0) {
      ConsumeChunked(aligned);
      CALCDB_RETURN_NOT_OK(WriteFd(stage_, aligned));
      std::memmove(stage_, stage_ + aligned, stage_len_ - aligned);
      stage_len_ -= aligned;
    }
    return Status::OK();
  }
  CALCDB_RETURN_NOT_OK(DrainStage());
  if (std::fflush(file_) != 0) {
    return Status::IOError("flush " + path_ + ": " + std::strerror(errno));
  }
  return Status::OK();
}

Status ThrottledFileWriter::Sync() {
  CALCDB_RETURN_NOT_OK(Flush());
  int fd = fd_ >= 0 ? fd_ : ::fileno(file_);
  if (::fsync(fd) != 0) {
    return Status::IOError("fsync " + path_ + ": " + std::strerror(errno));
  }
  return Status::OK();
}

Status ThrottledFileWriter::Close() {
  if (!is_open()) return Status::OK();
  Status st = Status::OK();
  if (fd_ >= 0) {
    if (stage_len_ > 0) {
      // Pad the tail to alignment, write it, then trim the file back to
      // its logical length. Tokens are charged for payload bytes only.
      size_t logical = stage_len_;
      size_t padded = (logical + kDirectAlign - 1) & ~(kDirectAlign - 1);
      std::memset(stage_ + logical, 0, padded - logical);
      stage_len_ = 0;
      ConsumeChunked(logical);
      st = WriteFd(stage_, padded);
    }
    auto logical_size = static_cast<off_t>(bytes_written_);
    if (st.ok() && ::ftruncate(fd_, logical_size) != 0) {
      st = Status::IOError("ftruncate " + path_ + ": " +
                           std::strerror(errno));
    }
    if (st.ok() && ::fsync(fd_) != 0) {
      st = Status::IOError("fsync " + path_ + ": " + std::strerror(errno));
    }
    ::close(fd_);
    fd_ = -1;
  } else {
    st = DrainStage();
    if (st.ok() && std::fflush(file_) != 0) {
      st = Status::IOError("flush " + path_ + ": " + std::strerror(errno));
    }
    if (st.ok()) {
      if (::fsync(::fileno(file_)) != 0) {
        st = Status::IOError("fsync " + path_ + ": " +
                             std::strerror(errno));
      }
    }
    std::fclose(file_);
    file_ = nullptr;
  }
  std::free(stage_);
  stage_ = nullptr;
  stage_cap_ = 0;
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
