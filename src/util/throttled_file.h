#ifndef CALCDB_UTIL_THROTTLED_FILE_H_
#define CALCDB_UTIL_THROTTLED_FILE_H_

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>

#include "util/latch.h"
#include "util/status.h"

namespace calcdb {

/// A thread-safe token bucket metering a byte budget refilled at a fixed
/// rate from the monotonic clock (util/clock.h's steady_clock source, so
/// wall-clock jumps never mint or destroy credit).
///
/// One bucket may be shared by any number of writers: the token ledger is
/// a single balance guarded by a spin latch, so the *aggregate* rate of
/// all consumers is bounded by `rate_bytes_per_sec`, not each consumer
/// individually. Consume() uses a debt model — the balance is charged
/// immediately (it may go negative without bound while many writers pile
/// on) and the caller sleeps, outside the latch, until the moment the
/// refill stream repays its share of the debt. A rate of 0 disables
/// metering entirely.
class TokenBucket {
 public:
  /// `rate_bytes_per_sec == 0` means unmetered. The bucket starts with
  /// ~10ms of burst credit and never stores more than that.
  explicit TokenBucket(uint64_t rate_bytes_per_sec);

  TokenBucket(const TokenBucket&) = delete;
  TokenBucket& operator=(const TokenBucket&) = delete;

  /// Charges `n` bytes against the budget, sleeping as needed so that the
  /// aggregate consumption across all sharers stays within the rate.
  void Consume(size_t n);

  uint64_t rate_bytes_per_sec() const { return rate_; }

  /// Total bytes ever charged through Consume(), across all sharers and
  /// including unmetered buckets. Lets tests assert that writers charge
  /// each payload byte exactly once (no double-charge when small appends
  /// are coalesced).
  uint64_t consumed() const {
    return consumed_.load(std::memory_order_relaxed);
  }

 private:
  const uint64_t rate_;
  const double burst_;  // max stored credit, in bytes (~10ms of rate)

  std::atomic<uint64_t> consumed_{0};

  SpinLatch latch_;
  double tokens_ CALCDB_GUARDED_BY(latch_) = 0;
  int64_t last_refill_us_ CALCDB_GUARDED_BY(latch_) = 0;
};

/// A buffered sequential file writer with an optional token-bucket
/// bandwidth cap.
///
/// The paper's experiments ran against a magnetic disk delivering
/// 100-150 MB/s sequentially, and Appendix A notes that "the recording of a
/// checkpoint is limited by disk bandwidth in our system". On modern
/// NVMe-backed hosts checkpoints would finish unrealistically fast and the
/// throughput-over-time figures would lose their capture windows, so the
/// benchmark harness throttles checkpoint output to a configurable rate
/// (default 125 MB/s) through this class. A rate of 0 disables throttling.
///
/// Several writers opened against the same TokenBucket share one budget:
/// the configured rate caps their combined output (this is how parallel
/// checkpoint segment writers keep `--ckpt_write_mb_s` an aggregate cap).
///
/// Output leaves in 64 KiB chunks, each charged against the budget just
/// before its write(2): small appends coalesce in a staging buffer (a
/// record serialized as four tiny appends costs no charge and no write
/// of its own), and whole chunks of a large append go straight from the
/// caller's memory. Only Flush/Sync/Close issue a shorter write.
class ThrottledFileWriter {
 public:
  ThrottledFileWriter() = default;
  ~ThrottledFileWriter();

  ThrottledFileWriter(const ThrottledFileWriter&) = delete;
  ThrottledFileWriter& operator=(const ThrottledFileWriter&) = delete;

  /// Opens (creates/truncates) `path`. `max_bytes_per_sec == 0` means
  /// unthrottled. The budget is private to this writer.
  [[nodiscard]] Status Open(const std::string& path,
                            uint64_t max_bytes_per_sec);

  /// Opens (creates/truncates) `path`, drawing bandwidth from `budget`,
  /// which may be shared with other writers. A null budget means
  /// unthrottled. `exclusive` fails the open if the file already exists
  /// (O_CREAT|O_EXCL) instead of truncating it — the command-log
  /// streamer's guarantee that an existing generation is never
  /// clobbered.
  [[nodiscard]] Status Open(const std::string& path,
                            std::shared_ptr<TokenBucket> budget,
                            bool exclusive = false);

  /// Appends `n` bytes, blocking as needed to respect the bandwidth cap.
  [[nodiscard]] Status Append(const void* data, size_t n);

  /// Drains the staging buffer to the OS.
  [[nodiscard]] Status Flush();

  /// Flushes and fsyncs, keeping the file open: the durability barrier
  /// the command-log streamer issues after every batch.
  [[nodiscard]] Status Sync();

  /// Flushes, fsyncs and closes. Safe to call twice.
  [[nodiscard]] Status Close();

  /// Bytes accepted by Append().
  uint64_t bytes_written() const { return bytes_written_; }
  bool is_open() const { return fd_ >= 0; }

 private:
  // Writes p[0..n) to the file in <=64KiB chunks, charging the budget
  // for each chunk before its write so large drains neither overdraw the
  // bucket in one go nor burst ahead of it.
  [[nodiscard]] Status WriteThrottled(const uint8_t* p, size_t n);
  // Writes stage_[0..stage_len_) out and resets it.
  [[nodiscard]] Status DrainStage();
  // Raw fd write loop handling EINTR and short writes.
  [[nodiscard]] Status WriteFd(const uint8_t* p, size_t n);

  int fd_ = -1;
  std::string path_;
  uint64_t bytes_written_ = 0;
  std::shared_ptr<TokenBucket> budget_;

  std::unique_ptr<uint8_t[]> stage_;
  size_t stage_len_ = 0;
};

/// Buffered sequential reader matching ThrottledFileWriter output. Reads
/// are never throttled (recovery should be as fast as the device allows).
class SequentialFileReader {
 public:
  SequentialFileReader() = default;
  ~SequentialFileReader();

  SequentialFileReader(const SequentialFileReader&) = delete;
  SequentialFileReader& operator=(const SequentialFileReader&) = delete;

  /// Opens `path`. A nonzero `read_ahead_bytes` sizes the stdio buffer,
  /// so a stream of tiny ReadExact calls costs one read(2) syscall per
  /// `read_ahead_bytes` of file instead of one per BUFSIZ; 0 keeps the
  /// libc default.
  [[nodiscard]] Status Open(const std::string& path,
                            size_t read_ahead_bytes = 0);

  /// Reads exactly `n` bytes. Returns IOError on short read / EOF.
  [[nodiscard]] Status ReadExact(void* out, size_t n);

  /// Attempts to read up to `n` bytes; sets `*read_n` to the count.
  [[nodiscard]] Status Read(void* out, size_t n, size_t* read_n);

  bool AtEof();
  [[nodiscard]] Status Close();

  uint64_t bytes_read() const { return bytes_read_; }

 private:
  std::FILE* file_ = nullptr;
  uint64_t bytes_read_ = 0;
  char* read_ahead_buf_ = nullptr;  // owned; freed after fclose
};

/// Positional reader for block-at-a-time decoders (the command-log frame
/// decoder, log/log_reader.h): reads at explicit offsets with pread(2),
/// so the caller owns the only buffer and can start anywhere in the file.
/// Reads are never throttled.
class BlockFileReader {
 public:
  BlockFileReader() = default;
  ~BlockFileReader();

  BlockFileReader(const BlockFileReader&) = delete;
  BlockFileReader& operator=(const BlockFileReader&) = delete;

  /// Opens `path` read-only and records its size.
  [[nodiscard]] Status Open(const std::string& path);

  /// Reads up to `n` bytes at `offset`; `*read_n < n` only at end of
  /// file.
  [[nodiscard]] Status ReadAt(uint64_t offset, void* out, size_t n,
                              size_t* read_n);

  /// File size when Open() ran.
  uint64_t size() const { return size_; }

 private:
  int fd_ = -1;
  uint64_t size_ = 0;
};

}  // namespace calcdb

#endif  // CALCDB_UTIL_THROTTLED_FILE_H_
