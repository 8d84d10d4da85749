#ifndef CALCDB_CHECKPOINT_CKPT_FILE_H_
#define CALCDB_CHECKPOINT_CKPT_FILE_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>

#include "util/crc32.h"
#include "util/status.h"
#include "util/throttled_file.h"

namespace calcdb {

/// Whether a checkpoint contains the complete database or only records
/// changed since the previous checkpoint (paper §2.3).
enum class CheckpointType : uint8_t {
  kFull = 0,
  kPartial = 1,
};

/// On-disk checkpoint file layout:
///
///   header : magic(8) version(u32) type(u8) id(u64) vpoc_lsn(u64)
///   entry* : key(u64) flags(u8) [len(u32) bytes]      (flags bit0 = tombstone)
///   footer : sentinel key(0xFFFFFFFFFFFFFFFF) flags(0xFF)
///            count(u64) crc32(u32)   (crc over all entry bytes)
///
/// version 1 checksums entry bytes with CRC-32/ISO-HDLC; version 2 is the
/// same byte layout with CRC-32C. The writer produces only version 1; the
/// reader dispatches on the header version, so files of both versions
/// still load.
///
/// Tombstone entries appear only in partial checkpoints; they record
/// deletions so that merging partials does not resurrect dead keys.
struct CheckpointEntry {
  uint64_t key = 0;
  bool tombstone = false;
  std::string value;
};

/// How a CheckpointFileWriter ships blocks. No setting changes the
/// byte stream: the writer always produces format v1 (CRC-32); the
/// block size and the I/O thread only change how the bytes reach the
/// file.
struct CheckpointWriterOptions {
  /// Shared bandwidth budget; null means unthrottled.
  std::shared_ptr<TokenBucket> budget;

  /// Serialization block size: entries accumulate in an in-memory block
  /// until it reaches this size, then the whole block goes to the file
  /// as one append (one token charge + one write instead of four per
  /// record).
  size_t block_bytes = 256 * 1024;

  /// Run file I/O on a dedicated thread with two blocks in flight: the
  /// capture thread serializes into one while the I/O thread drains the
  /// other through the token bucket. Errors surface from Append/Finish.
  bool async_io = false;
};

/// Sequential checkpoint writer. Entries are serialized into large blocks
/// and checksummed with one bulk CRC per entry; blocks flow through a
/// bandwidth-throttled file (see ThrottledFileWriter) so checkpoint
/// capture is disk-bandwidth-bound, as in the paper's testbed —
/// optionally on a dedicated I/O thread (CheckpointWriterOptions).
class CheckpointFileWriter {
 public:
  CheckpointFileWriter() = default;
  ~CheckpointFileWriter();
  CheckpointFileWriter(const CheckpointFileWriter&) = delete;
  CheckpointFileWriter& operator=(const CheckpointFileWriter&) = delete;

  [[nodiscard]] Status Open(const std::string& path, CheckpointType type,
                            uint64_t id, uint64_t vpoc_lsn,
                            uint64_t max_bytes_per_sec);

  /// As above, but drawing bandwidth from `budget` (which may be shared
  /// with other writers — e.g. sibling segment writers of one parallel
  /// capture — so the configured rate caps their combined output).
  [[nodiscard]] Status Open(const std::string& path, CheckpointType type,
                            uint64_t id, uint64_t vpoc_lsn,
                            std::shared_ptr<TokenBucket> budget);

  /// Full-control open; see CheckpointWriterOptions.
  [[nodiscard]] Status Open(const std::string& path, CheckpointType type,
                            uint64_t id, uint64_t vpoc_lsn,
                            CheckpointWriterOptions options);

  [[nodiscard]] Status Append(uint64_t key, std::string_view value);
  [[nodiscard]] Status AppendTombstone(uint64_t key);

  /// Writes the footer, drains outstanding blocks (joining the I/O
  /// thread in async mode — any error it hit surfaces here), fsyncs and
  /// closes. The checkpoint is durable and loadable only after Finish
  /// succeeds — a crash mid-write leaves a file the reader rejects.
  [[nodiscard]] Status Finish();

  uint64_t entries_written() const { return count_; }

  /// Logical bytes serialized so far (equals the file size once Finish
  /// returns). Tracked on the capture side, so safe to read while an
  /// async I/O thread is writing.
  uint64_t bytes_written() const { return bytes_out_ + block_.size(); }

 private:
  // Fires the ckpt_file.block probe and writes one sealed block to the
  // file. Runs on the I/O thread in async mode.
  [[nodiscard]] Status WriteBlock(const std::string& block);
  // Hands the filled block_ to the file (sync) or the I/O thread
  // (async), leaving block_ empty with capacity.
  [[nodiscard]] Status SealBlock();
  // Serializer: appends raw bytes to block_, sealing when it fills.
  [[nodiscard]] Status BlockAppend(const void* data, size_t n);
  // Signals the I/O thread to finish and joins it (idempotent).
  void StopAsync();

  void IoThreadMain();

  ThrottledFileWriter writer_;
  CheckpointWriterOptions options_;
  uint64_t count_ = 0;
  uint32_t crc_ = 0;
  std::string block_;       // capture-side block being filled
  uint64_t bytes_out_ = 0;  // bytes sealed out of block_

  // Async state: all fields below mu_ are shared with the I/O thread.
  std::thread io_thread_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::string pending_;  // sealed block awaiting write ("" when idle)
  bool has_pending_ = false;
  bool stop_ = false;
  Status io_status_;  // first I/O-thread error, surfaced by Finish
};

/// Sequential checkpoint reader; validates the footer checksum with the
/// checksum kind the file's header version names.
class CheckpointFileReader {
 public:
  CheckpointFileReader() = default;
  CheckpointFileReader(const CheckpointFileReader&) = delete;
  CheckpointFileReader& operator=(const CheckpointFileReader&) = delete;

  /// Entry scans read through a 1 MiB read-ahead buffer, so they issue
  /// large sequential read(2) calls instead of one per BUFSIZ.
  [[nodiscard]] Status Open(const std::string& path);

  CheckpointType type() const { return type_; }
  uint64_t id() const { return id_; }
  uint64_t vpoc_lsn() const { return vpoc_lsn_; }

  /// Reads the next entry. Sets `*eof` when the (validated) footer is
  /// reached; the entry is valid only when `*eof` is false.
  [[nodiscard]] Status Next(CheckpointEntry* entry, bool* eof);

  /// Convenience: iterates every entry through `fn` and validates the
  /// footer. `fn` returning non-OK aborts the scan.
  [[nodiscard]] Status ReadAll(
      const std::function<Status(const CheckpointEntry&)>& fn);

 private:
  SequentialFileReader reader_;
  std::string path_;
  CheckpointType type_ = CheckpointType::kFull;
  ChecksumKind checksum_ = ChecksumKind::kCrc32;
  uint64_t id_ = 0;
  uint64_t vpoc_lsn_ = 0;
  uint64_t count_seen_ = 0;
  uint32_t crc_ = 0;
};

}  // namespace calcdb

#endif  // CALCDB_CHECKPOINT_CKPT_FILE_H_
