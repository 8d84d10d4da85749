#ifndef CALCDB_LOG_LOG_READER_H_
#define CALCDB_LOG_LOG_READER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "checkpoint/phase.h"
#include "log/commit_log.h"
#include "util/status.h"
#include "util/throttled_file.h"

namespace calcdb {

/// One decoded command-log frame. `args` views the decoder's buffer and
/// stays valid only until the next LogFrameReader::Next call.
struct LogFrame {
  LogEntry::Type type = LogEntry::Type::kCommit;
  uint64_t txn_id = 0;          ///< commit frames
  uint32_t proc_id = 0;         ///< commit frames
  std::string_view args;        ///< commit frames
  Phase phase = Phase::kRest;   ///< phase frames
  uint64_t checkpoint_id = 0;   ///< phase frames
  uint64_t end_offset = 0;      ///< file offset just past this frame

  /// An owning copy, as CommitLog stores entries.
  LogEntry ToEntry() const;
};

/// The one decoder for the persisted command-log framing written by
/// CommitLog::EncodeEntry: `[u32 len][u32 crc32(payload)][payload]`.
///
/// Streams the file through one reused block buffer; a frame that
/// straddles a block boundary is shifted to the buffer's front and
/// completed by the next read, and a frame larger than the block grows
/// the buffer to fit it. Every frame is validated the same way:
///
///   - a zero length or one above 1 GiB is Corruption;
///   - a payload whose CRC32 disagrees is Corruption;
///   - a commit whose fixed fields + args length disagree with the frame
///     length, or a phase frame too short for its fields, is Corruption;
///   - an unknown type byte is Corruption;
///   - a short header or payload at the end of the file is a torn final
///     frame (a crash mid-append): decoding stops there and the complete
///     prefix is the log.
class LogFrameReader {
 public:
  /// Block size when the caller passes 0.
  static constexpr size_t kDefaultBlockBytes = 64 << 10;

  LogFrameReader() = default;
  LogFrameReader(const LogFrameReader&) = delete;
  LogFrameReader& operator=(const LogFrameReader&) = delete;

  /// Opens `path` positioned at byte `offset`, which must be a frame
  /// boundary (0, or an end_offset from an earlier decode of the same
  /// file). `block_bytes` sizes each read (0: kDefaultBlockBytes).
  [[nodiscard]] Status Open(const std::string& path, size_t block_bytes,
                            uint64_t offset = 0);

  /// Decodes and validates the next frame. At the end of the log (clean
  /// end of file or torn final frame) sets `*done` and leaves `*frame`
  /// untouched.
  [[nodiscard]] Status Next(LogFrame* frame, bool* done);

  /// Bytes read from the file so far.
  uint64_t bytes_read() const { return bytes_read_; }

 private:
  /// Makes `n` bytes available at buf_[begin_]; false if the file ends
  /// first.
  [[nodiscard]] Status Fill(size_t n, bool* ok);

  BlockFileReader file_;
  std::vector<char> buf_;
  size_t begin_ = 0;        ///< first undecoded byte in buf_
  size_t end_ = 0;          ///< one past the last valid byte in buf_
  uint64_t buf_offset_ = 0;  ///< file offset of buf_[0]
  uint64_t bytes_read_ = 0;
};

/// What the validation scan keeps of one generation file: counts and the
/// phase-token side index, never the entries.
struct LogScan {
  uint64_t entries = 0;
  uint64_t commits = 0;
  std::vector<PhaseTokenMark> tokens;  ///< in LSN order
  uint64_t bytes_read = 0;
};

/// Validates every frame of `path` (LogFrameReader rules) and fills
/// `*scan`. Returns Corruption on damage; a torn final frame ends the
/// scan cleanly.
[[nodiscard]] Status ScanLogFile(const std::string& path, size_t block_bytes,
                                 LogScan* scan);

/// Decodes the commit entries of `path` from byte `offset` (a frame
/// boundary, e.g. PhaseTokenMark::next_offset) to the end of the log and
/// appends them to `*commits` in LSN order. Adds the bytes read to
/// `*bytes_read`.
[[nodiscard]] Status CollectCommits(const std::string& path,
                                    size_t block_bytes, uint64_t offset,
                                    std::vector<LogEntry>* commits,
                                    uint64_t* bytes_read);

}  // namespace calcdb

#endif  // CALCDB_LOG_LOG_READER_H_
