#include "log/log_reader.h"

#include <cstring>

#include "util/crc32.h"

namespace calcdb {

namespace {

constexpr size_t kHeaderBytes = CommitLog::kFrameHeaderBytes;
constexpr uint32_t kMaxFrameBytes = 1u << 30;
constexpr uint64_t kCommitFixedBytes = CommitLog::kCommitFixedBytes;
constexpr uint64_t kPhaseBytes = CommitLog::kPhasePayloadBytes;

}  // namespace

LogEntry LogFrame::ToEntry() const {
  LogEntry e;
  e.type = type;
  e.txn_id = txn_id;
  e.proc_id = proc_id;
  e.args.assign(args.data(), args.size());
  e.phase = phase;
  e.checkpoint_id = checkpoint_id;
  return e;
}

Status LogFrameReader::Open(const std::string& path, size_t block_bytes,
                            uint64_t offset) {
  CALCDB_RETURN_NOT_OK(file_.Open(path));
  buf_.resize(block_bytes != 0 ? block_bytes : kDefaultBlockBytes);
  begin_ = 0;
  end_ = 0;
  buf_offset_ = offset;
  bytes_read_ = 0;
  return Status::OK();
}

Status LogFrameReader::Fill(size_t n, bool* ok) {
  if (end_ - begin_ < n && begin_ + n > buf_.size()) {
    // The frame straddles the end of the buffer: shift its start to the
    // front, growing the buffer when one frame outgrows the block.
    size_t have = end_ - begin_;
    std::memmove(buf_.data(), buf_.data() + begin_, have);
    buf_offset_ += begin_;
    begin_ = 0;
    end_ = have;
    if (n > buf_.size()) buf_.resize(n);
  }
  while (end_ - begin_ < n) {
    size_t want = buf_.size() - end_;
    size_t got = 0;
    CALCDB_RETURN_NOT_OK(
        file_.ReadAt(buf_offset_ + end_, buf_.data() + end_, want, &got));
    bytes_read_ += got;
    end_ += got;
    if (got < want) break;  // end of file
  }
  *ok = end_ - begin_ >= n;
  return Status::OK();
}

Status LogFrameReader::Next(LogFrame* frame, bool* done) {
  *done = false;
  bool ok = false;
  CALCDB_RETURN_NOT_OK(Fill(kHeaderBytes, &ok));
  if (!ok) {  // clean end of file, or a torn header
    *done = true;
    return Status::OK();
  }
  uint32_t len = 0, crc = 0;
  std::memcpy(&len, buf_.data() + begin_, 4);
  std::memcpy(&crc, buf_.data() + begin_ + 4, 4);
  if (len == 0 || len > kMaxFrameBytes) {
    return Status::Corruption("commit log entry length");
  }
  // A payload running past the end of the file is a torn final frame:
  // stop before sizing the buffer for a length that was never written.
  if (buf_offset_ + begin_ + kHeaderBytes + len > file_.size()) {
    *done = true;
    return Status::OK();
  }
  CALCDB_RETURN_NOT_OK(Fill(kHeaderBytes + len, &ok));
  if (!ok) {
    *done = true;
    return Status::OK();
  }
  const char* p = buf_.data() + begin_ + kHeaderBytes;
  if (Crc32(p, len) != crc) {
    return Status::Corruption("commit log entry crc mismatch");
  }
  LogFrame out;
  out.type = static_cast<LogEntry::Type>(p[0]);
  if (out.type == LogEntry::Type::kCommit) {
    uint32_t args_len = 0;
    if (len >= kCommitFixedBytes) {
      std::memcpy(&out.txn_id, p + 1, 8);
      std::memcpy(&out.proc_id, p + 9, 4);
      std::memcpy(&args_len, p + 13, 4);
    }
    if (len < kCommitFixedBytes || kCommitFixedBytes + args_len != len) {
      return Status::Corruption("commit entry size mismatch");
    }
    out.args = std::string_view(p + kCommitFixedBytes, args_len);
  } else if (out.type == LogEntry::Type::kPhaseTransition) {
    if (len < kPhaseBytes) {
      return Status::Corruption("phase entry size mismatch");
    }
    out.phase = static_cast<Phase>(p[1]);
    std::memcpy(&out.checkpoint_id, p + 2, 8);
  } else {
    return Status::Corruption("unknown commit log entry type");
  }
  begin_ += kHeaderBytes + len;
  out.end_offset = buf_offset_ + begin_;
  *frame = out;
  return Status::OK();
}

Status ScanLogFile(const std::string& path, size_t block_bytes,
                   LogScan* scan) {
  *scan = LogScan{};
  LogFrameReader reader;
  CALCDB_RETURN_NOT_OK(reader.Open(path, block_bytes));
  LogFrame frame;
  for (bool done = false;;) {
    CALCDB_RETURN_NOT_OK(reader.Next(&frame, &done));
    if (done) break;
    if (frame.type == LogEntry::Type::kCommit) {
      ++scan->commits;
    } else {
      scan->tokens.push_back(PhaseTokenMark{frame.checkpoint_id, frame.phase,
                                            scan->entries, frame.end_offset});
    }
    ++scan->entries;
  }
  scan->bytes_read = reader.bytes_read();
  return Status::OK();
}

Status CollectCommits(const std::string& path, size_t block_bytes,
                      uint64_t offset, std::vector<LogEntry>* commits,
                      uint64_t* bytes_read) {
  LogFrameReader reader;
  CALCDB_RETURN_NOT_OK(reader.Open(path, block_bytes, offset));
  LogFrame frame;
  for (bool done = false;;) {
    CALCDB_RETURN_NOT_OK(reader.Next(&frame, &done));
    if (done) break;
    if (frame.type == LogEntry::Type::kCommit) {
      commits->push_back(frame.ToEntry());
    }
  }
  *bytes_read += reader.bytes_read();
  return Status::OK();
}

}  // namespace calcdb
