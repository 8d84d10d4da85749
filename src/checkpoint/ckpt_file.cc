#include "checkpoint/ckpt_file.h"

#include <cstring>
#include <mutex>
#include <thread>
#include <utility>

#include "obs/obs.h"
#include "util/fault_injection.h"

namespace calcdb {

namespace {

constexpr char kMagic[8] = {'C', 'A', 'L', 'C', 'K', 'P', 'T', '1'};
constexpr uint32_t kVersionCrc32 = 1;   ///< entry crc = CRC-32/ISO-HDLC
constexpr uint32_t kVersionCrc32c = 2;  ///< entry crc = CRC-32C
constexpr size_t kReadAheadBytes = 1 << 20;
constexpr uint64_t kFooterKey = ~uint64_t{0};
constexpr uint8_t kFooterFlags = 0xFF;
constexpr uint8_t kTombstoneFlag = 0x01;

}  // namespace

CheckpointFileWriter::~CheckpointFileWriter() {
  // Error paths may drop the writer without Finish(); the I/O thread must
  // be joined before writer_ (and the blocks it reads) are destroyed.
  StopAsync();
}

Status CheckpointFileWriter::Open(const std::string& path,
                                  CheckpointType type, uint64_t id,
                                  uint64_t vpoc_lsn,
                                  uint64_t max_bytes_per_sec) {
  CheckpointWriterOptions options;
  if (max_bytes_per_sec != 0) {
    options.budget = std::make_shared<TokenBucket>(max_bytes_per_sec);
  }
  return Open(path, type, id, vpoc_lsn, std::move(options));
}

Status CheckpointFileWriter::Open(const std::string& path,
                                  CheckpointType type, uint64_t id,
                                  uint64_t vpoc_lsn,
                                  std::shared_ptr<TokenBucket> budget) {
  CheckpointWriterOptions options;
  options.budget = std::move(budget);
  return Open(path, type, id, vpoc_lsn, std::move(options));
}

Status CheckpointFileWriter::Open(const std::string& path,
                                  CheckpointType type, uint64_t id,
                                  uint64_t vpoc_lsn,
                                  CheckpointWriterOptions options) {
  CALCDB_RETURN_NOT_OK(writer_.Open(path, options.budget));
  options_ = std::move(options);
  if (options_.block_bytes == 0) options_.block_bytes = 256 * 1024;
  count_ = 0;
  crc_ = 0;
  bytes_out_ = 0;
  block_.clear();
  block_.reserve(options_.block_bytes);
  if (options_.async_io) {
    has_pending_ = false;
    stop_ = false;
    io_status_ = Status::OK();
    pending_.clear();
    io_thread_ = std::thread(&CheckpointFileWriter::IoThreadMain, this);
  }
  // A crash here leaves an empty (headerless) file: recovery must reject
  // it as torn, not corrupt.
  CALCDB_FAULT_POINT("ckpt_file.header");
  block_.append(kMagic, sizeof(kMagic));
  block_.append(reinterpret_cast<const char*>(&kVersionCrc32),
                sizeof(kVersionCrc32));
  uint8_t t = static_cast<uint8_t>(type);
  block_.append(reinterpret_cast<const char*>(&t), sizeof(t));
  block_.append(reinterpret_cast<const char*>(&id), sizeof(id));
  block_.append(reinterpret_cast<const char*>(&vpoc_lsn),
                sizeof(vpoc_lsn));
  if (block_.size() >= options_.block_bytes) return SealBlock();
  return Status::OK();
}

Status CheckpointFileWriter::WriteBlock(const std::string& block) {
  // In async mode this probe fires on the I/O thread: a crash here is a
  // death mid-drain with the capture thread still serializing, and an
  // injected error must travel through io_status_ back to Finish().
  CALCDB_FAULT_POINT("ckpt_file.block");
  return writer_.Append(block.data(), block.size());
}

Status CheckpointFileWriter::SealBlock() {
  if (block_.empty()) return Status::OK();
  bytes_out_ += block_.size();
  if (!options_.async_io) {
    Status st = WriteBlock(block_);
    block_.clear();
    return st;
  }
  // Double buffer: wait until the I/O thread has taken the previous
  // block, then hand over this one. The swapped-in string is a drained
  // block whose capacity gets reused.
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] { return !has_pending_ || !io_status_.ok(); });
  if (!io_status_.ok()) return io_status_;
  pending_.swap(block_);
  has_pending_ = true;
  cv_.notify_all();
  block_.clear();
  return Status::OK();
}

void CheckpointFileWriter::IoThreadMain() {
  std::string local;
  for (;;) {
    bool failed;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] { return has_pending_ || stop_; });
      if (!has_pending_) break;  // stop requested and queue drained
      local.swap(pending_);
      has_pending_ = false;
      failed = !io_status_.ok();
      cv_.notify_all();
    }
    // After the first error, keep consuming (and discarding) blocks so a
    // capture thread blocked in SealBlock always wakes up.
    Status st = failed ? Status::OK() : WriteBlock(local);
    local.clear();
    if (!st.ok()) {
      std::lock_guard<std::mutex> lock(mu_);
      if (io_status_.ok()) io_status_ = st;
      cv_.notify_all();
    }
  }
}

void CheckpointFileWriter::StopAsync() {
  if (!io_thread_.joinable()) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
    cv_.notify_all();
  }
  io_thread_.join();
}

Status CheckpointFileWriter::BlockAppend(const void* data, size_t n) {
  block_.append(static_cast<const char*>(data), n);
  if (block_.size() >= options_.block_bytes) return SealBlock();
  return Status::OK();
}

Status CheckpointFileWriter::Append(uint64_t key, std::string_view value) {
  CALCDB_FAULT_POINT("ckpt_file.body");
  // Serialize the whole entry contiguously into the block, then checksum
  // it with one bulk CRC call — the entry never splits across a seal, so
  // the hot loop is one table-driven (or hardware) pass per record.
  size_t entry_start = block_.size();
  block_.append(reinterpret_cast<const char*>(&key), sizeof(key));
  uint8_t flags = 0;
  block_.append(reinterpret_cast<const char*>(&flags), sizeof(flags));
  uint32_t len = static_cast<uint32_t>(value.size());
  block_.append(reinterpret_cast<const char*>(&len), sizeof(len));
  block_.append(value.data(), value.size());
  crc_ = Crc32(block_.data() + entry_start, block_.size() - entry_start,
               crc_);
  ++count_;
  if (block_.size() >= options_.block_bytes) return SealBlock();
  return Status::OK();
}

Status CheckpointFileWriter::AppendTombstone(uint64_t key) {
  CALCDB_FAULT_POINT("ckpt_file.body");
  size_t entry_start = block_.size();
  block_.append(reinterpret_cast<const char*>(&key), sizeof(key));
  uint8_t flags = kTombstoneFlag;
  block_.append(reinterpret_cast<const char*>(&flags), sizeof(flags));
  crc_ = Crc32(block_.data() + entry_start, block_.size() - entry_start,
               crc_);
  ++count_;
  if (block_.size() >= options_.block_bytes) return SealBlock();
  return Status::OK();
}

Status CheckpointFileWriter::Finish() {
  // Dying before the footer leaves a torn-but-headered file; dying after
  // the footer but before Close's fsync leaves a file whose bytes may or
  // may not have reached disk — either way recovery must fall back to
  // the previous chain, never report Corruption.
  CALCDB_FAULT_POINT("ckpt_file.footer");
  CALCDB_RETURN_NOT_OK(BlockAppend(&kFooterKey, sizeof(kFooterKey)));
  CALCDB_RETURN_NOT_OK(BlockAppend(&kFooterFlags, sizeof(kFooterFlags)));
  CALCDB_RETURN_NOT_OK(BlockAppend(&count_, sizeof(count_)));
  CALCDB_RETURN_NOT_OK(BlockAppend(&crc_, sizeof(crc_)));
  Status st = SealBlock();
  if (options_.async_io) {
    StopAsync();
    // The join above orders io_status_ before this read.
    if (st.ok()) st = io_status_;
  }
  if (!st.ok()) {
    // calcdb-status-ignored: the first error wins; Close here is cleanup
    // of a checkpoint that will be discarded.
    (void)writer_.Close();
    return st;
  }
  CALCDB_FAULT_POINT("ckpt_file.fsync");
  return writer_.Close();
}

Status CheckpointFileReader::Open(const std::string& path) {
  CALCDB_RETURN_NOT_OK(reader_.Open(path, kReadAheadBytes));
  path_ = path;
  char magic[8];
  CALCDB_RETURN_NOT_OK(reader_.ReadExact(magic, sizeof(magic)));
  if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::Corruption("bad checkpoint magic: " + path);
  }
  uint32_t version;
  CALCDB_RETURN_NOT_OK(reader_.ReadExact(&version, sizeof(version)));
  if (version == kVersionCrc32) {
    checksum_ = ChecksumKind::kCrc32;
  } else if (version == kVersionCrc32c) {
    checksum_ = ChecksumKind::kCrc32c;
  } else {
    return Status::Corruption("unsupported checkpoint version");
  }
  uint8_t t;
  CALCDB_RETURN_NOT_OK(reader_.ReadExact(&t, sizeof(t)));
  type_ = static_cast<CheckpointType>(t);
  CALCDB_RETURN_NOT_OK(reader_.ReadExact(&id_, sizeof(id_)));
  CALCDB_RETURN_NOT_OK(reader_.ReadExact(&vpoc_lsn_, sizeof(vpoc_lsn_)));
  count_seen_ = 0;
  crc_ = 0;
  return Status::OK();
}

Status CheckpointFileReader::Next(CheckpointEntry* entry, bool* eof) {
  *eof = false;
  uint64_t key;
  uint8_t flags;
  CALCDB_RETURN_NOT_OK(reader_.ReadExact(&key, sizeof(key)));
  CALCDB_RETURN_NOT_OK(reader_.ReadExact(&flags, sizeof(flags)));
  if (key == kFooterKey && flags == kFooterFlags) {
    uint64_t count;
    uint32_t crc;
    CALCDB_RETURN_NOT_OK(reader_.ReadExact(&count, sizeof(count)));
    CALCDB_RETURN_NOT_OK(reader_.ReadExact(&crc, sizeof(crc)));
    if (count != count_seen_) {
      CALCDB_ERROR("ckpt.crc_mismatch", "ckpt", path_,
                   {"offset",
                    static_cast<int64_t>(reader_.bytes_read())},
                   {"entries", static_cast<int64_t>(count_seen_)});
      return Status::Corruption("checkpoint entry count mismatch");
    }
    if (crc != crc_) {
      CALCDB_ERROR("ckpt.crc_mismatch", "ckpt", path_,
                   {"offset",
                    static_cast<int64_t>(reader_.bytes_read())},
                   {"entries", static_cast<int64_t>(count_seen_)});
      return Status::Corruption("checkpoint crc mismatch");
    }
    *eof = true;
    return Status::OK();
  }
  crc_ = ChecksumRun(checksum_, &key, sizeof(key), crc_);
  crc_ = ChecksumRun(checksum_, &flags, sizeof(flags), crc_);
  entry->key = key;
  entry->tombstone = (flags & kTombstoneFlag) != 0;
  entry->value.clear();
  if (!entry->tombstone) {
    uint32_t len;
    CALCDB_RETURN_NOT_OK(reader_.ReadExact(&len, sizeof(len)));
    crc_ = ChecksumRun(checksum_, &len, sizeof(len), crc_);
    if (len > (1u << 30)) return Status::Corruption("entry too large");
    entry->value.resize(len);
    CALCDB_RETURN_NOT_OK(reader_.ReadExact(entry->value.data(), len));
    crc_ = ChecksumRun(checksum_, entry->value.data(), len, crc_);
  }
  ++count_seen_;
  return Status::OK();
}

Status CheckpointFileReader::ReadAll(
    const std::function<Status(const CheckpointEntry&)>& fn) {
  CheckpointEntry entry;
  bool eof = false;
  for (;;) {
    CALCDB_RETURN_NOT_OK(Next(&entry, &eof));
    if (eof) return Status::OK();
    CALCDB_RETURN_NOT_OK(fn(entry));
  }
}

}  // namespace calcdb
