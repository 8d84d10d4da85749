#include "log/commit_log.h"

#include "log/log_reader.h"
#include "obs/obs.h"
#include "util/crc32.h"
#include "util/throttled_file.h"

namespace calcdb {

uint64_t CommitLog::AppendCommit(uint64_t txn_id, uint32_t proc_id,
                                 std::string args,
                                 const PhaseController* pc,
                                 Phase* commit_phase,
                                 uint64_t* vpoc_count) {
  LogEntry e;
  e.type = LogEntry::Type::kCommit;
  e.txn_id = txn_id;
  e.proc_id = proc_id;
  e.args = std::move(args);
  CALCDB_COUNTER_ADD("calcdb.log.appends", 1);
  // Framed size: len + crc + type + txn_id + proc_id + args_len + args.
  CALCDB_COUNTER_ADD("calcdb.log.bytes",
                     4 + 4 + 1 + 8 + 4 + 4 + e.args.size());
  SpinLatchGuard guard(latch_);
  if (pc != nullptr && commit_phase != nullptr) {
    *commit_phase = pc->current();
  }
  if (vpoc_count != nullptr) *vpoc_count = vpoc_count_;
  entries_.push_back(std::move(e));
  return entries_.size() - 1;
}

uint64_t CommitLog::AppendPhaseTransition(
    Phase phase, uint64_t checkpoint_id, PhaseController* pc,
    const std::function<void()>& under_latch) {
  LogEntry e;
  e.type = LogEntry::Type::kPhaseTransition;
  e.phase = phase;
  e.checkpoint_id = checkpoint_id;
  CALCDB_COUNTER_ADD("calcdb.log.appends", 1);
  CALCDB_COUNTER_ADD("calcdb.log.bytes", 4 + 4 + 1 + 1 + 8);
  if (phase == Phase::kResolve) {
    CALCDB_COUNTER_ADD("calcdb.log.vpoc_tokens", 1);
  }
  CALCDB_TRACE_INSTANT(PhaseName(phase), "phase_token", checkpoint_id);
  SpinLatchGuard guard(latch_);
  if (phase == Phase::kResolve) ++vpoc_count_;
  if (under_latch) under_latch();
  if (pc != nullptr) pc->SetPhase(phase);
  phase_marks_.push_back(
      PhaseTokenMark{checkpoint_id, phase, entries_.size()});
  entries_.push_back(std::move(e));
  return entries_.size() - 1;
}

uint64_t CommitLog::VpocCount() const {
  SpinLatchGuard guard(latch_);
  return vpoc_count_;
}

uint64_t CommitLog::Size() const {
  SpinLatchGuard guard(latch_);
  return entries_.size();
}

uint64_t CommitLog::CommitCount() const {
  SpinLatchGuard guard(latch_);
  // Every entry that is not a phase token is a commit.
  return entries_.size() - phase_marks_.size();
}

LogEntry CommitLog::Entry(uint64_t lsn) const {
  SpinLatchGuard guard(latch_);
  return entries_.at(lsn);
}

std::vector<LogEntry> CommitLog::CommitsAfter(uint64_t after_lsn) const {
  return CommitsFrom(after_lsn + 1);
}

std::vector<LogEntry> CommitLog::CommitsFrom(uint64_t from_lsn) const {
  SpinLatchGuard guard(latch_);
  std::vector<LogEntry> out;
  for (uint64_t i = from_lsn; i < entries_.size(); ++i) {
    if (entries_[i].type == LogEntry::Type::kCommit) {
      out.push_back(entries_[i]);
    }
  }
  return out;
}

const PhaseTokenMark* FindPhaseMark(const std::vector<PhaseTokenMark>& marks,
                                    uint64_t checkpoint_id, Phase phase) {
  for (const PhaseTokenMark& mark : marks) {
    if (mark.checkpoint_id == checkpoint_id && mark.phase == phase) {
      return &mark;
    }
  }
  return nullptr;
}

bool CommitLog::FindPhaseToken(uint64_t checkpoint_id, Phase phase,
                               uint64_t* lsn) const {
  SpinLatchGuard guard(latch_);
  const PhaseTokenMark* mark =
      FindPhaseMark(phase_marks_, checkpoint_id, phase);
  if (mark == nullptr) return false;
  *lsn = mark->lsn;
  return true;
}

namespace {

void PutU32(std::string* out, uint32_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}
void PutU64(std::string* out, uint64_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

}  // namespace

void CommitLog::EncodeEntry(const LogEntry& e, std::string* out) {
  std::string buf;
  buf.push_back(static_cast<char>(e.type));
  if (e.type == LogEntry::Type::kCommit) {
    PutU64(&buf, e.txn_id);
    PutU32(&buf, e.proc_id);
    PutU32(&buf, static_cast<uint32_t>(e.args.size()));
    buf.append(e.args);
  } else {
    buf.push_back(static_cast<char>(e.phase));
    PutU64(&buf, e.checkpoint_id);
  }
  uint32_t len = static_cast<uint32_t>(buf.size());
  uint32_t crc = Crc32(buf.data(), buf.size());
  out->append(reinterpret_cast<const char*>(&len), sizeof(len));
  out->append(reinterpret_cast<const char*>(&crc), sizeof(crc));
  out->append(buf);
}

Status CommitLog::PersistTo(const std::string& path) const {
  ThrottledFileWriter writer;
  CALCDB_RETURN_NOT_OK(writer.Open(path, /*max_bytes_per_sec=*/0));
  SpinLatchGuard guard(latch_);
  for (const LogEntry& e : entries_) {
    std::string framed;
    EncodeEntry(e, &framed);
    CALCDB_RETURN_NOT_OK(writer.Append(framed.data(), framed.size()));
  }
  return writer.Close();
}

Status CommitLog::LoadFrom(const std::string& path, size_t block_bytes) {
  LogFrameReader reader;
  CALCDB_RETURN_NOT_OK(reader.Open(path, block_bytes));
  std::deque<LogEntry> loaded;
  std::vector<PhaseTokenMark> marks;
  LogFrame frame;
  for (bool done = false;;) {
    // A torn final entry (crash mid-append while streaming) ends the
    // decode: the complete prefix is exactly the set of transactions
    // whose commit made it to stable storage.
    CALCDB_RETURN_NOT_OK(reader.Next(&frame, &done));
    if (done) break;
    if (frame.type == LogEntry::Type::kPhaseTransition) {
      marks.push_back(PhaseTokenMark{frame.checkpoint_id, frame.phase,
                                     loaded.size(), frame.end_offset});
    }
    loaded.push_back(frame.ToEntry());
  }
  SpinLatchGuard guard(latch_);
  entries_ = std::move(loaded);
  phase_marks_ = std::move(marks);
  return Status::OK();
}

}  // namespace calcdb
