#include "log/commit_log.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "log/log_reader.h"
#include "obs/obs.h"
#include "util/crc32.h"
#include "util/throttled_file.h"

namespace calcdb {

/// One entry's fixed fields; commit args live in the chunk's arena.
struct CommitLog::Slot {
  uint64_t id;           ///< commit: txn_id; phase token: checkpoint_id
  uint32_t proc_id;      ///< commit entries
  uint32_t args_offset;  ///< commit entries: offset into the arena
  uint32_t args_len;     ///< commit entries
  LogEntry::Type type;
  Phase phase;           ///< phase entries
};

/// A run of consecutive entries starting at `first_lsn`. Only the append
/// path writes a chunk, and only past `used` / `arena_used`: everything
/// below them is immutable.
struct CommitLog::Chunk {
  Chunk(uint64_t first, uint32_t arena_bytes)
      : first_lsn(first),
        arena_capacity(arena_bytes),
        slots(new Slot[kChunkSlots]),
        arena(new char[arena_bytes]) {}

  uint64_t end_lsn() const { return first_lsn + used; }
  bool Fits(size_t args_len) const {
    return used < kChunkSlots && args_len <= arena_capacity - arena_used;
  }
  std::string_view Args(const Slot& s) const {
    return std::string_view(arena.get() + s.args_offset, s.args_len);
  }
  /// An owning copy of slot `k`.
  LogEntry Entry(uint32_t k) const;
  /// Appends the on-disk framing of slot `k` to `*out`.
  void Encode(uint32_t k, std::string* out) const;

  const uint64_t first_lsn;
  const uint32_t arena_capacity;
  uint32_t used = 0;
  uint32_t arena_used = 0;
  const std::unique_ptr<Slot[]> slots;
  const std::unique_ptr<char[]> arena;
};

namespace {

void PutU32(char* p, uint32_t v) { std::memcpy(p, &v, sizeof(v)); }
void PutU64(char* p, uint64_t v) { std::memcpy(p, &v, sizeof(v)); }

/// Grows `*out` by one frame with a `payload_len`-byte payload and
/// returns the payload's first byte; SealFrame fills in the header.
char* OpenFrame(std::string* out, uint64_t payload_len) {
  size_t at = out->size();
  out->resize(at + CommitLog::kFrameHeaderBytes + payload_len);
  return out->data() + at + CommitLog::kFrameHeaderBytes;
}

void SealFrame(char* payload, uint64_t payload_len) {
  PutU32(payload - 8, static_cast<uint32_t>(payload_len));
  PutU32(payload - 4, Crc32(payload, payload_len));
}

void EncodeCommit(uint64_t txn_id, uint32_t proc_id, std::string_view args,
                  std::string* out) {
  const uint64_t len = CommitLog::kCommitFixedBytes + args.size();
  char* p = OpenFrame(out, len);
  p[0] = static_cast<char>(LogEntry::Type::kCommit);
  PutU64(p + 1, txn_id);
  PutU32(p + 9, proc_id);
  PutU32(p + 13, static_cast<uint32_t>(args.size()));
  if (!args.empty()) {
    std::memcpy(p + CommitLog::kCommitFixedBytes, args.data(), args.size());
  }
  SealFrame(p, len);
}

void EncodePhase(Phase phase, uint64_t checkpoint_id, std::string* out) {
  char* p = OpenFrame(out, CommitLog::kPhasePayloadBytes);
  p[0] = static_cast<char>(LogEntry::Type::kPhaseTransition);
  p[1] = static_cast<char>(phase);
  PutU64(p + 2, checkpoint_id);
  SealFrame(p, CommitLog::kPhasePayloadBytes);
}

}  // namespace

LogEntry CommitLog::Chunk::Entry(uint32_t k) const {
  const Slot& s = slots[k];
  LogEntry e;
  e.type = s.type;
  if (s.type == LogEntry::Type::kCommit) {
    e.txn_id = s.id;
    e.proc_id = s.proc_id;
    e.args.assign(Args(s));
  } else {
    e.phase = s.phase;
    e.checkpoint_id = s.id;
  }
  return e;
}

void CommitLog::Chunk::Encode(uint32_t k, std::string* out) const {
  const Slot& s = slots[k];
  if (s.type == LogEntry::Type::kCommit) {
    EncodeCommit(s.id, s.proc_id, Args(s), out);
  } else {
    EncodePhase(s.phase, s.id, out);
  }
}

void CommitLog::PushEntry(ChunkList* chunks, uint64_t lsn,
                          LogEntry::Type type, uint64_t id, uint32_t proc_id,
                          Phase phase, std::string_view args) {
  static_assert(sizeof(Slot) == 24, "keep the per-entry slot compact");
  if (chunks->empty() || !chunks->back()->Fits(args.size())) {
    chunks->push_back(std::make_shared<Chunk>(
        lsn, static_cast<uint32_t>(
                 std::max<size_t>(kChunkArenaBytes, args.size()))));
  }
  Chunk& c = *chunks->back();
  Slot& slot = c.slots[c.used++];
  slot.id = id;
  slot.proc_id = proc_id;
  slot.args_offset = c.arena_used;
  slot.args_len = static_cast<uint32_t>(args.size());
  slot.type = type;
  slot.phase = phase;
  if (!args.empty()) {
    std::memcpy(c.arena.get() + c.arena_used, args.data(), args.size());
    c.arena_used += slot.args_len;
  }
}

uint64_t CommitLog::AppendCommit(uint64_t txn_id, uint32_t proc_id,
                                 std::string_view args,
                                 const PhaseController* pc,
                                 Phase* commit_phase,
                                 uint64_t* vpoc_count) {
  CALCDB_COUNTER_ADD("calcdb.log.appends", 1);
  CALCDB_COUNTER_ADD("calcdb.log.bytes", FramedCommitBytes(args.size()));
  SpinLatchGuard guard(latch_);
  if (pc != nullptr && commit_phase != nullptr) {
    *commit_phase = pc->current();
  }
  if (vpoc_count != nullptr) *vpoc_count = vpoc_count_;
  PushEntry(&chunks_, end_lsn_, LogEntry::Type::kCommit, txn_id, proc_id,
            Phase::kRest, args);
  return end_lsn_++;
}

uint64_t CommitLog::AppendPhaseTransition(
    Phase phase, uint64_t checkpoint_id, PhaseController* pc,
    const std::function<void()>& under_latch) {
  CALCDB_COUNTER_ADD("calcdb.log.appends", 1);
  CALCDB_COUNTER_ADD("calcdb.log.bytes",
                     kFrameHeaderBytes + kPhasePayloadBytes);
  if (phase == Phase::kResolve) {
    CALCDB_COUNTER_ADD("calcdb.log.vpoc_tokens", 1);
  }
  CALCDB_TRACE_INSTANT(PhaseName(phase), "phase_token", checkpoint_id);
  SpinLatchGuard guard(latch_);
  if (phase == Phase::kResolve) ++vpoc_count_;
  if (under_latch) under_latch();
  if (pc != nullptr) pc->SetPhase(phase);
  phase_marks_.push_back(PhaseTokenMark{checkpoint_id, phase, end_lsn_});
  PushEntry(&chunks_, end_lsn_, LogEntry::Type::kPhaseTransition,
            checkpoint_id, /*proc_id=*/0, phase, std::string_view());
  return end_lsn_++;
}

uint64_t CommitLog::VpocCount() const {
  SpinLatchGuard guard(latch_);
  return vpoc_count_;
}

uint64_t CommitLog::Size() const {
  SpinLatchGuard guard(latch_);
  return end_lsn_;
}

uint64_t CommitLog::CommitCount() const {
  SpinLatchGuard guard(latch_);
  // Every entry that is not a phase token is a commit.
  return end_lsn_ - phase_marks_.size();
}

uint64_t CommitLog::FirstRetainedLsn() const {
  SpinLatchGuard guard(latch_);
  return first_retained_lsn_;
}

uint64_t CommitLog::RetainedEntries() const {
  SpinLatchGuard guard(latch_);
  return end_lsn_ - first_retained_lsn_;
}

size_t CommitLog::ChunkIndexLocked(uint64_t lsn) const {
  auto it = std::upper_bound(
      chunks_.begin(), chunks_.end(), lsn,
      [](uint64_t l, const std::shared_ptr<Chunk>& c) {
        return l < c->first_lsn;
      });
  return static_cast<size_t>(it - chunks_.begin()) - 1;
}

LogEntry CommitLog::Entry(uint64_t lsn) const {
  SpinLatchGuard guard(latch_);
  assert(lsn >= first_retained_lsn_ && lsn < end_lsn_ &&
         "commit-log read outside the retained LSN range");
  const Chunk& c = *chunks_[ChunkIndexLocked(lsn)];
  return c.Entry(static_cast<uint32_t>(lsn - c.first_lsn));
}

std::vector<LogEntry> CommitLog::CommitsAfter(uint64_t after_lsn) const {
  return CommitsFrom(after_lsn + 1);
}

std::vector<LogEntry> CommitLog::CommitsFrom(uint64_t from_lsn) const {
  return SnapshotRange(from_lsn, UINT64_MAX).Commits();
}

CommitLog::Snapshot CommitLog::SnapshotRange(uint64_t from_lsn,
                                             uint64_t to_lsn) const {
  Snapshot snap;
  SpinLatchGuard guard(latch_);
  assert(from_lsn >= first_retained_lsn_ &&
         "commit-log read below the first retained LSN");
  to_lsn = std::min(to_lsn, end_lsn_);
  if (from_lsn >= to_lsn) return snap;
  for (size_t i = ChunkIndexLocked(from_lsn);
       i < chunks_.size() && chunks_[i]->first_lsn < to_lsn; ++i) {
    const Chunk& c = *chunks_[i];
    snap.pieces_.push_back(Snapshot::Piece{
        chunks_[i],
        static_cast<uint32_t>(std::max(from_lsn, c.first_lsn) - c.first_lsn),
        static_cast<uint32_t>(std::min(to_lsn, c.end_lsn()) - c.first_lsn)});
  }
  return snap;
}

void CommitLog::Snapshot::EncodePiece(size_t i, std::string* out) const {
  const Piece& piece = pieces_[i];
  for (uint32_t k = piece.begin; k < piece.end; ++k) {
    piece.chunk->Encode(k, out);
  }
}

void CommitLog::Snapshot::EncodeAll(std::string* out) const {
  for (size_t i = 0; i < pieces_.size(); ++i) EncodePiece(i, out);
}

std::vector<LogEntry> CommitLog::Snapshot::Commits() const {
  std::vector<LogEntry> out;
  for (const Piece& piece : pieces_) {
    for (uint32_t k = piece.begin; k < piece.end; ++k) {
      if (piece.chunk->slots[k].type == LogEntry::Type::kCommit) {
        out.push_back(piece.chunk->Entry(k));
      }
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

void CommitLog::AdvanceRetentionHorizon(uint64_t vpoc_lsn) {
  SpinLatchGuard guard(latch_);
  retention_horizon_ = std::max(retention_horizon_, vpoc_lsn);
}

uint64_t CommitLog::TruncateDurable(uint64_t persisted_lsn) {
  std::vector<std::shared_ptr<Chunk>> dropped;
  uint64_t entries = 0;
  {
    SpinLatchGuard guard(latch_);
    const uint64_t horizon = std::min(persisted_lsn, retention_horizon_);
    // Every chunk but the last is sealed; the last one may still take
    // appends, so it is never dropped.
    while (chunks_.size() > 1 && chunks_.front()->end_lsn() <= horizon) {
      entries += chunks_.front()->used;
      dropped.push_back(std::move(chunks_.front()));
      chunks_.pop_front();
    }
    if (entries > 0) first_retained_lsn_ = chunks_.front()->first_lsn;
  }
  // `dropped` is freed here, off the latch (a Snapshot still reading a
  // dropped chunk keeps it alive until it is done).
  return entries;
}

void CommitLog::EncodeEntry(const LogEntry& e, std::string* out) {
  if (e.type == LogEntry::Type::kCommit) {
    EncodeCommit(e.txn_id, e.proc_id, e.args, out);
  } else {
    EncodePhase(e.phase, e.checkpoint_id, out);
  }
}

Status CommitLog::PersistTo(const std::string& path) const {
  ThrottledFileWriter writer;
  CALCDB_RETURN_NOT_OK(writer.Open(path, /*max_bytes_per_sec=*/0));
  // Pin the whole log once, then encode and write it chunk by chunk in
  // ~1 MiB blocks without holding the latch.
  const Snapshot snap = SnapshotRange(0, UINT64_MAX);
  constexpr size_t kBlockBytes = 1 << 20;
  std::string block;
  for (size_t i = 0; i < snap.pieces(); ++i) {
    snap.EncodePiece(i, &block);
    if (block.size() >= kBlockBytes || i + 1 == snap.pieces()) {
      CALCDB_RETURN_NOT_OK(writer.Append(block.data(), block.size()));
      block.clear();
    }
  }
  return writer.Close();
}

Status CommitLog::LoadFrom(const std::string& path, size_t block_bytes) {
  LogFrameReader reader;
  CALCDB_RETURN_NOT_OK(reader.Open(path, block_bytes));
  ChunkList loaded;
  uint64_t lsn = 0;
  std::vector<PhaseTokenMark> marks;
  LogFrame frame;
  for (bool done = false;; ++lsn) {
    // A torn final entry (crash mid-append while streaming) ends the
    // decode: the complete prefix is exactly the set of transactions
    // whose commit made it to stable storage.
    CALCDB_RETURN_NOT_OK(reader.Next(&frame, &done));
    if (done) break;
    const bool token = frame.type == LogEntry::Type::kPhaseTransition;
    if (token) {
      marks.push_back(PhaseTokenMark{frame.checkpoint_id, frame.phase, lsn,
                                     frame.end_offset});
    }
    PushEntry(&loaded, lsn, frame.type,
              token ? frame.checkpoint_id : frame.txn_id, frame.proc_id,
              frame.phase, frame.args);
  }
  SpinLatchGuard guard(latch_);
  chunks_.swap(loaded);
  end_lsn_ = lsn;
  first_retained_lsn_ = 0;
  retention_horizon_ = 0;
  phase_marks_ = std::move(marks);
  return Status::OK();
}

}  // namespace calcdb
