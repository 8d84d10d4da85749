#include "checkpoint/ckpt_storage.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include "obs/obs.h"
#include "util/fault_injection.h"

namespace calcdb {

namespace {

// IOError naming the failed step, the file and errno. Build it before
// any cleanup call that may overwrite errno.
Status FileError(const char* op, const std::string& path) {
  return Status::IOError(std::string(op) + " " + path + ": " +
                         std::strerror(errno));
}

}  // namespace

CheckpointStorage::CheckpointStorage(std::string dir,
                                     uint64_t disk_bytes_per_sec)
    : dir_(std::move(dir)), disk_bytes_per_sec_(disk_bytes_per_sec) {
  if (disk_bytes_per_sec_ != 0) {
    write_budget_ = std::make_shared<TokenBucket>(disk_bytes_per_sec_);
  }
  writer_options_.budget = write_budget_;
}

Status CheckpointStorage::Init() {
  if (::mkdir(dir_.c_str(), 0755) != 0 && errno != EEXIST) {
    return FileError("mkdir", dir_);
  }
  return Status::OK();
}

std::string CheckpointStorage::PathFor(uint64_t id,
                                       CheckpointType type) const {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "/ckpt_%08llu.%s",
                static_cast<unsigned long long>(id),
                type == CheckpointType::kFull ? "full" : "part");
  return dir_ + buf;
}

std::string CheckpointStorage::SegmentPathFor(uint64_t id,
                                              CheckpointType type,
                                              size_t seg) const {
  char buf[32];
  std::snprintf(buf, sizeof(buf), ".seg%zu", seg);
  return PathFor(id, type) + buf;
}

void CheckpointStorage::Register(const CheckpointInfo& info) {
  SpinLatchGuard guard(latch_);
  checkpoints_.push_back(info);
  std::sort(checkpoints_.begin(), checkpoints_.end(),
            [](const CheckpointInfo& a, const CheckpointInfo& b) {
              return a.id < b.id;
            });
  uint64_t next = next_id_.load(std::memory_order_relaxed);
  if (info.id > next) next_id_.store(info.id, std::memory_order_relaxed);
}

std::vector<CheckpointInfo> CheckpointStorage::List() const {
  SpinLatchGuard guard(latch_);
  return checkpoints_;
}

std::vector<CheckpointInfo> CheckpointStorage::RecoveryChain() const {
  SpinLatchGuard guard(latch_);
  return ChainFrom(checkpoints_);
}

std::vector<CheckpointInfo> CheckpointStorage::ChainFrom(
    const std::vector<CheckpointInfo>& checkpoints) {
  // Find the newest full checkpoint.
  int full_idx = -1;
  for (int i = static_cast<int>(checkpoints.size()) - 1; i >= 0; --i) {
    if (checkpoints[i].type == CheckpointType::kFull) {
      full_idx = i;
      break;
    }
  }
  std::vector<CheckpointInfo> chain;
  // With no full checkpoint yet, the chain is every partial since the
  // (empty) beginning of time — valid when the database started empty.
  size_t start = full_idx < 0 ? 0 : static_cast<size_t>(full_idx);
  for (size_t i = start; i < checkpoints.size(); ++i) {
    chain.push_back(checkpoints[i]);
  }
  return chain;
}

Status CheckpointStorage::ReplaceCollapsed(
    const std::vector<uint64_t>& retired_ids, const CheckpointInfo& merged) {
  std::vector<std::string> to_delete;
  {
    SpinLatchGuard guard(latch_);
    std::vector<CheckpointInfo> kept;
    for (const CheckpointInfo& c : checkpoints_) {
      if (std::find(retired_ids.begin(), retired_ids.end(), c.id) !=
          retired_ids.end()) {
        for (const std::string& f : c.files()) to_delete.push_back(f);
      } else {
        kept.push_back(c);
      }
    }
    kept.push_back(merged);
    std::sort(kept.begin(), kept.end(),
              [](const CheckpointInfo& a, const CheckpointInfo& b) {
                return a.id < b.id;
              });
    checkpoints_ = std::move(kept);
  }
  for (const std::string& path : to_delete) {
    if (std::remove(path.c_str()) != 0) {
      // A failed delete only leaks a retired file — the manifest, not
      // the directory, defines the chain — so the merge still succeeds;
      // but the leak must be visible, not silent (ROADMAP item closed
      // by calcdb.ckpt.gc_unlink_failed + this WARN).
      CALCDB_COUNTER_ADD("calcdb.ckpt.gc_unlink_failed", 1);
      CALCDB_WARN("ckpt.gc_unlink_failed", "ckpt", path,
                  {"errno", static_cast<int64_t>(errno)});
    }
  }
  return Status::OK();
}

Status CheckpointStorage::PersistManifest() const {
  std::string tmp = ManifestPath() + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "w");
  if (f == nullptr) return FileError("open", tmp);
  std::vector<CheckpointInfo> snapshot = List();
  for (const CheckpointInfo& c : snapshot) {
    // Single-file checkpoints keep the legacy 5-field line byte-for-byte;
    // segmented checkpoints append a segment count plus the segment paths.
    std::fprintf(f, "%llu %u %llu %llu %s",
                 static_cast<unsigned long long>(c.id),
                 static_cast<unsigned>(c.type),
                 static_cast<unsigned long long>(c.vpoc_lsn),
                 static_cast<unsigned long long>(c.num_entries),
                 c.path.c_str());
    if (!c.segments.empty()) {
      std::fprintf(f, " %zu", c.segments.size());
      for (const std::string& seg : c.segments) {
        std::fprintf(f, " %s", seg.c_str());
      }
    }
    std::fprintf(f, "\n");
  }
  // A crash before the flush/fsync leaves a stale manifest + dead .tmp;
  // recovery just sees the previous chain. CALCDB_FAULT_STATUS (not
  // _POINT) so an injected *error* still closes f and removes the tmp.
  Status fault_st = CALCDB_FAULT_STATUS("manifest.write");
  if (!fault_st.ok()) {
    std::fclose(f);
    std::remove(tmp.c_str());
    return fault_st;
  }
  // ferror too: a write that failed inside an earlier fprintf leaves
  // the error flag set even when this final flush succeeds.
  if (std::fflush(f) != 0 || std::ferror(f) != 0) {
    Status st = FileError("write", tmp);
    std::fclose(f);
    return st;
  }
  // fsync before the rename: otherwise the rename can survive a power
  // cut while the manifest *contents* do not, which would surface old
  // bytes under the new name.
  if (::fsync(::fileno(f)) != 0) {
    Status st = FileError("fsync", tmp);
    std::fclose(f);
    return st;
  }
  std::fclose(f);
  fault_st = CALCDB_FAULT_STATUS("manifest.rename");
  if (!fault_st.ok()) {
    std::remove(tmp.c_str());
    return fault_st;
  }
  if (std::rename(tmp.c_str(), ManifestPath().c_str()) != 0) {
    return FileError("rename", tmp + " to " + ManifestPath());
  }
  return Status::OK();
}

Status CheckpointStorage::LoadManifest() {
  std::ifstream f(ManifestPath());
  if (!f.is_open()) return Status::NotFound("no manifest in " + dir_);
  std::vector<CheckpointInfo> loaded;
  // Lines are read whole: a segmented checkpoint's line grows with its
  // segment count and the directory's length, without bound.
  std::string line;
  while (std::getline(f, line)) {
    CheckpointInfo c;
    unsigned long long id, vpoc, entries;
    unsigned type;
    std::istringstream in(line);
    if (!(in >> id >> type >> vpoc >> entries >> c.path)) {
      return Status::Corruption("bad manifest line");
    }
    if (type != static_cast<unsigned>(CheckpointType::kFull) &&
        type != static_cast<unsigned>(CheckpointType::kPartial)) {
      return Status::Corruption("bad manifest checkpoint type " +
                                std::to_string(type));
    }
    // Optional segmented-checkpoint suffix: segment count + paths.
    size_t nsegs = 0;
    if (in >> nsegs) {
      for (size_t i = 0; i < nsegs; ++i) {
        std::string seg;
        if (!(in >> seg)) {
          return Status::Corruption("bad manifest segment list");
        }
        c.segments.push_back(std::move(seg));
      }
    }
    c.id = id;
    c.type = static_cast<CheckpointType>(type);
    c.vpoc_lsn = vpoc;
    c.num_entries = entries;
    loaded.push_back(c);
  }
  if (f.bad()) return FileError("read", ManifestPath());
  SpinLatchGuard guard(latch_);
  checkpoints_ = std::move(loaded);
  uint64_t max_id = 0;
  for (const CheckpointInfo& c : checkpoints_) {
    if (c.id > max_id) max_id = c.id;
  }
  next_id_.store(max_id, std::memory_order_relaxed);
  return Status::OK();
}

}  // namespace calcdb
