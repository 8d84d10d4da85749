#ifndef CALCDB_CHECKPOINT_FORK_SNAPSHOT_H_
#define CALCDB_CHECKPOINT_FORK_SNAPSHOT_H_

#include <vector>

#include "checkpoint/checkpointer.h"

namespace calcdb {

/// Hyper-style fork() snapshot (paper §6: "Hyper proposed a consistent
/// snapshot mechanism through a UNIX system call to fork(), and OS-based
/// copy-on-update. However, it requires the physical point of consistency
/// and does not support partial checkpoints.").
///
/// The cycle quiesces to a physical point of consistency (drain all
/// active transactions behind the admission gate), forks, and reopens the
/// gate: the child inherits a copy-on-write image of the entire store and
/// writes the checkpoint at its leisure while the parent's mutators
/// diverge page by page. Memory cost is the COW page overlap — invisible
/// to the in-process MemoryTracker but very visible to the OS under
/// write-heavy load.
///
/// Child-side discipline: a forked child of a multithreaded process may
/// only rely on async-signal-safe operations (another thread could have
/// held the allocator lock at fork time — worker threads are drained, but
/// background threads are not). The child therefore allocates nothing: it
/// scans the store in place and emits the checkpoint through raw write()
/// syscalls from a stack buffer, then _exit()s.
class ForkSnapshotCheckpointer : public Checkpointer {
 public:
  explicit ForkSnapshotCheckpointer(EngineContext engine);

  const char* name() const override { return "Fork"; }

  void ApplyWrite(Txn& txn, Record& rec, Value* new_val) override;

 protected:
  [[nodiscard]] Status Capture(CheckpointInfo* info,
                               CheckpointCycleStats* stats) override;

 private:
  /// Runs in the forked child: writes every present record (shard-major
  /// over `slots_at_poc_`) to `fd` in the checkpoint file format using
  /// only stack memory and raw syscalls. Returns the child's exit code
  /// (0 = success).
  int ChildWriteSnapshot(int fd, uint64_t id, uint64_t poc_lsn);

  /// Per-shard slot counts at the point of consistency. Allocated once in
  /// the constructor and only overwritten inside the quiesce window — the
  /// forked child must not allocate, so this cannot be a lambda-local
  /// vector filled at fork time.
  std::vector<uint32_t> slots_at_poc_;
};

}  // namespace calcdb

#endif  // CALCDB_CHECKPOINT_FORK_SNAPSHOT_H_
