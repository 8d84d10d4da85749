#include "storage/kv_store.h"

#include <cassert>

#include "obs/obs.h"

namespace calcdb {

namespace {

size_t NextPow2(uint64_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

KVStore::KVStore(uint64_t max_records, ValuePool* pool, uint32_t shard_id)
    : max_records_(max_records),
      pool_(pool),
      shard_id_(shard_id),
      bucket_mask_(NextPow2(max_records + max_records / 2 + 64) - 1),
      buckets_(bucket_mask_ + 1) {
  for (auto& b : buckets_) b.store(nullptr, std::memory_order_relaxed);
  // Reserve the chunk table up front: growing the vector would move its
  // backing array while lock-free readers walk ByIndex().
  chunks_.reserve(max_records / kChunkSize + 2);
}

KVStore::~KVStore() {
  uint32_t n = NumSlots();
  for (uint32_t i = 0; i < n; ++i) {
    Record* rec = ByIndex(i);
    if (Record::IsRealValue(rec->live)) Value::Unref(rec->live);
    if (Record::IsRealValue(rec->stable)) Value::Unref(rec->stable);
    rec->live = nullptr;
    rec->stable = nullptr;
  }
}

Record* KVStore::Find(uint64_t key) const {
  size_t b = HashKey(key) & bucket_mask_;
  Record* rec = buckets_[b].load(std::memory_order_acquire);
  int64_t probe = 0;
  while (rec != nullptr) {
    ++probe;
    if (rec->key == key) break;
    rec = rec->next;
  }
  CALCDB_HISTOGRAM_RECORD("calcdb.storage.probe_len", probe);
  (void)probe;
  return rec;
}

Record* KVStore::AllocateRecord(uint64_t key) {
  SpinLatchGuard guard(arena_latch_);
  uint32_t index = num_slots_.load(std::memory_order_relaxed);
  if (index >= max_records_) return nullptr;
  size_t chunk = index >> kChunkShift;
  size_t offset = index & (kChunkSize - 1);
  if (chunk == chunks_.size()) {
    chunks_.emplace_back(new Record[kChunkSize]);
  }
  Record* rec = &chunks_[chunk][offset];
  rec->key = key;
  rec->index = index;
  rec->shard = shard_id_;
  // Publish the slot count after the record is initialised.
  num_slots_.store(index + 1, std::memory_order_release);
  return rec;
}

Record* KVStore::FindOrCreate(uint64_t key) {
  size_t b = HashKey(key) & bucket_mask_;
  for (;;) {
    // Fast path: present already.
    Record* head = buckets_[b].load(std::memory_order_acquire);
    int64_t probe = 0;
    for (Record* rec = head; rec != nullptr; rec = rec->next) {
      ++probe;
      if (rec->key == key) {
        CALCDB_HISTOGRAM_RECORD("calcdb.storage.probe_len", probe);
        return rec;
      }
    }
    (void)probe;
    Record* rec = AllocateRecord(key);
    if (rec == nullptr) return nullptr;
    rec->next = head;
    if (buckets_[b].compare_exchange_strong(head, rec,
                                            std::memory_order_acq_rel)) {
      return rec;
    }
    // Lost a race: another thread pushed to this bucket. The freshly
    // allocated slot is leaked into the arena (never linked); this is rare
    // and bounded, matching the prototype's simplicity. Mark it as a
    // dead slot so scans skip it.
    rec->key = ~uint64_t{0};
    rec->live = nullptr;
    rec->stable = nullptr;
  }
}

Record* KVStore::ByIndex(uint32_t index) const {
  assert(index < NumSlots());
  return &chunks_[index >> kChunkShift][index & (kChunkSize - 1)];
}

Status KVStore::Put(uint64_t key, std::string_view value) {
  Record* rec = FindOrCreate(key);
  if (rec == nullptr) return Status::Busy("store at max_records capacity");
  Value* v = Value::Create(value, pool_);
  SpinLatchGuard guard(rec->latch);
  ReplaceLive(*rec, v);
  return Status::OK();
}

Status KVStore::Get(uint64_t key, std::string* value) const {
  Record* rec = Find(key);
  if (rec == nullptr) return Status::NotFound();
  SpinLatchGuard guard(rec->latch);
  if (!Record::IsRealValue(rec->live)) return Status::NotFound();
  value->assign(rec->live->data());
  return Status::OK();
}

Status KVStore::Delete(uint64_t key) {
  Record* rec = Find(key);
  if (rec == nullptr) return Status::NotFound();
  SpinLatchGuard guard(rec->latch);
  if (!Record::IsRealValue(rec->live)) return Status::NotFound();
  ReplaceLive(*rec, nullptr);
  return Status::OK();
}

uint64_t KVStore::CountPresentSlow() const {
  uint64_t n = 0;
  uint32_t slots = NumSlots();
  for (uint32_t i = 0; i < slots; ++i) {
    Record* rec = ByIndex(i);
    SpinLatchGuard guard(rec->latch);
    if (Record::IsRealValue(rec->live)) ++n;
  }
  return n;
}

}  // namespace calcdb
