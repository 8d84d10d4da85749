#include "checkpoint/dirty_tracker.h"

#include <algorithm>
#include <vector>

#include "storage/sharded_store.h"

namespace calcdb {

DirtyKeyTracker::DirtyKeyTracker(DirtyTrackerKind kind, size_t capacity)
    : kind_(kind), capacity_(capacity) {
  switch (kind_) {
    case DirtyTrackerKind::kBitVector:
      bits_ = std::make_unique<AtomicBitVector>(capacity);
      break;
    case DirtyTrackerKind::kHashSet:
      shards_ = std::make_unique<Shard[]>(kShards);
      break;
    case DirtyTrackerKind::kBloom:
      // One bit per eight records: 8x smaller than the plain bit vector,
      // the operating point the paper describes ("to decrease the size of
      // the aforementioned bit vector").
      bloom_ = std::make_unique<BloomFilter>(
          std::max<size_t>(capacity / 8, 1024), /*k=*/4);
      break;
  }
}

void DirtyKeyTracker::Mark(uint32_t index) {
  switch (kind_) {
    case DirtyTrackerKind::kBitVector:
      bits_->Set(index);
      return;
    case DirtyTrackerKind::kHashSet: {
      Shard& shard = shards_[index % kShards];
      SpinLatchGuard guard(shard.latch);
      shard.set.insert(index);
      return;
    }
    case DirtyTrackerKind::kBloom:
      bloom_->Add(index);
      return;
  }
}

bool DirtyKeyTracker::Test(uint32_t index) const {
  switch (kind_) {
    case DirtyTrackerKind::kBitVector:
      return bits_->Get(index);
    case DirtyTrackerKind::kHashSet: {
      Shard& shard = shards_[index % kShards];
      SpinLatchGuard guard(shard.latch);
      return shard.set.count(index) > 0;
    }
    case DirtyTrackerKind::kBloom:
      return bloom_->MayContain(index);
  }
  return false;
}

std::vector<uint32_t> DirtyKeyTracker::SortedHashIndexes(
    uint32_t limit) const {
  std::vector<uint32_t> all;
  for (int s = 0; s < kShards; ++s) {
    SpinLatchGuard guard(shards_[s].latch);
    for (uint32_t idx : shards_[s].set) {
      if (idx < limit) all.push_back(idx);
    }
  }
  std::sort(all.begin(), all.end());
  return all;
}

void DirtyKeyTracker::Clear() {
  switch (kind_) {
    case DirtyTrackerKind::kBitVector:
      bits_->ClearAll();
      return;
    case DirtyTrackerKind::kHashSet:
      for (int s = 0; s < kShards; ++s) {
        SpinLatchGuard guard(shards_[s].latch);
        shards_[s].set.clear();
      }
      return;
    case DirtyTrackerKind::kBloom:
      bloom_->ClearAll();
      return;
  }
}

size_t DirtyKeyTracker::Count() const {
  switch (kind_) {
    case DirtyTrackerKind::kBitVector:
      return bits_->Count();
    case DirtyTrackerKind::kHashSet: {
      size_t n = 0;
      for (int s = 0; s < kShards; ++s) {
        SpinLatchGuard guard(shards_[s].latch);
        n += shards_[s].set.size();
      }
      return n;
    }
    case DirtyTrackerKind::kBloom:
      return 0;
  }
  return 0;
}

size_t DirtyKeyTracker::MemoryBytes() const {
  switch (kind_) {
    case DirtyTrackerKind::kBitVector:
      return (capacity_ + 7) / 8;
    case DirtyTrackerKind::kHashSet: {
      // unordered_set overhead approximation: bucket pointer + node.
      size_t n = Count();
      return n * (sizeof(uint32_t) + 2 * sizeof(void*)) +
             kShards * sizeof(Shard);
    }
    case DirtyTrackerKind::kBloom:
      return bloom_->num_bits() / 8;
  }
  return 0;
}

DirtySet::DirtySet(DirtyTrackerKind kind, const ShardedStore& store) {
  for (auto& side : sides_) {
    side.reserve(store.num_shards());
    for (uint32_t s = 0; s < store.num_shards(); ++s) {
      side.emplace_back(std::make_unique<DirtyKeyTracker>(
          kind, store.shard(s)->max_records()));
    }
  }
}

void DirtySet::Clear(uint32_t side) {
  for (auto& tracker : sides_[side]) tracker->Clear();
}

void DirtySet::Carry(uint32_t side, const std::vector<uint32_t>& limits) {
  for (size_t s = 0; s < sides_[side].size(); ++s) {
    DirtyKeyTracker& next = *sides_[1 - side][s];
    sides_[side][s]->ForEach(limits[s],
                             [&](uint32_t idx) { next.Mark(idx); });
  }
  Clear(side);
}

}  // namespace calcdb
