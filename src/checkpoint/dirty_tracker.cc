#include "checkpoint/dirty_tracker.h"

#include "storage/sharded_store.h"

namespace calcdb {

DirtySet::DirtySet(const ShardedStore& store) {
  for (auto& side : sides_) {
    side.reserve(store.num_shards());
    for (uint32_t s = 0; s < store.num_shards(); ++s) {
      side.emplace_back(store.shard(s)->max_records());
    }
  }
}

void DirtySet::Clear(uint32_t side) {
  for (AtomicBitVector& bits : sides_[side]) bits.ClearAll();
}

void DirtySet::Carry(uint32_t side, const std::vector<uint32_t>& limits) {
  for (size_t s = 0; s < sides_[side].size(); ++s) {
    AtomicBitVector& next = sides_[1 - side][s];
    sides_[side][s].ForEach(limits[s], [&](uint32_t idx) { next.Set(idx); });
  }
  Clear(side);
}

}  // namespace calcdb
