// Tests for the checkpoint file format, the checkpoint storage/manifest,
// the dirty set, and the partial-checkpoint merger.

#include <cstring>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "checkpoint/ckpt_file.h"
#include "checkpoint/ckpt_storage.h"
#include "checkpoint/dirty_tracker.h"
#include "checkpoint/merger.h"
#include "gtest/gtest.h"
#include "storage/sharded_store.h"
#include "tests/test_util.h"
#include "util/crc32.h"

namespace calcdb {
namespace {

using testing_util::TempDir;

TEST(CheckpointFileTest, WriteReadRoundtrip) {
  TempDir dir;
  std::string path = dir.path() + "/ckpt";
  CheckpointFileWriter writer;
  ASSERT_TRUE(
      writer.Open(path, CheckpointType::kFull, 3, 77, 0).ok());
  ASSERT_TRUE(writer.Append(1, "one").ok());
  ASSERT_TRUE(writer.Append(2, std::string(1000, 'x')).ok());
  ASSERT_TRUE(writer.Finish().ok());
  EXPECT_EQ(writer.entries_written(), 2u);

  CheckpointFileReader reader;
  ASSERT_TRUE(reader.Open(path).ok());
  EXPECT_EQ(reader.type(), CheckpointType::kFull);
  EXPECT_EQ(reader.id(), 3u);
  EXPECT_EQ(reader.vpoc_lsn(), 77u);
  CheckpointEntry entry;
  bool eof = false;
  ASSERT_TRUE(reader.Next(&entry, &eof).ok());
  ASSERT_FALSE(eof);
  EXPECT_EQ(entry.key, 1u);
  EXPECT_EQ(entry.value, "one");
  ASSERT_TRUE(reader.Next(&entry, &eof).ok());
  EXPECT_EQ(entry.value.size(), 1000u);
  ASSERT_TRUE(reader.Next(&entry, &eof).ok());
  EXPECT_TRUE(eof);
}

TEST(CheckpointFileTest, Tombstones) {
  TempDir dir;
  std::string path = dir.path() + "/ckpt";
  CheckpointFileWriter writer;
  ASSERT_TRUE(
      writer.Open(path, CheckpointType::kPartial, 1, 0, 0).ok());
  ASSERT_TRUE(writer.Append(5, "alive").ok());
  ASSERT_TRUE(writer.AppendTombstone(6).ok());
  ASSERT_TRUE(writer.Finish().ok());

  CheckpointFileReader reader;
  ASSERT_TRUE(reader.Open(path).ok());
  int values = 0, tombstones = 0;
  ASSERT_TRUE(reader
                  .ReadAll([&](const CheckpointEntry& e) -> Status {
                    if (e.tombstone) {
                      ++tombstones;
                      EXPECT_EQ(e.key, 6u);
                    } else {
                      ++values;
                    }
                    return Status::OK();
                  })
                  .ok());
  EXPECT_EQ(values, 1);
  EXPECT_EQ(tombstones, 1);
}

TEST(CheckpointFileTest, TruncatedFileRejected) {
  TempDir dir;
  std::string path = dir.path() + "/ckpt";
  CheckpointFileWriter writer;
  ASSERT_TRUE(writer.Open(path, CheckpointType::kFull, 1, 0, 0).ok());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(writer.Append(static_cast<uint64_t>(i), "vvvv").ok());
  }
  ASSERT_TRUE(writer.Finish().ok());
  // Truncate: simulate a crash mid-checkpoint.
  ASSERT_EQ(truncate(path.c_str(), 200), 0);
  CheckpointFileReader reader;
  ASSERT_TRUE(reader.Open(path).ok());
  Status st = reader.ReadAll(
      [](const CheckpointEntry&) -> Status { return Status::OK(); });
  EXPECT_FALSE(st.ok());
}

TEST(CheckpointFileTest, CorruptedPayloadRejected) {
  TempDir dir;
  std::string path = dir.path() + "/ckpt";
  CheckpointFileWriter writer;
  ASSERT_TRUE(writer.Open(path, CheckpointType::kFull, 1, 0, 0).ok());
  ASSERT_TRUE(writer.Append(1, "payload-payload").ok());
  ASSERT_TRUE(writer.Finish().ok());
  FILE* f = fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  fseek(f, 45, SEEK_SET);  // inside the entry payload
  int c = fgetc(f);
  fseek(f, 45, SEEK_SET);
  fputc(c ^ 0x5a, f);
  fclose(f);
  CheckpointFileReader reader;
  ASSERT_TRUE(reader.Open(path).ok());
  Status st = reader.ReadAll(
      [](const CheckpointEntry&) -> Status { return Status::OK(); });
  EXPECT_TRUE(st.IsCorruption());
}

TEST(CheckpointFileTest, BadMagicRejected) {
  TempDir dir;
  std::string path = dir.path() + "/notackpt";
  FILE* f = fopen(path.c_str(), "wb");
  fputs("garbage garbage garbage garbage", f);
  fclose(f);
  CheckpointFileReader reader;
  EXPECT_TRUE(reader.Open(path).IsCorruption());
}

std::string ReadFileBytes(const std::string& path) {
  std::string out;
  FILE* f = fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr);
  char buf[4096];
  size_t n;
  while ((n = fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, n);
  fclose(f);
  return out;
}

void WriteFixture(const std::string& path,
                  const CheckpointWriterOptions& options) {
  CheckpointFileWriter writer;
  ASSERT_TRUE(
      writer.Open(path, CheckpointType::kFull, 9, 42, options).ok());
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(writer
                    .Append(static_cast<uint64_t>(i),
                            std::string(static_cast<size_t>(i % 97), 'v'))
                    .ok());
  }
  ASSERT_TRUE(writer.AppendTombstone(1000).ok());
  ASSERT_TRUE(writer.Finish().ok());
  EXPECT_EQ(writer.entries_written(), 501u);
}

TEST(CheckpointFileTest, BlockSizeDoesNotChangeBytes) {
  // The block buffer is pure batching: the emitted byte stream must be
  // identical whatever block size cuts it, including the seed default.
  TempDir dir;
  std::string base = dir.path() + "/base";
  CheckpointFileWriter writer;
  ASSERT_TRUE(writer.Open(base, CheckpointType::kFull, 9, 42, 0).ok());
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(writer
                    .Append(static_cast<uint64_t>(i),
                            std::string(static_cast<size_t>(i % 97), 'v'))
                    .ok());
  }
  ASSERT_TRUE(writer.AppendTombstone(1000).ok());
  ASSERT_TRUE(writer.Finish().ok());
  std::string baseline = ReadFileBytes(base);
  ASSERT_FALSE(baseline.empty());

  for (size_t block_bytes : {size_t{1}, size_t{64}, size_t{4096}}) {
    CheckpointWriterOptions options;
    options.block_bytes = block_bytes;
    std::string path =
        dir.path() + "/blk" + std::to_string(block_bytes);
    WriteFixture(path, options);
    EXPECT_EQ(ReadFileBytes(path), baseline)
        << "block_bytes=" << block_bytes;
  }
}

TEST(CheckpointFileTest, AsyncWriterMatchesSyncByteForByte) {
  TempDir dir;
  CheckpointWriterOptions sync_options;
  sync_options.block_bytes = 512;  // force many seals
  CheckpointWriterOptions async_options = sync_options;
  async_options.async_io = true;
  std::string sync_path = dir.path() + "/sync";
  std::string async_path = dir.path() + "/async";
  WriteFixture(sync_path, sync_options);
  WriteFixture(async_path, async_options);
  std::string sync_bytes = ReadFileBytes(sync_path);
  ASSERT_FALSE(sync_bytes.empty());
  EXPECT_EQ(ReadFileBytes(async_path), sync_bytes);

  CheckpointFileReader reader;
  ASSERT_TRUE(reader.Open(async_path).ok());
  EXPECT_EQ(reader.id(), 9u);
  EXPECT_EQ(reader.vpoc_lsn(), 42u);
  uint64_t entries = 0;
  ASSERT_TRUE(reader
                  .ReadAll([&](const CheckpointEntry&) -> Status {
                    ++entries;
                    return Status::OK();
                  })
                  .ok());
  EXPECT_EQ(entries, 501u);
}

TEST(CheckpointFileTest, Crc32cRoundtripAndCorruptionDetection) {
  // The writer only produces v1; a v2 file is the same bytes with the
  // version field set to 2 and the footer checksum taken with CRC-32C.
  TempDir dir;
  std::string path = dir.path() + "/ckpt_v2";
  WriteFixture(path, CheckpointWriterOptions());
  std::string bytes = ReadFileBytes(path);
  constexpr size_t kHeaderBytes = 8 + 4 + 1 + 8 + 8;
  constexpr size_t kFooterBytes = 8 + 1 + 8 + 4;
  ASSERT_GT(bytes.size(), kHeaderBytes + kFooterBytes);
  const uint32_t version = 2;
  std::memcpy(bytes.data() + 8, &version, sizeof(version));
  const uint32_t crc = Crc32c(bytes.data() + kHeaderBytes,
                              bytes.size() - kHeaderBytes - kFooterBytes);
  std::memcpy(bytes.data() + bytes.size() - sizeof(crc), &crc,
              sizeof(crc));
  {
    FILE* out = fopen(path.c_str(), "wb");
    ASSERT_NE(out, nullptr);
    ASSERT_EQ(fwrite(bytes.data(), 1, bytes.size(), out), bytes.size());
    fclose(out);
  }

  CheckpointFileReader reader;
  ASSERT_TRUE(reader.Open(path).ok());
  uint64_t entries = 0;
  ASSERT_TRUE(reader
                  .ReadAll([&](const CheckpointEntry&) -> Status {
                    ++entries;
                    return Status::OK();
                  })
                  .ok());
  EXPECT_EQ(entries, 501u);

  // Flip one payload byte: the v2 (CRC32C) footer must catch it.
  FILE* f = fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  fseek(f, 200, SEEK_SET);
  int c = fgetc(f);
  fseek(f, 200, SEEK_SET);
  fputc(c ^ 0x5a, f);
  fclose(f);
  CheckpointFileReader corrupt_reader;
  ASSERT_TRUE(corrupt_reader.Open(path).ok());
  Status st = corrupt_reader.ReadAll(
      [](const CheckpointEntry&) -> Status { return Status::OK(); });
  EXPECT_TRUE(st.IsCorruption());
}

TEST(CheckpointFileTest, UnsupportedVersionRejected) {
  TempDir dir;
  std::string path = dir.path() + "/ckpt";
  CheckpointFileWriter writer;
  ASSERT_TRUE(writer.Open(path, CheckpointType::kFull, 1, 0, 0).ok());
  ASSERT_TRUE(writer.Append(1, "v").ok());
  ASSERT_TRUE(writer.Finish().ok());
  // Bump the version field (right after the 8-byte magic) past anything
  // this build understands.
  FILE* f = fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  fseek(f, 8, SEEK_SET);
  fputc(0x7f, f);
  fclose(f);
  CheckpointFileReader reader;
  EXPECT_TRUE(reader.Open(path).IsCorruption());
}

TEST(CheckpointStorageTest, RegisterListAndChain) {
  TempDir dir;
  CheckpointStorage storage(dir.path(), 0);
  ASSERT_TRUE(storage.Init().ok());
  EXPECT_EQ(storage.NextId(), 1u);
  EXPECT_EQ(storage.NextId(), 2u);

  auto reg = [&](uint64_t id, CheckpointType type) {
    CheckpointInfo info;
    info.id = id;
    info.type = type;
    info.vpoc_lsn = id * 10;
    info.path = storage.PathFor(id, type);
    storage.Register(info);
  };
  reg(1, CheckpointType::kFull);
  reg(2, CheckpointType::kPartial);
  reg(3, CheckpointType::kPartial);
  reg(4, CheckpointType::kFull);
  reg(5, CheckpointType::kPartial);

  std::vector<CheckpointInfo> chain = storage.RecoveryChain();
  ASSERT_EQ(chain.size(), 2u);
  EXPECT_EQ(chain[0].id, 4u);
  EXPECT_EQ(chain[1].id, 5u);
}

TEST(CheckpointStorageTest, ChainWithoutFullReturnsAllPartials) {
  TempDir dir;
  CheckpointStorage storage(dir.path(), 0);
  ASSERT_TRUE(storage.Init().ok());
  CheckpointInfo info;
  info.id = 1;
  info.type = CheckpointType::kPartial;
  info.path = storage.PathFor(1, info.type);
  storage.Register(info);
  info.id = 2;
  storage.Register(info);
  EXPECT_EQ(storage.RecoveryChain().size(), 2u);
}

TEST(CheckpointStorageTest, ManifestPersistsAcrossInstances) {
  TempDir dir;
  {
    CheckpointStorage storage(dir.path(), 0);
    ASSERT_TRUE(storage.Init().ok());
    CheckpointInfo info;
    info.id = 9;
    info.type = CheckpointType::kFull;
    info.vpoc_lsn = 1234;
    info.num_entries = 42;
    info.path = storage.PathFor(9, info.type);
    storage.Register(info);
    ASSERT_TRUE(storage.PersistManifest().ok());
  }
  CheckpointStorage reloaded(dir.path(), 0);
  ASSERT_TRUE(reloaded.Init().ok());
  ASSERT_TRUE(reloaded.LoadManifest().ok());
  std::vector<CheckpointInfo> list = reloaded.List();
  ASSERT_EQ(list.size(), 1u);
  EXPECT_EQ(list[0].id, 9u);
  EXPECT_EQ(list[0].vpoc_lsn, 1234u);
  EXPECT_EQ(list[0].num_entries, 42u);
  // Ids continue after the reloaded maximum.
  EXPECT_EQ(reloaded.NextId(), 10u);
}

TEST(CheckpointStorageTest, ManifestLineLongerThan8KiBLoads) {
  // A segmented checkpoint's manifest line grows with its segment count
  // and the directory's length; ~300 segments under a long directory
  // name make one line of well over 8 KiB.
  TempDir dir;
  std::string ckpt_dir = dir.path() + "/" + std::string(60, 'd');
  CheckpointInfo info;
  {
    CheckpointStorage storage(ckpt_dir, 0);
    ASSERT_TRUE(storage.Init().ok());
    info.id = 3;
    info.type = CheckpointType::kPartial;
    info.vpoc_lsn = 99;
    info.num_entries = 7;
    info.path = storage.PathFor(info.id, info.type);
    for (size_t seg = 0; seg < 300; ++seg) {
      info.segments.push_back(
          storage.SegmentPathFor(info.id, info.type, seg));
    }
    storage.Register(info);
    ASSERT_TRUE(storage.PersistManifest().ok());
  }
  ASSERT_GT(testing_util::FileSize(ckpt_dir + "/MANIFEST"), 8192u);
  CheckpointStorage reloaded(ckpt_dir, 0);
  Status st = reloaded.LoadManifest();
  ASSERT_TRUE(st.ok()) << st.ToString();
  std::vector<CheckpointInfo> list = reloaded.List();
  ASSERT_EQ(list.size(), 1u);
  EXPECT_EQ(list[0].id, info.id);
  EXPECT_EQ(list[0].type, info.type);
  EXPECT_EQ(list[0].vpoc_lsn, info.vpoc_lsn);
  EXPECT_EQ(list[0].num_entries, info.num_entries);
  EXPECT_EQ(list[0].path, info.path);
  EXPECT_EQ(list[0].segments, info.segments);
}

TEST(CheckpointStorageTest, ManifestUnknownTypeIsCorruption) {
  TempDir dir;
  FILE* f = fopen((dir.path() + "/MANIFEST").c_str(), "w");
  ASSERT_NE(f, nullptr);
  fputs("1 7 0 0 /x/ckpt_00000001.full\n", f);
  fclose(f);
  CheckpointStorage storage(dir.path(), 0);
  EXPECT_TRUE(storage.LoadManifest().IsCorruption());
}

// The dirty-key structure is a plain AtomicBitVector; its enumeration
// order is what keeps partial-checkpoint streams ascending per shard.
TEST(DirtyTrackerTest, ForEachAscendingAndComplete) {
  AtomicBitVector bits(1000);
  std::set<uint32_t> expect = {3, 63, 64, 70, 500, 999};
  for (uint32_t idx : expect) bits.Set(idx);
  std::vector<uint32_t> seen;
  bits.ForEach(1000, [&](uint32_t idx) { seen.push_back(idx); });
  EXPECT_EQ(seen, std::vector<uint32_t>(expect.begin(), expect.end()));
}

TEST(DirtyTrackerTest, ForEachHonorsLimit) {
  AtomicBitVector bits(1000);
  bits.Set(5);
  bits.Set(99);
  bits.Set(100);
  bits.Set(900);
  std::vector<uint32_t> seen;
  bits.ForEach(100, [&](uint32_t idx) { seen.push_back(idx); });
  EXPECT_EQ(seen, (std::vector<uint32_t>{5, 99}));
  // A limit past the capacity stops at the last word.
  seen.clear();
  bits.ForEach(5000, [&](uint32_t idx) { seen.push_back(idx); });
  EXPECT_EQ(seen, (std::vector<uint32_t>{5, 99, 100, 900}));
}

// DirtySet over a 4-shard store: every record is addressed by its
// (shard, index), so two records of different shards can share an index.
class DirtySetTest : public ::testing::Test {
 protected:
  static constexpr uint32_t kShards = 4;
  static constexpr uint64_t kKeys = 256;

  DirtySetTest() : store_(1024, kShards) {
    for (uint64_t k = 0; k < kKeys; ++k) {
      EXPECT_TRUE(store_.Put(k, "v").ok());
    }
  }

  const Record& Rec(uint64_t key) const { return *store_.Find(key); }

  /// Every (shard, index) marked on `side`.
  std::set<std::pair<uint32_t, uint32_t>> Marked(const DirtySet& dirty,
                                                 uint32_t side) const {
    std::set<std::pair<uint32_t, uint32_t>> out;
    for (uint32_t s = 0; s < kShards; ++s) {
      dirty.Side(side, s).ForEach(store_.shard(s)->max_records(),
                                  [&](uint32_t idx) { out.insert({s, idx}); });
    }
    return out;
  }

  ShardedStore store_;
};

TEST_F(DirtySetTest, MarkAndTestStayPerShard) {
  // Two keys in different shards at the same index.
  const Record* a = &Rec(0);
  const Record* b = nullptr;
  for (uint64_t k = 1; k < kKeys && b == nullptr; ++k) {
    if (Rec(k).shard != a->shard && Rec(k).index == a->index) b = &Rec(k);
  }
  ASSERT_NE(b, nullptr);
  DirtySet dirty(store_);
  dirty.Mark(0, *a);
  EXPECT_TRUE(dirty.Test(0, *a));
  EXPECT_FALSE(dirty.Test(0, *b));
  EXPECT_FALSE(dirty.Test(1, *a));
  EXPECT_TRUE(dirty.Side(0, a->shard).Get(a->index));
  EXPECT_FALSE(dirty.Side(0, b->shard).Get(b->index));
  EXPECT_EQ(Marked(dirty, 0),
            (std::set<std::pair<uint32_t, uint32_t>>{{a->shard, a->index}}));
}

TEST_F(DirtySetTest, FlipReturnsOldActive) {
  DirtySet dirty(store_);
  EXPECT_EQ(dirty.active(), 0u);
  dirty.MarkActive(Rec(1));
  EXPECT_EQ(dirty.Flip(), 0u);
  EXPECT_EQ(dirty.active(), 1u);
  dirty.MarkActive(Rec(2));
  EXPECT_EQ(dirty.Flip(), 1u);
  EXPECT_EQ(dirty.active(), 0u);
  EXPECT_TRUE(dirty.Test(0, Rec(1)));
  EXPECT_FALSE(dirty.Test(1, Rec(1)));
  EXPECT_TRUE(dirty.Test(1, Rec(2)));
  EXPECT_FALSE(dirty.Test(0, Rec(2)));
}

TEST_F(DirtySetTest, ClearEmptiesOneSideOnly) {
  DirtySet dirty(store_);
  for (uint64_t k = 0; k < kKeys; k += 3) {
    dirty.Mark(0, Rec(k));
    dirty.Mark(1, Rec(k));
  }
  auto before = Marked(dirty, 1);
  dirty.Clear(0);
  EXPECT_TRUE(Marked(dirty, 0).empty());
  EXPECT_EQ(Marked(dirty, 1), before);
  for (uint32_t s = 0; s < kShards; ++s) {
    EXPECT_EQ(dirty.Side(0, s).Count(), 0u);
  }
}

TEST_F(DirtySetTest, CarryMovesExactlyIndexesBelowLimit) {
  DirtySet dirty(store_);
  std::vector<uint32_t> limits;
  for (uint32_t s = 0; s < kShards; ++s) {
    limits.push_back(store_.shard(s)->NumSlots() / 2);
  }
  std::set<std::pair<uint32_t, uint32_t>> expect;
  int carried = 0, dropped = 0;
  for (uint64_t k = 0; k < kKeys; k += 2) {
    const Record& rec = Rec(k);
    dirty.Mark(0, rec);
    if (rec.index < limits[rec.shard]) {
      expect.insert({rec.shard, rec.index});
      ++carried;
    } else {
      ++dropped;
    }
  }
  ASSERT_GT(carried, 0);
  ASSERT_GT(dropped, 0);
  // A write already on the other side survives the carry.
  for (uint64_t k = 1; k < kKeys; k += 16) {
    const Record& rec = Rec(k);
    dirty.Mark(1, rec);
    expect.insert({rec.shard, rec.index});
  }
  dirty.Carry(0, limits);
  EXPECT_TRUE(Marked(dirty, 0).empty());
  EXPECT_EQ(Marked(dirty, 1), expect);
}

TEST(MergerTest, CollapseMergesLatestWins) {
  TempDir dir;
  CheckpointStorage storage(dir.path(), 0);
  ASSERT_TRUE(storage.Init().ok());

  auto write_ckpt = [&](uint64_t id, CheckpointType type,
                        std::vector<CheckpointEntry> entries,
                        uint64_t vpoc) {
    CheckpointInfo info;
    info.id = id;
    info.type = type;
    info.vpoc_lsn = vpoc;
    info.path = storage.PathFor(id, type);
    CheckpointFileWriter writer;
    ASSERT_TRUE(
        writer.Open(info.path, type, id, vpoc, 0).ok());
    for (const CheckpointEntry& e : entries) {
      if (e.tombstone) {
        ASSERT_TRUE(writer.AppendTombstone(e.key).ok());
      } else {
        ASSERT_TRUE(writer.Append(e.key, e.value).ok());
      }
    }
    ASSERT_TRUE(writer.Finish().ok());
    info.num_entries = writer.entries_written();
    storage.Register(info);
  };

  write_ckpt(1, CheckpointType::kFull,
             {{1, false, "a1"}, {2, false, "b1"}, {3, false, "c1"}}, 10);
  write_ckpt(2, CheckpointType::kPartial,
             {{2, false, "b2"}, {4, false, "d2"}}, 20);
  write_ckpt(3, CheckpointType::kPartial,
             {{3, true, ""}, {4, false, "d3"}}, 30);

  CheckpointMerger merger(&storage);
  bool did_merge = false;
  ASSERT_TRUE(merger.CollapseOnce(10, &did_merge).ok());
  EXPECT_TRUE(did_merge);
  EXPECT_EQ(merger.merges_done(), 1u);

  std::vector<CheckpointInfo> chain = storage.RecoveryChain();
  ASSERT_EQ(chain.size(), 1u);
  EXPECT_EQ(chain[0].type, CheckpointType::kFull);
  EXPECT_EQ(chain[0].id, 3u);        // adopts the last input's id
  EXPECT_EQ(chain[0].vpoc_lsn, 30u);  // and its point of consistency

  testing_util::StateMap merged;
  ASSERT_TRUE(testing_util::ChainToMap(chain, &merged).ok());
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged[1], "a1");
  EXPECT_EQ(merged[2], "b2");
  EXPECT_EQ(merged[4], "d3");
  EXPECT_EQ(merged.count(3), 0u);  // tombstoned
}

TEST(MergerTest, CollapseRespectsBatchLimit) {
  TempDir dir;
  CheckpointStorage storage(dir.path(), 0);
  ASSERT_TRUE(storage.Init().ok());
  auto write_simple = [&](uint64_t id, CheckpointType type) {
    CheckpointInfo info;
    info.id = id;
    info.type = type;
    info.vpoc_lsn = id;
    info.path = storage.PathFor(id, type);
    CheckpointFileWriter writer;
    ASSERT_TRUE(writer.Open(info.path, type, id, id, 0).ok());
    ASSERT_TRUE(writer.Append(id, "v" + std::to_string(id)).ok());
    ASSERT_TRUE(writer.Finish().ok());
    info.num_entries = 1;
    storage.Register(info);
  };
  write_simple(1, CheckpointType::kFull);
  for (uint64_t id = 2; id <= 6; ++id) {
    write_simple(id, CheckpointType::kPartial);
  }
  CheckpointMerger merger(&storage);
  bool did_merge = false;
  ASSERT_TRUE(merger.CollapseOnce(2, &did_merge).ok());
  EXPECT_TRUE(did_merge);
  // 1+2+3 collapsed into full@3; partials 4,5,6 remain.
  std::vector<CheckpointInfo> chain = storage.RecoveryChain();
  ASSERT_EQ(chain.size(), 4u);
  EXPECT_EQ(chain[0].id, 3u);
  EXPECT_EQ(chain[0].type, CheckpointType::kFull);
  testing_util::StateMap merged;
  ASSERT_TRUE(testing_util::ChainToMap(chain, &merged).ok());
  EXPECT_EQ(merged.size(), 6u);
}

TEST(MergerTest, NothingToMerge) {
  TempDir dir;
  CheckpointStorage storage(dir.path(), 0);
  ASSERT_TRUE(storage.Init().ok());
  CheckpointMerger merger(&storage);
  bool did_merge = true;
  ASSERT_TRUE(merger.CollapseOnce(4, &did_merge).ok());
  EXPECT_FALSE(did_merge);
}

}  // namespace
}  // namespace calcdb
