// The shared capture job (src/checkpoint/capture.h): one layout rule for
// every algorithm (one file at one shard, segment K == shard K at N
// shards; Fork's child always one file), cycle stats that match the files
// on disk, byte-stable single-shard output for every algorithm, legacy
// slot-range segmented checkpoints still recovering, and the fuzzy
// dirty-record table staying one file.

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "checkpoint/fuzzy.h"
#include "gtest/gtest.h"
#include "tests/test_util.h"
#include "util/crc32.h"
#include "util/rng.h"
#include "workload/microbench.h"

namespace calcdb {
namespace {

using testing_util::DbToMap;
using testing_util::FileSize;
using testing_util::StateMap;
using testing_util::TempDir;

constexpr CheckpointAlgorithm kAllAlgorithms[] = {
    CheckpointAlgorithm::kCalc,   CheckpointAlgorithm::kPCalc,
    CheckpointAlgorithm::kNaive,  CheckpointAlgorithm::kPNaive,
    CheckpointAlgorithm::kFuzzy,  CheckpointAlgorithm::kPFuzzy,
    CheckpointAlgorithm::kIpp,    CheckpointAlgorithm::kPIpp,
    CheckpointAlgorithm::kZigzag, CheckpointAlgorithm::kPZigzag,
    CheckpointAlgorithm::kMvcc,   CheckpointAlgorithm::kFork,
};

Options CaptureOptions(const std::string& dir, CheckpointAlgorithm algo,
                       uint32_t shards) {
  Options options;
  options.max_records = 512;
  options.algorithm = algo;
  options.checkpoint_dir = dir;
  options.disk_bytes_per_sec = 0;
  // Explicit: wins over CALCDB_STORAGE_SHARDS / CALCDB_CAPTURE_THREADS.
  options.storage_shards = static_cast<int>(shards);
  options.capture_threads = static_cast<int>(shards);
  return options;
}

void RunRmw(Database* db, const MicrobenchConfig& config, uint64_t seed,
            int txns) {
  MicrobenchWorkload workload(config);
  Rng rng(seed);
  for (int i = 0; i < txns; ++i) {
    TxnRequest req = workload.Next(rng);
    ASSERT_TRUE(
        db->executor()->Execute(req.proc_id, std::move(req.args), 0).ok());
  }
}

// One file at one shard; else segment K holds only shard K's keys.
void ExpectShardLayout(const CheckpointInfo& info, uint32_t shards) {
  if (shards == 1) {
    EXPECT_TRUE(info.segments.empty()) << info.path;
    return;
  }
  ASSERT_EQ(info.segments.size(), shards) << info.path;
  for (uint32_t seg = 0; seg < shards; ++seg) {
    CheckpointFileReader reader;
    ASSERT_TRUE(reader.Open(info.segments[seg]).ok());
    ASSERT_TRUE(reader
                    .ReadAll([&](const CheckpointEntry& e) -> Status {
                      EXPECT_EQ(ShardedStore::ShardOfKey(e.key, shards), seg)
                          << "segment " << seg << " holds key " << e.key;
                      return Status::OK();
                    })
                    .ok());
  }
}

class CaptureLayoutTest
    : public ::testing::TestWithParam<
          std::tuple<CheckpointAlgorithm, uint32_t>> {};

// Every algorithm writes through the capture job, so every algorithm
// follows the layout rule and its stats describe the files it wrote; the
// chain of a transaction-consistent algorithm recovers the live state.
TEST_P(CaptureLayoutTest, LayoutStatsAndRecovery) {
  const auto [algo, shards] = GetParam();
  CALCDB_SKIP_FORK_UNDER_TSAN(algo);
  TempDir dir;
  Options options = CaptureOptions(dir.path(), algo, shards);
  MicrobenchConfig config;
  config.num_records = 200;
  config.value_size = 32;
  config.ops_per_txn = 4;

  StateMap live;
  bool consistent = false;
  bool partial = false;
  {
    std::unique_ptr<Database> db;
    ASSERT_TRUE(Database::Open(options, &db).ok());
    ASSERT_TRUE(SetupMicrobench(db.get(), config).ok());
    ASSERT_TRUE(db->WriteBaseCheckpoint().ok());
    ASSERT_TRUE(db->Start().ok());
    // The base checkpoint is the engine's, not the algorithm's: it
    // follows the shard rule for every algorithm.
    ExpectShardLayout(db->checkpoint_storage()->List().front(), shards);
    for (int round = 0; round < 2; ++round) {
      RunRmw(db.get(), config, 31 + static_cast<uint64_t>(round), 60);
      ASSERT_TRUE(db->Checkpoint().ok());
      CheckpointInfo info = db->checkpoint_storage()->List().back();
      ExpectShardLayout(info, algo == CheckpointAlgorithm::kFork ? 1 : shards);

      CheckpointCycleStats stats = db->checkpointer()->last_cycle();
      EXPECT_EQ(stats.checkpoint_id, info.id);
      EXPECT_EQ(stats.segments, info.files().size());
      uint64_t on_disk = 0;
      for (const std::string& file : info.files()) on_disk += FileSize(file);
      EXPECT_EQ(stats.bytes_written, on_disk);
      EXPECT_EQ(stats.records_written, info.num_entries);
    }
    live = DbToMap(db.get());
    consistent = db->checkpointer()->transaction_consistent();
    partial = db->checkpointer()->is_partial();
  }
  if (!consistent) return;  // fuzzy chains are not a database state

  std::unique_ptr<Database> recovered;
  ASSERT_TRUE(Database::Open(options, &recovered).ok());
  RecoveryStats rstats;
  ASSERT_TRUE(recovered->Recover(nullptr, &rstats).ok());
  // A full chain is the newest full checkpoint; a partial chain the base
  // plus both partials.
  EXPECT_EQ(rstats.checkpoints_loaded, partial ? 3u : 1u);
  ASSERT_TRUE(recovered->Start().ok());
  EXPECT_EQ(live.size(), config.num_records);
  EXPECT_EQ(DbToMap(recovered.get()), live);
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithms, CaptureLayoutTest,
    ::testing::Combine(::testing::ValuesIn(kAllAlgorithms),
                       ::testing::Values(1u, 4u)),
    [](const ::testing::TestParamInfo<CaptureLayoutTest::ParamType>& info) {
      return std::string(AlgorithmName(std::get<0>(info.param))) +
             "_shards" + std::to_string(std::get<1>(info.param));
    });

void AppendRaw(std::string* out, const void* data, size_t n) {
  out->append(reinterpret_cast<const char*>(data), n);
}

template <typename T>
void AppendPod(std::string* out, T v) {
  AppendRaw(out, &v, sizeof(v));
}

std::string ReadFile(const std::string& path) {
  std::string out;
  FILE* f = fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  if (f == nullptr) return out;
  char buf[4096];
  size_t n;
  while ((n = fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, n);
  fclose(f);
  return out;
}

class CaptureBytePinTest
    : public ::testing::TestWithParam<CheckpointAlgorithm> {};

// At one shard every algorithm's checkpoint is the legacy single file,
// byte for byte (docs/CHECKPOINT_FORMAT.md): header, entries in slot
// order (for a partial, only the records written since the previous
// checkpoint), footer with entry count and CRC. Expected bytes are
// rebuilt from the documented layout and the insertion order, not from
// the writer.
TEST_P(CaptureBytePinTest, SingleShardOutputIsByteStable) {
  const CheckpointAlgorithm algo = GetParam();
  CALCDB_SKIP_FORK_UNDER_TSAN(algo);
  TempDir dir;
  Options options = CaptureOptions(dir.path(), algo, 1);
  std::unique_ptr<Database> db;
  ASSERT_TRUE(Database::Open(options, &db).ok());
  constexpr size_t kValueSize = 24;
  db->registry()->Register(std::make_unique<RmwProcedure>(kValueSize));
  std::vector<uint64_t> slot_order;
  for (uint64_t k = 0; k < 40; ++k) {
    uint64_t key = k * 2654435761ULL + 11;  // scattered, insertion-ordered
    std::string value(8 + static_cast<size_t>(k % 13), 'a' + k % 26);
    ASSERT_TRUE(db->Load(key, value).ok());
    slot_order.push_back(key);
  }
  ASSERT_TRUE(db->Start().ok());
  std::set<uint64_t> written;
  for (uint32_t t = 0; t < 3; ++t) {
    uint64_t keys[2] = {slot_order[7 * t + 3], slot_order[30 - 5 * t]};
    written.insert(keys, keys + 2);
    ASSERT_TRUE(db->executor()
                    ->Execute(kRmwProcId, RmwProcedure::MakeArgs(keys, 2), 0)
                    .ok());
  }
  ASSERT_TRUE(db->Checkpoint().ok());

  std::vector<CheckpointInfo> list = db->checkpoint_storage()->List();
  ASSERT_EQ(list.size(), 1u);
  ASSERT_TRUE(list[0].segments.empty());
  const bool partial = db->checkpointer()->is_partial();
  std::string expected;
  expected.append("CALCKPT1", 8);
  AppendPod<uint32_t>(&expected, 1);  // format version
  AppendPod<uint8_t>(&expected, partial ? 1 : 0);
  AppendPod<uint64_t>(&expected, list[0].id);
  AppendPod<uint64_t>(&expected, list[0].vpoc_lsn);
  std::string entries;
  uint64_t count = 0;
  for (uint64_t key : slot_order) {
    if (partial && written.count(key) == 0) continue;
    std::string value;
    ASSERT_TRUE(db->Read(key, &value).ok());
    AppendPod<uint64_t>(&entries, key);
    AppendPod<uint8_t>(&entries, 0);  // flags: not a tombstone
    AppendPod<uint32_t>(&entries, static_cast<uint32_t>(value.size()));
    entries.append(value);
    ++count;
  }
  expected += entries;
  AppendPod<uint64_t>(&expected, ~uint64_t{0});  // footer sentinel key
  AppendPod<uint8_t>(&expected, 0xFF);           // footer flags
  AppendPod<uint64_t>(&expected, count);
  AppendPod<uint32_t>(&expected, Crc32(entries.data(), entries.size()));
  EXPECT_EQ(ReadFile(list[0].path), expected);
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithms, CaptureBytePinTest, ::testing::ValuesIn(kAllAlgorithms),
    [](const ::testing::TestParamInfo<CheckpointAlgorithm>& info) {
      return AlgorithmName(info.param);
    });

// Slot-range slicing is no longer written, but checkpoints it wrote must
// still load: a one-shard full checkpoint split into three contiguous
// slot ranges (one self-validating segment each, listed in the manifest)
// followed by a two-range partial with a tombstone.
TEST(CaptureCompatTest, LegacySlotRangeSegmentsStillRecover) {
  TempDir dir;
  StateMap expected;
  {
    CheckpointStorage storage(dir.path(), 0);
    ASSERT_TRUE(storage.Init().ok());
    auto write_ranges = [&](uint64_t id, CheckpointType type,
                            const std::vector<std::vector<uint64_t>>& ranges,
                            uint64_t salt) {
      CheckpointInfo info;
      info.id = id;
      info.type = type;
      info.vpoc_lsn = 0;
      info.path = storage.PathFor(id, type);
      for (size_t seg = 0; seg < ranges.size(); ++seg) {
        std::string path = storage.SegmentPathFor(id, type, seg);
        CheckpointFileWriter writer;
        ASSERT_TRUE(writer.Open(path, type, id, 0, uint64_t{0}).ok());
        for (uint64_t key : ranges[seg]) {
          if (key % 7 == 3 && type == CheckpointType::kPartial) {
            ASSERT_TRUE(writer.AppendTombstone(key).ok());
            expected.erase(key);
            continue;
          }
          std::string value = "v" + std::to_string(key * salt);
          ASSERT_TRUE(writer.Append(key, value).ok());
          expected[key] = value;
        }
        ASSERT_TRUE(writer.Finish().ok());
        info.num_entries += writer.entries_written();
        info.segments.push_back(path);
      }
      storage.Register(info);
    };
    std::vector<std::vector<uint64_t>> full(3), part(2);
    for (uint64_t k = 0; k < 90; ++k) full[k / 30].push_back(k * 977 + 5);
    for (uint64_t k = 0; k < 90; k += 4) {
      part[k < 45 ? 0 : 1].push_back(k * 977 + 5);
    }
    write_ranges(1, CheckpointType::kFull, full, 3);
    write_ranges(2, CheckpointType::kPartial, part, 11);
    ASSERT_TRUE(storage.PersistManifest().ok());
  }

  Options options = CaptureOptions(dir.path(), CheckpointAlgorithm::kCalc, 1);
  std::unique_ptr<Database> db;
  ASSERT_TRUE(Database::Open(options, &db).ok());
  RecoveryStats stats;
  ASSERT_TRUE(db->Recover(nullptr, &stats).ok());
  EXPECT_EQ(stats.checkpoints_loaded, 2u);
  EXPECT_EQ(stats.segments_loaded, 5u);
  ASSERT_TRUE(db->Start().ok());
  EXPECT_EQ(DbToMap(db.get()), expected);
}

// The quiesce-time dirty-record table goes to one path per checkpointer,
// truncated each cycle: K cycles leave exactly one table file, holding
// the last cycle's dirty keys.
TEST(FuzzyDirtyTableTest, CyclesReuseOneTableFile) {
  for (CheckpointAlgorithm algo :
       {CheckpointAlgorithm::kFuzzy, CheckpointAlgorithm::kPFuzzy}) {
    SCOPED_TRACE(AlgorithmName(algo));
    TempDir dir;
    Options options = CaptureOptions(dir.path(), algo, 1);
    std::unique_ptr<Database> db;
    ASSERT_TRUE(Database::Open(options, &db).ok());
    MicrobenchConfig config;
    config.num_records = 100;
    config.value_size = 16;
    ASSERT_TRUE(SetupMicrobench(db.get(), config).ok());
    ASSERT_TRUE(db->Start().ok());
    constexpr int kCycles = 5;
    std::set<uint64_t> last_dirty;
    for (int c = 0; c < kCycles; ++c) {
      last_dirty.clear();
      for (uint64_t t = 0; t < 4; ++t) {
        uint64_t keys[2] = {(t * 13 + static_cast<uint64_t>(c)) % 100,
                            (t * 29 + 7) % 100};
        last_dirty.insert(keys, keys + 2);
        ASSERT_TRUE(db->executor()
                        ->Execute(kRmwProcId,
                                  RmwProcedure::MakeArgs(keys, 2), 0)
                        .ok());
      }
      ASSERT_TRUE(db->Checkpoint().ok());
    }
    std::vector<std::string> tables;
    for (const auto& entry : std::filesystem::directory_iterator(dir.path())) {
      if (entry.path().extension() == ".meta") {
        tables.push_back(entry.path().string());
      }
    }
    auto* fuzzy = static_cast<FuzzyCheckpointer*>(db->checkpointer());
    ASSERT_EQ(tables.size(), 1u);
    EXPECT_EQ(tables[0], fuzzy->DirtyTablePath());
    EXPECT_EQ(FileSize(tables[0]), last_dirty.size() * sizeof(uint64_t));
  }
}

}  // namespace
}  // namespace calcdb
