// Tests for the io layer: CRC-32 vectors, BinaryWriter/BinaryReader round
// trips, and snapshot save/load including failure injection (bad magic,
// truncation, bit flips, cross-policy restores).

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <string>
#include <vector>

#include "common/crc32.h"
#include "core/engine.h"
#include "common/binary_io.h"
#include "io/snapshot.h"
#include "test_util.h"

#include <gtest/gtest.h>

namespace sitfact {
namespace {

namespace fs = std::filesystem;

using testing_util::PaperTableI;
using testing_util::RandomDataConfig;
using testing_util::RandomDataset;

std::string TempPath(const std::string& name) {
  return (fs::temp_directory_path() /
          ("sitfact_io_test_" + std::to_string(::getpid()) + "_" + name))
      .string();
}

class TempFile {
 public:
  explicit TempFile(const std::string& name) : path_(TempPath(name)) {}
  ~TempFile() {
    std::error_code ec;
    fs::remove(path_, ec);
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

TEST(Crc32, KnownVectors) {
  // Standard check value for "123456789" under CRC-32/IEEE.
  EXPECT_EQ(Crc32::Of("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32::Of("", 0), 0x00000000u);
  EXPECT_EQ(Crc32::Of("a", 1), 0xE8B7BE43u);
}

TEST(Crc32, IncrementalMatchesOneShot) {
  const std::string data = "incremental discovery of prominent facts";
  Crc32 crc;
  crc.Update(data.data(), 10);
  crc.Update(data.data() + 10, data.size() - 10);
  EXPECT_EQ(crc.value(), Crc32::Of(data.data(), data.size()));
}

TEST(BinaryIo, RoundTripAllTypes) {
  TempFile file("roundtrip.bin");
  {
    BinaryWriter w(file.path());
    w.WriteU8(7);
    w.WriteU32(0xDEADBEEFu);
    w.WriteU64(0x0123456789ABCDEFull);
    w.WriteF64(-1234.5678);
    w.WriteString("hello, \"quoted\" world");
    w.WriteString("");
    w.WriteChecksum();
    ASSERT_TRUE(w.Close().ok());
  }
  BinaryReader r(file.path());
  EXPECT_EQ(r.ReadU8(), 7);
  EXPECT_EQ(r.ReadU32(), 0xDEADBEEFu);
  EXPECT_EQ(r.ReadU64(), 0x0123456789ABCDEFull);
  EXPECT_DOUBLE_EQ(r.ReadF64(), -1234.5678);
  EXPECT_EQ(r.ReadString(), "hello, \"quoted\" world");
  EXPECT_EQ(r.ReadString(), "");
  r.VerifyChecksum();
  EXPECT_TRUE(r.ok()) << r.status().ToString();
}

TEST(BinaryIo, ChecksumMismatchDetected) {
  TempFile file("corrupt.bin");
  {
    BinaryWriter w(file.path());
    w.WriteU64(42);
    w.WriteChecksum();
    ASSERT_TRUE(w.Close().ok());
  }
  // Flip one payload byte.
  {
    std::fstream f(file.path(),
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(2);
    f.put(static_cast<char>(0x5A));
  }
  BinaryReader r(file.path());
  (void)r.ReadU64();
  r.VerifyChecksum();
  EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
}

TEST(BinaryIo, TruncationDetected) {
  TempFile file("trunc.bin");
  {
    BinaryWriter w(file.path());
    w.WriteString("some payload that will get cut");
    w.WriteChecksum();
    ASSERT_TRUE(w.Close().ok());
  }
  fs::resize_file(file.path(), 6);
  BinaryReader r(file.path());
  (void)r.ReadString();
  EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
}

TEST(BinaryIo, MissingFileIsIoError) {
  BinaryReader r(TempPath("never_written.bin"));
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
}

TEST(BinaryIo, CountGuardRejectsGarbageLengths) {
  TempFile file("hugecount.bin");
  {
    BinaryWriter w(file.path());
    w.WriteU32(0xFFFFFFFFu);  // absurd string length prefix
    ASSERT_TRUE(w.Close().ok());
  }
  BinaryReader r(file.path());
  std::string s = r.ReadString();
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
}

// ---------------------------------------------------------------------------
// Relation snapshots.

TEST(RelationSnapshot, RoundTripPreservesEverything) {
  Dataset data = PaperTableI();
  Relation original(data.schema());
  for (const Row& row : data.rows()) original.Append(row);
  original.MarkDeleted(2);

  TempFile file("relation.snap");
  ASSERT_TRUE(SaveRelationSnapshot(original, file.path()).ok());
  auto loaded_or = LoadRelationSnapshot(file.path());
  ASSERT_TRUE(loaded_or.ok()) << loaded_or.status().ToString();
  const Relation& loaded = *loaded_or.value();

  ASSERT_EQ(loaded.size(), original.size());
  EXPECT_EQ(loaded.live_size(), original.live_size());
  ASSERT_EQ(loaded.schema().num_dimensions(),
            original.schema().num_dimensions());
  ASSERT_EQ(loaded.schema().num_measures(),
            original.schema().num_measures());
  for (int j = 0; j < loaded.schema().num_measures(); ++j) {
    EXPECT_EQ(loaded.schema().measure(j).direction,
              original.schema().measure(j).direction);
  }
  for (TupleId t = 0; t < loaded.size(); ++t) {
    EXPECT_EQ(loaded.IsDeleted(t), original.IsDeleted(t));
    for (int d = 0; d < loaded.schema().num_dimensions(); ++d) {
      EXPECT_EQ(loaded.DimString(t, d), original.DimString(t, d));
      EXPECT_EQ(loaded.dim(t, d), original.dim(t, d));  // identical encoding
    }
    for (int j = 0; j < loaded.schema().num_measures(); ++j) {
      EXPECT_EQ(loaded.measure(t, j), original.measure(t, j));
      EXPECT_EQ(loaded.measure_key(t, j), original.measure_key(t, j));
    }
  }
}

TEST(RelationSnapshot, BadMagicRejected) {
  TempFile file("notasnap.bin");
  {
    std::ofstream f(file.path(), std::ios::binary);
    f << "definitely not a snapshot file";
  }
  auto loaded = LoadRelationSnapshot(file.path());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
}

TEST(RelationSnapshot, TruncationRejected) {
  Dataset data = PaperTableI();
  Relation original(data.schema());
  for (const Row& row : data.rows()) original.Append(row);
  TempFile file("truncated.snap");
  ASSERT_TRUE(SaveRelationSnapshot(original, file.path()).ok());
  fs::resize_file(file.path(), fs::file_size(file.path()) / 2);
  auto loaded = LoadRelationSnapshot(file.path());
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
}

TEST(RelationSnapshot, BitFlipRejectedByChecksum) {
  Dataset data = PaperTableI();
  Relation original(data.schema());
  for (const Row& row : data.rows()) original.Append(row);
  TempFile file("bitflip.snap");
  ASSERT_TRUE(SaveRelationSnapshot(original, file.path()).ok());
  const auto size = static_cast<std::streamoff>(fs::file_size(file.path()));
  {
    std::fstream f(file.path(),
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(size - 20);
    char c = 0;
    f.get(c);
    f.seekp(size - 20);
    f.put(static_cast<char>(c ^ 0x40));
  }
  auto loaded = LoadRelationSnapshot(file.path());
  // Either a structural check or the checksum must fire; never an OK load.
  EXPECT_FALSE(loaded.ok());
}

// ---------------------------------------------------------------------------
// Engine snapshots.

struct EngineSnapshotParam {
  const char* algorithm;
  bool file_store;
};

// Prints the case as its stable label, so the gtest parameter dump (and
// hence the ctest test name) never shows raw object bytes.
void PrintTo(const EngineSnapshotParam& c, std::ostream* os) {
  *os << c.algorithm;
}

class EngineSnapshotTest
    : public ::testing::TestWithParam<EngineSnapshotParam> {};

/// Builds an engine over `schema`, streams `rows` into it, returns reports.
std::unique_ptr<DiscoveryEngine> MakeEngine(Relation* relation,
                                            const std::string& algorithm,
                                            const std::string& store_dir) {
  DiscoveryOptions options;
  auto disc_or = DiscoveryEngine::CreateDiscoverer(algorithm, relation,
                                                   options, store_dir);
  EXPECT_TRUE(disc_or.ok()) << disc_or.status().ToString();
  DiscoveryEngine::Config config;
  config.tau = 2.0;
  config.rank_facts = disc_or.value()->store() != nullptr;
  return std::make_unique<DiscoveryEngine>(relation,
                                           std::move(disc_or).value(),
                                           config);
}

TEST_P(EngineSnapshotTest, ResumedStreamMatchesUninterruptedRun) {
  RandomDataConfig cfg;
  cfg.num_tuples = 60;
  cfg.seed = 31;
  cfg.num_dims = 3;
  cfg.num_measures = 2;
  Dataset data = RandomDataset(cfg);
  const size_t cut = 40;

  std::string store_a;
  std::string store_b;
  std::string store_c;
  if (GetParam().file_store) {
    store_a = TempPath("stores_a");
    store_b = TempPath("stores_b");
    store_c = TempPath("stores_c");
  }

  // Reference: uninterrupted run.
  Relation full_rel(data.schema());
  auto full_engine = MakeEngine(&full_rel, GetParam().algorithm, store_a);
  std::vector<std::vector<SkylineFact>> expected;
  for (const Row& row : data.rows()) {
    expected.push_back(full_engine->Append(row).facts);
  }

  // Interrupted run: stream the prefix, snapshot, load, stream the suffix.
  TempFile snap("engine.snap");
  {
    Relation prefix_rel(data.schema());
    auto prefix_engine =
        MakeEngine(&prefix_rel, GetParam().algorithm, store_b);
    for (size_t i = 0; i < cut; ++i) {
      prefix_engine->Append(data.rows()[i]);
    }
    ASSERT_TRUE(SaveEngineSnapshot(*prefix_engine, snap.path()).ok());
  }

  SnapshotLoadOptions load;
  load.file_store_dir = store_c;
  auto restored_or = LoadEngineSnapshot(snap.path(), load);
  ASSERT_TRUE(restored_or.ok()) << restored_or.status().ToString();
  RestoredEngine restored = std::move(restored_or).value();
  EXPECT_EQ(restored.relation->size(), cut);
  EXPECT_EQ(std::string(restored.engine->discoverer().name()),
            GetParam().algorithm);

  for (size_t i = cut; i < data.rows().size(); ++i) {
    ArrivalReport report = restored.engine->Append(data.rows()[i]);
    ASSERT_EQ(report.facts, expected[i]) << "arrival " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Algorithms, EngineSnapshotTest,
    ::testing::Values(EngineSnapshotParam{"BottomUp", false},
                      EngineSnapshotParam{"TopDown", false},
                      EngineSnapshotParam{"SBottomUp", false},
                      EngineSnapshotParam{"STopDown", false},
                      EngineSnapshotParam{"BaselineSeq", false},
                      EngineSnapshotParam{"BaselineIdx", false},
                      EngineSnapshotParam{"FSTopDown", true}),
    [](const ::testing::TestParamInfo<EngineSnapshotParam>& info) {
      return info.param.algorithm;
    });

TEST(EngineSnapshot, ProminenceSurvivesRestore) {
  // The restored counter must reproduce prominence values exactly.
  Dataset data = PaperTableI();
  Relation rel(data.schema());
  auto engine = MakeEngine(&rel, "STopDown", "");
  for (size_t i = 0; i + 1 < data.rows().size(); ++i) {
    engine->Append(data.rows()[i]);
  }
  TempFile snap("prominence.snap");
  ASSERT_TRUE(SaveEngineSnapshot(*engine, snap.path()).ok());

  ArrivalReport direct = engine->Append(data.rows().back());

  auto restored_or = LoadEngineSnapshot(snap.path());
  ASSERT_TRUE(restored_or.ok());
  ArrivalReport resumed =
      restored_or.value().engine->Append(data.rows().back());

  ASSERT_EQ(direct.ranked.size(), resumed.ranked.size());
  for (size_t i = 0; i < direct.ranked.size(); ++i) {
    EXPECT_EQ(direct.ranked[i].fact, resumed.ranked[i].fact);
    EXPECT_EQ(direct.ranked[i].context_size, resumed.ranked[i].context_size);
    EXPECT_EQ(direct.ranked[i].skyline_size, resumed.ranked[i].skyline_size);
    EXPECT_DOUBLE_EQ(direct.ranked[i].prominence,
                     resumed.ranked[i].prominence);
  }
  EXPECT_EQ(direct.prominent.size(), resumed.prominent.size());
}

TEST(EngineSnapshot, SamePolicyOverrideAllowed) {
  Dataset data = PaperTableI();
  Relation rel(data.schema());
  auto engine = MakeEngine(&rel, "BottomUp", "");
  for (const Row& row : data.rows()) engine->Append(row);
  TempFile snap("override.snap");
  ASSERT_TRUE(SaveEngineSnapshot(*engine, snap.path()).ok());

  SnapshotLoadOptions load;
  load.algorithm_override = "SBottomUp";  // same Invariant-1 bucket layout
  auto restored = LoadEngineSnapshot(snap.path(), load);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(std::string(restored.value().engine->discoverer().name()),
            "SBottomUp");
}

TEST(EngineSnapshot, CrossPolicyOverrideRejected) {
  Dataset data = PaperTableI();
  Relation rel(data.schema());
  auto engine = MakeEngine(&rel, "BottomUp", "");
  for (const Row& row : data.rows()) engine->Append(row);
  TempFile snap("crosspolicy.snap");
  ASSERT_TRUE(SaveEngineSnapshot(*engine, snap.path()).ok());

  SnapshotLoadOptions load;
  load.algorithm_override = "TopDown";  // Invariant 2: incompatible buckets
  auto restored = LoadEngineSnapshot(snap.path(), load);
  EXPECT_EQ(restored.status().code(), StatusCode::kInvalidArgument);
}

TEST(EngineSnapshot, CcscRestoreUnimplemented) {
  Dataset data = PaperTableI();
  Relation rel(data.schema());
  auto engine = MakeEngine(&rel, "C-CSC", "");
  for (const Row& row : data.rows()) engine->Append(row);
  TempFile snap("ccsc.snap");
  ASSERT_TRUE(SaveEngineSnapshot(*engine, snap.path()).ok());
  auto restored = LoadEngineSnapshot(snap.path());
  EXPECT_EQ(restored.status().code(), StatusCode::kUnimplemented);
}

TEST(EngineSnapshot, CcscReplayRebuildContinuesIdentically) {
  RandomDataConfig cfg;
  cfg.num_tuples = 50;
  cfg.seed = 63;
  cfg.num_dims = 3;
  cfg.num_measures = 2;
  Dataset data = RandomDataset(cfg);
  const size_t cut = 30;

  Relation full_rel(data.schema());
  auto full_engine = MakeEngine(&full_rel, "C-CSC", "");
  std::vector<std::vector<SkylineFact>> expected;
  for (const Row& row : data.rows()) {
    expected.push_back(full_engine->Append(row).facts);
  }

  TempFile snap("ccsc_replay.snap");
  {
    Relation prefix_rel(data.schema());
    auto prefix_engine = MakeEngine(&prefix_rel, "C-CSC", "");
    for (size_t i = 0; i < cut; ++i) prefix_engine->Append(data.rows()[i]);
    ASSERT_TRUE(SaveEngineSnapshot(*prefix_engine, snap.path()).ok());
  }

  SnapshotLoadOptions load;
  load.allow_replay_rebuild = true;
  auto restored_or = LoadEngineSnapshot(snap.path(), load);
  ASSERT_TRUE(restored_or.ok()) << restored_or.status().ToString();
  RestoredEngine restored = std::move(restored_or).value();
  for (size_t i = cut; i < data.rows().size(); ++i) {
    ASSERT_EQ(restored.engine->Append(data.rows()[i]).facts, expected[i])
        << "arrival " << i;
  }
}

TEST(EngineSnapshot, CrossPolicyReplayRebuildWorks) {
  // BottomUp snapshot restored as TopDown: buckets are incompatible, but a
  // replay rebuild re-derives Invariant-2 state from the relation.
  RandomDataConfig cfg;
  cfg.num_tuples = 40;
  cfg.seed = 64;
  Dataset data = RandomDataset(cfg);
  const size_t cut = 25;

  Relation full_rel(data.schema());
  auto full_engine = MakeEngine(&full_rel, "TopDown", "");
  std::vector<std::vector<SkylineFact>> expected;
  for (const Row& row : data.rows()) {
    expected.push_back(full_engine->Append(row).facts);
  }

  TempFile snap("crosspolicy_replay.snap");
  {
    Relation prefix_rel(data.schema());
    auto prefix_engine = MakeEngine(&prefix_rel, "BottomUp", "");
    for (size_t i = 0; i < cut; ++i) prefix_engine->Append(data.rows()[i]);
    ASSERT_TRUE(SaveEngineSnapshot(*prefix_engine, snap.path()).ok());
  }

  SnapshotLoadOptions load;
  load.algorithm_override = "TopDown";
  load.allow_replay_rebuild = true;
  auto restored_or = LoadEngineSnapshot(snap.path(), load);
  ASSERT_TRUE(restored_or.ok()) << restored_or.status().ToString();
  for (size_t i = cut; i < data.rows().size(); ++i) {
    ASSERT_EQ(restored_or.value().engine->Append(data.rows()[i]).facts,
              expected[i])
        << "arrival " << i;
  }
}

TEST(EngineSnapshot, ReplayRebuildSkipsDeletedTuples) {
  // A snapshot taken after a Remove() must replay to the post-removal
  // state, not resurrect the tombstoned tuple's influence.
  Dataset data = PaperTableI();
  Relation rel(data.schema());
  auto engine = MakeEngine(&rel, "BottomUp", "");
  for (const Row& row : data.rows()) engine->Append(row);
  ASSERT_TRUE(engine->Remove(5).ok());  // drop Strickland (t6)

  TempFile snap("replay_deleted.snap");
  ASSERT_TRUE(SaveEngineSnapshot(*engine, snap.path()).ok());

  SnapshotLoadOptions load;
  load.algorithm_override = "TopDown";  // force the replay path
  load.allow_replay_rebuild = true;
  auto restored_or = LoadEngineSnapshot(snap.path(), load);
  ASSERT_TRUE(restored_or.ok()) << restored_or.status().ToString();
  RestoredEngine restored = std::move(restored_or).value();
  EXPECT_TRUE(restored.relation->IsDeleted(5));

  // Continue both engines with one more row and compare.
  Row extra{{"Wesley", "Mar", "1995-96", "Celtics", "Nets"}, {30, 2, 9}};
  ArrivalReport direct = engine->Append(extra);
  ArrivalReport resumed = restored.engine->Append(extra);
  EXPECT_EQ(direct.facts, resumed.facts);
}

TEST(EngineSnapshot, BaselineToStoreAlgorithmRejected) {
  Dataset data = PaperTableI();
  Relation rel(data.schema());
  auto engine = MakeEngine(&rel, "BaselineSeq", "");
  for (const Row& row : data.rows()) engine->Append(row);
  TempFile snap("baseline.snap");
  ASSERT_TRUE(SaveEngineSnapshot(*engine, snap.path()).ok());

  SnapshotLoadOptions load;
  load.algorithm_override = "BottomUp";  // needs buckets the snapshot lacks
  auto restored = LoadEngineSnapshot(snap.path(), load);
  EXPECT_EQ(restored.status().code(), StatusCode::kInvalidArgument);
}

TEST(EngineSnapshot, ShardedRestoreOfTopDownNeedsReplay) {
  // The sharded engine's segments follow Invariant 1, so a TopDown bucket
  // dump (Invariant 2) cannot seed them; only a replay rebuild can.
  RandomDataConfig cfg;
  cfg.num_tuples = 50;
  cfg.seed = 65;
  cfg.num_dims = 3;
  cfg.num_measures = 2;
  Dataset data = RandomDataset(cfg);
  const size_t cut = 30;

  Relation full_rel(data.schema());
  auto full_engine = MakeEngine(&full_rel, "TopDown", "");
  std::vector<ArrivalReport> expected;
  for (const Row& row : data.rows()) {
    expected.push_back(full_engine->Append(row));
  }

  TempFile snap("sharded_topdown.snap");
  {
    Relation prefix_rel(data.schema());
    auto prefix_engine = MakeEngine(&prefix_rel, "TopDown", "");
    for (size_t i = 0; i < cut; ++i) prefix_engine->Append(data.rows()[i]);
    ASSERT_TRUE(SaveEngineSnapshot(*prefix_engine, snap.path()).ok());
  }

  SnapshotLoadOptions load;
  load.num_shards = 3;
  load.num_threads = 2;
  EXPECT_EQ(LoadEngineSnapshot(snap.path(), load).status().code(),
            StatusCode::kInvalidArgument);

  load.allow_replay_rebuild = true;
  auto restored_or = LoadEngineSnapshot(snap.path(), load);
  ASSERT_TRUE(restored_or.ok()) << restored_or.status().ToString();
  RestoredEngine restored = std::move(restored_or).value();
  EXPECT_EQ(std::string(restored.engine->discoverer().name()), "Sharded");
  for (size_t i = cut; i < data.rows().size(); ++i) {
    SCOPED_TRACE("arrival " + std::to_string(i));
    ArrivalReport report = restored.engine->Append(data.rows()[i]);
    ASSERT_EQ(report.facts, expected[i].facts);
    ASSERT_EQ(report.ranked.size(), expected[i].ranked.size());
    for (size_t j = 0; j < report.ranked.size(); ++j) {
      EXPECT_EQ(report.ranked[j].fact, expected[i].ranked[j].fact);
      EXPECT_EQ(report.ranked[j].context_size,
                expected[i].ranked[j].context_size);
      EXPECT_EQ(report.ranked[j].skyline_size,
                expected[i].ranked[j].skyline_size);
      EXPECT_EQ(report.ranked[j].prominence, expected[i].ranked[j].prominence);
    }
    EXPECT_EQ(report.prominent.size(), expected[i].prominent.size());
  }
}

TEST(EngineSnapshot, RelationOnlySnapshotRejectedForEngineLoad) {
  Dataset data = PaperTableI();
  Relation rel(data.schema());
  for (const Row& row : data.rows()) rel.Append(row);
  TempFile snap("relonly.snap");
  ASSERT_TRUE(SaveRelationSnapshot(rel, snap.path()).ok());
  auto restored = LoadEngineSnapshot(snap.path());
  EXPECT_EQ(restored.status().code(), StatusCode::kInvalidArgument);
  // But the relation loader accepts it.
  EXPECT_TRUE(LoadRelationSnapshot(snap.path()).ok());
}

}  // namespace
}  // namespace sitfact
