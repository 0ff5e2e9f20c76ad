// Differential tests for skyline/skyband_index.h. The index is diffed
// against a brute-force ForEachBucket rescan after each mutation (memory,
// segmented and restored stores), engines run the same op stream with the
// index on vs off — or over a file store, which keeps no index — and must
// produce identical reports, and the sharded engine hammers
// OnBucketChanged from pool threads (the SkybandIndex TSan target).

#include "skyline/skyband_index.h"

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/binary_io.h"
#include "common/rng.h"
#include "core/engine.h"
#include "exec/sharded_engine.h"
#include "storage/memory_mu_store.h"
#include "storage/segmented_mu_store.h"
#include "test_util.h"

#include <gtest/gtest.h>

namespace sitfact {
namespace {

namespace fs = std::filesystem;
using testing_util::PaperTableIV;
using testing_util::RandomDataConfig;
using testing_util::RandomDataset;

/// Brute-force oracle: the index must hold exactly the store's non-empty
/// buckets, member-for-member, with gauges and probe surface agreeing.
void ExpectMatchesRescan(const SkybandIndex& index, MuStore& store) {
  std::unordered_map<Constraint, std::map<MeasureMask, std::vector<TupleId>>,
                     ConstraintHash>
      dump;
  size_t dumped_buckets = 0;
  size_t dumped_members = 0;
  store.ForEachBucket([&](const Constraint& c, MeasureMask m,
                          const std::vector<TupleId>& bucket) {
    dump[c][m] = bucket;
    ++dumped_buckets;
    dumped_members += bucket.size();
  });

  size_t bands = 0;
  index.ForEachBand([&](const Constraint& c, MeasureMask m,
                        const std::vector<TupleId>& members) {
    ++bands;
    auto it = dump.find(c);
    ASSERT_NE(it, dump.end()) << "band for unknown constraint";
    auto bit = it->second.find(m);
    ASSERT_NE(bit, it->second.end()) << "band for unknown subspace";
    EXPECT_EQ(members, bit->second);
  });
  EXPECT_EQ(bands, dumped_buckets) << "index holds stale bands";

  for (const auto& [c, buckets] : dump) {
    for (const auto& [m, bucket] : buckets) {
      EXPECT_EQ(index.SkylineSize(c, m), bucket.size());
    }
  }

  const SkybandIndex::Stats stats = index.stats();
  EXPECT_EQ(stats.families, dump.size());
  EXPECT_EQ(stats.bands, dumped_buckets);
  EXPECT_EQ(stats.members, dumped_members);
}

void ExpectReportsEqual(const ArrivalReport& a, const ArrivalReport& b) {
  ASSERT_EQ(a.tuple, b.tuple);
  ASSERT_EQ(a.facts, b.facts);
  ASSERT_EQ(a.ranked.size(), b.ranked.size());
  for (size_t i = 0; i < a.ranked.size(); ++i) {
    ASSERT_EQ(a.ranked[i].fact, b.ranked[i].fact) << "rank " << i;
    ASSERT_EQ(a.ranked[i].context_size, b.ranked[i].context_size);
    ASSERT_EQ(a.ranked[i].skyline_size, b.ranked[i].skyline_size);
    ASSERT_EQ(a.ranked[i].prominence, b.ranked[i].prominence);
  }
  ASSERT_EQ(a.prominent.size(), b.prominent.size());
  for (size_t i = 0; i < a.prominent.size(); ++i) {
    ASSERT_EQ(a.prominent[i].fact, b.prominent[i].fact);
  }
}

RandomDataConfig SmallConfig(int n, uint64_t seed) {
  RandomDataConfig cfg;
  cfg.num_tuples = n;
  cfg.seed = seed;
  cfg.num_dims = 3;
  cfg.num_measures = 2;
  return cfg;
}

TEST(SkybandIndexMemory, ObserverTracksEveryDiscoveryMutation) {
  Dataset data = RandomDataset(SmallConfig(40, 7));
  Relation relation(data.schema());
  auto disc_or = DiscoveryEngine::CreateDiscoverer("SBottomUp", &relation, {});
  ASSERT_TRUE(disc_or.ok());
  std::unique_ptr<Discoverer> disc = std::move(disc_or).value();

  SkybandIndex index;
  index.Attach(disc->mutable_store(), disc->storage_policy());
  EXPECT_TRUE(index.attached());

  std::vector<SkylineFact> facts;
  for (const Row& row : data.rows()) {
    disc->Discover(relation.Append(row), &facts);
    ExpectMatchesRescan(index, *disc->mutable_store());
  }
  EXPECT_GT(index.stats().notifications, 0u);

  // Removals repair many buckets; the shadow follows each repair.
  for (TupleId t : {TupleId{3}, TupleId{17}, TupleId{0}}) {
    relation.MarkDeleted(t);
    ASSERT_TRUE(disc->Remove(t).ok());
    ExpectMatchesRescan(index, *disc->mutable_store());
  }

  // One observer slot per store: release it, then a late Attach to the
  // already-populated store must prime itself from ForEachBucket.
  index.Detach();
  EXPECT_FALSE(index.attached());
  SkybandIndex late;
  late.Attach(disc->mutable_store(), disc->storage_policy());
  ExpectMatchesRescan(late, *disc->mutable_store());
}

TEST(SkybandIndexFile, NonNotifyingStoreNeedsRebuild) {
  // File-backed stores never notify, so a ranking engine over one keeps no
  // skyband shadow and ranks from the store; its reports must equal the
  // in-memory run's, where the shadow serves every |λ|.
  Dataset data = RandomDataset(SmallConfig(40, 19));
  const std::string dir =
      (fs::temp_directory_path() / "sitfact_skyband_file_test").string();
  fs::remove_all(dir);
  Relation file_rel(data.schema());
  Relation mem_rel(data.schema());
  auto file_disc =
      DiscoveryEngine::CreateDiscoverer("FSBottomUp", &file_rel, {}, dir);
  auto mem_disc = DiscoveryEngine::CreateDiscoverer("SBottomUp", &mem_rel, {});
  ASSERT_TRUE(file_disc.ok());
  ASSERT_TRUE(mem_disc.ok());
  DiscoveryEngine::Config config;
  config.tau = 2.0;
  DiscoveryEngine file_engine(&file_rel, std::move(file_disc).value(),
                              config);
  DiscoveryEngine mem_engine(&mem_rel, std::move(mem_disc).value(), config);
  ASSERT_FALSE(file_engine.discoverer().store()->NotifiesObservers());
  EXPECT_EQ(file_engine.skyband_index(), nullptr);
  ASSERT_NE(mem_engine.skyband_index(), nullptr);

  for (const Row& row : data.rows()) {
    ExpectReportsEqual(file_engine.Append(row), mem_engine.Append(row));
    if (::testing::Test::HasFatalFailure()) break;
  }
  fs::remove_all(dir);
}

TEST(SkybandIndexSegmented, ObserverFollowsPerSegmentWrites) {
  Dataset data = PaperTableIV();
  Relation r(data.schema());
  for (const Row& row : data.rows()) r.Append(row);
  SegmentedMuStore store(3, {0, 1, 2, 0, 1, 2, 0, 1});

  SkybandIndex index;
  index.Attach(&store, StoragePolicy::kAllSkylineConstraints);
  EXPECT_TRUE(index.attached());

  auto C = [&](DimMask mask, TupleId t = 4) {
    return Constraint::ForTuple(r, t, mask);
  };
  store.GetOrCreate(C(0b001))->Write(0b01, {0, 1});
  ExpectMatchesRescan(index, store);
  store.GetOrCreate(C(0b010))->Write(0b10, {2});
  store.GetOrCreate(C(0b011))->Write(0b11, {3, 4});
  ExpectMatchesRescan(index, store);
  store.segment(0)->Find(C(0b011))->Write(0b11, {3});  // shard's direct path
  ExpectMatchesRescan(index, store);
  store.Find(C(0b001))->Write(0b01, {});  // emptied -> band erased
  ExpectMatchesRescan(index, store);
}

TEST(SkybandIndexRestore, AttachPrimesFromDeserializedDump) {
  // Populate a memory store through discovery, snapshot it, restore the
  // dump into a fresh memory store: Attach alone must leave the index
  // coherent with the restored buckets.
  Dataset data = RandomDataset(SmallConfig(30, 11));
  Relation relation(data.schema());
  auto disc_or = DiscoveryEngine::CreateDiscoverer("SBottomUp", &relation, {});
  ASSERT_TRUE(disc_or.ok());
  std::unique_ptr<Discoverer> disc = std::move(disc_or).value();
  std::vector<SkylineFact> facts;
  for (const Row& row : data.rows()) {
    disc->Discover(relation.Append(row), &facts);
  }

  const fs::path base =
      fs::temp_directory_path() / "sitfact_skyband_restore_test";
  fs::remove_all(base);
  fs::create_directories(base);
  const std::string dump = (base / "buckets.bin").string();
  {
    BinaryWriter w(dump);
    disc->mutable_store()->SerializeBuckets(&w);
  }

  MemoryMuStore restored;
  {
    BinaryReader reader(dump);
    ASSERT_TRUE(restored
                    .DeserializeBuckets(&reader,
                                        relation.schema().num_dimensions(),
                                        relation.size())
                    .ok());
  }

  SkybandIndex index;
  index.Attach(&restored, disc->storage_policy());
  ExpectMatchesRescan(index, restored);
  // And the restored bands agree with the original store's bands.
  ExpectMatchesRescan(index, *disc->mutable_store());
  fs::remove_all(base);
}

/// The engine differential: the same Append/Remove/Update stream through an
/// index-accelerated engine and an escape-hatched one must produce
/// identical reports — the index may only change how |λ| is obtained.
void RunEngineDifferential(const std::string& algo) {
  Dataset data = RandomDataset(SmallConfig(70, 23));
  Relation on_rel(data.schema());
  Relation off_rel(data.schema());
  auto make = [&](Relation* rel) {
    auto disc_or = DiscoveryEngine::CreateDiscoverer(algo, rel, {});
    EXPECT_TRUE(disc_or.ok());
    DiscoveryEngine::Config config;
    config.tau = 2.0;
    return std::make_unique<DiscoveryEngine>(rel, std::move(disc_or).value(),
                                             config);
  };
  auto on = make(&on_rel);
  ASSERT_NE(on->skyband_index(), nullptr);
  ::setenv("SITFACT_SKYBAND_INDEX", "off", 1);
  auto off = make(&off_rel);
  ::unsetenv("SITFACT_SKYBAND_INDEX");
  ASSERT_EQ(off->skyband_index(), nullptr);

  Rng rng(5);
  for (const Row& row : data.rows()) {
    ExpectReportsEqual(on->Append(row), off->Append(row));
    if (::testing::Test::HasFatalFailure()) return;
    if (on_rel.size() > 5 && rng.NextBool(0.15)) {
      const TupleId t = rng.NextBounded(on_rel.size());
      if (!on_rel.IsDeleted(t)) {
        if (rng.NextBool(0.5)) {
          ASSERT_EQ(on->Remove(t).ok(), off->Remove(t).ok());
        } else {
          auto ra = on->Update(t, data.rows()[0]);
          auto rb = off->Update(t, data.rows()[0]);
          ASSERT_EQ(ra.ok(), rb.ok());
          if (ra.ok()) ExpectReportsEqual(ra.value(), rb.value());
        }
      }
    }
  }
  // The accelerated engine's shadow still mirrors its store exactly.
  ExpectMatchesRescan(*on->skyband_index(), *on->discoverer().mutable_store());
}

TEST(SkybandIndexEngine, SBottomUpReportsIdenticalOnVsOff) {
  RunEngineDifferential("SBottomUp");
}

TEST(SkybandIndexEngine, STopDownReportsIdenticalOnVsOff) {
  RunEngineDifferential("STopDown");
}

TEST(SkybandIndexSharded, ConcurrentNotificationsStayCoherent) {
  // The sharded engine's pool threads notify the index concurrently during
  // AppendBatch; after the join the bands must equal a bucket rescan. This
  // test is the SkybandIndex TSan target in CI.
  Dataset data = RandomDataset(SmallConfig(120, 31));
  Relation relation(data.schema());
  ShardedEngine::Config config;
  config.num_shards = 3;
  config.num_threads = 3;
  config.tau = 2.0;
  ShardedEngine engine(&relation, config);
  ASSERT_NE(engine.skyband_index(), nullptr);

  std::vector<ArrivalReport> reports = engine.AppendBatch(data.rows());
  EXPECT_EQ(reports.size(), data.rows().size());
  ExpectMatchesRescan(*engine.skyband_index(),
                      *engine.discoverer().mutable_store());

  ASSERT_TRUE(engine.Remove(7).ok());
  auto updated = engine.Update(12, data.rows()[1]);
  ASSERT_TRUE(updated.ok());
  ExpectMatchesRescan(*engine.skyband_index(),
                      *engine.discoverer().mutable_store());
}

TEST(SkybandIndexEnv, EscapeHatchParsesOffAndZero) {
  ::setenv("SITFACT_SKYBAND_INDEX", "off", 1);
  EXPECT_FALSE(SkybandIndexEnabledFromEnv());
  ::setenv("SITFACT_SKYBAND_INDEX", "0", 1);
  EXPECT_FALSE(SkybandIndexEnabledFromEnv());
  ::setenv("SITFACT_SKYBAND_INDEX", "on", 1);
  EXPECT_TRUE(SkybandIndexEnabledFromEnv());
  ::unsetenv("SITFACT_SKYBAND_INDEX");
  EXPECT_TRUE(SkybandIndexEnabledFromEnv());
}

}  // namespace
}  // namespace sitfact
