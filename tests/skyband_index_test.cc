// Differential tests for skyline/skyband_index.h. The index is diffed
// against a brute-force ForEachBucket rescan after each mutation (memory and
// restored stores), engines run the same op stream with the index on vs off
// (escape hatch, a file store, or an Invariant-1 engine, none of which keeps
// one) and must produce identical reports, and every engine kind is checked
// to hold an index exactly when Invariant-2 ranking reads one.

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
#include "test_util.h"

#include <gtest/gtest.h>

namespace sitfact {
namespace {

namespace fs = std::filesystem;
using testing_util::PaperTableIV;
using testing_util::RandomDataConfig;
using testing_util::RandomDataset;

/// Brute-force oracle: the index must hold exactly the store's non-empty
/// buckets, member-for-member, with gauges agreeing.
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
  index.Attach(disc->mutable_store());
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
  late.Attach(disc->mutable_store());
  ExpectMatchesRescan(late, *disc->mutable_store());
}

TEST(SkybandIndexFile, NonNotifyingStoreNeedsRebuild) {
  // File-backed stores never notify, so a ranking engine over one keeps no
  // skyband shadow and ranks from the store; its reports must equal the
  // in-memory Invariant-2 run's, where the shadow serves every |λ|.
  Dataset data = RandomDataset(SmallConfig(40, 19));
  const std::string dir =
      (fs::temp_directory_path() / "sitfact_skyband_file_test").string();
  fs::remove_all(dir);
  Relation file_rel(data.schema());
  Relation mem_rel(data.schema());
  auto file_disc =
      DiscoveryEngine::CreateDiscoverer("FSTopDown", &file_rel, {}, dir);
  auto mem_disc = DiscoveryEngine::CreateDiscoverer("STopDown", &mem_rel, {});
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
  index.Attach(&restored);
  ExpectMatchesRescan(index, restored);
  // And the restored bands agree with the original store's bands.
  ExpectMatchesRescan(index, *disc->mutable_store());
  fs::remove_all(base);
}

/// Drives the same Append/Remove/Update stream through `a` and `b` and
/// requires identical reports: an index may only change how |λ| is
/// obtained, never what a report says.
void ExpectSameReportsOverStream(DiscoveryEngine* a, DiscoveryEngine* b,
                                 const Dataset& data) {
  Rng rng(5);
  for (const Row& row : data.rows()) {
    ExpectReportsEqual(a->Append(row), b->Append(row));
    if (::testing::Test::HasFatalFailure()) return;
    const Relation& rel = a->relation();
    if (rel.size() > 5 && rng.NextBool(0.15)) {
      const TupleId t = rng.NextBounded(rel.size());
      if (!rel.IsDeleted(t)) {
        if (rng.NextBool(0.5)) {
          ASSERT_EQ(a->Remove(t).ok(), b->Remove(t).ok());
        } else {
          auto ra = a->Update(t, data.rows()[0]);
          auto rb = b->Update(t, data.rows()[0]);
          ASSERT_EQ(ra.ok(), rb.ok());
          if (ra.ok()) ExpectReportsEqual(ra.value(), rb.value());
        }
      }
    }
  }
}

std::unique_ptr<DiscoveryEngine> MakeEngine(const std::string& algo,
                                            Relation* rel,
                                            DiscoveryOptions options = {}) {
  auto disc_or = DiscoveryEngine::CreateDiscoverer(algo, rel, options);
  EXPECT_TRUE(disc_or.ok());
  DiscoveryEngine::Config config;
  config.options = options;
  config.tau = 2.0;
  return std::make_unique<DiscoveryEngine>(rel, std::move(disc_or).value(),
                                           config);
}

TEST(SkybandIndexEngine, SBottomUpReportsIdenticalOnVsOff) {
  // SBottomUp stores under Invariant 1, where a bucket is λ itself: it
  // keeps no index and ranks from bucket sizes, and its reports equal those
  // of an STopDown engine whose index serves every |λ|.
  Dataset data = RandomDataset(SmallConfig(70, 23));
  Relation bottom_rel(data.schema());
  Relation top_rel(data.schema());
  auto bottom = MakeEngine("SBottomUp", &bottom_rel);
  auto top = MakeEngine("STopDown", &top_rel);
  ASSERT_EQ(bottom->skyband_index(), nullptr);
  ASSERT_NE(top->skyband_index(), nullptr);

  ExpectSameReportsOverStream(bottom.get(), top.get(), data);
  if (HasFatalFailure()) return;
  ExpectMatchesRescan(*top->skyband_index(),
                      *top->discoverer().mutable_store());

  // The sharded engine ranks under Invariant 1 from its own segments.
  Relation sharded_rel(data.schema());
  auto sharded_or = CreateEngine(&sharded_rel, "STopDown", /*num_shards=*/3,
                                 /*num_threads=*/3, DiscoveryEngine::Config());
  ASSERT_TRUE(sharded_or.ok());
  EXPECT_EQ(sharded_or.value()->skyband_index(), nullptr);
}

TEST(SkybandIndexEngine, STopDownReportsIdenticalOnVsOff) {
  // The escape hatch switches the Invariant-2 shadow off: same reports,
  // denominators from the store's ancestor-union walk instead.
  Dataset data = RandomDataset(SmallConfig(70, 23));
  Relation on_rel(data.schema());
  Relation off_rel(data.schema());
  auto on = MakeEngine("STopDown", &on_rel);
  ASSERT_NE(on->skyband_index(), nullptr);
  ::setenv("SITFACT_SKYBAND_INDEX", "off", 1);
  auto off = MakeEngine("STopDown", &off_rel);
  ::unsetenv("SITFACT_SKYBAND_INDEX");
  ASSERT_EQ(off->skyband_index(), nullptr);

  ExpectSameReportsOverStream(on.get(), off.get(), data);
  if (HasFatalFailure()) return;
  // The accelerated engine's shadow still mirrors its store exactly.
  ExpectMatchesRescan(*on->skyband_index(), *on->discoverer().mutable_store());
}

TEST(SkybandIndexEngine, IndexOnlyWhereInvariantTwoRanks) {
  // Exactly one index for the Invariant-2 engines over a notifying store,
  // memory or paged; none for the Invariant-1 engines.
  Dataset data = RandomDataset(SmallConfig(30, 41));
  for (StorageBackend backend :
       {StorageBackend::kMemory, StorageBackend::kPaged}) {
    DiscoveryOptions options;
    options.storage.backend = backend;
    for (const char* algo : {"BottomUp", "SBottomUp", "TopDown", "STopDown"}) {
      SCOPED_TRACE(std::string(algo) + " over " + StorageBackendName(backend));
      Relation rel(data.schema());
      auto engine = MakeEngine(algo, &rel, options);
      const bool invariant2 = engine->discoverer().storage_policy() ==
                              StoragePolicy::kMaximalSkylineConstraints;
      EXPECT_EQ(engine->skyband_index() != nullptr, invariant2);
      for (const Row& row : data.rows()) engine->Append(row);
      if (invariant2) {
        ExpectMatchesRescan(*engine->skyband_index(),
                            *engine->discoverer().mutable_store());
      }
    }
  }
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
