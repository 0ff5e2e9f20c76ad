// Tests for the forward query module (query/skyline_query.h): the three
// evaluators against the quadratic oracle, k-skyband counting, and the
// one-of-the-few ladder.

#include "query/skyline_query.h"

#include <algorithm>
#include <ostream>
#include <vector>

#include "skyline/skyline_compute.h"
#include "test_util.h"

#include <gtest/gtest.h>

namespace sitfact {
namespace {

using testing_util::PaperTableIV;
using testing_util::RandomDataConfig;
using testing_util::RandomDataset;

Relation LoadAll(const Dataset& data) {
  Relation r(data.schema());
  for (const Row& row : data.rows()) r.Append(row);
  return r;
}

std::vector<TupleId> AllIds(const Relation& r) {
  std::vector<TupleId> ids(r.size());
  for (TupleId t = 0; t < r.size(); ++t) ids[t] = t;
  return ids;
}

TEST(QueryAlgorithmNames, RoundTrip) {
  EXPECT_EQ(ParseQueryAlgorithm("bnl"), QueryAlgorithm::kBlockNestedLoops);
  EXPECT_EQ(ParseQueryAlgorithm("sfs"), QueryAlgorithm::kSortFilter);
  EXPECT_EQ(ParseQueryAlgorithm("dnc"), QueryAlgorithm::kDivideConquer);
  EXPECT_EQ(ParseQueryAlgorithm("auto"), QueryAlgorithm::kAuto);
  EXPECT_EQ(ParseQueryAlgorithm("garbage"), QueryAlgorithm::kAuto);
  EXPECT_STREQ(QueryAlgorithmName(QueryAlgorithm::kSortFilter), "sfs");
}

TEST(SkylineQueryEngine, PaperExample3FullSpace) {
  Dataset data = PaperTableIV();
  Relation r = LoadAll(data);
  SkylineQueryEngine engine(&r);

  // Example 3: with M = {m1, m2} and no constraint, t4 (id 3) is the only
  // skyline tuple.
  Constraint top = Constraint::Top(3);
  auto result = engine.Evaluate(top, 0b11);
  EXPECT_EQ(result.skyline, std::vector<TupleId>({3}));
  EXPECT_EQ(result.stats.context_size, 5u);
}

TEST(SkylineQueryEngine, PaperExample3Constrained) {
  Dataset data = PaperTableIV();
  Relation r = LoadAll(data);
  SkylineQueryEngine engine(&r);

  // Example 3: C = <a1, b1, c1> selects {t2, t5}; both are in the skyline
  // in full space, only t2 in {m1}.
  Constraint c = Constraint::ForTuple(r, /*t=*/4, /*bound=*/0b111);
  auto full = engine.Evaluate(c, 0b11);
  EXPECT_EQ(full.skyline, std::vector<TupleId>({1, 4}));
  auto m1_only = engine.Evaluate(c, 0b01);
  EXPECT_EQ(m1_only.skyline, std::vector<TupleId>({1}));
}

struct AlgoParam {
  QueryAlgorithm algo;
  const char* name;
};

// Prints the case as its stable label, so the gtest parameter dump (and
// hence the ctest test name) never shows raw object bytes.
void PrintTo(const AlgoParam& p, std::ostream* os) { *os << p.name; }

class QueryAlgorithmTest : public ::testing::TestWithParam<AlgoParam> {};

TEST_P(QueryAlgorithmTest, AgreesWithOracleOnRandomData) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    RandomDataConfig cfg;
    cfg.seed = seed;
    cfg.num_tuples = 160;
    cfg.num_measures = 3;
    cfg.measure_levels = 5;  // heavy ties
    cfg.mixed_directions = (seed % 2 == 0);
    Dataset data = RandomDataset(cfg);
    Relation r = LoadAll(data);
    SkylineQueryEngine engine(&r);

    for (MeasureMask m = 1; m < 8; ++m) {
      auto result =
          engine.EvaluateCandidates(AllIds(r), m, GetParam().algo);
      std::vector<TupleId> expected = ComputeSkyline(r, AllIds(r), m);
      std::sort(expected.begin(), expected.end());
      ASSERT_EQ(result.skyline, expected)
          << GetParam().name << " seed=" << seed << " m=" << m;
    }
  }
}

TEST_P(QueryAlgorithmTest, EmptyAndSingletonCandidates) {
  Dataset data = PaperTableIV();
  Relation r = LoadAll(data);
  SkylineQueryEngine engine(&r);

  auto empty = engine.EvaluateCandidates({}, 0b11, GetParam().algo);
  EXPECT_TRUE(empty.skyline.empty());
  auto single = engine.EvaluateCandidates({2}, 0b11, GetParam().algo);
  EXPECT_EQ(single.skyline, std::vector<TupleId>({2}));
}

TEST_P(QueryAlgorithmTest, AllEqualTuplesAreAllInSkyline) {
  Schema schema({{"d"}}, {{"m1", Direction::kLargerIsBetter},
                          {"m2", Direction::kLargerIsBetter}});
  Relation r(std::move(schema));
  for (int i = 0; i < 100; ++i) r.Append(Row{{"x"}, {7.0, 7.0}});
  SkylineQueryEngine engine(&r);
  std::vector<TupleId> ids = AllIds(r);
  auto result = engine.EvaluateCandidates(ids, 0b11, GetParam().algo);
  EXPECT_EQ(result.skyline, ids);  // equal tuples never dominate each other
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithms, QueryAlgorithmTest,
    ::testing::Values(AlgoParam{QueryAlgorithm::kBlockNestedLoops, "bnl"},
                      AlgoParam{QueryAlgorithm::kSortFilter, "sfs"},
                      AlgoParam{QueryAlgorithm::kDivideConquer, "dnc"},
                      AlgoParam{QueryAlgorithm::kAuto, "auto"}),
    [](const ::testing::TestParamInfo<AlgoParam>& info) {
      return info.param.name;
    });

TEST(AutoPlanner, ThresholdBehaviorIsPinned) {
  // The kAuto planner's contract: at most kAutoSmallContext candidates run
  // BNL, anything larger runs SFS. A regression here silently flips the
  // algorithm behind every kAuto call site (CLI default, benches), so the
  // threshold is pinned exactly.
  EXPECT_EQ(kAutoSmallContext, 64u);
  EXPECT_EQ(ResolveAuto(QueryAlgorithm::kAuto, 0),
            QueryAlgorithm::kBlockNestedLoops);
  EXPECT_EQ(ResolveAuto(QueryAlgorithm::kAuto, kAutoSmallContext),
            QueryAlgorithm::kBlockNestedLoops);
  EXPECT_EQ(ResolveAuto(QueryAlgorithm::kAuto, kAutoSmallContext + 1),
            QueryAlgorithm::kSortFilter);
  EXPECT_EQ(ResolveAuto(QueryAlgorithm::kAuto, 1000000),
            QueryAlgorithm::kSortFilter);
  // Non-auto inputs pass through untouched.
  EXPECT_EQ(ResolveAuto(QueryAlgorithm::kBlockNestedLoops, 1000000),
            QueryAlgorithm::kBlockNestedLoops);
  EXPECT_EQ(ResolveAuto(QueryAlgorithm::kSortFilter, 1),
            QueryAlgorithm::kSortFilter);
  EXPECT_EQ(ResolveAuto(QueryAlgorithm::kDivideConquer, 1),
            QueryAlgorithm::kDivideConquer);
}

TEST(AutoPlanner, SubspaceAwareResolutionIsPinned) {
  // The three-arg resolver carries the post-rebuild C-CSC cost profile:
  // candidate sets reaching the evaluators are index-pruned, and on narrow
  // subspaces (|m| <= kAutoNarrowMeasures) the BNL window stays tiny, so
  // BNL wins up to kAutoNarrowContext. Wide subspaces keep the legacy
  // crossover exactly.
  EXPECT_EQ(kAutoNarrowContext, 256u);
  EXPECT_EQ(kAutoNarrowMeasures, 2);
  // Narrow subspaces: the wider BNL window applies.
  EXPECT_EQ(ResolveAuto(QueryAlgorithm::kAuto, kAutoNarrowContext, 0b11),
            QueryAlgorithm::kBlockNestedLoops);
  EXPECT_EQ(ResolveAuto(QueryAlgorithm::kAuto, kAutoNarrowContext, 0b1),
            QueryAlgorithm::kBlockNestedLoops);
  EXPECT_EQ(ResolveAuto(QueryAlgorithm::kAuto, kAutoNarrowContext + 1, 0b11),
            QueryAlgorithm::kSortFilter);
  // Wide subspaces: identical to the two-arg rule on both sides.
  EXPECT_EQ(ResolveAuto(QueryAlgorithm::kAuto, kAutoSmallContext, 0b111),
            QueryAlgorithm::kBlockNestedLoops);
  EXPECT_EQ(ResolveAuto(QueryAlgorithm::kAuto, kAutoSmallContext + 1, 0b111),
            QueryAlgorithm::kSortFilter);
  // Non-auto inputs still pass through untouched.
  EXPECT_EQ(ResolveAuto(QueryAlgorithm::kSortFilter, 1, 0b1),
            QueryAlgorithm::kSortFilter);
  EXPECT_EQ(ResolveAuto(QueryAlgorithm::kBlockNestedLoops, 1000000, 0b111),
            QueryAlgorithm::kBlockNestedLoops);
}

TEST(AutoPlanner, EvaluateMatchesResolvedAlgorithmOnBothSidesOfThreshold) {
  // Behavioral proof that EvaluateCandidates actually routes through the
  // resolver: at the threshold sizes, kAuto's work counters must be
  // identical to the explicitly chosen algorithm's (comparison counts
  // differ between BNL and SFS on this data, so a planner flip would show).
  RandomDataConfig cfg;
  cfg.num_tuples = static_cast<int>(kAutoSmallContext) + 1;
  cfg.seed = 12;
  cfg.num_measures = 3;
  Dataset data = RandomDataset(cfg);
  Relation r = LoadAll(data);
  SkylineQueryEngine engine(&r);

  std::vector<TupleId> all = AllIds(r);
  std::vector<TupleId> small(all.begin(),
                             all.begin() + kAutoSmallContext);

  auto auto_small =
      engine.EvaluateCandidates(small, 0b111, QueryAlgorithm::kAuto);
  auto bnl_small = engine.EvaluateCandidates(
      small, 0b111, QueryAlgorithm::kBlockNestedLoops);
  EXPECT_EQ(auto_small.skyline, bnl_small.skyline);
  EXPECT_EQ(auto_small.stats.comparisons, bnl_small.stats.comparisons);

  auto auto_large =
      engine.EvaluateCandidates(all, 0b111, QueryAlgorithm::kAuto);
  auto sfs_large =
      engine.EvaluateCandidates(all, 0b111, QueryAlgorithm::kSortFilter);
  EXPECT_EQ(auto_large.skyline, sfs_large.skyline);
  EXPECT_EQ(auto_large.stats.comparisons, sfs_large.stats.comparisons);
}

TEST(SkylineQueryEngine, EvaluateSkipsDeletedTuples) {
  Dataset data = PaperTableIV();
  Relation r = LoadAll(data);
  r.MarkDeleted(3);  // t4 dominated everything in full space
  SkylineQueryEngine engine(&r);
  auto result = engine.Evaluate(Constraint::Top(3), 0b11);
  EXPECT_EQ(result.stats.context_size, 4u);
  // With t4 gone, t3 = (17, 17) dominates every remaining tuple.
  EXPECT_EQ(result.skyline, std::vector<TupleId>({2}));
}

TEST(SkylineQueryEngine, DncHandlesHeavilyTiedAxis) {
  // All tuples share m1; only m2 separates them. The median split on m1
  // degenerates and must fall through to other axes / BNL without looping.
  Schema schema({{"d"}}, {{"m1", Direction::kLargerIsBetter},
                          {"m2", Direction::kLargerIsBetter}});
  Relation r(std::move(schema));
  for (int i = 0; i < 300; ++i) {
    r.Append(Row{{"x"}, {5.0, static_cast<double>(i % 17)}});
  }
  SkylineQueryEngine engine(&r);
  auto result = engine.EvaluateCandidates(AllIds(r), 0b11,
                                          QueryAlgorithm::kDivideConquer);
  std::vector<TupleId> expected = ComputeSkyline(r, AllIds(r), 0b11);
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(result.skyline, expected);
}

TEST(SkylineQueryEngine, StatsCountComparisons) {
  RandomDataConfig cfg;
  cfg.num_tuples = 200;
  Dataset data = RandomDataset(cfg);
  Relation r = LoadAll(data);
  SkylineQueryEngine engine(&r);
  auto result = engine.EvaluateCandidates(AllIds(r), 0b11,
                                          QueryAlgorithm::kSortFilter);
  EXPECT_GT(result.stats.comparisons, 0u);
  EXPECT_EQ(result.stats.context_size, 200u);
  auto dnc = engine.EvaluateCandidates(AllIds(r), 0b11,
                                       QueryAlgorithm::kDivideConquer);
  EXPECT_GT(dnc.stats.recursive_calls, 1u);
}

TEST(KSkyband, MatchesDominatorCounting) {
  RandomDataConfig cfg;
  cfg.num_tuples = 120;
  cfg.num_measures = 3;
  Dataset data = RandomDataset(cfg);
  Relation r = LoadAll(data);
  SkylineQueryEngine engine(&r);
  std::vector<TupleId> ids = AllIds(r);

  for (int k : {1, 2, 4}) {
    std::vector<TupleId> band = engine.KSkyband(ids, 0b111, k);
    for (TupleId t : ids) {
      bool in_band = std::find(band.begin(), band.end(), t) != band.end();
      bool expected =
          engine.CountDominators(t, ids, 0b111) < static_cast<uint64_t>(k);
      ASSERT_EQ(in_band, expected) << "k=" << k << " t=" << t;
    }
  }
}

TEST(KSkyband, K1IsTheSkyline) {
  RandomDataConfig cfg;
  cfg.num_tuples = 150;
  cfg.seed = 9;
  Dataset data = RandomDataset(cfg);
  Relation r = LoadAll(data);
  SkylineQueryEngine engine(&r);
  std::vector<TupleId> ids = AllIds(r);
  std::vector<TupleId> band = engine.KSkyband(ids, 0b11, 1);
  std::vector<TupleId> sky = ComputeSkyline(r, ids, 0b11);
  EXPECT_EQ(band, sky);
}

TEST(OneOfTheFew, LadderProperties) {
  RandomDataConfig cfg;
  cfg.num_tuples = 100;
  cfg.seed = 4;
  Dataset data = RandomDataset(cfg);
  Relation r = LoadAll(data);
  SkylineQueryEngine engine(&r);
  std::vector<TupleId> ids = AllIds(r);

  for (int tau : {1, 5, 20, 50}) {
    auto result = engine.OneOfTheFew(ids, 0b11, tau);
    if (result.k == 0) {
      EXPECT_TRUE(result.band.empty());
      // Even the skyline busts tau.
      EXPECT_GT(engine.KSkyband(ids, 0b11, 1).size(),
                static_cast<size_t>(tau));
      continue;
    }
    // The returned band is the k-skyband and fits within tau.
    EXPECT_EQ(result.band, engine.KSkyband(ids, 0b11, result.k));
    EXPECT_LE(result.band.size(), static_cast<size_t>(tau));
    // Maximality: k+1 would either bust tau or add nothing new (the band
    // already covers every candidate).
    std::vector<TupleId> next = engine.KSkyband(ids, 0b11, result.k + 1);
    EXPECT_TRUE(next.size() > static_cast<size_t>(tau) ||
                result.band.size() == ids.size())
        << "tau=" << tau << " k=" << result.k;
  }
}

TEST(OneOfTheFew, WholeContextWithinTau) {
  Schema schema({{"d"}}, {{"m", Direction::kLargerIsBetter}});
  Relation r(std::move(schema));
  for (int i = 0; i < 5; ++i) {
    r.Append(Row{{"x"}, {static_cast<double>(i)}});
  }
  SkylineQueryEngine engine(&r);
  auto result = engine.OneOfTheFew({0, 1, 2, 3, 4}, 0b1, /*tau=*/10);
  // A strict chain: dominator counts are 4,3,2,1,0, so k=5 covers all.
  EXPECT_EQ(result.k, 5);
  EXPECT_EQ(result.band.size(), 5u);
}

}  // namespace
}  // namespace sitfact
