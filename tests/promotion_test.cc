// Tests for core/promotion.h: incremental promotion analysis (the Table II
// row [10] contrast) against a direct ranking oracle.

#include "core/promotion.h"

#include <ostream>
#include <set>
#include <vector>

#include "skyline/skyline_compute.h"
#include "test_util.h"

#include <gtest/gtest.h>

namespace sitfact {
namespace {

using testing_util::PaperTableI;
using testing_util::RandomDataConfig;
using testing_util::RandomDataset;

/// Direct rank computation: 1 + #{live tuples in σ_C(R) strictly better
/// than t on the score measure}.
uint32_t OracleRank(const Relation& r, TupleId t, const Constraint& c,
                    int j) {
  uint32_t better = 0;
  for (TupleId other = 0; other < r.size(); ++other) {
    if (other == t || r.IsDeleted(other)) continue;
    if (!c.SatisfiedBy(r, other)) continue;
    if (r.measure_key(other, j) > r.measure_key(t, j)) ++better;
  }
  return better + 1;
}

TEST(PromotionFinder, StoudamireStyleFact) {
  // Table I: upon t7 (Wesley, 12 points), the promotion finder on {points}
  // should NOT rank it top-1 anywhere interesting, but on {assists} (13,
  // the second highest overall after Strickland's 18) it is rank 1 within
  // team=Celtics.
  Dataset data = PaperTableI();
  Relation r(data.schema());
  for (const Row& row : data.rows()) r.Append(row);
  const TupleId t7 = 6;

  PromotionFinder::Options options;
  options.k = 1;
  PromotionFinder finder(&r, data.schema().MeasureIndex("assists"), options);
  std::vector<PromotionFinder::PromotionFact> facts;
  finder.Discover(t7, &facts);

  bool celtics_top = false;
  bool overall_top = false;
  for (const auto& f : facts) {
    std::string pred = f.constraint.ToPredicateString(r);
    if (pred == "team=Celtics") {
      celtics_top = true;
      EXPECT_EQ(f.rank, 1u);
      EXPECT_EQ(f.tied, 2u);  // ties with Sherman's 13 (also a Celtic)
      EXPECT_EQ(f.context_size, 4u);
    }
    if (pred == "(no constraint)") overall_top = true;
  }
  EXPECT_TRUE(celtics_top);
  EXPECT_FALSE(overall_top);  // Strickland's 18 assists beats t7 overall
}

struct PromotionParam {
  int k;
  int dhat;
  int measure;
  uint64_t seed;
};

// Prints the case as its stable label, so the gtest parameter dump (and
// hence the ctest test name) never shows raw object bytes.
void PrintTo(const PromotionParam& p, std::ostream* os) {
  *os << "k" << p.k << "_dhat" << p.dhat << "_measure" << p.measure
      << "_seed" << p.seed;
}

class PromotionSweep : public ::testing::TestWithParam<PromotionParam> {};

TEST_P(PromotionSweep, AgreesWithOracleOnRandomStreams) {
  RandomDataConfig cfg;
  cfg.num_tuples = 45;
  cfg.num_dims = 3;
  cfg.num_measures = 3;
  cfg.seed = GetParam().seed;
  cfg.mixed_directions = (GetParam().seed % 2 == 0);
  Dataset data = RandomDataset(cfg);

  Relation r(data.schema());
  PromotionFinder::Options options;
  options.k = GetParam().k;
  options.max_bound_dims = GetParam().dhat;
  PromotionFinder finder(&r, GetParam().measure, options);
  const int resolved_dhat =
      GetParam().dhat < 0 ? cfg.num_dims : GetParam().dhat;

  std::vector<PromotionFinder::PromotionFact> facts;
  for (const Row& row : data.rows()) {
    TupleId t = r.Append(row);
    facts.clear();
    finder.Discover(t, &facts);

    std::set<DimMask> reported;
    for (const auto& f : facts) {
      reported.insert(f.constraint.bound_mask());
      // Reported numbers must match the oracle exactly.
      ASSERT_EQ(f.rank,
                OracleRank(r, t, f.constraint, GetParam().measure));
      ASSERT_EQ(f.context_size,
                SelectContext(r, f.constraint, r.size()).size());
    }
    // Completeness: every admissible constraint with oracle rank <= k is
    // reported.
    DimMask full = FullMask(cfg.num_dims);
    for (DimMask mask = 0; mask <= full; ++mask) {
      if (PopCount(mask) > resolved_dhat) continue;
      Constraint c = Constraint::ForTuple(r, t, mask);
      bool expected = OracleRank(r, t, c, GetParam().measure) <=
                      static_cast<uint32_t>(GetParam().k);
      ASSERT_EQ(expected, reported.count(mask) > 0)
          << "t=" << t << " mask=" << mask;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PromotionSweep,
    ::testing::Values(PromotionParam{1, -1, 0, 31},
                      PromotionParam{3, -1, 1, 32},
                      PromotionParam{2, 2, 2, 33},
                      PromotionParam{5, 1, 0, 34}));

TEST(PromotionFinder, RankOneAlwaysExistsSomewhere) {
  // Every tuple is rank 1 in its own fully-bound context (it may tie).
  RandomDataConfig cfg;
  cfg.num_tuples = 30;
  cfg.seed = 88;
  Dataset data = RandomDataset(cfg);
  Relation r(data.schema());
  PromotionFinder::Options options;
  options.k = 1;
  PromotionFinder finder(&r, 0, options);
  std::vector<PromotionFinder::PromotionFact> facts;
  for (const Row& row : data.rows()) {
    TupleId t = r.Append(row);
    facts.clear();
    finder.Discover(t, &facts);
    DimMask full_mask = FullMask(r.schema().num_dimensions());
    bool found_self_context = false;
    for (const auto& f : facts) {
      if (f.constraint.bound_mask() == full_mask) found_self_context = true;
    }
    // Not guaranteed: an identical-dimension duplicate with a higher score
    // can outrank t even there. Verify against the oracle instead.
    Constraint self = Constraint::ForTuple(r, t, full_mask);
    EXPECT_EQ(found_self_context, OracleRank(r, t, self, 0) == 1);
  }
}

TEST(PromotionFinder, SkipsDeletedHistoryAndValidatesOptions) {
  Dataset data = PaperTableI();
  Relation r(data.schema());
  for (const Row& row : data.rows()) r.Append(row);
  r.MarkDeleted(5);  // Strickland (18 assists) is retracted

  PromotionFinder::Options options;
  options.k = 1;
  PromotionFinder finder(&r, data.schema().MeasureIndex("assists"),
                         options);
  std::vector<PromotionFinder::PromotionFact> facts;
  finder.Discover(6, &facts);
  bool overall_top = false;
  for (const auto& f : facts) {
    if (f.constraint.bound_mask() == 0) {
      overall_top = true;
      EXPECT_EQ(f.tied, 2u);  // t3 and t7 tie at 13 assists
      EXPECT_EQ(f.context_size, 6u);  // 7 tuples minus the deleted one
    }
  }
  EXPECT_TRUE(overall_top);

  EXPECT_DEATH(PromotionFinder(&r, 99, options), "out of range");
}

}  // namespace
}  // namespace sitfact
