// Tests for DiscoveryEngine::Update — the "update of data" half of the
// paper's Sec. VIII future work, modeled as remove + re-append.

#include <ostream>
#include <string>
#include <vector>

#include "core/engine.h"
#include "test_util.h"

#include <gtest/gtest.h>

namespace sitfact {
namespace {

using testing_util::PaperTableI;
using testing_util::RandomDataConfig;
using testing_util::RandomDataset;
using testing_util::VerifyInvariant1;
using testing_util::VerifyInvariant2;

std::unique_ptr<DiscoveryEngine> MakeEngine(Relation* relation,
                                            const std::string& algorithm) {
  auto disc_or = DiscoveryEngine::CreateDiscoverer(algorithm, relation, {});
  EXPECT_TRUE(disc_or.ok());
  DiscoveryEngine::Config config;
  config.rank_facts = disc_or.value()->store() != nullptr;
  return std::make_unique<DiscoveryEngine>(relation,
                                           std::move(disc_or).value(),
                                           config);
}

TEST(EngineUpdate, CorrectedRowBehavesLikeFreshArrival) {
  // Publish a wrong stat line, correct it, and check the corrected line's
  // facts equal those of a run that never saw the bad row.
  Dataset data = PaperTableI();

  Relation dirty_rel(data.schema());
  auto dirty = MakeEngine(&dirty_rel, "STopDown");
  for (size_t i = 0; i + 1 < data.rows().size(); ++i) {
    dirty->Append(data.rows()[i]);
  }
  // t7 arrives garbled (points typo: 2 instead of 12)...
  Row garbled = data.rows().back();
  garbled.measures[0] = 2;
  ArrivalReport bad = dirty->Append(garbled);
  // ...and the desk corrects it.
  auto fixed_or = dirty->Update(bad.tuple, data.rows().back());
  ASSERT_TRUE(fixed_or.ok()) << fixed_or.status().ToString();

  Relation clean_rel(data.schema());
  auto clean = MakeEngine(&clean_rel, "STopDown");
  ArrivalReport clean_report;
  for (const Row& row : data.rows()) clean_report = clean->Append(row);

  EXPECT_EQ(fixed_or.value().facts, clean_report.facts);
  // Prominence context sizes also agree: the tombstoned row no longer
  // counts toward any |σ_C(R)|.
  ASSERT_EQ(fixed_or.value().ranked.size(), clean_report.ranked.size());
  for (size_t i = 0; i < clean_report.ranked.size(); ++i) {
    EXPECT_EQ(fixed_or.value().ranked[i].context_size,
              clean_report.ranked[i].context_size);
  }
}

struct UpdateParam {
  const char* algorithm;
  bool invariant1;  // which store invariant to verify afterwards
};

// Prints the case as its stable label, so the gtest parameter dump (and
// hence the ctest test name) never shows raw object bytes.
void PrintTo(const UpdateParam& p, std::ostream* os) { *os << p.algorithm; }

class EngineUpdateInvariants
    : public ::testing::TestWithParam<UpdateParam> {};

TEST_P(EngineUpdateInvariants, ChurnPreservesStoreInvariants) {
  RandomDataConfig cfg;
  cfg.num_tuples = 40;
  cfg.seed = 404;
  cfg.num_dims = 3;
  cfg.num_measures = 2;
  Dataset data = RandomDataset(cfg);

  Relation relation(data.schema());
  auto engine = MakeEngine(&relation, GetParam().algorithm);
  Rng rng(7);
  for (const Row& row : data.rows()) {
    engine->Append(row);
    // Occasionally rewrite a random live tuple with a perturbed copy.
    if (relation.live_size() > 5 && rng.NextBool(0.2)) {
      TupleId victim =
          static_cast<TupleId>(rng.NextBounded(relation.size()));
      if (relation.IsDeleted(victim)) continue;
      Row corrected;
      for (int d = 0; d < relation.schema().num_dimensions(); ++d) {
        corrected.dimensions.push_back(relation.DimString(victim, d));
      }
      for (int j = 0; j < relation.schema().num_measures(); ++j) {
        corrected.measures.push_back(relation.measure(victim, j) +
                                     (rng.NextBool(0.5) ? 1 : -1));
      }
      ASSERT_TRUE(engine->Update(victim, corrected).ok());
    }
  }

  auto& disc = engine->discoverer();
  if (GetParam().invariant1) {
    VerifyInvariant1(relation, disc.mutable_store(), disc.max_bound_dims(),
                     disc.subspaces());
  } else {
    VerifyInvariant2(relation, disc.mutable_store(), disc.max_bound_dims(),
                     disc.subspaces());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Algorithms, EngineUpdateInvariants,
    ::testing::Values(UpdateParam{"BottomUp", true},
                      UpdateParam{"SBottomUp", true},
                      UpdateParam{"TopDown", false},
                      UpdateParam{"STopDown", false}),
    [](const ::testing::TestParamInfo<UpdateParam>& info) {
      return info.param.algorithm;
    });

TEST(EngineUpdate, ValidationFailuresHaveNoSideEffects) {
  Dataset data = PaperTableI();
  Relation relation(data.schema());
  auto engine = MakeEngine(&relation, "BottomUp");
  for (const Row& row : data.rows()) engine->Append(row);
  const TupleId before = relation.size();

  // Arity mismatch.
  Row bad;
  bad.dimensions = {"x"};
  bad.measures = {1.0};
  EXPECT_EQ(engine->Update(0, bad).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(relation.size(), before);
  EXPECT_FALSE(relation.IsDeleted(0));

  // Nonexistent tuple.
  EXPECT_EQ(engine->Update(9999, data.rows()[0]).status().code(),
            StatusCode::kInvalidArgument);

  // Already-deleted tuple.
  ASSERT_TRUE(engine->Remove(1).ok());
  EXPECT_EQ(engine->Update(1, data.rows()[1]).status().code(),
            StatusCode::kInvalidArgument);
}

// C-CSC gained removal (and therefore update) support with the
// SubspaceIndex rebuild: an update tombstones the old row, repairs the
// per-context skycubes, and re-discovers the corrected row, matching a run
// that never saw the bad row. (Facts only — C-CSC keeps no µ store, so
// MakeEngine turns prominence ranking off for it.)
TEST(EngineUpdate, CcscUpdateBehavesLikeFreshArrival) {
  Dataset data = PaperTableI();

  Relation dirty_rel(data.schema());
  auto dirty = MakeEngine(&dirty_rel, "C-CSC");
  for (size_t i = 0; i + 1 < data.rows().size(); ++i) {
    dirty->Append(data.rows()[i]);
  }
  Row garbled = data.rows().back();
  garbled.measures[0] = 2;
  ArrivalReport bad = dirty->Append(garbled);
  auto fixed_or = dirty->Update(bad.tuple, data.rows().back());
  ASSERT_TRUE(fixed_or.ok()) << fixed_or.status().ToString();
  EXPECT_TRUE(dirty_rel.IsDeleted(bad.tuple));

  Relation clean_rel(data.schema());
  auto clean = MakeEngine(&clean_rel, "C-CSC");
  ArrivalReport clean_report;
  for (const Row& row : data.rows()) clean_report = clean->Append(row);

  EXPECT_EQ(fixed_or.value().facts, clean_report.facts);
}

}  // namespace
}  // namespace sitfact
