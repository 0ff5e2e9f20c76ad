// C-CSC vs TopDown differential: the SubspaceIndex-rebuilt C-CSC engine
// relaxed its comparison counters, so this suite pins the part that must
// NOT drift — the discovered facts. Every per-arrival fact set is compared
// tuple-for-tuple against TopDown (itself oracle-checked by
// equivalence_test) across the paper's two dataset families (NBA, weather)
// and synthetic streams with ties, duplicates, mixed preference directions,
// and d̂/m̂ truncation.

#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "core/engine.h"
#include "datagen/nba_generator.h"
#include "datagen/weather_generator.h"
#include "test_util.h"

namespace sitfact {
namespace {

using testing_util::DescribeFacts;
using testing_util::RandomDataConfig;
using testing_util::RandomDataset;
using testing_util::RunStream;

struct DiffCase {
  std::string label;
  Dataset data;
  DiscoveryOptions options;
};

// Prints the case as its stable label, so the gtest parameter dump (and
// hence the ctest test name) never shows raw object bytes.
void PrintTo(const DiffCase& c, std::ostream* os) {
  *os << c.label;
}

Dataset NbaSlice(int n, int d, int m) {
  NbaGenerator::Config cfg;
  cfg.tuples_per_season = 60;  // several season boundaries in a short stream
  NbaGenerator gen(cfg);
  auto projected = gen.Generate(n).Project(NbaGenerator::DimensionsForD(d),
                                           NbaGenerator::MeasuresForM(m));
  SITFACT_CHECK(projected.ok());
  return std::move(projected).value();
}

Dataset WeatherSlice(int n, int d, int m) {
  WeatherGenerator::Config cfg;
  cfg.num_locations = 40;  // small location pool → large shared contexts
  cfg.records_per_day = 80;
  WeatherGenerator gen(cfg);
  auto projected =
      gen.Generate(n).Project(WeatherGenerator::DimensionsForD(d),
                              WeatherGenerator::MeasuresForM(m));
  SITFACT_CHECK(projected.ok());
  return std::move(projected).value();
}

std::vector<DiffCase> MakeCases() {
  std::vector<DiffCase> cases;
  cases.push_back({"nba_d4_m4", NbaSlice(130, 4, 4), {.max_bound_dims = 3}});
  cases.push_back({"nba_d5_m4_mhat3", NbaSlice(100, 5, 4),
                   {.max_bound_dims = 3, .max_measure_dims = 3}});
  cases.push_back(
      {"weather_d4_m4", WeatherSlice(120, 4, 4), {.max_bound_dims = 3}});
  cases.push_back({"weather_d5_m5_dhat2", WeatherSlice(90, 5, 5),
                   {.max_bound_dims = 2, .max_measure_dims = 3}});

  RandomDataConfig ties;
  ties.num_tuples = 110;
  ties.num_dims = 4;
  ties.num_measures = 3;
  ties.measure_levels = 3;  // heavy measure ties
  ties.duplicate_prob = 0.3;
  ties.seed = 2014;
  cases.push_back({"synthetic_ties_dups", RandomDataset(ties), {}});

  RandomDataConfig mixed = ties;
  mixed.mixed_directions = true;
  mixed.measure_levels = 8;
  mixed.duplicate_prob = 0.1;
  mixed.seed = 2015;
  cases.push_back({"synthetic_mixed_directions", RandomDataset(mixed), {}});

  RandomDataConfig trunc = mixed;
  trunc.num_measures = 4;
  trunc.seed = 2016;
  cases.push_back({"synthetic_truncated", RandomDataset(trunc),
                   {.max_bound_dims = 2, .max_measure_dims = 2}});
  return cases;
}

class CcscDifferentialTest : public ::testing::TestWithParam<DiffCase> {};

TEST_P(CcscDifferentialTest, FactsMatchTopDownTupleForTuple) {
  const DiffCase& param = GetParam();

  Relation ref_rel(param.data.schema());
  auto ref_or =
      DiscoveryEngine::CreateDiscoverer("TopDown", &ref_rel, param.options);
  ASSERT_TRUE(ref_or.ok());
  std::unique_ptr<Discoverer> ref = std::move(ref_or).value();
  auto expected = RunStream(&ref_rel, ref.get(), param.data);

  Relation rel(param.data.schema());
  auto disc_or =
      DiscoveryEngine::CreateDiscoverer("C-CSC", &rel, param.options);
  ASSERT_TRUE(disc_or.ok());
  std::unique_ptr<Discoverer> disc = std::move(disc_or).value();
  auto actual = RunStream(&rel, disc.get(), param.data);

  ASSERT_EQ(expected.size(), actual.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(expected[i], actual[i])
        << "C-CSC diverged from TopDown at arrival " << i << "\nexpected:\n"
        << DescribeFacts(rel, expected[i]) << "actual:\n"
        << DescribeFacts(rel, actual[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(Datasets, CcscDifferentialTest,
                         ::testing::ValuesIn(MakeCases()),
                         [](const ::testing::TestParamInfo<DiffCase>& info) {
                           return info.param.label;
                         });

}  // namespace
}  // namespace sitfact
