// Differential equivalence of the sharded parallel engine: replaying the
// same stream through ShardedEngine (K in {1, 2, 4, 7}) and the sequential
// DiscoveryEngine must yield tuple-for-tuple identical canonical fact sets,
// prominence scores (context size, skyline size, ratio, order), prominent
// selections, and DiscoveryStats.arrivals — for every restorable algorithm
// (SupportsSnapshotRestore(), i.e. everything but C-CSC, whose bespoke
// skycube state opts out of both snapshots and this comparison).

#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "datagen/nba_generator.h"
#include "datagen/weather_generator.h"
#include "exec/sharded_engine.h"
#include "test_util.h"

namespace sitfact {
namespace {

using testing_util::RandomDataConfig;
using testing_util::RandomDataset;

constexpr int kShardCounts[] = {1, 2, 4, 7};

std::vector<std::string> RestorableCandidates() {
  return {"BruteForce", "BaselineSeq", "BaselineIdx", "C-CSC",
          "BottomUp",   "TopDown",     "SBottomUp",   "STopDown",
          "FSBottomUp", "FSTopDown"};
}

struct StreamCase {
  std::string label;
  Dataset data;
  DiscoveryOptions options;
};

std::vector<StreamCase> MakeStreams() {
  std::vector<StreamCase> streams;

  {
    NbaGenerator::Config cfg;
    cfg.tuples_per_season = 10;
    Dataset full = NbaGenerator(cfg).Generate(70);
    auto proj = full.Project(NbaGenerator::DimensionsForD(4),
                             NbaGenerator::MeasuresForM(4));
    SITFACT_CHECK(proj.ok());
    streams.push_back({"nba", std::move(proj).value(),
                       {.max_measure_dims = 3}});
  }
  {
    WeatherGenerator::Config cfg;
    cfg.num_locations = 16;
    cfg.records_per_day = 4;
    Dataset full = WeatherGenerator(cfg).Generate(70);
    auto proj = full.Project(WeatherGenerator::DimensionsForD(4),
                             WeatherGenerator::MeasuresForM(3));
    SITFACT_CHECK(proj.ok());
    streams.push_back({"weather", std::move(proj).value(), {}});
  }
  {
    RandomDataConfig cfg;
    cfg.num_tuples = 90;
    cfg.num_dims = 4;
    cfg.num_measures = 3;
    cfg.duplicate_prob = 0.2;
    cfg.mixed_directions = true;
    cfg.seed = 20260730;
    streams.push_back({"synthetic", RandomDataset(cfg), {}});
  }
  {
    // The d̂/m̂ truncations change the lattice the shards partition.
    RandomDataConfig cfg;
    cfg.num_tuples = 80;
    cfg.num_dims = 5;
    cfg.num_measures = 3;
    cfg.dim_cardinality = 2;
    cfg.seed = 424242;
    streams.push_back({"synthetic_truncated", RandomDataset(cfg),
                       {.max_bound_dims = 3, .max_measure_dims = 2}});
  }
  return streams;
}

struct SequentialRun {
  std::vector<ArrivalReport> reports;
  uint64_t arrivals = 0;
  bool ranked = false;
};

SequentialRun RunSequential(const StreamCase& stream,
                            const std::string& algorithm, bool* restorable) {
  std::string dir;
  if (algorithm.rfind("FS", 0) == 0) {
    dir = (std::filesystem::temp_directory_path() /
           ("sitfact_sharded_eq_" + algorithm + "_" + stream.label))
              .string();
  }
  SequentialRun run;
  Relation relation(stream.data.schema());
  auto disc_or = DiscoveryEngine::CreateDiscoverer(algorithm, &relation,
                                                   stream.options, dir);
  SITFACT_CHECK_MSG(disc_or.ok(), disc_or.status().ToString().c_str());
  *restorable = disc_or.value()->SupportsSnapshotRestore();
  if (!*restorable) return run;

  DiscoveryEngine::Config config;
  config.options = stream.options;
  config.tau = 0.0;
  config.rank_facts = disc_or.value()->store() != nullptr;
  run.ranked = config.rank_facts;
  DiscoveryEngine engine(&relation, std::move(disc_or).value(), config);
  run.reports.reserve(stream.data.size());
  for (const Row& row : stream.data.rows()) {
    run.reports.push_back(engine.Append(row));
  }
  run.arrivals = engine.discoverer().stats().arrivals;
  return run;
}

std::vector<ArrivalReport> RunSharded(const StreamCase& stream, int shards,
                                      uint64_t* arrivals) {
  Relation relation(stream.data.schema());
  ShardedEngine::Config config;
  config.num_shards = shards;
  config.num_threads = 3;  // != K on purpose: threads claim shards dynamically
  config.options = stream.options;
  config.tau = 0.0;
  ShardedEngine engine(&relation, config);
  // Batched so the differential also covers the pipelined AppendBatch path.
  std::vector<ArrivalReport> reports =
      engine.AppendBatch(std::span<const Row>(stream.data.rows()));
  *arrivals = engine.discoverer().stats().arrivals;
  return reports;
}

/// Every (constraint, count) entry, zero counts included.
std::map<Constraint, uint64_t> CounterEntries(const ContextCounter& counter) {
  std::map<Constraint, uint64_t> out;
  counter.ForEach([&out](const Constraint& c, uint64_t n) { out[c] = n; });
  return out;
}

void ExpectSameRankedFact(const RankedFact& expected, const RankedFact& actual,
                          size_t index) {
  SCOPED_TRACE("ranked fact #" + std::to_string(index));
  EXPECT_EQ(expected.fact, actual.fact);
  EXPECT_EQ(expected.context_size, actual.context_size);
  EXPECT_EQ(expected.skyline_size, actual.skyline_size);
  // Identical integer numerator/denominator => bit-identical quotient.
  EXPECT_EQ(expected.prominence, actual.prominence);
}

void ExpectSameReport(const ArrivalReport& expected,
                      const ArrivalReport& actual, bool compare_ranked) {
  EXPECT_EQ(expected.tuple, actual.tuple);
  ASSERT_EQ(expected.facts, actual.facts);
  if (!compare_ranked) return;
  ASSERT_EQ(expected.ranked.size(), actual.ranked.size());
  for (size_t i = 0; i < expected.ranked.size(); ++i) {
    ExpectSameRankedFact(expected.ranked[i], actual.ranked[i], i);
  }
  ASSERT_EQ(expected.prominent.size(), actual.prominent.size());
  for (size_t i = 0; i < expected.prominent.size(); ++i) {
    ExpectSameRankedFact(expected.prominent[i], actual.prominent[i], i);
  }
}

TEST(ShardedEquivalence, MatchesEveryRestorableAlgorithmAtEveryShardCount) {
  for (const StreamCase& stream : MakeStreams()) {
    SCOPED_TRACE("stream " + stream.label);

    // Sequential oracles once per stream; each K is compared to all of them.
    std::vector<std::pair<std::string, SequentialRun>> sequential;
    for (const std::string& algorithm : RestorableCandidates()) {
      bool restorable = false;
      SequentialRun seq = RunSequential(stream, algorithm, &restorable);
      if (!restorable) continue;  // C-CSC
      sequential.emplace_back(algorithm, std::move(seq));
    }
    ASSERT_EQ(sequential.size(), 9u) << "restorable algorithm went missing";

    for (int shards : kShardCounts) {
      SCOPED_TRACE("K=" + std::to_string(shards));
      uint64_t sharded_arrivals = 0;
      std::vector<ArrivalReport> sharded =
          RunSharded(stream, shards, &sharded_arrivals);
      ASSERT_EQ(sharded.size(), stream.data.size());
      EXPECT_EQ(sharded_arrivals, stream.data.size());

      for (const auto& [algorithm, seq] : sequential) {
        SCOPED_TRACE("algorithm " + algorithm);
        EXPECT_EQ(seq.arrivals, sharded_arrivals);
        ASSERT_EQ(seq.reports.size(), sharded.size());
        for (size_t i = 0; i < seq.reports.size(); ++i) {
          SCOPED_TRACE("arrival " + std::to_string(i));
          ExpectSameReport(seq.reports[i], sharded[i], seq.ranked);
          if (HasFatalFailure()) return;
        }
      }
    }
  }
}

// Removals and updates must also track the sequential engines — including a
// maximal-skyline-constraint (Invariant 2) store, whose prominence
// denominators are computed by a completely different union path.
TEST(ShardedEquivalence, RemoveAndUpdateMatchSequentialEngines) {
  RandomDataConfig cfg;
  cfg.num_tuples = 60;
  cfg.num_dims = 3;
  cfg.num_measures = 2;
  cfg.duplicate_prob = 0.25;
  cfg.seed = 77;
  Dataset data = RandomDataset(cfg);

  for (const std::string& algorithm : {std::string("BottomUp"),
                                       std::string("STopDown")}) {
    SCOPED_TRACE(algorithm);
    Relation seq_rel(data.schema());
    auto disc_or =
        DiscoveryEngine::CreateDiscoverer(algorithm, &seq_rel, {}, "");
    ASSERT_TRUE(disc_or.ok());
    DiscoveryEngine::Config seq_config;
    seq_config.tau = 0.0;
    DiscoveryEngine seq(&seq_rel, std::move(disc_or).value(), seq_config);

    Relation par_rel(data.schema());
    ShardedEngine::Config par_config;
    par_config.num_shards = 4;
    par_config.num_threads = 3;
    par_config.tau = 0.0;
    ShardedEngine par(&par_rel, par_config);

    std::vector<TupleId> live;
    Rng rng(99);
    for (size_t i = 0; i < data.size(); ++i) {
      const Row& row = data.rows()[i];
      SCOPED_TRACE("op " + std::to_string(i));
      uint64_t dice = rng.NextBounded(10);
      if (dice < 6 || live.size() < 3) {
        ArrivalReport expected = seq.Append(row);
        ArrivalReport actual = par.Append(row);
        live.push_back(expected.tuple);
        ExpectSameReport(expected, actual, /*compare_ranked=*/true);
      } else if (dice < 8) {
        size_t pick = rng.NextBounded(live.size());
        TupleId victim = live[pick];
        live.erase(live.begin() + static_cast<long>(pick));
        ASSERT_TRUE(seq.Remove(victim).ok());
        ASSERT_TRUE(par.Remove(victim).ok());
      } else {
        size_t pick = rng.NextBounded(live.size());
        TupleId victim = live[pick];
        live.erase(live.begin() + static_cast<long>(pick));
        auto expected = seq.Update(victim, row);
        auto actual = par.Update(victim, row);
        ASSERT_TRUE(expected.ok());
        ASSERT_TRUE(actual.ok());
        live.push_back(expected.value().tuple);
        ExpectSameReport(expected.value(), actual.value(),
                         /*compare_ranked=*/true);
      }
      // One logical counter: the shards read the engine's own.
      ASSERT_EQ(CounterEntries(par.counter()), CounterEntries(seq.counter()));
      if (HasFatalFailure()) return;
    }
    // Error paths behave alike too.
    EXPECT_FALSE(par.Remove(par_rel.size()).ok());
    ASSERT_FALSE(live.empty());
    TupleId victim = live.back();
    ASSERT_TRUE(par.Remove(victim).ok());
    EXPECT_FALSE(par.Remove(victim).ok());  // already deleted
    EXPECT_FALSE(par.Update(victim, data.rows()[0]).ok());
  }
}

}  // namespace
}  // namespace sitfact
