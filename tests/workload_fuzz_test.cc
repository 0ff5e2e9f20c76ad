// Differential workload fuzzer: seeded randomized interleavings of
// Append / AppendBatch / Remove / Update / TopK / FactsForTuple /
// FactsInWindow driven against the sequential, sharded, and durable
// engines, with every ArrivalReport and every query result checked
// tuple-for-tuple against a brute-force oracle (quadratic skyline
// recomputation per arrival + a naive shadow copy of the fact index).
//
// Scale knobs (environment):
//   SITFACT_FUZZ_SEEDS    number of seeds per engine kind   (default 10)
//   SITFACT_FUZZ_OPS      operations per seed               (default 100)
//   SITFACT_FUZZ_SEED     run exactly this one seed (replay a CI failure)
//
// A failure prints the seed; reproduce with
//   SITFACT_FUZZ_SEED=<seed> ./workload_fuzz_test

#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/engine.h"
#include "core/prominence.h"
#include "exec/sharded_engine.h"
#include "lattice/subspace_universe.h"
#include "persist/durable_engine.h"
#include "query/fact_index.h"
#include "service/fact_service.h"
#include "skyline/skyline_compute.h"
#include "test_util.h"

#include <gtest/gtest.h>

namespace sitfact {
namespace {

int EnvInt(const char* name, int fallback) {
  const char* v = std::getenv(name);
  return v == nullptr ? fallback : std::atoi(v);
}

Schema FuzzSchema() {
  return Schema({{"d0"}, {"d1"}, {"d2"}},
                {{"m0", Direction::kLargerIsBetter},
                 {"m1", Direction::kSmallerIsBetter}});
}

Row RandomRow(Rng* rng) {
  Row row;
  for (int d = 0; d < 3; ++d) {
    row.dimensions.push_back("v" + std::to_string(rng->NextBounded(3)));
  }
  for (int j = 0; j < 2; ++j) {
    row.measures.push_back(static_cast<double>(rng->NextBounded(6)));
  }
  return row;
}

/// The brute-force oracle: a shadow Relation plus quadratic recomputation
/// of every report, and a naive shadow of the fact index for query checks.
class Oracle {
 public:
  Oracle() : relation_(FuzzSchema()), universe_(2, 2) {}

  const Relation& relation() const { return relation_; }

  ArrivalReport Append(const Row& row, double tau) {
    TupleId t = relation_.Append(row);
    ArrivalReport report;
    report.tuple = t;
    // S_t: every (C, M) whose contextual skyline admits t, brute force.
    for (MeasureMask m : universe_.masks()) {
      for (DimMask mask :
           ComputeSkylineConstraintMasks(relation_, t, m, /*max_bound=*/3,
                                         relation_.size())) {
        report.facts.push_back(
            {Constraint::ForTuple(relation_, t, mask), m});
      }
    }
    CanonicalizeFacts(&report.facts);
    // Prominence: quadratic context / skyline sizes; ranked descending,
    // stable in canonical order (the contract of RankAll).
    for (const SkylineFact& f : report.facts) {
      RankedFact rf;
      rf.fact = f;
      rf.context_size =
          SelectContext(relation_, f.constraint, relation_.size()).size();
      rf.skyline_size = ComputeContextualSkyline(relation_, f.constraint,
                                                 f.subspace,
                                                 relation_.size())
                            .size();
      rf.prominence = static_cast<double>(rf.context_size) /
                      static_cast<double>(rf.skyline_size);
      report.ranked.push_back(rf);
    }
    std::stable_sort(report.ranked.begin(), report.ranked.end(),
                     [](const RankedFact& a, const RankedFact& b) {
                       return a.prominence > b.prominence;
                     });
    report.prominent = SelectProminent(report.ranked, tau);

    // Shadow index bookkeeping, mirroring FactIndex insertion order.
    uint64_t seq = arrivals_++;
    for (const RankedFact& rf : report.ranked) {
      bool prominent = false;
      for (const RankedFact& p : report.prominent) {
        if (p.fact == rf.fact) prominent = true;
      }
      records_.push_back({t, seq, rf.fact, rf.prominence, prominent, true});
    }
    live_.push_back(t);
    return report;
  }

  void Remove(TupleId t) {
    relation_.MarkDeleted(t);
    live_.erase(std::find(live_.begin(), live_.end(), t));
    for (ShadowRecord& r : records_) {
      if (r.tuple == t) r.live = false;
    }
  }

  const std::vector<TupleId>& live() const { return live_; }
  uint64_t arrivals() const { return arrivals_; }

  /// Expected TopK ids (full ordered list; callers slice to k).
  std::vector<uint32_t> TopKIds(const FactFilter& filter) const {
    std::vector<uint32_t> ids;
    for (uint32_t i = 0; i < records_.size(); ++i) {
      if (Matches(filter, records_[i])) ids.push_back(i);
    }
    std::stable_sort(ids.begin(), ids.end(), [this](uint32_t a, uint32_t b) {
      if (records_[a].prominence != records_[b].prominence) {
        return records_[a].prominence > records_[b].prominence;
      }
      return a < b;
    });
    return ids;
  }

  std::vector<uint32_t> IdsForTuple(TupleId t) const {
    std::vector<uint32_t> ids;
    for (uint32_t i = 0; i < records_.size(); ++i) {
      if (records_[i].tuple == t && records_[i].live) ids.push_back(i);
    }
    return ids;
  }

  std::vector<uint32_t> IdsInWindow(uint64_t a0, uint64_t a1) const {
    std::vector<uint32_t> ids;
    for (uint32_t i = 0; i < records_.size(); ++i) {
      if (records_[i].live && records_[i].arrival_seq >= a0 &&
          records_[i].arrival_seq <= a1) {
        ids.push_back(i);
      }
    }
    return ids;
  }

  struct ShadowRecord {
    TupleId tuple;
    uint64_t arrival_seq;
    SkylineFact fact;
    double prominence;
    bool prominent;
    bool live;
  };
  const ShadowRecord& record(uint32_t id) const { return records_[id]; }

 private:
  bool Matches(const FactFilter& f, const ShadowRecord& r) const {
    if (!f.include_dead && !r.live) return false;
    if (f.tuple.has_value() && r.tuple != *f.tuple) return false;
    if (f.subspace.has_value() && r.fact.subspace != *f.subspace) {
      return false;
    }
    if (f.bound_mask.has_value() &&
        r.fact.constraint.bound_mask() != *f.bound_mask) {
      return false;
    }
    if (f.about.has_value() &&
        !r.fact.constraint.SubsumedByOrEqual(*f.about)) {
      return false;
    }
    if (r.arrival_seq < f.min_arrival || r.arrival_seq > f.max_arrival) {
      return false;
    }
    if (r.prominence < f.min_prominence) return false;
    if (f.prominent_only && !r.prominent) return false;
    return true;
  }

  Relation relation_;
  SubspaceUniverse universe_;
  std::vector<TupleId> live_;
  std::vector<ShadowRecord> records_;
  uint64_t arrivals_ = 0;
};

/// Uniform driver interface over the three engine kinds.
class EngineUnderTest {
 public:
  virtual ~EngineUnderTest() = default;
  virtual ArrivalReport Append(const Row& row) = 0;
  virtual std::vector<ArrivalReport> AppendBatch(
      std::span<const Row> rows) = 0;
  virtual Status Remove(TupleId t) = 0;
  virtual StatusOr<ArrivalReport> Update(TupleId t, const Row& row) = 0;
  virtual const Relation& relation() const = 0;
};

/// Either in-memory engine kind, through the one DiscoveryEngine interface.
class InMemoryUnderTest : public EngineUnderTest {
 public:
  /// `num_shards` > 0 selects the sharded engine.
  InMemoryUnderTest(double tau, int num_shards) : relation_(FuzzSchema()) {
    DiscoveryEngine::Config config;
    config.tau = tau;
    auto engine_or = CreateEngine(&relation_, "STopDown", num_shards,
                                  /*num_threads=*/2, config);
    SITFACT_CHECK(engine_or.ok());
    engine_ = std::move(engine_or).value();
  }
  ArrivalReport Append(const Row& row) override {
    return engine_->Append(row);
  }
  std::vector<ArrivalReport> AppendBatch(std::span<const Row> rows) override {
    return engine_->AppendBatch(rows);
  }
  Status Remove(TupleId t) override { return engine_->Remove(t); }
  StatusOr<ArrivalReport> Update(TupleId t, const Row& row) override {
    return engine_->Update(t, row);
  }
  const Relation& relation() const override { return relation_; }

 private:
  Relation relation_;
  std::unique_ptr<DiscoveryEngine> engine_;
};

class DurableUnderTest : public EngineUnderTest {
 public:
  DurableUnderTest(double tau, const std::string& dir) {
    persist::DurableOptions opts;
    opts.dir = dir;
    opts.tau = tau;
    opts.checkpoint_every = 17;  // exercise mid-stream checkpoints
    auto durable_or = persist::DurableEngine::Open(opts, FuzzSchema());
    SITFACT_CHECK(durable_or.ok());
    engine_ = std::move(durable_or).value();
  }
  ArrivalReport Append(const Row& row) override {
    auto report_or = engine_->Append(row);
    SITFACT_CHECK(report_or.ok());
    return std::move(report_or).value();
  }
  std::vector<ArrivalReport> AppendBatch(std::span<const Row> rows) override {
    persist::DurableEngine::BatchResult result = engine_->AppendBatch(rows);
    SITFACT_CHECK(result.status.ok());
    return std::move(result.reports);
  }
  Status Remove(TupleId t) override { return engine_->Remove(t); }
  StatusOr<ArrivalReport> Update(TupleId t, const Row& row) override {
    return engine_->Update(t, row);
  }
  const Relation& relation() const override { return engine_->relation(); }

 private:
  std::unique_ptr<persist::DurableEngine> engine_;
};

void ExpectReportsEqual(const ArrivalReport& actual,
                        const ArrivalReport& expected, const Relation& r) {
  ASSERT_EQ(actual.tuple, expected.tuple);
  ASSERT_EQ(actual.facts, expected.facts)
      << "facts mismatch for tuple " << expected.tuple << "\nactual:\n"
      << testing_util::DescribeFacts(r, actual.facts) << "expected:\n"
      << testing_util::DescribeFacts(r, expected.facts);
  ASSERT_EQ(actual.ranked.size(), expected.ranked.size());
  for (size_t i = 0; i < expected.ranked.size(); ++i) {
    ASSERT_EQ(actual.ranked[i].fact, expected.ranked[i].fact) << "rank " << i;
    ASSERT_EQ(actual.ranked[i].context_size, expected.ranked[i].context_size);
    ASSERT_EQ(actual.ranked[i].skyline_size, expected.ranked[i].skyline_size);
    ASSERT_EQ(actual.ranked[i].prominence, expected.ranked[i].prominence);
  }
  ASSERT_EQ(actual.prominent.size(), expected.prominent.size());
  for (size_t i = 0; i < expected.prominent.size(); ++i) {
    ASSERT_EQ(actual.prominent[i].fact, expected.prominent[i].fact);
  }
}

FactFilter RandomFilter(Rng* rng, const Oracle& oracle) {
  FactFilter f;
  switch (rng->NextBounded(5)) {
    case 0:
      break;  // unfiltered
    case 1:
      f.subspace = static_cast<MeasureMask>(1 + rng->NextBounded(3));
      break;
    case 2:
      f.bound_mask = static_cast<DimMask>(rng->NextBounded(8));
      break;
    case 3:
      f.min_prominence = 1.0 + static_cast<double>(rng->NextBounded(4));
      break;
    case 4:
      f.prominent_only = true;
      break;
  }
  if (!oracle.live().empty() && rng->NextBool(0.3)) {
    f.about = Constraint::ForTuple(
        oracle.relation(),
        oracle.live()[rng->NextBounded(oracle.live().size())],
        static_cast<DimMask>(1u << rng->NextBounded(3)));
  }
  return f;
}

/// `actual` must be exactly the oracle records `expected`, in order.
void ExpectViewsMatch(const std::vector<FactService::FactView>& actual,
                      const std::vector<uint32_t>& expected,
                      const Oracle& oracle) {
  ASSERT_EQ(actual.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    const Oracle::ShadowRecord& want = oracle.record(expected[i]);
    ASSERT_EQ(actual[i].id, expected[i]) << "rank " << i;
    ASSERT_EQ(actual[i].tuple, want.tuple);
    ASSERT_EQ(actual[i].fact, want.fact);
    ASSERT_EQ(actual[i].prominence, want.prominence);
    ASSERT_EQ(actual[i].prominent, want.prominent);
  }
}

/// One fuzzing episode: `ops` random operations on `engine`, every result
/// checked against the oracle. `*executed` counts operations run.
void RunEpisode(EngineUnderTest* engine, uint64_t seed, int ops,
                int* executed) {
  Rng rng(seed * 7919 + 1);
  const double tau = 1.5 + 0.5 * static_cast<double>(seed % 4);
  Oracle oracle;
  FactService service(&engine->relation());

  for (int op = 0; op < ops; ++op) {
    ++*executed;
    SCOPED_TRACE("op " + std::to_string(op));
    const uint64_t dice = rng.NextBounded(100);
    if (dice < 45 || oracle.live().empty()) {
      Row row = RandomRow(&rng);
      ArrivalReport actual = engine->Append(row);
      ArrivalReport expected = oracle.Append(row, tau);
      ExpectReportsEqual(actual, expected, oracle.relation());
      service.OnArrival(actual);
    } else if (dice < 60) {
      const size_t n = 2 + rng.NextBounded(5);
      std::vector<Row> rows;
      for (size_t i = 0; i < n; ++i) rows.push_back(RandomRow(&rng));
      std::vector<ArrivalReport> actual =
          engine->AppendBatch(std::span<const Row>(rows));
      ASSERT_EQ(actual.size(), rows.size());
      for (size_t i = 0; i < rows.size(); ++i) {
        ArrivalReport expected = oracle.Append(rows[i], tau);
        ExpectReportsEqual(actual[i], expected, oracle.relation());
        service.OnArrival(actual[i]);
      }
    } else if (dice < 72) {
      TupleId t = oracle.live()[rng.NextBounded(oracle.live().size())];
      ASSERT_TRUE(engine->Remove(t).ok()) << "remove " << t;
      oracle.Remove(t);
      ASSERT_TRUE(service.OnRemove(t).ok());
    } else if (dice < 80) {
      TupleId t = oracle.live()[rng.NextBounded(oracle.live().size())];
      Row row = RandomRow(&rng);
      auto actual_or = engine->Update(t, row);
      ASSERT_TRUE(actual_or.ok());
      oracle.Remove(t);
      ArrivalReport expected = oracle.Append(row, tau);
      ExpectReportsEqual(actual_or.value(), expected, oracle.relation());
      ASSERT_TRUE(service.OnUpdate(t, actual_or.value()).ok());
    } else if (dice < 90) {
      // Drain every TopK page through resume cursors: the pages concatenate
      // to the oracle's full order, and the scan ends with next == nullopt.
      const size_t k = 1 + rng.NextBounded(12);
      FactFilter filter = RandomFilter(&rng, oracle);
      const std::vector<uint32_t> expected = oracle.TopKIds(filter);
      FactService::Snapshot snap = service.Acquire();
      std::vector<FactService::FactView> actual;
      std::optional<TopKCursor> cursor;
      for (size_t pages = 0;; ++pages) {
        ASSERT_LE(pages, expected.size()) << "TopK pages never end";
        FactService::Page p = snap.TopK(k, filter, cursor);
        ASSERT_LE(p.facts.size(), k);
        if (p.facts.empty()) {
          ASSERT_FALSE(p.next.has_value());
        }
        actual.insert(actual.end(), p.facts.begin(), p.facts.end());
        if (!p.next.has_value()) break;
        cursor = p.next;
      }
      ExpectViewsMatch(actual, expected, oracle);
      if (filter.about.has_value()) {
        FactFilter about_only;
        about_only.about = filter.about;
        std::vector<uint32_t> want = oracle.TopKIds(about_only);
        if (want.size() > k) want.resize(k);
        ExpectViewsMatch(snap.About(*filter.about, k).facts, want, oracle);
      }
    } else if (dice < 95) {
      const TupleId t = static_cast<TupleId>(
          rng.NextBounded(oracle.relation().size() + 2));
      std::vector<uint32_t> expected = oracle.IdsForTuple(t);
      // Drain in small random pages so the resume cursor is fuzzed too.
      std::vector<FactService::FactView> actual;
      {
        FactService::Snapshot snap = service.Acquire();
        const size_t page = 1 + rng.NextBounded(6);
        std::optional<TopKCursor> cursor;
        for (;;) {
          FactService::Page p = snap.FactsForTuple(t, {}, page, cursor);
          actual.insert(actual.end(), p.facts.begin(), p.facts.end());
          if (!p.next.has_value()) break;
          cursor = p.next;
        }
      }
      ASSERT_EQ(actual.size(), expected.size()) << "tuple " << t;
      for (size_t i = 0; i < expected.size(); ++i) {
        ASSERT_EQ(actual[i].id, expected[i]);
        ASSERT_EQ(actual[i].fact, oracle.record(expected[i]).fact);
      }
    } else {
      const uint64_t arrivals = oracle.arrivals();
      const uint64_t a0 = arrivals == 0 ? 0 : rng.NextBounded(arrivals);
      const uint64_t a1 = a0 + rng.NextBounded(20);
      std::vector<uint32_t> expected = oracle.IdsInWindow(a0, a1);
      std::vector<FactService::FactView> actual;
      {
        FactService::Snapshot snap = service.Acquire();
        const size_t page = 1 + rng.NextBounded(9);
        std::optional<TopKCursor> cursor;
        for (;;) {
          FactService::Page p = snap.FactsInWindow(a0, a1, {}, page, cursor);
          actual.insert(actual.end(), p.facts.begin(), p.facts.end());
          if (!p.next.has_value()) break;
          cursor = p.next;
        }
      }
      ASSERT_EQ(actual.size(), expected.size())
          << "window [" << a0 << ", " << a1 << "]";
      for (size_t i = 0; i < expected.size(); ++i) {
        ASSERT_EQ(actual[i].id, expected[i]);
      }
    }
    if (::testing::Test::HasFatalFailure()) return;
  }
}

class WorkloadFuzzTest : public ::testing::TestWithParam<const char*> {
 protected:
  std::unique_ptr<EngineUnderTest> MakeEngine(double tau, uint64_t seed) {
    const std::string kind = GetParam();
    if (kind == "sequential") {
      return std::make_unique<InMemoryUnderTest>(tau, /*num_shards=*/0);
    }
    if (kind == "sharded") {
      return std::make_unique<InMemoryUnderTest>(tau, /*num_shards=*/3);
    }
    if (!dir_.empty()) std::filesystem::remove_all(dir_);  // previous seed
    dir_ = (std::filesystem::temp_directory_path() /
            ("sitfact_fuzz_" + std::to_string(::getpid()) + "_" +
             std::to_string(seed)))
               .string();
    std::filesystem::remove_all(dir_);
    return std::make_unique<DurableUnderTest>(tau, dir_);
  }

  void TearDown() override {
    if (!dir_.empty()) std::filesystem::remove_all(dir_);
  }

  std::string dir_;
};

TEST_P(WorkloadFuzzTest, DifferentialAgainstBruteForceOracle) {
  const int ops = EnvInt("SITFACT_FUZZ_OPS", 100);
  const int pinned = EnvInt("SITFACT_FUZZ_SEED", -1);
  const int num_seeds = pinned >= 0 ? 1 : EnvInt("SITFACT_FUZZ_SEEDS", 10);

  int iterations = 0;
  for (int i = 0; i < num_seeds; ++i) {
    const uint64_t seed = pinned >= 0 ? static_cast<uint64_t>(pinned)
                                      : static_cast<uint64_t>(i + 1);
    SCOPED_TRACE("seed " + std::to_string(seed) +
                 " (reproduce: SITFACT_FUZZ_SEED=" + std::to_string(seed) +
                 " ./workload_fuzz_test)");
    const double tau = 1.5 + 0.5 * static_cast<double>(seed % 4);
    auto engine = MakeEngine(tau, seed);
    RunEpisode(engine.get(), seed, ops, &iterations);
    if (HasFatalFailure()) {
      std::fprintf(stderr,
                   "[workload_fuzz] FAILED at seed %llu; reproduce with "
                   "SITFACT_FUZZ_SEED=%llu ./workload_fuzz_test\n",
                   static_cast<unsigned long long>(seed),
                   static_cast<unsigned long long>(seed));
      break;
    }
  }
  std::printf("[workload_fuzz] %s: %d differential iterations across %d "
              "seed(s)\n",
              GetParam(), iterations, num_seeds);
}

INSTANTIATE_TEST_SUITE_P(AllEngines, WorkloadFuzzTest,
                         ::testing::Values("sequential", "sharded",
                                           "durable"),
                         [](const ::testing::TestParamInfo<const char*>&
                                info) { return std::string(info.param); });

// C-CSC pass: seeded Append/Remove/Update interleavings against the same
// brute-force oracle, facts only. C-CSC keeps no µ store, so prominence
// ranking is off and the FactService legs of the main episode don't apply;
// what this pins is that the rebuilt engine's skycube repair logic (full
// per-context replay on removal) survives arbitrary churn orders. Shares
// the SITFACT_FUZZ_SEEDS / SITFACT_FUZZ_OPS / SITFACT_FUZZ_SEED knobs.
TEST(WorkloadFuzzCcsc, ChurnFactsMatchBruteForceOracle) {
  const int ops = EnvInt("SITFACT_FUZZ_OPS", 100);
  const int pinned = EnvInt("SITFACT_FUZZ_SEED", -1);
  const int num_seeds = pinned >= 0 ? 1 : EnvInt("SITFACT_FUZZ_SEEDS", 10);

  int iterations = 0;
  for (int i = 0; i < num_seeds; ++i) {
    const uint64_t seed = pinned >= 0 ? static_cast<uint64_t>(pinned)
                                      : static_cast<uint64_t>(i + 1);
    SCOPED_TRACE("seed " + std::to_string(seed) +
                 " (reproduce: SITFACT_FUZZ_SEED=" + std::to_string(seed) +
                 " ./workload_fuzz_test)");
    Rng rng(seed * 6151 + 3);
    const double tau = 1.5 + 0.5 * static_cast<double>(seed % 4);
    Oracle oracle;

    Relation relation(FuzzSchema());
    auto disc_or = DiscoveryEngine::CreateDiscoverer("C-CSC", &relation, {});
    ASSERT_TRUE(disc_or.ok());
    DiscoveryEngine::Config config;
    config.rank_facts = false;  // no µ store behind C-CSC
    DiscoveryEngine engine(&relation, std::move(disc_or).value(), config);

    for (int op = 0; op < ops; ++op) {
      ++iterations;
      SCOPED_TRACE("op " + std::to_string(op));
      const uint64_t dice = rng.NextBounded(100);
      if (dice < 50 || oracle.live().empty()) {
        Row row = RandomRow(&rng);
        ArrivalReport actual = engine.Append(row);
        ArrivalReport expected = oracle.Append(row, tau);
        ASSERT_EQ(actual.tuple, expected.tuple);
        ASSERT_EQ(actual.facts, expected.facts)
            << "facts mismatch for tuple " << expected.tuple << "\nactual:\n"
            << testing_util::DescribeFacts(relation, actual.facts)
            << "expected:\n"
            << testing_util::DescribeFacts(relation, expected.facts);
      } else if (dice < 75) {
        TupleId t = oracle.live()[rng.NextBounded(oracle.live().size())];
        ASSERT_TRUE(engine.Remove(t).ok()) << "remove " << t;
        oracle.Remove(t);
      } else {
        TupleId t = oracle.live()[rng.NextBounded(oracle.live().size())];
        Row row = RandomRow(&rng);
        auto actual_or = engine.Update(t, row);
        ASSERT_TRUE(actual_or.ok()) << actual_or.status().ToString();
        oracle.Remove(t);
        ArrivalReport expected = oracle.Append(row, tau);
        ASSERT_EQ(actual_or.value().facts, expected.facts)
            << "post-update facts mismatch for tuple " << expected.tuple;
      }
      if (::testing::Test::HasFatalFailure()) {
        std::fprintf(stderr,
                     "[workload_fuzz] C-CSC FAILED at seed %llu; reproduce "
                     "with SITFACT_FUZZ_SEED=%llu ./workload_fuzz_test\n",
                     static_cast<unsigned long long>(seed),
                     static_cast<unsigned long long>(seed));
        return;
      }
    }
  }
  std::printf("[workload_fuzz] ccsc: %d differential iterations across %d "
              "seed(s)\n",
              iterations, num_seeds);
}

}  // namespace
}  // namespace sitfact
