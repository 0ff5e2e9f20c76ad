// Concurrency stress for the sharded engine, designed to run under
// ThreadSanitizer (the `tsan` CMake preset / CI job): seeded randomized
// interleavings of AppendBatch / Remove / Update drive the internal thread
// pool, shard-owned µ segments, shard-partitioned counters, and the
// lock-free pruner board; a sequential mirror engine checks every report,
// and the final store must satisfy Invariant 1 exactly.

#include <algorithm>
#include <atomic>
#include <span>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "exec/sharded_engine.h"
#include "lattice/subspace_universe.h"
#include "service/fact_feed.h"
#include "test_util.h"

namespace sitfact {
namespace {

using testing_util::RandomDataConfig;
using testing_util::RandomDataset;
using testing_util::VerifyInvariant1;

void ExpectSameReport(const ArrivalReport& expected,
                      const ArrivalReport& actual) {
  EXPECT_EQ(expected.tuple, actual.tuple);
  ASSERT_EQ(expected.facts, actual.facts);
  ASSERT_EQ(expected.ranked.size(), actual.ranked.size());
  for (size_t i = 0; i < expected.ranked.size(); ++i) {
    EXPECT_EQ(expected.ranked[i].fact, actual.ranked[i].fact);
    EXPECT_EQ(expected.ranked[i].context_size, actual.ranked[i].context_size);
    EXPECT_EQ(expected.ranked[i].skyline_size, actual.ranked[i].skyline_size);
    EXPECT_EQ(expected.ranked[i].prominence, actual.ranked[i].prominence);
  }
}

struct StressParam {
  uint64_t seed;
  int shards;
  int threads;
};

class ShardedStressTest : public ::testing::TestWithParam<StressParam> {};

TEST_P(ShardedStressTest, RandomizedOpInterleavings) {
  const StressParam param = GetParam();
  RandomDataConfig cfg;
  cfg.num_tuples = 220;
  cfg.num_dims = 3;
  cfg.num_measures = 3;
  cfg.dim_cardinality = 3;
  cfg.duplicate_prob = 0.2;
  cfg.mixed_directions = true;
  cfg.seed = param.seed;
  Dataset data = RandomDataset(cfg);

  Relation seq_rel(data.schema());
  auto disc_or = DiscoveryEngine::CreateDiscoverer("BottomUp", &seq_rel, {});
  ASSERT_TRUE(disc_or.ok());
  DiscoveryEngine::Config seq_config;
  seq_config.tau = 0.0;
  DiscoveryEngine seq(&seq_rel, std::move(disc_or).value(), seq_config);

  Relation par_rel(data.schema());
  ShardedEngine::Config par_config;
  par_config.num_shards = param.shards;
  par_config.num_threads = param.threads;
  par_config.tau = 0.0;
  ShardedEngine par(&par_rel, par_config);

  Rng rng(param.seed * 31 + 7);
  std::vector<TupleId> live;
  size_t next_row = 0;
  const std::vector<Row>& rows = data.rows();
  while (next_row < rows.size()) {
    uint64_t dice = rng.NextBounded(10);
    if (dice < 6 || live.size() < 4) {
      // Batched appends of random size through the pipelined path.
      size_t count = 1 + rng.NextBounded(8);
      count = std::min(count, rows.size() - next_row);
      std::span<const Row> batch(rows.data() + next_row, count);
      next_row += count;
      std::vector<ArrivalReport> actual = par.AppendBatch(batch);
      ASSERT_EQ(actual.size(), count);
      for (size_t i = 0; i < count; ++i) {
        ArrivalReport expected = seq.Append(batch[i]);
        live.push_back(expected.tuple);
        ExpectSameReport(expected, actual[i]);
        if (HasFatalFailure()) return;
      }
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
      const Row& replacement = rows[rng.NextBounded(next_row)];
      auto expected = seq.Update(victim, replacement);
      auto actual = par.Update(victim, replacement);
      ASSERT_TRUE(expected.ok());
      ASSERT_TRUE(actual.ok());
      live.push_back(expected.value().tuple);
      ExpectSameReport(expected.value(), actual.value());
      if (HasFatalFailure()) return;
    }
  }

  // Identical store sizes (the satellite fix: aggregation over segments)...
  EXPECT_EQ(par.discoverer().StoredTupleCount(),
            seq.discoverer().StoredTupleCount());
  EXPECT_GT(par.discoverer().ApproxMemoryBytes(), 0u);
  // ...and bucket-exact Invariant 1 over the whole segmented store.
  SubspaceUniverse universe(cfg.num_measures, cfg.num_measures);
  VerifyInvariant1(par_rel, par.discoverer().mutable_store(), cfg.num_dims,
                   universe);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, ShardedStressTest,
    ::testing::Values(StressParam{1, 4, 4}, StressParam{2, 7, 3},
                      StressParam{3, 1, 2}, StressParam{4, 5, 8}),
    [](const ::testing::TestParamInfo<StressParam>& info) {
      return "seed" + std::to_string(info.param.seed) + "_K" +
             std::to_string(info.param.shards) + "_T" +
             std::to_string(info.param.threads);
    });

// Multiple producers hammer a FactFeed backed by a ShardedEngine: publishes
// race against the batched worker drain and the engine's internal pool.
TEST(ShardedStress, FactFeedMultiProducerShardedBackend) {
  RandomDataConfig cfg;
  cfg.num_tuples = 160;
  cfg.num_dims = 3;
  cfg.num_measures = 2;
  cfg.seed = 12345;
  Dataset data = RandomDataset(cfg);

  Relation relation(data.schema());
  ShardedEngine::Config config;
  config.num_shards = 4;
  config.num_threads = 2;
  config.tau = 0.0;
  ShardedEngine engine(&relation, config);

  std::atomic<uint64_t> notified{0};
  FactFeed::Options options;
  options.queue_capacity = 16;  // force backpressure
  options.notify_all_arrivals = true;
  options.max_batch = 8;
  FactFeed feed(
      &engine,
      [&](const ArrivalReport& report) {
        (void)report;
        notified.fetch_add(1);
      },
      options);

  constexpr int kProducers = 4;
  const size_t per_producer = data.size() / kProducers;
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (size_t i = 0; i < per_producer; ++i) {
        ASSERT_TRUE(feed.Publish(data.rows()[p * per_producer + i]));
      }
    });
  }
  for (std::thread& t : producers) t.join();
  feed.Drain();
  EXPECT_EQ(feed.processed(), kProducers * per_producer);
  EXPECT_EQ(notified.load(), kProducers * per_producer);
  EXPECT_EQ(relation.size(), kProducers * per_producer);
  feed.Stop();
  // Single-writer discipline held throughout: arrivals == rows ingested.
  EXPECT_EQ(engine.discoverer().stats().arrivals, kProducers * per_producer);
}

}  // namespace
}  // namespace sitfact
