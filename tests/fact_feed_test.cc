// Tests for service/fact_feed.h: the asynchronous ingestion front end.
// Determinism versus the synchronous engine, backpressure, drain/stop
// semantics, per-report delivery under both back ends, and multi-producer
// accounting.

#include "service/fact_feed.h"

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <future>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "test_util.h"

#include <gtest/gtest.h>

namespace sitfact {
namespace {

using testing_util::RandomDataConfig;
using testing_util::RandomDataset;

std::unique_ptr<DiscoveryEngine> MakeEngine(Relation* relation,
                                            double tau = 2.0) {
  auto disc_or = DiscoveryEngine::CreateDiscoverer("STopDown", relation, {});
  EXPECT_TRUE(disc_or.ok());
  DiscoveryEngine::Config config;
  config.tau = tau;
  return std::make_unique<DiscoveryEngine>(relation,
                                           std::move(disc_or).value(),
                                           config);
}

Dataset TestData(int n = 120, uint64_t seed = 21) {
  RandomDataConfig cfg;
  cfg.num_tuples = n;
  cfg.seed = seed;
  cfg.num_dims = 3;
  cfg.num_measures = 2;
  return RandomDataset(cfg);
}

TEST(FactFeed, SingleProducerMatchesSynchronousRun) {
  Dataset data = TestData();

  // Synchronous reference.
  Relation sync_rel(data.schema());
  auto sync_engine = MakeEngine(&sync_rel);
  std::vector<std::vector<SkylineFact>> expected;
  uint64_t expected_prominent = 0;
  for (const Row& row : data.rows()) {
    ArrivalReport r = sync_engine->Append(row);
    expected.push_back(r.facts);
    if (!r.prominent.empty()) ++expected_prominent;
  }

  // Through the feed. The subscriber runs on the worker thread; collect
  // into plain vectors (no locking needed: one worker, and we only read
  // after Stop()).
  Relation feed_rel(data.schema());
  auto feed_engine = MakeEngine(&feed_rel);
  std::vector<std::vector<SkylineFact>> actual;
  FactFeed::Options options;
  options.notify_all_arrivals = true;
  FactFeed feed(
      feed_engine.get(),
      [&](const ArrivalReport& r) { actual.push_back(r.facts); }, options);
  for (const Row& row : data.rows()) {
    ASSERT_TRUE(feed.Publish(row));
  }
  feed.Stop();

  EXPECT_EQ(feed.processed(), data.rows().size());
  EXPECT_EQ(feed.prominent_arrivals(), expected_prominent);
  ASSERT_EQ(actual.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(actual[i], expected[i]) << "arrival " << i;
  }
}

TEST(FactFeed, BackpressureBlocksButLosesNothing) {
  Dataset data = TestData(200, 5);
  Relation rel(data.schema());
  auto engine = MakeEngine(&rel);
  FactFeed::Options options;
  options.queue_capacity = 2;  // force producers to wait on the worker
  FactFeed feed(engine.get(), nullptr, options);
  for (const Row& row : data.rows()) {
    ASSERT_TRUE(feed.Publish(row));
  }
  feed.Stop();
  EXPECT_EQ(feed.processed(), data.rows().size());
  EXPECT_EQ(rel.size(), data.rows().size());
}

TEST(FactFeed, DrainWaitsForBacklogWithoutStopping) {
  Dataset data = TestData(80, 6);
  Relation rel(data.schema());
  auto engine = MakeEngine(&rel);
  FactFeed feed(engine.get(), nullptr);
  for (size_t i = 0; i < 40; ++i) ASSERT_TRUE(feed.Publish(data.rows()[i]));
  feed.Drain();
  EXPECT_EQ(feed.processed(), 40u);
  // Still accepting afterwards.
  for (size_t i = 40; i < 80; ++i) ASSERT_TRUE(feed.Publish(data.rows()[i]));
  feed.Drain();
  EXPECT_EQ(feed.processed(), 80u);
  feed.Stop();
}

TEST(FactFeed, PublishAfterStopIsRefused) {
  Dataset data = TestData(5, 7);
  Relation rel(data.schema());
  auto engine = MakeEngine(&rel);
  FactFeed feed(engine.get(), nullptr);
  ASSERT_TRUE(feed.Publish(data.rows()[0]));
  feed.Stop();
  EXPECT_FALSE(feed.Publish(data.rows()[1]));
  EXPECT_EQ(feed.processed(), 1u);
}

TEST(FactFeed, StopProcessesTheBacklogFirst) {
  Dataset data = TestData(60, 8);
  Relation rel(data.schema());
  auto engine = MakeEngine(&rel);
  FactFeed feed(engine.get(), nullptr);
  for (const Row& row : data.rows()) ASSERT_TRUE(feed.Publish(row));
  feed.Stop();  // everything already queued must still be discovered
  EXPECT_EQ(feed.processed(), data.rows().size());
}

TEST(FactFeed, DrainRacingStopNeitherHangsNorLosesRows) {
  // Drain() and Stop() from different threads while producers are still
  // pushing: whichever wins, every published row must be processed and both
  // calls must return (a hang here is the bug this test pins).
  for (int round = 0; round < 5; ++round) {
    Dataset data = TestData(60, 40 + round);
    Relation rel(data.schema());
    auto engine = MakeEngine(&rel);
    FactFeed::Options options;
    options.queue_capacity = 4;
    FactFeed feed(engine.get(), nullptr, options);

    std::atomic<uint64_t> published{0};
    std::thread producer([&] {
      for (const Row& row : data.rows()) {
        if (!feed.Publish(row)) break;
        ++published;
      }
    });
    std::thread drainer([&] { feed.Drain(); });
    std::thread stopper([&] { feed.Stop(); });
    producer.join();
    drainer.join();
    stopper.join();
    // Rows accepted before the stop won the race are all processed.
    EXPECT_EQ(feed.processed(), published.load());
    EXPECT_EQ(rel.size(), published.load());
  }
}

TEST(FactFeed, ThrowingSubscriberLatchesErrorAndIngestionContinues) {
  Dataset data = TestData(50, 41);
  Relation rel(data.schema());
  auto engine = MakeEngine(&rel);
  std::atomic<uint64_t> delivered{0};
  FactFeed::Options options;
  options.notify_all_arrivals = true;
  FactFeed feed(
      engine.get(),
      [&](const ArrivalReport& r) {
        ++delivered;
        if (r.tuple == 10) throw std::runtime_error("subscriber bug");
        if (r.tuple == 20) throw 42;  // non-std exception
      },
      options);
  for (const Row& row : data.rows()) {
    ASSERT_TRUE(feed.Publish(row));
  }
  feed.Stop();

  // The pipeline survived: every row discovered, every arrival delivered,
  // and the first subscriber failure is latched for inspection.
  EXPECT_EQ(feed.processed(), data.rows().size());
  EXPECT_EQ(delivered.load(), data.rows().size());
  EXPECT_EQ(rel.size(), data.rows().size());
  EXPECT_FALSE(feed.subscriber_status().ok());
  EXPECT_NE(feed.subscriber_status().message().find("subscriber bug"),
            std::string::npos);
}

TEST(FactFeed, PublishAfterStopRefusedFromAnyThread) {
  Dataset data = TestData(10, 42);
  Relation rel(data.schema());
  auto engine = MakeEngine(&rel);
  FactFeed feed(engine.get(), nullptr);
  ASSERT_TRUE(feed.Publish(data.rows()[0]));
  feed.Stop();

  std::atomic<int> accepted{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < 3; ++p) {
    producers.emplace_back([&] {
      for (int i = 1; i < 10; ++i) {
        if (feed.Publish(data.rows()[i])) ++accepted;
      }
    });
  }
  for (auto& t : producers) t.join();
  EXPECT_EQ(accepted.load(), 0);
  EXPECT_EQ(feed.processed(), 1u);
  // Stop() stays idempotent after the refused publishes.
  feed.Stop();
  EXPECT_EQ(rel.size(), 1u);
}

TEST(FactFeed, NotifyAllDeliversEmptyReports) {
  // Second row repeats the first's dimensions with strictly worse measures:
  // every context containing it also contains its dominator, so S_t is
  // empty. With notify_all_arrivals the subscriber must still hear about
  // it, with an empty report.
  Schema schema({{"d0"}, {"d1"}},
                {{"m0", Direction::kLargerIsBetter},
                 {"m1", Direction::kLargerIsBetter}});
  Relation rel(schema);
  auto engine = MakeEngine(&rel, /*tau=*/1.0);

  std::vector<std::pair<TupleId, size_t>> seen;  // (tuple, fact count)
  FactFeed::Options options;
  options.notify_all_arrivals = true;
  FactFeed feed(
      engine.get(),
      [&](const ArrivalReport& r) { seen.emplace_back(r.tuple,
                                                      r.facts.size()); },
      options);
  ASSERT_TRUE(feed.Publish(Row{{"x", "y"}, {5.0, 5.0}}));
  ASSERT_TRUE(feed.Publish(Row{{"x", "y"}, {1.0, 1.0}}));
  feed.Stop();

  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0].first, 0u);
  EXPECT_GT(seen[0].second, 0u);  // the first arrival mints facts
  EXPECT_EQ(seen[1].first, 1u);
  EXPECT_EQ(seen[1].second, 0u);  // the dominated arrival mints none
  EXPECT_EQ(feed.processed(), 2u);
  EXPECT_EQ(feed.prominent_arrivals(), 1u);
}

TEST(FactFeed, SubscriberSeesOnlyArrivalsDeliveredSoFar) {
  // A burst drained in one AppendBatch: the worker is held inside the first
  // subscriber call until the rest of the rows are queued, so it pops them
  // together. A sequential engine delivers each report before it appends
  // the next row, so what the subscriber reads off the engine describes
  // exactly the arrivals it has seen, whatever the batch size.
  Dataset data = TestData(20, 12);
  Relation rel(data.schema());
  auto engine = MakeEngine(&rel);
  std::promise<void> entered;
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  std::vector<std::pair<TupleId, size_t>> seen;  // (tuple, relation size)
  FactFeed::Options options;
  options.notify_all_arrivals = true;
  FactFeed feed(
      engine.get(),
      [&](const ArrivalReport& r) {
        seen.emplace_back(r.tuple, rel.size());
        if (seen.size() == 1) {
          entered.set_value();
          released.wait();
        }
      },
      options);
  ASSERT_TRUE(feed.Publish(data.rows()[0]));
  entered.get_future().wait();
  for (size_t i = 1; i < data.rows().size(); ++i) {
    ASSERT_TRUE(feed.Publish(data.rows()[i]));
  }
  release.set_value();
  feed.Stop();

  ASSERT_EQ(seen.size(), data.rows().size());
  for (size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i].first, i);
    EXPECT_EQ(seen[i].second, seen[i].first + 1) << "report " << i;
  }
}

TEST(FactFeed, DurableSubscriberSeesOnlyArrivalsDeliveredSoFar) {
  // The durable twin of the test above: the WAL-logged back end hands its
  // reports to the same per-report sink, so a burst drained in one batch
  // still reaches the subscriber one arrival at a time.
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("sitfact_fact_feed_test_" + std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(dir);
  Dataset data = TestData(20, 12);
  persist::DurableOptions opts;
  opts.dir = dir;
  opts.tau = 2.0;
  auto durable_or = persist::DurableEngine::Open(opts, data.schema());
  ASSERT_TRUE(durable_or.ok()) << durable_or.status().ToString();
  std::unique_ptr<persist::DurableEngine> durable =
      std::move(durable_or).value();
  std::promise<void> entered;
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  std::vector<std::pair<TupleId, size_t>> seen;  // (tuple, relation size)
  FactFeed::Options options;
  options.notify_all_arrivals = true;
  {
    FactFeed feed(
        durable.get(),
        [&](const ArrivalReport& r) {
          seen.emplace_back(r.tuple, durable->relation().size());
          if (seen.size() == 1) {
            entered.set_value();
            released.wait();
          }
        },
        options);
    ASSERT_TRUE(feed.Publish(data.rows()[0]));
    entered.get_future().wait();
    for (size_t i = 1; i < data.rows().size(); ++i) {
      ASSERT_TRUE(feed.Publish(data.rows()[i]));
    }
    release.set_value();
    feed.Stop();
    EXPECT_TRUE(feed.durable_status().ok());
  }
  durable.reset();
  std::filesystem::remove_all(dir);

  ASSERT_EQ(seen.size(), data.rows().size());
  for (size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i].first, i);
    EXPECT_EQ(seen[i].second, seen[i].first + 1) << "report " << i;
  }
}

TEST(FactFeed, MultipleProducersAllRowsAccountedFor) {
  // Arrival order across producers is nondeterministic, so only totals are
  // asserted; the engine still sees a single serialized stream.
  Dataset data = TestData(300, 9);
  Relation rel(data.schema());
  auto engine = MakeEngine(&rel);
  std::atomic<uint64_t> notified{0};
  FactFeed::Options options;
  options.notify_all_arrivals = true;
  options.queue_capacity = 8;
  FactFeed feed(
      engine.get(), [&](const ArrivalReport&) { ++notified; }, options);

  constexpr int kProducers = 4;
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (size_t i = p; i < data.rows().size(); i += kProducers) {
        ASSERT_TRUE(feed.Publish(data.rows()[i]));
      }
    });
  }
  for (auto& t : producers) t.join();
  feed.Stop();

  EXPECT_EQ(feed.processed(), data.rows().size());
  EXPECT_EQ(notified.load(), data.rows().size());
  EXPECT_EQ(rel.size(), data.rows().size());
}

}  // namespace
}  // namespace sitfact
