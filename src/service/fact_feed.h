#ifndef SITFACT_SERVICE_FACT_FEED_H_
#define SITFACT_SERVICE_FACT_FEED_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

#include "common/status.h"
#include "core/engine.h"
#include "persist/durable_engine.h"
#include "relation/relation.h"
#include "service/fact_service.h"

namespace sitfact {

/// Asynchronous front end for a DiscoveryEngine (of either kind) or a
/// DurableEngine: producers Publish() rows from any thread; one worker
/// thread owns the engine (every discovery engine is single-writer by
/// design) and invokes a subscriber callback for each arrival that produced
/// prominent facts. This is the shape a newsroom deployment takes —
/// scrapers push box scores as games end, the feed emits narratable facts
/// within one arrival of ingestion.
///
/// The worker drains whatever the queue holds, up to Options::max_batch
/// rows, into one AppendBatch call: a sharded engine keeps its shard
/// pipeline full under bursty producers, and a sequential one appends them
/// one by one. Reports reach the service and the subscriber through the
/// engine's report sink, under either back end: a sequential engine
/// delivers each one before it appends the next row, so a subscriber
/// reading the engine sees exactly the arrivals delivered so far whatever
/// the batch size; a sharded engine delivers once the batch has joined. A
/// producer that waits for each arrival to become visible always finds an
/// empty queue, so its batches stay at one row.
///
/// Backpressure: the queue is bounded; Publish() blocks when full (the
/// stream must not silently drop events — a missed arrival would corrupt
/// every later prominence denominator).
///
/// Lifecycle: construct -> Publish xN -> Drain()/Stop(). Stop() is
/// idempotent and runs in the destructor; Drain() blocks until the queue
/// empties without stopping the worker.
class FactFeed {
 public:
  /// Called on the worker thread for every arrival whose report contains at
  /// least one prominent fact. The report reference is valid only during
  /// the call.
  using Subscriber = std::function<void(const ArrivalReport&)>;

  struct Options {
    /// Maximum rows buffered between producers and the worker.
    size_t queue_capacity = 1024;
    /// Invoke the subscriber for every arrival, not just prominent ones.
    bool notify_all_arrivals = false;
    /// Most rows handed to the engine's AppendBatch per call. Subscribers
    /// still see one report per arrival, in order.
    size_t max_batch = 32;
    /// Optional query index: when set, the worker folds EVERY arrival into
    /// the service (regardless of notify_all_arrivals) before invoking the
    /// subscriber, making Query() safe while ingestion runs. The service
    /// must be built over the same Relation the engine writes and must
    /// outlive the feed; no other thread may call its ingest-side methods
    /// while the feed runs.
    FactService* fact_service = nullptr;
  };

  /// `engine` must outlive the feed and must not be touched by other
  /// threads while the feed runs.
  FactFeed(DiscoveryEngine* engine, Subscriber subscriber, Options options);
  FactFeed(DiscoveryEngine* engine, Subscriber subscriber)
      : FactFeed(engine, std::move(subscriber), Options()) {}

  /// Durable back end: every row is WAL-logged before discovery, and the
  /// DurableEngine's checkpoint-every-N policy
  /// (persist::DurableOptions::checkpoint_every) snapshots the engine as the
  /// stream flows. A durability failure (disk full, IO error) latches into
  /// durable_status() and stops the feed — dropping rows would corrupt
  /// every later prominence denominator, so refusing further input is the
  /// only safe reaction.
  FactFeed(persist::DurableEngine* engine, Subscriber subscriber,
           Options options);
  FactFeed(persist::DurableEngine* engine, Subscriber subscriber)
      : FactFeed(engine, std::move(subscriber), Options()) {}

  ~FactFeed();

  FactFeed(const FactFeed&) = delete;
  FactFeed& operator=(const FactFeed&) = delete;

  /// Enqueues one row; blocks while the queue is at capacity. Returns false
  /// (and does not enqueue) after Stop().
  bool Publish(Row row);

  /// Blocks until every row published so far has been processed.
  void Drain();

  /// Stops accepting rows, processes the backlog, joins the worker.
  void Stop();

  /// Rows processed by the worker so far.
  uint64_t processed() const;

  /// Arrivals that carried at least one prominent fact.
  uint64_t prominent_arrivals() const;

  /// First durability error, or Ok. Only ever non-Ok for the durable back
  /// end; once set the feed has stopped and Publish() returns false.
  Status durable_status() const;

  /// First exception thrown by the subscriber callback, or Ok. A throwing
  /// subscriber must not take down the pipeline (the engine already applied
  /// the arrival — dropping the row now would corrupt every later
  /// prominence denominator), so the worker catches, latches the first
  /// error here, and keeps both ingesting and notifying.
  Status subscriber_status() const;

  /// Snapshot of the attached FactService (Options::fact_service): the
  /// feed's concurrent query surface. Safe from any thread while ingestion
  /// runs; the snapshot lags the stream by at most the service's
  /// publish_every. CHECK-fails when no service is attached.
  FactService::Snapshot Query() const;

 private:
  void WorkerLoop();

  /// Pops up to max_batch rows (at least one) while holding no lock longer
  /// than needed; returns false when stopping with an empty backlog.
  bool PopBatch(std::vector<Row>* batch);

  /// Books one processed report and notifies the subscriber if warranted.
  void DeliverReport(const ArrivalReport& report);

  DiscoveryEngine* engine_ = nullptr;  // exactly one back end is set
  persist::DurableEngine* durable_engine_ = nullptr;
  Subscriber subscriber_;
  Options options_;
  Status durable_status_;    // guarded by mu_
  Status subscriber_status_;  // guarded by mu_

  mutable std::mutex mu_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::condition_variable drained_;
  std::queue<Row> queue_;
  bool stopping_ = false;
  uint64_t processed_ = 0;
  uint64_t prominent_arrivals_ = 0;
  bool idle_ = true;

  std::thread worker_;
};

}  // namespace sitfact

#endif  // SITFACT_SERVICE_FACT_FEED_H_
