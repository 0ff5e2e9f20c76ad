#include "service/fact_feed.h"

#include <exception>
#include <span>
#include <string>
#include <utility>

#include "common/logging.h"

namespace sitfact {

FactFeed::FactFeed(DiscoveryEngine* engine, Subscriber subscriber,
                   Options options)
    : engine_(engine),
      subscriber_(std::move(subscriber)),
      options_(options) {
  SITFACT_CHECK(engine != nullptr);
  SITFACT_CHECK(options_.queue_capacity > 0);
  SITFACT_CHECK(options_.max_batch > 0);
  worker_ = std::thread([this] { WorkerLoop(); });
}

FactFeed::FactFeed(persist::DurableEngine* engine, Subscriber subscriber,
                   Options options)
    : durable_engine_(engine),
      subscriber_(std::move(subscriber)),
      options_(options) {
  SITFACT_CHECK(engine != nullptr);
  SITFACT_CHECK(options_.queue_capacity > 0);
  SITFACT_CHECK(options_.max_batch > 0);
  worker_ = std::thread([this] { WorkerLoop(); });
}

FactFeed::~FactFeed() { Stop(); }

bool FactFeed::Publish(Row row) {
  std::unique_lock<std::mutex> lock(mu_);
  not_full_.wait(lock, [this] {
    return stopping_ || queue_.size() < options_.queue_capacity;
  });
  if (stopping_) return false;
  queue_.push(std::move(row));
  not_empty_.notify_one();
  return true;
}

void FactFeed::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  drained_.wait(lock, [this] { return queue_.empty() && idle_; });
}

void FactFeed::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      // Already stopping; fall through to join if another thread raced us.
    }
    stopping_ = true;
    not_empty_.notify_all();
    not_full_.notify_all();
  }
  if (worker_.joinable()) worker_.join();
}

uint64_t FactFeed::processed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return processed_;
}

uint64_t FactFeed::prominent_arrivals() const {
  std::lock_guard<std::mutex> lock(mu_);
  return prominent_arrivals_;
}

Status FactFeed::durable_status() const {
  std::lock_guard<std::mutex> lock(mu_);
  return durable_status_;
}

Status FactFeed::subscriber_status() const {
  std::lock_guard<std::mutex> lock(mu_);
  return subscriber_status_;
}

FactService::Snapshot FactFeed::Query() const {
  SITFACT_CHECK_MSG(options_.fact_service != nullptr,
                    "FactFeed::Query() needs Options::fact_service");
  return options_.fact_service->Acquire();
}

bool FactFeed::PopBatch(std::vector<Row>* batch) {
  batch->clear();
  std::unique_lock<std::mutex> lock(mu_);
  idle_ = true;
  drained_.notify_all();
  not_empty_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
  if (queue_.empty()) return false;  // stopping with an empty backlog
  while (!queue_.empty() && batch->size() < options_.max_batch) {
    batch->push_back(std::move(queue_.front()));
    queue_.pop();
  }
  idle_ = false;
  not_full_.notify_all();
  return true;
}

void FactFeed::DeliverReport(const ArrivalReport& report) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++processed_;
    if (!report.prominent.empty()) ++prominent_arrivals_;
  }
  // Index maintenance happens for every arrival — the service's arrival
  // windows must stay dense — and before the subscriber, so a subscriber
  // that queries sees its own arrival.
  if (options_.fact_service != nullptr) {
    options_.fact_service->OnArrival(report);
  }
  if (subscriber_ &&
      (options_.notify_all_arrivals || !report.prominent.empty())) {
    try {
      subscriber_(report);
    } catch (const std::exception& e) {
      std::lock_guard<std::mutex> lock(mu_);
      if (subscriber_status_.ok()) {
        subscriber_status_ = Status::InvalidArgument(
            std::string("subscriber threw: ") + e.what());
      }
    } catch (...) {
      std::lock_guard<std::mutex> lock(mu_);
      if (subscriber_status_.ok()) {
        subscriber_status_ =
            Status::InvalidArgument("subscriber threw a non-std exception");
      }
    }
  }
}

void FactFeed::WorkerLoop() {
  std::vector<Row> batch;
  // Through the engine's sink, so a sequential engine delivers each report
  // before it appends the next row of the batch.
  const DiscoveryEngine::ReportSink sink = [this](ArrivalReport&& report) {
    DeliverReport(report);
  };
  while (PopBatch(&batch)) {
    // The engine runs outside the lock: discovery dominates the cost and
    // producers only need the queue.
    const std::span<const Row> rows(batch);
    if (durable_engine_ == nullptr) {
      engine_->AppendBatch(rows, sink);
      continue;
    }
    // Rows that became durable have had their reports delivered even when
    // the batch died partway — the producer will resume past them, so these
    // notifications have no second chance.
    const Status status = durable_engine_->AppendBatch(rows, sink);
    if (!status.ok()) {
      // Rows the store could not make durable must not be silently
      // swallowed: latch the error and shut the intake. The backlog is
      // dropped (it was never durable either); durable_status() tells the
      // producer where its stream stands.
      std::lock_guard<std::mutex> lock(mu_);
      if (durable_status_.ok()) durable_status_ = status;
      stopping_ = true;
      std::queue<Row>().swap(queue_);
      idle_ = true;
      not_empty_.notify_all();
      not_full_.notify_all();
      drained_.notify_all();
      return;
    }
  }
}

}  // namespace sitfact
