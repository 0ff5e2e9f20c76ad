#include "exec/sharded_engine.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "core/prominence.h"

namespace sitfact {

ShardedEngine::ShardedEngine(Relation* relation, const Config& config)
    : DiscoveryEngine(relation,
                      std::make_unique<ShardedDiscoverer>(
                          relation, config.options, config.num_shards,
                          config.num_threads),
                      config),
      sharded_(static_cast<ShardedDiscoverer*>(
          &DiscoveryEngine::discoverer())) {}

void ShardedEngine::StartArrival(TupleId t, int slot) {
  // The shards of the previous arrival have joined, so the caller thread is
  // the counter's only user until the fork below.
  mutable_counter().OnArrival(relation(), t);
  sharded_->StartArrival(t, config().rank_facts ? &counter() : nullptr,
                         slot);
}

ArrivalReport ShardedEngine::DiscoverLast() {
  SITFACT_CHECK(relation().size() > 0);
  TupleId t = relation().size() - 1;
  StartArrival(t, /*slot=*/0);
  sharded_->WaitArrival();
  return MergeReport(t, /*slot=*/0);
}

std::vector<ArrivalReport> ShardedEngine::AppendBatch(
    std::span<const Row> rows) {
  std::vector<ArrivalReport> reports;
  if (rows.empty()) return reports;
  reports.reserve(rows.size());

  // Software pipeline: while the shards run arrival i+1, the caller merges
  // arrival i's outputs (slots alternate, so the buffers never collide).
  // Appends and counting happen strictly between fork/join points, so every
  // arrival sees exactly the history the sequential engine would.
  TupleId t = relation().Append(rows[0]);
  StartArrival(t, /*slot=*/0);
  for (size_t i = 0; i < rows.size(); ++i) {
    sharded_->WaitArrival();
    TupleId merged_tuple = t;
    int merged_slot = static_cast<int>(i % 2);
    if (i + 1 < rows.size()) {
      t = relation().Append(rows[i + 1]);
      StartArrival(t, static_cast<int>((i + 1) % 2));
    }
    reports.push_back(MergeReport(merged_tuple, merged_slot));
  }
  return reports;
}

ArrivalReport ShardedEngine::MergeReport(TupleId t, int slot) {
  ArrivalReport report;
  report.tuple = t;
  for (int s = 0; s < sharded_->num_shards(); ++s) {
    const ShardedDiscoverer::ShardOutput& out = sharded_->output(s, slot);
    report.facts.insert(report.facts.end(), out.facts.begin(),
                        out.facts.end());
    report.ranked.insert(report.ranked.end(), out.ranked.begin(),
                         out.ranked.end());
  }
  CanonicalizeFacts(&report.facts);
  if (config().rank_facts) {
    // Reproduce ProminenceEvaluator::RankAll's order exactly: canonical fact
    // order first, then a stable sort descending by prominence.
    std::sort(report.ranked.begin(), report.ranked.end(),
              [](const RankedFact& a, const RankedFact& b) {
                return a.fact < b.fact;
              });
    std::stable_sort(report.ranked.begin(), report.ranked.end(),
                     [](const RankedFact& a, const RankedFact& b) {
                       return a.prominence > b.prominence;
                     });
    report.prominent = SelectProminent(report.ranked, config().tau);
  }
  return report;
}

StatusOr<std::unique_ptr<DiscoveryEngine>> CreateEngine(
    Relation* relation, const std::string& algorithm, int num_shards,
    int num_threads, DiscoveryEngine::Config config,
    const std::string& file_store_dir) {
  if (num_shards > 0) {
    ShardedEngine::Config sharded;
    static_cast<DiscoveryEngine::Config&>(sharded) = config;
    sharded.num_shards = num_shards;
    sharded.num_threads = num_threads;
    return std::unique_ptr<DiscoveryEngine>(
        new ShardedEngine(relation, sharded));
  }
  auto disc_or = DiscoveryEngine::CreateDiscoverer(
      algorithm, relation, config.options, file_store_dir);
  if (!disc_or.ok()) return disc_or.status();
  config.rank_facts = config.rank_facts && disc_or.value()->store() != nullptr;
  return std::make_unique<DiscoveryEngine>(relation, std::move(disc_or).value(),
                                           config);
}

}  // namespace sitfact
