#ifndef SITFACT_EXEC_SHARDED_ENGINE_H_
#define SITFACT_EXEC_SHARDED_ENGINE_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/engine.h"
#include "exec/sharded_discoverer.h"
#include "relation/relation.h"

namespace sitfact {

/// The DiscoveryEngine whose per-arrival discovery and prominence ranking
/// run shard-parallel over a lattice partition. The shard outputs are
/// merged into an ArrivalReport that is tuple-for-tuple identical to the
/// sequential engine's (facts, prominence scores, prominent selection — see
/// docs/parallelism.md for the argument and tests/sharded_equivalence_test.cc
/// for the proof-by-differential).
///
/// Everything but DiscoverLast and AppendBatch is the base engine's:
/// removal, update, the one context counter (the shards read it; it is
/// written only on the caller thread, between arrivals), the skyband shadow
/// over the segmented store, and SerializeState under the algorithm name
/// "Sharded". Like every engine here it is single-writer; all parallelism is
/// internal.
class ShardedEngine : public DiscoveryEngine {
 public:
  struct Config : DiscoveryEngine::Config {
    /// K: lattice partitions, each with a private µ-store segment. Clamped
    /// to the truncated lattice size and ShardedDiscoverer::kMaxShards.
    int num_shards = 4;
    /// Worker threads; 0 means num_shards. More shards than threads is fine
    /// (threads claim shards dynamically); the reverse leaves threads idle.
    int num_threads = 0;
  };

  /// `relation` must outlive the engine.
  ShardedEngine(Relation* relation, const Config& config);

  /// One fork/join over the shards, then the report merge.
  ArrivalReport DiscoverLast() override;

  /// Pipelines each arrival's append+discovery+ranking with the previous
  /// arrival's report merge.
  std::vector<ArrivalReport> AppendBatch(std::span<const Row> rows) override;

  ShardedDiscoverer& discoverer() { return *sharded_; }

 private:
  /// Builds the canonical ArrivalReport for tuple `t` from the shard
  /// outputs parked in `slot`.
  ArrivalReport MergeReport(TupleId t, int slot);

  /// Counts `t` into the context counter, then fans its shard tasks out.
  void StartArrival(TupleId t, int slot);

  ShardedDiscoverer* sharded_;  // owned by the base
};

/// Builds the engine a deployment names: a ShardedEngine with `num_shards`
/// partitions over `num_threads` workers when num_shards > 0 (`algorithm` is
/// then ignored — the sharded engine is its own algorithm), otherwise a
/// sequential DiscoveryEngine over `algorithm`, one of
/// DiscoveryEngine::CreateDiscoverer's names. Ranking is switched off for
/// algorithms that keep no µ store.
StatusOr<std::unique_ptr<DiscoveryEngine>> CreateEngine(
    Relation* relation, const std::string& algorithm, int num_shards,
    int num_threads, DiscoveryEngine::Config config,
    const std::string& file_store_dir = "");

}  // namespace sitfact

#endif  // SITFACT_EXEC_SHARDED_ENGINE_H_
