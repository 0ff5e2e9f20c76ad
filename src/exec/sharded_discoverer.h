#ifndef SITFACT_EXEC_SHARDED_DISCOVERER_H_
#define SITFACT_EXEC_SHARDED_DISCOVERER_H_

#include <atomic>
#include <memory>
#include <vector>

#include "core/discoverer.h"
#include "core/fact.h"
#include "exec/thread_pool.h"
#include "storage/context_counter.h"
#include "storage/segmented_mu_store.h"

namespace sitfact {

/// Shard-parallel incremental discovery (the ShardedEngine's core).
///
/// The truncated lattice C^t is partitioned into K shards by DimMask
/// (round-robin over the bottom-up visit order, so every shard gets a mix of
/// specific and general constraints). Each shard owns one segment of a
/// SegmentedMuStore, and a per-arrival task evaluates the new tuple against
/// every owned (C, M) bucket under Invariant 1 — exactly BottomUp's
/// per-bucket update rule, which depends only on that bucket's contents, so
/// any partition of the masks yields the sequential engine's facts, buckets,
/// and prominence denominators. Ranking reads the engine's one context
/// counter, which no shard writes.
///
/// Constraint pruning (Prop. 3) crosses shards through a lock-free pruner
/// board: a shard that finds a dominator publishes the agreement mask, and
/// every shard skips constraints subsumed by a published pruner. Pruning
/// only ever skips work whose outcome is provably "no change, no fact"
/// (a dominated tuple neither enters a bucket nor evicts a skyline member),
/// so results are deterministic even though the set of visits — and hence
/// DiscoveryStats.comparisons — depends on thread timing. Only
/// stats().arrivals is timing-independent.
///
/// Threading contract: one external writer at a time (like every engine in
/// this codebase); all parallelism is internal and joins before any call
/// returns, except for the StartArrival/WaitArrival pair the ShardedEngine
/// uses to overlap report-merging with the next arrival.
class ShardedDiscoverer : public Discoverer {
 public:
  /// Upper bound on K (the segment routing table stores uint8_t indices);
  /// requests beyond it — or beyond the truncated lattice size — are
  /// clamped, never rejected.
  static constexpr int kMaxShards = 255;
  /// Per-arrival outputs of one shard. Double-buffered so the engine can
  /// merge arrival i while the shards run arrival i+1.
  struct ShardOutput {
    std::vector<SkylineFact> facts;
    std::vector<RankedFact> ranked;  // filled only when rank was requested
  };

  /// `num_threads <= 0` defaults to `num_shards`.
  ShardedDiscoverer(const Relation* relation, const DiscoveryOptions& options,
                    int num_shards, int num_threads);
  ~ShardedDiscoverer() override;

  std::string_view name() const override { return "Sharded"; }

  /// Synchronous Discoverer entry point: fan out, join, concatenate.
  void Discover(TupleId t, std::vector<SkylineFact>* facts) override;

  /// Asynchronous entry points for the pipelined engine. StartArrival fans
  /// the shard tasks out into `slot` (0 or 1) and returns; WaitArrival joins
  /// them (helping with unclaimed shards) and folds the work counters into
  /// stats(). Outputs of `slot` are stable from WaitArrival until the next
  /// StartArrival with the same slot. A non-null `counter` ranks every fact
  /// against it; it must already count `t` and stay unwritten until
  /// WaitArrival returns. Null means do not rank.
  void StartArrival(TupleId t, const ContextCounter* counter, int slot);
  void WaitArrival();
  const ShardOutput& output(int shard, int slot) const {
    return shards_[shard]->out[slot];
  }

  bool SupportsRemoval() const override { return true; }
  Status Remove(TupleId t) override;

  const MuStore* store() const override { return store_.get(); }
  MuStore* mutable_store() override { return store_.get(); }
  StoragePolicy storage_policy() const override {
    return StoragePolicy::kAllSkylineConstraints;
  }

  size_t ApproxMemoryBytes() const override;

  int num_shards() const { return static_cast<int>(shards_.size()); }
  int num_threads() const { return pool_->threads(); }

 private:
  /// Lock-free, append-only prune publications for the current arrival, one
  /// slot array per measure subspace. Overflow drops publications (less
  /// pruning, never wrong results).
  class PrunerBoard {
   public:
    explicit PrunerBoard(int num_subspaces);
    /// Caller-thread only, between arrivals.
    void Reset();
    void Publish(int subspace_index, DimMask agree_mask);
    bool IsPruned(int subspace_index, DimMask mask) const;

   private:
    static constexpr int kSlots = 24;
    // Slot values are agree_mask + 1; 0 means "not yet published".
    std::vector<std::atomic<uint32_t>> slots_;
    std::vector<std::atomic<int>> counts_;
  };

  struct Shard {
    std::vector<DimMask> masks;  // owned masks, descending popcount
    DiscoveryStats stats;        // cumulative, owner-thread written
    ShardOutput out[2];
    std::vector<TupleId> scratch;  // bucket read buffer
  };

  void RunShardArrival(int shard, TupleId t, const ContextCounter* counter,
                       int slot);
  void RepairShardAfterRemoval(int shard, TupleId t);

  /// Sums per-shard work counters into the base-class stats_ (arrivals are
  /// counted once, in StartArrival).
  void FoldShardStats();

  std::unique_ptr<SegmentedMuStore> store_;
  std::unique_ptr<ThreadPool> pool_;
  std::vector<std::unique_ptr<Shard>> shards_;
  PrunerBoard board_;
  TupleId pending_tuple_ = 0;
  bool arrival_pending_ = false;
};

}  // namespace sitfact

#endif  // SITFACT_EXEC_SHARDED_DISCOVERER_H_
