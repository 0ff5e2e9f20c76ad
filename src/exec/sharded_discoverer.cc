#include "exec/sharded_discoverer.h"

#include <algorithm>
#include <utility>

#include "common/bits.h"
#include "common/logging.h"
#include "lattice/constraint_enumerator.h"
#include "skyline/dominance.h"
#include "skyline/dominance_batch.h"
#include "skyline/skyline_compute.h"

namespace sitfact {

ShardedDiscoverer::PrunerBoard::PrunerBoard(int num_subspaces)
    : slots_(static_cast<size_t>(num_subspaces) * kSlots),
      counts_(static_cast<size_t>(num_subspaces)) {
  for (auto& s : slots_) s.store(0, std::memory_order_relaxed);
  for (auto& c : counts_) c.store(0, std::memory_order_relaxed);
}

void ShardedDiscoverer::PrunerBoard::Reset() {
  for (size_t m = 0; m < counts_.size(); ++m) {
    int n = counts_[m].load(std::memory_order_relaxed);
    if (n == 0) continue;
    if (n > kSlots) n = kSlots;
    for (int i = 0; i < n; ++i) {
      slots_[m * kSlots + static_cast<size_t>(i)].store(
          0, std::memory_order_relaxed);
    }
    counts_[m].store(0, std::memory_order_relaxed);
  }
}

void ShardedDiscoverer::PrunerBoard::Publish(int subspace_index,
                                             DimMask agree_mask) {
  if (IsPruned(subspace_index, agree_mask)) return;  // already covered
  int slot = counts_[static_cast<size_t>(subspace_index)].fetch_add(
      1, std::memory_order_relaxed);
  if (slot >= kSlots) return;  // board full: weaker pruning, same results
  slots_[static_cast<size_t>(subspace_index) * kSlots +
         static_cast<size_t>(slot)]
      .store(agree_mask + 1, std::memory_order_release);
}

bool ShardedDiscoverer::PrunerBoard::IsPruned(int subspace_index,
                                              DimMask mask) const {
  int n = counts_[static_cast<size_t>(subspace_index)].load(
      std::memory_order_acquire);
  if (n > kSlots) n = kSlots;
  for (int i = 0; i < n; ++i) {
    uint32_t v = slots_[static_cast<size_t>(subspace_index) * kSlots +
                        static_cast<size_t>(i)]
                     .load(std::memory_order_acquire);
    // v == 0: publication in flight; treating it as absent is safe.
    if (v != 0 && IsSubsetOf(mask, v - 1)) return true;
  }
  return false;
}

ShardedDiscoverer::ShardedDiscoverer(const Relation* relation,
                                     const DiscoveryOptions& options,
                                     int num_shards, int num_threads)
    : Discoverer(relation, options), board_(universe_.size()) {
  SITFACT_CHECK(num_shards >= 1);
  int nd = relation->schema().num_dimensions();
  std::vector<DimMask> descending = MasksByDescendingBound(nd, max_bound_);
  // More shards than lattice nodes would leave empty shards, and the uint8_t
  // segment routing table caps at 256 segments; clamp rather than reject
  // (beyond a few dozen shards the extra partitions buy nothing anyway).
  if (static_cast<size_t>(num_shards) > descending.size()) {
    num_shards = static_cast<int>(descending.size());
  }
  if (num_shards > kMaxShards) num_shards = kMaxShards;

  shards_.reserve(static_cast<size_t>(num_shards));
  for (int s = 0; s < num_shards; ++s) {
    shards_.push_back(std::make_unique<Shard>());
  }
  std::vector<uint8_t> segment_of_mask(static_cast<size_t>(FullMask(nd)) + 1,
                                       0);
  // Round-robin in descending-popcount order: each shard gets an even mix of
  // lattice levels, which is what balances per-arrival work.
  for (size_t i = 0; i < descending.size(); ++i) {
    int s = static_cast<int>(i) % num_shards;
    shards_[s]->masks.push_back(descending[i]);
    segment_of_mask[descending[i]] = static_cast<uint8_t>(s);
  }
  store_ = std::make_unique<SegmentedMuStore>(
      num_shards, std::move(segment_of_mask), options.storage);
  if (num_threads <= 0) num_threads = num_shards;
  pool_ = std::make_unique<ThreadPool>(num_threads);
}

ShardedDiscoverer::~ShardedDiscoverer() {
  if (arrival_pending_) WaitArrival();
}

void ShardedDiscoverer::Discover(TupleId t, std::vector<SkylineFact>* facts) {
  StartArrival(t, /*counter=*/nullptr, /*slot=*/0);
  WaitArrival();
  for (int s = 0; s < num_shards(); ++s) {
    const ShardOutput& out = output(s, 0);
    facts->insert(facts->end(), out.facts.begin(), out.facts.end());
  }
}

void ShardedDiscoverer::StartArrival(TupleId t, const ContextCounter* counter,
                                     int slot) {
  SITFACT_CHECK_MSG(!arrival_pending_, "StartArrival without WaitArrival");
  SITFACT_DCHECK(t + 1 == relation_->size());
  ++stats_.arrivals;
  board_.Reset();
  pending_tuple_ = t;
  arrival_pending_ = true;
  pool_->Launch(num_shards(), [this, t, counter, slot](int shard) {
    RunShardArrival(shard, t, counter, slot);
  });
}

void ShardedDiscoverer::WaitArrival() {
  if (!arrival_pending_) return;
  pool_->Wait();
  arrival_pending_ = false;
  FoldShardStats();
}

void ShardedDiscoverer::FoldShardStats() {
  uint64_t comparisons = 0;
  uint64_t traversed = 0;
  for (const auto& shard : shards_) {
    comparisons += shard->stats.comparisons;
    traversed += shard->stats.constraints_traversed;
  }
  stats_.comparisons = comparisons;
  stats_.constraints_traversed = traversed;
}

void ShardedDiscoverer::RunShardArrival(int shard, TupleId t,
                                        const ContextCounter* counter,
                                        int slot) {
  const Relation& r = *relation_;
  Shard& sh = *shards_[shard];
  MuStore* segment = store_->segment(shard);
  ShardOutput& out = sh.out[slot];
  out.facts.clear();
  out.ranked.clear();

  const std::vector<MeasureMask>& subspaces = universe_.masks();
  for (DimMask mask : sh.masks) {
    Constraint c = Constraint::ForTuple(r, t, mask);
    MuStore::Context* ctx = segment->Find(c);
    for (size_t mi = 0; mi < subspaces.size(); ++mi) {
      MeasureMask m = subspaces[mi];
      int m_idx = static_cast<int>(mi);
      if (board_.IsPruned(m_idx, mask)) continue;
      ++sh.stats.constraints_traversed;

      BucketCursor cursor;
      cursor.Open(ctx, m, &sh.scratch);
      std::vector<TupleId>& bucket = cursor.contents();
      bool dominated = false;
      bool modified = false;
      size_t keep = 0;
      BlockedPartitionScan scan(r, t, bucket.data(), bucket.size(), m,
                                /*unmasked=*/false);
      for (size_t i = 0; i < bucket.size(); ++i) {
        TupleId other = bucket[i];
        ++sh.stats.comparisons;
        const Relation::MeasurePartition& p = scan.at(i);
        if (DominatedInSubspace(p, m)) {
          // t loses at C — and at every constraint where `other` also
          // appears, i.e. every subset of the agreement mask (Prop. 3).
          // Publish that so all shards skip the doomed ancestors. Nothing
          // can have been dropped before a dominator (skyline members
          // never dominate each other), so the bucket is untouched.
          dominated = true;
          board_.Publish(m_idx, r.AgreeMask(t, other));
          break;
        }
        if (DominatesInSubspace(p, m)) {
          modified = true;  // dethroned by the arrival
        } else {
          bucket[keep++] = other;
        }
      }

      if (!dominated) {
        bucket.resize(keep);
        out.facts.push_back(SkylineFact{c, m});
        bucket.push_back(t);
        modified = true;
      } else {
        SITFACT_DCHECK(!modified);
      }
      if (modified) {
        if (ctx == nullptr) ctx = segment->GetOrCreate(c);
        cursor.Commit(ctx);
      }
    }
  }

  if (counter != nullptr) {
    out.ranked.reserve(out.facts.size());
    for (const SkylineFact& f : out.facts) {
      MuStore::Context* ctx = segment->Find(f.constraint);
      SITFACT_DCHECK(ctx != nullptr);
      RankedFact rf;
      rf.fact = f;
      rf.context_size = counter->Count(f.constraint);
      rf.skyline_size = ctx->Size(f.subspace);
      rf.prominence = rf.skyline_size == 0
                          ? 0.0
                          : static_cast<double>(rf.context_size) /
                                static_cast<double>(rf.skyline_size);
      out.ranked.push_back(rf);
    }
  }
}

Status ShardedDiscoverer::Remove(TupleId t) {
  const Relation& r = *relation_;
  if (t >= r.size()) {
    return Status::InvalidArgument("no such tuple");
  }
  if (!r.IsDeleted(t)) {
    return Status::InvalidArgument(
        "tuple must be tombstoned (Relation::MarkDeleted) before Remove");
  }
  SITFACT_CHECK_MSG(!arrival_pending_, "Remove during a pending arrival");
  pool_->ParallelFor(num_shards(),
                     [this, t](int shard) { RepairShardAfterRemoval(shard, t); });
  return Status::Ok();
}

void ShardedDiscoverer::RepairShardAfterRemoval(int shard, TupleId t) {
  const Relation& r = *relation_;
  const Shard& sh = *shards_[shard];
  MuStore* segment = store_->segment(shard);
  // Invariant 1 repair (see LatticeDiscovererBase::Remove): only buckets
  // that stored t can change, and they are recomputed from the live
  // relation.
  for (DimMask mask : sh.masks) {
    Constraint c = Constraint::ForTuple(r, t, mask);
    MuStore::Context* ctx = segment->Find(c);
    if (ctx == nullptr) continue;
    for (MeasureMask m : universe_.masks()) {
      if (ctx->Empty(m) || !ctx->Contains(m, t)) continue;
      ctx->Write(m, ComputeContextualSkyline(r, c, m, r.size()));
    }
  }
}

size_t ShardedDiscoverer::ApproxMemoryBytes() const {
  size_t total = store_->ApproxMemoryBytes();
  for (const auto& shard : shards_) {
    total += shard->masks.size() * sizeof(DimMask);
  }
  return total;
}

}  // namespace sitfact
