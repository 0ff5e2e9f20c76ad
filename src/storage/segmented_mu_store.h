#ifndef SITFACT_STORAGE_SEGMENTED_MU_STORE_H_
#define SITFACT_STORAGE_SEGMENTED_MU_STORE_H_

#include <memory>
#include <vector>

#include "storage/mu_store.h"
#include "storage/storage_options.h"

namespace sitfact {

/// A µ store split into independent segments, routed by the constraint's
/// bound-attribute mask. The ShardedDiscoverer assigns each lattice mask to
/// exactly one shard and hands shard s exclusive write ownership of segment
/// s, so shard-parallel discovery touches disjoint segments without locks.
///
/// Segments are built from a StorageConfig: in-memory by default, or paged
/// (each segment gets its own PageCache with an equal slice of the cache
/// budget and a private spill file — no cross-shard synchronization in the
/// paging layer either).
///
/// Thread-safety contract: concurrent calls are safe iff no two threads
/// touch constraints routed to the same segment, and the whole-store views
/// (stats(), ForEachBucket, ApproxMemoryBytes, dirty iteration) run only
/// while no segment is being mutated (i.e. between merge barriers).
class SegmentedMuStore : public MuStore {
 public:
  /// `segment_of_mask` maps every DimMask (dense, size 2^d) to a segment in
  /// [0, num_segments). Masks never used by the owner may map anywhere.
  SegmentedMuStore(int num_segments, std::vector<uint8_t> segment_of_mask,
                   const StorageConfig& storage = {});

  Context* GetOrCreate(const Constraint& c) override;
  Context* Find(const Constraint& c) override;

  void ForEachBucket(
      const std::function<void(const Constraint&, MeasureMask,
                               const std::vector<TupleId>&)>& fn) override;

  /// Sums the per-segment counters into one MuStoreStats. Without this
  /// override the base stats_ would stay zero forever and
  /// Discoverer::StoredTupleCount() / the bench harness would under-report.
  const MuStoreStats& stats() const override;

  /// Forwards the registration to every segment: mutations go straight to
  /// the per-shard stores, so an observer registered only on the composite
  /// would never fire. The observer must be thread-safe — shards mutate
  /// their segments concurrently.
  void set_bucket_observer(BucketObserver* observer) override;

  /// Memory and paged segments both notify on every mutation.
  bool NotifiesObservers() const override {
    return segments_.front()->NotifiesObservers();
  }

  /// Dirty tracking and Flush fan out to the segments; each segment keeps
  /// its own dirty set, so shard threads never contend on shared tracking
  /// state.
  bool SupportsDirtyTracking() const override {
    return segments_.front()->SupportsDirtyTracking();
  }
  void set_dirty_tracking(bool enabled) override;
  void ForEachDirtyBucket(
      const std::function<void(const Constraint&, MeasureMask)>& fn)
      const override;
  void ClearDirty() override;
  uint64_t DirtyBucketCount() const override;
  Status Flush() override;

  size_t ApproxMemoryBytes() const override;

  int num_segments() const { return static_cast<int>(segments_.size()); }
  int SegmentOf(DimMask mask) const { return segment_of_mask_[mask]; }

  /// Direct segment access for the owning shard's hot path.
  MuStore* segment(int i) { return segments_[i].get(); }
  const MuStore* segment(int i) const { return segments_[i].get(); }

 private:
  std::vector<std::unique_ptr<MuStore>> segments_;
  std::vector<uint8_t> segment_of_mask_;
  mutable MuStoreStats aggregated_;
};

}  // namespace sitfact

#endif  // SITFACT_STORAGE_SEGMENTED_MU_STORE_H_
