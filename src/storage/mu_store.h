#ifndef SITFACT_STORAGE_MU_STORE_H_
#define SITFACT_STORAGE_MU_STORE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "lattice/constraint.h"

namespace sitfact {

/// How an algorithm populates µ buckets; prominence evaluation needs to know
/// which convention a store follows (Invariant 1 vs Invariant 2).
enum class StoragePolicy {
  /// Invariant 1 (BottomUp family): µ_{C,M} holds the full contextual
  /// skyline λ_M(σ_C(R)).
  kAllSkylineConstraints,
  /// Invariant 2 (TopDown family): µ_{C,M} holds a tuple iff C is one of its
  /// maximal skyline constraints MSC^t_M.
  kMaximalSkylineConstraints,
};

/// Aggregate store counters, the raw material of Figs. 10 and 12/13.
struct MuStoreStats {
  uint64_t stored_tuples = 0;   // current Σ bucket sizes (Fig. 10b)
  uint64_t bucket_reads = 0;    // bucket fetches
  uint64_t bucket_writes = 0;   // bucket overwrites
  uint64_t file_reads = 0;      // file loads (file store only)
  uint64_t file_writes = 0;     // file stores (file store only)
};

/// Storage of contextual skylines: one bucket of TupleIds per
/// (constraint, measure-subspace) pair, addressed through a per-constraint
/// Context handle so a discovery pass resolves each constraint's hash once
/// and then touches many subspaces cheaply.
///
/// Buckets are read and written as whole vectors. That matches the paper's
/// file-based implementation (each non-empty µ_{C,M} is one small binary
/// file, slurped on visit and overwritten afterwards) and keeps the
/// in-memory and on-disk stores behaviourally identical.
class MuStore {
 public:
  class Context {
   public:
    virtual ~Context() = default;

    /// Copies the bucket for subspace `m` into *out (cleared first). For the
    /// file store this loads the bucket's file if non-empty.
    virtual void Read(MeasureMask m, std::vector<TupleId>* out) = 0;

    /// Replaces the bucket for subspace `m`. Writing an empty vector removes
    /// the bucket (and deletes its file in the file store).
    virtual void Write(MeasureMask m, const std::vector<TupleId>& contents) = 0;

    /// O(1) size of the bucket from the in-memory index; no IO.
    virtual uint32_t Size(MeasureMask m) const = 0;

    bool Empty(MeasureMask m) const { return Size(m) == 0; }

    /// Membership test; may cost a bucket read in the file store.
    virtual bool Contains(MeasureMask m, TupleId t) = 0;

    /// Appends `t` to the bucket (read-modify-write).
    virtual void Insert(MeasureMask m, TupleId t) = 0;

    /// Removes `t` from the bucket if present; returns whether removed.
    virtual bool Erase(MeasureMask m, TupleId t) = 0;

    /// In-place access for memory-resident stores: a stable pointer to the
    /// live bucket, or nullptr when unsupported (file store) or when the
    /// bucket is absent and !create. A caller that mutates the returned
    /// vector must call CommitDirect exactly once with the size the bucket
    /// had when Direct returned, so stats stay accurate and emptied buckets
    /// are reclaimed. The pointer is valid until the next operation on this
    /// context.
    virtual std::vector<TupleId>* Direct(MeasureMask m, bool create) {
      (void)m;
      (void)create;
      return nullptr;
    }

    /// True when Direct() is implemented, in which case a null Direct(m,
    /// /*create=*/false) means "bucket absent" — letting the cursor skip a
    /// second lookup on the (very common) empty-bucket visit.
    virtual bool SupportsDirect() const { return false; }
    virtual void CommitDirect(MeasureMask m, size_t old_size) {
      (void)m;
      (void)old_size;
    }
  };

  /// Observer of bucket mutations: the hook a per-subspace skyband or
  /// spatial index registers to shadow µ buckets without the store knowing
  /// its type (the SubspaceIndex layer is the intended consumer). Invoked
  /// after each mutation with the bucket's new contents; an emptied or
  /// removed bucket is reported with an empty vector. The memory store
  /// emits on every mutating Context operation (Write, Insert, Erase,
  /// CommitDirect); the file-backed stores do not emit — an index shadowing
  /// a persistent store must rebuild from ForEachBucket after restore.
  class BucketObserver {
   public:
    virtual ~BucketObserver() = default;
    virtual void OnBucketChanged(const Constraint& c, MeasureMask m,
                                 const std::vector<TupleId>& bucket) = 0;
  };

  virtual ~MuStore() = default;

  /// Registers `observer` (or nullptr to detach). At most one; the default
  /// is none, and the hot path pays a single branch when unset. Virtual so
  /// composite stores (SegmentedMuStore) can fan the registration out to
  /// every segment — a sharded engine then feeds an observer the same
  /// mutation stream a sequential engine would.
  virtual void set_bucket_observer(BucketObserver* observer) {
    bucket_observer_ = observer;
  }
  BucketObserver* bucket_observer() const { return bucket_observer_; }

  /// True when this store actually emits OnBucketChanged for every mutation
  /// (the in-memory stores). False for the file-backed stores: an observer
  /// attached to one sees nothing and must rebuild from ForEachBucket — a
  /// shadowing index checks this to know whether it can stay live.
  virtual bool NotifiesObservers() const { return false; }

  /// Stable handle for constraint `c`, creating an (empty) entry if absent.
  virtual Context* GetOrCreate(const Constraint& c) = 0;

  /// Stable handle or nullptr when the constraint has no entry.
  virtual Context* Find(const Constraint& c) = 0;

  /// Visits every non-empty (constraint, subspace, bucket) triple, in
  /// unspecified order. Bucket contents are materialized, so the file store
  /// pays one file read per bucket; intended for snapshotting and debugging,
  /// not the discovery hot path.
  virtual void ForEachBucket(
      const std::function<void(const Constraint&, MeasureMask,
                               const std::vector<TupleId>&)>& fn) = 0;

  /// Aggregate counters. Virtual so composite stores (SegmentedMuStore) can
  /// fold per-segment counters into one view; Discoverer::StoredTupleCount()
  /// and the bench harness read through this.
  virtual const MuStoreStats& stats() const { return stats_; }

  /// Approximate bytes held by the store's in-memory structures (Fig. 10a).
  virtual size_t ApproxMemoryBytes() const = 0;

  /// --- Page-lifetime and dirty-tracking hooks ------------------------------
  /// (docs/architecture.md "Paged µ-storage"; docs/persistence.md "Delta
  /// checkpoints"). Memory-resident stores implement these trivially; the
  /// paged store maps them onto its page cache.

  /// True when the store records which buckets changed since the last
  /// ClearDirty() — the raw material of page-granular delta checkpoints.
  /// The in-memory and paged stores support it; the file store does not
  /// (persist/ falls back to full snapshots over it).
  virtual bool SupportsDirtyTracking() const { return false; }

  /// Enables dirty tracking (default off; when off the mutation hot path
  /// pays one branch). Disabling also clears the dirty set.
  virtual void set_dirty_tracking(bool enabled) {
    dirty_tracking_ = enabled;
    if (!enabled) dirty_.clear();
  }
  bool dirty_tracking() const { return dirty_tracking_; }

  /// Visits every (constraint, subspace) pair whose bucket mutated since the
  /// last ClearDirty(), in unspecified order. The *current* contents are the
  /// caller's to read back (Find + Read); a visited pair whose bucket is now
  /// empty or absent means "removed".
  virtual void ForEachDirtyBucket(
      const std::function<void(const Constraint&, MeasureMask)>& fn) const;

  virtual void ClearDirty() { dirty_.clear(); }
  virtual uint64_t DirtyBucketCount() const;

  /// Writes any buffered state through to the backing medium (the paged
  /// store's dirty-page write-back). Trivially Ok for memory stores.
  virtual Status Flush() { return Status::Ok(); }

  /// Persistence hook (docs/persistence.md): writes the bucket dump — a u64
  /// bucket count, then per bucket the constraint, subspace mask and tuple
  /// list. Costs two ForEachBucket passes (the file store pays two reads per
  /// bucket).
  void SerializeBuckets(BinaryWriter* w);

  /// Restores a dump written by SerializeBuckets into this (empty) store.
  /// Tuple ids are validated against `max_tuple` (exclusive). On error the
  /// store may hold a partial prefix; discard it.
  Status DeserializeBuckets(BinaryReader* r, int num_dims, TupleId max_tuple);

 protected:
  /// Subclasses call this at every bucket mutation point — the same places
  /// they notify the BucketObserver. No-op unless tracking is enabled.
  void MarkDirtyBucket(const Constraint& c, MeasureMask m);

  MuStoreStats stats_;
  BucketObserver* bucket_observer_ = nullptr;
  bool dirty_tracking_ = false;
  /// Dirty set: constraint -> mutated subspace masks (linear-dedup vector;
  /// a context touches at most 2^m̂ subspaces, almost always a handful).
  std::unordered_map<Constraint, std::vector<MeasureMask>, ConstraintHash>
      dirty_;
};

/// Decodes a bucket dump, writing each bucket into `store` — or, when
/// `store` is null, validating and discarding it (the snapshot loader's
/// replay-rebuild path still has to consume the section so the stream stays
/// aligned for the trailing checksum).
Status ReadMuBucketDump(BinaryReader* r, int num_dims, TupleId max_tuple,
                        MuStore* store);

/// One bucket visit: prefers the store's in-place path (memory store) and
/// falls back to a Read-into-scratch / Write-back cycle (file store).
/// Usage: Open, mutate contents(), then Commit(ctx) iff modified. Shared by
/// every discoverer that follows the bucket update protocol (the lattice
/// family and the sharded engine).
class BucketCursor {
 public:
  /// `ctx` may be null (unknown constraint); `scratch` must outlive the
  /// cursor and is only used on the fallback path.
  void Open(MuStore::Context* ctx, MeasureMask m,
            std::vector<TupleId>* scratch) {
    m_ = m;
    scratch_ = scratch;
    direct_ = ctx != nullptr ? ctx->Direct(m, /*create=*/false) : nullptr;
    if (direct_ != nullptr) {
      old_size_ = direct_->size();
    } else {
      scratch_->clear();
      // A null Direct from a direct-capable store already proved the
      // bucket absent; only the fallback (file) path needs the probe.
      if (ctx != nullptr && !ctx->SupportsDirect() && !ctx->Empty(m)) {
        ctx->Read(m, scratch_);
      }
    }
  }

  std::vector<TupleId>& contents() {
    return direct_ != nullptr ? *direct_ : *scratch_;
  }

  /// Persists mutations. `ctx` must be non-null by now (create it before
  /// committing an insertion into a previously unknown constraint).
  void Commit(MuStore::Context* ctx) {
    if (direct_ != nullptr) {
      ctx->CommitDirect(m_, old_size_);
    } else {
      ctx->Write(m_, *scratch_);
    }
  }

 private:
  MeasureMask m_ = 0;
  std::vector<TupleId>* direct_ = nullptr;
  std::vector<TupleId>* scratch_ = nullptr;
  size_t old_size_ = 0;
};

}  // namespace sitfact

#endif  // SITFACT_STORAGE_MU_STORE_H_
