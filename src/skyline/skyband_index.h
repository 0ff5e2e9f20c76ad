#ifndef SITFACT_SKYLINE_SKYBAND_INDEX_H_
#define SITFACT_SKYLINE_SKYBAND_INDEX_H_

#include <cstdint>
#include <functional>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/types.h"
#include "lattice/constraint.h"
#include "relation/relation.h"
#include "storage/mu_store.h"

namespace sitfact {

/// Switch for the µ-side skyband shadow, read once per engine:
/// SITFACT_SKYBAND_INDEX=off (or 0) keeps an Invariant-2 engine from
/// attaching one, so it ranks from store reads; anything else, including
/// unset, leaves it on. Reports are identical either way.
bool SkybandIndexEnabledFromEnv();

/// Incremental per-(constraint, measure-subspace) skyband shadow of a µ
/// store: the paper's prominence denominator |λ_M(σ_C(R))| under
/// Invariant 2 (kMaximalSkylineConstraints) turned into in-memory reads.
/// Each non-empty µ bucket is mirrored as one *band*; bands of one
/// constraint form a *family*, exactly the Context grouping the store uses.
///
/// The index registers as the store's observer and folds every
/// OnBucketChanged into its bands, so it is coherent with the store after
/// every mutation. It attaches only to notifying stores (MemoryMuStore,
/// PagedMuStore). Under Invariant 2, λ is the deduplicated union of C's
/// ancestor bands filtered by satisfaction of C: the walk
/// ProminenceEvaluator does against the store, minus every bucket read.
/// (Under Invariant 1 a bucket already is λ, so no engine keeps an index
/// there; see DiscoveryEngine::skyband_index.)
///
/// Threading: the engine's writer thread makes every call, mutations and
/// probes alike; no engine notifies it from other threads. Every method
/// still takes the one internal mutex, and none calls out while holding it.
class SkybandIndex : public MuStore::BucketObserver {
 public:
  /// Maintenance and probe counters (monotonic except the three gauges).
  struct Stats {
    uint64_t notifications = 0;  ///< OnBucketChanged callbacks folded in
    uint64_t union_probes = 0;   ///< UnionSkylineSize answers
    uint64_t families = 0;       ///< gauge: constraints with >= 1 band
    uint64_t bands = 0;          ///< gauge: non-empty (C, M) bands
    uint64_t members = 0;        ///< gauge: Σ band sizes
  };

  SkybandIndex() = default;
  ~SkybandIndex() override { Detach(); }

  SkybandIndex(const SkybandIndex&) = delete;
  SkybandIndex& operator=(const SkybandIndex&) = delete;

  /// Registers as `store`'s observer (the store must notify) and primes the
  /// bands from ForEachBucket so attaching to an already-populated store (a
  /// restored snapshot) starts coherent.
  void Attach(MuStore* store);

  /// Unregisters from the store and drops every band.
  void Detach();

  bool attached() const;

  /// |λ_M(σ_C(R))| under Invariant 2: deduplicated union of the bands of
  /// C's ancestors-or-self, filtered by satisfaction of C — byte-for-byte
  /// the set ProminenceEvaluator computes from the store.
  uint64_t UnionSkylineSize(const Relation& r, const Constraint& c,
                            MeasureMask m) const;

  /// Visits every band (unspecified order; members in store order). `fn`
  /// must not call back into the index — the lock is held.
  void ForEachBand(
      const std::function<void(const Constraint&, MeasureMask,
                               const std::vector<TupleId>&)>& fn) const;

  Stats stats() const;
  size_t ApproxMemoryBytes() const;

  // MuStore::BucketObserver: replaces (or erases, when `bucket` is empty)
  // the band for (c, m).
  void OnBucketChanged(const Constraint& c, MeasureMask m,
                       const std::vector<TupleId>& bucket) override;

 private:
  /// One mirrored bucket. Members stay in store order, so a replace is one
  /// vector assign.
  struct Band {
    MeasureMask mask = 0;
    std::vector<TupleId> members;
  };
  /// Bands of one constraint, sorted by mask (few subspaces per constraint,
  /// same reasoning as MemoryMuStore's flat entry vector).
  using Family = std::vector<Band>;

  /// Locked helpers. `mu_` must be held.
  const Band* FindBandLocked(const Constraint& c, MeasureMask m) const;
  void ApplyLocked(const Constraint& c, MeasureMask m,
                   const std::vector<TupleId>& bucket);
  void ClearLocked();

  mutable std::mutex mu_;
  MuStore* store_ = nullptr;
  std::unordered_map<Constraint, Family, ConstraintHash> families_;
  mutable Stats stats_;
  mutable std::vector<TupleId> union_scratch_;
};

}  // namespace sitfact

#endif  // SITFACT_SKYLINE_SKYBAND_INDEX_H_
