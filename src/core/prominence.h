#ifndef SITFACT_CORE_PROMINENCE_H_
#define SITFACT_CORE_PROMINENCE_H_

#include <vector>

#include "core/fact.h"
#include "relation/relation.h"
#include "skyline/skyband_index.h"
#include "storage/context_counter.h"
#include "storage/mu_store.h"

namespace sitfact {

/// Prominence of a fact (Sec. VII): |σ_C(R)| / |λ_M(σ_C(R))| — how rare it
/// is to be undominated in this context. Context cardinalities come from the
/// ContextCounter; skyline cardinalities are read from a µ store under
/// either storage policy:
///   * Invariant 1 stores make it a bucket-size lookup;
///   * Invariant 2 stores require unioning the buckets of C's ancestors
///     (tuples stored at incomparable maximal constraints can repeat, so the
///     union deduplicates) and filtering for satisfaction of C.
class ProminenceEvaluator {
 public:
  ProminenceEvaluator(const Relation* relation, const ContextCounter* counter,
                      MuStore* store, StoragePolicy policy);

  /// Routes SkylineSize through an attached skyband index instead of the
  /// store: the same numbers (the index shadows every bucket mutation)
  /// without bucket reads — under Invariant 2 the whole ancestor-union walk
  /// runs on in-memory bands. A null index leaves the store path in place,
  /// so callers can pass whatever the engine holds unconditionally.
  void set_skyband(const SkybandIndex* index) { skyband_ = index; }

  /// Ranks one fact of the latest arrival (the arrival must already be
  /// folded into the store and the counter).
  RankedFact Evaluate(const SkylineFact& fact);

  /// Evaluates and sorts descending by prominence (stable w.r.t. canonical
  /// fact order on ties).
  std::vector<RankedFact> RankAll(std::vector<SkylineFact> facts);

  /// |λ_M(σ_C(R))| per the storage policy.
  uint64_t SkylineSize(const SkylineFact& fact);

 private:
  const Relation* relation_;
  const ContextCounter* counter_;
  MuStore* store_;
  StoragePolicy policy_;
  const SkybandIndex* skyband_ = nullptr;
  std::vector<TupleId> scratch_;
  std::vector<TupleId> union_scratch_;
};

/// The paper's "prominent facts pertinent to t": the facts attaining the
/// maximum prominence among S_t, provided that maximum is >= tau. (Ties make
/// several facts prominent at once.) `ranked` must be sorted descending.
std::vector<RankedFact> SelectProminent(const std::vector<RankedFact>& ranked,
                                        double tau);

}  // namespace sitfact

#endif  // SITFACT_CORE_PROMINENCE_H_
