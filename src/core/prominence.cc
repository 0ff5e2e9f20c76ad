#include "core/prominence.h"

#include <algorithm>

#include "common/bits.h"
#include "common/logging.h"

namespace sitfact {

ProminenceEvaluator::ProminenceEvaluator(const Relation* relation,
                                         const ContextCounter* counter,
                                         MuStore* store, StoragePolicy policy)
    : relation_(relation), counter_(counter), store_(store), policy_(policy) {}

uint64_t ProminenceEvaluator::SkylineSize(const SkylineFact& fact) {
  const Constraint& c = fact.constraint;
  MeasureMask m = fact.subspace;
  if (policy_ == StoragePolicy::kAllSkylineConstraints) {
    MuStore::Context* ctx = store_->Find(c);
    return ctx == nullptr ? 0 : ctx->Size(m);
  }
  if (skyband_ != nullptr) return skyband_->UnionSkylineSize(*relation_, c, m);
  // Invariant 2: λ_M(σ_C(R)) = tuples satisfying C that are stored at some
  // ancestor-or-self of C. A tuple may sit at two incomparable maximal
  // constraints that both subsume C, so the union deduplicates.
  union_scratch_.clear();
  ForEachSubset(c.bound_mask(), [&](DimMask sub) {
    Constraint anc = c.Restrict(sub);
    MuStore::Context* ctx = store_->Find(anc);
    if (ctx == nullptr || ctx->Empty(m)) return;
    ctx->Read(m, &scratch_);
    for (TupleId t : scratch_) {
      if (sub == c.bound_mask() || c.SatisfiedBy(*relation_, t)) {
        union_scratch_.push_back(t);
      }
    }
  });
  std::sort(union_scratch_.begin(), union_scratch_.end());
  union_scratch_.erase(
      std::unique(union_scratch_.begin(), union_scratch_.end()),
      union_scratch_.end());
  return union_scratch_.size();
}

RankedFact ProminenceEvaluator::Evaluate(const SkylineFact& fact) {
  RankedFact out;
  out.fact = fact;
  out.context_size = counter_->Count(fact.constraint);
  out.skyline_size = SkylineSize(fact);
  SITFACT_DCHECK(out.skyline_size > 0);
  out.prominence = out.skyline_size == 0
                       ? 0.0
                       : static_cast<double>(out.context_size) /
                             static_cast<double>(out.skyline_size);
  return out;
}

std::vector<RankedFact> ProminenceEvaluator::RankAll(
    std::vector<SkylineFact> facts) {
  CanonicalizeFacts(&facts);
  std::vector<RankedFact> ranked;
  ranked.reserve(facts.size());
  for (const SkylineFact& f : facts) ranked.push_back(Evaluate(f));
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const RankedFact& a, const RankedFact& b) {
                     return a.prominence > b.prominence;
                   });
  return ranked;
}

std::vector<RankedFact> SelectProminent(const std::vector<RankedFact>& ranked,
                                        double tau) {
  std::vector<RankedFact> out;
  if (ranked.empty()) return out;
  double best = ranked.front().prominence;
  if (best < tau) return out;
  for (const RankedFact& f : ranked) {
    if (f.prominence < best) break;
    out.push_back(f);
  }
  return out;
}

}  // namespace sitfact
