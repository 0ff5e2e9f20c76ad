#include "csc/ccsc_discoverer.h"

#include <algorithm>
#include <utility>

#include "lattice/constraint_enumerator.h"

namespace sitfact {

CcscDiscoverer::CcscDiscoverer(const Relation* relation,
                               const DiscoveryOptions& options)
    : Discoverer(relation, options),
      masks_(MasksByAscendingBound(relation->schema().num_dimensions(),
                                   max_bound_)) {}

CcscDiscoverer::~CcscDiscoverer() = default;

void CcscDiscoverer::Discover(TupleId t, std::vector<SkylineFact>* facts) {
  ++stats_.arrivals;
  const Relation& r = *relation_;
  // One partition memo for the whole arrival: every context that compares t
  // against the same history tuple reuses the first context's partition.
  arrival_memo_.BeginArrival(r, t);
  for (DimMask mask : masks_) {
    Constraint c = Constraint::ForTuple(r, t, mask);
    auto [it, inserted] = states_.try_emplace(c, nullptr);
    if (inserted) {
      it->second = std::make_unique<ContextState>(&r, &universe_);
    }
    ContextState& st = *it->second;
    st.index.Insert(t);
    uint64_t before = st.cube.stored_count();
    sky_masks_scratch_.clear();
    st.cube.Insert(r, t, &sky_masks_scratch_, &stats_.comparisons,
                   &arrival_memo_, &repair_memo_);
    stored_total_ += st.cube.stored_count() - before;
    // Membership per subspace is read directly off the update's skyline
    // set rather than from a CSC skyline query per subspace (the paper's
    // "overkill"): both answer "does any context member dominate t in M?".
    // The traversal counter keeps its meaning: one (context, subspace)
    // visit per universe mask.
    stats_.constraints_traversed += universe_.masks().size();
    for (MeasureMask m : sky_masks_scratch_) {
      facts->push_back(SkylineFact{c, m});
    }
  }
}

std::unique_ptr<CcscDiscoverer::ContextState> CcscDiscoverer::RebuildState(
    const std::vector<TupleId>& members) {
  const Relation& r = *relation_;
  auto st = std::make_unique<ContextState>(&r, &universe_);
  for (TupleId u : members) {
    st->index.Insert(u);
    arrival_memo_.BeginArrival(r, u);
    sky_masks_scratch_.clear();
    st->cube.Insert(r, u, &sky_masks_scratch_, &stats_.comparisons,
                    &arrival_memo_, &repair_memo_);
  }
  return st;
}

Status CcscDiscoverer::Remove(TupleId t) {
  const Relation& r = *relation_;
  if (t >= r.size()) {
    return Status::InvalidArgument("no such tuple");
  }
  if (!r.IsDeleted(t)) {
    return Status::InvalidArgument(
        "tuple must be tombstoned (Relation::MarkDeleted) before Remove");
  }
  for (DimMask mask : masks_) {
    auto it = states_.find(Constraint::ForTuple(r, t, mask));
    if (it == states_.end()) continue;
    ContextState& st = *it->second;
    const std::vector<TupleId>& members = st.index.members();
    if (std::find(members.begin(), members.end(), t) == members.end()) {
      continue;
    }
    std::vector<TupleId> remaining;
    remaining.reserve(members.size() - 1);
    for (TupleId u : members) {
      if (u != t) remaining.push_back(u);
    }
    stored_total_ -= st.cube.stored_count();
    if (remaining.empty()) {
      states_.erase(it);
      continue;
    }
    it->second = RebuildState(remaining);
    stored_total_ += it->second->cube.stored_count();
  }
  return Status::Ok();
}

size_t CcscDiscoverer::ApproxMemoryBytes() const {
  size_t bytes = arrival_memo_.ApproxMemoryBytes() +
                 repair_memo_.ApproxMemoryBytes();
  for (const auto& [key, st] : states_) {
    bytes += sizeof(Constraint) + 3 * sizeof(void*);
    bytes += sizeof(ContextState);
    bytes += st->cube.ApproxMemoryBytes();
    bytes += st->index.ApproxMemoryBytes();
  }
  return bytes;
}

const CompressedSkycube* CcscDiscoverer::cube(const Constraint& c) const {
  auto it = states_.find(c);
  return it == states_.end() ? nullptr : &it->second->cube;
}

}  // namespace sitfact
