#ifndef SITFACT_STORAGE_CONTEXT_COUNTER_H_
#define SITFACT_STORAGE_CONTEXT_COUNTER_H_

#include <cstdint>
#include <unordered_map>

#include "common/status.h"
#include "common/types.h"
#include "lattice/constraint.h"
#include "relation/relation.h"

namespace sitfact {

/// Incrementally maintains |σ_C(R)| for every constraint ever satisfied by
/// an arrived tuple (restricted to at most `max_bound` bound attributes).
/// The prominence measure of Sec. VII is
/// |σ_C(R)| / |λ_M(σ_C(R))|, so discovery engines bump this counter on every
/// arrival before ranking the arrival's facts. An engine keeps exactly one;
/// the sharded engine's worker threads read it while the caller thread,
/// its only writer, waits for them.
class ContextCounter {
 public:
  explicit ContextCounter(int max_bound) : max_bound_(max_bound) {}

  /// Registers the arrival of tuple `t`: increments the count of every
  /// constraint in C^t with at most max_bound bound attributes.
  void OnArrival(const Relation& r, TupleId t);

  /// Deletion extension: decrements the counts OnArrival(t) incremented.
  void OnRemoval(const Relation& r, TupleId t);

  /// |σ_C(R)| for a constraint (0 if never seen).
  uint64_t Count(const Constraint& c) const;

  /// Visits every (constraint, count) pair, unspecified order; snapshotting.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const auto& [c, n] : counts_) fn(c, n);
  }

  /// Snapshot restore: sets one constraint's count directly. Counts of zero
  /// are dropped rather than stored.
  void Restore(const Constraint& c, uint64_t count) {
    if (count == 0) {
      counts_.erase(c);
    } else {
      counts_[c] = count;
    }
  }

  /// Persistence hook (docs/persistence.md): writes the entry count (u64)
  /// followed by every (constraint, count) pair, unspecified order.
  void Serialize(BinaryWriter* w) const;

  /// Restores what Serialize wrote into this counter (existing entries are
  /// kept — call on a fresh counter). `num_dims` validates constraint masks;
  /// counts land via Restore(). Corruption/IoError from the reader is
  /// returned and the counter may hold a partial prefix.
  Status Deserialize(BinaryReader* r, int num_dims);

  int max_bound() const { return max_bound_; }

  size_t distinct_contexts() const { return counts_.size(); }

  size_t ApproxMemoryBytes() const {
    return counts_.size() *
           (sizeof(Constraint) + sizeof(uint64_t) + 3 * sizeof(void*));
  }

 private:
  int max_bound_;
  std::unordered_map<Constraint, uint64_t, ConstraintHash> counts_;
};

}  // namespace sitfact

#endif  // SITFACT_STORAGE_CONTEXT_COUNTER_H_
