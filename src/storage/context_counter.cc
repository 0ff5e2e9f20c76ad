#include "storage/context_counter.h"

#include "common/binary_io.h"
#include "common/bits.h"

namespace sitfact {

void ContextCounter::OnArrival(const Relation& r, TupleId t) {
  int nd = r.schema().num_dimensions();
  DimMask full = FullMask(nd);
  for (DimMask mask = 0; mask <= full; ++mask) {
    if (PopCount(mask) > max_bound_) continue;
    ++counts_[Constraint::ForTuple(r, t, mask)];
  }
}

void ContextCounter::OnRemoval(const Relation& r, TupleId t) {
  int nd = r.schema().num_dimensions();
  DimMask full = FullMask(nd);
  for (DimMask mask = 0; mask <= full; ++mask) {
    if (PopCount(mask) > max_bound_) continue;
    auto it = counts_.find(Constraint::ForTuple(r, t, mask));
    if (it != counts_.end() && it->second > 0) --it->second;
  }
}

uint64_t ContextCounter::Count(const Constraint& c) const {
  auto it = counts_.find(c);
  return it == counts_.end() ? 0 : it->second;
}

namespace {

// A counter beyond this is either corrupted or far outside the library's
// design envelope.
constexpr uint64_t kMaxCounterEntries = 1ull << 32;

}  // namespace

void ContextCounter::Serialize(BinaryWriter* w) const {
  w->WriteU64(counts_.size());
  for (const auto& [c, n] : counts_) {
    SerializeConstraint(w, c);
    w->WriteU64(n);
  }
}

Status ContextCounter::Deserialize(BinaryReader* r, int num_dims) {
  uint64_t entries = r->ReadU64();
  if (!r->CheckCount(entries, kMaxCounterEntries, "counter entries")) {
    return r->status();
  }
  for (uint64_t i = 0; i < entries; ++i) {
    Constraint c = DeserializeConstraint(r, num_dims);
    uint64_t count = r->ReadU64();
    if (!r->ok()) return r->status();
    Restore(c, count);
  }
  return Status::Ok();
}

}  // namespace sitfact
