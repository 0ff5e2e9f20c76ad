#include "query/fact_index.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "common/logging.h"

namespace sitfact {

namespace {

/// Bucket index for a prominence value: 0 for p < 1 (unranked records; a
/// ranked fact's prominence is always >= 1 since the skyline is a subset of
/// the context), otherwise floor(log2(p)) + 1 capped at the top bucket.
/// Bucket b > 0 holds p in [2^(b-1), 2^b), so bucket ranges are disjoint
/// and descending-bucket order is coarse descending-prominence order.
int ProminenceBucket(double p) {
  if (!(p >= 1.0)) return 0;
  const auto v = static_cast<uint64_t>(p);
  const int width = std::bit_width(v);  // >= 1 because v >= 1
  return width < FactIndexSnapshot::kProminenceBuckets
             ? width
             : FactIndexSnapshot::kProminenceBuckets - 1;
}

/// TopK order: prominence descending, record id ascending.
bool TopKBefore(double pa, uint32_t ia, double pb, uint32_t ib) {
  if (pa != pb) return pa > pb;
  return ia < ib;
}

BandVec* FindList(std::vector<std::pair<uint32_t, BandVec>>* lists,
                  uint32_t key) {
  for (auto& [k, list] : *lists) {
    if (k == key) return &list;
  }
  return nullptr;
}

}  // namespace

bool FactFilter::Matches(const FactRecord& r) const {
  if (!include_dead && !r.live) return false;
  if (tuple.has_value() && r.tuple != *tuple) return false;
  if (bound_mask.has_value() && r.fact.constraint.bound_mask() != *bound_mask) {
    return false;
  }
  if (subspace.has_value() && r.fact.subspace != *subspace) return false;
  if (about.has_value() && !r.fact.constraint.SubsumedByOrEqual(*about)) {
    return false;
  }
  if (r.arrival_seq < min_arrival || r.arrival_seq > max_arrival) return false;
  if (r.prominence < min_prominence) return false;
  if (prominent_only && !r.prominent) return false;
  return true;
}

const std::string& FactIndexSnapshot::narration(uint32_t id) const {
  static const std::string kEmpty;
  return id < narrations_.size() ? narrations_[id] : kEmpty;
}

uint32_t FactIndexSnapshot::ArrivalOfTuple(TupleId t) const {
  if (t >= tuple_to_arrival_.size()) return kNoArrival;
  return tuple_to_arrival_[t];
}

const BandVec* FactIndexSnapshot::BoundList(DimMask mask) const {
  for (const auto& [k, list] : by_bound_) {
    if (k == mask) return &list;
  }
  return nullptr;
}

const BandVec* FactIndexSnapshot::SubspaceList(MeasureMask mask) const {
  for (const auto& [k, list] : by_subspace_) {
    if (k == mask) return &list;
  }
  return nullptr;
}

TopKResult FactIndexSnapshot::TopK(size_t k, const FactFilter& filter,
                                   const std::optional<TopKCursor>& cursor)
    const {
  // Every source list is in TopK order, so the page is the first k matches
  // in scan order (no candidate sort) and the scan stops at the first match
  // past the page. `next` is set when a (k+1)-th match exists, or when k
  // matches are in hand and lower buckets are still unvisited.
  TopKResult result;
  if (k == 0) return result;

  // First position of `list` strictly after the cursor. Entries sort by
  // TopKBefore, so the predicate is monotone for any cursor value.
  const auto after_cursor = [&](const BandVec& list) -> BandVec::Iterator {
    if (!cursor.has_value()) return list.begin();
    return list.LowerBound([&](uint32_t id) {
      return TopKBefore(cursor->prominence, cursor->record_id,
                        records_[id].prominence, id);
    });
  };

  bool more = false;
  // Collects matches from `begin` on until the page is full and one further
  // match proves `more`; returns true when scanning should stop.
  const auto scan = [&](BandVec::Iterator begin) -> bool {
    for (BandVec::Iterator it = begin; !it.AtEnd(); it.Next()) {
      const uint32_t id = *it;
      if (!filter.Matches(records_[id])) continue;
      if (result.record_ids.size() < k) {
        result.record_ids.push_back(id);
      } else {
        more = true;
        return true;
      }
    }
    return false;
  };

  if (filter.bound_mask.has_value() || filter.subspace.has_value()) {
    // Shape-pinned filters scan their secondary list instead of the
    // prominence buckets: it holds exactly the records of that constraint
    // shape / measure subspace. A mask the index never saw has no list.
    const BandVec* source = filter.bound_mask.has_value()
                                ? BoundList(*filter.bound_mask)
                                : SubspaceList(*filter.subspace);
    if (source != nullptr) scan(after_cursor(*source));
  } else {
    const int start = cursor.has_value()
                          ? ProminenceBucket(cursor->prominence)
                          : kProminenceBuckets - 1;
    for (int b = start; b >= 0; --b) {
      const BandVec& bucket = by_prominence_[b];
      // Only the cursor's own bucket can hold already-served entries:
      // every lower bucket's prominence range sits strictly below the
      // cursor's (ProminenceBucket ranges are disjoint).
      if (scan(b == start ? after_cursor(bucket) : bucket.begin())) break;
      if (result.record_ids.size() >= k && b > 0) {
        more = true;
        break;
      }
    }
  }

  if (more && !result.record_ids.empty()) {
    const uint32_t last = result.record_ids.back();
    result.next = TopKCursor{records_[last].prominence, last};
  }
  return result;
}

TopKResult FactIndexSnapshot::FactsForTuple(
    TupleId t, const FactFilter& filter, size_t k,
    const std::optional<TopKCursor>& cursor) const {
  TopKResult out;
  const uint32_t seq = ArrivalOfTuple(t);
  if (seq == kNoArrival || k == 0) return out;
  const ArrivalEntry& entry = arrivals_[seq];
  for (uint32_t i = 0; i < entry.record_count; ++i) {
    const uint32_t id = entry.record_begin + i;
    if (cursor.has_value() && id <= cursor->record_id) continue;
    if (!filter.Matches(records_[id])) continue;
    if (out.record_ids.size() == k) {
      const uint32_t last = out.record_ids.back();
      out.next = TopKCursor{records_[last].prominence, last};
      return out;
    }
    out.record_ids.push_back(id);
  }
  return out;
}

TopKResult FactIndexSnapshot::FactsInWindow(
    uint64_t first_arrival, uint64_t last_arrival, const FactFilter& filter,
    size_t k, const std::optional<TopKCursor>& cursor) const {
  TopKResult out;
  if (arrivals_.empty() || first_arrival > last_arrival || k == 0) return out;
  const uint64_t end = std::min<uint64_t>(last_arrival, arrivals_.size() - 1);
  for (uint64_t seq = first_arrival; seq <= end; ++seq) {
    const ArrivalEntry& entry = arrivals_[seq];
    // Record runs are appended in arrival order, so a run entirely at or
    // before the cursor can be skipped without touching its records.
    if (cursor.has_value() &&
        static_cast<uint64_t>(entry.record_begin) + entry.record_count <=
            static_cast<uint64_t>(cursor->record_id) + 1) {
      continue;
    }
    for (uint32_t i = 0; i < entry.record_count; ++i) {
      const uint32_t id = entry.record_begin + i;
      if (cursor.has_value() && id <= cursor->record_id) continue;
      if (!filter.Matches(records_[id])) continue;
      if (out.record_ids.size() == k) {
        const uint32_t last = out.record_ids.back();
        out.next = TopKCursor{records_[last].prominence, last};
        return out;
      }
      out.record_ids.push_back(id);
    }
  }
  return out;
}

FactIndex::FactIndex(const Relation* relation, Options options)
    : relation_(relation),
      options_(options),
      narrator_(relation, options.entity_dim) {
  SITFACT_CHECK(relation != nullptr);
  SITFACT_CHECK(options_.publish_every >= 1);
  Publish();  // Acquire() is never null, even before the first arrival
}

void FactIndex::AddRecord(const ArrivalReport& report, const SkylineFact& fact,
                          const RankedFact* ranked, uint64_t arrival_seq) {
  const auto id = static_cast<uint32_t>(work_.records_.size());
  FactRecord rec;
  rec.tuple = report.tuple;
  rec.arrival_seq = arrival_seq;
  rec.fact = fact;
  if (ranked != nullptr) {
    rec.context_size = ranked->context_size;
    rec.skyline_size = ranked->skyline_size;
    rec.prominence = ranked->prominence;
    rec.ranked = true;
    for (const RankedFact& p : report.prominent) {
      if (p.fact == fact) {
        rec.prominent = true;
        break;
      }
    }
  }

  // Every list stays in TopK order (prominence descending, id ascending):
  // the new record binary-searches its slot — since its id is the largest,
  // that is "after every entry with prominence >= mine".
  const auto ordered_insert = [this, id, &rec](BandVec* list) {
    ++work_.skyband_stats_.band_inserts;
    work_.skyband_stats_.shifted_records +=
        list->Insert(id, [this, id, &rec](uint32_t other) {
          return TopKBefore(rec.prominence, id,
                            work_.records_[other].prominence, other);
        });
  };

  ordered_insert(&work_.by_prominence_[ProminenceBucket(rec.prominence)]);
  BandVec* bound = FindList(&work_.by_bound_, fact.constraint.bound_mask());
  if (bound == nullptr) {
    work_.by_bound_.emplace_back(fact.constraint.bound_mask(), BandVec());
    bound = &work_.by_bound_.back().second;
  }
  ordered_insert(bound);
  BandVec* sub = FindList(&work_.by_subspace_, fact.subspace);
  if (sub == nullptr) {
    work_.by_subspace_.emplace_back(fact.subspace, BandVec());
    sub = &work_.by_subspace_.back().second;
  }
  ordered_insert(sub);

  if (options_.store_narrations) {
    RankedFact rf;
    if (ranked != nullptr) {
      rf = *ranked;
    } else {
      rf.fact = fact;
    }
    work_.narrations_.PushBack(narrator_.Narrate(report.tuple, rf));
  }
  work_.records_.PushBack(std::move(rec));
}

void FactIndex::ApplyArrival(const ArrivalReport& report) {
  const uint64_t arrival_seq = work_.arrivals_.size();
  const auto begin = static_cast<uint32_t>(work_.records_.size());

  // Ranked order when the engine ranked (prominence descending — the order
  // pagination serves ties in); canonical fact order otherwise.
  if (!report.ranked.empty()) {
    for (const RankedFact& rf : report.ranked) {
      AddRecord(report, rf.fact, &rf, arrival_seq);
    }
  } else {
    for (const SkylineFact& fact : report.facts) {
      AddRecord(report, fact, nullptr, arrival_seq);
    }
  }

  while (work_.tuple_to_arrival_.size() < report.tuple) {
    work_.tuple_to_arrival_.PushBack(FactIndexSnapshot::kNoArrival);
  }
  if (work_.tuple_to_arrival_.size() == report.tuple) {
    work_.tuple_to_arrival_.PushBack(static_cast<uint32_t>(arrival_seq));
  } else {
    // An engine never reuses a TupleId; seeing one again means the caller
    // replayed an arrival (at-least-once delivery). Last write wins: the
    // superseded delivery's records die with its directory entry, so no
    // query surface ever serves the same fact twice.
    const uint32_t old_seq = work_.tuple_to_arrival_[report.tuple];
    if (old_seq != FactIndexSnapshot::kNoArrival) {
      FactIndexSnapshot::ArrivalEntry& old_entry =
          work_.arrivals_.Mutate(old_seq);
      if (old_entry.live) {
        old_entry.live = false;
        for (uint32_t i = 0; i < old_entry.record_count; ++i) {
          work_.records_.Mutate(old_entry.record_begin + i).live = false;
        }
      }
    }
    work_.tuple_to_arrival_.Mutate(report.tuple) =
        static_cast<uint32_t>(arrival_seq);
  }

  FactIndexSnapshot::ArrivalEntry entry;
  entry.tuple = report.tuple;
  entry.record_begin = begin;
  entry.record_count = static_cast<uint32_t>(work_.records_.size()) - begin;
  work_.arrivals_.PushBack(entry);

  ++work_.epoch_;
  MaybePublish();
}

Status FactIndex::ApplyRemove(TupleId t) {
  const uint32_t seq = work_.tuple_to_arrival_.size() > t
                           ? work_.tuple_to_arrival_[t]
                           : FactIndexSnapshot::kNoArrival;
  if (seq == FactIndexSnapshot::kNoArrival) {
    return Status::InvalidArgument("fact index never saw tuple " +
                                   std::to_string(t));
  }
  FactIndexSnapshot::ArrivalEntry& entry = work_.arrivals_.Mutate(seq);
  if (!entry.live) {
    return Status::InvalidArgument("tuple " + std::to_string(t) +
                                   " already removed from the fact index");
  }
  entry.live = false;
  for (uint32_t i = 0; i < entry.record_count; ++i) {
    work_.records_.Mutate(entry.record_begin + i).live = false;
  }
  ++work_.epoch_;
  MaybePublish();
  return Status::Ok();
}

Status FactIndex::ApplyUpdate(TupleId removed_tuple,
                              const ArrivalReport& readded) {
  Status removed = ApplyRemove(removed_tuple);
  if (!removed.ok()) return removed;
  ApplyArrival(readded);
  return Status::Ok();
}

void FactIndex::MaybePublish() {
  if (work_.epoch_ - last_published_epoch_ >= options_.publish_every) {
    Publish();
  }
}

void FactIndex::Publish() {
  work_.records_.Seal();
  work_.narrations_.Seal();
  work_.arrivals_.Seal();
  work_.tuple_to_arrival_.Seal();
  for (auto& bucket : work_.by_prominence_) bucket.Seal();
  for (auto& [mask, list] : work_.by_bound_) list.Seal();
  for (auto& [mask, list] : work_.by_subspace_) list.Seal();

  auto snapshot = std::make_shared<const FactIndexSnapshot>(work_);
  last_published_epoch_ = work_.epoch_;
  std::lock_guard<std::mutex> lock(publish_mu_);
  published_ = std::move(snapshot);
}

std::shared_ptr<const FactIndexSnapshot> FactIndex::Acquire() const {
  std::lock_guard<std::mutex> lock(publish_mu_);
  return published_;
}

}  // namespace sitfact
