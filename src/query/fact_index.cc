#include "query/fact_index.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace sitfact {

namespace {

/// TopK order: prominence descending, record id ascending.
bool TopKBefore(double pa, uint32_t ia, double pb, uint32_t ib) {
  if (pa != pb) return pa > pb;
  return ia < ib;
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

bool FactIndexSnapshot::AddMatch(uint32_t id, size_t k,
                                 TopKResult* page) const {
  if (page->record_ids.size() < k) {
    page->record_ids.push_back(id);
    return false;
  }
  const uint32_t last = page->record_ids.back();
  page->next = TopKCursor{records_[last].prominence, last};
  return true;
}

TopKResult FactIndexSnapshot::TopK(size_t k, const FactFilter& filter,
                                   const std::optional<TopKCursor>& cursor)
    const {
  // The band is in TopK order, so the page is the first k matches in scan
  // order, and a (k+1)-th match is what sets `next`.
  TopKResult result;
  if (k == 0) return result;
  // Resume strictly after the cursor. The predicate is monotone along the
  // band for any client-supplied prominence: a NaN is never before an
  // entry (empty page), +inf is before every one (first page).
  BandVec::Iterator it =
      cursor.has_value()
          ? topk_order_.LowerBound([&](uint32_t id) {
              return TopKBefore(cursor->prominence, cursor->record_id,
                                records_[id].prominence, id);
            })
          : topk_order_.begin();
  for (; !it.AtEnd(); it.Next()) {
    const uint32_t id = *it;
    if (filter.Matches(records_[id]) && AddMatch(id, k, &result)) break;
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
    if (filter.Matches(records_[id]) && AddMatch(id, k, &out)) break;
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
      if (filter.Matches(records_[id]) && AddMatch(id, k, &out)) return out;
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

  // The band stays in TopK order (prominence descending, id ascending): the
  // new record binary-searches its slot — since its id is the largest, that
  // is "after every entry with prominence >= mine".
  ++work_.skyband_stats_.band_inserts;
  work_.skyband_stats_.shifted_records +=
      work_.topk_order_.Insert(id, [this, id, &rec](uint32_t other) {
        return TopKBefore(rec.prominence, id,
                          work_.records_[other].prominence, other);
      });

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
  work_.topk_order_.Seal();

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
