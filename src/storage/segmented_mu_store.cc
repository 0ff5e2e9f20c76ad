#include "storage/segmented_mu_store.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace sitfact {

SegmentedMuStore::SegmentedMuStore(int num_segments,
                                   std::vector<uint8_t> segment_of_mask,
                                   const StorageConfig& storage)
    : segment_of_mask_(std::move(segment_of_mask)) {
  SITFACT_CHECK(num_segments > 0);
  SITFACT_CHECK(!segment_of_mask_.empty());
  for (uint8_t s : segment_of_mask_) {
    SITFACT_CHECK(s < num_segments);
  }
  // Each segment gets an equal slice of the cache budget (with a floor so
  // a high shard count can't starve any one segment into thrashing).
  StorageConfig per_segment = ResolvedStorageConfig(storage);
  per_segment.cache_bytes =
      std::max<size_t>(per_segment.cache_bytes /
                           static_cast<size_t>(num_segments),
                       size_t{1} << 20);
  segments_.reserve(static_cast<size_t>(num_segments));
  for (int i = 0; i < num_segments; ++i) {
    segments_.push_back(CreateMuStore(per_segment));
  }
}

MuStore::Context* SegmentedMuStore::GetOrCreate(const Constraint& c) {
  SITFACT_DCHECK(c.bound_mask() < segment_of_mask_.size());
  return segments_[segment_of_mask_[c.bound_mask()]]->GetOrCreate(c);
}

MuStore::Context* SegmentedMuStore::Find(const Constraint& c) {
  SITFACT_DCHECK(c.bound_mask() < segment_of_mask_.size());
  return segments_[segment_of_mask_[c.bound_mask()]]->Find(c);
}

void SegmentedMuStore::ForEachBucket(
    const std::function<void(const Constraint&, MeasureMask,
                             const std::vector<TupleId>&)>& fn) {
  for (auto& segment : segments_) segment->ForEachBucket(fn);
}

void SegmentedMuStore::set_bucket_observer(BucketObserver* observer) {
  bucket_observer_ = observer;
  for (auto& segment : segments_) segment->set_bucket_observer(observer);
}

void SegmentedMuStore::set_dirty_tracking(bool enabled) {
  dirty_tracking_ = enabled;
  for (auto& segment : segments_) segment->set_dirty_tracking(enabled);
}

void SegmentedMuStore::ForEachDirtyBucket(
    const std::function<void(const Constraint&, MeasureMask)>& fn) const {
  for (const auto& segment : segments_) segment->ForEachDirtyBucket(fn);
}

void SegmentedMuStore::ClearDirty() {
  for (auto& segment : segments_) segment->ClearDirty();
}

uint64_t SegmentedMuStore::DirtyBucketCount() const {
  uint64_t count = 0;
  for (const auto& segment : segments_) count += segment->DirtyBucketCount();
  return count;
}

Status SegmentedMuStore::Flush() {
  Status first = Status::Ok();
  for (auto& segment : segments_) {
    Status s = segment->Flush();
    if (first.ok() && !s.ok()) first = std::move(s);
  }
  return first;
}

const MuStoreStats& SegmentedMuStore::stats() const {
  aggregated_ = MuStoreStats{};
  for (const auto& segment : segments_) {
    const MuStoreStats& s = segment->stats();
    aggregated_.stored_tuples += s.stored_tuples;
    aggregated_.bucket_reads += s.bucket_reads;
    aggregated_.bucket_writes += s.bucket_writes;
    aggregated_.file_reads += s.file_reads;
    aggregated_.file_writes += s.file_writes;
  }
  return aggregated_;
}

size_t SegmentedMuStore::ApproxMemoryBytes() const {
  size_t total = segment_of_mask_.size() * sizeof(uint8_t);
  for (const auto& segment : segments_) total += segment->ApproxMemoryBytes();
  return total;
}

}  // namespace sitfact
