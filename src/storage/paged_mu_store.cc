#include "storage/paged_mu_store.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/logging.h"

namespace sitfact {

namespace {

/// Compaction is pointless below this footprint; the sweep would cost more
/// than the pages it could reclaim are worth.
constexpr uint32_t kCompactMinPages = 64;

}  // namespace

PagedMuStore::PagedMuStore(PagedStoreOptions options)
    : options_(std::move(options)),
      cache_(options_.spill_path, options_.page_size, options_.cache_bytes) {
  SITFACT_CHECK(options_.page_size >= sizeof(TupleId));
  SITFACT_CHECK(options_.page_size % sizeof(TupleId) == 0);
}

MuStore::Context* PagedMuStore::GetOrCreate(const Constraint& c) {
  auto [it, inserted] = contexts_.try_emplace(c, this);
  if (inserted) it->second.constraint_ = &it->first;
  return &it->second;
}

MuStore::Context* PagedMuStore::Find(const Constraint& c) {
  auto it = contexts_.find(c);
  return it == contexts_.end() ? nullptr : &it->second;
}

void PagedMuStore::ForEachBucket(
    const std::function<void(const Constraint&, MeasureMask,
                             const std::vector<TupleId>&)>& fn) {
  std::vector<TupleId> bucket;
  for (auto& [constraint, ctx] : contexts_) {
    for (const Entry& e : ctx.entries_) {
      if (e.size == 0) continue;
      ReadRecord(e, &bucket);
      fn(constraint, e.mask, bucket);
    }
  }
}

const MuStoreStats& PagedMuStore::stats() const {
  merged_ = stats_;
  // Cache misses/write-backs are this backend's file IO, in the same sense
  // FileMuStore counts bucket-file loads and stores.
  merged_.file_reads = cache_.stats().misses;
  merged_.file_writes = cache_.stats().writebacks;
  return merged_;
}

size_t PagedMuStore::ApproxMemoryBytes() const {
  // Per-heap-block allocator header; matches MemoryMuStore's accounting so
  // fig10 rows compare like-for-like across backends.
  constexpr size_t kAllocOverhead = 16;
  size_t bytes = sizeof(*this) + cache_.MemoryBytes() +
                 scratch_.capacity() * sizeof(TupleId) +
                 contexts_.bucket_count() * sizeof(void*);
  for (const auto& [key, ctx] : contexts_) {
    bytes += sizeof(Constraint) + sizeof(PagedContext) + 3 * sizeof(void*) +
             kAllocOverhead;
    bytes += ctx.ApproxMemoryBytes();
  }
  return bytes;
}

void PagedMuStore::ReadRecord(const Entry& e, std::vector<TupleId>* out) {
  out->resize(e.size);
  uint8_t* dst = reinterpret_cast<uint8_t*>(out->data());
  uint32_t len = e.size * sizeof(TupleId);
  PageCache::PageId page = e.first_page;
  uint32_t off = e.offset;
  while (len > 0) {
    uint32_t chunk = std::min(len, options_.page_size - off);
    const uint8_t* src = cache_.Pin(page);
    std::memcpy(dst, src + off, chunk);
    cache_.Unpin(page, /*dirty=*/false);
    dst += chunk;
    len -= chunk;
    off = 0;
    ++page;
  }
}

void PagedMuStore::WriteBytes(PageCache::PageId first, uint32_t offset,
                              const uint8_t* data, uint32_t len) {
  PageCache::PageId page = first;
  uint32_t off = offset;
  while (len > 0) {
    uint32_t chunk = std::min(len, options_.page_size - off);
    uint8_t* dst = cache_.Pin(page);
    std::memcpy(dst + off, data, chunk);
    cache_.Unpin(page, /*dirty=*/true);
    data += chunk;
    len -= chunk;
    off = 0;
    ++page;
  }
}

PagedMuStore::Entry PagedMuStore::AllocateRecord(MeasureMask m,
                                                 const uint8_t* data,
                                                 uint32_t len) {
  SITFACT_DCHECK(len > 0);
  Entry e{m, len / static_cast<uint32_t>(sizeof(TupleId)),
          PageCache::kInvalidPage, 0, false};
  if (len > options_.page_size) {
    e.first_page = cache_.AllocateRun(PagesOf(len));
    e.owns_run = true;
  } else {
    if (open_page_ == PageCache::kInvalidPage ||
        open_used_ + len > options_.page_size) {
      // Seal the old open page (its tail slack becomes dead bytes for the
      // compaction accounting) and start a fresh one.
      open_page_ = cache_.Allocate();
      open_used_ = 0;
      shared_pages_.push_back(open_page_);
    }
    e.first_page = open_page_;
    e.offset = open_used_;
    open_used_ += len;
  }
  live_bytes_ += len;
  WriteBytes(e.first_page, e.offset, data, len);
  return e;
}

void PagedMuStore::ReleaseRecord(const Entry& e) {
  uint32_t len = e.size * sizeof(TupleId);
  live_bytes_ -= len;
  if (e.owns_run) {
    uint32_t n = PagesOf(len);
    for (uint32_t k = 0; k < n; ++k) cache_.Free(e.first_page + k);
  }
  // Shared-page bytes just go dead; compaction reclaims them.
}

void PagedMuStore::MaybeCompact() {
  uint32_t pages = cache_.live_pages();
  if (pages < kCompactMinPages) return;
  uint64_t allocated = static_cast<uint64_t>(pages) * options_.page_size;
  if (allocated <= 2 * live_bytes_ + options_.page_size) return;
  Compact();
}

void PagedMuStore::Compact() {
  ++compactions_;
  // Old pages are freed only after every live record has been copied out,
  // so the rewrite can never reuse a page it still needs to read. Runs are
  // collected per record; shared pages come from the open-page history.
  std::vector<PageCache::PageId> old_shared = std::move(shared_pages_);
  shared_pages_.clear();
  open_page_ = PageCache::kInvalidPage;
  open_used_ = 0;
  std::vector<std::pair<PageCache::PageId, uint32_t>> old_runs;
  std::vector<uint8_t> buf;
  for (auto& [constraint, ctx] : contexts_) {
    for (Entry& e : ctx.entries_) {
      uint32_t len = e.size * sizeof(TupleId);
      if (len == 0) continue;
      buf.resize(len);
      uint8_t* dst = buf.data();
      uint32_t remaining = len;
      PageCache::PageId page = e.first_page;
      uint32_t off = e.offset;
      while (remaining > 0) {
        uint32_t chunk = std::min(remaining, options_.page_size - off);
        const uint8_t* src = cache_.Pin(page);
        std::memcpy(dst, src + off, chunk);
        cache_.Unpin(page, /*dirty=*/false);
        dst += chunk;
        remaining -= chunk;
        off = 0;
        ++page;
      }
      if (e.owns_run) old_runs.emplace_back(e.first_page, PagesOf(len));
      live_bytes_ -= len;
      e = AllocateRecord(e.mask, buf.data(), len);
    }
  }
  for (auto [first, n] : old_runs) {
    for (uint32_t k = 0; k < n; ++k) cache_.Free(first + k);
  }
  for (PageCache::PageId p : old_shared) cache_.Free(p);
}

void PagedMuStore::Notify(const PagedContext& ctx, MeasureMask m,
                          const std::vector<TupleId>& bucket) {
  MarkDirtyBucket(*ctx.constraint_, m);
  if (bucket_observer_ != nullptr) {
    bucket_observer_->OnBucketChanged(*ctx.constraint_, m, bucket);
  }
}

int PagedMuStore::PagedContext::FindEntry(MeasureMask m) const {
  auto it = std::lower_bound(
      entries_.begin(), entries_.end(), m,
      [](const Entry& e, MeasureMask mask) { return e.mask < mask; });
  if (it == entries_.end() || it->mask != m) return -1;
  return static_cast<int>(it - entries_.begin());
}

void PagedMuStore::PagedContext::Read(MeasureMask m,
                                      std::vector<TupleId>* out) {
  ++store_->stats_.bucket_reads;
  int i = FindEntry(m);
  if (i < 0) {
    out->clear();
    return;
  }
  store_->ReadRecord(entries_[i], out);
}

void PagedMuStore::PagedContext::Write(MeasureMask m,
                                       const std::vector<TupleId>& contents) {
  ++store_->stats_.bucket_writes;
  int i = FindEntry(m);
  if (i < 0 && contents.empty()) return;
  static const std::vector<TupleId> kEmpty;
  uint32_t new_len =
      static_cast<uint32_t>(contents.size() * sizeof(TupleId));
  const uint8_t* bytes = reinterpret_cast<const uint8_t*>(contents.data());
  if (i < 0) {
    Entry e = store_->AllocateRecord(m, bytes, new_len);
    auto it = std::lower_bound(
        entries_.begin(), entries_.end(), m,
        [](const Entry& a, MeasureMask mask) { return a.mask < mask; });
    entries_.insert(it, e);
    store_->stats_.stored_tuples += contents.size();
    store_->Notify(*this, m, contents);
    store_->MaybeCompact();
    return;
  }
  Entry& e = entries_[i];
  uint32_t old_len = e.size * static_cast<uint32_t>(sizeof(TupleId));
  store_->stats_.stored_tuples += contents.size();
  store_->stats_.stored_tuples -= e.size;
  if (contents.empty()) {
    store_->ReleaseRecord(e);
    entries_.erase(entries_.begin() + i);
    store_->Notify(*this, m, kEmpty);
  } else if (new_len <= old_len) {
    // Rewrite in place; the slack becomes dead bytes. A shrunk run keeps
    // only the pages the record still spans.
    if (e.owns_run) {
      uint32_t old_pages = store_->PagesOf(old_len);
      uint32_t new_pages = store_->PagesOf(new_len);
      for (uint32_t k = new_pages; k < old_pages; ++k) {
        store_->cache_.Free(e.first_page + k);
      }
    }
    store_->live_bytes_ -= old_len - new_len;
    store_->WriteBytes(e.first_page, e.offset, bytes, new_len);
    e.size = static_cast<uint32_t>(contents.size());
    store_->Notify(*this, m, contents);
  } else {
    store_->ReleaseRecord(e);
    e = store_->AllocateRecord(m, bytes, new_len);
    store_->Notify(*this, m, contents);
  }
  store_->MaybeCompact();
}

uint32_t PagedMuStore::PagedContext::Size(MeasureMask m) const {
  int i = FindEntry(m);
  return i < 0 ? 0 : entries_[i].size;
}

bool PagedMuStore::PagedContext::Contains(MeasureMask m, TupleId t) {
  if (Size(m) == 0) return false;
  Read(m, &store_->scratch_);
  return std::find(store_->scratch_.begin(), store_->scratch_.end(), t) !=
         store_->scratch_.end();
}

void PagedMuStore::PagedContext::Insert(MeasureMask m, TupleId t) {
  Read(m, &store_->scratch_);
  store_->scratch_.push_back(t);
  Write(m, store_->scratch_);
}

bool PagedMuStore::PagedContext::Erase(MeasureMask m, TupleId t) {
  if (Size(m) == 0) return false;
  Read(m, &store_->scratch_);
  auto it = std::find(store_->scratch_.begin(), store_->scratch_.end(), t);
  if (it == store_->scratch_.end()) return false;
  *it = store_->scratch_.back();
  store_->scratch_.pop_back();
  Write(m, store_->scratch_);
  return true;
}

size_t PagedMuStore::PagedContext::ApproxMemoryBytes() const {
  constexpr size_t kAllocOverhead = 16;
  return entries_.capacity() * sizeof(Entry) +
         (entries_.capacity() > 0 ? kAllocOverhead : 0);
}

}  // namespace sitfact
