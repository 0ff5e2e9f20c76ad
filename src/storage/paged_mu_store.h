#ifndef SITFACT_STORAGE_PAGED_MU_STORE_H_
#define SITFACT_STORAGE_PAGED_MU_STORE_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "storage/mu_store.h"
#include "storage/page_cache.h"

namespace sitfact {

struct PagedStoreOptions {
  /// Backing spill file (created/truncated; unlinked on destruction).
  std::string spill_path;
  /// Page payload bytes. Records never straddle a page boundary except
  /// records larger than one page, which get a contiguous run to themselves.
  uint32_t page_size = 4096;
  /// Resident page-cache budget (the --cache-mb knob).
  size_t cache_bytes = 64u << 20;
};

/// Out-of-core µ store: bucket records (raw little-endian TupleId arrays)
/// live on fixed-size pages behind a bounded LRU PageCache, so the working
/// set — not the lattice — decides peak RSS. The resident index mirrors
/// FileMuStore's: constraint -> sorted {subspace, size, record location}
/// entries, so Size()/Empty() stay O(1) and IO happens only on bucket
/// reads and writes that miss the cache.
///
/// Allocation: records that fit one page are bump-allocated into a shared
/// "open" page (sealed when full); larger records get a private contiguous
/// page run. Overwrites reuse the slot in place when the bucket shrank,
/// else relocate; dead bytes from relocations and shrinks are reclaimed by
/// a compaction sweep that rewrites all live records into fresh pages once
/// allocated bytes exceed twice the live bytes.
///
/// Observer semantics match the memory store: OnBucketChanged fires on
/// every mutation with the bucket's new contents (NotifiesObservers() is
/// true), and eviction/reload of a record's pages is logically invisible —
/// a SkybandIndex shadow stays live across spills. Dirty tracking is
/// supported for delta checkpoints. Like FileMuStore, IO errors latch into
/// status() and the store keeps serving (unreadable pages decode as zeroed,
/// i.e. empty history).
class PagedMuStore : public MuStore {
 public:
  explicit PagedMuStore(PagedStoreOptions options);

  Context* GetOrCreate(const Constraint& c) override;
  Context* Find(const Constraint& c) override;

  void ForEachBucket(
      const std::function<void(const Constraint&, MeasureMask,
                               const std::vector<TupleId>&)>& fn) override;

  const MuStoreStats& stats() const override;
  size_t ApproxMemoryBytes() const override;

  bool NotifiesObservers() const override { return true; }
  bool SupportsDirtyTracking() const override { return true; }

  Status Flush() override { return cache_.Flush(); }

  /// First IO/corruption error from the index or the page cache, if any.
  Status status() const {
    return status_.ok() ? cache_.status() : status_;
  }

  uint64_t DiskBytes() const { return cache_.DiskBytes(); }
  const PageCache& cache() const { return cache_; }
  size_t context_count() const { return contexts_.size(); }
  uint64_t live_bytes() const { return live_bytes_; }
  uint64_t compactions() const { return compactions_; }

  /// Rewrites every live record into fresh pages, releasing dead space.
  /// Runs automatically from the write path; public for tests.
  void Compact();

 private:
  class PagedContext : public Context {
   public:
    explicit PagedContext(PagedMuStore* store) : store_(store) {}

    void Read(MeasureMask m, std::vector<TupleId>* out) override;
    void Write(MeasureMask m, const std::vector<TupleId>& contents) override;
    uint32_t Size(MeasureMask m) const override;
    bool Contains(MeasureMask m, TupleId t) override;
    void Insert(MeasureMask m, TupleId t) override;
    bool Erase(MeasureMask m, TupleId t) override;

    size_t ApproxMemoryBytes() const;

   private:
    friend class PagedMuStore;
    struct Entry {
      MeasureMask mask;
      uint32_t size;               // tuple count; byte length = size * 4
      PageCache::PageId first_page;
      uint32_t offset;             // byte offset in first_page (0 for runs)
      /// True when the record owns its page run exclusively (multi-page
      /// allocations, possibly shrunk since); such pages are freed on
      /// release instead of waiting for compaction.
      bool owns_run;
    };

    int FindEntry(MeasureMask m) const;

    PagedMuStore* store_;
    /// Map key; stable (unordered_map nodes never move). Set on creation.
    const Constraint* constraint_ = nullptr;
    std::vector<Entry> entries_;
  };

  using Entry = PagedContext::Entry;

  uint32_t PagesOf(uint32_t byte_len) const {
    return byte_len == 0 ? 0 : (byte_len - 1) / options_.page_size + 1;
  }

  /// Copies the record's bytes into *out (resized to entry.size).
  void ReadRecord(const Entry& e, std::vector<TupleId>* out);
  /// Places `len` bytes of `data` into a fresh slot (open page or run).
  Entry AllocateRecord(MeasureMask m, const uint8_t* data, uint32_t len);
  /// Releases the record's slot (frees run pages; shared bytes become dead).
  void ReleaseRecord(const Entry& e);
  /// Copies bytes across the record's pages, marking them dirty.
  void WriteBytes(PageCache::PageId first, uint32_t offset,
                  const uint8_t* data, uint32_t len);
  void MaybeCompact();
  void Notify(const PagedContext& ctx, MeasureMask m,
              const std::vector<TupleId>& bucket);

  PagedStoreOptions options_;
  PageCache cache_;
  Status status_;
  std::unordered_map<Constraint, PagedContext, ConstraintHash> contexts_;
  std::vector<TupleId> scratch_;  // reused buffer for read-modify-write ops
  /// Bump allocator state: the shared page partial records append into.
  PageCache::PageId open_page_ = PageCache::kInvalidPage;
  uint32_t open_used_ = 0;
  /// Every page ever used as an open (shared) page and not yet reclaimed;
  /// compaction frees them wholesale after rewriting the live records.
  std::vector<PageCache::PageId> shared_pages_;
  /// Σ record byte lengths; allocated-vs-live drives compaction.
  uint64_t live_bytes_ = 0;
  uint64_t compactions_ = 0;
  mutable MuStoreStats merged_;  // stats() view with cache IO folded in
};

}  // namespace sitfact

#endif  // SITFACT_STORAGE_PAGED_MU_STORE_H_
