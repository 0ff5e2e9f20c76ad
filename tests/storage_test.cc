// Unit tests for the µ-store implementations (in-memory and file-backed),
// including stats accounting and IO failure behaviour, plus the context
// counter feeding the prominence measure.

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "core/bottom_up.h"
#include "core/engine.h"
#include "core/shared_top_down.h"
#include "exec/sharded_discoverer.h"
#include "storage/context_counter.h"
#include "storage/file_mu_store.h"
#include "storage/memory_mu_store.h"
#include "storage/page_cache.h"
#include "storage/paged_mu_store.h"
#include "storage/segmented_mu_store.h"
#include "storage/storage_options.h"
#include "test_util.h"

namespace sitfact {
namespace {

namespace fs = std::filesystem;
using testing_util::PaperTableIV;

enum class StoreKind { kMemory, kFile, kPaged };

/// Unique per test AND process: ctest -j runs suites concurrently, and the
/// file-backed stores remove their path on destruction.
std::string UniqueTestPath(const char* prefix) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  std::string name = info != nullptr ? info->name() : "unknown";
  for (char& c : name) {
    if (c == '/') c = '_';  // parameterized test names carry a slash
  }
  return (fs::temp_directory_path() /
          (std::string(prefix) + "_" + std::to_string(::getpid()) + "_" +
           name))
      .string();
}

class MuStoreContractTest : public ::testing::TestWithParam<StoreKind> {
 protected:
  MuStoreContractTest() : data_(PaperTableIV()), relation_(data_.schema()) {
    for (const Row& row : data_.rows()) relation_.Append(row);
    switch (GetParam()) {
      case StoreKind::kFile:
        dir_ = UniqueTestPath("sitfact_store_test");
        store_ = std::make_unique<FileMuStore>(dir_);
        break;
      case StoreKind::kPaged: {
        // Tiny pages and a cache far below the working set, so the contract
        // runs with records straddling evictions and reloads.
        PagedStoreOptions options;
        options.spill_path = UniqueTestPath("sitfact_store_spill");
        options.page_size = 32;
        options.cache_bytes = 64;
        store_ = std::make_unique<PagedMuStore>(std::move(options));
        break;
      }
      case StoreKind::kMemory:
        store_ = std::make_unique<MemoryMuStore>();
        break;
    }
  }

  Dataset data_;

  Constraint C(DimMask mask, TupleId t = 4) const {
    return Constraint::ForTuple(relation_, t, mask);
  }

  Relation relation_;
  std::string dir_;
  std::unique_ptr<MuStore> store_;
};

TEST_P(MuStoreContractTest, FindOnEmptyStoreReturnsNull) {
  EXPECT_EQ(store_->Find(C(0b001)), nullptr);
}

TEST_P(MuStoreContractTest, GetOrCreateIsStableAndIdempotent) {
  MuStore::Context* a = store_->GetOrCreate(C(0b001));
  MuStore::Context* b = store_->GetOrCreate(C(0b001));
  EXPECT_EQ(a, b);
  EXPECT_EQ(store_->Find(C(0b001)), a);
  // A different constraint gets a different context.
  EXPECT_NE(store_->GetOrCreate(C(0b011)), a);
}

TEST_P(MuStoreContractTest, InsertReadEraseRoundTrip) {
  MuStore::Context* ctx = store_->GetOrCreate(C(0b001));
  EXPECT_TRUE(ctx->Empty(0b11));
  ctx->Insert(0b11, 1);
  ctx->Insert(0b11, 4);
  ctx->Insert(0b01, 3);
  EXPECT_EQ(ctx->Size(0b11), 2u);
  EXPECT_EQ(ctx->Size(0b01), 1u);
  EXPECT_EQ(ctx->Size(0b10), 0u);
  EXPECT_TRUE(ctx->Contains(0b11, 1));
  EXPECT_TRUE(ctx->Contains(0b11, 4));
  EXPECT_FALSE(ctx->Contains(0b11, 3));

  std::vector<TupleId> bucket;
  ctx->Read(0b11, &bucket);
  std::sort(bucket.begin(), bucket.end());
  EXPECT_EQ(bucket, (std::vector<TupleId>{1, 4}));

  EXPECT_TRUE(ctx->Erase(0b11, 1));
  EXPECT_FALSE(ctx->Erase(0b11, 1));  // already gone
  EXPECT_FALSE(ctx->Erase(0b10, 7));  // empty bucket
  EXPECT_EQ(ctx->Size(0b11), 1u);
  EXPECT_EQ(store_->stats().stored_tuples, 2u);
}

TEST_P(MuStoreContractTest, WriteReplacesAndEmptyWriteRemoves) {
  MuStore::Context* ctx = store_->GetOrCreate(C(0b011));
  ctx->Write(0b11, {1, 2, 3});
  EXPECT_EQ(ctx->Size(0b11), 3u);
  EXPECT_EQ(store_->stats().stored_tuples, 3u);
  ctx->Write(0b11, {4});
  EXPECT_EQ(ctx->Size(0b11), 1u);
  EXPECT_EQ(store_->stats().stored_tuples, 1u);
  std::vector<TupleId> bucket;
  ctx->Read(0b11, &bucket);
  EXPECT_EQ(bucket, (std::vector<TupleId>{4}));
  ctx->Write(0b11, {});
  EXPECT_TRUE(ctx->Empty(0b11));
  EXPECT_EQ(store_->stats().stored_tuples, 0u);
  ctx->Read(0b11, &bucket);
  EXPECT_TRUE(bucket.empty());
}

TEST_P(MuStoreContractTest, BucketsOfDifferentSubspacesAreIndependent) {
  MuStore::Context* ctx = store_->GetOrCreate(C(0b111));
  for (MeasureMask m = 1; m <= 3; ++m) ctx->Write(m, {m});
  for (MeasureMask m = 1; m <= 3; ++m) {
    std::vector<TupleId> bucket;
    ctx->Read(m, &bucket);
    ASSERT_EQ(bucket.size(), 1u);
    EXPECT_EQ(bucket[0], m);
  }
}

TEST_P(MuStoreContractTest, MemoryAccountingIsPositiveOncepopulated) {
  MuStore::Context* ctx = store_->GetOrCreate(C(0b001));
  ctx->Write(0b01, {1, 2, 3, 4});
  EXPECT_GT(store_->ApproxMemoryBytes(), 0u);
}

TEST_P(MuStoreContractTest, ForEachBucketVisitsExactlyTheNonEmptyBuckets) {
  // Populate three constraints x two subspaces, one of them emptied again.
  store_->GetOrCreate(C(0b001))->Write(0b01, {0, 1});
  store_->GetOrCreate(C(0b001))->Write(0b10, {2});
  store_->GetOrCreate(C(0b011))->Write(0b01, {3, 4, 0});
  store_->GetOrCreate(C(0b111))->Write(0b10, {1});
  store_->GetOrCreate(C(0b111))->Write(0b10, {});  // removed again
  store_->GetOrCreate(C(0b110));                   // entry with no buckets

  std::map<std::pair<DimMask, MeasureMask>, std::vector<TupleId>> seen;
  store_->ForEachBucket([&](const Constraint& c, MeasureMask m,
                            const std::vector<TupleId>& bucket) {
    auto key = std::make_pair(c.bound_mask(), m);
    EXPECT_EQ(seen.count(key), 0u) << "bucket visited twice";
    seen[key] = bucket;
  });

  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ((seen[{0b001, 0b01}]), (std::vector<TupleId>{0, 1}));
  EXPECT_EQ((seen[{0b001, 0b10}]), (std::vector<TupleId>{2}));
  EXPECT_EQ((seen[{0b011, 0b01}]), (std::vector<TupleId>{3, 4, 0}));
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, MuStoreContractTest,
    ::testing::Values(StoreKind::kMemory, StoreKind::kFile,
                      StoreKind::kPaged),
    [](const ::testing::TestParamInfo<StoreKind>& info) {
      switch (info.param) {
        case StoreKind::kMemory:
          return "MemoryMuStore";
        case StoreKind::kFile:
          return "FileMuStore";
        case StoreKind::kPaged:
          return "PagedMuStore";
      }
      return "Unknown";
    });

/// Shadow index maintained purely from BucketObserver callbacks; after any
/// mutation sequence it must agree with a ForEachBucket dump of the store.
class ShadowObserver : public MuStore::BucketObserver {
 public:
  void OnBucketChanged(const Constraint& c, MeasureMask m,
                       const std::vector<TupleId>& bucket) override {
    ++notifications_;
    if (bucket.empty()) {
      shadow_[c].erase(m);
      if (shadow_[c].empty()) shadow_.erase(c);
    } else {
      shadow_[c][m] = bucket;
    }
  }

  void ExpectMatches(MuStore& store) const {  // ForEachBucket is non-const
    size_t dumped = 0;
    store.ForEachBucket([&](const Constraint& c, MeasureMask m,
                            const std::vector<TupleId>& bucket) {
      ++dumped;
      auto it = shadow_.find(c);
      ASSERT_NE(it, shadow_.end()) << "constraint missing from shadow";
      auto bit = it->second.find(m);
      ASSERT_NE(bit, it->second.end()) << "bucket missing from shadow";
      EXPECT_EQ(bit->second, bucket);
    });
    size_t shadow_buckets = 0;
    for (const auto& [c, buckets] : shadow_) shadow_buckets += buckets.size();
    EXPECT_EQ(shadow_buckets, dumped) << "shadow holds stale buckets";
  }

  uint64_t notifications() const { return notifications_; }

 private:
  std::unordered_map<Constraint, std::map<MeasureMask, std::vector<TupleId>>,
                     ConstraintHash>
      shadow_;
  uint64_t notifications_ = 0;
};

// The memory store must emit one notification per bucket mutation, with the
// bucket's new contents, through a full discovery stream plus deletions —
// the feed a downstream per-subspace skyband index would be built on.
TEST(MemoryMuStoreObserver, ShadowTracksDiscoveryStreamAndRemovals) {
  Dataset data = PaperTableIV();
  Relation relation(data.schema());
  SharedTopDownDiscoverer disc(&relation, {});
  ShadowObserver observer;
  disc.mutable_store()->set_bucket_observer(&observer);

  std::vector<SkylineFact> facts;
  for (const Row& row : data.rows()) {
    disc.Discover(relation.Append(row), &facts);
  }
  EXPECT_GT(observer.notifications(), 0u);
  observer.ExpectMatches(*disc.mutable_store());

  // Deleting the global dominator rewrites many buckets; the observer sees
  // every rewrite including emptied buckets.
  relation.MarkDeleted(3);
  ASSERT_TRUE(disc.Remove(3).ok());
  observer.ExpectMatches(*disc.mutable_store());

  // Detaching stops the feed.
  const uint64_t before = observer.notifications();
  disc.mutable_store()->set_bucket_observer(nullptr);
  disc.Discover(relation.Append(Row{{"a3", "b3", "c3"}, {30, 30}}), &facts);
  EXPECT_EQ(observer.notifications(), before);
}

TEST(FileMuStore, CountsFileIoAndTracksDiskBytes) {
  Dataset data = PaperTableIV();
  Relation r(data.schema());
  for (const Row& row : data.rows()) r.Append(row);
  std::string dir = (fs::temp_directory_path() / "sitfact_fio_test").string();
  FileMuStore store(dir);
  MuStore::Context* ctx =
      store.GetOrCreate(Constraint::ForTuple(r, 4, 0b001));

  ctx->Write(0b11, {1, 2});
  EXPECT_EQ(store.stats().file_writes, 1u);
  EXPECT_EQ(store.DiskBytes(), 2 * sizeof(TupleId));

  std::vector<TupleId> bucket;
  ctx->Read(0b11, &bucket);
  EXPECT_EQ(store.stats().file_reads, 1u);

  // Empty buckets cost no IO at all.
  ctx->Read(0b10, &bucket);
  EXPECT_EQ(store.stats().file_reads, 1u);
  EXPECT_TRUE(bucket.empty());

  ctx->Write(0b11, {});
  EXPECT_EQ(store.DiskBytes(), 0u);
  EXPECT_TRUE(store.status().ok());
}

TEST(FileMuStore, SurvivesCorruptedBucketFileWithErrorStatus) {
  Dataset data = PaperTableIV();
  Relation r(data.schema());
  for (const Row& row : data.rows()) r.Append(row);
  std::string dir = (fs::temp_directory_path() / "sitfact_corrupt").string();
  FileMuStore store(dir);
  MuStore::Context* ctx =
      store.GetOrCreate(Constraint::ForTuple(r, 4, 0b001));
  ctx->Write(0b11, {1, 2, 3});

  // Truncate the single bucket file behind the store's back.
  bool truncated = false;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) {
      std::ofstream f(entry.path(), std::ios::trunc | std::ios::binary);
      f << 'x';
      truncated = true;
    }
  }
  ASSERT_TRUE(truncated);

  std::vector<TupleId> bucket;
  ctx->Read(0b11, &bucket);  // degraded read
  EXPECT_FALSE(store.status().ok());
  EXPECT_EQ(store.status().code(), StatusCode::kCorruption);
}

TEST(FileMuStore, CleanupRemovesDirectory) {
  std::string dir = (fs::temp_directory_path() / "sitfact_cleanup").string();
  {
    Dataset data = PaperTableIV();
    Relation r(data.schema());
    for (const Row& row : data.rows()) r.Append(row);
    FileMuStore store(dir);
    store.GetOrCreate(Constraint::ForTuple(r, 4, 0b001))->Write(0b1, {1});
    EXPECT_TRUE(fs::exists(dir));
  }
  EXPECT_FALSE(fs::exists(dir));  // destructor cleans up
}

// ---------------------------------------------------------------------------
// PageCache.

TEST(PageCacheTest, RoundTripsBytesThroughEvictionAndReload) {
  const std::string path = UniqueTestPath("sitfact_pagecache");
  PageCache cache(path, /*page_size=*/64, /*capacity_bytes=*/64);
  const PageCache::PageId p0 = cache.Allocate();
  uint8_t* bytes = cache.Pin(p0);
  for (uint32_t i = 0; i < 64; ++i) bytes[i] = static_cast<uint8_t>(i * 3);
  cache.Unpin(p0, /*dirty=*/true);

  // A second page pushes resident bytes past the one-page budget: p0 must
  // be written back (it is dirty) and evicted.
  const PageCache::PageId p1 = cache.Allocate();
  ASSERT_NE(p0, p1);
  EXPECT_GE(cache.stats().writebacks, 1u);
  EXPECT_GE(cache.stats().evictions, 1u);

  // Reloading p0 is a miss that must restore the exact bytes.
  const uint64_t misses_before = cache.stats().misses;
  bytes = cache.Pin(p0);
  EXPECT_GT(cache.stats().misses, misses_before);
  for (uint32_t i = 0; i < 64; ++i) {
    ASSERT_EQ(bytes[i], static_cast<uint8_t>(i * 3)) << "byte " << i;
  }
  cache.Unpin(p0, /*dirty=*/false);
  EXPECT_TRUE(cache.status().ok());
}

TEST(PageCacheTest, PinnedPagesAreNeverEvicted) {
  const std::string path = UniqueTestPath("sitfact_pagecache");
  PageCache cache(path, /*page_size=*/64, /*capacity_bytes=*/64);
  const PageCache::PageId p0 = cache.Allocate();
  uint8_t* bytes = cache.Pin(p0);
  bytes[0] = 42;

  // Budget pressure from fresh pages may evict anything unpinned, but the
  // pinned frame (and the pointer lease) must survive.
  cache.Allocate();
  cache.Allocate();
  EXPECT_EQ(cache.pinned_pages(), 1u);
  EXPECT_EQ(bytes[0], 42);

  // Re-pinning the resident frame is a hit, not a reload.
  const uint64_t hits_before = cache.stats().hits;
  uint8_t* again = cache.Pin(p0);
  EXPECT_EQ(again, bytes);
  EXPECT_GT(cache.stats().hits, hits_before);
  cache.Unpin(p0, /*dirty=*/false);
  cache.Unpin(p0, /*dirty=*/false);
}

TEST(PageCacheTest, FreedPagesComeBackZeroed) {
  const std::string path = UniqueTestPath("sitfact_pagecache");
  PageCache cache(path, /*page_size=*/64, /*capacity_bytes=*/256);
  const PageCache::PageId p0 = cache.Allocate();
  uint8_t* bytes = cache.Pin(p0);
  std::fill(bytes, bytes + 64, 0xFF);
  cache.Unpin(p0, /*dirty=*/true);
  ASSERT_TRUE(cache.Flush().ok());  // stale bytes now on disk
  cache.Free(p0);

  // The free list hands the slot back; its old disk bytes must not
  // resurface.
  const PageCache::PageId p1 = cache.Allocate();
  EXPECT_EQ(p1, p0);
  bytes = cache.Pin(p1);
  for (uint32_t i = 0; i < 64; ++i) ASSERT_EQ(bytes[i], 0u) << "byte " << i;
  cache.Unpin(p1, /*dirty=*/false);
}

TEST(PageCacheTest, AllocateRunHandsOutContiguousLiveIds) {
  const std::string path = UniqueTestPath("sitfact_pagecache");
  PageCache cache(path, /*page_size=*/64, /*capacity_bytes=*/1024);
  const PageCache::PageId single = cache.Allocate();
  cache.Free(single);  // a free-list entry a run must NOT be built from
  const PageCache::PageId run = cache.AllocateRun(3);
  EXPECT_NE(run, single);
  for (uint32_t i = 0; i < 3; ++i) {
    uint8_t* bytes = cache.Pin(run + i);
    ASSERT_NE(bytes, nullptr);
    cache.Unpin(run + i, /*dirty=*/false);
  }
  EXPECT_EQ(cache.live_pages(), 3u);
}

TEST(PageCacheTest, CorruptSlotLatchesStatusAndServesZeroedPage) {
  const std::string path = UniqueTestPath("sitfact_pagecache");
  PageCache cache(path, /*page_size=*/64, /*capacity_bytes=*/64);
  const PageCache::PageId p0 = cache.Allocate();
  uint8_t* bytes = cache.Pin(p0);
  std::fill(bytes, bytes + 64, 0x5A);
  cache.Unpin(p0, /*dirty=*/true);
  cache.Allocate();  // evicts + writes back p0
  ASSERT_GE(cache.stats().writebacks, 1u);

  // Flip a payload byte of slot 0 behind the cache's back (slot header is
  // magic + CRC, so the payload starts at byte 8).
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.is_open());
    f.seekp(8 + 5);
    const char garbage = 0x00;
    f.write(&garbage, 1);
  }

  bytes = cache.Pin(p0);  // CRC mismatch -> degraded zeroed page
  for (uint32_t i = 0; i < 64; ++i) ASSERT_EQ(bytes[i], 0u) << "byte " << i;
  cache.Unpin(p0, /*dirty=*/false);
  EXPECT_FALSE(cache.status().ok());
  EXPECT_EQ(cache.status().code(), StatusCode::kCorruption);
}

// ---------------------------------------------------------------------------
// PagedMuStore.

TEST(PagedMuStore, ObserverShadowStaysLiveAcrossEvictionAndCompaction) {
  // The observer contract must be unaffected by paging: a SkybandIndex-style
  // shadow built from notifications has to agree with the store through a
  // full discovery stream even when every record repeatedly spills and
  // reloads, and across an explicit compaction sweep.
  Dataset data = PaperTableIV();
  Relation relation(data.schema());
  DiscoveryOptions options;
  options.storage.backend = StorageBackend::kPaged;
  options.storage.page_size = 32;
  options.storage.cache_bytes = 64;  // a fraction of the working set
  SharedTopDownDiscoverer disc(&relation, options);
  ASSERT_TRUE(disc.mutable_store()->SupportsDirtyTracking());

  ShadowObserver observer;
  disc.mutable_store()->set_bucket_observer(&observer);
  std::vector<SkylineFact> facts;
  for (const Row& row : data.rows()) {
    disc.Discover(relation.Append(row), &facts);
  }
  EXPECT_GT(observer.notifications(), 0u);
  observer.ExpectMatches(*disc.mutable_store());

  auto* paged = static_cast<PagedMuStore*>(disc.mutable_store());
  EXPECT_GT(paged->cache().stats().evictions, 0u)
      << "cache budget did not force spills; the test lost its point";
  paged->Compact();
  observer.ExpectMatches(*disc.mutable_store());

  relation.MarkDeleted(3);
  ASSERT_TRUE(disc.Remove(3).ok());
  observer.ExpectMatches(*disc.mutable_store());
  EXPECT_TRUE(paged->status().ok());
}

TEST(PagedMuStore, CompactionReclaimsRelocationGarbage) {
  PagedStoreOptions options;
  options.spill_path = UniqueTestPath("sitfact_paged_compact");
  options.page_size = 64;
  options.cache_bytes = 1024;
  PagedMuStore store(std::move(options));

  // Sub-page records bump-allocate into shared pages, so every relocation
  // (bucket growth) strands dead bytes that only the compaction sweep can
  // reclaim. A wide lattice of small, repeatedly grown buckets drives
  // allocated bytes past twice the live bytes.
  Schema schema({{"d0"}, {"d1"}, {"d2"}, {"d3"}, {"d4"}, {"d5"}, {"d6"}},
                {{"m0", Direction::kLargerIsBetter}});
  Relation r(std::move(schema));
  for (TupleId t = 0; t < 2; ++t) {
    std::vector<std::string> values;
    for (int d = 0; d < 7; ++d) {
      values.push_back("t" + std::to_string(t) + "d" + std::to_string(d));
    }
    r.Append(Row{std::move(values), {1}});
  }
  std::vector<MuStore::Context*> contexts;
  for (TupleId t = 0; t < 2; ++t) {
    for (DimMask mask = 1; mask <= 0b1111111; ++mask) {
      contexts.push_back(store.GetOrCreate(Constraint::ForTuple(r, t, mask)));
    }
  }
  std::vector<TupleId> bucket;
  for (TupleId t = 0; t < 8; ++t) {
    bucket.push_back(t);
    for (MuStore::Context* ctx : contexts) ctx->Write(0b1, bucket);
  }
  ASSERT_GE(store.compactions(), 1u);

  // Every bucket must read back intact after the rewrite.
  std::vector<TupleId> out;
  for (MuStore::Context* ctx : contexts) {
    ctx->Read(0b1, &out);
    ASSERT_EQ(out, bucket);
  }
  EXPECT_TRUE(store.status().ok());
}

TEST(PagedMuStore, SpillFileIsRemovedOnDestruction) {
  const std::string path = UniqueTestPath("sitfact_paged_cleanup");
  {
    PagedStoreOptions options;
    options.spill_path = path;
    PagedMuStore store(std::move(options));
    Dataset data = PaperTableIV();
    Relation r(data.schema());
    for (const Row& row : data.rows()) r.Append(row);
    store.GetOrCreate(Constraint::ForTuple(r, 4, 0b1))->Write(0b1, {1, 2});
    ASSERT_TRUE(store.Flush().ok());
    EXPECT_TRUE(fs::exists(path));
  }
  EXPECT_FALSE(fs::exists(path));
}

TEST(PagedMuStore, FactsMatchMemoryBackendAcrossAllAlgorithms) {
  // The acceptance differential: every algorithm must produce
  // tuple-for-tuple identical facts on the paged backend, under a cache
  // small enough that records actually spill mid-stream.
  testing_util::RandomDataConfig cfg;
  cfg.num_tuples = 60;
  cfg.num_dims = 4;
  cfg.num_measures = 3;
  cfg.seed = 20260808;
  Dataset data = testing_util::RandomDataset(cfg);

  const std::vector<std::string> algorithms = {
      "BruteForce", "BaselineSeq", "BaselineIdx", "C-CSC",     "BottomUp",
      "TopDown",    "SBottomUp",   "STopDown",    "FSBottomUp", "FSTopDown"};
  for (const std::string& name : algorithms) {
    SCOPED_TRACE(name);
    std::vector<std::vector<std::vector<SkylineFact>>> streams;
    for (const StorageBackend backend :
         {StorageBackend::kMemory, StorageBackend::kPaged}) {
      DiscoveryOptions options;
      options.storage.backend = backend;
      options.storage.page_size = 64;
      options.storage.cache_bytes = 4096;
      Relation rel(data.schema());
      std::string dir;
      if (name.rfind("FS", 0) == 0) {
        dir = UniqueTestPath(("sitfact_paged_eq_" + name).c_str());
      }
      auto disc_or =
          DiscoveryEngine::CreateDiscoverer(name, &rel, options, dir);
      ASSERT_TRUE(disc_or.ok()) << disc_or.status().ToString();
      auto disc = std::move(disc_or).value();
      streams.push_back(testing_util::RunStream(&rel, disc.get(), data));
    }
    ASSERT_EQ(streams[0].size(), streams[1].size());
    for (size_t i = 0; i < streams[0].size(); ++i) {
      ASSERT_EQ(streams[0][i], streams[1][i])
          << name << " diverged between memory and paged at arrival " << i;
    }
  }
}

// The fig10 accounting fix, pinned: ApproxMemoryBytes must include the
// per-bucket container overhead (hash nodes, vector headers, allocator
// headers), not just payload bytes — leaving it out undercounted getrusage
// by ~30% at fig10 scale, making cross-backend RSS rows incomparable.
TEST(MemoryMuStoreAccounting, IncludesPerBucketContainerOverhead) {
  Dataset data = PaperTableIV();
  Relation r(data.schema());
  for (const Row& row : data.rows()) r.Append(row);
  MemoryMuStore store;
  for (TupleId t = 0; t < 5; ++t) {
    for (DimMask mask = 1; mask <= 0b111; ++mask) {
      MuStore::Context* ctx = store.GetOrCreate(Constraint::ForTuple(r, t, mask));
      for (MeasureMask m = 1; m <= 0b11; ++m) ctx->Write(m, {0, 1, 2, 3});
    }
  }
  const size_t payload = store.stats().stored_tuples * sizeof(TupleId);
  size_t buckets = 0;
  store.ForEachBucket([&](const Constraint&, MeasureMask,
                          const std::vector<TupleId>&) { ++buckets; });
  ASSERT_GT(buckets, 0u);
  const size_t floor = payload + buckets * kHeapAllocOverhead;
  EXPECT_GT(store.ApproxMemoryBytes(), floor)
      << "ApproxMemoryBytes dropped the per-bucket container overhead";
  // And it stays an approximation, not a wild overcount: within an order of
  // magnitude of payload for this small-bucket workload.
  EXPECT_LT(store.ApproxMemoryBytes(), payload * 40);
}

// ---------------------------------------------------------------------------
// SegmentedMuStore.

class SegmentedMuStoreTest : public ::testing::Test {
 protected:
  SegmentedMuStoreTest()
      : data_(PaperTableIV()),
        relation_(data_.schema()),
        // d = 3 -> 8 masks, spread over 3 segments.
        store_(3, {0, 1, 2, 0, 1, 2, 0, 1}) {
    for (const Row& row : data_.rows()) relation_.Append(row);
  }

  Constraint C(DimMask mask, TupleId t = 4) const {
    return Constraint::ForTuple(relation_, t, mask);
  }

  Dataset data_;
  Relation relation_;
  SegmentedMuStore store_;
};

TEST_F(SegmentedMuStoreTest, RoutesConstraintsByMaskDeterministically) {
  MuStore::Context* a = store_.GetOrCreate(C(0b001));
  EXPECT_EQ(store_.Find(C(0b001)), a);
  EXPECT_EQ(store_.GetOrCreate(C(0b001)), a);
  // The handle lives in the owning segment and nowhere else.
  EXPECT_EQ(store_.SegmentOf(0b001), 1);
  EXPECT_EQ(store_.segment(1)->Find(C(0b001)), a);
  EXPECT_EQ(store_.segment(0)->Find(C(0b001)), nullptr);
  EXPECT_EQ(store_.segment(2)->Find(C(0b001)), nullptr);
  // Same mask, different bound values: same segment, distinct context.
  MuStore::Context* b = store_.GetOrCreate(C(0b001, /*t=*/2));
  EXPECT_NE(a, b);
  EXPECT_EQ(store_.segment(1)->Find(C(0b001, /*t=*/2)), b);
}

TEST_F(SegmentedMuStoreTest, StatsAggregateAcrossSegments) {
  // Regression for the segmented-store satellite: MuStore::stats() must be
  // the fold of the per-segment counters, not the (never-written) base
  // counters, or StoredTupleCount()/the bench harness read zeros.
  store_.GetOrCreate(C(0b001))->Write(0b01, {0, 1, 2});  // segment 1
  store_.GetOrCreate(C(0b010))->Write(0b01, {3});        // segment 2
  store_.GetOrCreate(C(0b011))->Write(0b11, {0, 4});     // segment 0
  EXPECT_EQ(store_.stats().stored_tuples, 6u);
  EXPECT_EQ(store_.stats().bucket_writes, 3u);

  std::vector<TupleId> bucket;
  store_.Find(C(0b010))->Read(0b01, &bucket);
  EXPECT_EQ(store_.stats().bucket_reads, 1u);

  store_.Find(C(0b001))->Write(0b01, {});  // emptied again
  EXPECT_EQ(store_.stats().stored_tuples, 3u);
  EXPECT_GT(store_.ApproxMemoryBytes(), 0u);
}

TEST_F(SegmentedMuStoreTest, ForEachBucketVisitsEverySegmentOnce) {
  store_.GetOrCreate(C(0b001))->Write(0b01, {0, 1});
  store_.GetOrCreate(C(0b010))->Write(0b10, {2});
  store_.GetOrCreate(C(0b100))->Write(0b01, {3});
  std::map<std::pair<DimMask, MeasureMask>, std::vector<TupleId>> seen;
  store_.ForEachBucket([&](const Constraint& c, MeasureMask m,
                           const std::vector<TupleId>& bucket) {
    auto key = std::make_pair(c.bound_mask(), m);
    EXPECT_EQ(seen.count(key), 0u) << "bucket visited twice";
    seen[key] = bucket;
  });
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ((seen[{0b001, 0b01}]), (std::vector<TupleId>{0, 1}));
  EXPECT_EQ((seen[{0b010, 0b10}]), (std::vector<TupleId>{2}));
  EXPECT_EQ((seen[{0b100, 0b01}]), (std::vector<TupleId>{3}));
}

TEST_F(SegmentedMuStoreTest, ObserverForwardsToEverySegment) {
  // Regression for the observer satellite: mutations run against per-shard
  // segments, so a registration kept only on the composite would never
  // fire. set_bucket_observer must fan out to every segment, and clearing
  // it must silence all of them again.
  ShadowObserver observer;
  store_.set_bucket_observer(&observer);
  EXPECT_TRUE(store_.NotifiesObservers());

  store_.GetOrCreate(C(0b001))->Write(0b01, {0, 1});   // segment 1
  store_.GetOrCreate(C(0b010))->Write(0b10, {2});      // segment 2
  store_.GetOrCreate(C(0b011))->Write(0b11, {3, 4});   // segment 0
  store_.segment(0)->Find(C(0b011))->Write(0b11, {3});  // shard's direct path
  EXPECT_EQ(observer.notifications(), 4u);
  observer.ExpectMatches(store_);

  store_.Find(C(0b001))->Write(0b01, {});  // emptied -> erased from shadow
  observer.ExpectMatches(store_);

  store_.set_bucket_observer(nullptr);
  const uint64_t before = observer.notifications();
  store_.GetOrCreate(C(0b100))->Write(0b01, {5});
  EXPECT_EQ(observer.notifications(), before);
}

TEST(SegmentedMuStore, DiscovererAggregationMatchesSequentialStore) {
  // Discoverer::StoredTupleCount()/ApproxMemoryBytes() must aggregate over
  // segmented µ stores exactly as they do over a monolithic one.
  Dataset data = PaperTableIV();

  Relation seq_rel(data.schema());
  BottomUpDiscoverer seq(&seq_rel, {});
  Relation par_rel(data.schema());
  ShardedDiscoverer par(&par_rel, {}, /*num_shards=*/3, /*num_threads=*/2);

  std::vector<SkylineFact> facts;
  for (const Row& row : data.rows()) {
    TupleId t = seq_rel.Append(row);
    facts.clear();
    seq.Discover(t, &facts);
    t = par_rel.Append(row);
    facts.clear();
    par.Discover(t, &facts);

    ASSERT_EQ(par.StoredTupleCount(), seq.StoredTupleCount());
    EXPECT_EQ(par.store()->stats().stored_tuples, par.StoredTupleCount());
    EXPECT_GT(par.ApproxMemoryBytes(), 0u);
  }
  EXPECT_GT(par.StoredTupleCount(), 0u);
}

// ---------------------------------------------------------------------------
// ContextCounter.

TEST(ContextCounter, CountsEveryTupleSatisfiedConstraint) {
  Dataset data = PaperTableIV();
  Relation r(data.schema());
  ContextCounter counter(3);
  for (const Row& row : data.rows()) {
    counter.OnArrival(r, r.Append(row));
  }
  // ⊤ counts everything.
  EXPECT_EQ(counter.Count(Constraint::Top(3)), 5u);
  // d1=a1: t1, t2, t5.
  EXPECT_EQ(counter.Count(Constraint::ForTuple(r, 4, 0b001)), 3u);
  // <a1,b1,c1>: t2, t5.
  EXPECT_EQ(counter.Count(Constraint::ForTuple(r, 4, 0b111)), 2u);
  // <a2,b1,c1>: t4 alone.
  EXPECT_EQ(counter.Count(Constraint::ForTuple(r, 3, 0b111)), 1u);
  // Unseen constraint.
  Constraint unseen = Constraint::ForTuple(r, 0, 0b111);  // <a1,b2,c2> -> t1
  EXPECT_EQ(counter.Count(unseen), 1u);
}

TEST(ContextCounter, HonorsMaxBound) {
  Dataset data = PaperTableIV();
  Relation r(data.schema());
  ContextCounter counter(1);
  for (const Row& row : data.rows()) {
    counter.OnArrival(r, r.Append(row));
  }
  EXPECT_EQ(counter.Count(Constraint::ForTuple(r, 4, 0b001)), 3u);
  // Two-attribute constraints are never counted under max_bound=1.
  EXPECT_EQ(counter.Count(Constraint::ForTuple(r, 4, 0b011)), 0u);
  EXPECT_GT(counter.ApproxMemoryBytes(), 0u);
}

}  // namespace
}  // namespace sitfact
