#ifndef SITFACT_QUERY_FACT_INDEX_H_
#define SITFACT_QUERY_FACT_INDEX_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "core/engine.h"
#include "core/fact.h"
#include "core/narrator.h"
#include "lattice/constraint.h"
#include "relation/relation.h"

namespace sitfact {

/// Chunked vector with structural sharing, the storage primitive behind the
/// fact index's epoch snapshots. Elements live in fixed-capacity chunks held
/// by shared_ptr; copying a CowVec copies only the chunk-pointer table, so a
/// snapshot of an N-element vector costs O(N / kChunkSize) pointer copies.
///
/// Ownership protocol (the whole concurrency argument): exactly one writer
/// thread mutates a CowVec, and only through PushBack/Mutate. Seal() marks
/// every chunk as shared; after that, the next mutation of a chunk clones it
/// first (copy-on-write), so chunks reachable from a sealed copy are never
/// written again. Readers therefore access snapshot copies without locks:
/// all data reachable from a copy taken after Seal() is immutable.
template <typename T>
class CowVec {
 public:
  static constexpr size_t kChunkSize = 256;

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  const T& operator[](size_t i) const {
    return (*chunks_[i / kChunkSize])[i % kChunkSize];
  }

  /// Appends one element (writer thread only). Clones the tail chunk when a
  /// sealed copy still shares it.
  void PushBack(T value) {
    const size_t chunk = size_ / kChunkSize;
    if (chunk == chunks_.size()) {
      chunks_.push_back(std::make_shared<Chunk>());
      chunks_.back()->reserve(kChunkSize);
      owned_.push_back(true);
    } else if (!owned_[chunk]) {
      CloneChunk(chunk);
    }
    chunks_[chunk]->push_back(std::move(value));
    ++size_;
  }

  /// Mutable access to element `i` (writer thread only); clones the holding
  /// chunk when it is shared with a sealed copy.
  T& Mutate(size_t i) {
    const size_t chunk = i / kChunkSize;
    if (!owned_[chunk]) CloneChunk(chunk);
    return (*chunks_[chunk])[i % kChunkSize];
  }

  /// Marks every chunk as shared. Call immediately before handing out a
  /// copy; afterwards no chunk reachable from that copy is ever mutated.
  void Seal() { owned_.assign(owned_.size(), false); }

 private:
  using Chunk = std::vector<T>;

  void CloneChunk(size_t chunk) {
    // Copy with full capacity up front: the clone happens on the append /
    // mutate hot path, and a bare vector copy would size capacity to fit
    // and reallocate again on the very next PushBack.
    auto clone = std::make_shared<Chunk>();
    clone->reserve(kChunkSize);
    clone->insert(clone->end(), chunks_[chunk]->begin(),
                  chunks_[chunk]->end());
    chunks_[chunk] = std::move(clone);
    owned_[chunk] = true;
  }

  std::vector<std::shared_ptr<Chunk>> chunks_;
  /// owned_[i] == true means chunks_[i] is private to this instance and may
  /// be written in place. Copies inherit the flags but are never mutated
  /// (snapshots are const), so the flags are only meaningful on the writer's
  /// instance.
  std::vector<bool> owned_;
  size_t size_ = 0;
};

/// Record-id list behind the serving band (the index's one TopK-ordered
/// list): chunks of ids with the same structural sharing and Seal protocol
/// as CowVec, but ordered inserts are keyed by a predicate instead of a
/// position. An insert binary-searches the chunk table by each chunk's last
/// element, shifts within that single chunk, and splits a chunk that
/// outgrows kChunkSize — O(log chunks + kChunkSize) per insert, where a
/// positional suffix shift would make band maintenance quadratic in the
/// record count (measured: ~7x on ingest at n=1500). The band is never
/// indexed by position — readers scan in order or binary-search by key —
/// so the class exposes iterators, not operator[].
class BandVec {
 public:
  static constexpr size_t kChunkSize = 256;

  /// Forward scan position. Valid only while the owning BandVec is alive
  /// and (on the writer's instance) unmodified.
  class Iterator {
   public:
    uint32_t operator*() const { return (*vec_->chunks_[chunk_])[off_]; }
    bool AtEnd() const { return chunk_ == vec_->chunks_.size(); }
    void Next() {
      if (++off_ == vec_->chunks_[chunk_]->size()) {
        ++chunk_;
        off_ = 0;
      }
    }

   private:
    friend class BandVec;
    Iterator(const BandVec* vec, size_t chunk, size_t off)
        : vec_(vec), chunk_(chunk), off_(off) {}
    const BandVec* vec_;
    size_t chunk_;
    size_t off_;
  };

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  Iterator begin() const { return Iterator(this, 0, 0); }

  /// Ordered insert (writer thread only). `sorts_before(e)` answers "does
  /// the new value order strictly before existing element e" and must be
  /// monotone along the list (false then true); the value lands at the
  /// first true position. Returns the number of entries shifted (all within
  /// one chunk).
  template <typename Pred>
  size_t Insert(uint32_t value, Pred&& sorts_before) {
    if (size_ == 0) {
      AppendChunk();
      chunks_.back()->push_back(value);
      ++size_;
      return 0;
    }
    // First chunk whose last element the value sorts before holds the slot;
    // no such chunk means the value goes at the very end.
    size_t lo = 0;
    size_t hi = chunks_.size();
    while (lo < hi) {
      const size_t mid = lo + (hi - lo) / 2;
      if (sorts_before(chunks_[mid]->back())) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
    const size_t c = lo == chunks_.size() ? chunks_.size() - 1 : lo;
    if (!owned_[c]) CloneChunk(c);
    Chunk& chunk = *chunks_[c];
    size_t plo = 0;
    size_t phi = chunk.size();
    while (plo < phi) {
      const size_t mid = plo + (phi - plo) / 2;
      if (sorts_before(chunk[mid])) {
        phi = mid;
      } else {
        plo = mid + 1;
      }
    }
    chunk.insert(chunk.begin() + static_cast<ptrdiff_t>(plo), value);
    ++size_;
    const size_t shifted = chunk.size() - 1 - plo;
    if (chunk.size() > kChunkSize) SplitChunk(c);
    return shifted;
  }

  /// First position with `pred(element)` true; `pred` must be monotone
  /// along the list (false then true). End iterator when none.
  template <typename Pred>
  Iterator LowerBound(Pred&& pred) const {
    size_t lo = 0;
    size_t hi = chunks_.size();
    while (lo < hi) {
      const size_t mid = lo + (hi - lo) / 2;
      if (pred(chunks_[mid]->back())) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
    if (lo == chunks_.size()) return Iterator(this, lo, 0);
    const Chunk& chunk = *chunks_[lo];
    size_t plo = 0;
    size_t phi = chunk.size();
    while (plo < phi) {
      const size_t mid = plo + (phi - plo) / 2;
      if (pred(chunk[mid])) {
        phi = mid;
      } else {
        plo = mid + 1;
      }
    }
    return Iterator(this, lo, plo);
  }

  /// Marks every chunk as shared; same contract as CowVec::Seal.
  void Seal() { owned_.assign(owned_.size(), false); }

 private:
  using Chunk = std::vector<uint32_t>;

  void AppendChunk() {
    chunks_.push_back(std::make_shared<Chunk>());
    chunks_.back()->reserve(kChunkSize + 1);
    owned_.push_back(true);
  }

  void CloneChunk(size_t chunk) {
    auto clone = std::make_shared<Chunk>();
    clone->reserve(kChunkSize + 1);
    clone->insert(clone->end(), chunks_[chunk]->begin(),
                  chunks_[chunk]->end());
    chunks_[chunk] = std::move(clone);
    owned_[chunk] = true;
  }

  void SplitChunk(size_t c) {
    Chunk& left = *chunks_[c];
    auto right = std::make_shared<Chunk>();
    right->reserve(kChunkSize + 1);
    const size_t half = left.size() / 2;
    right->assign(left.begin() + static_cast<ptrdiff_t>(half), left.end());
    left.resize(half);
    chunks_.insert(chunks_.begin() + static_cast<ptrdiff_t>(c) + 1,
                   std::move(right));
    owned_.insert(owned_.begin() + static_cast<ptrdiff_t>(c) + 1, true);
  }

  std::vector<std::shared_ptr<Chunk>> chunks_;
  std::vector<bool> owned_;
  size_t size_ = 0;
};

/// One indexed fact: a (C, M) pair discovered for `tuple` at its arrival,
/// with the at-arrival prominence numbers. The index serves the stream of
/// ArrivalReports, so prominence is "as of the arrival that minted the
/// fact" — exactly what the engine reported, not a value that silently
/// drifts as later tuples change the denominators.
struct FactRecord {
  TupleId tuple = 0;
  /// Position of the minting arrival in the ingestion stream (0-based).
  uint64_t arrival_seq = 0;
  SkylineFact fact;
  uint64_t context_size = 0;   // |σ_C(R)| at arrival
  uint64_t skyline_size = 0;   // |λ_M(σ_C(R))| at arrival
  double prominence = 0.0;     // context_size / skyline_size, 0 when unranked
  /// Member of the arrival's prominent selection (top prominence >= τ).
  bool prominent = false;
  /// False when the engine ran with ranking off; the numbers above are 0.
  bool ranked = false;
  /// Cleared when the owning tuple is removed (or updated away).
  bool live = true;
};

/// Conjunctive filter over fact records; default-constructed matches every
/// live record.
struct FactFilter {
  /// Only facts minted for this tuple.
  std::optional<TupleId> tuple;
  /// Exact constraint shape: the record's bound-attribute mask must equal.
  std::optional<DimMask> bound_mask;
  /// Exact measure subspace.
  std::optional<MeasureMask> subspace;
  /// "Facts about": the record's constraint must bind at least these
  /// attribute=value pairs (Def. 5 subsumption — record ⊑ about). The
  /// newsroom query "what is prominent about LeBron" is
  /// about = (player=LeBron).
  std::optional<Constraint> about;
  /// Inclusive arrival-sequence window.
  uint64_t min_arrival = 0;
  uint64_t max_arrival = std::numeric_limits<uint64_t>::max();
  double min_prominence = 0.0;
  bool prominent_only = false;
  /// Also match records of removed tuples.
  bool include_dead = false;

  bool Matches(const FactRecord& r) const;
};

/// Resumable position within the TopK order (prominence descending, record
/// id ascending). A cursor names the last record already returned; the next
/// page starts strictly after it. Record ids never reorder and new arrivals
/// only append, so a cursor taken at epoch E remains valid at every later
/// epoch: no old record is ever skipped or repeated (new records that would
/// sort before the cursor are simply not revisited — standard forward-only
/// pagination).
struct TopKCursor {
  double prominence = 0.0;
  uint32_t record_id = 0;
};

/// One page of record ids in the serving call's order. `next` is set exactly
/// when the same snapshot holds a further match past the page, so a page
/// without `next` ends the scan.
struct TopKResult {
  std::vector<uint32_t> record_ids;
  std::optional<TopKCursor> next;
};

/// An immutable epoch of the fact index. Readers obtain one via
/// FactIndex::Acquire() and query it without any coordination with the
/// writer: every byte reachable from a snapshot is frozen (see CowVec).
class FactIndexSnapshot {
 public:
  /// Per-arrival directory entry: the contiguous record run the arrival
  /// appended.
  struct ArrivalEntry {
    TupleId tuple = 0;
    uint32_t record_begin = 0;
    uint32_t record_count = 0;
    bool live = true;
  };

  static constexpr uint32_t kNoArrival =
      std::numeric_limits<uint32_t>::max();

  /// Maintenance counters of the TopK-ordered serving band, published with
  /// each epoch (cumulative since index construction; /statz renders them).
  struct SkybandStats {
    uint64_t band_inserts = 0;     ///< sorted insertions into the band
    uint64_t shifted_records = 0;  ///< entries shifted to keep band order
  };

  /// Mutations applied when this epoch was published.
  uint64_t epoch() const { return epoch_; }
  /// Arrivals folded in (== the next arrival_seq).
  uint64_t arrivals() const { return arrivals_.size(); }
  size_t fact_count() const { return records_.size(); }

  const FactRecord& record(uint32_t id) const { return records_[id]; }
  /// Pre-rendered narration for record `id`; empty when narration storage
  /// was off.
  const std::string& narration(uint32_t id) const;

  /// Top-k by at-arrival prominence (descending; ties broken by record id
  /// ascending, i.e. arrival order). Walks the TopK-ordered band from just
  /// after the cursor, checks every filter field (shape, subspace, about,
  /// window, prominence) per record, and stops at the (k+1)-th match, which
  /// is what sets `next`.
  TopKResult TopK(size_t k, const FactFilter& filter = {},
                  const std::optional<TopKCursor>& cursor =
                      std::nullopt) const;

  /// One page of the records minted at `t`'s arrival, in report (record id
  /// ascending) order: start strictly after the cursor's record id, take up
  /// to k, set `next` exactly when a further match exists. Same cursor
  /// contract as TopK (only `record_id` orders these scans).
  TopKResult FactsForTuple(TupleId t, const FactFilter& filter, size_t k,
                           const std::optional<TopKCursor>& cursor =
                               std::nullopt) const;

  /// One page of the records minted by arrivals in
  /// [first_arrival, last_arrival] (inclusive; clamped to the snapshot's
  /// range), record id ascending; same cursor contract as FactsForTuple.
  TopKResult FactsInWindow(uint64_t first_arrival, uint64_t last_arrival,
                           const FactFilter& filter, size_t k,
                           const std::optional<TopKCursor>& cursor =
                               std::nullopt) const;

  /// Directory access for consistency checks (tests) and window math.
  size_t arrival_count() const { return arrivals_.size(); }
  const ArrivalEntry& arrival(uint64_t seq) const { return arrivals_[seq]; }
  /// Arrival seq of tuple `t`, or kNoArrival.
  uint32_t ArrivalOfTuple(TupleId t) const;

  const SkybandStats& skyband_stats() const { return skyband_stats_; }

 private:
  friend class FactIndex;

  CowVec<FactRecord> records_;
  /// Parallel to records_; empty strings when narration storage is off.
  CowVec<std::string> narrations_;
  CowVec<ArrivalEntry> arrivals_;
  /// TupleId -> arrival seq (kNoArrival for ids the index never saw).
  CowVec<uint32_t> tuple_to_arrival_;
  /// Every record id in TopK order (prominence descending, id ascending);
  /// TopK serves all its filters from this one walk.
  BandVec topk_order_;
  uint64_t epoch_ = 0;
  SkybandStats skyband_stats_;

  /// Appends match `id` to `page`; when the page already holds k ids it
  /// sets `next` to the last one instead and returns true (stop scanning).
  bool AddMatch(uint32_t id, size_t k, TopKResult* page) const;
};

/// Secondary index over the stream of discovered facts, maintained
/// incrementally by the single ingestion thread and served to any number of
/// concurrent readers through epoch-versioned immutable snapshots.
///
/// Threading contract: exactly one writer thread calls
/// ApplyArrival/ApplyRemove/ApplyUpdate/Publish (the same thread that drives
/// the discovery engine — FactFeed's worker when the feed is used). Any
/// thread may call Acquire() at any time; the snapshot it returns is frozen
/// forever, so readers never observe a torn epoch. Writer-side cost per
/// publish is O(chunks) pointer copies, not O(facts) — see CowVec.
class FactIndex {
 public:
  struct Options {
    /// Publish a fresh epoch every N applied mutations (>= 1). Readers see
    /// at most N-1 mutations of lag; 1 publishes after every op.
    uint64_t publish_every = 1;
    /// Pre-render a narration per record at apply time (the writer thread
    /// owns the Relation, so rendering later from reader threads would race
    /// ingestion; storing the string is what makes Explain snapshot-safe).
    bool store_narrations = true;
    /// Dimension naming the acting entity for narration; -1 for none.
    int entity_dim = -1;
  };

  /// `relation` must outlive the index and is read only from the writer
  /// thread (narration rendering at apply time).
  FactIndex(const Relation* relation, Options options);
  explicit FactIndex(const Relation* relation)
      : FactIndex(relation, Options()) {}

  FactIndex(const FactIndex&) = delete;
  FactIndex& operator=(const FactIndex&) = delete;

  /// Folds one arrival's report into the index. Records are stored in
  /// report order: the ranked list when present (prominence descending),
  /// the canonical fact list otherwise.
  void ApplyArrival(const ArrivalReport& report);

  /// Marks tuple `t`'s records dead. Fails when the index never saw `t` or
  /// it is already dead.
  Status ApplyRemove(TupleId t);

  /// Update = remove + re-append (mirrors the engines): kills
  /// `removed_tuple`'s records and folds in the replacement arrival.
  Status ApplyUpdate(TupleId removed_tuple, const ArrivalReport& readded);

  /// Publishes the current state as a fresh epoch regardless of
  /// publish_every (e.g. before a planned handoff).
  void Publish();

  /// Current epoch snapshot; never null. Any thread.
  std::shared_ptr<const FactIndexSnapshot> Acquire() const;

  /// Mutations applied so far (writer thread only; readers use
  /// snapshot->epoch()).
  uint64_t applied_ops() const { return work_.epoch_; }

 private:
  void MaybePublish();
  void AddRecord(const ArrivalReport& report, const SkylineFact& fact,
                 const RankedFact* ranked, uint64_t arrival_seq);

  const Relation* relation_;
  Options options_;
  FactNarrator narrator_;

  /// Writer-private builder state; published copies share its chunks.
  FactIndexSnapshot work_;
  uint64_t last_published_epoch_ = 0;

  mutable std::mutex publish_mu_;
  std::shared_ptr<const FactIndexSnapshot> published_;
};

}  // namespace sitfact

#endif  // SITFACT_QUERY_FACT_INDEX_H_
