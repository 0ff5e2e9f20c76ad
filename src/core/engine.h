#ifndef SITFACT_CORE_ENGINE_H_
#define SITFACT_CORE_ENGINE_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/discoverer.h"
#include "core/prominence.h"
#include "relation/relation.h"
#include "skyline/skyband_index.h"
#include "storage/context_counter.h"

namespace sitfact {

/// Everything the engine derives from one arrival.
struct ArrivalReport {
  TupleId tuple = 0;
  /// S_t, canonicalized.
  std::vector<SkylineFact> facts;
  /// Facts with prominence, sorted descending (empty when ranking is off).
  std::vector<RankedFact> ranked;
  /// The paper's prominent facts: top prominence if >= tau (ties included).
  std::vector<RankedFact> prominent;
};

/// Facade tying together the relation, a discovery algorithm, the context
/// counter and prominence ranking: feed rows, get narratable facts. This is
/// the API the examples use, and the one engine type every consumer holds:
/// the sharded engine (exec/sharded_engine.h) is a subclass that overrides
/// only DiscoverLast and AppendBatch.
///
/// Single-writer: one thread calls the mutating methods at a time.
class DiscoveryEngine {
 public:
  struct Config {
    DiscoveryOptions options;
    /// Prominence threshold τ; facts below it are never "prominent".
    double tau = 0.0;
    /// Compute prominence for every fact (requires the algorithm to keep a
    /// µ store — true for BottomUp/TopDown families, false for baselines).
    bool rank_facts = true;
  };

  /// Factory for a discoverer by paper name: BruteForce, BaselineSeq,
  /// BaselineIdx, C-CSC, BottomUp, TopDown, SBottomUp, STopDown,
  /// FSBottomUp, FSTopDown. File-backed variants place bucket files under
  /// `file_store_dir` (required for them).
  static StatusOr<std::unique_ptr<Discoverer>> CreateDiscoverer(
      const std::string& name, const Relation* relation,
      const DiscoveryOptions& options, const std::string& file_store_dir = "");

  /// `relation` must outlive the engine.
  DiscoveryEngine(Relation* relation, std::unique_ptr<Discoverer> discoverer,
                  const Config& config);
  virtual ~DiscoveryEngine() = default;

  DiscoveryEngine(const DiscoveryEngine&) = delete;
  DiscoveryEngine& operator=(const DiscoveryEngine&) = delete;

  /// Appends `row` and discovers its facts.
  ArrivalReport Append(const Row& row);

  /// Streams `rows` through the engine: one report per row, in order, each
  /// identical to what Append would have returned. The default is a loop of
  /// Append; the sharded engine pipelines it.
  virtual std::vector<ArrivalReport> AppendBatch(std::span<const Row> rows);

  /// Runs discovery for a tuple already appended to the relation (it must be
  /// the most recent one).
  virtual ArrivalReport DiscoverLast();

  /// Deletion extension (the paper's future work): tombstones `t`, fixes the
  /// context cardinalities, and repairs the algorithm's state. Fails without
  /// side effects when the algorithm lacks removal support or `t` is not a
  /// live tuple.
  Status Remove(TupleId t);

  /// Update extension (the other half of the paper's "deletion and update"
  /// future work): logically replaces live tuple `t` with `row`. In the
  /// append-only model an update is a remove + re-append, so the corrected
  /// row receives a fresh TupleId (returned inside the report) and is
  /// re-evaluated as the newest arrival — matching the journalism use case
  /// of correcting an erroneous stat line after publication. Fails without
  /// side effects under the same conditions as Remove.
  StatusOr<ArrivalReport> Update(TupleId t, const Row& row);

  Relation& relation() { return *relation_; }
  Discoverer& discoverer() { return *discoverer_; }

  /// The µ-side skyband shadow: attached when ranking is on, the algorithm
  /// keeps a notifying (in-memory) store, and SITFACT_SKYBAND_INDEX is not
  /// "off". Null otherwise (baselines, file stores, escape hatch) — every
  /// consumer falls back to store reads. The sequential engine serves
  /// prominence denominators from it when present; the sharded engine's
  /// shards read their own segments, and the index follows the segmented
  /// store for other consumers.
  const SkybandIndex* skyband_index() const { return skyband_.get(); }

  const ContextCounter& counter() const { return counter_; }
  /// Snapshot restore and count-only WAL replay write the counter directly.
  ContextCounter& mutable_counter() { return counter_; }
  const Config& config() const { return config_; }

  /// Checkpoint hook: writes the engine-state section of a snapshot —
  /// algorithm name, resolved truncation knobs, prominence config, the
  /// context counter, and the µ-store bucket dump. io/snapshot.cc frames it
  /// into a full snapshot file; persist/ reuses the same section for
  /// checkpoints (see docs/persistence.md for the byte layout).
  void SerializeState(BinaryWriter* w);

 private:
  Relation* relation_;
  std::unique_ptr<Discoverer> discoverer_;
  Config config_;
  ContextCounter counter_;
  /// Declared after discoverer_: destruction detaches from the store, which
  /// must still be alive.
  std::unique_ptr<SkybandIndex> skyband_;
};

}  // namespace sitfact

#endif  // SITFACT_CORE_ENGINE_H_
