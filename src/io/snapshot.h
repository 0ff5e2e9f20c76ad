#ifndef SITFACT_IO_SNAPSHOT_H_
#define SITFACT_IO_SNAPSHOT_H_

#include <memory>
#include <string>

#include "common/status.h"
#include "core/engine.h"
#include "relation/relation.h"

namespace sitfact {

/// Snapshot persistence for streaming restarts.
///
/// A discovery deployment ingests an unbounded stream; losing the process
/// must not mean re-discovering months of history. A snapshot file captures
/// (1) the relation — schema, dictionaries, columns, tombstones — and
/// optionally (2) the engine state: algorithm name, discovery options,
/// prominence config, the context-cardinality counter and every µ-store
/// bucket. Restoring yields an engine that continues exactly where the
/// saved one stopped: the next Append() produces the same facts the
/// uninterrupted run would have produced.
///
/// Format: single binary file, little-endian, "SFSNAPv1" magic, trailing
/// CRC-32 over everything after the magic. Torn writes, truncation and bit
/// flips surface as Status::Corruption on load.
///
/// Restorability: BottomUp/TopDown/SBottomUp/STopDown/FSBottomUp/FSTopDown
/// restore from their bucket dump; BaselineSeq/BruteForce are stateless;
/// BaselineIdx rebuilds its k-d tree from the relation. C-CSC keeps private
/// skycubes and reports Unimplemented on load (re-run the stream instead,
/// via SnapshotLoadOptions::allow_replay_rebuild). Both engine kinds write
/// the same engine section; sharded-engine snapshots ("Sharded") follow
/// Invariant 1 and restore into either engine kind at any shard count, and
/// a snapshot carries no shard geometry; see docs/persistence.md.

/// Options for LoadEngineSnapshot.
struct SnapshotLoadOptions {
  /// Restore under a different algorithm than the one saved. Only sound
  /// within a storage-policy family (e.g. BottomUp -> SBottomUp); loading
  /// rejects cross-policy overrides because the bucket contents follow the
  /// saving algorithm's invariant. Empty keeps the saved algorithm.
  std::string algorithm_override;

  /// Bucket-file directory for FSBottomUp / FSTopDown restores.
  std::string file_store_dir;

  /// Escape hatch for combinations with no fast path (C-CSC, cross-policy
  /// overrides, baseline snapshots restored into µ-store algorithms):
  /// rebuild algorithm state by replaying discovery over every live tuple
  /// of the restored relation, in arrival order. Sound because each
  /// Discover(t) consults only tuples before t plus algorithm state, and
  /// skipping tombstoned tuples reproduces exactly the state Remove() would
  /// have left. Costs one full-stream discovery pass — O(original run).
  bool allow_replay_rebuild = false;

  /// µ-store backend for the restored engine. Snapshots carry bucket
  /// contents, not backend identity (the dump format is backend-agnostic),
  /// so the restore side picks freely — e.g. a run saved in-memory can be
  /// reopened onto the paged store under a tighter cache budget.
  StorageConfig storage;

  /// > 0 restores into a ShardedEngine with this many shards (any K works:
  /// bucket routing is recomputed); algorithm_override is then ignored. Its
  /// segments follow Invariant 1, so a TopDown-family or store-less
  /// snapshot needs allow_replay_rebuild.
  int num_shards = 0;
  int num_threads = 0;  // 0 means num_shards
};

/// A restored engine (either kind) plus the relation it reads (the engine
/// holds a raw pointer into `relation`, so keep both alive together).
struct RestoredEngine {
  std::unique_ptr<Relation> relation;
  std::unique_ptr<DiscoveryEngine> engine;
};

/// Writes a relation-only snapshot (no engine section).
Status SaveRelationSnapshot(const Relation& relation, const std::string& path);

/// Reads a snapshot's relation section (works for both kinds of snapshot).
StatusOr<std::unique_ptr<Relation>> LoadRelationSnapshot(
    const std::string& path);

/// Writes relation + engine state. The engine's µ store (when present) is
/// dumped bucket by bucket; for file-backed stores this reads every bucket
/// file once. A sharded engine's dump is the union of its segments, which
/// follow Invariant 1, so its snapshot also restores into the sequential
/// BottomUp family (LoadEngineSnapshot maps "Sharded" to SBottomUp when no
/// override is given).
Status SaveEngineSnapshot(DiscoveryEngine& engine, const std::string& path);

/// Restores a full engine, sequential or (num_shards > 0) sharded. Fails
/// with Unimplemented when the (possibly overridden) algorithm cannot be
/// rebuilt from a snapshot, InvalidArgument on option/policy mismatches,
/// Corruption on damaged files.
StatusOr<RestoredEngine> LoadEngineSnapshot(
    const std::string& path, const SnapshotLoadOptions& options = {});

}  // namespace sitfact

#endif  // SITFACT_IO_SNAPSHOT_H_
