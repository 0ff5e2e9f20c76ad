#ifndef SITFACT_PERSIST_DURABLE_ENGINE_H_
#define SITFACT_PERSIST_DURABLE_ENGINE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/engine.h"
#include "persist/wal.h"
#include "relation/relation.h"

namespace sitfact {
namespace persist {

/// Knobs for a durable store; the engine-shape fields are consulted only
/// when `dir` is created (reopening takes the algorithm and truncation knobs
/// from the newest snapshot), except `num_shards`/`num_threads`, which pick
/// the engine kind every time — snapshots carry no shard geometry, so a
/// store written by the sequential engine reopens sharded and vice versa.
struct DurableOptions {
  /// Directory holding snapshot-<seq>.sfsnap and wal-<seq>.sfwal files.
  std::string dir;

  /// Auto-Checkpoint() after this many logged ops; 0 checkpoints only on
  /// explicit Checkpoint() calls.
  uint64_t checkpoint_every = 0;

  /// fsync the WAL after every op. Off, a kill loses nothing (records are
  /// fflush()ed) but a power failure may lose the ops the OS had not yet
  /// written back.
  bool sync_every_op = false;

  /// Checkpoint as bucket-granular deltas (delta-<seq>.sfdelta) chained off
  /// the last full snapshot whenever the backend can — the algorithm's µ
  /// store tracks dirty buckets (memory/paged/segmented stores) and the
  /// algorithm restores from bucket dumps. A delta records only the buckets
  /// mutated since the previous checkpoint, so on append-heavy streams it
  /// is a small fraction of a full snapshot. Algorithms without that
  /// support (C-CSC, the baselines, the file-backed FS* stores) silently
  /// keep writing full snapshots.
  bool delta_checkpoints = true;

  /// Every Nth checkpoint writes a full snapshot instead of extending the
  /// delta chain, bounding both recovery time (count-only WAL replay spans
  /// at most N checkpoint intervals) and WAL retention. Values < 1 are
  /// treated as 1 (full snapshots only).
  int full_snapshot_every = 8;

  // --- creation-time engine shape ---
  std::string algorithm = "STopDown";
  DiscoveryOptions discovery;
  double tau = 0.0;
  bool rank_facts = true;
  /// > 0 selects the sharded backend with this K.
  int num_shards = 0;
  int num_threads = 0;
  /// Bucket-file directory for FSBottomUp / FSTopDown; empty defaults to
  /// `<dir>/fs_store` so the store stays self-contained.
  std::string file_store_dir;
  /// Recovery escape hatch forwarded to the snapshot loaders: rebuild
  /// non-restorable algorithm state (C-CSC, cross-policy restores) by
  /// replaying discovery over the restored relation.
  bool allow_replay_rebuild = false;
};

/// One numbered file (snapshot or WAL segment) of a durable store.
struct StoreFile {
  uint64_t seq = 0;
  std::string path;
};

/// The store's WAL segments / snapshots, ascending by sequence number.
/// Tooling (wal-dump) shares these with the recovery path so the two can
/// never disagree on what counts as a segment.
std::vector<StoreFile> ListWalSegments(const std::string& dir);
std::vector<StoreFile> ListSnapshots(const std::string& dir);
/// Delta checkpoints (delta-<seq>.sfdelta), named by the sequence number
/// their state is current through.
std::vector<StoreFile> ListDeltas(const std::string& dir);

/// What Open() had to do to get back to a consistent state.
struct RecoveryInfo {
  /// True when Open() created the store (empty dir).
  bool created = false;
  /// Sequence number of the snapshot that seeded the state.
  uint64_t snapshot_seq = 0;
  /// Delta checkpoints applied on top of the snapshot. Ops the chain covers
  /// are folded count-only (relation + context counter, no discovery); ops
  /// past the chain replay in full.
  uint64_t delta_chain = 0;
  uint64_t count_only_ops = 0;
  /// WAL ops replayed on top of it.
  uint64_t replayed_ops = 0;
  /// True when a torn or corrupt WAL tail was dropped; `note` says where.
  /// Ops past the drop point never happened as far as the store is
  /// concerned — the producer re-sends from next_seq() (at-least-once).
  bool tail_truncated = false;
  std::string note;
  /// Why the delta chain stopped short (corrupt/mismatched delta), if it did.
  std::string delta_note;
};

/// Crash-safe facade over a DiscoveryEngine of either kind
/// (docs/persistence.md).
///
/// Every mutation is framed into the write-ahead log before it touches the
/// engine; Checkpoint() serializes the full engine state (µ store, context
/// counter, relation, arrival cursor) into a CRC-checked snapshot, rotates
/// the log, and prunes files the snapshot made redundant. Open() recovers by
/// loading the newest valid snapshot and replaying the WAL tail, so a
/// process that dies between checkpoints resumes exactly where it stopped:
/// the restored engine produces tuple-for-tuple the reports an uninterrupted
/// run would have produced (tests/persist_recovery_test.cc is the
/// differential proof).
///
/// Single-writer like every engine here: one thread calls the mutating
/// methods at a time (FactFeed provides the queue when producers are many).
class DurableEngine {
 public:
  /// Creates the store (writing a genesis snapshot at seq 0) when `dir` has
  /// none, otherwise recovers. `schema` is required at creation and checked
  /// against the recovered relation otherwise (pass a default-constructed
  /// Schema to skip the check).
  static StatusOr<std::unique_ptr<DurableEngine>> Open(
      const DurableOptions& options, const Schema& schema);

  ~DurableEngine();

  DurableEngine(const DurableEngine&) = delete;
  DurableEngine& operator=(const DurableEngine&) = delete;

  /// Logs then applies one arrival. A returned error means the op is NOT
  /// durable (WAL write failed). The auto-checkpoint policy runs after the
  /// op; its failure never fails the op — the rows are durable in the WAL
  /// regardless — and is surfaced through checkpoint_status() instead.
  StatusOr<ArrivalReport> Append(const Row& row);

  /// Logs rows until the WAL rejects one, then applies the durable prefix
  /// through the engine's AppendBatch (pipelined when it is sharded),
  /// handing `sink` each report exactly as the engine does. Returns the
  /// first WAL error, if any, only after the prefix's reports reached the
  /// sink: a mid-batch disk failure still leaves a durable, applied prefix
  /// whose reports an at-least-once producer cannot re-derive later.
  Status AppendBatch(std::span<const Row> rows,
                     const DiscoveryEngine::ReportSink& sink);

  /// Logs then applies a deletion / an update (remove + re-append).
  Status Remove(TupleId t);
  StatusOr<ArrivalReport> Update(TupleId t, const Row& row);

  /// Snapshots the engine, rotates the WAL, prunes redundant files.
  Status Checkpoint();

  /// Outcome of the most recent auto-checkpoint (Ok before the first one).
  /// A failure here is advisory — every op is still WAL-durable, recovery
  /// just replays a longer tail — and the policy retries on the next op.
  const Status& checkpoint_status() const { return checkpoint_status_; }

  /// Global index the next logged op will get; after recovery this is where
  /// an at-least-once producer resumes its stream.
  uint64_t next_seq() const { return next_seq_; }
  uint64_t ops_since_checkpoint() const { return next_seq_ - checkpoint_seq_; }
  const RecoveryInfo& recovery() const { return recovery_; }

  Relation& relation() { return *relation_; }
  DiscoveryEngine* engine() { return engine_.get(); }
  /// Label for logs: the discoverer name, e.g. "STopDown" or "Sharded".
  std::string algorithm() const;

 private:
  DurableEngine() = default;

  Status Log(WalOp op);
  Status CheckRowArity(const Row& row) const;
  /// Count-only replay (delta recovery): folds the op into the relation and
  /// the context counter without running discovery — the µ buckets for this
  /// span come from the delta chain instead.
  Status ApplyCountOnly(const WalOp& op);
  void MaybeAutoCheckpoint();

  /// The engine's µ store (nullptr for store-less baselines) and storage
  /// policy.
  MuStore* mu_store() { return engine_->discoverer().mutable_store(); }
  StoragePolicy storage_policy() {
    return engine_->discoverer().storage_policy();
  }
  /// Turns on bucket dirty tracking when delta checkpoints are enabled and
  /// the backend supports them (dirty-tracking store + dump-restorable
  /// algorithm). Checkpoint() keys off store->dirty_tracking(), so this is
  /// the single eligibility decision.
  void EnableDeltaTrackingIfEligible();

  Status CheckpointFull(uint64_t seq);
  Status CheckpointDelta(uint64_t seq);
  /// Post-checkpoint WAL rotation shared by both checkpoint kinds.
  Status RotateWal(uint64_t seq);

  DurableOptions options_;
  std::unique_ptr<Relation> relation_;
  std::unique_ptr<DiscoveryEngine> engine_;
  std::unique_ptr<WalWriter> wal_;
  uint64_t next_seq_ = 0;        // next op's sequence number
  uint64_t checkpoint_seq_ = 0;  // seq as of the last durable checkpoint
  uint64_t full_base_seq_ = 0;   // seq of the newest durable FULL snapshot
  uint64_t last_chain_seq_ = 0;  // newest checkpoint (full or delta) seq
  int deltas_since_full_ = 0;    // chain length since full_base_seq_
  Status checkpoint_status_;     // last auto-checkpoint outcome
  Status wal_status_;            // first WAL failure; poisons further ops
  RecoveryInfo recovery_;
};

}  // namespace persist
}  // namespace sitfact

#endif  // SITFACT_PERSIST_DURABLE_ENGINE_H_
