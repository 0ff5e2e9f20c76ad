#include "persist/durable_engine.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <utility>

#include "common/binary_io.h"
#include "exec/sharded_engine.h"
#include "io/snapshot.h"
#include "storage/mu_store.h"

namespace sitfact {
namespace persist {

namespace fs = std::filesystem;

namespace {

constexpr char kSnapshotPrefix[] = "snapshot-";
constexpr char kSnapshotSuffix[] = ".sfsnap";
constexpr char kWalPrefix[] = "wal-";
constexpr char kWalSuffix[] = ".sfwal";
constexpr char kDeltaPrefix[] = "delta-";
constexpr char kDeltaSuffix[] = ".sfdelta";

/// Full snapshots a checkpoint retains: the newest plus one fallback should
/// it turn out corrupt. A pruned full takes its delta chain and the WAL
/// segments its ops live in along.
constexpr size_t kKeepSnapshots = 2;

/// Delta checkpoint file (docs/persistence.md "Delta checkpoints"):
///   "SFDELTA1"  magic, 8 bytes
///   u32         format version (1)
///   u64         base_seq  — the full snapshot this chain roots at
///   u64         prev_seq  — the previous checkpoint in the chain (base_seq
///               for the first delta)
///   u64         delta_seq — the state is current through ops [0, delta_seq)
///   u8          storage policy of the buckets (Invariant 1 or 2)
///   u32         dimension count (sanity against the restored relation)
///   u64         relation row count (incl. tombstones) at delta_seq
///   u64         bucket count, then per bucket:
///               constraint | u32 subspace mask | u32 len | u32 ids...
///               (len 0 = bucket removed)
///   u32         CRC-32 over everything above
constexpr char kDeltaMagic[8] = {'S', 'F', 'D', 'E', 'L', 'T', 'A', '1'};
constexpr uint32_t kDeltaVersion = 1;
constexpr uint64_t kMaxDeltaBuckets = 1ull << 33;

struct DeltaBucket {
  Constraint constraint;
  MeasureMask mask = 0;
  std::vector<TupleId> tuples;
};

struct DeltaContents {
  uint64_t base_seq = 0;
  uint64_t prev_seq = 0;
  uint64_t delta_seq = 0;
  StoragePolicy policy = StoragePolicy::kAllSkylineConstraints;
  uint64_t rows = 0;
  std::vector<DeltaBucket> buckets;
};

StatusOr<DeltaContents> ReadDeltaFile(const std::string& path, int num_dims) {
  BinaryReader r(path);
  char magic[sizeof(kDeltaMagic)];
  r.ReadRaw(magic, sizeof(magic));
  if (!r.ok()) return r.status();
  if (std::memcmp(magic, kDeltaMagic, sizeof(kDeltaMagic)) != 0) {
    return Status::Corruption("not a sitfact delta (bad magic): " + path);
  }
  const uint32_t version = r.ReadU32();
  if (version != kDeltaVersion) {
    return Status::Corruption("unsupported delta version " +
                              std::to_string(version));
  }
  DeltaContents out;
  out.base_seq = r.ReadU64();
  out.prev_seq = r.ReadU64();
  out.delta_seq = r.ReadU64();
  out.policy = static_cast<StoragePolicy>(r.ReadU8());
  const uint32_t dims = r.ReadU32();
  out.rows = r.ReadU64();
  if (!r.ok()) return r.status();
  if (dims != static_cast<uint32_t>(num_dims)) {
    return Status::Corruption("delta dimension count mismatch in " + path);
  }
  const uint64_t buckets = r.ReadU64();
  if (!r.CheckCount(buckets, kMaxDeltaBuckets, "delta bucket count")) {
    return r.status();
  }
  for (uint64_t i = 0; i < buckets; ++i) {
    DeltaBucket b;
    b.constraint = DeserializeConstraint(&r, num_dims);
    b.mask = r.ReadU32();
    const uint32_t len = r.ReadU32();
    if (!r.CheckCount(len, out.rows, "delta bucket size")) return r.status();
    b.tuples.resize(len);
    for (uint32_t k = 0; k < len; ++k) {
      b.tuples[k] = r.ReadU32();
      if (b.tuples[k] >= out.rows) {
        return Status::Corruption("delta bucket tuple id out of range");
      }
    }
    if (!r.ok()) return r.status();
    out.buckets.push_back(std::move(b));
  }
  r.VerifyChecksum();
  if (!r.ok()) return r.status();
  return out;
}

std::string SeqName(const char* prefix, uint64_t seq, const char* suffix) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s%020llu%s", prefix,
                static_cast<unsigned long long>(seq), suffix);
  return buf;
}

std::string SnapshotPath(const std::string& dir, uint64_t seq) {
  return (fs::path(dir) / SeqName(kSnapshotPrefix, seq, kSnapshotSuffix))
      .string();
}

std::string WalPath(const std::string& dir, uint64_t seq) {
  return (fs::path(dir) / SeqName(kWalPrefix, seq, kWalSuffix)).string();
}

std::string DeltaPath(const std::string& dir, uint64_t seq) {
  return (fs::path(dir) / SeqName(kDeltaPrefix, seq, kDeltaSuffix)).string();
}

/// Files named <prefix><decimal seq><suffix> under `dir`, ascending by seq.
/// Anything else (tmp files, strangers) is ignored.
std::vector<StoreFile> ListSeqFiles(const std::string& dir, const char* prefix,
                                    const char* suffix) {
  std::vector<StoreFile> out;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    const size_t plen = std::strlen(prefix);
    const size_t slen = std::strlen(suffix);
    if (name.size() <= plen + slen || name.rfind(prefix, 0) != 0 ||
        name.compare(name.size() - slen, slen, suffix) != 0) {
      continue;
    }
    const std::string digits = name.substr(plen, name.size() - plen - slen);
    if (digits.empty() ||
        digits.find_first_not_of("0123456789") != std::string::npos) {
      continue;
    }
    out.push_back({std::strtoull(digits.c_str(), nullptr, 10),
                   entry.path().string()});
  }
  std::sort(out.begin(), out.end(),
            [](const StoreFile& a, const StoreFile& b) {
              return a.seq < b.seq;
            });
  return out;
}

/// Structural schema equality: attribute names and measure directions.
bool SchemaMatches(const Schema& a, const Schema& b) {
  if (a.num_dimensions() != b.num_dimensions() ||
      a.num_measures() != b.num_measures()) {
    return false;
  }
  for (int d = 0; d < a.num_dimensions(); ++d) {
    if (a.dimensions()[d].name != b.dimensions()[d].name) return false;
  }
  for (int j = 0; j < a.num_measures(); ++j) {
    if (a.measures()[j].name != b.measures()[j].name ||
        a.measures()[j].direction != b.measures()[j].direction) {
      return false;
    }
  }
  return true;
}

}  // namespace

std::vector<StoreFile> ListWalSegments(const std::string& dir) {
  return ListSeqFiles(dir, kWalPrefix, kWalSuffix);
}

std::vector<StoreFile> ListSnapshots(const std::string& dir) {
  return ListSeqFiles(dir, kSnapshotPrefix, kSnapshotSuffix);
}

std::vector<StoreFile> ListDeltas(const std::string& dir) {
  return ListSeqFiles(dir, kDeltaPrefix, kDeltaSuffix);
}

StatusOr<std::unique_ptr<DurableEngine>> DurableEngine::Open(
    const DurableOptions& options, const Schema& schema) {
  if (options.dir.empty()) {
    return Status::InvalidArgument("DurableOptions::dir is required");
  }
  std::error_code ec;
  fs::create_directories(options.dir, ec);
  if (ec) {
    return Status::IoError("cannot create durable dir " + options.dir + ": " +
                           ec.message());
  }

  std::unique_ptr<DurableEngine> d(new DurableEngine());
  d->options_ = options;
  if (d->options_.file_store_dir.empty()) {
    // Default the FS algorithms' bucket directory into the store itself, so
    // reopening needs nothing but `dir` even when the snapshot names a
    // file-backed algorithm.
    d->options_.file_store_dir =
        (fs::path(options.dir) / "fs_store").string();
  }

  std::vector<StoreFile> snapshots =
      ListSeqFiles(options.dir, kSnapshotPrefix, kSnapshotSuffix);

  if (snapshots.empty()) {
    // Fresh store: build the engine from the options and make its (empty)
    // state durable immediately — a genesis snapshot means recovery always
    // has a base to replay onto, and the snapshot carries the schema so
    // later opens need no flags.
    if (schema.num_dimensions() == 0 || schema.num_measures() == 0) {
      return Status::InvalidArgument(
          "creating a durable store needs a schema with at least one "
          "dimension and one measure");
    }
    d->relation_ = std::make_unique<Relation>(schema);
    DiscoveryEngine::Config config;
    config.options = options.discovery;
    config.tau = options.tau;
    config.rank_facts = options.rank_facts;
    auto engine_or = CreateEngine(d->relation_.get(), options.algorithm,
                                  options.num_shards, options.num_threads,
                                  config, d->options_.file_store_dir);
    if (!engine_or.ok()) return engine_or.status();
    d->engine_ = std::move(engine_or).value();
    d->recovery_.created = true;
    d->EnableDeltaTrackingIfEligible();
    // The genesis checkpoint is always full — a delta has no base yet.
    Status genesis = d->CheckpointFull(d->next_seq_);
    if (!genesis.ok()) return genesis;
    return d;
  }

  // Recover: newest loadable snapshot wins. Corrupt or torn snapshots
  // (crash mid-rename, bit rot) fall back to the previous one; config-level
  // failures (unknown algorithm, policy mismatch without the replay escape
  // hatch) abort, because every older snapshot would fail the same way.
  size_t chosen = snapshots.size();
  Status last_error = Status::Ok();
  SnapshotLoadOptions load;
  load.file_store_dir = d->options_.file_store_dir;
  load.allow_replay_rebuild = options.allow_replay_rebuild;
  load.storage = options.discovery.storage;
  load.num_shards = options.num_shards;
  load.num_threads = options.num_threads;
  for (size_t i = snapshots.size(); i-- > 0;) {
    auto restored_or = LoadEngineSnapshot(snapshots[i].path, load);
    if (restored_or.ok()) {
      RestoredEngine restored = std::move(restored_or).value();
      d->relation_ = std::move(restored.relation);
      d->engine_ = std::move(restored.engine);
      chosen = i;
      break;
    }
    const Status& attempt = restored_or.status();
    last_error = attempt;
    if (attempt.code() != StatusCode::kCorruption &&
        attempt.code() != StatusCode::kIoError) {
      return attempt;
    }
  }
  if (chosen == snapshots.size()) {
    return Status::Corruption("no loadable snapshot in " + options.dir + ": " +
                              last_error.ToString());
  }
  if (schema.num_dimensions() != 0 &&
      !SchemaMatches(schema, d->relation_->schema())) {
    return Status::InvalidArgument(
        "requested schema does not match the recovered store's schema");
  }

  const uint64_t snapshot_seq = snapshots[chosen].seq;
  d->recovery_.snapshot_seq = snapshot_seq;
  d->checkpoint_seq_ = snapshot_seq;
  d->full_base_seq_ = snapshot_seq;
  d->last_chain_seq_ = snapshot_seq;
  const uint64_t base_rows = d->relation_->size();

  // Collect the WAL tail: every op with seq >= snapshot_seq, in order,
  // stopping at the first torn record, gap, or unreadable file — ops past
  // such a point build on ops that no longer exist. One exception: a torn
  // tail at seq S followed by a segment starting exactly at S is not a
  // loss — it is the scar of a PREVIOUS recovery, which dropped the same
  // tail and rotated to a fresh segment at S; the successor holds the
  // acknowledged re-sent ops and the chain continues through it.
  // Application is deferred until after the delta chain is chosen: ops the
  // chain covers fold in count-only, the rest replay in full.
  uint64_t expected = snapshot_seq;
  std::vector<WalOp> pending;
  std::vector<StoreFile> wals = ListSeqFiles(options.dir, kWalPrefix, kWalSuffix);
  // Segment i holds ops [seq_i, seq_{i+1}) when intact; pre-snapshot
  // segments are read too (cheap) with every op skipped by the seq guard.
  // `self` guards against a segment torn in its very first record matching
  // itself (its start_seq still equals the drop point); only a DIFFERENT
  // segment starting there proves a prior recovery already handled the
  // tear.
  auto has_segment_at = [&wals](uint64_t seq, const StoreFile& self) {
    for (const StoreFile& f : wals) {
      if (f.seq == seq && f.path != self.path) return true;
    }
    return false;
  };
  for (const StoreFile& wal_file : wals) {
    if (wal_file.seq > expected) {
      d->recovery_.tail_truncated = true;
      d->recovery_.note = "missing WAL segment before " + wal_file.path;
      break;
    }
    auto contents_or = ReadWal(wal_file.path);
    if (!contents_or.ok()) {
      d->recovery_.tail_truncated = true;
      d->recovery_.note =
          wal_file.path + ": " + contents_or.status().ToString();
      break;
    }
    const WalContents& contents = contents_or.value();
    bool stop = false;
    for (const WalOp& op : contents.ops) {
      if (op.seq < expected) continue;  // already inside the snapshot
      if (op.seq != expected) {
        d->recovery_.tail_truncated = true;
        d->recovery_.note = "sequence gap at op " + std::to_string(op.seq) +
                            " in " + wal_file.path;
        stop = true;
        break;
      }
      pending.push_back(op);
      ++expected;
    }
    if (stop) break;
    if (!contents.clean_tail && !has_segment_at(expected, wal_file)) {
      d->recovery_.tail_truncated = true;
      d->recovery_.note = wal_file.path + ": " + contents.tail_note;
      break;
    }
  }

  d->next_seq_ = expected;
  // Segments starting past the recovered cursor are a dead timeline: their
  // ops build on ops the walk above declared lost, so they can never be
  // validly replayed — and leaving them around would let a future recovery
  // splice them onto the new timeline once re-sent ops advance the cursor
  // back to their start_seq. Remove them now. The same applies to delta
  // checkpoints past the cursor: their buckets reference tuples whose
  // arrivals were just dropped.
  for (const StoreFile& wal_file : wals) {
    if (wal_file.seq > expected) {
      std::error_code ignored;
      fs::remove(wal_file.path, ignored);
    }
  }
  std::vector<StoreFile> delta_files =
      ListSeqFiles(options.dir, kDeltaPrefix, kDeltaSuffix);
  {
    auto dead = std::partition(
        delta_files.begin(), delta_files.end(),
        [expected](const StoreFile& f) { return f.seq <= expected; });
    for (auto it = dead; it != delta_files.end(); ++it) {
      std::error_code ignored;
      fs::remove(it->path, ignored);
    }
    delta_files.erase(dead, delta_files.end());
  }

  // Choose the longest valid delta chain rooted at the recovered snapshot:
  // base_seq must name it, prev_seq links each delta to its predecessor,
  // and every file must decode CRC-clean with a row count matching what the
  // WAL tail proves existed at its delta_seq. A corrupt or inconsistent
  // delta simply shortens the chain — the ops it covered replay in full
  // instead, so recovery degrades in time, never in correctness.
  std::vector<DeltaContents> chain;
  MuStore* store = d->mu_store();
  if (store != nullptr && !delta_files.empty()) {
    const StoragePolicy policy = d->storage_policy();
    const int dims = d->relation_->schema().num_dimensions();
    // Row count at seq s = base rows + arrivals among ops [snapshot_seq, s).
    std::vector<uint64_t> rows_at(pending.size() + 1, base_rows);
    for (size_t i = 0; i < pending.size(); ++i) {
      rows_at[i + 1] =
          rows_at[i] + (pending[i].kind == WalOpKind::kRemove ? 0 : 1);
    }
    uint64_t current = snapshot_seq;
    bool extended = true;
    while (extended) {
      extended = false;
      // Newest candidate first: after a chain cut, re-sent ops rebuild the
      // same timeline (the WAL survived), so any decodable delta at a given
      // seq is an equally valid state dump — prefer the longest jump.
      for (size_t i = delta_files.size(); i-- > 0;) {
        const StoreFile& f = delta_files[i];
        if (f.seq <= current) break;
        auto delta_or = ReadDeltaFile(f.path, dims);
        if (!delta_or.ok()) {
          d->recovery_.delta_note = f.path + ": " +
                                    delta_or.status().ToString();
          continue;
        }
        DeltaContents delta = std::move(delta_or).value();
        if (delta.base_seq != snapshot_seq || delta.prev_seq != current ||
            delta.delta_seq != f.seq) {
          continue;
        }
        if (delta.policy != policy) {
          d->recovery_.delta_note = f.path + ": storage policy mismatch";
          continue;
        }
        if (delta.rows != rows_at[delta.delta_seq - snapshot_seq]) {
          d->recovery_.delta_note = f.path + ": row count mismatch";
          continue;
        }
        current = delta.delta_seq;
        chain.push_back(std::move(delta));
        extended = true;
        break;
      }
    }
  }

  // Apply: ops the chain covers fold in count-only (relation rows + context
  // cardinalities — the cheap, order-independent part of an arrival), the
  // chain's buckets overwrite the base state in order, and everything past
  // the chain replays through full discovery.
  const uint64_t chain_end =
      chain.empty() ? snapshot_seq : chain.back().delta_seq;
  const size_t split = static_cast<size_t>(chain_end - snapshot_seq);
  for (size_t i = 0; i < split; ++i) {
    Status applied = d->ApplyCountOnly(pending[i]);
    if (!applied.ok()) {
      return Status::Corruption("count-only WAL replay failed at op " +
                                std::to_string(pending[i].seq) + ": " +
                                applied.ToString());
    }
    ++d->recovery_.count_only_ops;
  }
  for (const DeltaContents& delta : chain) {
    for (const DeltaBucket& b : delta.buckets) {
      store->GetOrCreate(b.constraint)->Write(b.mask, b.tuples);
    }
  }
  d->recovery_.delta_chain = chain.size();
  if (!chain.empty()) {
    d->checkpoint_seq_ = chain_end;
    d->last_chain_seq_ = chain_end;
    d->deltas_since_full_ = static_cast<int>(chain.size());
    Status rebuilt = d->engine_->discoverer().RebuildAuxiliary();
    if (!rebuilt.ok()) return rebuilt;
  }
  // Dirty tracking starts here: the fully-replayed ops below mutate buckets
  // the next delta checkpoint must capture. (The delta writes above happen
  // with tracking off — their state is already durable.)
  d->EnableDeltaTrackingIfEligible();
  for (size_t i = split; i < pending.size(); ++i) {
    const WalOp& op = pending[i];
    Status applied = Status::Ok();
    switch (op.kind) {
      case WalOpKind::kAppend:
        d->engine_->Append(op.row);
        break;
      case WalOpKind::kRemove:
        applied = d->engine_->Remove(op.target);
        break;
      case WalOpKind::kUpdate: {
        auto report_or = d->engine_->Update(op.target, op.row);
        applied = report_or.status();
        break;
      }
      default:
        applied = Status::Corruption("unknown WAL op kind");
    }
    if (!applied.ok()) {
      return Status::Corruption("WAL replay failed at op " +
                                std::to_string(op.seq) + ": " +
                                applied.ToString());
    }
    ++d->recovery_.replayed_ops;
  }

  // Creating the new segment truncates any file already named
  // wal-<expected>; safe, because the chain walk above replayed (or
  // deliberately dropped) everything such a file could hold.
  auto wal_or = WalWriter::Create(WalPath(options.dir, expected), expected);
  if (!wal_or.ok()) return wal_or.status();
  d->wal_ = std::move(wal_or).value();
  return d;
}

DurableEngine::~DurableEngine() {
  if (wal_ != nullptr) wal_->Close();
}

std::string DurableEngine::algorithm() const {
  return std::string(engine_->discoverer().name());
}

Status DurableEngine::Log(WalOp op) {
  // A failed write or fsync poisons the segment: the frame's bytes may
  // already be in the file, so reusing the sequence number would let
  // recovery replay the failed op in place of its acknowledged successor.
  // Latch the failure; the store must be reopened (which drops the torn
  // frame) before accepting ops again.
  if (!wal_status_.ok()) return wal_status_;
  op.seq = next_seq_;
  Status logged = wal_->Append(op);
  if (!logged.ok()) {
    wal_status_ = logged;
    return logged;
  }
  if (options_.sync_every_op) {
    Status synced = wal_->Sync();
    if (!synced.ok()) {
      wal_status_ = synced;
      return synced;
    }
  }
  ++next_seq_;
  return Status::Ok();
}

void DurableEngine::MaybeAutoCheckpoint() {
  if (options_.checkpoint_every == 0 ||
      ops_since_checkpoint() < options_.checkpoint_every) {
    return;
  }
  // A failure here must not fail the op that triggered it: the op is
  // already durable in the WAL and applied to the engine. Latch the outcome
  // instead; ops_since_checkpoint stays over the threshold, so the next op
  // retries.
  checkpoint_status_ = Checkpoint();
}

/// Arity must be validated BEFORE logging: a mismatched row would
/// CHECK-fail inside Relation::Append — and if its record reached the WAL
/// first, every recovery would replay it and abort, bricking the store.
Status DurableEngine::CheckRowArity(const Row& row) const {
  if (row.dimensions.size() !=
          static_cast<size_t>(relation_->schema().num_dimensions()) ||
      row.measures.size() !=
          static_cast<size_t>(relation_->schema().num_measures())) {
    return Status::InvalidArgument("row arity does not match schema");
  }
  return Status::Ok();
}

StatusOr<ArrivalReport> DurableEngine::Append(const Row& row) {
  Status arity = CheckRowArity(row);
  if (!arity.ok()) return arity;
  WalOp op;
  op.kind = WalOpKind::kAppend;
  op.row = row;
  Status logged = Log(std::move(op));
  if (!logged.ok()) return logged;
  ArrivalReport report = engine_->Append(row);
  MaybeAutoCheckpoint();
  return report;
}

DurableEngine::BatchResult DurableEngine::AppendBatch(
    std::span<const Row> rows) {
  // Log first — an op must be durable before its effects exist. If logging
  // fails partway, the durable prefix is still applied (the engine never
  // lags its own log) and its reports are returned next to the error.
  BatchResult result;
  size_t logged_rows = 0;
  for (const Row& row : rows) {
    result.status = CheckRowArity(row);
    if (!result.status.ok()) break;
    WalOp op;
    op.kind = WalOpKind::kAppend;
    op.row = row;
    result.status = Log(std::move(op));
    if (!result.status.ok()) break;
    ++logged_rows;
  }
  result.reports = engine_->AppendBatch(rows.subspan(0, logged_rows));
  if (result.status.ok()) MaybeAutoCheckpoint();
  return result;
}

Status DurableEngine::Remove(TupleId t) {
  // Validate before logging so a rejected op (unknown or already-deleted
  // tuple) leaves no WAL record behind.
  if (t >= relation_->size() || relation_->IsDeleted(t)) {
    return Status::InvalidArgument("no such live tuple");
  }
  WalOp op;
  op.kind = WalOpKind::kRemove;
  op.target = t;
  Status logged = Log(std::move(op));
  if (!logged.ok()) return logged;
  Status removed = engine_->Remove(t);
  if (!removed.ok()) return removed;
  MaybeAutoCheckpoint();
  return Status::Ok();
}

StatusOr<ArrivalReport> DurableEngine::Update(TupleId t, const Row& row) {
  if (t >= relation_->size() || relation_->IsDeleted(t)) {
    return Status::InvalidArgument("no such live tuple");
  }
  Status arity = CheckRowArity(row);
  if (!arity.ok()) return arity;
  WalOp op;
  op.kind = WalOpKind::kUpdate;
  op.target = t;
  op.row = row;
  Status logged = Log(std::move(op));
  if (!logged.ok()) return logged;
  auto report_or = engine_->Update(t, row);
  if (!report_or.ok()) return report_or.status();
  MaybeAutoCheckpoint();
  return report_or;
}

void DurableEngine::EnableDeltaTrackingIfEligible() {
  if (!options_.delta_checkpoints) return;
  Discoverer& disc = engine_->discoverer();
  MuStore* store = disc.mutable_store();
  if (store == nullptr || !store->SupportsDirtyTracking()) return;
  // Delta recovery rewrites buckets through the dump path, so the algorithm
  // must restore from bucket dumps. C-CSC keeps private skycubes and opts
  // out.
  if (!disc.SupportsSnapshotRestore()) return;
  store->set_dirty_tracking(true);
}

Status DurableEngine::ApplyCountOnly(const WalOp& op) {
  switch (op.kind) {
    case WalOpKind::kAppend: {
      const TupleId t = relation_->Append(op.row);
      engine_->mutable_counter().OnArrival(*relation_, t);
      return Status::Ok();
    }
    case WalOpKind::kRemove: {
      if (op.target >= relation_->size() || relation_->IsDeleted(op.target)) {
        return Status::Corruption("count-only remove of a non-live tuple");
      }
      relation_->MarkDeleted(op.target);
      engine_->mutable_counter().OnRemoval(*relation_, op.target);
      return Status::Ok();
    }
    case WalOpKind::kUpdate: {
      WalOp remove;
      remove.kind = WalOpKind::kRemove;
      remove.target = op.target;
      Status removed = ApplyCountOnly(remove);
      if (!removed.ok()) return removed;
      WalOp append;
      append.kind = WalOpKind::kAppend;
      append.row = op.row;
      return ApplyCountOnly(append);
    }
  }
  return Status::Corruption("unknown WAL op kind");
}

Status DurableEngine::RotateWal(uint64_t seq) {
  if (wal_ != nullptr) wal_->Close();
  auto wal_or = WalWriter::Create(WalPath(options_.dir, seq), seq);
  if (!wal_or.ok()) return wal_or.status();
  wal_ = std::move(wal_or).value();
  checkpoint_seq_ = seq;
  return Status::Ok();
}

Status DurableEngine::Checkpoint() {
  const uint64_t seq = next_seq_;
  // The state at `seq` is already durably checkpointed; rewriting it would
  // only fork the delta chain onto its own name.
  if (seq == checkpoint_seq_) return Status::Ok();
  MuStore* store = mu_store();
  const int full_every = std::max(options_.full_snapshot_every, 1);
  const bool delta = options_.delta_checkpoints && store != nullptr &&
                     store->dirty_tracking() &&
                     deltas_since_full_ + 1 < full_every;
  return delta ? CheckpointDelta(seq) : CheckpointFull(seq);
}

Status DurableEngine::CheckpointDelta(uint64_t seq) {
  MuStore* store = mu_store();
  const std::string final_path = DeltaPath(options_.dir, seq);
  const std::string tmp_path = final_path + ".tmp";

  // Same publication discipline as full snapshots: write to a temp name,
  // rename; readers see the whole CRC-valid file or none of it.
  BinaryWriter w(tmp_path);
  w.WriteRaw(kDeltaMagic, sizeof(kDeltaMagic));
  w.WriteU32(kDeltaVersion);
  w.WriteU64(full_base_seq_);
  w.WriteU64(last_chain_seq_);
  w.WriteU64(seq);
  w.WriteU8(static_cast<uint8_t>(storage_policy()));
  w.WriteU32(static_cast<uint32_t>(relation_->schema().num_dimensions()));
  w.WriteU64(relation_->size());
  w.WriteU64(store->DirtyBucketCount());
  std::vector<std::pair<Constraint, MeasureMask>> dirty;
  store->ForEachDirtyBucket([&dirty](const Constraint& c, MeasureMask m) {
    dirty.emplace_back(c, m);
  });
  std::vector<TupleId> bucket;
  for (const auto& [c, m] : dirty) {
    bucket.clear();
    MuStore::Context* ctx = store->Find(c);
    if (ctx != nullptr) ctx->Read(m, &bucket);
    SerializeConstraint(&w, c);
    w.WriteU32(m);
    w.WriteU32(static_cast<uint32_t>(bucket.size()));
    for (TupleId t : bucket) w.WriteU32(t);
  }
  w.WriteChecksum();
  Status saved = w.Close();
  if (!saved.ok()) {
    std::error_code ignored;
    fs::remove(tmp_path, ignored);
    return saved;
  }
  std::error_code ec;
  fs::rename(tmp_path, final_path, ec);
  if (ec) {
    std::error_code ignored;
    fs::remove(tmp_path, ignored);
    return Status::IoError("cannot publish delta " + final_path + ": " +
                           ec.message());
  }

  Status rotated = RotateWal(seq);
  if (!rotated.ok()) return rotated;
  last_chain_seq_ = seq;
  ++deltas_since_full_;
  store->ClearDirty();
  // No pruning here: the chain needs every link back to its base, and the
  // WAL back to the oldest retained full snapshot. Both prune at the next
  // full checkpoint.
  return Status::Ok();
}

Status DurableEngine::CheckpointFull(uint64_t seq) {
  const std::string final_path = SnapshotPath(options_.dir, seq);
  const std::string tmp_path = final_path + ".tmp";

  // Snapshot to a temp name, then rename: readers either see the whole
  // CRC-valid file or none of it.
  Status saved = SaveEngineSnapshot(*engine_, tmp_path);
  if (!saved.ok()) {
    std::error_code ignored;
    fs::remove(tmp_path, ignored);
    return saved;
  }
  std::error_code ec;
  fs::rename(tmp_path, final_path, ec);
  if (ec) {
    std::error_code ignored;
    fs::remove(tmp_path, ignored);
    return Status::IoError("cannot publish snapshot " + final_path + ": " +
                           ec.message());
  }

  // Rotate the log: new ops land in a fresh segment starting at `seq`.
  Status rotated = RotateWal(seq);
  if (!rotated.ok()) return rotated;
  full_base_seq_ = seq;
  last_chain_seq_ = seq;
  deltas_since_full_ = 0;
  if (MuStore* store = mu_store(); store != nullptr) store->ClearDirty();

  // Prune. Snapshots: keep the newest kKeepSnapshots full ones. Deltas
  // chain off a full snapshot, so a delta older than the oldest retained
  // full belongs to a pruned base and goes with it (a chain's links are
  // always younger than their base and older than the next full). WAL
  // segments: segment i covers [start_i, start_{i+1}), so it stays while
  // any retained snapshot might need it for replay — i.e. while its end is
  // beyond the oldest retained snapshot's seq.
  std::vector<StoreFile> snapshots =
      ListSeqFiles(options_.dir, kSnapshotPrefix, kSnapshotSuffix);
  uint64_t oldest_kept = seq;
  if (snapshots.size() > kKeepSnapshots) {
    const size_t drop = snapshots.size() - kKeepSnapshots;
    for (size_t i = 0; i < drop; ++i) {
      std::error_code ignored;
      fs::remove(snapshots[i].path, ignored);
    }
    snapshots.erase(snapshots.begin(),
                    snapshots.begin() + static_cast<ptrdiff_t>(drop));
  }
  if (!snapshots.empty()) oldest_kept = snapshots.front().seq;

  for (const StoreFile& delta :
       ListSeqFiles(options_.dir, kDeltaPrefix, kDeltaSuffix)) {
    if (delta.seq < oldest_kept) {
      std::error_code ignored;
      fs::remove(delta.path, ignored);
    }
  }

  std::vector<StoreFile> wals =
      ListSeqFiles(options_.dir, kWalPrefix, kWalSuffix);
  for (size_t i = 0; i + 1 < wals.size(); ++i) {
    if (wals[i + 1].seq <= oldest_kept) {
      std::error_code ignored;
      fs::remove(wals[i].path, ignored);
    }
  }
  return Status::Ok();
}

}  // namespace persist
}  // namespace sitfact
