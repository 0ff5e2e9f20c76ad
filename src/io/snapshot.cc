#include "io/snapshot.h"

#include <cstring>
#include <utility>
#include <vector>

#include "common/bits.h"
#include "common/logging.h"
#include "common/binary_io.h"
#include "exec/sharded_engine.h"
#include "storage/mu_store.h"

namespace sitfact {

namespace {

constexpr char kMagic[8] = {'S', 'F', 'S', 'N', 'A', 'P', 'v', '1'};
constexpr uint32_t kVersion = 1;

constexpr uint8_t kFlagHasEngine = 1u << 0;

// Sanity caps for length prefixes (a snapshot beyond these is either
// corrupted or far outside this library's design envelope).
constexpr uint64_t kMaxTuples = 1ull << 33;
constexpr uint64_t kMaxDictEntries = 1ull << 30;

void WriteSchema(BinaryWriter* w, const Schema& schema) {
  w->WriteU32(static_cast<uint32_t>(schema.num_dimensions()));
  for (const auto& d : schema.dimensions()) w->WriteString(d.name);
  w->WriteU32(static_cast<uint32_t>(schema.num_measures()));
  for (const auto& m : schema.measures()) {
    w->WriteString(m.name);
    w->WriteU8(m.direction == Direction::kSmallerIsBetter ? 1 : 0);
  }
}

StatusOr<Schema> ReadSchema(BinaryReader* r) {
  uint32_t ndims = r->ReadU32();
  if (!r->CheckCount(ndims, kMaxDimensions, "dimension count")) {
    return r->status();
  }
  std::vector<DimensionAttribute> dims;
  dims.reserve(ndims);
  for (uint32_t i = 0; i < ndims; ++i) dims.push_back({r->ReadString()});
  uint32_t nmeas = r->ReadU32();
  if (!r->CheckCount(nmeas, kMaxMeasures, "measure count")) {
    return r->status();
  }
  std::vector<MeasureAttribute> meas;
  meas.reserve(nmeas);
  for (uint32_t j = 0; j < nmeas; ++j) {
    MeasureAttribute m;
    m.name = r->ReadString();
    m.direction = r->ReadU8() != 0 ? Direction::kSmallerIsBetter
                                   : Direction::kLargerIsBetter;
    meas.push_back(std::move(m));
  }
  if (!r->ok()) return r->status();
  return Schema::Create(std::move(dims), std::move(meas));
}

void WriteRelation(BinaryWriter* w, const Relation& rel) {
  const Schema& schema = rel.schema();
  const uint64_t n = rel.size();
  w->WriteU64(n);
  for (int d = 0; d < schema.num_dimensions(); ++d) {
    const Dictionary& dict = rel.dictionary(d);
    w->WriteU32(static_cast<uint32_t>(dict.size()));
    for (ValueId id = 0; id < dict.size(); ++id) {
      w->WriteString(dict.Decode(id));
    }
  }
  for (int d = 0; d < schema.num_dimensions(); ++d) {
    for (uint64_t t = 0; t < n; ++t) {
      w->WriteU32(rel.dim(static_cast<TupleId>(t), d));
    }
  }
  for (int j = 0; j < schema.num_measures(); ++j) {
    for (uint64_t t = 0; t < n; ++t) {
      w->WriteF64(rel.measure(static_cast<TupleId>(t), j));
    }
  }
  // Tombstones, sparse: deletion is the rare administrative path.
  std::vector<TupleId> deleted;
  for (uint64_t t = 0; t < n; ++t) {
    if (rel.IsDeleted(static_cast<TupleId>(t))) {
      deleted.push_back(static_cast<TupleId>(t));
    }
  }
  w->WriteU64(deleted.size());
  for (TupleId t : deleted) w->WriteU32(t);
}

StatusOr<std::unique_ptr<Relation>> ReadRelation(BinaryReader* r,
                                                 Schema schema) {
  auto rel = std::make_unique<Relation>(std::move(schema));
  const Schema& s = rel->schema();
  uint64_t n = r->ReadU64();
  if (!r->CheckCount(n, kMaxTuples, "tuple count")) return r->status();

  for (int d = 0; d < s.num_dimensions(); ++d) {
    uint32_t entries = r->ReadU32();
    if (!r->CheckCount(entries, kMaxDictEntries, "dictionary size")) {
      return r->status();
    }
    Dictionary& dict = rel->dictionary(d);
    for (uint32_t i = 0; i < entries; ++i) {
      std::string value = r->ReadString();
      if (!r->ok()) return r->status();
      ValueId id = dict.Encode(value);
      if (id != i) {
        return Status::Corruption("dictionary entries out of order");
      }
    }
  }

  std::vector<std::vector<ValueId>> dim_cols(
      static_cast<size_t>(s.num_dimensions()));
  for (int d = 0; d < s.num_dimensions(); ++d) {
    dim_cols[d].resize(n);
    for (uint64_t t = 0; t < n; ++t) dim_cols[d][t] = r->ReadU32();
    const size_t dict_size = rel->dictionary(d).size();
    for (uint64_t t = 0; t < n; ++t) {
      if (dim_cols[d][t] >= dict_size) {
        return Status::Corruption("dimension value out of dictionary range");
      }
    }
  }
  std::vector<std::vector<double>> mea_cols(
      static_cast<size_t>(s.num_measures()));
  for (int j = 0; j < s.num_measures(); ++j) {
    mea_cols[j].resize(n);
    for (uint64_t t = 0; t < n; ++t) mea_cols[j][t] = r->ReadF64();
  }
  if (!r->ok()) return r->status();

  std::vector<ValueId> dims(static_cast<size_t>(s.num_dimensions()));
  std::vector<double> meas(static_cast<size_t>(s.num_measures()));
  for (uint64_t t = 0; t < n; ++t) {
    for (int d = 0; d < s.num_dimensions(); ++d) dims[d] = dim_cols[d][t];
    for (int j = 0; j < s.num_measures(); ++j) meas[j] = mea_cols[j][t];
    rel->AppendEncoded(dims, meas);
  }

  uint64_t num_deleted = r->ReadU64();
  if (!r->CheckCount(num_deleted, n, "deleted count")) return r->status();
  for (uint64_t i = 0; i < num_deleted; ++i) {
    uint32_t t = r->ReadU32();
    if (t >= n) return Status::Corruption("deleted id out of range");
    rel->MarkDeleted(t);
  }
  if (!r->ok()) return r->status();
  return rel;
}

}  // namespace

Status SaveRelationSnapshot(const Relation& relation,
                            const std::string& path) {
  BinaryWriter w(path);
  w.WriteRaw(kMagic, sizeof(kMagic));
  w.WriteU32(kVersion);
  w.WriteU8(0);  // no engine section
  WriteSchema(&w, relation.schema());
  WriteRelation(&w, relation);
  w.WriteChecksum();
  return w.Close();
}

Status SaveEngineSnapshot(DiscoveryEngine& engine, const std::string& path) {
  BinaryWriter w(path);
  w.WriteRaw(kMagic, sizeof(kMagic));
  w.WriteU32(kVersion);
  w.WriteU8(kFlagHasEngine);
  WriteSchema(&w, engine.relation().schema());
  WriteRelation(&w, engine.relation());
  engine.SerializeState(&w);
  w.WriteChecksum();
  return w.Close();
}

namespace {

/// Shared header + relation decoding; on success leaves the reader
/// positioned at the engine section (or the checksum).
StatusOr<std::unique_ptr<Relation>> ReadHeaderAndRelation(BinaryReader* r,
                                                          uint8_t* flags) {
  char magic[sizeof(kMagic)];
  r->ReadRaw(magic, sizeof(magic));
  if (!r->ok()) return r->status();
  if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::Corruption("not a sitfact snapshot (bad magic)");
  }
  uint32_t version = r->ReadU32();
  if (version != kVersion) {
    return Status::Corruption("unsupported snapshot version " +
                              std::to_string(version));
  }
  *flags = r->ReadU8();
  auto schema_or = ReadSchema(r);
  if (!schema_or.ok()) return schema_or.status();
  return ReadRelation(r, std::move(schema_or).value());
}

}  // namespace

StatusOr<std::unique_ptr<Relation>> LoadRelationSnapshot(
    const std::string& path) {
  BinaryReader r(path);
  uint8_t flags = 0;
  auto rel_or = ReadHeaderAndRelation(&r, &flags);
  if (!rel_or.ok()) return rel_or.status();
  // Relation-only loads skip any engine payload without decoding it, so the
  // trailing checksum cannot be verified here (it covers the whole file);
  // integrity of the decoded prefix is still guarded by the structural
  // checks above. Engine loads verify the checksum in full.
  if ((flags & kFlagHasEngine) == 0) {
    r.VerifyChecksum();
    if (!r.ok()) return r.status();
  }
  return rel_or;
}

StatusOr<RestoredEngine> LoadEngineSnapshot(
    const std::string& path, const SnapshotLoadOptions& options) {
  BinaryReader r(path);
  uint8_t flags = 0;
  auto rel_or = ReadHeaderAndRelation(&r, &flags);
  if (!rel_or.ok()) return rel_or.status();
  if ((flags & kFlagHasEngine) == 0) {
    return Status::InvalidArgument(
        "snapshot has no engine section; use LoadRelationSnapshot");
  }
  std::unique_ptr<Relation> relation = std::move(rel_or).value();
  const int num_dims = relation->schema().num_dimensions();

  std::string saved_algorithm = r.ReadString();
  DiscoveryEngine::Config config;
  config.options.max_bound_dims = static_cast<int>(r.ReadU32());
  config.options.max_measure_dims = static_cast<int>(r.ReadU32());
  config.options.storage = options.storage;
  config.tau = r.ReadF64();
  config.rank_facts = r.ReadU8() != 0;
  auto saved_policy = static_cast<StoragePolicy>(r.ReadU8());
  if (!r.ok()) return r.status();

  if (saved_algorithm == "Sharded") {
    // Sharded snapshots follow Invariant 1 exactly as the sequential
    // BottomUp family does, so SBottomUp is the natural sequential twin.
    saved_algorithm = "SBottomUp";
  }
  const std::string algorithm = options.algorithm_override.empty()
                                    ? saved_algorithm
                                    : options.algorithm_override;
  // The engine exists before its state is restored: a skyband shadow it
  // attaches observes the bucket dump as it lands.
  auto engine_or =
      CreateEngine(relation.get(), algorithm, options.num_shards,
                   options.num_threads, config, options.file_store_dir);
  if (!engine_or.ok()) return engine_or.status();
  std::unique_ptr<DiscoveryEngine> engine = std::move(engine_or).value();
  Discoverer& disc = engine->discoverer();
  bool replay = false;
  if (!disc.SupportsSnapshotRestore()) {
    if (!options.allow_replay_rebuild) {
      return Status::Unimplemented(
          std::string(disc.name()) +
          " cannot be restored from a snapshot (set allow_replay_rebuild to "
          "rebuild it by re-running discovery)");
    }
    replay = true;
  }

  // Counter entries, staged into a scratch counter and moved into the
  // engine once the checksum has cleared.
  ContextCounter counts(disc.max_bound_dims());
  Status counter_read = counts.Deserialize(&r, num_dims);
  if (!counter_read.ok()) return counter_read;

  // µ-store dump.
  const bool saved_store = r.ReadU8() != 0;
  MuStore* store = disc.mutable_store();
  if (saved_store && store != nullptr && !replay &&
      disc.storage_policy() != saved_policy) {
    if (!options.allow_replay_rebuild) {
      return Status::InvalidArgument(
          std::string(disc.name()) +
          " keeps a different storage policy than the snapshot; its bucket "
          "contents would violate the target invariant (set "
          "allow_replay_rebuild to rebuild instead)");
    }
    replay = true;
  }
  if (!saved_store && store != nullptr && !replay) {
    // Saved from a store-less baseline, restoring into a µ-store algorithm:
    // there is no bucket state to rebuild from, so discovery invariants
    // cannot be re-established without a replay. Refuse rather than serve
    // wrong answers.
    if (!options.allow_replay_rebuild) {
      return Status::InvalidArgument(
          "snapshot has no store dump; cannot restore a store-based "
          "algorithm from it (set allow_replay_rebuild to rebuild instead)");
    }
    replay = true;
  }
  if (saved_store) {
    // Under replay the dump is decoded (the checksum covers it) but the
    // store is rebuilt from scratch by the replay pass instead.
    MuStore* target = (store != nullptr && !replay) ? store : nullptr;
    Status dump_read =
        ReadMuBucketDump(&r, num_dims, relation->size(), target);
    if (!dump_read.ok()) return dump_read;
  }

  r.VerifyChecksum();
  if (!r.ok()) return r.status();

  if (replay) {
    // Re-run discovery over live history in arrival order. Each Discover(t)
    // consults only tuples < t plus algorithm state, and skipping tombstoned
    // tuples leaves exactly the state a Remove() would have produced.
    std::vector<SkylineFact> scratch;
    for (TupleId t = 0; t < relation->size(); ++t) {
      if (relation->IsDeleted(t)) continue;
      scratch.clear();
      disc.Discover(t, &scratch);
    }
  } else {
    Status rebuilt = disc.RebuildAuxiliary();
    if (!rebuilt.ok()) return rebuilt;
  }
  engine->mutable_counter() = std::move(counts);

  RestoredEngine out;
  out.relation = std::move(relation);
  out.engine = std::move(engine);
  return out;
}

}  // namespace sitfact
