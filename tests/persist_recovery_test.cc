// The durability subsystem's correctness bar is differential: a store that
// is checkpointed, killed (possibly mid-WAL-record) and recovered must
// produce tuple-for-tuple the reports — facts, prominence scores, prominent
// selections — and the final counter/relation state of an engine that never
// stopped. These tests run that experiment over NBA, weather and synthetic
// streams (with deletions and updates mixed in), across the restorable
// algorithm families, both engine backends, and WAL truncations at every
// byte offset.

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "datagen/nba_generator.h"
#include "datagen/weather_generator.h"
#include "persist/durable_engine.h"
#include "persist/wal.h"
#include "service/fact_feed.h"
#include "storage/storage_options.h"
#include "test_util.h"

#include <gtest/gtest.h>

namespace sitfact {
namespace {

namespace fs = std::filesystem;

using persist::DurableEngine;
using persist::DurableOptions;
using persist::WalOp;
using persist::WalOpKind;
using testing_util::RandomDataConfig;
using testing_util::RandomDataset;

class TempDir {
 public:
  explicit TempDir(const std::string& name)
      : path_((fs::temp_directory_path() /
               ("sitfact_recovery_" + std::to_string(::getpid()) + "_" + name))
                  .string()) {
    fs::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  const std::string& path() const { return path_; }
  std::string sub(const std::string& name) const {
    return (fs::path(path_) / name).string();
  }

 private:
  std::string path_;
};

Dataset NbaData(int n) {
  NbaGenerator::Config cfg;
  cfg.tuples_per_season = n > 8 ? n / 8 : 1;
  Dataset full = NbaGenerator(cfg).Generate(n);
  auto proj = full.Project(NbaGenerator::DimensionsForD(4),
                           NbaGenerator::MeasuresForM(4));
  SITFACT_CHECK(proj.ok());
  return std::move(proj).value();
}

Dataset WeatherData(int n) {
  WeatherGenerator::Config cfg;
  cfg.num_locations = 64;
  cfg.records_per_day = n > 24 ? n / 24 : 1;
  Dataset full = WeatherGenerator(cfg).Generate(n);
  auto proj = full.Project(WeatherGenerator::DimensionsForD(3),
                           WeatherGenerator::MeasuresForM(3));
  SITFACT_CHECK(proj.ok());
  return std::move(proj).value();
}

Dataset SyntheticData(int n) {
  RandomDataConfig cfg;
  cfg.num_tuples = n;
  cfg.num_dims = 3;
  cfg.num_measures = 2;
  cfg.mixed_directions = true;
  cfg.seed = 99;
  return RandomDataset(cfg);
}

/// An op script: the WalOp struct doubles as the scripted-op record (seq
/// unused). Targets are chosen against a simulated relation so every
/// executor sees the same valid ops.
std::vector<WalOp> MakeScript(const Dataset& data, bool mutations,
                              uint64_t seed) {
  std::vector<WalOp> script;
  Rng rng(seed);
  std::vector<TupleId> live;
  TupleId next_id = 0;
  for (size_t i = 0; i < data.rows().size(); ++i) {
    if (mutations && i % 9 == 8 && live.size() > 4) {
      WalOp op;
      op.kind = WalOpKind::kRemove;
      size_t pick = rng.NextBounded(live.size());
      op.target = live[pick];
      live.erase(live.begin() + static_cast<ptrdiff_t>(pick));
      script.push_back(op);
    }
    if (mutations && i % 13 == 12 && live.size() > 4) {
      WalOp op;
      op.kind = WalOpKind::kUpdate;
      size_t pick = rng.NextBounded(live.size());
      op.target = live[pick];
      op.row = data.rows()[i];
      live.erase(live.begin() + static_cast<ptrdiff_t>(pick));
      live.push_back(next_id++);
      script.push_back(op);
      continue;  // the row entered via the update
    }
    WalOp op;
    op.kind = WalOpKind::kAppend;
    op.row = data.rows()[i];
    live.push_back(next_id++);
    script.push_back(op);
  }
  return script;
}

struct RunResult {
  std::vector<ArrivalReport> reports;  // slot per op; removes leave it empty
  uint32_t relation_size = 0;
  uint32_t live_size = 0;
  std::map<Constraint, uint64_t> counts;  // zero entries dropped
  ArrivalReport probe;                    // report of one extra append
};

void ExpectReportsEqual(const ArrivalReport& got, const ArrivalReport& want,
                        const std::string& where) {
  EXPECT_EQ(got.tuple, want.tuple) << where;
  EXPECT_EQ(got.facts, want.facts) << where;
  ASSERT_EQ(got.ranked.size(), want.ranked.size()) << where;
  for (size_t i = 0; i < want.ranked.size(); ++i) {
    EXPECT_EQ(got.ranked[i].fact, want.ranked[i].fact) << where << " #" << i;
    EXPECT_EQ(got.ranked[i].context_size, want.ranked[i].context_size)
        << where << " #" << i;
    EXPECT_EQ(got.ranked[i].skyline_size, want.ranked[i].skyline_size)
        << where << " #" << i;
    EXPECT_EQ(got.ranked[i].prominence, want.ranked[i].prominence)
        << where << " #" << i;
  }
  ASSERT_EQ(got.prominent.size(), want.prominent.size()) << where;
  for (size_t i = 0; i < want.prominent.size(); ++i) {
    EXPECT_EQ(got.prominent[i].fact, want.prominent[i].fact)
        << where << " #" << i;
  }
}

void ExpectRunsEqual(const RunResult& got, const RunResult& want,
                     const std::string& where) {
  ASSERT_EQ(got.reports.size(), want.reports.size()) << where;
  for (size_t i = 0; i < want.reports.size(); ++i) {
    ExpectReportsEqual(got.reports[i], want.reports[i],
                       where + " op " + std::to_string(i));
  }
  EXPECT_EQ(got.relation_size, want.relation_size) << where;
  EXPECT_EQ(got.live_size, want.live_size) << where;
  EXPECT_EQ(got.counts, want.counts) << where;
  ExpectReportsEqual(got.probe, want.probe, where + " probe");
}

Row ProbeRow(const Dataset& data) { return data.rows().front(); }

std::map<Constraint, uint64_t> CounterOf(DurableEngine* durable) {
  std::map<Constraint, uint64_t> out;
  auto add = [&out](const Constraint& c, uint64_t n) {
    if (n > 0) out[c] = n;
  };
  durable->engine()->counter().ForEach(add);
  return out;
}

/// Uninterrupted reference: one sequential engine over the whole script.
RunResult RunReference(const Dataset& data, const std::string& algorithm,
                       const std::vector<WalOp>& script,
                       const std::string& fs_dir) {
  Relation relation(data.schema());
  auto disc_or = DiscoveryEngine::CreateDiscoverer(algorithm, &relation,
                                                   DiscoveryOptions(), fs_dir);
  SITFACT_CHECK_MSG(disc_or.ok(), disc_or.status().ToString().c_str());
  DiscoveryEngine::Config config;
  config.tau = 2.0;
  config.rank_facts = disc_or.value()->store() != nullptr;
  DiscoveryEngine engine(&relation, std::move(disc_or).value(), config);

  RunResult out;
  out.reports.resize(script.size());
  for (size_t i = 0; i < script.size(); ++i) {
    const WalOp& op = script[i];
    switch (op.kind) {
      case WalOpKind::kAppend:
        out.reports[i] = engine.Append(op.row);
        break;
      case WalOpKind::kRemove: {
        Status st = engine.Remove(op.target);
        SITFACT_CHECK_MSG(st.ok(), st.ToString().c_str());
        break;
      }
      case WalOpKind::kUpdate: {
        auto report_or = engine.Update(op.target, op.row);
        SITFACT_CHECK_MSG(report_or.ok(),
                          report_or.status().ToString().c_str());
        out.reports[i] = std::move(report_or).value();
        break;
      }
    }
  }
  out.relation_size = relation.size();
  out.live_size = relation.live_size();
  engine.counter().ForEach([&](const Constraint& c, uint64_t n) {
    if (n > 0) out.counts[c] = n;
  });
  out.probe = engine.Append(ProbeRow(data));
  return out;
}

StatusOr<ArrivalReport> ApplyToDurable(DurableEngine* durable,
                                       const WalOp& op) {
  switch (op.kind) {
    case WalOpKind::kAppend:
      return durable->Append(op.row);
    case WalOpKind::kRemove: {
      Status st = durable->Remove(op.target);
      if (!st.ok()) return st;
      return ArrivalReport();
    }
    case WalOpKind::kUpdate:
      return durable->Update(op.target, op.row);
  }
  return Status::InvalidArgument("bad op kind");
}

/// Durable run killed after `cut` ops (the DurableEngine is destroyed — a
/// kill, since records are flushed per op), optionally with the newest WAL
/// segment truncated to simulate a crash mid-write, then recovered and
/// finished. Ops the truncation destroyed are re-sent from next_seq(), the
/// at-least-once producer contract.
RunResult RunDurableWithKill(const Dataset& data, DurableOptions options,
                             const std::vector<WalOp>& script, size_t cut,
                             size_t truncate_tail_bytes) {
  RunResult out;
  out.reports.resize(script.size());
  {
    auto durable_or = DurableEngine::Open(options, data.schema());
    SITFACT_CHECK_MSG(durable_or.ok(),
                      durable_or.status().ToString().c_str());
    std::unique_ptr<DurableEngine> durable = std::move(durable_or).value();
    for (size_t i = 0; i < cut; ++i) {
      auto report_or = ApplyToDurable(durable.get(), script[i]);
      SITFACT_CHECK_MSG(report_or.ok(),
                        report_or.status().ToString().c_str());
      out.reports[i] = std::move(report_or).value();
    }
  }  // kill

  if (truncate_tail_bytes > 0) {
    std::string newest_wal;
    for (const auto& entry : fs::directory_iterator(options.dir)) {
      const std::string name = entry.path().filename().string();
      if (name.rfind("wal-", 0) == 0 && name > newest_wal) {
        newest_wal = entry.path().string();
      }
    }
    SITFACT_CHECK(!newest_wal.empty());
    const auto size = fs::file_size(newest_wal);
    if (truncate_tail_bytes < size) {
      fs::resize_file(newest_wal, size - truncate_tail_bytes);
    }
  }

  auto durable_or = DurableEngine::Open(options, Schema());
  SITFACT_CHECK_MSG(durable_or.ok(), durable_or.status().ToString().c_str());
  std::unique_ptr<DurableEngine> durable = std::move(durable_or).value();
  const uint64_t resume_at = durable->next_seq();
  SITFACT_CHECK(resume_at <= cut);
  for (size_t i = resume_at; i < script.size(); ++i) {
    auto report_or = ApplyToDurable(durable.get(), script[i]);
    SITFACT_CHECK_MSG(report_or.ok(), report_or.status().ToString().c_str());
    // Re-sent ops (lost to truncation) must reproduce the pre-kill report.
    out.reports[i] = std::move(report_or).value();
  }
  out.relation_size = durable->relation().size();
  out.live_size = durable->relation().live_size();
  out.counts = CounterOf(durable.get());
  auto probe_or = durable->Append(ProbeRow(data));
  SITFACT_CHECK_MSG(probe_or.ok(), probe_or.status().ToString().c_str());
  out.probe = std::move(probe_or).value();
  return out;
}

// ---------------------------------------------------------------------------
// Sequential engines, all three stream families, mutations included where
// the algorithm supports removal, kills at several cut points.

struct SequentialCase {
  const char* label;
  const char* algorithm;
  bool mutations;
};

void RunSequentialMatrix(const Dataset& data, const std::string& data_label,
                         const std::vector<SequentialCase>& cases) {
  for (const SequentialCase& c : cases) {
    std::vector<WalOp> script = MakeScript(data, c.mutations, /*seed=*/5);
    RunResult reference = RunReference(data, c.algorithm, script, "");
    for (size_t cut : {size_t{3}, script.size() / 2, script.size() - 2}) {
      TempDir dir(data_label + std::string("_") + c.label + "_" +
                  std::to_string(cut));
      DurableOptions options;
      options.dir = dir.sub("store");
      options.algorithm = c.algorithm;
      options.tau = 2.0;
      options.checkpoint_every = 13;
      RunResult durable =
          RunDurableWithKill(data, options, script, cut, /*truncate=*/0);
      ExpectRunsEqual(durable, reference,
                      data_label + "/" + c.label + " cut " +
                          std::to_string(cut));
    }
  }
}

TEST(PersistRecovery, NbaSequentialKillRestore) {
  RunSequentialMatrix(NbaData(60), "nba",
                      {{"BottomUp", "BottomUp", true},
                       {"STopDown", "STopDown", true}});
}

TEST(PersistRecovery, WeatherSequentialKillRestore) {
  RunSequentialMatrix(WeatherData(60), "weather",
                      {{"TopDown", "TopDown", true},
                       {"SBottomUp", "SBottomUp", true}});
}

TEST(PersistRecovery, SyntheticSequentialKillRestore) {
  RunSequentialMatrix(SyntheticData(70), "synth",
                      {{"STopDown", "STopDown", true},
                       {"BottomUp", "BottomUp", true}});
}

// File-backed µ store: bucket files live outside the snapshot and are fully
// rewritten on restore.
TEST(PersistRecovery, FileStoreKillRestore) {
  Dataset data = NbaData(40);
  std::vector<WalOp> script = MakeScript(data, /*mutations=*/true, 5);
  TempDir dir("fsbu");
  RunResult reference =
      RunReference(data, "FSBottomUp", script, dir.sub("ref_store"));
  DurableOptions options;
  options.dir = dir.sub("store");
  options.algorithm = "FSBottomUp";
  options.file_store_dir = dir.sub("fs_buckets");
  options.tau = 2.0;
  options.checkpoint_every = 11;
  RunResult durable = RunDurableWithKill(data, options, script,
                                         script.size() / 2, /*truncate=*/0);
  ExpectRunsEqual(durable, reference, "FSBottomUp");
}

// Store-less algorithms: BaselineIdx restores by rebuilding its k-d tree
// from the relation; C-CSC cannot restore at all and uses the replay
// escape hatch. Neither ranks facts (no µ store), and neither supports
// removal, so the scripts are append-only.
TEST(PersistRecovery, BaselineIdxKillRestore) {
  Dataset data = SyntheticData(50);
  std::vector<WalOp> script = MakeScript(data, /*mutations=*/false, 5);
  RunResult reference = RunReference(data, "BaselineIdx", script, "");
  TempDir dir("bidx");
  DurableOptions options;
  options.dir = dir.sub("store");
  options.algorithm = "BaselineIdx";
  options.tau = 2.0;
  options.checkpoint_every = 17;
  RunResult durable = RunDurableWithKill(data, options, script,
                                         script.size() / 3, /*truncate=*/0);
  ExpectRunsEqual(durable, reference, "BaselineIdx");
}

TEST(PersistRecovery, CcscReplayRebuildKillRestore) {
  Dataset data = SyntheticData(40);
  std::vector<WalOp> script = MakeScript(data, /*mutations=*/false, 5);
  RunResult reference = RunReference(data, "C-CSC", script, "");
  TempDir dir("ccsc");
  DurableOptions options;
  options.dir = dir.sub("store");
  options.algorithm = "C-CSC";
  options.tau = 2.0;
  options.checkpoint_every = 9;
  options.allow_replay_rebuild = true;
  RunResult durable = RunDurableWithKill(data, options, script,
                                         script.size() / 2, /*truncate=*/0);
  ExpectRunsEqual(durable, reference, "C-CSC");
}

// ---------------------------------------------------------------------------
// The sharded backend: durable sharded runs must match the sequential
// reference (its own equivalence contract), and stores must restore across
// backends and shard counts.

TEST(PersistRecovery, ShardedKillRestoreMatchesSequentialReference) {
  for (const auto& [label, data] :
       {std::pair<const char*, Dataset>{"nba", NbaData(60)},
        std::pair<const char*, Dataset>{"synth", SyntheticData(60)}}) {
    std::vector<WalOp> script = MakeScript(data, /*mutations=*/true, 5);
    RunResult reference = RunReference(data, "SBottomUp", script, "");
    for (size_t cut : {script.size() / 3, script.size() - 2}) {
      TempDir dir(std::string("sharded_") + label + "_" +
                  std::to_string(cut));
      DurableOptions options;
      options.dir = dir.sub("store");
      options.num_shards = 3;
      options.num_threads = 2;
      options.tau = 2.0;
      options.checkpoint_every = 13;
      RunResult durable =
          RunDurableWithKill(data, options, script, cut, /*truncate=*/0);
      ExpectRunsEqual(durable, reference,
                      std::string("sharded/") + label + " cut " +
                          std::to_string(cut));
    }
  }
}

TEST(PersistRecovery, CrossBackendAndShardCountRestore) {
  Dataset data = SyntheticData(50);
  std::vector<WalOp> script = MakeScript(data, /*mutations=*/true, 5);
  RunResult reference = RunReference(data, "SBottomUp", script, "");
  const size_t cut = script.size() / 2;

  // Written sequential (SBottomUp), reopened sharded K=4.
  {
    TempDir dir("seq_to_sharded");
    DurableOptions options;
    options.dir = dir.sub("store");
    options.algorithm = "SBottomUp";
    options.tau = 2.0;
    options.checkpoint_every = 7;
    {
      auto durable_or = DurableEngine::Open(options, data.schema());
      ASSERT_TRUE(durable_or.ok());
      for (size_t i = 0; i < cut; ++i) {
        ASSERT_TRUE(ApplyToDurable(durable_or.value().get(), script[i]).ok());
      }
    }
    options.num_shards = 4;
    options.num_threads = 2;
    auto durable_or = DurableEngine::Open(options, Schema());
    ASSERT_TRUE(durable_or.ok()) << durable_or.status().ToString();
    std::unique_ptr<DurableEngine> durable = std::move(durable_or).value();
    ASSERT_EQ(durable->algorithm(), "Sharded");
    RunResult got;
    got.reports.resize(script.size());
    for (size_t i = 0; i < cut; ++i) got.reports[i] = reference.reports[i];
    for (size_t i = durable->next_seq(); i < script.size(); ++i) {
      auto report_or = ApplyToDurable(durable.get(), script[i]);
      ASSERT_TRUE(report_or.ok());
      got.reports[i] = std::move(report_or).value();
    }
    got.relation_size = durable->relation().size();
    got.live_size = durable->relation().live_size();
    got.counts = CounterOf(durable.get());
    auto probe_or = durable->Append(ProbeRow(data));
    ASSERT_TRUE(probe_or.ok());
    got.probe = std::move(probe_or).value();
    ExpectRunsEqual(got, reference, "seq->sharded");
  }

  // Written sharded K=3, reopened sequential (maps to SBottomUp), then
  // reopened sharded again at K=5.
  {
    TempDir dir("sharded_roundtrip");
    DurableOptions options;
    options.dir = dir.sub("store");
    options.num_shards = 3;
    options.num_threads = 2;
    options.tau = 2.0;
    {
      auto durable_or = DurableEngine::Open(options, data.schema());
      ASSERT_TRUE(durable_or.ok());
      for (size_t i = 0; i < cut; ++i) {
        ASSERT_TRUE(ApplyToDurable(durable_or.value().get(), script[i]).ok());
      }
      ASSERT_TRUE(durable_or.value()->Checkpoint().ok());
    }
    {
      DurableOptions seq = options;
      seq.num_shards = 0;
      seq.num_threads = 0;
      auto durable_or = DurableEngine::Open(seq, Schema());
      ASSERT_TRUE(durable_or.ok()) << durable_or.status().ToString();
      ASSERT_EQ(durable_or.value()->algorithm(), "SBottomUp");
      ASSERT_TRUE(durable_or.value()->Checkpoint().ok());
    }
    options.num_shards = 5;
    auto durable_or = DurableEngine::Open(options, Schema());
    ASSERT_TRUE(durable_or.ok()) << durable_or.status().ToString();
    std::unique_ptr<DurableEngine> durable = std::move(durable_or).value();
    for (size_t i = durable->next_seq(); i < script.size(); ++i) {
      ASSERT_TRUE(ApplyToDurable(durable.get(), script[i]).ok());
    }
    EXPECT_EQ(durable->relation().size(), reference.relation_size);
    EXPECT_EQ(durable->relation().live_size(), reference.live_size);
    EXPECT_EQ(CounterOf(durable.get()), reference.counts);
    auto probe_or = durable->Append(ProbeRow(data));
    ASSERT_TRUE(probe_or.ok());
    ExpectReportsEqual(probe_or.value(), reference.probe,
                       "sharded roundtrip probe");
  }
}

// ---------------------------------------------------------------------------
// Mid-record truncation, exhaustively: for EVERY byte offset of the WAL
// tail, a kill + truncate + recover + re-send run must converge to the
// reference. This is the "torn write at an arbitrary offset" guarantee.

TEST(PersistRecovery, WalTruncationAtEveryByteOffset) {
  Dataset data = SyntheticData(24);
  std::vector<WalOp> script = MakeScript(data, /*mutations=*/true, 5);
  RunResult reference = RunReference(data, "STopDown", script, "");

  // Build one killed store with a half-stream WAL tail, then replay the
  // recovery from a pristine copy for every truncation length.
  TempDir dir("torn");
  DurableOptions options;
  options.dir = dir.sub("master");
  options.algorithm = "STopDown";
  options.tau = 2.0;
  options.checkpoint_every = 10;  // snapshot at seq 10+, tail beyond it
  const size_t cut = script.size() - 2;
  {
    auto durable_or = DurableEngine::Open(options, data.schema());
    ASSERT_TRUE(durable_or.ok());
    for (size_t i = 0; i < cut; ++i) {
      ASSERT_TRUE(ApplyToDurable(durable_or.value().get(), script[i]).ok());
    }
  }
  std::string newest_wal;
  for (const auto& entry : fs::directory_iterator(options.dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("wal-", 0) == 0 && name > newest_wal) {
      newest_wal = entry.path().filename().string();
    }
  }
  ASSERT_FALSE(newest_wal.empty());
  const auto wal_size =
      fs::file_size(fs::path(options.dir) / newest_wal);
  ASSERT_GT(wal_size, 24u);

  uint64_t prev_resume = 0;
  bool first = true;
  for (uintmax_t keep = wal_size; keep + 1 > 24; --keep) {
    DurableOptions trial = options;
    trial.dir = dir.sub("trial");
    std::error_code ec;
    fs::remove_all(trial.dir, ec);
    fs::copy(options.dir, trial.dir);
    fs::resize_file(fs::path(trial.dir) / newest_wal, keep);

    auto durable_or = DurableEngine::Open(trial, Schema());
    ASSERT_TRUE(durable_or.ok())
        << "keep " << keep << ": " << durable_or.status().ToString();
    std::unique_ptr<DurableEngine> durable = std::move(durable_or).value();
    const uint64_t resume_at = durable->next_seq();
    ASSERT_LE(resume_at, cut) << "keep " << keep;
    if (!first) {
      // Fewer surviving bytes can never recover more ops.
      ASSERT_LE(resume_at, prev_resume) << "keep " << keep;
    }
    first = false;
    prev_resume = resume_at;

    for (size_t i = resume_at; i < script.size(); ++i) {
      auto report_or = ApplyToDurable(durable.get(), script[i]);
      ASSERT_TRUE(report_or.ok()) << "keep " << keep;
      // Spot-check replays against the reference (full compare per offset
      // would swamp the log on failure).
      if (script[i].kind != WalOpKind::kRemove) {
        ExpectReportsEqual(report_or.value(), reference.reports[i],
                           "keep " + std::to_string(keep) + " op " +
                               std::to_string(i));
      }
    }
    EXPECT_EQ(durable->relation().size(), reference.relation_size)
        << "keep " << keep;
    EXPECT_EQ(durable->relation().live_size(), reference.live_size)
        << "keep " << keep;
    EXPECT_EQ(CounterOf(durable.get()), reference.counts) << "keep " << keep;
  }
}

// A second crash after a torn-tail recovery must not lose the ops the first
// recovery's successor segment accumulated: the successor starts exactly at
// the truncation point, so the replay chain continues through it instead of
// stopping at the old scar (and the new segment created at the recovered
// cursor must not clobber it).
TEST(PersistRecovery, RepeatedCrashAfterTornTailKeepsSuccessorSegmentOps) {
  Dataset data = SyntheticData(30);
  std::vector<WalOp> script = MakeScript(data, /*mutations=*/false, 5);
  RunResult reference = RunReference(data, "STopDown", script, "");
  TempDir dir("successor");
  DurableOptions options;
  options.dir = dir.sub("store");
  options.algorithm = "STopDown";
  options.tau = 2.0;  // manual checkpoints only: the whole tail is WAL

  // Crash 1: 20 ops in the genesis segment, last record torn.
  {
    auto durable_or = DurableEngine::Open(options, data.schema());
    ASSERT_TRUE(durable_or.ok());
    for (size_t i = 0; i < 20; ++i) {
      ASSERT_TRUE(ApplyToDurable(durable_or.value().get(), script[i]).ok());
    }
  }
  const std::string genesis_wal =
      (fs::path(options.dir) / "wal-00000000000000000000.sfwal").string();
  fs::resize_file(genesis_wal, fs::file_size(genesis_wal) - 5);

  // Recovery 1 drops the torn op 19, re-sends 19..24, then crash 2.
  uint64_t resumed_at = 0;
  {
    auto durable_or = DurableEngine::Open(options, Schema());
    ASSERT_TRUE(durable_or.ok());
    std::unique_ptr<DurableEngine> durable = std::move(durable_or).value();
    EXPECT_TRUE(durable->recovery().tail_truncated);
    resumed_at = durable->next_seq();
    ASSERT_LT(resumed_at, 20u);
    for (size_t i = resumed_at; i < 25; ++i) {
      ASSERT_TRUE(ApplyToDurable(durable.get(), script[i]).ok());
    }
  }

  // Recovery 2 must pick up the successor segment's acknowledged ops: the
  // chain is genesis ops [0, resumed_at), torn scar, successor ops
  // [resumed_at, 25).
  auto durable_or = DurableEngine::Open(options, Schema());
  ASSERT_TRUE(durable_or.ok());
  std::unique_ptr<DurableEngine> durable = std::move(durable_or).value();
  EXPECT_EQ(durable->next_seq(), 25u);
  EXPECT_FALSE(durable->recovery().tail_truncated)
      << durable->recovery().note;
  for (size_t i = durable->next_seq(); i < script.size(); ++i) {
    ASSERT_TRUE(ApplyToDurable(durable.get(), script[i]).ok());
  }
  EXPECT_EQ(durable->relation().size(), reference.relation_size);
  EXPECT_EQ(CounterOf(durable.get()), reference.counts);
  auto probe_or = durable->Append(ProbeRow(data));
  ASSERT_TRUE(probe_or.ok());
  ExpectReportsEqual(probe_or.value(), reference.probe, "successor probe");
}

// The inverse hazard: when mid-chain corruption drops ops, any segment
// starting beyond the drop point is a dead timeline (its ops build on the
// dropped ones) and must be removed — otherwise, once re-sent ops advance
// the cursor back to its start_seq, a later recovery would splice the old
// timeline onto the new one.
TEST(PersistRecovery, StaleSegmentsBeyondTruncationAreRemoved) {
  Dataset data = SyntheticData(30);
  std::vector<WalOp> script = MakeScript(data, /*mutations=*/false, 5);
  RunResult reference = RunReference(data, "STopDown", script, "");
  TempDir dir("stale");
  DurableOptions options;
  options.dir = dir.sub("store");
  options.algorithm = "STopDown";
  options.tau = 2.0;  // manual checkpoints only

  {
    auto durable_or = DurableEngine::Open(options, data.schema());
    ASSERT_TRUE(durable_or.ok());
    for (size_t i = 0; i < 20; ++i) {
      ASSERT_TRUE(ApplyToDurable(durable_or.value().get(), script[i]).ok());
    }
  }
  // Clean recovery rotates to wal-20; ops 20..24 land there; kill.
  {
    auto durable_or = DurableEngine::Open(options, Schema());
    ASSERT_TRUE(durable_or.ok());
    ASSERT_EQ(durable_or.value()->next_seq(), 20u);
    for (size_t i = 20; i < 25; ++i) {
      ASSERT_TRUE(ApplyToDurable(durable_or.value().get(), script[i]).ok());
    }
  }
  // Bit rot inside wal-0: flip a byte well inside the record stream so
  // replay stops mid-segment, stranding wal-20 on a dead timeline.
  const std::string genesis_wal =
      (fs::path(options.dir) / "wal-00000000000000000000.sfwal").string();
  {
    std::fstream f(genesis_wal,
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(static_cast<std::streamoff>(fs::file_size(genesis_wal) / 2));
    char byte = 0;
    f.read(&byte, 1);
    f.seekp(-1, std::ios::cur);
    byte = static_cast<char>(byte ^ 0x20);
    f.write(&byte, 1);
  }
  uint64_t resumed_at = 0;
  {
    auto durable_or = DurableEngine::Open(options, Schema());
    ASSERT_TRUE(durable_or.ok());
    std::unique_ptr<DurableEngine> durable = std::move(durable_or).value();
    EXPECT_TRUE(durable->recovery().tail_truncated);
    resumed_at = durable->next_seq();
    ASSERT_LT(resumed_at, 20u);
    EXPECT_FALSE(fs::exists(fs::path(options.dir) /
                            "wal-00000000000000000020.sfwal"))
        << "dead-timeline segment must be removed";
    // Re-send the new timeline to the end and kill.
    for (size_t i = resumed_at; i < script.size(); ++i) {
      ASSERT_TRUE(ApplyToDurable(durable.get(), script[i]).ok());
    }
  }
  // The final recovery walks only the new timeline.
  auto durable_or = DurableEngine::Open(options, Schema());
  ASSERT_TRUE(durable_or.ok());
  std::unique_ptr<DurableEngine> durable = std::move(durable_or).value();
  EXPECT_EQ(durable->next_seq(), script.size());
  EXPECT_EQ(durable->relation().size(), reference.relation_size);
  EXPECT_EQ(CounterOf(durable.get()), reference.counts);
  auto probe_or = durable->Append(ProbeRow(data));
  ASSERT_TRUE(probe_or.ok());
  ExpectReportsEqual(probe_or.value(), reference.probe, "stale probe");
}

// A corrupted newest snapshot falls back to the previous one, replaying the
// longer WAL chain instead.
TEST(PersistRecovery, CorruptSnapshotFallsBackToOlderOne) {
  Dataset data = SyntheticData(40);
  std::vector<WalOp> script = MakeScript(data, /*mutations=*/false, 5);
  RunResult reference = RunReference(data, "STopDown", script, "");
  TempDir dir("fallback");
  DurableOptions options;
  options.dir = dir.sub("store");
  options.algorithm = "STopDown";
  options.tau = 2.0;
  options.checkpoint_every = 10;
  // This test is about FULL-snapshot fallback; force every checkpoint to be
  // a full snapshot so there are several to fall back through. (Corrupt
  // deltas have their own fallback tests below.)
  options.delta_checkpoints = false;
  {
    auto durable_or = DurableEngine::Open(options, data.schema());
    ASSERT_TRUE(durable_or.ok());
    for (const WalOp& op : script) {
      ASSERT_TRUE(ApplyToDurable(durable_or.value().get(), op).ok());
    }
  }
  // Flip a byte in the middle of the newest snapshot.
  std::string newest;
  for (const auto& entry : fs::directory_iterator(options.dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("snapshot-", 0) == 0 && name > newest) {
      newest = entry.path().string();
    }
  }
  ASSERT_FALSE(newest.empty());
  {
    std::fstream f(newest,
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(static_cast<std::streamoff>(fs::file_size(newest) / 2));
    char byte = 0;
    f.read(&byte, 1);
    f.seekp(-1, std::ios::cur);
    byte = static_cast<char>(byte ^ 0x10);
    f.write(&byte, 1);
  }
  auto durable_or = DurableEngine::Open(options, Schema());
  ASSERT_TRUE(durable_or.ok()) << durable_or.status().ToString();
  std::unique_ptr<DurableEngine> durable = std::move(durable_or).value();
  EXPECT_LT(durable->recovery().snapshot_seq, script.size());
  EXPECT_EQ(durable->next_seq(), script.size());
  EXPECT_EQ(durable->relation().size(), reference.relation_size);
  EXPECT_EQ(CounterOf(durable.get()), reference.counts);
  auto probe_or = durable->Append(ProbeRow(data));
  ASSERT_TRUE(probe_or.ok());
  ExpectReportsEqual(probe_or.value(), reference.probe, "fallback probe");
}

// ---------------------------------------------------------------------------
// FactFeed durability: rows published through the async feed are WAL-logged
// and checkpointed per the every-N policy; a kill after Drain loses nothing.

TEST(PersistRecovery, FactFeedDurableBackendSurvivesKill) {
  Dataset data = NbaData(50);
  std::vector<WalOp> script = MakeScript(data, /*mutations=*/false, 5);
  RunResult reference = RunReference(data, "STopDown", script, "");
  TempDir dir("feed");
  DurableOptions options;
  options.dir = dir.sub("store");
  options.algorithm = "STopDown";
  options.tau = 2.0;
  options.checkpoint_every = 16;
  uint64_t feed_prominent = 0;
  {
    auto durable_or = DurableEngine::Open(options, data.schema());
    ASSERT_TRUE(durable_or.ok());
    std::unique_ptr<DurableEngine> durable = std::move(durable_or).value();
    uint64_t seen = 0;
    FactFeed feed(
        durable.get(), [&seen](const ArrivalReport&) { ++seen; },
        FactFeed::Options{.queue_capacity = 8});
    for (const Row& row : data.rows()) {
      ASSERT_TRUE(feed.Publish(row));
    }
    feed.Drain();
    feed.Stop();
    ASSERT_TRUE(feed.durable_status().ok());
    EXPECT_EQ(feed.processed(), data.rows().size());
    feed_prominent = feed.prominent_arrivals();
  }  // kill
  uint64_t reference_prominent = 0;
  for (const ArrivalReport& report : reference.reports) {
    if (!report.prominent.empty()) ++reference_prominent;
  }
  EXPECT_EQ(feed_prominent, reference_prominent);

  auto durable_or = DurableEngine::Open(options, Schema());
  ASSERT_TRUE(durable_or.ok());
  std::unique_ptr<DurableEngine> durable = std::move(durable_or).value();
  EXPECT_EQ(durable->next_seq(), data.rows().size());
  EXPECT_EQ(durable->relation().size(), reference.relation_size);
  EXPECT_EQ(CounterOf(durable.get()), reference.counts);
  auto probe_or = durable->Append(ProbeRow(data));
  ASSERT_TRUE(probe_or.ok());
  ExpectReportsEqual(probe_or.value(), reference.probe, "feed probe");
}

// Durable sharded feed: batched WAL-logged drain.
TEST(PersistRecovery, FactFeedDurableShardedBackend) {
  Dataset data = SyntheticData(40);
  std::vector<WalOp> script = MakeScript(data, /*mutations=*/false, 5);
  RunResult reference = RunReference(data, "SBottomUp", script, "");
  TempDir dir("feed_sharded");
  DurableOptions options;
  options.dir = dir.sub("store");
  options.num_shards = 3;
  options.num_threads = 2;
  options.tau = 2.0;
  options.checkpoint_every = 12;
  {
    auto durable_or = DurableEngine::Open(options, data.schema());
    ASSERT_TRUE(durable_or.ok());
    std::unique_ptr<DurableEngine> durable = std::move(durable_or).value();
    FactFeed feed(durable.get(), nullptr,
                  FactFeed::Options{.queue_capacity = 16, .max_batch = 8});
    for (const Row& row : data.rows()) {
      ASSERT_TRUE(feed.Publish(row));
    }
    feed.Drain();
    feed.Stop();
    ASSERT_TRUE(feed.durable_status().ok());
    EXPECT_EQ(feed.processed(), data.rows().size());
  }
  auto durable_or = DurableEngine::Open(options, Schema());
  ASSERT_TRUE(durable_or.ok());
  std::unique_ptr<DurableEngine> durable = std::move(durable_or).value();
  EXPECT_EQ(durable->next_seq(), data.rows().size());
  EXPECT_EQ(CounterOf(durable.get()), reference.counts);
  auto probe_or = durable->Append(ProbeRow(data));
  ASSERT_TRUE(probe_or.ok());
  ExpectReportsEqual(probe_or.value(), reference.probe, "sharded feed probe");
}

// A row whose arity does not match the schema must be rejected BEFORE it
// reaches the WAL: logged-then-crashing rows would make every recovery
// replay the crash, bricking the store.
TEST(PersistRecovery, MismatchedArityIsRejectedBeforeLogging) {
  Dataset data = SyntheticData(5);
  TempDir dir("arity");
  DurableOptions options;
  options.dir = dir.sub("store");
  options.algorithm = "STopDown";
  auto durable_or = DurableEngine::Open(options, data.schema());
  ASSERT_TRUE(durable_or.ok());
  std::unique_ptr<DurableEngine> durable = std::move(durable_or).value();

  Row wide = data.rows().front();
  wide.dimensions.push_back("extra");
  EXPECT_FALSE(durable->Append(wide).ok());
  EXPECT_EQ(durable->next_seq(), 0u);
  size_t delivered = 0;
  const Status batch = durable->AppendBatch(
      std::span<const Row>(&wide, 1),
      [&delivered](ArrivalReport&&) { ++delivered; });
  EXPECT_FALSE(batch.ok());
  EXPECT_EQ(delivered, 0u);
  EXPECT_EQ(durable->next_seq(), 0u);

  ASSERT_TRUE(durable->Append(data.rows().front()).ok());
  EXPECT_EQ(durable->next_seq(), 1u);
  durable.reset();
  auto reopened_or = DurableEngine::Open(options, Schema());
  ASSERT_TRUE(reopened_or.ok());
  EXPECT_EQ(reopened_or.value()->next_seq(), 1u);
}

// A tear in the newest segment's FIRST record must still be reported as a
// truncated tail: the torn segment's own start_seq equals the drop point,
// and it must not pass for a successor segment of a prior recovery.
TEST(PersistRecovery, TearInNewestSegmentFirstRecordIsReported) {
  Dataset data = SyntheticData(14);
  std::vector<WalOp> script = MakeScript(data, /*mutations=*/false, 5);
  TempDir dir("firsttear");
  DurableOptions options;
  options.dir = dir.sub("store");
  options.algorithm = "STopDown";
  {
    auto durable_or = DurableEngine::Open(options, data.schema());
    ASSERT_TRUE(durable_or.ok());
    std::unique_ptr<DurableEngine> durable = std::move(durable_or).value();
    for (size_t i = 0; i < 10; ++i) {
      ASSERT_TRUE(ApplyToDurable(durable.get(), script[i]).ok());
    }
    ASSERT_TRUE(durable->Checkpoint().ok());
    for (size_t i = 10; i < 12; ++i) {
      ASSERT_TRUE(ApplyToDurable(durable.get(), script[i]).ok());
    }
  }
  const std::string tail_wal =
      (fs::path(options.dir) / "wal-00000000000000000010.sfwal").string();
  fs::resize_file(tail_wal, 24 + 4);  // header + a torn first frame

  auto durable_or = DurableEngine::Open(options, Schema());
  ASSERT_TRUE(durable_or.ok());
  EXPECT_EQ(durable_or.value()->next_seq(), 10u);
  EXPECT_TRUE(durable_or.value()->recovery().tail_truncated);
}

// Reopening with a mismatched schema must be rejected, not silently mixed.
TEST(PersistRecovery, SchemaMismatchOnReopenIsRejected) {
  Dataset data = SyntheticData(10);
  TempDir dir("schema");
  DurableOptions options;
  options.dir = dir.sub("store");
  options.algorithm = "STopDown";
  {
    auto durable_or = DurableEngine::Open(options, data.schema());
    ASSERT_TRUE(durable_or.ok());
  }
  Schema other({{"x"}, {"y"}}, {{"m", Direction::kLargerIsBetter}});
  auto durable_or = DurableEngine::Open(options, other);
  EXPECT_FALSE(durable_or.ok());
}

// ---------------------------------------------------------------------------
// Paged backend + delta checkpoints. The same differential bar as above,
// with the µ store spilling to a bounded page cache and checkpoints written
// as bucket-granular deltas; each test asserts the recovery actually walked
// a delta chain, so the paged delta path is provably the thing under test.

DurableOptions PagedOptions(const std::string& dir) {
  DurableOptions options;
  options.dir = dir;
  options.tau = 2.0;
  // A cache far below the µ-set working size, so records spill mid-stream.
  options.discovery.storage.backend = StorageBackend::kPaged;
  options.discovery.storage.page_size = 128;
  options.discovery.storage.cache_bytes = 16u << 10;
  return options;
}

TEST(PersistRecovery, PagedBackendKillRestoreWalksDeltaChain) {
  Dataset data = NbaData(60);
  std::vector<WalOp> script = MakeScript(data, /*mutations=*/true, 5);
  RunResult reference = RunReference(data, "STopDown", script, "");
  TempDir dir("paged_delta");
  DurableOptions options = PagedOptions(dir.sub("store"));
  options.algorithm = "STopDown";
  options.checkpoint_every = 7;  // default full_snapshot_every=8: all deltas
  const size_t cut = script.size() - 2;

  RunResult got;
  got.reports.resize(script.size());
  {
    auto durable_or = DurableEngine::Open(options, data.schema());
    ASSERT_TRUE(durable_or.ok()) << durable_or.status().ToString();
    for (size_t i = 0; i < cut; ++i) {
      auto report_or = ApplyToDurable(durable_or.value().get(), script[i]);
      ASSERT_TRUE(report_or.ok()) << report_or.status().ToString();
      got.reports[i] = std::move(report_or).value();
    }
  }  // kill
  auto durable_or = DurableEngine::Open(options, Schema());
  ASSERT_TRUE(durable_or.ok()) << durable_or.status().ToString();
  std::unique_ptr<DurableEngine> durable = std::move(durable_or).value();
  EXPECT_GT(durable->recovery().delta_chain, 0u)
      << "recovery did not walk a delta chain; the test lost its point";
  EXPECT_GT(durable->recovery().count_only_ops, 0u);
  for (size_t i = durable->next_seq(); i < script.size(); ++i) {
    auto report_or = ApplyToDurable(durable.get(), script[i]);
    ASSERT_TRUE(report_or.ok()) << report_or.status().ToString();
    got.reports[i] = std::move(report_or).value();
  }
  got.relation_size = durable->relation().size();
  got.live_size = durable->relation().live_size();
  got.counts = CounterOf(durable.get());
  auto probe_or = durable->Append(ProbeRow(data));
  ASSERT_TRUE(probe_or.ok());
  got.probe = std::move(probe_or).value();
  ExpectRunsEqual(got, reference, "paged delta");
}

TEST(PersistRecovery, PagedShardedKillRestoreWalksDeltaChain) {
  Dataset data = SyntheticData(50);
  std::vector<WalOp> script = MakeScript(data, /*mutations=*/true, 5);
  RunResult reference = RunReference(data, "SBottomUp", script, "");
  TempDir dir("paged_sharded");
  DurableOptions options = PagedOptions(dir.sub("store"));
  options.num_shards = 3;
  options.num_threads = 2;
  options.checkpoint_every = 9;
  const size_t cut = script.size() - 2;
  {
    auto durable_or = DurableEngine::Open(options, data.schema());
    ASSERT_TRUE(durable_or.ok()) << durable_or.status().ToString();
    for (size_t i = 0; i < cut; ++i) {
      ASSERT_TRUE(ApplyToDurable(durable_or.value().get(), script[i]).ok());
    }
  }  // kill
  auto durable_or = DurableEngine::Open(options, Schema());
  ASSERT_TRUE(durable_or.ok()) << durable_or.status().ToString();
  std::unique_ptr<DurableEngine> durable = std::move(durable_or).value();
  ASSERT_EQ(durable->algorithm(), "Sharded");
  EXPECT_GT(durable->recovery().delta_chain, 0u);
  for (size_t i = durable->next_seq(); i < script.size(); ++i) {
    ASSERT_TRUE(ApplyToDurable(durable.get(), script[i]).ok());
  }
  EXPECT_EQ(durable->relation().size(), reference.relation_size);
  EXPECT_EQ(durable->relation().live_size(), reference.live_size);
  EXPECT_EQ(CounterOf(durable.get()), reference.counts);
  auto probe_or = durable->Append(ProbeRow(data));
  ASSERT_TRUE(probe_or.ok());
  ExpectReportsEqual(probe_or.value(), reference.probe, "paged sharded probe");
}

// A corrupt delta must stop the chain walk at the last valid link, not kill
// recovery: the ops the dropped suffix covered are still in the retained
// WAL segments and replay in full.
TEST(PersistRecovery, CorruptDeltaFallsBackToValidChainPrefix) {
  Dataset data = SyntheticData(40);
  std::vector<WalOp> script = MakeScript(data, /*mutations=*/false, 5);
  RunResult reference = RunReference(data, "STopDown", script, "");
  TempDir dir("corrupt_delta");
  DurableOptions options = PagedOptions(dir.sub("store"));
  options.algorithm = "STopDown";
  options.checkpoint_every = 6;  // deltas at 6, 12, 18, 24, 30, 36
  {
    auto durable_or = DurableEngine::Open(options, data.schema());
    ASSERT_TRUE(durable_or.ok()) << durable_or.status().ToString();
    for (const WalOp& op : script) {
      ASSERT_TRUE(ApplyToDurable(durable_or.value().get(), op).ok());
    }
  }  // kill
  auto deltas = persist::ListDeltas(options.dir);
  ASSERT_GE(deltas.size(), 2u);
  {
    const std::string& newest = deltas.back().path;
    std::fstream f(newest, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(static_cast<std::streamoff>(fs::file_size(newest) / 2));
    char byte = 0;
    f.read(&byte, 1);
    f.seekp(-1, std::ios::cur);
    byte = static_cast<char>(byte ^ 0x40);
    f.write(&byte, 1);
  }
  auto durable_or = DurableEngine::Open(options, Schema());
  ASSERT_TRUE(durable_or.ok()) << durable_or.status().ToString();
  std::unique_ptr<DurableEngine> durable = std::move(durable_or).value();
  EXPECT_GT(durable->recovery().delta_chain, 0u);
  EXPECT_LT(durable->recovery().delta_chain, deltas.size())
      << "the corrupt newest delta cannot have been applied";
  EXPECT_FALSE(durable->recovery().delta_note.empty());
  EXPECT_EQ(durable->next_seq(), script.size());
  EXPECT_EQ(durable->relation().size(), reference.relation_size);
  EXPECT_EQ(CounterOf(durable.get()), reference.counts);
  auto probe_or = durable->Append(ProbeRow(data));
  ASSERT_TRUE(probe_or.ok());
  ExpectReportsEqual(probe_or.value(), reference.probe, "corrupt delta probe");
}

// A crash in the middle of the full-checkpoint compaction (pruning) phase
// can leave orphans: deltas chained off an already-pruned full snapshot and
// a half-written delta tmp file. Recovery must key the chain walk off the
// snapshot it actually loaded and ignore both kinds of debris.
TEST(PersistRecovery, CrashMidDeltaCompactionLeavesRecoverableStore) {
  Dataset data = SyntheticData(40);
  std::vector<WalOp> script = MakeScript(data, /*mutations=*/false, 5);
  RunResult reference = RunReference(data, "STopDown", script, "");
  TempDir dir("compaction_crash");
  DurableOptions options = PagedOptions(dir.sub("store"));
  options.algorithm = "STopDown";
  options.checkpoint_every = 5;
  options.full_snapshot_every = 2;  // delta-5, full-10, delta-15, full-20 ...
  const std::string stale_delta = dir.sub("stale-delta-copy");
  {
    auto durable_or = DurableEngine::Open(options, data.schema());
    ASSERT_TRUE(durable_or.ok()) << durable_or.status().ToString();
    for (size_t i = 0; i < 8; ++i) {
      ASSERT_TRUE(ApplyToDurable(durable_or.value().get(), script[i]).ok());
    }
    auto deltas = persist::ListDeltas(options.dir);
    ASSERT_EQ(deltas.size(), 1u);  // delta-5, chained off the genesis full
    fs::copy_file(deltas.front().path, stale_delta);
  }  // kill
  {
    auto durable_or = DurableEngine::Open(options, Schema());
    ASSERT_TRUE(durable_or.ok()) << durable_or.status().ToString();
    for (size_t i = 8; i < 23; ++i) {
      ASSERT_TRUE(ApplyToDurable(durable_or.value().get(), script[i]).ok());
    }
    // full-20's pruning removed the genesis snapshot and delta-5.
    ASSERT_EQ(persist::ListSnapshots(options.dir).front().seq, 10u);
  }  // kill
  // Simulate the compaction crash: the pruned chain's delta resurfaces (the
  // crash happened between removing the snapshot and its deltas) and a
  // half-written delta tmp is left behind.
  fs::copy_file(stale_delta,
                fs::path(options.dir) / "delta-00000000000000000005.sfdelta");
  {
    std::ofstream tmp(fs::path(options.dir) /
                          "delta-00000000000000000099.sfdelta.tmp",
                      std::ios::binary);
    tmp << "torn";
  }
  auto durable_or = DurableEngine::Open(options, Schema());
  ASSERT_TRUE(durable_or.ok()) << durable_or.status().ToString();
  std::unique_ptr<DurableEngine> durable = std::move(durable_or).value();
  EXPECT_EQ(durable->recovery().snapshot_seq, 20u);
  EXPECT_EQ(durable->next_seq(), 23u);
  for (size_t i = durable->next_seq(); i < script.size(); ++i) {
    ASSERT_TRUE(ApplyToDurable(durable.get(), script[i]).ok());
  }
  EXPECT_EQ(durable->relation().size(), reference.relation_size);
  EXPECT_EQ(CounterOf(durable.get()), reference.counts);
  auto probe_or = durable->Append(ProbeRow(data));
  ASSERT_TRUE(probe_or.ok());
  ExpectReportsEqual(probe_or.value(), reference.probe, "compaction probe");
}

}  // namespace
}  // namespace sitfact
