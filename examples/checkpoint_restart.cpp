// Checkpoint/restart: surviving a process restart without replaying history.
//
// A discovery deployment watches an unbounded stream; this example streams
// the first half of a synthetic NBA season, snapshots the engine to disk,
// "crashes", restores from the snapshot in a fresh engine, and streams the
// second half. Every post-restore arrival reports the same facts, with the
// same prominence, as an uninterrupted run — demonstrated by running both
// and diffing.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/checkpoint_restart

#include <stdlib.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "core/engine.h"
#include "datagen/nba_generator.h"
#include "io/snapshot.h"
#include "relation/dataset.h"
#include "relation/relation.h"

using sitfact::ArrivalReport;
using sitfact::Dataset;
using sitfact::DiscoveryEngine;
using sitfact::DiscoveryOptions;
using sitfact::LoadEngineSnapshot;
using sitfact::NbaGenerator;
using sitfact::RankedFact;
using sitfact::Relation;
using sitfact::RestoredEngine;
using sitfact::Row;
using sitfact::SaveEngineSnapshot;
using sitfact::Status;

namespace {

DiscoveryEngine MakeEngine(Relation* relation) {
  DiscoveryOptions options;
  options.max_bound_dims = 2;
  options.max_measure_dims = 2;
  auto disc = DiscoveryEngine::CreateDiscoverer("STopDown", relation, options);
  DiscoveryEngine::Config config;
  config.options = options;
  config.tau = 8.0;
  return DiscoveryEngine(relation, std::move(disc).value(), config);
}

/// Same canonical facts, and the same ranking down to the prominence bits.
bool SameReport(const ArrivalReport& a, const ArrivalReport& b) {
  if (a.facts != b.facts || a.ranked.size() != b.ranked.size() ||
      a.prominent.size() != b.prominent.size()) {
    return false;
  }
  for (size_t i = 0; i < a.ranked.size(); ++i) {
    const RankedFact& x = a.ranked[i];
    const RankedFact& y = b.ranked[i];
    if (!(x.fact == y.fact) || x.prominence != y.prominence) return false;
  }
  return true;
}

/// A private directory for this run's snapshot, removed on every exit path,
/// so concurrent runs never share a file.
class TempDir {
 public:
  TempDir() {
    std::string pattern =
        (std::filesystem::temp_directory_path() / "sitfact_checkpoint_XXXXXX")
            .string();
    if (::mkdtemp(pattern.data()) != nullptr) path_ = pattern;
  }
  ~TempDir() {
    std::error_code ignored;
    if (!path_.empty()) std::filesystem::remove_all(path_, ignored);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  /// Empty when the directory could not be created.
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

}  // namespace

int main() {
  TempDir dir;
  if (dir.path().empty()) {
    std::fprintf(stderr, "cannot create a temp directory\n");
    return 1;
  }
  const std::string snap_path = dir.path() + "/checkpoint.snap";

  NbaGenerator::Config gen_cfg;
  gen_cfg.tuples_per_season = 150;
  Dataset data = NbaGenerator(gen_cfg).Generate(600);
  const size_t cut = 300;

  // Reference: one uninterrupted run.
  Relation ref_relation(data.schema());
  DiscoveryEngine ref_engine = MakeEngine(&ref_relation);
  std::vector<ArrivalReport> ref_reports;
  for (const Row& row : data.rows()) {
    ref_reports.push_back(ref_engine.Append(row));
  }

  // Phase 1: stream half the season, checkpoint, and let the engine die.
  {
    Relation relation(data.schema());
    DiscoveryEngine engine = MakeEngine(&relation);
    for (size_t i = 0; i < cut; ++i) engine.Append(data.rows()[i]);
    Status saved = SaveEngineSnapshot(engine, snap_path);
    if (!saved.ok()) {
      std::fprintf(stderr, "checkpoint failed: %s\n",
                   saved.ToString().c_str());
      return 1;
    }
    std::printf("checkpointed after %zu arrivals (%ju bytes)\n", cut,
                static_cast<uintmax_t>(
                    std::filesystem::file_size(snap_path)));
  }  // engine and relation destroyed: the "crash"

  // Phase 2: restore and continue. The restored engine must behave exactly
  // like the uninterrupted one.
  auto restored_or = LoadEngineSnapshot(snap_path);
  if (!restored_or.ok()) {
    std::fprintf(stderr, "restore failed: %s\n",
                 restored_or.status().ToString().c_str());
    return 1;
  }
  RestoredEngine restored = std::move(restored_or).value();
  std::printf("restored %s engine with %u tuples\n",
              std::string(restored.engine->discoverer().name()).c_str(),
              restored.relation->size());

  size_t mismatches = 0;
  size_t facts = 0;
  for (size_t i = cut; i < data.rows().size(); ++i) {
    ArrivalReport report = restored.engine->Append(data.rows()[i]);
    facts += report.facts.size();
    if (!SameReport(report, ref_reports[i])) ++mismatches;
  }
  std::printf("streamed %zu post-restore arrivals (%zu facts): %zu "
              "mismatches vs the uninterrupted run\n",
              data.rows().size() - cut, facts, mismatches);
  return mismatches == 0 ? 0 : 1;
}
