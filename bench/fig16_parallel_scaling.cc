// Figure 16 (repo extension, not from the paper): throughput scaling of the
// sharded parallel engine on the NBA stream. Settings follow Fig. 7(a)
// (d=5, m=7, d̂=4) with prominence ranking on, so both engines do the full
// per-arrival pipeline: append, discovery, context counting, ranking.
//
// The baseline is the sequential DiscoveryEngine over BottomUp (the
// invariant-1 algorithm the sharded engine parallelizes). The sharded runs
// fix K shards and sweep the worker-thread count; rows are fed through
// AppendBatch so the report merge of arrival i overlaps discovery of i+1.
//
// Speedups are wall-clock and therefore hardware-dependent: expect ~1x on a
// single-core container and >= 2x at 4 threads on a 4-core machine. The
// JSON (BENCH_fig16_parallel_scaling.json) records whatever this host
// measured.

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "exec/sharded_engine.h"
#include "harness.h"

namespace sitfact {
namespace bench {
namespace {

constexpr double kTau = 2.0;

struct RunResult {
  double wall_seconds = 0;
  uint64_t facts = 0;
  uint64_t comparisons = 0;
  size_t memory_bytes = 0;
};

RunResult RunSequential(const Dataset& data, const DiscoveryOptions& options) {
  Relation relation(data.schema());
  auto disc_or =
      DiscoveryEngine::CreateDiscoverer("BottomUp", &relation, options);
  SITFACT_CHECK(disc_or.ok());
  DiscoveryEngine::Config config;
  config.options = options;
  config.tau = kTau;
  DiscoveryEngine engine(&relation, std::move(disc_or).value(), config);

  RunResult result;
  WallTimer timer;
  for (const Row& row : data.rows()) {
    result.facts += engine.Append(row).facts.size();
  }
  result.wall_seconds = timer.ElapsedSeconds();
  result.comparisons = engine.discoverer().stats().comparisons;
  result.memory_bytes = engine.discoverer().ApproxMemoryBytes();
  return result;
}

RunResult RunSharded(const Dataset& data, const DiscoveryOptions& options,
                     int shards, int threads) {
  Relation relation(data.schema());
  ShardedEngine::Config config;
  config.num_shards = shards;
  config.num_threads = threads;
  config.options = options;
  config.tau = kTau;
  ShardedEngine engine(&relation, config);

  RunResult result;
  constexpr size_t kBatch = 512;
  const std::vector<Row>& rows = data.rows();
  WallTimer timer;
  for (size_t begin = 0; begin < rows.size(); begin += kBatch) {
    size_t count = std::min(kBatch, rows.size() - begin);
    for (const ArrivalReport& report : engine.AppendBatch(
             std::span<const Row>(rows.data() + begin, count))) {
      result.facts += report.facts.size();
    }
  }
  result.wall_seconds = timer.ElapsedSeconds();
  result.comparisons = engine.discoverer().stats().comparisons;
  result.memory_bytes = engine.discoverer().ApproxMemoryBytes();
  return result;
}

void Run() {
  int n = Scaled(2000);
  const int d = 5;
  const int m = 7;
  Dataset data = MakeNbaData(n, d, m);
  DiscoveryOptions options;
  options.max_bound_dims = 4;

  RunResult seq = RunSequential(data, options);
  RecordBench(BenchRecord{"sequential_BottomUp", static_cast<uint64_t>(n), d,
                          m, seq.wall_seconds * 1000.0, seq.comparisons,
                          seq.memory_bytes});

  std::printf(
      "# Fig. 16  Parallel scaling, NBA, n=%d, d=%d, m=%d, dhat=4, tau=%.1f\n",
      n, d, m, kTau);
  std::printf("%12s  %14s  %14s  %14s\n", "config", "wall_s", "tuples/s",
              "speedup");
  std::printf("%12s  %14.3f  %14.1f  %14.2f\n", "sequential", seq.wall_seconds,
              n / seq.wall_seconds, 1.0);

  const int kShards = 8;
  for (int threads : {1, 2, 4, 8}) {
    RunResult par = RunSharded(data, options, kShards, threads);
    SITFACT_CHECK_MSG(par.facts == seq.facts,
                      "sharded engine diverged from sequential");
    std::string label = "threads=" + std::to_string(threads);
    std::printf("%12s  %14.3f  %14.1f  %14.2f\n", label.c_str(),
                par.wall_seconds, n / par.wall_seconds,
                seq.wall_seconds / par.wall_seconds);
    RecordBench(BenchRecord{"sharded_" + label, static_cast<uint64_t>(n), d,
                            m, par.wall_seconds * 1000.0, par.comparisons,
                            par.memory_bytes});
  }
}

}  // namespace
}  // namespace bench
}  // namespace sitfact

int main(int argc, char** argv) {
  sitfact::bench::InitBenchOutput(&argc, argv);
  sitfact::bench::ScopedBenchJson json("fig16_parallel_scaling");
  sitfact::bench::Run();
  return 0;
}
