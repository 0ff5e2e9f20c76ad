#ifndef SITFACT_BENCH_HARNESS_H_
#define SITFACT_BENCH_HARNESS_H_

// Shared stream-driver for the per-figure bench binaries. Each binary
// replays a generated dataset through one or more discovery algorithms,
// samples per-tuple latency and work counters at checkpoints, and prints the
// series the corresponding paper figure plots.
//
// Scaling: the 2014 experiments ran for hours on the full datasets; the
// defaults here are sized so the whole bench suite finishes on a laptop in
// minutes while preserving every qualitative shape (algorithm ordering,
// growth trends, crossovers). Set SITFACT_BENCH_SCALE=<float> to grow or
// shrink every stream length (e.g. 4 for a longer run closer to the paper's
// operating points).

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/cpu.h"
#include "common/logging.h"
#include "common/timer.h"
#include "core/discoverer.h"
#include "core/engine.h"
#include "datagen/nba_generator.h"
#include "datagen/weather_generator.h"
#include "relation/dataset.h"

namespace sitfact {
namespace bench {

// ---------------------------------------------------------------------------
// Machine-readable results. Every bench binary writes BENCH_<name>.json so
// the perf trajectory of the repo can be tracked run-over-run (CI's bench
// job uploads them and tools/bench_compare.py gates regressions against
// bench/baselines/). The output directory resolves as: the --out flag, then
// $SITFACT_BENCH_OUT, then the working directory — so CI and local runs
// stop scattering JSON into build/. ReplayStream records one entry per replay automatically; benches
// with bespoke drivers add entries by hand, and ScopedBenchJson at the top
// of main() guarantees at least a whole-process wall-time entry.

struct BenchRecord {
  std::string name;        // series label, e.g. the algorithm
  uint64_t n = 0;          // stream length
  int d = 0;               // dimension attributes
  int m = 0;               // measure attributes
  double wall_ms = 0;      // wall time of the measured region
  uint64_t comparisons = 0;  // dominance comparisons, when known
  size_t peak_bytes = 0;     // peak observed memory, when known
};

inline std::vector<BenchRecord>& BenchRecords() {
  static std::vector<BenchRecord> records;
  return records;
}

inline void RecordBench(BenchRecord record) {
  BenchRecords().push_back(std::move(record));
}

/// Peak resident set of the whole process so far, from the kernel's
/// ru_maxrss accounting. ReplayStream-driven benches report engine-owned
/// bytes (Discoverer::ApproxMemoryBytes) per sample; bespoke drivers with
/// no engine to ask (the kernel micro bench) sample this instead so their
/// trajectory rows carry real peaks rather than a hardwired 0. Monotonic
/// across a process, like any high-water mark.
inline size_t PeakRssBytes() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<size_t>(usage.ru_maxrss) * 1024;  // Linux reports KiB
}

inline std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;  // labels are ASCII
    out += c;
  }
  return out;
}

/// Output directory override set by InitBenchOutput's --out flag; empty
/// falls through to the environment.
inline std::string& BenchOutDir() {
  static std::string dir;
  return dir;
}

/// Parses harness-level bench flags — currently `--out DIR` / `--out=DIR` —
/// and strips them from argv so binaries with their own argument parsing
/// (Google Benchmark) never see them. Call first thing in main().
inline void InitBenchOutput(int* argc, char** argv) {
  int out_i = 1;
  for (int i = 1; i < *argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--out" && i + 1 < *argc) {
      BenchOutDir() = argv[++i];
      continue;
    }
    if (arg.rfind("--out=", 0) == 0) {
      BenchOutDir() = arg.substr(6);
      continue;
    }
    argv[out_i++] = argv[i];
  }
  *argc = out_i;
}

inline void WriteBenchJson(const std::string& bench_name) {
  std::string dir = BenchOutDir();
  if (dir.empty()) {
    const char* v = std::getenv("SITFACT_BENCH_OUT");
    if (v != nullptr) dir = v;
  }
  std::string path = !dir.empty()
                         ? dir + "/BENCH_" + bench_name + ".json"
                         : "BENCH_" + bench_name + ".json";
  if (!dir.empty()) {
    std::error_code ignored;
    std::filesystem::create_directories(dir, ignored);
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return;
  }
  // The SIMD tier the dominance kernels actually dispatched to in this
  // process (cpuid detection ∧ any SITFACT_SIMD override), so a recorded
  // trajectory is attributable to the kernel tier that produced it.
  // bench_compare.py keys on records only and ignores this field.
  std::fprintf(f, "{\"bench\": \"%s\", \"simd_tier\": \"%s\", \"records\": [",
               JsonEscape(bench_name).c_str(),
               SimdTierName(ActiveSimdTier()));
  const std::vector<BenchRecord>& records = BenchRecords();
  for (size_t i = 0; i < records.size(); ++i) {
    const BenchRecord& r = records[i];
    std::fprintf(f,
                 "%s\n  {\"name\": \"%s\", \"n\": %llu, \"d\": %d, \"m\": %d, "
                 "\"wall_ms\": %.3f, \"comparisons\": %llu, "
                 "\"peak_bytes\": %llu}",
                 i == 0 ? "" : ",", JsonEscape(r.name).c_str(),
                 static_cast<unsigned long long>(r.n), r.d, r.m, r.wall_ms,
                 static_cast<unsigned long long>(r.comparisons),
                 static_cast<unsigned long long>(r.peak_bytes));
  }
  std::fprintf(f, "\n]}\n");
  std::fclose(f);
  std::printf("\n# wrote %s (%zu records)\n", path.c_str(), records.size());
}

/// Put one of these at the top of main(): it times the whole run, appends a
/// "total" record, and writes BENCH_<name>.json on scope exit.
class ScopedBenchJson {
 public:
  explicit ScopedBenchJson(std::string bench_name)
      : bench_name_(std::move(bench_name)) {}
  ~ScopedBenchJson() {
    RecordBench(BenchRecord{"total", 0, 0, 0, timer_.ElapsedMillis(), 0, 0});
    WriteBenchJson(bench_name_);
  }

  ScopedBenchJson(const ScopedBenchJson&) = delete;
  ScopedBenchJson& operator=(const ScopedBenchJson&) = delete;

 private:
  std::string bench_name_;
  WallTimer timer_;
};

inline double BenchScale() {
  const char* env = std::getenv("SITFACT_BENCH_SCALE");
  if (env == nullptr) return 1.0;
  double v = std::strtod(env, nullptr);
  return v > 0 ? v : 1.0;
}

inline int Scaled(int n) {
  return static_cast<int>(static_cast<double>(n) * BenchScale());
}

/// NBA stream projected onto the Table V / Table VI spaces for (d, m).
inline Dataset MakeNbaData(int n, int d, int m) {
  NbaGenerator::Config cfg;
  // Keep roughly the real data's tuples-per-season ratio at small n so new
  // seasons (fresh contexts) still appear.
  cfg.tuples_per_season = n > 8 ? n / 8 : 1;
  NbaGenerator gen(cfg);
  Dataset full = gen.Generate(n);
  auto proj = full.Project(NbaGenerator::DimensionsForD(d),
                           NbaGenerator::MeasuresForM(m));
  SITFACT_CHECK(proj.ok());
  return std::move(proj).value();
}

/// Weather stream projected onto the first d dimensions / m measures.
inline Dataset MakeWeatherData(int n, int d, int m) {
  WeatherGenerator::Config cfg;
  cfg.num_locations = 512;  // scaled-down station count for short streams
  cfg.records_per_day = n > 24 ? n / 24 : 1;
  WeatherGenerator gen(cfg);
  Dataset full = gen.Generate(n);
  auto proj = full.Project(WeatherGenerator::DimensionsForD(d),
                           WeatherGenerator::MeasuresForM(m));
  SITFACT_CHECK(proj.ok());
  return std::move(proj).value();
}

/// Applies the SITFACT_BENCH_ALGOS filter (comma-separated engine names) to
/// a bench's algorithm list; unset or empty keeps the list unchanged, and a
/// filter matching nothing is ignored rather than silently producing an
/// empty bench. Lets a local A/B run isolate one engine's row (e.g.
/// SITFACT_BENCH_ALGOS=C-CSC for the interleaved before/after protocol in
/// ROADMAP.md) without editing the bench source. CI never sets it, so gated
/// JSON always carries every row.
inline std::vector<std::string> FilterAlgorithms(
    std::vector<std::string> algorithms) {
  const char* env = std::getenv("SITFACT_BENCH_ALGOS");
  if (env == nullptr || env[0] == '\0') return algorithms;
  std::string list = env;
  std::vector<std::string> keep;
  size_t pos = 0;
  while (pos <= list.size()) {
    size_t comma = list.find(',', pos);
    if (comma == std::string::npos) comma = list.size();
    std::string name = list.substr(pos, comma - pos);
    if (!name.empty()) keep.push_back(name);
    pos = comma + 1;
  }
  std::vector<std::string> out;
  for (auto& a : algorithms) {
    if (std::find(keep.begin(), keep.end(), a) != keep.end()) {
      out.push_back(std::move(a));
    }
  }
  return out.empty() ? std::move(algorithms) : out;
}

/// One checkpoint sample of a timed stream replay.
struct Sample {
  uint64_t tuple_id = 0;       // 1-based arrival count at the checkpoint
  double per_tuple_ms = 0;     // mean Discover() latency in the window
  uint64_t comparisons = 0;    // cumulative (Fig. 11a)
  uint64_t traversed = 0;      // cumulative (Fig. 11b)
  uint64_t stored_tuples = 0;  // current (Fig. 10b)
  size_t memory_bytes = 0;     // current (Fig. 10a)
  uint64_t file_reads = 0;     // cumulative (file stores)
  uint64_t file_writes = 0;
};

struct StreamResult {
  std::string algorithm;
  std::vector<Sample> samples;
  double total_seconds = 0;
  double mean_per_tuple_ms = 0;
};

/// Replays `data` through a fresh instance of `algorithm`, sampling at every
/// multiple of `window` arrivals. The relation is owned here so every replay
/// starts from an empty table.
inline StreamResult ReplayStream(const std::string& algorithm,
                                 const Dataset& data, int window,
                                 const DiscoveryOptions& options) {
  Relation relation(data.schema());
  std::string dir;
  if (algorithm.rfind("FS", 0) == 0) {
    dir = (std::filesystem::temp_directory_path() /
           ("sitfact_bench_" + algorithm))
              .string();
  }
  auto disc_or =
      DiscoveryEngine::CreateDiscoverer(algorithm, &relation, options, dir);
  SITFACT_CHECK_MSG(disc_or.ok(), disc_or.status().ToString().c_str());
  std::unique_ptr<Discoverer> disc = std::move(disc_or).value();

  StreamResult result;
  result.algorithm = algorithm;
  std::vector<SkylineFact> facts;
  WallTimer total;
  double window_ms = 0;
  int in_window = 0;
  for (size_t i = 0; i < data.rows().size(); ++i) {
    TupleId t = relation.Append(data.rows()[i]);
    facts.clear();
    WallTimer timer;
    disc->Discover(t, &facts);
    window_ms += timer.ElapsedMillis();
    ++in_window;
    if (in_window == window || i + 1 == data.rows().size()) {
      Sample s;
      s.tuple_id = i + 1;
      s.per_tuple_ms = window_ms / in_window;
      s.comparisons = disc->stats().comparisons;
      s.traversed = disc->stats().constraints_traversed;
      s.stored_tuples = disc->StoredTupleCount();
      s.memory_bytes = disc->ApproxMemoryBytes();
      if (disc->store() != nullptr) {
        s.file_reads = disc->store()->stats().file_reads;
        s.file_writes = disc->store()->stats().file_writes;
      }
      result.samples.push_back(s);
      window_ms = 0;
      in_window = 0;
    }
  }
  result.total_seconds = total.ElapsedSeconds();
  result.mean_per_tuple_ms =
      result.total_seconds * 1000.0 / static_cast<double>(data.size());

  BenchRecord record;
  record.name = algorithm;
  record.n = data.size();
  record.d = data.schema().num_dimensions();
  record.m = data.schema().num_measures();
  record.wall_ms = result.total_seconds * 1000.0;
  record.comparisons = disc->stats().comparisons;
  for (const Sample& s : result.samples) {
    record.peak_bytes = std::max(record.peak_bytes, s.memory_bytes);
  }
  RecordBench(std::move(record));
  return result;
}

/// Prints one figure series as an aligned table: rows = checkpoints,
/// columns = algorithms, cell = the chosen metric.
template <typename MetricFn>
void PrintSeriesTable(const std::string& title, const std::string& row_label,
                      const std::vector<StreamResult>& results,
                      MetricFn&& metric) {
  std::printf("\n%s\n", title.c_str());
  std::printf("%12s", row_label.c_str());
  for (const auto& r : results) std::printf("  %14s", r.algorithm.c_str());
  std::printf("\n");
  size_t rows = 0;
  for (const auto& r : results) rows = std::max(rows, r.samples.size());
  for (size_t i = 0; i < rows; ++i) {
    uint64_t tid = 0;
    for (const auto& r : results) {
      if (i < r.samples.size()) tid = r.samples[i].tuple_id;
    }
    std::printf("%12llu", static_cast<unsigned long long>(tid));
    for (const auto& r : results) {
      if (i < r.samples.size()) {
        std::printf("  %14.4f", metric(r.samples[i]));
      } else {
        std::printf("  %14s", "-");
      }
    }
    std::printf("\n");
  }
}

/// Prints a one-row-per-configuration summary (the varying-d / varying-m
/// panels, which plot a single mean per configuration).
inline void PrintSummaryHeader(const std::string& title,
                               const std::string& param_name,
                               const std::vector<std::string>& algorithms) {
  std::printf("\n%s\n", title.c_str());
  std::printf("%12s", param_name.c_str());
  for (const auto& a : algorithms) std::printf("  %14s", a.c_str());
  std::printf("\n");
}

inline void PrintSummaryRow(int param,
                            const std::vector<StreamResult>& results) {
  std::printf("%12d", param);
  for (const auto& r : results) {
    std::printf("  %14.4f", r.mean_per_tuple_ms);
  }
  std::printf("\n");
}

/// Integer-valued companion to PrintSeriesTable, for work counters
/// (comparison counts overflow the fixed-point time format).
template <typename MetricFn>
void PrintSeriesCountTable(const std::string& title,
                           const std::string& row_label,
                           const std::vector<StreamResult>& results,
                           MetricFn&& metric) {
  std::printf("\n%s\n", title.c_str());
  std::printf("%12s", row_label.c_str());
  for (const auto& r : results) std::printf("  %14s", r.algorithm.c_str());
  std::printf("\n");
  size_t rows = 0;
  for (const auto& r : results) rows = std::max(rows, r.samples.size());
  for (size_t i = 0; i < rows; ++i) {
    uint64_t tid = 0;
    for (const auto& r : results) {
      if (i < r.samples.size()) tid = r.samples[i].tuple_id;
    }
    std::printf("%12llu", static_cast<unsigned long long>(tid));
    for (const auto& r : results) {
      if (i < r.samples.size()) {
        std::printf("  %14llu",
                    static_cast<unsigned long long>(metric(r.samples[i])));
      } else {
        std::printf("  %14s", "-");
      }
    }
    std::printf("\n");
  }
}

/// Comparison-count companion to PrintSummaryRow: the engines' cumulative
/// dominance comparisons at end of stream. Printed next to every wall-time
/// panel so counter-relaxed engines (C-CSC) stay auditable at a glance —
/// the same numbers land in the bench JSON per record.
inline void PrintComparisonsSummaryRow(
    int param, const std::vector<StreamResult>& results) {
  std::printf("%12d", param);
  for (const auto& r : results) {
    uint64_t c = r.samples.empty() ? 0 : r.samples.back().comparisons;
    std::printf("  %14llu", static_cast<unsigned long long>(c));
  }
  std::printf("\n");
}

}  // namespace bench
}  // namespace sitfact

#endif  // SITFACT_BENCH_HARNESS_H_
