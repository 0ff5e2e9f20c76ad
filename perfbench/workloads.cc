// The three benchmark workloads. Each builds its inputs from the seed, sets
// up kSetups times (setup_s is the median), measures a closed loop for the
// requested seconds, then runs its output checks outside the timed region.
// README.md beside this file says why each workload exists.

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "core/engine.h"
#include "core/prominence.h"
#include "datagen/nba_generator.h"
#include "datagen/weather_generator.h"
#include "net/fact_server.h"
#include "net/http_client.h"
#include "net/json.h"
#include "perfbench.h"
#include "persist/durable_engine.h"
#include "relation/dataset.h"
#include "service/fact_feed.h"
#include "service/fact_service.h"
#include "service/query_api.h"
#include "storage/paged_mu_store.h"

namespace perfbench {
namespace {

using namespace sitfact;
namespace fs = std::filesystem;

/// Setup repeats per run; setup_s reports their median.
constexpr int kSetups = 3;
/// The CLI's default prominence threshold.
constexpr double kTau = 2.0;
/// Traced runs alternate untraced and traced blocks of this many ops, so
/// both halves see the same stream positions and their rate ratio is the
/// tracing overhead.
constexpr uint64_t kTraceBlock = 16;

/// Stream lengths. `history` rows are ingested during setup. The first
/// `check` measured arrivals form the output-check window, and peak_rss_mb
/// is read once `rss_at` measured arrivals are in, so a faster program that
/// gets further in the timed phase is not charged for the extra state. Both
/// points are always reached, off the clock if the timed phase ends first.
/// `stream` bounds the measured rows — more than the timed phase consumes.
struct Sizes {
  int history;
  int check;
  int rss_at;
  int stream;
  /// feed_serve: publishes in the paced phase.
  uint64_t paced_publishes = 0;

  int fixed_work() const { return std::max(check, rss_at); }
};


double Ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }
double Mean(const std::vector<double>& values) {
  double sum = 0;
  for (double v : values) sum += v;
  return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}
double Seconds(int64_t ns) { return static_cast<double>(ns) / 1e9; }
int64_t DeadlineAfter(double seconds) {
  return NowNs() + static_cast<int64_t>(seconds * 1e9);
}

Dataset NbaStream(uint64_t seed, int rows, int d, int m, int season_rows) {
  NbaGenerator::Config cfg;
  cfg.seed = seed;
  cfg.tuples_per_season = season_rows;
  NbaGenerator gen(cfg);
  auto proj = gen.Generate(rows).Project(NbaGenerator::DimensionsForD(d),
                                         NbaGenerator::MeasuresForM(m));
  SITFACT_CHECK(proj.ok());
  return std::move(proj).value();
}

Dataset WeatherStream(uint64_t seed, int rows, int d, int m) {
  WeatherGenerator::Config cfg;
  cfg.seed = seed;
  cfg.num_locations = 512;
  cfg.records_per_day = 2048;
  WeatherGenerator gen(cfg);
  auto proj = gen.Generate(rows).Project(WeatherGenerator::DimensionsForD(d),
                                         WeatherGenerator::MeasuresForM(m));
  SITFACT_CHECK(proj.ok());
  return std::move(proj).value();
}

/// A relation plus an in-memory discovery engine over it.
struct Engine {
  std::unique_ptr<Relation> relation;
  std::unique_ptr<DiscoveryEngine> engine;

  Engine(const Schema& schema, const std::string& algorithm,
         int max_bound_dims)
      : relation(std::make_unique<Relation>(schema)) {
    DiscoveryOptions options;
    options.max_bound_dims = max_bound_dims;
    options.storage.backend = StorageBackend::kMemory;
    auto disc = DiscoveryEngine::CreateDiscoverer(algorithm, relation.get(),
                                                  options);
    SITFACT_CHECK(disc.ok());
    DiscoveryEngine::Config config;
    config.options = options;
    config.tau = kTau;
    engine = std::make_unique<DiscoveryEngine>(
        relation.get(), std::move(disc).value(), config);
  }
};

/// Expected facts digest of the check window: `algorithm` (not the
/// measured one) over the same rows from an empty state.
uint64_t ReferenceDigest(const Dataset& data, const std::string& algorithm,
                         int max_bound_dims, const Sizes& sizes) {
  Engine ref(data.schema(), algorithm, max_bound_dims);
  Digest digest;
  for (int i = 0; i < sizes.history + sizes.check; ++i) {
    ArrivalReport report = ref.engine->Append(data.rows()[i]);
    if (i >= sizes.history) digest.MixArrival(report);
  }
  return digest.value();
}

void CheckDigest(const Args& args, uint64_t got, uint64_t reference,
                 Result* result) {
  const uint64_t want = args.expect_digest.value_or(reference);
  ++result->attempted;
  if (got != want) {
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "facts digest %016llx != expected %016llx",
                  static_cast<unsigned long long>(got),
                  static_cast<unsigned long long>(want));
    result->Fail(buf);
  }
  result->Detail("facts_digest_low32", static_cast<double>(got & 0xffffffff));
}

/// The same public calls DiscoveryEngine::DiscoverLast makes, each inside
/// its own span, on the engine's own relation, counter, algorithm and
/// skyband index.
ArrivalReport TracedAppend(DiscoveryEngine& engine, const Row& row,
                           SpanLog* log, uint64_t id) {
  ScopedSpan arrival(log, "arrival", id);
  Relation& relation = engine.relation();
  ArrivalReport report;
  report.tuple = relation.Append(row);
  {
    ScopedSpan s(log, "storage.counter", id, arrival.index());
    engine.mutable_counter().OnArrival(relation, report.tuple);
  }
  {
    ScopedSpan s(log, "core.discover", id, arrival.index());
    engine.discoverer().Discover(report.tuple, &report.facts);
  }
  CanonicalizeFacts(&report.facts);
  if (engine.config().rank_facts) {
    ScopedSpan s(log, "core.rank", id, arrival.index());
    ProminenceEvaluator evaluator(&relation, &engine.counter(),
                                  engine.discoverer().mutable_store(),
                                  engine.discoverer().storage_policy());
    evaluator.set_skyband(engine.skyband_index());
    report.ranked = evaluator.RankAll(report.facts);
    report.prominent = SelectProminent(report.ranked, engine.config().tau);
  }
  return report;
}

/// Work counters of one engine, read before and after a phase.
struct Counters {
  DiscoveryStats discovery;
  MuStoreStats store;
  uint64_t band_notifications = 0;
  PageCache::Stats cache;

  static Counters Read(DiscoveryEngine& engine) {
    Counters c;
    c.discovery = engine.discoverer().stats();
    if (const MuStore* store = engine.discoverer().store()) {
      c.store = store->stats();
      if (auto* paged = dynamic_cast<const PagedMuStore*>(store)) {
        c.cache = paged->cache().stats();
      }
    }
    if (engine.skyband_index() != nullptr) {
      c.band_notifications = engine.skyband_index()->stats().notifications;
    }
    return c;
  }
};

/// Per-arrival layer counts over [before, after] for `arrivals` arrivals.
void AddCounterMetrics(const Counters& before, const Counters& after,
                       double arrivals, Result* result) {
  const double n = std::max(arrivals, 1.0);
  auto per = [n](uint64_t a, uint64_t b) {
    return static_cast<double>(b - a) / n;
  };
  result->Add("lattice.constraints_per_arrival",
              per(before.discovery.constraints_traversed,
                  after.discovery.constraints_traversed),
              "count");
  result->Add("skyline.comparisons_per_arrival",
              per(before.discovery.comparisons, after.discovery.comparisons),
              "count");
  result->Add("skyline.band_notifications_per_arrival",
              per(before.band_notifications, after.band_notifications),
              "count");
  result->Add("storage.bucket_reads_per_arrival",
              per(before.store.bucket_reads, after.store.bucket_reads),
              "count");
  result->Add("storage.bucket_writes_per_arrival",
              per(before.store.bucket_writes, after.store.bucket_writes),
              "count");
  const uint64_t hits = after.cache.hits - before.cache.hits;
  const uint64_t misses = after.cache.misses - before.cache.misses;
  result->Add("storage.cache_miss_ratio",
              hits + misses == 0
                  ? 0.0
                  : static_cast<double>(misses) /
                        static_cast<double>(hits + misses),
              "ratio");
  result->Add("storage.evictions_per_arrival",
              per(before.cache.evictions, after.cache.evictions), "count");
  result->Add("storage.writebacks_per_arrival",
              per(before.cache.writebacks, after.cache.writebacks), "count");
  result->Add("storage.stored_tuples",
              static_cast<double>(after.store.stored_tuples), "count");
}

/// The counts that must repeat bit-for-bit for one seed, read when the
/// check window completes.
void AddDeterministicDetail(const Counters& c, Result* result) {
  result->Detail("check.comparisons", static_cast<double>(c.discovery.comparisons));
  result->Detail("check.constraints",
                 static_cast<double>(c.discovery.constraints_traversed));
  result->Detail("check.stored_tuples",
                 static_cast<double>(c.store.stored_tuples));
  result->Detail("check.cache_misses", static_cast<double>(c.cache.misses));
}

/// Rate of traced over untraced blocks (1 = tracing costs nothing).
struct BlockRates {
  int64_t ns[2] = {0, 0};
  uint64_t ops[2] = {0, 0};

  void Add(bool traced, int64_t elapsed_ns) {
    ns[traced] += elapsed_ns;
    ++ops[traced];
  }
  double Overhead() const {
    if (ops[0] == 0 || ops[1] == 0 || ns[0] == 0 || ns[1] == 0) return 1.0;
    const double untraced = static_cast<double>(ops[0]) / Seconds(ns[0]);
    const double traced = static_cast<double>(ops[1]) / Seconds(ns[1]);
    return traced / untraced;
  }
};

bool TracedOp(const Args& args, uint64_t op) {
  return args.trace && (op / kTraceBlock) % 2 == 1;
}

void WriteSpans(const Args& args, const SpanLog& spans, Result* result) {
  if (!args.trace) return;
  if (!spans.WriteJson(args.work_dir + "/spans.json")) {
    result->notes.push_back("could not write spans.json");
  }
}

/// Runs `setup` kSetups times, each from scratch; returns the median time,
/// or a negative value when a setup failed.
template <typename Setup>
double MedianSetupSeconds(Setup setup) {
  std::vector<double> seconds;
  for (int rep = 0; rep < kSetups; ++rep) {
    const int64_t t0 = NowNs();
    if (!setup()) return -1;
    seconds.push_back(Seconds(NowNs() - t0));
  }
  return Quantile(seconds, 0.5);
}

/// What the closed loop of the two ingest workloads measured.
struct Loop {
  std::vector<double> latency_ms;  ///< every timed op
  std::vector<double> unsteady_ms;  ///< timed ops that also checkpointed
  uint64_t measured = 0;  ///< arrivals after the history, timed or not
  uint64_t timed = 0;
  uint64_t traced = 0;
  double seconds = 0;  ///< timed phase, digest time taken out
  double rss_mb = 0;
  double facts = 0;
  double prominent = 0;
  Digest digest;
  BlockRates rates;
};

/// Appends the rows after the history one at a time, closed loop, for
/// args.seconds, then off the clock until the fixed-work points are in.
/// `append(row, trace, id)` returns the arrival's report, or nullopt after
/// recording a failure. `steady()` is false when the op just appended also
/// checkpointed; such ops stay out of the overhead blocks.
template <typename Append, typename Steady>
Loop ClosedLoop(const Args& args, const Sizes& sizes,
                const std::vector<Row>& rows, DiscoveryEngine& engine,
                Append append, Steady steady, Result* result) {
  Loop loop;
  loop.latency_ms.reserve(rows.size());
  size_t next = sizes.history;
  int64_t check_ns = 0;
  auto one = [&](bool timed) {
    const bool trace = TracedOp(args, loop.measured);
    const int64_t t0 = NowNs();
    std::optional<ArrivalReport> report =
        append(rows[next], trace, loop.measured);
    const int64_t t1 = NowNs();
    if (timed) {
      loop.latency_ms.push_back(Ms(t1 - t0));
      loop.traced += trace;
      if (steady()) {
        loop.rates.Add(trace, t1 - t0);
      } else {
        loop.unsteady_ms.push_back(Ms(t1 - t0));
      }
    }
    if (report) {
      loop.facts += static_cast<double>(report->facts.size());
      loop.prominent += static_cast<double>(report->prominent.size());
      if (loop.measured < static_cast<uint64_t>(sizes.check)) {
        loop.digest.MixArrival(*report);
        if (timed) check_ns += NowNs() - t1;
      }
    }
    ++loop.measured;
    ++next;
    if (loop.measured == static_cast<uint64_t>(sizes.check)) {
      AddDeterministicDetail(Counters::Read(engine), result);
    }
    if (loop.measured == static_cast<uint64_t>(sizes.rss_at)) {
      loop.rss_mb = PeakRssMb();
    }
  };
  const int64_t begin = NowNs();
  const int64_t deadline = DeadlineAfter(args.seconds);
  while (next < rows.size() && NowNs() < deadline && result->failed == 0) {
    one(true);
  }
  loop.seconds = Seconds(NowNs() - begin - check_ns);
  loop.timed = loop.measured;
  while (loop.measured < static_cast<uint64_t>(sizes.fixed_work()) &&
         next < rows.size() && result->failed == 0) {
    one(false);
  }
  result->attempted += loop.measured;
  return loop;
}

void AddIngestMetrics(double setup_s, const Loop& loop, Result* result) {
  result->Add("setup_s", setup_s, "s");
  result->Add("capacity_per_s", static_cast<double>(loop.timed) / loop.seconds,
              "1/s");
  result->Add("latency_p50_ms", Quantile(loop.latency_ms, 0.5), "ms");
  result->Add("peak_rss_mb", loop.rss_mb, "MiB");
}

// ---------------------------------------------------------------------------
// nba_discover: the paper's per-arrival discovery cost (Fig. 7a shape).

constexpr int kNbaD = 5, kNbaM = 7, kNbaDhat = 4;
/// Rows per season of the NBA stream.
constexpr int kNbaSeason = 2000;

}  // namespace

void RunNbaDiscover(const Args& args, Result* result) {
  const Sizes sizes =
      args.smoke ? Sizes{60, 20, 40, 2000} : Sizes{300, 300, 1000, 20000};
  std::optional<Dataset> data;
  std::unique_ptr<Engine> rig;
  const double setup_s = MedianSetupSeconds([&] {
    rig.reset();
    data.reset();
    data.emplace(NbaStream(args.seed, sizes.history + sizes.stream, kNbaD,
                           kNbaM, kNbaSeason));
    rig = std::make_unique<Engine>(data->schema(), "STopDown", kNbaDhat);
    for (int i = 0; i < sizes.history; ++i) rig->engine->Append(data->rows()[i]);
    return true;
  });
  DiscoveryEngine& engine = *rig->engine;

  SpanLog spans;
  const Counters before = Counters::Read(engine);
  const Loop loop = ClosedLoop(
      args, sizes, data->rows(), engine,
      [&](const Row& row, bool trace, uint64_t id) {
        return std::optional<ArrivalReport>(
            trace ? TracedAppend(engine, row, &spans, id) : engine.Append(row));
      },
      [] { return true; }, result);
  const Counters after = Counters::Read(engine);

  CheckDigest(args, loop.digest.value(),
              ReferenceDigest(*data, "BottomUp", kNbaDhat, sizes), result);

  if (!args.trace) {
    AddIngestMetrics(setup_s, loop, result);
    return;
  }
  const double n = static_cast<double>(std::max<uint64_t>(loop.traced, 1));
  result->Add("core.discover_ms", spans.TotalMs("core.discover") / n, "ms");
  result->Add("core.rank_ms", spans.TotalMs("core.rank") / n, "ms");
  result->Add("storage.counter_ms", spans.TotalMs("storage.counter") / n,
              "ms");
  result->Add("core.arrival_self_ms", spans.SelfMs("arrival") / n, "ms");
  const double all = static_cast<double>(loop.measured);
  result->Add("core.facts_per_arrival", loop.facts / all, "count");
  result->Add("core.prominent_per_arrival", loop.prominent / all, "count");
  AddCounterMetrics(before, after, all, result);
  result->Add("latency.append_p99_ms", Quantile(loop.latency_ms, 0.99), "ms");
  result->Add("trace.overhead", loop.rates.Overhead(), "ratio");
  WriteSpans(args, spans, result);
}

// ---------------------------------------------------------------------------
// weather_durable: paged µ-store under DurableEngine with delta checkpoints.

namespace {

constexpr int kWeatherD = 5, kWeatherM = 5, kWeatherDhat = 4;
constexpr size_t kWeatherCacheBytes = 128u << 10;
constexpr uint64_t kCheckpointEvery = 256;

persist::DurableOptions WeatherStoreOptions(const Args& args) {
  persist::DurableOptions options;
  options.dir = args.work_dir + "/store";
  options.checkpoint_every = kCheckpointEvery;
  options.sync_every_op = false;
  options.algorithm = "STopDown";
  options.discovery.max_bound_dims = kWeatherDhat;
  options.discovery.storage.backend = StorageBackend::kPaged;
  options.discovery.storage.cache_bytes = kWeatherCacheBytes;
  options.discovery.storage.spill_dir = args.work_dir;
  options.tau = kTau;
  return options;
}

std::unique_ptr<persist::DurableEngine> OpenStore(
    const persist::DurableOptions& options, const Schema& schema,
    Result* result) {
  auto opened = persist::DurableEngine::Open(options, schema);
  ++result->attempted;
  if (!opened.ok()) {
    result->Fail("DurableEngine::Open: " + opened.status().ToString());
    return nullptr;
  }
  return std::move(opened).value();
}

double MeanFileBytes(const std::vector<persist::StoreFile>& files) {
  double total = 0;
  for (const persist::StoreFile& f : files) {
    std::error_code ec;
    const auto size = fs::file_size(f.path, ec);
    if (!ec) total += static_cast<double>(size);
  }
  return files.empty() ? 0.0 : total / static_cast<double>(files.size());
}

}  // namespace

void RunWeatherDurable(const Args& args, Result* result) {
  const Sizes sizes =
      args.smoke ? Sizes{300, 100, 200, 3000} : Sizes{1500, 1000, 4000, 60000};
  const persist::DurableOptions options = WeatherStoreOptions(args);
  std::optional<Dataset> data;
  std::unique_ptr<persist::DurableEngine> store;
  const double setup_s = MedianSetupSeconds([&] {
    store.reset();
    data.reset();
    fs::remove_all(options.dir);
    data.emplace(WeatherStream(args.seed, sizes.history + sizes.stream,
                               kWeatherD, kWeatherM));
    store = OpenStore(options, data->schema(), result);
    if (store == nullptr) return false;
    for (int i = 0; i < sizes.history; ++i) {
      if (!store->Append(data->rows()[i]).ok()) {
        result->Fail("history Append failed");
        return false;
      }
    }
    return true;
  });
  if (setup_s < 0) return;
  if (dynamic_cast<const PagedMuStore*>(
          store->engine()->discoverer().store()) == nullptr) {
    result->Fail("weather store is not paged");
    return;
  }

  SpanLog spans;
  const Counters before = Counters::Read(*store->engine());
  const Loop loop = ClosedLoop(
      args, sizes, data->rows(), *store->engine(),
      [&](const Row& row, bool trace, uint64_t id) {
        StatusOr<ArrivalReport> report = [&] {
          ScopedSpan span(trace ? &spans : nullptr, "persist.append", id);
          return store->Append(row);
        }();
        if (!store->checkpoint_status().ok()) {
          result->Fail("Checkpoint: " + store->checkpoint_status().ToString());
        }
        if (!report.ok()) {
          result->Fail("Append: " + report.status().ToString());
          return std::optional<ArrivalReport>();
        }
        return std::optional<ArrivalReport>(std::move(report).value());
      },
      [&] { return store->ops_since_checkpoint() != 0; }, result);
  const Counters after = Counters::Read(*store->engine());

  // Recovery check: reopen what the run just wrote; the recovered cursor,
  // relation and µ state must equal the live ones.
  const uint64_t live_seq = store->next_seq();
  const uint64_t live_size = store->relation().size();
  const uint64_t live_stored = store->engine()->discoverer().StoredTupleCount();
  const auto wal = persist::ListWalSegments(options.dir);
  const double wal_bytes = MeanFileBytes(wal) * static_cast<double>(wal.size());
  const uint64_t wal_ops = wal.empty() ? 0 : live_seq - wal.front().seq;
  const auto deltas = persist::ListDeltas(options.dir);
  const auto snapshots = persist::ListSnapshots(options.dir);
  store.reset();
  const int64_t r0 = NowNs();
  store = OpenStore(options, data->schema(), result);
  const double recovery_s = Seconds(NowNs() - r0);
  if (store != nullptr) {
    ++result->attempted;
    if (store->next_seq() != live_seq ||
        store->relation().size() != live_size ||
        store->engine()->discoverer().StoredTupleCount() != live_stored) {
      result->Fail("recovered store differs from the live one");
    }
  }

  CheckDigest(args, loop.digest.value(),
              ReferenceDigest(*data, "TopDown", kWeatherDhat, sizes), result);

  if (!args.trace) {
    AddIngestMetrics(setup_s, loop, result);
    return;
  }
  const double n = static_cast<double>(std::max<uint64_t>(loop.traced, 1));
  result->Add("persist.append_ms", spans.TotalMs("persist.append") / n, "ms");
  result->notes.push_back(
      "persist.append_ms is the whole DurableEngine::Append (WAL, discovery, "
      "paged store, checkpoints); persist's own share needs spans inside the "
      "program");
  const double plain_p50 = Quantile(loop.latency_ms, 0.5);
  double excess = 0;
  for (double ms : loop.unsteady_ms) excess += ms - plain_p50;
  result->Add("persist.checkpoint_ms",
              loop.unsteady_ms.empty()
                  ? 0.0
                  : excess / static_cast<double>(loop.unsteady_ms.size()),
              "ms");
  result->Add("persist.wal_bytes_per_op",
              wal_ops == 0 ? 0.0 : wal_bytes / static_cast<double>(wal_ops),
              "B");
  result->Add("persist.checkpoint_bytes",
              MeanFileBytes(deltas.empty() ? snapshots : deltas), "B");
  if (store != nullptr) {
    result->Add("persist.recovery_replayed_ops",
                static_cast<double>(store->recovery().replayed_ops), "count");
    result->Add("persist.recovery_delta_chain",
                static_cast<double>(store->recovery().delta_chain), "count");
  }
  result->Add("persist.recovery_s", recovery_s, "s");
  AddCounterMetrics(before, after, static_cast<double>(loop.measured), result);
  result->Add("latency.append_p99_ms", Quantile(loop.latency_ms, 0.99), "ms");
  result->Add("trace.overhead", loop.rates.Overhead(), "ratio");
  WriteSpans(args, spans, result);
}

// ---------------------------------------------------------------------------
// feed_serve: FactFeed -> FactService -> FactServer on loopback.

namespace {

constexpr int kFeedD = 4, kFeedM = 4;
/// Rows per season of the feed's stream. A new season costs about a third
/// more per arrival, and a median over samples from both sides of that step
/// swings between them from run to run; the paced phase stays inside the
/// first season.
constexpr int kFeedSeason = 10000;
/// Targets replayed over the wire for the byte comparison.
constexpr uint64_t kReplayTargets = 60;

/// One read of the bench_serving_load rotation: the GET target and the
/// same request built in-process.
struct Read {
  std::string target;
  QueryRequest request;
};

Read ReadFor(uint64_t i, uint64_t arrivals) {
  Read r;
  switch (i % 6) {
    case 0:
      r.target = "/topk?k=10";
      r.request.kind = QueryKind::kTopK;
      r.request.k = 10;
      break;
    case 1:
      r.request.kind = QueryKind::kTopK;
      r.request.k = 2 + i % 17;
      r.target = "/topk?k=" + std::to_string(r.request.k);
      break;
    case 2:
      r.request.kind = QueryKind::kFactsForTuple;
      r.request.tuple = static_cast<TupleId>(i % 97);
      r.request.k = 100;
      r.target = "/facts_for_tuple?tuple=" + std::to_string(i % 97) + "&k=100";
      break;
    case 3: {
      const uint64_t half = arrivals / 2;
      r.request.kind = QueryKind::kFactsInWindow;
      r.request.window_first = (i * 13) % half;
      r.request.window_last = half + i % half;
      r.request.k = 50;
      r.target = "/facts_in_window?window=" +
                 std::to_string(*r.request.window_first) + ":" +
                 std::to_string(*r.request.window_last) + "&k=50";
      break;
    }
    case 4:
      r.request.kind = QueryKind::kExplain;
      r.request.record = static_cast<uint32_t>(i % 64);
      r.target = "/explain?record=" + std::to_string(i % 64);
      break;
    default:
      r.request.kind = QueryKind::kTopK;
      r.request.k = 10;
      r.request.filter.prominent_only = true;
      r.target = "/topk?k=10&prominent_only=true";
      break;
  }
  return r;
}

/// The epoch a response body carries (0 when absent).
uint64_t BodyEpoch(const std::string& body) {
  const size_t at = body.find("\"epoch\":");
  if (at == std::string::npos) return 0;
  return std::strtoull(body.c_str() + at + 8, nullptr, 10);
}

/// Thread placement of the feed workloads. The closed-loop client and the
/// HTTP server thread share one CPU: a request ping-pongs between them, so
/// they never run at once, and each hand-off is a switch on that CPU rather
/// than a wake-up of an idle one. The feed's worker gets the other CPUs.
/// Unpinned, read latency differed up to 2x between runs of one seed. With
/// fewer than two CPUs nothing is pinned.
class Placement {
 public:
  Placement() {
    CPU_ZERO(&all_);
    CPU_ZERO(&client_);
    CPU_ZERO(&others_);
    if (sched_getaffinity(0, sizeof(all_), &all_) != 0 ||
        CPU_COUNT(&all_) < 2) {
      return;
    }
    bool first = true;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (!CPU_ISSET(cpu, &all_)) continue;
      CPU_SET(cpu, first ? &client_ : &others_);
      first = false;
    }
    enabled_ = true;
  }
  /// Pins the calling thread; threads it starts afterwards inherit the set.
  void PinClient() const { Pin(client_); }
  void PinOthers() const { Pin(others_); }
  void Unpin() const { Pin(all_); }

 private:
  void Pin(const cpu_set_t& set) const {
    if (enabled_) pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
  }
  cpu_set_t all_, client_, others_;
  bool enabled_ = false;
};

/// Engine + service + feed + server, and what the subscriber records on the
/// feed's worker thread: the time each tuple became visible, the digests and
/// work counters of the check window, and the peak RSS at the fixed-work
/// point.
class FeedRig {
 public:
  FeedRig(const FeedRig&) = delete;
  FeedRig& operator=(const FeedRig&) = delete;

  FeedRig(const Dataset& data, const Sizes& sizes)
      : engine_(data.schema(), "STopDown", -1),
        visible_ns_(data.size(), 0),
        check_begin_(sizes.history),
        check_end_(sizes.history + sizes.check),
        rss_tuple_(sizes.history + sizes.rss_at - 1) {
    FactService::Options service_options;
    service_options.publish_every = 1;
    service_options.entity = "player";
    service_ = std::make_unique<FactService>(engine_.relation.get(),
                                             service_options);
    FactFeed::Options feed_options;
    feed_options.queue_capacity = 128;
    feed_options.notify_all_arrivals = true;
    feed_options.fact_service = service_.get();
    placement_.PinOthers();  // the feed's worker inherits this set
    feed_ = std::make_unique<FactFeed>(
        engine_.engine.get(),
        [this](const ArrivalReport& report) { OnReport(report); },
        feed_options);
    placement_.Unpin();
    net::FactServer::Options server_options;
    server_options.net.port = 0;
    server_ = std::make_unique<net::FactServer>(
        service_.get(), engine_.relation.get(), server_options);
    listen_status_ = server_->Listen();
    if (listen_status_.ok()) {
      server_->set_external_stop(&stop_);
      serving_ = std::thread([this] {
        placement_.PinClient();
        (void)server_->Serve();
      });
    }
  }
  ~FeedRig() {
    feed_->Stop();
    stop_ = true;
    if (serving_.joinable()) serving_.join();
  }

  const Status& listen_status() const { return listen_status_; }
  uint16_t port() const { return server_->port(); }
  FactFeed& feed() { return *feed_; }
  FactService& service() { return *service_; }
  DiscoveryEngine& engine() { return *engine_.engine; }
  /// Subscriber records; read only after FactFeed::Drain().
  int64_t visible_ns(size_t tuple) const { return visible_ns_[tuple]; }
  /// Arrivals the subscriber has seen so far; safe while the feed runs.
  uint64_t visible_count() const {
    return visible_count_.load(std::memory_order_acquire);
  }
  double rss_mb() const { return rss_mb_; }
  const Counters& check_counters() const { return check_counters_; }
  const Placement& placement() const { return placement_; }
  /// The check window's facts digest; the one worker delivers reports in
  /// arrival order.
  uint64_t check_digest() const { return digest_.value(); }

 private:
  void OnReport(const ArrivalReport& report) {
    visible_ns_[report.tuple] = NowNs();
    if (static_cast<int>(report.tuple) == rss_tuple_) rss_mb_ = PeakRssMb();
    if (static_cast<int>(report.tuple) >= check_begin_ &&
        static_cast<int>(report.tuple) < check_end_) {
      digest_.MixArrival(report);
    }
    if (static_cast<int>(report.tuple) == check_end_ - 1) {
      check_counters_ = Counters::Read(*engine_.engine);
    }
    visible_count_.fetch_add(1, std::memory_order_release);
  }

  Placement placement_;
  Engine engine_;
  std::vector<int64_t> visible_ns_;
  std::atomic<uint64_t> visible_count_{0};
  Digest digest_;
  int check_begin_, check_end_, rss_tuple_;
  double rss_mb_ = 0;
  Counters check_counters_;
  std::unique_ptr<FactService> service_;
  std::unique_ptr<FactFeed> feed_;
  std::unique_ptr<net::FactServer> server_;
  std::atomic<bool> stop_{false};
  Status listen_status_;
  std::thread serving_;
};

struct FeedSetup {
  std::optional<Dataset> data;
  std::unique_ptr<FeedRig> rig;
  double setup_s = -1;
};

FeedSetup SetUpFeed(const Args& args, const Sizes& sizes, Result* result) {
  FeedSetup s;
  s.setup_s = MedianSetupSeconds([&] {
    s.rig.reset();
    s.data.reset();
    s.data.emplace(NbaStream(args.seed, sizes.history + sizes.stream, kFeedD,
                             kFeedM, kFeedSeason));
    s.rig = std::make_unique<FeedRig>(*s.data, sizes);
    if (!s.rig->listen_status().ok()) {
      result->Fail("Listen: " + s.rig->listen_status().ToString());
      return false;
    }
    for (int i = 0; i < sizes.history; ++i) {
      s.rig->feed().Publish(s.data->rows()[i]);
    }
    s.rig->feed().Drain();
    // Warm the connection path and the hot cache entries.
    net::HttpClient warm("127.0.0.1", s.rig->port());
    for (uint64_t i = 0; i < 64; ++i) {
      auto r = warm.Get(ReadFor(i, sizes.history).target);
      if (!r.ok() || r.value().status != 200) {
        result->Fail("warm-up read failed");
        return false;
      }
    }
    return true;
  });
  if (s.setup_s < 0) s.rig.reset();
  return s;
}

/// The saturated phase: Publish with no reads. Returns arrivals per second,
/// drain included. Traced blocks sample the feed backlog.
double SaturatedPublish(const Args& args, double seconds, FeedSetup& s,
                        size_t* next, SpanLog* spans, uint64_t* backlog_max) {
  FactFeed& feed = s.rig->feed();
  const std::vector<Row>& rows = s.data->rows();
  const size_t first = *next;
  const int64_t begin = NowNs();
  const int64_t deadline = DeadlineAfter(seconds);
  while (*next < rows.size() && NowNs() < deadline) {
    const uint64_t op = *next - first;
    const bool trace = TracedOp(args, op);
    {
      ScopedSpan span(trace ? spans : nullptr, "feed.publish", *next);
      feed.Publish(rows[*next]);
    }
    ++*next;
    if (trace) {
      *backlog_max = std::max<uint64_t>(*backlog_max,
                                        *next - feed.processed());
    }
  }
  feed.Drain();
  return static_cast<double>(*next - first) / Seconds(NowNs() - begin);
}

/// The paced phase: one client thread, one keep-alive connection: Publish,
/// then reads until the subscriber has seen that arrival (at least one),
/// repeated. Writes are paced by reads and visibility, never by the clock:
/// each arrival finds an empty queue, and the feed's worker idles for at
/// most the rest of one read between arrivals, so the arrival-to-visible
/// latency does not time the host waking an idle virtual CPU.
struct PacedStats {
  std::vector<double> read_ms;
  std::vector<double> visible_ms;
  /// Traced cycles only: the round trip and, for the same request, the
  /// in-process ExecuteQuery and SerializeResponse.
  std::vector<double> traced_read_ms;
  std::vector<double> execute_ms;
  std::vector<double> serialize_ms;
  uint64_t reads = 0;
  uint64_t publishes = 0;
  double body_bytes = 0;
  double seconds = 0;
};

PacedStats PacedReads(const Args& args, double seconds,
                      uint64_t max_publishes, FeedSetup& s, size_t* next,
                      Result* result, SpanLog* spans, BlockRates* rates) {
  PacedStats out;
  FactFeed& feed = s.rig->feed();
  const std::vector<Row>& rows = s.data->rows();
  net::HttpClient client("127.0.0.1", s.rig->port());
  std::vector<std::pair<size_t, int64_t>> published;
  const uint64_t arrivals = *next;
  uint64_t last_epoch = 0;
  uint64_t read_index = 0;
  const int64_t begin = NowNs();
  const int64_t deadline = DeadlineAfter(seconds);
  while (*next < rows.size() && out.publishes < max_publishes &&
         NowNs() < deadline) {
    const bool trace = TracedOp(args, out.publishes);
    const int64_t cycle_start = NowNs();
    published.emplace_back(*next, cycle_start);
    feed.Publish(rows[*next]);
    ++*next;
    ++out.publishes;
    // The feed saw every row before this one, so its next report is this
    // arrival's.
    for (bool visible = false; !visible; ++read_index) {
      const Read read = ReadFor(read_index, arrivals);
      const int64_t t0 = NowNs();
      auto response = client.Get(read.target);
      const int64_t t1 = NowNs();
      visible = s.rig->visible_count() >= *next;
      ++out.reads;
      if (!response.ok() || response.value().status != 200) {
        result->Fail("read " + read.target + " failed");
        continue;
      }
      const std::string& body = response.value().body;
      const uint64_t epoch = BodyEpoch(body);
      if (epoch < last_epoch) result->Fail("response epoch went backwards");
      last_epoch = epoch;
      out.read_ms.push_back(Ms(t1 - t0));
      out.body_bytes += static_cast<double>(body.size());
      if (trace) {
        spans->Add("net.roundtrip", t0, t1, read_index);
        out.traced_read_ms.push_back(Ms(t1 - t0));
        const FactService::Snapshot snapshot = s.rig->service().Acquire();
        const int64_t e0 = NowNs();
        auto executed = ExecuteQuery(snapshot, read.request);
        const int64_t e1 = NowNs();
        if (executed.ok()) {
          const std::string local = net::SerializeResponse(executed.value());
          const int64_t e2 = NowNs();
          spans->Add("service.execute", e0, e1, read_index);
          spans->Add("net.serialize", e1, e2, read_index);
          out.execute_ms.push_back(Ms(e1 - e0));
          out.serialize_ms.push_back(Ms(e2 - e1));
        }
      }
    }
    rates->Add(trace, NowNs() - cycle_start);
  }
  out.seconds = Seconds(NowNs() - begin);
  feed.Drain();
  for (const auto& [tuple, published_ns] : published) {
    out.visible_ms.push_back(Ms(s.rig->visible_ns(tuple) - published_ns));
    if (args.trace) {
      spans->Add("feed.visible", published_ns, s.rig->visible_ns(tuple), tuple);
    }
  }
  result->attempted += out.reads + out.publishes;
  return out;
}

/// Checks that run after the feed drained: the subscriber digest, every
/// latched status, and wire bytes against in-process ExecuteQuery.
void CheckFeed(const Args& args, FeedSetup& s, const Sizes& sizes,
               Result* result) {
  FeedRig& rig = *s.rig;
  ++result->attempted;
  if (!rig.feed().subscriber_status().ok()) {
    result->Fail("subscriber: " + rig.feed().subscriber_status().ToString());
  }
  CheckDigest(args, rig.check_digest(),
              ReferenceDigest(*s.data, "BottomUp", -1, sizes), result);
  const FactService::Snapshot snapshot = rig.service().Acquire();
  net::HttpClient client("127.0.0.1", rig.port());
  for (uint64_t i = 0; i < kReplayTargets; ++i) {
    const Read read = ReadFor(i, snapshot.arrivals());
    ++result->attempted;
    auto wire = client.Get(read.target);
    auto local = ExecuteQuery(snapshot, read.request);
    if (!wire.ok() || wire.value().status != 200 || !local.ok() ||
        wire.value().body != net::SerializeResponse(local.value())) {
      result->Fail("wire bytes differ from ExecuteQuery for " + read.target);
    }
  }
}

/// /statz cache hits over requests, across endpoints.
double CacheHitRatio(uint16_t port) {
  net::HttpClient client("127.0.0.1", port);
  auto statz = client.Get("/statz");
  if (!statz.ok() || statz.value().status != 200) return 0;
  auto json = net::JsonValue::Parse(statz.value().body);
  if (!json.ok()) return 0;
  const net::JsonValue* endpoints = json.value().Find("endpoints");
  if (endpoints == nullptr) return 0;
  double hits = 0, requests = 0;
  for (const std::string& name : endpoints->keys()) {
    const net::JsonValue* e = endpoints->Find(name);
    const net::JsonValue* h = e->Find("cache_hits");
    const net::JsonValue* q = e->Find("requests");
    if (h != nullptr && q != nullptr) {
      hits += h->NumberAsDouble();
      requests += q->NumberAsDouble();
    }
  }
  return requests == 0 ? 0 : hits / requests;
}

/// Synchronous replay of up to `count` measured rows after the history,
/// for at most `seconds`, with the feed's per-arrival work split into spans:
/// discovery through TracedAppend, then FactService::OnArrival. Returns the
/// rows replayed.
size_t ReplayIngest(const FeedSetup& s, const Sizes& sizes, size_t count,
                    double seconds, SpanLog* spans) {
  Engine replay(s.data->schema(), "STopDown", -1);
  FactService::Options options;
  options.publish_every = 1;
  options.entity = "player";
  FactService service(replay.relation.get(), options);
  const std::vector<Row>& rows = s.data->rows();
  for (int i = 0; i < sizes.history; ++i) {
    service.OnArrival(replay.engine->Append(rows[i]));
  }
  const int64_t deadline = DeadlineAfter(seconds);
  size_t replayed = 0;
  for (; replayed < count && NowNs() < deadline; ++replayed) {
    const size_t i = sizes.history + replayed;
    ArrivalReport report = TracedAppend(*replay.engine, rows[i], spans, i);
    ScopedSpan span(spans, "service.fact_index", i);
    service.OnArrival(report);
  }
  return replayed;
}

void AddFeedLayerMetrics(const Args& args, FeedSetup& s, const Sizes& sizes,
                         const PacedStats& paced, const Counters& before,
                         uint64_t bands_before, double arrivals,
                         size_t replay_rows, SpanLog& spans,
                         const BlockRates& rates, uint64_t backlog_max,
                         Result* result) {
  const Counters after = Counters::Read(s.rig->engine());
  const FactService::Snapshot snapshot = s.rig->service().Acquire();
  SpanLog replay_spans;
  const size_t replayed = ReplayIngest(s, sizes, replay_rows,
                                       args.seconds / 2, &replay_spans);
  const double r = static_cast<double>(std::max<size_t>(replayed, 1));
  result->Add("core.discover_ms", replay_spans.TotalMs("core.discover") / r,
              "ms");
  result->Add("core.rank_ms", replay_spans.TotalMs("core.rank") / r, "ms");
  result->Add("storage.counter_ms",
              replay_spans.TotalMs("storage.counter") / r, "ms");
  result->Add("service.fact_index_ms",
              replay_spans.TotalMs("service.fact_index") / r, "ms");
  AddCounterMetrics(before, after, arrivals, result);
  result->Add("query.facts_stored", static_cast<double>(snapshot.fact_count()),
              "count");
  result->Add("query.band_shifts_per_arrival",
              static_cast<double>(snapshot.skyband_stats().shifted_records -
                                  bands_before) /
                  std::max(arrivals, 1.0),
              "count");
  result->Add("service.feed_backlog_max", static_cast<double>(backlog_max),
              "count");
  const double execute = Mean(paced.execute_ms);
  const double roundtrip = Mean(paced.traced_read_ms);
  result->Add("service.execute_ms", execute, "ms");
  result->Add("net.serialize_ms", Mean(paced.serialize_ms), "ms");
  result->Add("net.roundtrip_ms", roundtrip, "ms");
  result->Add("net.self_ms", roundtrip - execute, "ms");
  result->notes.push_back(
      "the feed's queue wait per arrival is inside latency.visible_p99_ms; "
      "splitting it out needs spans inside FactFeed");
  result->Add("net.cache_hit_ratio", CacheHitRatio(s.rig->port()), "ratio");
  result->Add("net.response_bytes",
              paced.reads == 0 ? 0.0
                               : paced.body_bytes /
                                     static_cast<double>(paced.reads),
              "B");
  result->Add("latency.visible_p99_ms", Quantile(paced.visible_ms, 0.99),
              "ms");
  result->Add("net.read_p50_ms", Quantile(paced.read_ms, 0.5), "ms");
  result->Add("net.reads_per_s",
              static_cast<double>(paced.reads) / paced.seconds, "1/s");
  result->Add("latency.read_p99_ms", Quantile(paced.read_ms, 0.99), "ms");
  result->Add("trace.overhead", rates.Overhead(), "ratio");
  WriteSpans(args, spans, result);
}

}  // namespace

void RunFeedServe(const Args& args, Result* result) {
  const Sizes sizes = args.smoke ? Sizes{200, 50, 100, 4000, 20}
                                 : Sizes{1000, 300, 3000, 40000, 8000};
  SITFACT_CHECK(static_cast<uint64_t>(sizes.history) + sizes.paced_publishes <=
                static_cast<uint64_t>(kFeedSeason));
  FeedSetup s = SetUpFeed(args, sizes, result);
  if (s.rig == nullptr) return;

  SpanLog spans;
  BlockRates rates;
  uint64_t backlog_max = 0;
  size_t next = sizes.history;
  const Counters before = Counters::Read(s.rig->engine());
  const uint64_t bands_before =
      s.rig->service().Acquire().skyband_stats().shifted_records;

  // The paced phase is a fixed number of publishes and runs first, so the
  // saturated phase after it always starts from the same state. It takes
  // about a third of the run: over a shorter window its median follows the
  // host's sub-second load. Its time cap binds only on a program about
  // twice as slow.
  s.rig->placement().PinClient();
  const int64_t begin = NowNs();
  PacedStats paced = PacedReads(args, args.seconds * 0.75,
                                sizes.paced_publishes, s, &next, result,
                                &spans, &rates);
  const size_t saturated_first = next;
  const double capacity =
      SaturatedPublish(args, args.seconds - Seconds(NowNs() - begin), s,
                       &next, &spans, &backlog_max);
  result->attempted += next - saturated_first;
  s.rig->placement().Unpin();
  // The fixed-work points may outrun a slow run; finish them off the clock.
  while (next < static_cast<size_t>(sizes.history + sizes.fixed_work())) {
    s.rig->feed().Publish(s.data->rows()[next++]);
  }
  s.rig->feed().Drain();
  AddDeterministicDetail(s.rig->check_counters(), result);
  CheckFeed(args, s, sizes, result);

  if (!args.trace) {
    result->Add("setup_s", s.setup_s, "s");
    result->Add("capacity_per_s", capacity, "1/s");
    result->Add("latency_p50_ms", Quantile(paced.visible_ms, 0.5), "ms");
    result->Add("peak_rss_mb", s.rig->rss_mb(), "MiB");
    return;
  }
  AddFeedLayerMetrics(args, s, sizes, paced, before, bands_before,
                      static_cast<double>(next - sizes.history),
                      next - sizes.history, spans, rates, backlog_max, result);
}

}  // namespace perfbench
