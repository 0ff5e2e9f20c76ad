// Shared pieces of the benchmark binary: arguments, the result it prints,
// the span recorder of the traced mode, and the facts digest the output
// checks compare.
#ifndef SITFACT_PERFBENCH_PERFBENCH_H_
#define SITFACT_PERFBENCH_PERFBENCH_H_

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/engine.h"
#include "relation/relation.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Scratch directory for stores, spill files and the span dump; main()
  /// creates it and run.py removes it.
  std::string work_dir;
  /// Replaces the reference digest of the output check (tests plant a
  /// wrong one to prove the check bites).
  std::optional<uint64_t> expect_digest;
  /// Tiny streams and short phases, for the benchmark's own tests.
  bool smoke = false;
};

/// What a workload hands back to main(): the contract's fields, plus the
/// deterministic counts the tests compare across runs of one seed.
struct Result {
  struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
  };
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;
  std::vector<Metric> metrics;
  std::vector<Metric> detail;
  std::vector<std::string> notes;

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void Detail(std::string name, double value) {
    detail.push_back({std::move(name), value, ""});
  }
  /// Records a failed output check; the run then reports correct=false.
  void Fail(std::string what) {
    ++failed;
    errors.push_back(std::move(what));
  }
};

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// In-memory span log of the traced mode. One recorder per thread; spans
/// nest through the parent index. Self time of a span is its duration minus
/// the time its children cover.
class SpanLog {
 public:
  static constexpr uint32_t kNoParent = UINT32_MAX;

  struct Span {
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    uint32_t parent;
    uint64_t id;  ///< arrival or request id
  };

  uint32_t Begin(const char* name, uint64_t id, uint32_t parent = kNoParent) {
    spans_.push_back(Span{name, NowNs(), 0, parent, id});
    return static_cast<uint32_t>(spans_.size() - 1);
  }
  void End(uint32_t span) { spans_[span].end_ns = NowNs(); }
  /// A span whose times were taken elsewhere (another thread's stamps).
  void Add(const char* name, int64_t start_ns, int64_t end_ns, uint64_t id) {
    spans_.push_back(Span{name, start_ns, end_ns, kNoParent, id});
  }

  /// Total self time per span name, in ms.
  double SelfMs(const std::string& name) const;
  /// Total duration per span name, in ms.
  double TotalMs(const std::string& name) const;
  /// Writes every span as one JSON array.
  bool WriteJson(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

/// RAII span over a block; inert when `log` is null.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, uint64_t id,
             uint32_t parent = SpanLog::kNoParent)
      : log_(log),
        index_(log != nullptr ? log->Begin(name, id, parent) : 0) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->End(index_);
  }
  uint32_t index() const { return index_; }

 private:
  SpanLog* log_;
  uint32_t index_;
};

/// Multiply-xorshift hash over 64-bit words: the facts digest of the
/// output checks.
class Digest {
 public:
  void Mix(uint64_t word) {
    h_ = (h_ ^ word) * 0x9e3779b97f4a7c15ull;
    h_ ^= h_ >> 29;
  }
  /// Canonical S_t of one arrival (tuple, each fact's bound mask, bound
  /// values and measure mask) plus its prominent-fact count.
  void MixArrival(const sitfact::ArrivalReport& report);
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 14695981039346656037ull;
};

/// Median and other quantiles of a sample (sorts a copy).
double Quantile(std::vector<double> values, double q);

/// Peak resident set of this process so far, MiB.
double PeakRssMb();

/// The workloads; each fills `result` and returns after stopping every
/// thread it started.
void RunNbaDiscover(const Args& args, Result* result);
void RunWeatherDurable(const Args& args, Result* result);
void RunFeedServe(const Args& args, Result* result);

}  // namespace perfbench

#endif  // SITFACT_PERFBENCH_PERFBENCH_H_
