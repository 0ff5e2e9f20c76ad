// perfbench: runs one benchmark workload and prints one JSON line.
//
//   perfbench --workload nba_discover --seed 3 --seconds 12
//       --trace 0 --work-dir .bench_work/x [--expect-digest HEX] [--smoke]
//
// perfbench/run.py builds this binary, runs it and turns its line into the
// benchmark's result; see perfbench/README.md for the workloads and metrics.

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "perfbench.h"

namespace perfbench {

void Digest::MixArrival(const sitfact::ArrivalReport& report) {
  Mix(report.tuple);
  Mix(report.facts.size());
  for (const sitfact::SkylineFact& fact : report.facts) {
    const sitfact::Constraint& c = fact.constraint;
    Mix(c.bound_mask());
    for (int d = 0; d < c.num_dims(); ++d) {
      if (c.IsBound(d)) Mix(c.value(d));
    }
    Mix(fact.subspace);
  }
  Mix(report.prominent.size());
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(values.size() - 1, lo + 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double SpanLog::SelfMs(const std::string& name) const {
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent != kNoParent) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  int64_t total = 0;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (name == spans_[i].name) {
      total += spans_[i].end_ns - spans_[i].start_ns - child_ns[i];
    }
  }
  return static_cast<double>(total) / 1e6;
}

double SpanLog::TotalMs(const std::string& name) const {
  int64_t total = 0;
  for (const Span& s : spans_) {
    if (name == s.name) total += s.end_ns - s.start_ns;
  }
  return static_cast<double>(total) / 1e6;
}

bool SpanLog::WriteJson(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("[\n", f);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"name\":\"%s\",\"start_ns\":%" PRId64 ",\"end_ns\":%" PRId64
                 ",\"parent\":%lld,\"id\":%" PRIu64 "}%s\n",
                 s.name, s.start_ns, s.end_ns,
                 s.parent == kNoParent ? -1LL
                                       : static_cast<long long>(s.parent),
                 s.id, i + 1 < spans_.size() ? "," : "");
  }
  std::fputs("]\n", f);
  return std::fclose(f) == 0;
}

namespace {

void PrintJsonString(const std::string& s) {
  std::putchar('"');
  for (char c : s) {
    if (c == '"' || c == '\\') {
      std::printf("\\%c", c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      std::printf("\\u%04x", c);
    } else {
      std::putchar(c);
    }
  }
  std::putchar('"');
}

void PrintNumber(double v) {
  if (std::isfinite(v)) {
    std::printf("%.17g", v);
  } else {
    std::printf("null");
  }
}

void PrintResult(const Result& r) {
  std::printf("{\"correct\":%s,\"attempted\":%" PRIu64 ",\"failed\":%" PRIu64
              ",\"metrics\":{",
              r.failed == 0 && r.attempted > 0 ? "true" : "false", r.attempted,
              r.failed);
  for (size_t i = 0; i < r.metrics.size(); ++i) {
    if (i > 0) std::putchar(',');
    PrintJsonString(r.metrics[i].name);
    std::printf(":{\"value\":");
    PrintNumber(r.metrics[i].value);
    std::printf(",\"unit\":");
    PrintJsonString(r.metrics[i].unit);
    std::putchar('}');
  }
  std::printf("},\"detail\":{");
  for (size_t i = 0; i < r.detail.size(); ++i) {
    if (i > 0) std::putchar(',');
    PrintJsonString(r.detail[i].name);
    std::putchar(':');
    PrintNumber(r.detail[i].value);
  }
  std::printf("},\"errors\":[");
  for (size_t i = 0; i < r.errors.size(); ++i) {
    if (i > 0) std::putchar(',');
    PrintJsonString(r.errors[i]);
  }
  std::printf("],\"notes\":[");
  for (size_t i = 0; i < r.notes.size(); ++i) {
    if (i > 0) std::putchar(',');
    PrintJsonString(r.notes[i]);
  }
  std::printf("]}\n");
  std::fflush(stdout);
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME "
               "--seed N --seconds S --trace 0|1 --work-dir DIR "
               "[--expect-digest HEX] [--smoke]\n",
               why);
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (flag == "--smoke") {
      args.smoke = true;
      continue;
    }
    if ((v = value()) == nullptr) return Usage("flag without a value");
    if (flag == "--workload") {
      args.workload = v;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(v, nullptr);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(v, "0") != 0;
    } else if (flag == "--work-dir") {
      args.work_dir = v;
    } else if (flag == "--expect-digest") {
      args.expect_digest = std::strtoull(v, nullptr, 16);
    } else {
      return Usage("unknown flag");
    }
  }
  if (args.work_dir.empty() || !(args.seconds > 0)) {
    return Usage("--work-dir and a positive --seconds are required");
  }
  std::error_code ec;
  std::filesystem::create_directories(args.work_dir, ec);
  if (ec) return Usage("cannot create the work directory");

  Result result;
  if (args.workload == "nba_discover") {
    RunNbaDiscover(args, &result);
  } else if (args.workload == "weather_durable") {
    RunWeatherDurable(args, &result);
  } else if (args.workload == "feed_serve") {
    RunFeedServe(args, &result);
  } else {
    return Usage("unknown workload");
  }
  PrintResult(result);
  return 0;
}
