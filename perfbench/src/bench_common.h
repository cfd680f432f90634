// Shared plumbing of the repository benchmark: wall-clock helpers, order
// statistics, the run outcome (operations attempted / failed), and the
// metric report every workload fills.

#ifndef PERFBENCH_BENCH_COMMON_H_
#define PERFBENCH_BENCH_COMMON_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using SteadyClock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             SteadyClock::now().time_since_epoch())
      .count();
}

/// Seconds elapsed since `start_ns` (a NowNs() reading).
inline double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e9;
}

/// Linearly interpolated quantile (q in [0, 1]) of `values`; 0 when empty.
inline double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// Command-line options of one benchmark invocation.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 20;
  bool trace = false;
};

/// Operations attempted and failed in a run, with a description of every
/// failure. An operation is one job (its status, its outputs against the
/// reference, and its deterministic counters against the other jobs of the
/// run), one read batch, or one per-layer self-check.
struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> problems;

  /// Counts one operation; records a failure when `ok` is false.
  void Op(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) Fail(what);
  }
  /// Marks an already counted operation as failed.
  void Fail(const std::string& what) {
    ++failed;
    problems.push_back(what);
    std::cerr << "perfbench: FAILED: " << what << "\n";
  }
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a run reports: its outcome and its metrics, in print order.
struct Report {
  Outcome outcome;
  std::vector<Metric> metrics;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
};

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_COMMON_H_
