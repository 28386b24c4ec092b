// Metric collection and summary statistics shared by the perfbench
// workloads. Every workload fills one RunResult; main.cc prints it as one
// JSON line that perfbench/run.py turns into the benchmark's result line.

#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline int64_t NsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(to - from).count();
}
inline double SecondsBetween(Clock::time_point from, Clock::time_point to) {
  return static_cast<double>(NsBetween(from, to)) / 1e9;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// Running tally of output checks against the eager reference.
struct CheckTally {
  int64_t checked = 0;
  int64_t mismatches = 0;
  std::vector<std::string> examples;  // first few mismatch descriptions

  // Counts one check; `why` is empty on a match.
  void Record(const std::string& what, const std::string& why);
};

// What one workload run measured and checked.
struct RunResult {
  std::vector<Metric> metrics;
  // Operations (batches, requests, mutation applies) attempted and failed.
  int64_t attempted = 0;
  int64_t failed = 0;
  CheckTally check;
  // Free-form facts printed before the result line (tuner pick, sample
  // counts, which percentile a tail metric is).
  std::vector<std::string> notes;

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

// Linear-interpolated percentile (p in [0, 100]) of unsorted samples; 0 for
// an empty set. Infinite samples (missed requests) sort last.
double Percentile(std::vector<double> samples, double p);

// The median, over consecutive windows of at least `min_window` samples
// (in the order recorded, at most 8 windows), of each window's p-th
// percentile: a tail that one burst of host stalls cannot move on its own.
// The plain percentile when there are fewer than two windows' worth.
double WindowedPercentile(const std::vector<double>& samples, double p, size_t min_window = 1000);

// The highest of p99 / p95 / p90 / p75 / p50 that has at least ten samples
// beyond it among `n` (p50 when none does).
double TailPercentileFor(int64_t n);

double Median(std::vector<double> samples);

// Peak resident set size of this process, in MB.
double PeakRssMb();

// One JSON line: workload, counts, check outcome and every metric.
std::string ToJsonLine(const std::string& workload, const RunResult& result);

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
