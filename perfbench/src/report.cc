#include "report.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

namespace perfbench {

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) {
    return 0.0;
  }
  std::sort(samples.begin(), samples.end());
  const double rank = p / 100.0 * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(samples.size() - 1, lo + 1);
  if (std::isinf(samples[hi]) || samples[lo] == samples[hi]) {
    return rank - static_cast<double>(lo) < 1e-12 ? samples[lo] : samples[hi];
  }
  return samples[lo] + (rank - static_cast<double>(lo)) * (samples[hi] - samples[lo]);
}

double WindowedPercentile(const std::vector<double>& samples, double p, size_t min_window) {
  const size_t windows = std::min<size_t>(8, samples.size() / std::max<size_t>(1, min_window));
  if (windows < 2) {
    return Percentile(samples, p);
  }
  std::vector<double> per_window;
  for (size_t w = 0; w < windows; ++w) {
    const size_t begin = samples.size() * w / windows;
    const size_t end = samples.size() * (w + 1) / windows;
    per_window.push_back(Percentile(
        std::vector<double>(samples.begin() + static_cast<std::ptrdiff_t>(begin),
                            samples.begin() + static_cast<std::ptrdiff_t>(end)),
        p));
  }
  return Median(per_window);
}

double TailPercentileFor(int64_t n) {
  for (const double p : {99.0, 95.0, 90.0, 75.0}) {
    if (static_cast<double>(n) * (1.0 - p / 100.0) >= 10.0) {
      return p;
    }
  }
  return 50.0;
}

double Median(std::vector<double> samples) { return Percentile(std::move(samples), 50.0); }

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

void CheckTally::Record(const std::string& what, const std::string& why) {
  ++checked;
  if (why.empty()) {
    return;
  }
  ++mismatches;
  if (examples.size() < 5) {
    examples.push_back(what + ": " + why);
  }
}

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

// A percentile that lands on a missed request is infinite; JSON has no
// infinity, so it prints as 1e300 (a regression no bound can absorb).
std::string JsonNumber(double v) {
  if (std::isnan(v)) {
    return "null";
  }
  if (std::isinf(v)) {
    return v > 0 ? "1e300" : "-1e300";
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

std::string ToJsonLine(const std::string& workload, const RunResult& result) {
  std::ostringstream out;
  out << "{\"workload\":" << JsonString(workload) << ",\"attempted\":" << result.attempted
      << ",\"failed\":" << result.failed << ",\"checked\":" << result.check.checked
      << ",\"mismatches\":" << result.check.mismatches << ",\"metrics\":{";
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    out << (i > 0 ? "," : "") << JsonString(m.name) << ":{\"value\":" << JsonNumber(m.value)
        << ",\"unit\":" << JsonString(m.unit) << "}";
  }
  out << "}}";
  return out.str();
}

}  // namespace perfbench
