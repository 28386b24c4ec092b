// perfbench: runs one benchmark workload and prints one JSON line with
// every metric it measured, the operations attempted and failed, and the
// outcome of the output check. perfbench/run.py builds this binary and
// turns that line into the benchmark's result.
//
//   perfbench --workload epoch-sage --seed 1 --seconds 10 [--trace 1]
//             [--trace-out FILE]
//
// One invocation sets up once and measures once; run.py makes several
// invocations per benchmark run and reports their medians.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/logging.h"
#include "report.h"
#include "trace.h"
#include "workloads.h"

namespace {

using perfbench::RunConfig;
using perfbench::RunResult;

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload epoch-sage|epoch-ladies|serve-mutate "
               "--seed N --seconds S [--trace 0|1] [--trace-out FILE]\n");
  return 2;
}

const char* const kLayers[] = {"graph", "core", "feature", "serving", "dyn", "loadgen"};

}  // namespace

int main(int argc, char** argv) {
  RunConfig config;
  std::string trace_out;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      return Usage();
    }
    const char* value = argv[++i];
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::atof(value);
    } else if (flag == "--trace") {
      config.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--trace-out") {
      trace_out = value;
    } else {
      return Usage();
    }
  }
  if (config.seconds <= 0) {
    return Usage();
  }
  gs::SetLogLevel(gs::LogLevel::kError);

  perfbench::Tracer tracer;
  RunResult result;
  const perfbench::Clock::time_point start = perfbench::Clock::now();
  try {
    if (config.workload == "epoch-sage") {
      // Super-batch fixed at 64: the tuner's pick on this workload is noise
      // (anything from 1 to 64) and moves its host time by up to 1.4x.
      result = perfbench::RunEpochWorkload(config, {"GraphSAGE", "PP", 0.5, 512, 64}, tracer);
    } else if (config.workload == "epoch-ladies") {
      result = perfbench::RunEpochWorkload(config, {"LADIES", "PD", 1.0}, tracer);
    } else if (config.workload == "serve-mutate") {
      result = perfbench::RunServeWorkload(config, tracer);
    } else {
      return Usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", config.workload.c_str(), e.what());
    return 1;
  }

  result.Add("check.checked", static_cast<double>(result.check.checked), "count");
  result.Add("check.mismatches", static_cast<double>(result.check.mismatches), "count");
  if (config.trace) {
    const auto self_ms = tracer.SelfMsByLayer();
    for (const char* layer : kLayers) {
      const auto it = self_ms.find(layer);
      result.Add(std::string(layer) + ".self_ms", it != self_ms.end() ? it->second : 0.0, "ms");
    }
    if (!trace_out.empty() && !tracer.WriteChromeJson(trace_out)) {
      std::fprintf(stderr, "perfbench: cannot write trace %s\n", trace_out.c_str());
      return 1;
    }
    result.notes.push_back("trace: " + std::to_string(tracer.size()) + " spans -> " +
                           (trace_out.empty() ? std::string("(not written)") : trace_out));
  }
  result.notes.push_back("checked=" + std::to_string(result.check.checked) +
                         " mismatches=" + std::to_string(result.check.mismatches));
  for (const std::string& example : result.check.examples) {
    result.notes.push_back("MISMATCH " + example);
  }
  result.notes.push_back(
      "run_s=" + std::to_string(perfbench::SecondsBetween(start, perfbench::Clock::now())));
  for (const std::string& note : result.notes) {
    std::printf("# %s: %s\n", config.workload.c_str(), note.c_str());
  }
  std::printf("%s\n", perfbench::ToJsonLine(config.workload, result).c_str());
  return 0;
}
