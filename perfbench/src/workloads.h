// The benchmark's workloads. Each builds its inputs from the workload seed,
// sets up once, measures for the given number of seconds, then checks a
// sample of its outputs against the eager reference plan.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "report.h"
#include "trace.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

struct EpochSpec {
  std::string algorithm;
  std::string dataset;
  double scale = 1.0;
  int64_t batch_size = 512;
  int super_batch = 0;  // 0 = auto-tune
};

// Training epochs: BatchProducer over a seeded permutation of the train ids
// per epoch, at the spec's super-batch size (auto-tuned when 0).
RunResult RunEpochWorkload(const RunConfig& config, const EpochSpec& spec, Tracer& tracer);

// Serving: an open-loop phase at a fixed rate, then a closed-loop phase,
// against serving::Server over a GraphStore that the load generator
// mutates at a fixed interval.
RunResult RunServeWorkload(const RunConfig& config, Tracer& tracer);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
