// Output check against the eager reference plan.
//
// Outputs are compared the way gs::oracle compares them: ids and edge sets
// in *global* node ids must match exactly, float payloads (edge values,
// tensors) within the oracle's tolerance. Raw matrix buffers are never
// compared, because sparse formats, row compaction and reduction order
// legitimately differ between the optimized and the reference plan.
//
// Served responses are checked against the reference plan's
// SampleSeeded(seeds, seed) on the graph the request was pinned to, at the
// fanouts it was served with (halved, max(1, f/2), when the server shed
// it), and their feature rows against that graph's own rows.

#ifndef PERFBENCH_CHECK_H_
#define PERFBENCH_CHECK_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "graph/graph.h"
#include "graph/store.h"
#include "serving/request.h"

namespace perfbench {

struct Edge {
  int32_t row = 0;
  int32_t col = 0;
  float value = 0.0f;
  bool operator<(const Edge& o) const {
    if (row != o.row) return row < o.row;
    if (col != o.col) return col < o.col;
    return value < o.value;
  }
};

// One result reduced to a comparable form.
struct Fingerprint {
  std::vector<gs::core::ValueKind> kinds;
  std::vector<std::vector<int32_t>> ids;    // kIds outputs, in order
  std::vector<std::vector<Edge>> edges;     // kMatrix outputs, global ids, sorted
  std::vector<std::vector<float>> tensors;  // kTensor outputs
};

Fingerprint FingerprintOf(const std::vector<gs::core::Value>& outputs);

// Empty when `got` matches `want`; otherwise the first difference.
std::string CompareFingerprints(const Fingerprint& got, const Fingerprint& want);

// The fanouts the server runs a shed request with.
std::vector<int64_t> ShedFanouts(const std::vector<int64_t>& fanouts);

// Reference sessions for served GraphSAGE requests, one per (graph,
// fanouts). Sessions over an older graph are dropped when a newer one is
// asked for, so a run over many mutation epochs holds one epoch at a time.
class ServingReference {
 public:
  explicit ServingReference(gs::core::SamplerOptions served_options);

  // Reference outputs on a static graph or on a pinned snapshot.
  std::vector<gs::core::Value> Sample(const gs::graph::Graph& graph,
                                      const std::shared_ptr<const gs::graph::Snapshot>& snapshot,
                                      const std::vector<int64_t>& fanouts,
                                      const gs::tensor::IdArray& seeds, uint64_t seed);

 private:
  gs::core::SamplerOptions options_;
  const gs::graph::Graph* graph_ = nullptr;
  std::map<std::vector<int64_t>, std::unique_ptr<gs::core::SamplerSession>> sessions_;
};

// What the benchmark knew about a request when it sent it.
struct SentRequest {
  gs::tensor::IdArray seeds;
  uint64_t seed = 0;
  std::vector<int64_t> fanouts;
  // Dynamic endpoints: the snapshot the last Apply returned before the
  // request was submitted (what the server pins at admission).
  std::shared_ptr<const gs::graph::Snapshot> snapshot;
};

// Checks one kOk response (full fidelity or shed) against the reference
// on `graph` (the snapshot's graph for dynamic endpoints). Empty on match.
std::string CheckResponse(const gs::serving::SampleResponse& response, const SentRequest& sent,
                          const gs::graph::Graph& graph, ServingReference& reference);

}  // namespace perfbench

#endif  // PERFBENCH_CHECK_H_
