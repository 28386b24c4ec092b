#include "check.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>
#include <utility>

#include "algorithms/algorithms.h"
#include "oracle/oracle.h"

namespace perfbench {

namespace core = gs::core;
namespace tensor = gs::tensor;

namespace {

// The oracle's tolerance for float payloads (fused kernels may reorder
// reductions).
float ValueTolerance() { return gs::oracle::OracleOptions{}.value_tolerance; }

std::vector<Edge> GlobalEdges(const gs::sparse::Matrix& m) {
  std::vector<Edge> out;
  if (!m.defined()) {
    return out;
  }
  const gs::sparse::Coo& coo = m.GetCoo();
  out.reserve(static_cast<size_t>(m.nnz()));
  for (int64_t e = 0; e < m.nnz(); ++e) {
    out.push_back({m.GlobalRowId(coo.row[e]), m.GlobalColId(coo.col[e]),
                   coo.values.defined() ? coo.values[e] : 1.0f});
  }
  std::sort(out.begin(), out.end());
  return out;
}

// The frontier the server gathers features for: the last non-empty ids
// output, else the request's seeds.
std::vector<int32_t> FeatureFrontier(const std::vector<core::Value>& outputs,
                                     const tensor::IdArray& seeds) {
  for (auto it = outputs.rbegin(); it != outputs.rend(); ++it) {
    if (it->kind == core::ValueKind::kIds && it->ids.defined() && !it->ids.empty()) {
      return it->ids.ToVector();
    }
  }
  return seeds.ToVector();
}

// Empty when `features` row i is exactly `graph`'s feature row
// `expected_ids[i]` and the response named the same ids.
std::string CompareFeatures(const tensor::Tensor& features, const tensor::IdArray& feature_ids,
                            const std::vector<int32_t>& expected_ids,
                            const gs::graph::Graph& graph) {
  std::ostringstream why;
  const tensor::Tensor& truth = graph.features();
  if (!truth.defined()) {
    return features.defined() ? "features served for a graph without features" : "";
  }
  if (!features.defined() || !feature_ids.defined()) {
    return "response carries no features";
  }
  if (feature_ids.ToVector() != expected_ids) {
    why << "feature ids differ from the sampled frontier (" << feature_ids.size() << " vs "
        << expected_ids.size() << ")";
    return why.str();
  }
  const int64_t dim = truth.cols();
  if (features.rows() != static_cast<int64_t>(expected_ids.size()) || features.cols() != dim) {
    why << "feature shape " << features.rows() << "x" << features.cols() << ", want "
        << expected_ids.size() << "x" << dim;
    return why.str();
  }
  for (size_t i = 0; i < expected_ids.size(); ++i) {
    const float* got = features.data() + static_cast<int64_t>(i) * dim;
    const float* want = truth.data() + static_cast<int64_t>(expected_ids[i]) * dim;
    if (std::memcmp(got, want, static_cast<size_t>(dim) * sizeof(float)) != 0) {
      why << "feature row " << i << " (node " << expected_ids[i] << ") differs";
      return why.str();
    }
  }
  return {};
}

}  // namespace

Fingerprint FingerprintOf(const std::vector<core::Value>& outputs) {
  Fingerprint fp;
  for (const core::Value& v : outputs) {
    fp.kinds.push_back(v.kind);
    switch (v.kind) {
      case core::ValueKind::kIds:
        fp.ids.push_back(v.ids.defined() ? v.ids.ToVector() : std::vector<int32_t>{});
        break;
      case core::ValueKind::kMatrix:
        fp.edges.push_back(GlobalEdges(v.matrix));
        break;
      case core::ValueKind::kTensor: {
        std::vector<float> values(static_cast<size_t>(v.tensor.numel()));
        for (int64_t i = 0; i < v.tensor.numel(); ++i) {
          values[static_cast<size_t>(i)] = v.tensor.at(i);
        }
        fp.tensors.push_back(std::move(values));
        break;
      }
    }
  }
  return fp;
}

std::string CompareFingerprints(const Fingerprint& got, const Fingerprint& want) {
  const float tol = ValueTolerance();
  std::ostringstream why;
  if (got.kinds != want.kinds) {
    why << "output kinds differ (" << got.kinds.size() << " vs " << want.kinds.size()
        << " outputs)";
    return why.str();
  }
  for (size_t i = 0; i < want.ids.size(); ++i) {
    if (got.ids[i] != want.ids[i]) {
      why << "ids output " << i << " differs (" << got.ids[i].size() << " vs "
          << want.ids[i].size() << " ids)";
      return why.str();
    }
  }
  for (size_t m = 0; m < want.edges.size(); ++m) {
    const std::vector<Edge>& a = got.edges[m];
    const std::vector<Edge>& b = want.edges[m];
    if (a.size() != b.size()) {
      why << "matrix " << m << ": nnz " << a.size() << " vs " << b.size();
      return why.str();
    }
    for (size_t e = 0; e < a.size(); ++e) {
      if (a[e].row != b[e].row || a[e].col != b[e].col) {
        why << "matrix " << m << ": edge (" << a[e].row << "," << a[e].col << ") vs ("
            << b[e].row << "," << b[e].col << ")";
        return why.str();
      }
      if (std::abs(a[e].value - b[e].value) > tol) {
        why << "matrix " << m << ": value at (" << a[e].row << "," << a[e].col
            << "): " << a[e].value << " vs " << b[e].value;
        return why.str();
      }
    }
  }
  for (size_t t = 0; t < want.tensors.size(); ++t) {
    if (got.tensors[t].size() != want.tensors[t].size()) {
      why << "tensor " << t << ": numel differs";
      return why.str();
    }
    for (size_t i = 0; i < want.tensors[t].size(); ++i) {
      if (std::abs(got.tensors[t][i] - want.tensors[t][i]) > tol) {
        why << "tensor " << t << "[" << i << "]: " << got.tensors[t][i] << " vs "
            << want.tensors[t][i];
        return why.str();
      }
    }
  }
  return {};
}

std::vector<int64_t> ShedFanouts(const std::vector<int64_t>& fanouts) {
  std::vector<int64_t> shed;
  for (const int64_t f : fanouts) {
    shed.push_back(std::max<int64_t>(1, f / 2));
  }
  return shed;
}

ServingReference::ServingReference(core::SamplerOptions served_options)
    : options_(gs::oracle::ReferenceOptions(served_options)) {}

std::vector<core::Value> ServingReference::Sample(
    const gs::graph::Graph& graph, const std::shared_ptr<const gs::graph::Snapshot>& snapshot,
    const std::vector<int64_t>& fanouts, const tensor::IdArray& seeds, uint64_t seed) {
  if (&graph != graph_) {
    sessions_.clear();
    graph_ = &graph;
  }
  std::unique_ptr<core::SamplerSession>& session = sessions_[fanouts];
  if (session == nullptr) {
    gs::algorithms::AlgorithmProgram ap =
        gs::algorithms::GraphSage(graph, gs::algorithms::SageParams{.fanouts = fanouts});
    auto plan = std::make_shared<core::CompiledPlan>(std::move(ap.program), options_);
    session = snapshot != nullptr
                  ? std::make_unique<core::SamplerSession>(plan, snapshot, std::move(ap.tensors))
                  : std::make_unique<core::SamplerSession>(plan, graph, std::move(ap.tensors));
    session->Warmup(seeds);
  }
  return session->SampleSeeded(seeds, seed);
}

std::string CheckResponse(const gs::serving::SampleResponse& response, const SentRequest& sent,
                          const gs::graph::Graph& graph, ServingReference& reference) {
  if (response.status != gs::serving::Status::kOk) {
    return std::string("status ") + gs::serving::StatusName(response.status);
  }
  const std::vector<int64_t> fanouts =
      response.degraded ? ShedFanouts(sent.fanouts) : sent.fanouts;
  const std::vector<core::Value> want =
      reference.Sample(graph, sent.snapshot, fanouts, sent.seeds, sent.seed);
  std::string why = CompareFingerprints(FingerprintOf(response.outputs), FingerprintOf(want));
  if (!why.empty()) {
    return "sample: " + why;
  }
  why = CompareFeatures(response.features, response.feature_ids,
                        FeatureFrontier(want, sent.seeds), graph);
  return why.empty() ? why : "features: " + why;
}

}  // namespace perfbench
