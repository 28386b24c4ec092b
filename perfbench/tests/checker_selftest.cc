// Self-test of the benchmark's output checker (perfbench/src/check.h).
//
// Real responses from a live serving::Server must pass, and each of four
// injected faults must be flagged:
//   1. a copied output with one edge moved,
//   2. a wrong feature row,
//   3. a shed response compared against the full-fidelity reference,
//   4. a response checked against the wrong graph epoch.
// Exits 0 when every expectation holds, 1 otherwise. perfbench/run.py runs
// it before every workload run.

#include <cstdio>
#include <string>
#include <vector>

#include "check.h"
#include "common/logging.h"
#include "device/device.h"
#include "graph/datasets.h"
#include "graph/store.h"
#include "serving/server.h"

namespace {

namespace core = gs::core;
namespace serving = gs::serving;
namespace tensor = gs::tensor;
using perfbench::CheckResponse;
using perfbench::SentRequest;
using perfbench::ServingReference;

int failures = 0;

void Expect(bool ok, const std::string& what, const std::string& detail) {
  std::printf("%s %s%s%s\n", ok ? "ok  " : "FAIL", what.c_str(), detail.empty() ? "" : ": ",
              detail.c_str());
  failures += ok ? 0 : 1;
}
void ExpectPass(const std::string& what, const std::string& why) { Expect(why.empty(), what, why); }
void ExpectFlag(const std::string& what, const std::string& why) {
  Expect(!why.empty(), what, why.empty() ? "not flagged" : "flagged (" + why + ")");
}

const std::vector<int64_t> kFanouts = {10, 5};

SentRequest MakeSent(const gs::graph::Graph& g, uint64_t seed) {
  std::vector<int32_t> seeds;
  for (int64_t i = 0; i < 16; ++i) {
    seeds.push_back(g.train_ids()[i * 7]);
  }
  return {tensor::IdArray::FromVector(seeds), seed, kFanouts, nullptr};
}

serving::SampleResponse Serve(serving::Server& server, const SentRequest& sent,
                              const std::vector<int64_t>& fanouts) {
  serving::SampleRequest request;
  request.algorithm = "GraphSAGE";
  request.dataset = "PD";
  request.seeds = sent.seeds;
  request.seed = sent.seed;
  request.fanouts = fanouts;
  return server.Submit(std::move(request)).get();
}

// A deep copy of `outputs` with one edge of the first non-empty matrix
// moved to a neighbouring column.
std::vector<core::Value> MoveOneEdge(const std::vector<core::Value>& outputs) {
  std::vector<core::Value> copy = outputs;
  for (core::Value& v : copy) {
    if (v.kind != core::ValueKind::kMatrix || v.matrix.nnz() == 0) {
      continue;
    }
    const gs::sparse::Matrix& m = v.matrix;
    const gs::sparse::Coo& coo = m.GetCoo();
    gs::sparse::Coo moved;
    moved.row = tensor::IdArray::FromVector(coo.row.ToVector());
    moved.col = tensor::IdArray::FromVector(coo.col.ToVector());
    if (coo.values.defined()) {
      moved.values = gs::sparse::ValueArray::FromVector(coo.values.ToVector());
    }
    if (m.num_cols() > 1) {
      moved.col.data()[0] = static_cast<int32_t>((coo.col[0] + 1) % m.num_cols());
    } else {
      moved.row.data()[0] = static_cast<int32_t>((coo.row[0] + 1) % m.num_rows());
    }
    gs::sparse::Matrix out = gs::sparse::Matrix::FromCoo(m.num_rows(), m.num_cols(), moved);
    if (m.has_row_ids()) {
      out.SetRowIds(m.row_ids());
    }
    if (m.has_col_ids()) {
      out.SetColIds(m.col_ids());
    }
    v = core::Value::OfMatrix(out);
    return copy;
  }
  return copy;
}

void StaticGraphFaults() {
  const gs::graph::Graph g = gs::graph::MakeDataset("PD", {.scale = 0.2, .weighted = true});
  serving::ServerOptions options;
  options.num_workers = 1;
  options.serve_features = true;
  serving::Server server(options);
  server.RegisterEndpoint(serving::MakeEndpoint("GraphSAGE", "PD", g));
  server.Start();
  ServingReference reference(core::SamplerOptions{});

  const SentRequest sent = MakeSent(g, 7);
  const serving::SampleResponse served = Serve(server, sent, kFanouts);
  ExpectPass("served response matches the reference",
             CheckResponse(served, sent, g, reference));

  serving::SampleResponse moved = served;
  moved.outputs = MoveOneEdge(served.outputs);
  ExpectFlag("copied output with one edge moved", CheckResponse(moved, sent, g, reference));

  serving::SampleResponse wrong_row = served;
  wrong_row.features = served.features.Clone();
  wrong_row.features.at(3, 0) += 1.0f;
  ExpectFlag("wrong feature row", CheckResponse(wrong_row, sent, g, reference));

  // The server runs a shed request at max(1, f/2) fanouts; serve exactly
  // that plan and check it both ways.
  serving::SampleResponse shed = Serve(server, sent, perfbench::ShedFanouts(kFanouts));
  shed.degraded = true;
  ExpectPass("shed response matches the halved-fanout reference",
             CheckResponse(shed, sent, g, reference));
  shed.degraded = false;
  ExpectFlag("shed response against the full-fidelity reference",
             CheckResponse(shed, sent, g, reference));
  server.Stop();
}

void WrongEpochFault() {
  gs::graph::GraphStore store(gs::graph::MakeDataset("PD", {.scale = 0.2, .weighted = true}));
  serving::ServerOptions options;
  options.num_workers = 1;
  options.serve_features = true;
  serving::Server server(options);
  server.RegisterEndpoint(serving::MakeDynamicEndpoint("GraphSAGE", "PD", store));
  server.Start();
  ServingReference reference(core::SamplerOptions{});

  SentRequest sent = MakeSent(store.Current()->graph(), 9);
  const std::shared_ptr<const gs::graph::Snapshot> before = store.Current();
  // New in-edges into every seed plus a new feature row for each seed, so
  // the two epochs sample and gather differently.
  gs::graph::MutationBatch batch;
  const int64_t dim = before->graph().features().cols();
  for (int64_t i = 0; i < sent.seeds.size(); ++i) {
    const int32_t seed = sent.seeds[i];
    for (int32_t k = 1; k <= 32; ++k) {
      batch.add_edges.push_back(
          {static_cast<int32_t>((seed + 97 * k) % store.num_nodes()), seed, 1.0f});
    }
    batch.update_features.push_back({seed, std::vector<float>(static_cast<size_t>(dim), 0.5f)});
  }
  const std::shared_ptr<const gs::graph::Snapshot> after = store.Apply(batch);
  const serving::SampleResponse served = Serve(server, sent, kFanouts);

  sent.snapshot = after;
  ExpectPass("response matches its own epoch",
             CheckResponse(served, sent, after->graph(), reference));
  sent.snapshot = before;
  ExpectFlag("response checked against the wrong epoch",
             CheckResponse(served, sent, before->graph(), reference));
  server.Stop();
}

}  // namespace

int main() {
  gs::SetLogLevel(gs::LogLevel::kError);
  gs::device::Device device(gs::device::V100Sim());
  gs::device::DeviceGuard guard(device);
  StaticGraphFaults();
  WrongEpochFault();
  std::printf("checker self-test: %s\n", failures == 0 ? "all expectations held" : "FAILED");
  return failures == 0 ? 0 : 1;
}
