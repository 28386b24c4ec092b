// Micro-benchmarks (google-benchmark, real wall time) for the hot sparse
// kernels: extraction, sampling, reductions, SpMM, fused edge maps. These
// complement the virtual-clock table/figure benches with raw kernel
// throughput numbers.

#include <benchmark/benchmark.h>

#include <vector>

#include "graph/datasets.h"
#include "sparse/fused.h"
#include "sparse/kernels.h"
#include "tensor/ops.h"

namespace gs {
namespace {

const graph::Graph& BenchGraph() {
  static graph::Graph g = graph::MakePD({.scale = 0.25, .weighted = true});
  return g;
}

tensor::IdArray Frontier(int64_t n) {
  const graph::Graph& g = BenchGraph();
  std::vector<int32_t> ids;
  for (int64_t i = 0; i < n; ++i) {
    ids.push_back(static_cast<int32_t>((i * 13) % g.num_nodes()));
  }
  return tensor::IdArray::FromVector(ids);
}

sparse::EdgeMapStage ScalarStage(BinaryOp op, float scalar) {
  sparse::EdgeMapStage stage;
  stage.op = op;
  stage.kind = sparse::EdgeMapStage::OperandKind::kScalar;
  stage.scalar = scalar;
  return stage;
}

void BM_SliceColumns(benchmark::State& state) {
  const graph::Graph& g = BenchGraph();
  tensor::IdArray frontier = Frontier(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(sparse::SliceColumns(g.adj(), frontier));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SliceColumns)->Arg(64)->Arg(256)->Arg(1024);

void BM_FusedSliceSample(benchmark::State& state) {
  const graph::Graph& g = BenchGraph();
  tensor::IdArray frontier = Frontier(state.range(0));
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sparse::FusedSliceSample(g.adj(), frontier, 10, rng));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FusedSliceSample)->Arg(64)->Arg(256)->Arg(1024);

void BM_UnfusedSliceSample(benchmark::State& state) {
  const graph::Graph& g = BenchGraph();
  tensor::IdArray frontier = Frontier(state.range(0));
  Rng rng(1);
  for (auto _ : state) {
    sparse::Matrix sub = sparse::SliceColumns(g.adj(), frontier);
    benchmark::DoNotOptimize(sparse::IndividualSample(sub, 10, sparse::ValueArray{}, rng));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_UnfusedSliceSample)->Arg(64)->Arg(256)->Arg(1024);

void BM_CollectiveSample(benchmark::State& state) {
  const graph::Graph& g = BenchGraph();
  tensor::IdArray frontier = Frontier(256);
  sparse::Matrix sub = sparse::SliceColumns(g.adj(), frontier);
  sparse::ValueArray probs = sparse::SumAxis(sub, 0);
  Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sparse::CollectiveSample(sub, state.range(0), probs, rng));
  }
}
BENCHMARK(BM_CollectiveSample)->Arg(64)->Arg(256)->Arg(512);

void BM_SumAxisRows(benchmark::State& state) {
  const graph::Graph& g = BenchGraph();
  tensor::IdArray frontier = Frontier(512);
  sparse::Matrix sub = sparse::SliceColumns(g.adj(), frontier);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sparse::SumAxis(sub, 0));
  }
  state.SetItemsProcessed(state.iterations() * sub.nnz());
}
BENCHMARK(BM_SumAxisRows);

void BM_SpMM(benchmark::State& state) {
  const graph::Graph& g = BenchGraph();
  tensor::IdArray frontier = Frontier(512);
  sparse::Matrix sub = sparse::SliceColumns(g.adj(), frontier);
  Rng rng(3);
  tensor::Tensor dense = tensor::Tensor::Randn({sub.num_cols(), state.range(0)}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sparse::SpMM(sub, dense));
  }
}
BENCHMARK(BM_SpMM)->Arg(16)->Arg(64);

void BM_FusedEdgeMapReduce(benchmark::State& state) {
  const graph::Graph& g = BenchGraph();
  tensor::IdArray frontier = Frontier(512);
  sparse::Matrix sub = sparse::SliceColumns(g.adj(), frontier);
  const std::vector<sparse::EdgeMapStage> stages = {ScalarStage(BinaryOp::kPow, 2.0f)};
  for (auto _ : state) {
    benchmark::DoNotOptimize(sparse::FusedEdgeMapReduce(sub, stages, {}, 0));
  }
  state.SetItemsProcessed(state.iterations() * sub.nnz());
}
BENCHMARK(BM_FusedEdgeMapReduce);

void BM_UnfusedMapThenReduce(benchmark::State& state) {
  const graph::Graph& g = BenchGraph();
  tensor::IdArray frontier = Frontier(512);
  sparse::Matrix sub = sparse::SliceColumns(g.adj(), frontier);
  for (auto _ : state) {
    sparse::Matrix sq = sparse::EltwiseScalar(sub, BinaryOp::kPow, 2.0f);
    benchmark::DoNotOptimize(sparse::SumAxis(sq, 0));
  }
  state.SetItemsProcessed(state.iterations() * sub.nnz());
}
BENCHMARK(BM_UnfusedMapThenReduce);

void BM_FusedEdgeMapChain(benchmark::State& state) {
  const graph::Graph& g = BenchGraph();
  tensor::IdArray frontier = Frontier(512);
  sparse::Matrix sub = sparse::SliceColumns(g.adj(), frontier);
  // The two-stage chain 0.5 * w^2.
  const std::vector<sparse::EdgeMapStage> stages = {ScalarStage(BinaryOp::kPow, 2.0f),
                                                    ScalarStage(BinaryOp::kMul, 0.5f)};
  for (auto _ : state) {
    benchmark::DoNotOptimize(sparse::FusedEdgeMap(sub, stages, {}));
  }
  state.SetItemsProcessed(state.iterations() * sub.nnz());
}
BENCHMARK(BM_FusedEdgeMapChain);

void BM_WalkStep(benchmark::State& state) {
  const graph::Graph& g = BenchGraph();
  tensor::IdArray cur = Frontier(state.range(0));
  Rng rng(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sparse::UniformWalkStep(g.adj(), cur, rng));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_WalkStep)->Arg(1024);

}  // namespace
}  // namespace gs

BENCHMARK_MAIN();
