// Tests for the CompiledSampler engine: compiling and running all 15
// algorithms, pre-computation, super-batch execution, memory budgeting, and
// tensor re-binding.

#include <gtest/gtest.h>

#include <set>

#include "algorithms/algorithms.h"
#include "core/engine.h"
#include "core/trace.h"
#include "device/device.h"
#include "tests/testing.h"

namespace gs::core {
namespace {

using tensor::IdArray;

IdArray Iota(int n, int start = 0) {
  std::vector<int32_t> v;
  for (int i = 0; i < n; ++i) {
    v.push_back(start + i);
  }
  return IdArray::FromVector(v);
}

class AllAlgorithms : public ::testing::TestWithParam<std::string> {};

TEST_P(AllAlgorithms, CompilesAndSamples) {
  const std::string name = GetParam();
  graph::Graph g = gs::testing::SmallRmat(250, 2500, 33, true);
  algorithms::AlgorithmProgram ap = algorithms::MakeAlgorithm(name, g);
  SamplerOptions opts;
  CompiledSampler sampler(std::move(ap.program), g, std::move(ap.tensors), opts);
  if (name == "HetGNN") {
    sampler.BindGraph("rel0", &g.adj());
    sampler.BindGraph("rel1", &g.adj());
  }
  std::vector<Value> out = sampler.Sample(Iota(16));
  EXPECT_FALSE(out.empty());
  // Any matrix output must reference valid original-graph ids.
  for (const Value& v : out) {
    if (v.kind == ValueKind::kMatrix) {
      for (const auto& [edge, w] : gs::testing::EdgeSet(v.matrix)) {
        EXPECT_GE(edge.first, 0);
        EXPECT_LT(edge.first, g.num_nodes());
        EXPECT_GE(edge.second, 0);
        EXPECT_LT(edge.second, g.num_nodes());
        (void)w;
      }
    }
    if (v.kind == ValueKind::kIds) {
      for (int64_t i = 0; i < v.ids.size(); ++i) {
        EXPECT_LT(v.ids[i], g.num_nodes());
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Table2, AllAlgorithms,
                         ::testing::ValuesIn(algorithms::AllAlgorithmNames()));

TEST(Engine, PrecomputesInvariantNodes) {
  graph::Graph g = gs::testing::SmallRmat();
  algorithms::AlgorithmProgram ap = algorithms::Ladies(g, {.num_layers = 2, .layer_width = 16});
  SamplerOptions opts;
  CompiledSampler sampler(std::move(ap.program), g, std::move(ap.tensors), opts);
  // The hoisted A**2 must be marked invariant in the compiled program.
  int invariant_compute = 0;
  for (const Node& n : sampler.program().nodes()) {
    if (n.invariant && n.kind == OpKind::kEltwiseScalar) {
      ++invariant_compute;
    }
  }
  EXPECT_GE(invariant_compute, 1);
  EXPECT_NE(sampler.DebugString().find("precomputed="), std::string::npos);
}

TEST(Engine, OptimizationReportCountsPasses) {
  graph::Graph g = gs::testing::SmallRmat();
  algorithms::AlgorithmProgram ap = algorithms::Ladies(g, {.num_layers = 2, .layer_width = 16});
  SamplerOptions opts;
  CompiledSampler sampler(std::move(ap.program), g, std::move(ap.tensors), opts);
  OptimizationReport before = sampler.report();
  EXPECT_GE(before.hoisted_ops, 2);             // A**2 hoisted in both layers
  EXPECT_GE(before.edge_map_reduce_fusions, 2); // normalization chains fused
  EXPECT_GE(before.cse_merged, 1);              // the hoisted A**2 deduped
  EXPECT_GE(before.precomputed_values, 1);
  EXPECT_EQ(before.annotated_layouts, 0);       // layouts not calibrated yet
  sampler.Sample(Iota(8));
  EXPECT_FALSE(sampler.report().ToString().empty());

  algorithms::AlgorithmProgram sage = algorithms::GraphSage(g, {.fanouts = {4}});
  SamplerOptions off;
  off.enable_fusion = false;
  off.enable_preprocessing = false;
  CompiledSampler plain(std::move(sage.program), g, std::move(sage.tensors), off);
  OptimizationReport none = plain.report();
  EXPECT_EQ(none.extract_select_fusions, 0);
  EXPECT_EQ(none.hoisted_ops, 0);
}

TEST(Engine, SuperBatchSplitsMatchFrontiers) {
  graph::Graph g = gs::testing::SmallRmat(400, 4000, 55, true);
  algorithms::AlgorithmProgram ap =
      algorithms::GraphSage(g, {.fanouts = {3, 2}, .include_seeds = false});
  SamplerOptions opts;
  opts.super_batch = 4;
  CompiledSampler sampler(std::move(ap.program), g, std::move(ap.tensors), opts);

  int batches = 0;
  sampler.SampleEpoch(Iota(64), 8, [&](int64_t index, std::vector<Value>& out) {
    ++batches;
    ASSERT_EQ(out.size(), 3u);
    // Layer-1 columns must be exactly this mini-batch's seeds.
    const sparse::Matrix& layer1 = out[0].matrix;
    ASSERT_EQ(layer1.num_cols(), 8);
    for (int64_t c = 0; c < 8; ++c) {
      EXPECT_EQ(layer1.GlobalColId(static_cast<int32_t>(c)),
                static_cast<int32_t>(index * 8 + c));
    }
    // Fanout bound per column.
    const sparse::Compressed& csc = layer1.Csc();
    for (int64_t c = 0; c < 8; ++c) {
      EXPECT_LE(csc.indptr[c + 1] - csc.indptr[c], 3);
    }
    // All ids are back in the original space.
    for (const auto& [edge, w] : gs::testing::EdgeSet(out[1].matrix)) {
      EXPECT_LT(edge.first, g.num_nodes());
      (void)w;
    }
    for (int64_t i = 0; i < out[2].ids.size(); ++i) {
      EXPECT_LT(out[2].ids[i], g.num_nodes());
    }
  });
  EXPECT_EQ(batches, 8);
}

TEST(Engine, SuperBatchLayerWise) {
  graph::Graph g = gs::testing::SmallRmat(300, 3000, 77, true);
  algorithms::AlgorithmProgram ap = algorithms::Ladies(g, {.num_layers = 2, .layer_width = 12});
  SamplerOptions opts;
  opts.super_batch = 2;
  CompiledSampler sampler(std::move(ap.program), g, std::move(ap.tensors), opts);
  int batches = 0;
  sampler.SampleEpoch(Iota(32), 8, [&](int64_t, std::vector<Value>& out) {
    ++batches;
    // Layer width bound holds per batch (not 2x): batches stay independent.
    const sparse::Matrix& w2 = out[0].matrix;
    EXPECT_LE(w2.num_rows(), 12);
  });
  EXPECT_EQ(batches, 4);
}

TEST(Engine, WalkProgramsSuperBatchByConcatenation) {
  graph::Graph g = gs::testing::SmallRmat();
  algorithms::AlgorithmProgram ap = algorithms::DeepWalk(g, {.walk_length = 5});
  SamplerOptions opts;
  opts.super_batch = 8;  // pure walk programs batch by concatenation
  CompiledSampler sampler(std::move(ap.program), g, std::move(ap.tensors), opts);
  int batches = 0;
  const auto edges = gs::testing::EdgeSet(g.adj());
  sampler.SampleEpoch(Iota(32), 8, [&](int64_t index, std::vector<Value>& out) {
    ++batches;
    ASSERT_EQ(out.size(), 5u);
    // Traces stay aligned per batch: step 1 must be an in-neighbor of the
    // batch's own frontier (or -1).
    for (int64_t i = 0; i < 8; ++i) {
      const int32_t start = static_cast<int32_t>(index * 8 + i);
      const int32_t step1 = out[0].ids[i];
      if (step1 >= 0) {
        EXPECT_NE(edges.find({step1, start}), edges.end());
      }
    }
  });
  EXPECT_EQ(batches, 4);
}

TEST(Engine, MixedWalkProgramsSkipSuperBatch) {
  // GraphSAINT mixes walks with matrix outputs: not batchable.
  graph::Graph g = gs::testing::SmallRmat();
  algorithms::AlgorithmProgram ap = algorithms::GraphSaint(g, {.walk_length = 3});
  SamplerOptions opts;
  opts.super_batch = 4;
  CompiledSampler sampler(std::move(ap.program), g, std::move(ap.tensors), opts);
  int batches = 0;
  sampler.SampleEpoch(Iota(32), 8, [&](int64_t, std::vector<Value>& out) {
    ++batches;
    EXPECT_EQ(out.size(), 2u);
  });
  EXPECT_EQ(batches, 4);
}

TEST(Engine, AutoSuperBatchRespectsMemoryBudget) {
  graph::Graph g = gs::testing::SmallRmat(300, 3000, 88, true);
  algorithms::AlgorithmProgram ap = algorithms::GraphSage(g, {.fanouts = {3, 2}});
  SamplerOptions opts;
  opts.super_batch = 0;                  // auto grid search
  opts.memory_budget_bytes = 64 * 1024;  // tiny budget -> small super-batch
  CompiledSampler sampler(std::move(ap.program), g, std::move(ap.tensors), opts);
  sampler.SampleEpoch(Iota(64), 8, nullptr);
  EXPECT_GE(sampler.effective_super_batch(), 1);
  EXPECT_LE(sampler.effective_super_batch(), 8);
}

TEST(Engine, BindTensorRefreshesBias) {
  // GCN-BS with bandit weights concentrated on a single edge per column
  // must sample exactly that edge when k=1.
  graph::Graph g = gs::testing::SmallRmat(100, 1200, 99, false);
  algorithms::AlgorithmProgram ap = algorithms::GcnBs(g, {.fanouts = {1}});
  SamplerOptions opts;
  CompiledSampler sampler(std::move(ap.program), g, std::move(ap.tensors), opts);

  // Weight vector: ~0 everywhere except the first edge of each column.
  tensor::Tensor biased = tensor::Tensor::Full({g.num_edges()}, 1e-8f);
  const sparse::Compressed& csc = g.adj().Csc();
  for (int64_t c = 0; c < g.num_nodes(); ++c) {
    if (csc.indptr[c + 1] > csc.indptr[c]) {
      biased.at(csc.indptr[c]) = 1.0f;
    }
  }
  sampler.BindTensor("bandit_w", biased);
  std::vector<Value> out = sampler.Sample(Iota(10, 1));
  const sparse::Matrix& sample = out[0].matrix;
  const sparse::Compressed& s = sample.Csc();
  for (int64_t c = 0; c < sample.num_cols(); ++c) {
    const int32_t col_global = sample.GlobalColId(static_cast<int32_t>(c));
    if (s.indptr[c + 1] > s.indptr[c]) {
      EXPECT_EQ(s.indices[s.indptr[c]], csc.indices[csc.indptr[col_global]]);
    }
  }
}

TEST(Engine, EpochWithoutSuperBatchEqualsPerBatchSampling) {
  // SampleEpoch with super_batch = 1 must behave exactly like calling
  // Sample per mini-batch (same rng stream, same results).
  graph::Graph g = gs::testing::SmallRmat();
  SamplerOptions opts;
  opts.super_batch = 1;

  algorithms::AlgorithmProgram ap1 = algorithms::GraphSage(g, {.fanouts = {3}});
  CompiledSampler epoch_sampler(std::move(ap1.program), g, std::move(ap1.tensors), opts);
  std::vector<std::map<std::pair<int32_t, int32_t>, float>> from_epoch;
  epoch_sampler.SampleEpoch(Iota(24), 8, [&](int64_t, std::vector<Value>& out) {
    from_epoch.push_back(gs::testing::EdgeSet(out[0].matrix));
  });

  algorithms::AlgorithmProgram ap2 = algorithms::GraphSage(g, {.fanouts = {3}});
  CompiledSampler batch_sampler(std::move(ap2.program), g, std::move(ap2.tensors), opts);
  for (int b = 0; b < 3; ++b) {
    std::vector<Value> out = batch_sampler.Sample(Iota(8, b * 8));
    EXPECT_EQ(gs::testing::EdgeSet(out[0].matrix), from_epoch[static_cast<size_t>(b)])
        << "batch " << b;
  }
}

TEST(Engine, SuperBatchStatisticallyMatchesPerBatch) {
  // Super-batched GraphSAGE must sample the same expected number of edges
  // per mini-batch as sequential sampling (independence across segments).
  graph::Graph g = gs::testing::SmallRmat(300, 6000, 3, true);
  auto mean_edges = [&](int super_batch) {
    algorithms::AlgorithmProgram ap = algorithms::GraphSage(g, {.fanouts = {5}});
    SamplerOptions opts;
    opts.super_batch = super_batch;
    opts.seed = 99 + static_cast<uint64_t>(super_batch);
    CompiledSampler sampler(std::move(ap.program), g, std::move(ap.tensors), opts);
    int64_t edges = 0;
    int64_t batches = 0;
    sampler.SampleEpoch(Iota(128), 16, [&](int64_t, std::vector<Value>& out) {
      edges += out[0].matrix.nnz();
      ++batches;
    });
    EXPECT_EQ(batches, 8);
    return static_cast<double>(edges) / static_cast<double>(batches);
  };
  const double sequential = mean_edges(1);
  const double batched = mean_edges(8);
  EXPECT_NEAR(batched, sequential, sequential * 0.05);
}

TEST(BatchProducer, EmptySeedSetYieldsNoBatches) {
  graph::Graph g = gs::testing::SmallRmat();
  algorithms::AlgorithmProgram ap = algorithms::GraphSage(g, {.fanouts = {3}});
  SamplerOptions opts;
  opts.super_batch = 4;
  CompiledSampler sampler(std::move(ap.program), g, std::move(ap.tensors), opts);
  BatchProducer producer(sampler, IdArray::Empty(0), 8);
  EXPECT_EQ(producer.num_batches(), 0);
  EpochBatch batch;
  EXPECT_FALSE(producer.Next(&batch));
  EXPECT_FALSE(producer.Next(&batch));  // stays exhausted
  int callbacks = 0;
  sampler.SampleEpoch(IdArray::Empty(0), 8,
                      [&](int64_t, std::vector<Value>&) { ++callbacks; });
  EXPECT_EQ(callbacks, 0);
}

TEST(BatchProducer, FinalPartialBatchMatchesSoloSampling) {
  // 27 seeds at batch size 8: three full batches plus a final partial batch
  // of 3. Grouped into a super-batch of 4, every batch — including the
  // partial one — must equal what solo per-batch sampling produces.
  graph::Graph g = gs::testing::SmallRmat(400, 4000, 55, true);
  SamplerOptions grouped_opts;
  grouped_opts.super_batch = 4;
  algorithms::AlgorithmProgram ap1 = algorithms::GraphSage(g, {.fanouts = {3, 2}});
  CompiledSampler grouped(std::move(ap1.program), g, std::move(ap1.tensors), grouped_opts);

  SamplerOptions solo_opts;
  solo_opts.super_batch = 1;
  algorithms::AlgorithmProgram ap2 = algorithms::GraphSage(g, {.fanouts = {3, 2}});
  CompiledSampler solo(std::move(ap2.program), g, std::move(ap2.tensors), solo_opts);

  const IdArray seeds = Iota(27);
  BatchProducer producer(grouped, seeds, 8);
  EXPECT_EQ(producer.num_batches(), 4);

  std::vector<EpochBatch> grouped_batches;
  EpochBatch batch;
  while (producer.Next(&batch)) {
    grouped_batches.push_back(std::move(batch));
    batch = EpochBatch{};
  }
  ASSERT_EQ(grouped_batches.size(), 4u);
  EXPECT_EQ(grouped_batches.back().seeds.size(), 3);

  size_t b = 0;
  solo.SampleEpoch(seeds, 8, [&](int64_t index, std::vector<Value>& out) {
    ASSERT_LT(b, grouped_batches.size());
    EXPECT_EQ(grouped_batches[b].index, index);
    ASSERT_EQ(grouped_batches[b].outputs.size(), out.size());
    for (size_t o = 0; o < out.size(); ++o) {
      const Value& got = grouped_batches[b].outputs[o];
      const Value& want = out[o];
      ASSERT_EQ(got.kind, want.kind);
      if (want.kind == ValueKind::kMatrix) {
        EXPECT_EQ(gs::testing::EdgeSet(got.matrix), gs::testing::EdgeSet(want.matrix));
      } else if (want.kind == ValueKind::kIds) {
        ASSERT_EQ(got.ids.size(), want.ids.size());
        for (int64_t i = 0; i < want.ids.size(); ++i) {
          EXPECT_EQ(got.ids[i], want.ids[i]);
        }
      }
    }
    ++b;
  });
  EXPECT_EQ(b, 4u);
}

algorithms::AlgorithmProgram NodeOrLayerWise(const std::string& name, const graph::Graph& g) {
  return name == "GraphSAGE" ? algorithms::GraphSage(g, {.fanouts = {3, 2}})
                             : algorithms::Ladies(g, {.num_layers = 2, .layer_width = 12});
}

class GroupedVsSolo : public ::testing::TestWithParam<std::string> {};

TEST_P(GroupedVsSolo, EveryGroupedBatchHasTheSoloShape) {
  // 44 seeds at batch size 8 in super-batches of 4: one full group, then a
  // final partial group of two batches whose last batch is partial (4
  // seeds). Each grouped batch must equal solo sampling in edges and shape:
  // the full labeled space splits to solo's n rows, the compacted space to
  // solo's compacted rows.
  graph::Graph g = gs::testing::SmallRmat(400, 4000, 55, true);
  SamplerOptions grouped_opts;
  grouped_opts.super_batch = 4;
  algorithms::AlgorithmProgram ap1 = NodeOrLayerWise(GetParam(), g);
  CompiledSampler grouped(std::move(ap1.program), g, std::move(ap1.tensors), grouped_opts);
  SamplerOptions solo_opts;
  solo_opts.super_batch = 1;
  algorithms::AlgorithmProgram ap2 = NodeOrLayerWise(GetParam(), g);
  CompiledSampler solo(std::move(ap2.program), g, std::move(ap2.tensors), solo_opts);

  std::vector<std::vector<Value>> grouped_batches;
  grouped.SampleEpoch(Iota(44), 8, [&](int64_t index, std::vector<Value>& out) {
    EXPECT_EQ(index, static_cast<int64_t>(grouped_batches.size()));
    grouped_batches.push_back(out);
  });
  ASSERT_EQ(grouped_batches.size(), 6u);

  size_t b = 0;
  int matrices = 0;
  solo.SampleEpoch(Iota(44), 8, [&](int64_t, std::vector<Value>& want) {
    ASSERT_LT(b, grouped_batches.size());
    const std::vector<Value>& got = grouped_batches[b++];
    ASSERT_EQ(got.size(), want.size());
    for (size_t o = 0; o < want.size(); ++o) {
      ASSERT_EQ(got[o].kind, want[o].kind);
      if (want[o].kind == ValueKind::kIds) {
        EXPECT_EQ(got[o].ids.ToVector(), want[o].ids.ToVector());
        continue;
      }
      ASSERT_EQ(want[o].kind, ValueKind::kMatrix);
      const sparse::Matrix& m = got[o].matrix;
      const sparse::Matrix& ref = want[o].matrix;
      EXPECT_EQ(gs::testing::EdgeSet(m), gs::testing::EdgeSet(ref));
      EXPECT_EQ(m.num_rows(), ref.num_rows());
      EXPECT_EQ(m.num_cols(), ref.num_cols());
      EXPECT_EQ(m.has_row_ids(), ref.has_row_ids());
      EXPECT_EQ(m.has_col_ids(), ref.has_col_ids());
      if (m.has_row_ids() && ref.has_row_ids()) {
        EXPECT_EQ(m.row_ids().ToVector(), ref.row_ids().ToVector());
      }
      ++matrices;
    }
  });
  EXPECT_EQ(b, 6u);
  EXPECT_EQ(matrices, 6 * 2);
}

// Super-batching must pay in launches: a super-batch launches fewer kernels
// per batch than solo sampling, because its results leave through one split
// per output.
TEST_P(GroupedVsSolo, SuperBatchLaunchesFewerKernelsPerBatch) {
  graph::Graph g = gs::testing::SmallRmat(400, 4000, 55, true);
  auto kernels_per_batch = [&](int super_batch) {
    algorithms::AlgorithmProgram ap = NodeOrLayerWise(GetParam(), g);
    SamplerOptions opts;
    opts.super_batch = super_batch;
    CompiledSampler sampler(std::move(ap.program), g, std::move(ap.tensors), opts);
    sampler.SampleEpoch(Iota(128), 8);  // calibration and lazy formats
    device::Stream& stream = device::Current().stream();
    const int64_t before = stream.counters().kernels_launched;
    sampler.SampleEpoch(Iota(128), 8);
    return static_cast<double>(stream.counters().kernels_launched - before) / 16.0;
  };
  const double solo = kernels_per_batch(1);
  const double grouped = kernels_per_batch(8);
  EXPECT_LT(grouped, solo) << "super_batch 8: " << grouped << " kernels/batch, solo: " << solo;
}

TEST_P(GroupedVsSolo, SplitLaunchesOneKernelPerMatrixOutput) {
  graph::Graph g = gs::testing::SmallRmat(400, 4000, 55, true);
  algorithms::AlgorithmProgram ap = NodeOrLayerWise(GetParam(), g);
  SamplerOptions opts;
  opts.super_batch = 1;
  CompiledSampler sampler(std::move(ap.program), g, std::move(ap.tensors), opts);
  sampler.Warmup(Iota(8));
  device::Stream& stream = device::Current().stream();
  for (int segments : {1, 3, 8}) {
    std::vector<IdArray> group;
    std::vector<uint64_t> seeds;
    for (int b = 0; b < segments; ++b) {
      group.push_back(Iota(8, 8 * b));
      seeds.push_back(static_cast<uint64_t>(b));
    }
    int64_t before = stream.counters().kernels_launched;
    sampler.SampleGrouped(group, seeds, nullptr);
    const int64_t run_only = stream.counters().kernels_launched - before;
    int matrix_outputs = 0;
    before = stream.counters().kernels_launched;
    sampler.SampleGrouped(group, seeds, [&](int64_t index, std::vector<Value>& out) {
      if (index == 0) {
        for (const Value& v : out) {
          matrix_outputs += v.kind == ValueKind::kMatrix ? 1 : 0;
        }
      }
    });
    const int64_t with_split = stream.counters().kernels_launched - before;
    EXPECT_EQ(matrix_outputs, 2);
    EXPECT_EQ(with_split - run_only, matrix_outputs) << segments << " segments";
  }
}

INSTANTIATE_TEST_SUITE_P(NodeAndLayerWise, GroupedVsSolo,
                         ::testing::Values("GraphSAGE", "LADIES"));

TEST(BatchProducer, SeedSetSmallerThanBatchSize) {
  graph::Graph g = gs::testing::SmallRmat();
  algorithms::AlgorithmProgram ap = algorithms::GraphSage(g, {.fanouts = {3}});
  SamplerOptions opts;
  opts.super_batch = 4;
  CompiledSampler sampler(std::move(ap.program), g, std::move(ap.tensors), opts);
  BatchProducer producer(sampler, Iota(3), 64);
  EXPECT_EQ(producer.num_batches(), 1);
  EpochBatch batch;
  ASSERT_TRUE(producer.Next(&batch));
  EXPECT_EQ(batch.seeds.size(), 3);
  EXPECT_FALSE(batch.outputs.empty());
  EXPECT_FALSE(producer.Next(&batch));
}

TEST(Engine, MissingTensorBindingThrows) {
  graph::Graph g = gs::testing::SmallRmat();
  Builder b;
  MVal a = b.Graph();
  IVal f = b.Frontier();
  TVal w = b.Input("missing");
  b.Output(a.Cols(f).Mul(w, 0));
  Program p = std::move(b).Build();
  SamplerOptions opts;
  opts.enable_preprocessing = false;
  opts.enable_layout_selection = false;
  CompiledSampler sampler(std::move(p), g, {}, opts);
  EXPECT_THROW(sampler.Sample(Iota(4)), Error);
}

TEST(Engine, EmptyFrontierProducesEmptySample) {
  graph::Graph g = gs::testing::SmallRmat();
  algorithms::AlgorithmProgram ap = algorithms::GraphSage(g, {.fanouts = {3}});
  SamplerOptions opts;
  CompiledSampler sampler(std::move(ap.program), g, std::move(ap.tensors), opts);
  std::vector<Value> out = sampler.Sample(IdArray::FromVector(std::vector<int32_t>{}));
  EXPECT_EQ(out[0].matrix.num_cols(), 0);
  EXPECT_EQ(out[0].matrix.nnz(), 0);
}

TEST(Engine, UvaGraphChargesPcie) {
  graph::RMatParams params;
  params.num_nodes = 300;
  params.num_edges = 3000;
  params.uva = true;
  params.seed = 3;
  graph::Graph g = graph::MakeRMatGraph(params);
  ASSERT_TRUE(g.uva());
  algorithms::AlgorithmProgram ap = algorithms::GraphSage(g, {.fanouts = {3, 2}});
  SamplerOptions opts;
  CompiledSampler sampler(std::move(ap.program), g, std::move(ap.tensors), opts);
  const int64_t before = device::Current().stream().counters().pcie_bytes;
  sampler.Sample(Iota(16));
  EXPECT_GT(device::Current().stream().counters().pcie_bytes, before);
}

}  // namespace
}  // namespace gs::core
