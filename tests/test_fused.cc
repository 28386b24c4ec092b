// Tests for the fused edge-map / edge-map-reduce kernels: every stage kind
// and operator matches its unfused kernel bit for bit in every row space,
// chains compose, and reductions never materialize intermediates yet agree
// with the two-kernel result. The golden section at the bottom pins exact
// outputs for all three fused ops on the toy graph, so a regression trips a
// hard-coded expectation rather than only the self-consistency checks.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <string>
#include <tuple>

#include "common/error.h"
#include "sparse/batch.h"
#include "sparse/fused.h"
#include "sparse/kernels.h"
#include "tensor/ops.h"
#include "tests/testing.h"

namespace gs::sparse {
namespace {

using gs::testing::EdgeSet;
using tensor::Tensor;

EdgeMapStage ScalarStage(BinaryOp op, float s) {
  EdgeMapStage stage;
  stage.op = op;
  stage.kind = EdgeMapStage::OperandKind::kScalar;
  stage.scalar = s;
  return stage;
}

TEST(FusedEdgeMap, ScalarStageMatchesEltwise) {
  graph::Graph g = gs::testing::ToyGraph();
  std::vector<EdgeMapStage> stages = {ScalarStage(BinaryOp::kPow, 2.0f)};
  Matrix fused = FusedEdgeMap(g.adj(), stages, {});
  Matrix reference = EltwiseScalar(g.adj(), BinaryOp::kPow, 2.0f);
  EXPECT_EQ(EdgeSet(fused), EdgeSet(reference));
}

TEST(FusedEdgeMap, RowAndColVectorStages) {
  graph::Graph g = gs::testing::ToyGraph();
  const Matrix& m = g.adj();
  Rng rng(3);
  Tensor row_vec = Tensor::Randn({m.num_rows()}, rng);
  Tensor col_vec = Tensor::Randn({m.num_cols()}, rng);
  for (auto& v : row_vec.span()) {
    v = std::abs(v) + 0.1f;
  }
  for (auto& v : col_vec.span()) {
    v = std::abs(v) + 0.1f;
  }

  EdgeMapStage by_row;
  by_row.op = BinaryOp::kMul;
  by_row.kind = EdgeMapStage::OperandKind::kRowVector;
  by_row.operand = 0;
  EdgeMapStage by_col;
  by_col.op = BinaryOp::kDiv;
  by_col.kind = EdgeMapStage::OperandKind::kColVector;
  by_col.operand = 1;
  std::vector<EdgeMapStage> stages = {by_row, by_col};
  std::vector<Tensor> operands = {row_vec, col_vec};
  Matrix fused = FusedEdgeMap(m, stages, operands);

  Matrix reference =
      Broadcast(Broadcast(m, BinaryOp::kMul, row_vec.array(), 0), BinaryOp::kDiv,
                col_vec.array(), 1);
  const auto ref = EdgeSet(reference);
  for (const auto& [edge, w] : EdgeSet(fused)) {
    EXPECT_NEAR(w, ref.at(edge), 1e-5);
  }
}

TEST(FusedEdgeMap, DotStageMatchesSddmm) {
  graph::Graph g = gs::testing::ToyGraph();
  const Matrix& m = g.adj();
  Rng rng(5);
  Tensor u = Tensor::Randn({m.num_rows(), 4}, rng);
  Tensor v = Tensor::Randn({m.num_cols(), 4}, rng);

  EdgeMapStage dot;
  dot.op = BinaryOp::kMul;
  dot.kind = EdgeMapStage::OperandKind::kDot;
  dot.operand = 0;
  dot.operand2 = 1;
  std::vector<EdgeMapStage> stages = {dot};
  std::vector<Tensor> operands = {u, v};
  Matrix fused = FusedEdgeMap(m, stages, operands);
  Matrix reference = Sddmm(m, u, v, /*mul_existing=*/true);
  const auto ref = EdgeSet(reference);
  for (const auto& [edge, w] : EdgeSet(fused)) {
    EXPECT_NEAR(w, ref.at(edge), 1e-4);
  }
}

TEST(FusedEdgeMap, EdgeTensorStage) {
  graph::Graph g = gs::testing::ToyGraph();
  const Matrix& m = g.adj();
  Tensor edge_vals = Tensor::Full({m.nnz()}, 3.0f);
  EdgeMapStage stage;
  stage.op = BinaryOp::kAdd;
  stage.kind = EdgeMapStage::OperandKind::kEdgeTensor;
  stage.operand = 0;
  std::vector<EdgeMapStage> stages = {stage};
  std::vector<Tensor> operands = {edge_vals};
  Matrix fused = FusedEdgeMap(m, stages, operands);
  const auto base = EdgeSet(m);
  for (const auto& [edge, w] : EdgeSet(fused)) {
    EXPECT_NEAR(w, base.at(edge) + 3.0f, 1e-5);
  }
}

// The row spaces a fused operator meets in compiled plans: a column slice
// of the base graph (row operands index rows directly), the same slice
// after row compaction (per-node operands are global, read through
// row_ids), and a two-segment super-batch slice whose labeled rows
// (segment * n + node) fold onto per-node operands with a modulo.
enum class RowSpace { kLocal, kRowIds, kLabeled };

Matrix RowSpaceMatrix(const graph::Graph& g, RowSpace space) {
  const tensor::IdArray cols = tensor::IdArray::FromVector({1, 5, 9, 13});
  switch (space) {
    case RowSpace::kLocal:
      return SliceColumns(g.adj(), cols);
    case RowSpace::kRowIds:
      return CompactRows(SliceColumns(g.adj(), cols));
    case RowSpace::kLabeled: {
      const auto n = static_cast<int32_t>(g.num_nodes());
      return SegmentedSliceColumns(g.adj(), tensor::IdArray::FromVector({1, 5, n + 9, n + 13}),
                                   2);
    }
  }
  return {};
}

// Operand slots used by Stage(): per-node row vector, column vector, dense
// (nodes x cols), edge tensor, and the SDDMM factors u (per node) and v
// (per column). Values lie in [0.5, 1.5), so pow, div and the reductions
// stay finite.
enum Slot { kRowSlot, kColSlot, kDenseSlot, kEdgeSlot, kUSlot, kVSlot };

std::vector<Tensor> StageOperands(const graph::Graph& g, const Matrix& m) {
  Rng rng(11);
  auto positive = [&](std::vector<int64_t> shape) {
    Tensor t = Tensor::Empty(std::move(shape));
    for (float& v : t.span()) {
      v = 0.5f + rng.UniformF();
    }
    return t;
  };
  const int64_t n = g.num_nodes();
  return {positive({n}),          positive({m.num_cols()}), positive({n, m.num_cols()}),
          positive({m.nnz()}),    positive({n, 3}),         positive({m.num_cols(), 3})};
}

EdgeMapStage Stage(BinaryOp op, EdgeMapStage::OperandKind kind, float scalar = 2.0f) {
  using Kind = EdgeMapStage::OperandKind;
  EdgeMapStage stage;
  stage.op = op;
  stage.kind = kind;
  stage.scalar = scalar;
  switch (kind) {
    case Kind::kScalar:
      break;
    case Kind::kRowVector:
      stage.operand = kRowSlot;
      break;
    case Kind::kColVector:
      stage.operand = kColSlot;
      break;
    case Kind::kDense:
      stage.operand = kDenseSlot;
      break;
    case Kind::kEdgeTensor:
      stage.operand = kEdgeSlot;
      break;
    case Kind::kDot:
      stage.operand = kUSlot;
      stage.operand2 = kVSlot;
      break;
  }
  return stage;
}

// One stage as the unfused kernel the fusion pass replaces.
Matrix UnfusedStage(const Matrix& m, const EdgeMapStage& stage,
                    const std::vector<Tensor>& operands) {
  using Kind = EdgeMapStage::OperandKind;
  switch (stage.kind) {
    case Kind::kScalar:
      return EltwiseScalar(m, stage.op, stage.scalar);
    case Kind::kRowVector:
      return Broadcast(m, stage.op, operands[kRowSlot].array(), 0);
    case Kind::kColVector:
      return Broadcast(m, stage.op, operands[kColSlot].array(), 1);
    case Kind::kDense:
      return DenseEltwise(m, stage.op, operands[kDenseSlot]);
    case Kind::kEdgeTensor:
      return EltwiseBinary(m, stage.op, m.WithValues(Format::kCsc, operands[kEdgeSlot].array()));
    case Kind::kDot:
      return EltwiseBinary(m, stage.op,
                           Sddmm(m, operands[kUSlot], operands[kVSlot], /*mul_existing=*/false));
  }
  return m;
}

void ExpectBitIdentical(const ValueArray& got, const ValueArray& want, const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (int64_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(std::bit_cast<uint32_t>(got[i]), std::bit_cast<uint32_t>(want[i]))
        << what << ": element " << i << " is " << got[i] << ", unfused gives " << want[i];
  }
}

class ReduceAxis : public ::testing::TestWithParam<std::tuple<int, RowSpace>> {};

TEST_P(ReduceAxis, FusedReduceMatchesMapThenSum) {
  const auto [axis, space] = GetParam();
  graph::Graph g = gs::testing::SmallRmat();
  Matrix sub = RowSpaceMatrix(g, space);

  std::vector<EdgeMapStage> stages = {ScalarStage(BinaryOp::kPow, 2.0f),
                                      ScalarStage(BinaryOp::kMul, 0.5f)};
  ValueArray fused = FusedEdgeMapReduce(sub, stages, {}, axis);

  Matrix mapped = EltwiseScalar(EltwiseScalar(sub, BinaryOp::kPow, 2.0f), BinaryOp::kMul, 0.5f);
  ValueArray reference = SumAxis(mapped, axis);
  ASSERT_EQ(fused.size(), reference.size());
  for (int64_t i = 0; i < fused.size(); ++i) {
    EXPECT_NEAR(fused[i], reference[i], 1e-3);
  }
}

// Every (operator, operand kind) pair alone, kPow with both a squaring and
// a non-2 exponent, and one chain through all six kinds: the fused map and
// map-reduce must equal the unfused kernel chain (then SumAxis, which
// accumulates in the same CSC order) bit for bit.
TEST_P(ReduceAxis, EveryStageKindAndOperatorMatchesUnfusedChainBitForBit) {
  using Kind = EdgeMapStage::OperandKind;
  const auto [axis, space] = GetParam();
  graph::Graph g = gs::testing::SmallRmat();
  const Matrix m = RowSpaceMatrix(g, space);
  ASSERT_GT(m.nnz(), 0);
  ASSERT_FALSE(m.HasFormat(Format::kCsr)) << "SumAxis would accumulate in CSR order";
  const std::vector<Tensor> operands = StageOperands(g, m);

  const BinaryOp ops[] = {BinaryOp::kAdd, BinaryOp::kSub, BinaryOp::kMul, BinaryOp::kDiv,
                          BinaryOp::kPow};
  const Kind kinds[] = {Kind::kScalar, Kind::kRowVector,  Kind::kColVector,
                        Kind::kDense,  Kind::kEdgeTensor, Kind::kDot};
  std::vector<std::vector<EdgeMapStage>> chains;
  for (BinaryOp op : ops) {
    for (Kind kind : kinds) {
      chains.push_back({Stage(op, kind)});
    }
    chains.push_back({Stage(op, Kind::kScalar, 0.75f)});
  }
  chains.push_back({Stage(BinaryOp::kMul, Kind::kRowVector), Stage(BinaryOp::kAdd, Kind::kScalar),
                    Stage(BinaryOp::kDiv, Kind::kColVector), Stage(BinaryOp::kPow, Kind::kDense),
                    Stage(BinaryOp::kMul, Kind::kEdgeTensor),
                    Stage(BinaryOp::kSub, Kind::kDot)});

  for (const std::vector<EdgeMapStage>& chain : chains) {
    std::string what = "chain";
    Matrix want = m;
    for (const EdgeMapStage& stage : chain) {
      what += std::string(" ") + BinaryOpName(stage.op) + "/" +
              std::to_string(static_cast<int>(stage.kind)) + "/" + std::to_string(stage.scalar);
      want = UnfusedStage(want, stage, operands);
    }
    ExpectBitIdentical(FusedEdgeMap(m, chain, operands).Csc().values, want.Csc().values,
                       "map " + what);
    ExpectBitIdentical(FusedEdgeMapReduce(m, chain, operands, axis), SumAxis(want, axis),
                       "reduce " + what);
  }
}

std::string ReduceAxisName(const ::testing::TestParamInfo<ReduceAxis::ParamType>& info) {
  const char* spaces[] = {"Local", "RowIds", "Labeled"};
  return "Axis" + std::to_string(std::get<0>(info.param)) +
         spaces[static_cast<int>(std::get<1>(info.param))];
}

INSTANTIATE_TEST_SUITE_P(AxesAndRowSpaces, ReduceAxis,
                         ::testing::Combine(::testing::Values(0, 1),
                                            ::testing::Values(RowSpace::kLocal,
                                                              RowSpace::kRowIds,
                                                              RowSpace::kLabeled)),
                         ReduceAxisName);

TEST(FusedEdgeMap, GlobalRowOperandThroughRowIds) {
  graph::Graph g = gs::testing::SmallRmat();
  tensor::IdArray cols = tensor::IdArray::FromVector({2, 3});
  Matrix sub = CompactRows(SliceColumns(g.adj(), cols));
  Tensor global = Tensor::Empty({g.num_nodes()});
  for (int64_t i = 0; i < global.numel(); ++i) {
    global.at(i) = static_cast<float>(i);
  }
  EdgeMapStage stage;
  stage.op = BinaryOp::kMul;
  stage.kind = EdgeMapStage::OperandKind::kRowVector;
  stage.operand = 0;
  std::vector<EdgeMapStage> stages = {stage};
  std::vector<Tensor> operands = {global};
  Matrix fused = FusedEdgeMap(sub, stages, operands);
  const auto base = EdgeSet(sub);
  for (const auto& [edge, w] : EdgeSet(fused)) {
    EXPECT_NEAR(w, base.at(edge) * static_cast<float>(edge.first), 1e-4);
  }
}

TEST(FusedEdgeMap, BadOperandIndexThrows) {
  graph::Graph g = gs::testing::ToyGraph();
  EdgeMapStage stage;
  stage.op = BinaryOp::kMul;
  stage.kind = EdgeMapStage::OperandKind::kRowVector;
  stage.operand = 2;  // no such operand
  std::vector<EdgeMapStage> stages = {stage};
  EXPECT_THROW(FusedEdgeMap(g.adj(), stages, {}), Error);
}

TEST(FusedEdgeMapReduce, WrongOperandLengthThrows) {
  graph::Graph g = gs::testing::ToyGraph();
  EdgeMapStage stage;
  stage.op = BinaryOp::kMul;
  stage.kind = EdgeMapStage::OperandKind::kColVector;
  stage.operand = 0;
  std::vector<EdgeMapStage> stages = {stage};
  std::vector<Tensor> operands = {Tensor::Full({3}, 1.0f)};  // num_cols is 7
  EXPECT_THROW(FusedEdgeMapReduce(g.adj(), stages, operands, 0), Error);
}

// ----------------------------------------------------------------- goldens
//
// Fixed inputs, hard-coded outputs: the toy graph, the scalar pipeline
// [pow 2, mul 0.5], fanout 2, Rng(123).

std::vector<EdgeMapStage> GoldenStages() {
  return {ScalarStage(BinaryOp::kPow, 2.0f), ScalarStage(BinaryOp::kMul, 0.5f)};
}

TEST(FusedGoldens, EdgeMapScalarPipeline) {
  graph::Graph g = gs::testing::ToyGraph();
  // 0.5 * w^2 per edge, CSC order (columns 0..6, in-edge weights as listed
  // in ToyGraph).
  const std::vector<float> golden = {0.125f,        0.320000023f, 0.0450000018f,
                                     0.0200000014f, 0.180000007f, 0.24499999f,
                                     0.0800000057f, 0.125f,       0.0450000018f,
                                     0.404999971f,  0.180000007f, 0.24499999f};
  Matrix interp = FusedEdgeMap(g.adj(), GoldenStages(), {});
  ASSERT_EQ(interp.nnz(), static_cast<int64_t>(golden.size()));
  for (size_t i = 0; i < golden.size(); ++i) {
    EXPECT_EQ(interp.Csc().values[static_cast<int64_t>(i)], golden[i]) << "edge " << i;
  }
}

TEST(FusedGoldens, EdgeMapReduceRowSums) {
  graph::Graph g = gs::testing::ToyGraph();
  // Row sums of 0.5 * w^2 (axis 0).
  const std::vector<float> golden = {0.324999988f, 0.25f,         0.340000033f,
                                     0.180000007f, 0.225000009f, 0.289999992f,
                                     0.404999971f};
  ValueArray interp = FusedEdgeMapReduce(g.adj(), GoldenStages(), {}, /*axis=*/0);
  ASSERT_EQ(interp.size(), static_cast<int64_t>(golden.size()));
  for (size_t i = 0; i < golden.size(); ++i) {
    EXPECT_EQ(interp[static_cast<int64_t>(i)], golden[i]) << "row " << i;
  }
}

TEST(FusedGoldens, SliceSampleFixedDraws) {
  graph::Graph g = gs::testing::ToyGraph();
  const tensor::IdArray cols = tensor::IdArray::FromVector({0, 1, 4});
  const int64_t k = 2;
  // (row, col, weight) triples of the sampled subgraph with Rng(123), in
  // CSC order.
  const std::vector<std::tuple<int32_t, int32_t, float>> golden = {
      {1, 0, 0.5f},          {2, 1, 0.200000003f}, {4, 0, 0.300000012f},
      {5, 1, 0.699999988f},  {5, 4, 0.300000012f}, {6, 4, 0.899999976f}};

  Rng rng(123);
  const auto edges = gs::testing::EdgeSet(FusedSliceSample(g.adj(), cols, k, rng));
  ASSERT_EQ(edges.size(), golden.size());
  for (const auto& [row, col, w] : golden) {
    auto it = edges.find({row, col});
    ASSERT_NE(it, edges.end()) << "edge (" << row << "," << col << ") missing";
    EXPECT_EQ(it->second, w);
  }
}

}  // namespace
}  // namespace gs::sparse
