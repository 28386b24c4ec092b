// Tests for the deterministic sparse kernels: slicing, reductions,
// broadcasts, elementwise, SpMM/SDDMM, finalize ops — each validated against
// brute-force references and across all three input formats.

#include <gtest/gtest.h>

#include <map>

#include "common/error.h"
#include "sparse/kernels.h"
#include "tests/testing.h"

namespace gs::sparse {
namespace {

using gs::testing::EdgeSet;
using tensor::IdArray;

// Rebuilds m with only the requested format materialized.
Matrix OnlyFormat(const Matrix& m, Format f) {
  switch (f) {
    case Format::kCsc:
      return Matrix::FromCsc(m.num_rows(), m.num_cols(), m.Csc());
    case Format::kCsr:
      return Matrix::FromCsr(m.num_rows(), m.num_cols(), m.Csr());
    case Format::kCoo:
      return Matrix::FromCoo(m.num_rows(), m.num_cols(), m.GetCoo());
  }
  return m;
}

class PerFormat : public ::testing::TestWithParam<Format> {};

TEST_P(PerFormat, SliceColumnsMatchesReference) {
  graph::Graph g = gs::testing::SmallRmat();
  Matrix m = OnlyFormat(g.adj(), GetParam());
  IdArray cols = IdArray::FromVector({3, 17, 42, 3 + 64});
  Matrix sub = SliceColumns(m, cols);
  EXPECT_EQ(sub.num_rows(), m.num_rows());
  EXPECT_EQ(sub.num_cols(), 4);

  // Reference: filter the full edge set by destination.
  std::map<std::pair<int32_t, int32_t>, float> expected;
  for (const auto& [edge, w] : EdgeSet(g.adj())) {
    for (int64_t i = 0; i < cols.size(); ++i) {
      if (edge.second == cols[i]) {
        expected[edge] = w;
      }
    }
  }
  EXPECT_EQ(EdgeSet(sub), expected);
}

TEST_P(PerFormat, SumAxisMatchesBruteForce) {
  graph::Graph g = gs::testing::SmallRmat();
  Matrix m = OnlyFormat(g.adj(), GetParam());
  ValueArray by_row = SumAxis(m, 0);
  ValueArray by_col = SumAxis(m, 1);
  std::vector<double> ref_row(static_cast<size_t>(m.num_rows()), 0.0);
  std::vector<double> ref_col(static_cast<size_t>(m.num_cols()), 0.0);
  for (const auto& [edge, w] : EdgeSet(g.adj())) {
    ref_row[static_cast<size_t>(edge.first)] += w;
    ref_col[static_cast<size_t>(edge.second)] += w;
  }
  for (int64_t i = 0; i < m.num_rows(); ++i) {
    EXPECT_NEAR(by_row[i], ref_row[static_cast<size_t>(i)], 1e-3);
  }
  for (int64_t i = 0; i < m.num_cols(); ++i) {
    EXPECT_NEAR(by_col[i], ref_col[static_cast<size_t>(i)], 1e-3);
  }
}

TEST_P(PerFormat, CollectiveSampleFiltersSelectedRows) {
  graph::Graph g = gs::testing::SmallRmat();
  Matrix m = OnlyFormat(g.adj(), GetParam());
  ValueArray probs = SumAxis(m, 0);
  Rng rng(71);
  Matrix sample = CollectiveSample(m, 40, probs, rng);
  EXPECT_EQ(sample.num_rows(), 40);
  EXPECT_TRUE(sample.rows_compact());
  // Every edge of a selected row to any column must be preserved.
  const auto full = EdgeSet(g.adj());
  const auto sampled = EdgeSet(sample);
  std::set<int32_t> selected;
  for (int64_t i = 0; i < sample.row_ids().size(); ++i) {
    selected.insert(sample.row_ids()[i]);
  }
  EXPECT_EQ(selected.size(), 40u);
  int64_t expected_edges = 0;
  for (const auto& [edge, w] : full) {
    if (selected.count(edge.first) != 0) {
      ++expected_edges;
      auto it = sampled.find(edge);
      ASSERT_NE(it, sampled.end());
      EXPECT_FLOAT_EQ(it->second, w);
    }
  }
  EXPECT_EQ(static_cast<int64_t>(sampled.size()), expected_edges);
}

INSTANTIATE_TEST_SUITE_P(Formats, PerFormat,
                         ::testing::Values(Format::kCsc, Format::kCoo, Format::kCsr));

TEST(SliceRows, MatchesReference) {
  graph::Graph g = gs::testing::SmallRmat();
  IdArray rows = IdArray::FromVector({5, 9, 100});
  Matrix sub = SliceRows(g.adj(), rows);
  EXPECT_EQ(sub.num_rows(), 3);
  EXPECT_TRUE(sub.rows_compact());
  std::map<std::pair<int32_t, int32_t>, float> expected;
  for (const auto& [edge, w] : EdgeSet(g.adj())) {
    for (int64_t i = 0; i < rows.size(); ++i) {
      if (edge.first == rows[i]) {
        expected[edge] = w;
      }
    }
  }
  EXPECT_EQ(EdgeSet(sub), expected);
}

TEST(SliceColumns, UnknownColumnThrows) {
  graph::Graph g = gs::testing::SmallRmat();
  IdArray cols = IdArray::FromVector({static_cast<int32_t>(g.num_nodes())});
  EXPECT_THROW(SliceColumns(g.adj(), cols), Error);
}

TEST(SliceColumns, OnSubMatrixResolvesGlobalIds) {
  graph::Graph g = gs::testing::SmallRmat();
  IdArray cols = IdArray::FromVector({10, 20, 30});
  Matrix sub = SliceColumns(g.adj(), cols);
  IdArray narrower = IdArray::FromVector({20});
  Matrix sub2 = SliceColumns(sub, narrower);
  EXPECT_EQ(sub2.num_cols(), 1);
  for (const auto& [edge, w] : EdgeSet(sub2)) {
    EXPECT_EQ(edge.second, 20);
    (void)w;
  }
}

TEST(Broadcast, RowAndColAxes) {
  graph::Graph g = gs::testing::ToyGraph();
  const Matrix& m = g.adj();
  ValueArray row_vec = ValueArray::Empty(m.num_rows());
  for (int64_t i = 0; i < m.num_rows(); ++i) {
    row_vec[i] = static_cast<float>(i + 1);
  }
  Matrix by_row = Broadcast(m, BinaryOp::kMul, row_vec, 0);
  for (const auto& [edge, w] : EdgeSet(by_row)) {
    const float base = EdgeSet(m).at(edge);
    EXPECT_FLOAT_EQ(w, base * static_cast<float>(edge.first + 1));
  }
  ValueArray col_vec = ValueArray::Full(m.num_cols(), 2.0f);
  Matrix by_col = Broadcast(m, BinaryOp::kAdd, col_vec, 1);
  for (const auto& [edge, w] : EdgeSet(by_col)) {
    EXPECT_FLOAT_EQ(w, EdgeSet(m).at(edge) + 2.0f);
  }
}

TEST(Broadcast, GlobalRowOperandThroughRowIds) {
  graph::Graph g = gs::testing::SmallRmat();
  // A compacted slice: rows no longer span the graph.
  IdArray cols = IdArray::FromVector({1, 2, 3, 4, 5});
  Matrix sub = CompactRows(SliceColumns(g.adj(), cols));
  ASSERT_LT(sub.num_rows(), g.num_nodes());
  ValueArray global = ValueArray::Empty(g.num_nodes());
  for (int64_t i = 0; i < global.size(); ++i) {
    global[i] = static_cast<float>(i);
  }
  Matrix scaled = Broadcast(sub, BinaryOp::kMul, global, 0);
  for (const auto& [edge, w] : EdgeSet(scaled)) {
    EXPECT_FLOAT_EQ(w, EdgeSet(sub).at(edge) * static_cast<float>(edge.first));
  }
}

TEST(Broadcast, WrongLengthThrows) {
  graph::Graph g = gs::testing::SmallRmat();
  ValueArray bad = ValueArray::Full(13, 1.0f);
  EXPECT_THROW(Broadcast(g.adj(), BinaryOp::kMul, bad, 0), Error);
}

TEST(EltwiseScalar, PowSquaresWeights) {
  graph::Graph g = gs::testing::ToyGraph();
  Matrix sq = EltwiseScalar(g.adj(), BinaryOp::kPow, 2.0f);
  for (const auto& [edge, w] : EdgeSet(sq)) {
    const float base = EdgeSet(g.adj()).at(edge);
    EXPECT_NEAR(w, base * base, 1e-5);
  }
}

TEST(EltwiseBinary, RequiresSharedPattern) {
  graph::Graph g = gs::testing::ToyGraph();
  Matrix sq = EltwiseScalar(g.adj(), BinaryOp::kPow, 2.0f);
  Matrix prod = EltwiseBinary(g.adj(), BinaryOp::kMul, sq);
  for (const auto& [edge, w] : EdgeSet(prod)) {
    const float base = EdgeSet(g.adj()).at(edge);
    EXPECT_NEAR(w, base * base * base, 1e-5);
  }
  graph::Graph other = gs::testing::SmallRmat();
  EXPECT_THROW(EltwiseBinary(g.adj(), BinaryOp::kMul, other.adj()), Error);
}

TEST(SpMM, MatchesDenseReference) {
  graph::Graph g = gs::testing::ToyGraph();
  const Matrix& m = g.adj();
  Rng rng(77);
  tensor::Tensor d = tensor::Tensor::Randn({m.num_cols(), 3}, rng);
  tensor::Tensor out = SpMM(m, d);
  ASSERT_EQ(out.rows(), m.num_rows());
  std::vector<float> ref(static_cast<size_t>(m.num_rows() * 3), 0.0f);
  for (const auto& [edge, w] : EdgeSet(m)) {
    for (int64_t j = 0; j < 3; ++j) {
      ref[static_cast<size_t>(edge.first * 3 + j)] += w * d.at(edge.second, j);
    }
  }
  for (int64_t i = 0; i < out.numel(); ++i) {
    EXPECT_NEAR(out.at(i), ref[static_cast<size_t>(i)], 1e-4);
  }
}

TEST(Sddmm, MatchesDotReference) {
  graph::Graph g = gs::testing::ToyGraph();
  const Matrix& m = g.adj();
  Rng rng(79);
  tensor::Tensor u = tensor::Tensor::Randn({m.num_rows(), 4}, rng);
  tensor::Tensor v = tensor::Tensor::Randn({m.num_cols(), 4}, rng);
  Matrix out = Sddmm(m, u, v, /*mul_existing=*/true);
  for (const auto& [edge, w] : EdgeSet(out)) {
    float dot = 0.0f;
    for (int64_t j = 0; j < 4; ++j) {
      dot += u.at(edge.first, j) * v.at(edge.second, j);
    }
    EXPECT_NEAR(w, EdgeSet(m).at(edge) * dot, 1e-4);
  }
  Matrix plain = Sddmm(m, u, v, /*mul_existing=*/false);
  for (const auto& [edge, w] : EdgeSet(plain)) {
    float dot = 0.0f;
    for (int64_t j = 0; j < 4; ++j) {
      dot += u.at(edge.first, j) * v.at(edge.second, j);
    }
    EXPECT_NEAR(w, dot, 1e-4);
  }
}

TEST(DenseEltwise, MatchesPointwise) {
  graph::Graph g = gs::testing::ToyGraph();
  const Matrix& m = g.adj();
  tensor::Tensor d = tensor::Tensor::Full({m.num_rows(), m.num_cols()}, 3.0f);
  Matrix out = DenseEltwise(m, BinaryOp::kMul, d);
  for (const auto& [edge, w] : EdgeSet(out)) {
    EXPECT_NEAR(w, EdgeSet(m).at(edge) * 3.0f, 1e-5);
  }
}

TEST(RowIds, UniqueNonEmptyRows) {
  graph::Graph g = gs::testing::ToyGraph();
  IdArray cols = IdArray::FromVector({0, 1});
  Matrix sub = SliceColumns(g.adj(), cols);
  IdArray rows = RowIds(sub);
  // in-neighbors of {a=0, b=1} = {1,2,4} u {2,3,5} = {1,2,3,4,5}
  ASSERT_EQ(rows.size(), 5);
  for (int64_t i = 0; i < 5; ++i) {
    EXPECT_EQ(rows[i], static_cast<int32_t>(i + 1));
  }
}

TEST(ColIds, ReturnsGlobals) {
  graph::Graph g = gs::testing::ToyGraph();
  IdArray cols = IdArray::FromVector({4, 0});
  Matrix sub = SliceColumns(g.adj(), cols);
  IdArray out = ColIds(sub);
  ASSERT_EQ(out.size(), 2);
  EXPECT_EQ(out[0], 4);
  EXPECT_EQ(out[1], 0);
}

TEST(CompactRows, DropsEmptyRowsKeepsEdges) {
  graph::Graph g = gs::testing::SmallRmat();
  IdArray cols = IdArray::FromVector({7, 8});
  Matrix sub = SliceColumns(g.adj(), cols);
  Matrix compact = CompactRows(sub);
  EXPECT_TRUE(compact.rows_compact());
  EXPECT_LT(compact.num_rows(), sub.num_rows());
  EXPECT_EQ(EdgeSet(compact), EdgeSet(sub));  // global ids identical
}

TEST(Unique, SortedUnionDropsNegatives) {
  IdArray a = IdArray::FromVector({5, 3, -1, 3});
  IdArray b = IdArray::FromVector({7, 5, -1});
  std::vector<IdArray> arrays = {a, b};
  IdArray u = Unique(arrays);
  ASSERT_EQ(u.size(), 3);
  EXPECT_EQ(u[0], 3);
  EXPECT_EQ(u[1], 5);
  EXPECT_EQ(u[2], 7);
}

TEST(GatherValues, GathersAndValidates) {
  ValueArray vec = ValueArray::FromVector({10.0f, 20.0f, 30.0f});
  IdArray ids = IdArray::FromVector({2, 0});
  ValueArray out = GatherValues(vec, ids);
  EXPECT_FLOAT_EQ(out[0], 30.0f);
  EXPECT_FLOAT_EQ(out[1], 10.0f);
  IdArray bad = IdArray::FromVector({3});
  EXPECT_THROW(GatherValues(vec, bad), Error);
}

}  // namespace
}  // namespace gs::sparse
