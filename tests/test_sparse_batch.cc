// Tests for the super-batch (segmented) kernels: labeled id spaces keep
// mini-batches independent, and splitting recovers per-batch results.

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "common/error.h"
#include "sparse/batch.h"
#include "sparse/kernels.h"
#include "tests/testing.h"

namespace gs::sparse {
namespace {

using gs::testing::EdgeSet;
using tensor::IdArray;

TEST(SegmentedSliceColumns, MatchesPerBatchSlices) {
  graph::Graph g = gs::testing::SmallRmat();
  const int64_t n = g.num_nodes();
  std::vector<int32_t> batch0 = {1, 2, 3};
  std::vector<int32_t> batch1 = {2, 5};

  std::vector<int32_t> labeled;
  for (int32_t v : batch0) {
    labeled.push_back(v);
  }
  for (int32_t v : batch1) {
    labeled.push_back(static_cast<int32_t>(n + v));
  }
  Matrix seg = SegmentedSliceColumns(g.adj(), IdArray::FromVector(labeled), 2);
  EXPECT_EQ(seg.num_rows(), 2 * n);
  EXPECT_EQ(seg.num_cols(), 5);

  // Segment 1's rows are all labeled into its own id space.
  const Compressed& csc = seg.Csc();
  for (int64_t e = csc.indptr[3]; e < csc.indptr[5]; ++e) {
    EXPECT_GE(csc.indices[e], n);
  }
  // Split back: each part equals the plain slice of its batch.
  std::vector<Matrix> parts = SplitSegments(seg, 2, n);
  ASSERT_EQ(parts.size(), 2u);
  EXPECT_EQ(EdgeSet(parts[0]), EdgeSet(SliceColumns(g.adj(), IdArray::FromVector(batch0))));
  EXPECT_EQ(EdgeSet(parts[1]), EdgeSet(SliceColumns(g.adj(), IdArray::FromVector(batch1))));
}

TEST(SegmentedSliceColumns, RejectsNonBaseMatrix) {
  graph::Graph g = gs::testing::SmallRmat();
  Matrix sub = SliceColumns(g.adj(), IdArray::FromVector({1, 2}));
  EXPECT_THROW(SegmentedSliceColumns(sub, IdArray::FromVector({1}), 1), Error);
}

TEST(SegmentedFusedSliceSample, FanoutPerLabeledColumn) {
  graph::Graph g = gs::testing::SmallRmat();
  const int64_t n = g.num_nodes();
  IdArray labeled = IdArray::FromVector(
      {1, 2, static_cast<int32_t>(n + 1), static_cast<int32_t>(n + 9)});
  Rng rng(157);
  Matrix sample = SegmentedFusedSliceSample(g.adj(), labeled, 2, 3, rng);
  EXPECT_EQ(sample.num_cols(), 4);
  const Compressed& csc = sample.Csc();
  const Compressed& base = g.adj().Csc();
  for (int64_t c = 0; c < 4; ++c) {
    const int32_t node = labeled[c] % static_cast<int32_t>(n);
    const int64_t deg = base.indptr[node + 1] - base.indptr[node];
    EXPECT_EQ(csc.indptr[c + 1] - csc.indptr[c], std::min<int64_t>(deg, 3));
    // Edges stay in the column's segment id space.
    const int64_t segment = labeled[c] / n;
    for (int64_t e = csc.indptr[c]; e < csc.indptr[c + 1]; ++e) {
      EXPECT_EQ(csc.indices[e] / n, segment);
    }
  }
}

TEST(SegmentedCollectiveSample, SamplesWithinEachSegment) {
  graph::Graph g = gs::testing::SmallRmat();
  const int64_t n = g.num_nodes();
  IdArray labeled = IdArray::FromVector({0, 1, 2, static_cast<int32_t>(n + 0),
                                         static_cast<int32_t>(n + 3)});
  Matrix seg = SegmentedSliceColumns(g.adj(), labeled, 2);
  ValueArray probs = SumAxis(seg, 0);
  Rng rng(163);
  Matrix sample = SegmentedCollectiveSample(seg, 4, probs, n, rng);
  EXPECT_TRUE(sample.rows_compact());
  // At most 4 rows per segment, each within its own id space.
  int64_t per_segment[2] = {0, 0};
  for (int64_t i = 0; i < sample.row_ids().size(); ++i) {
    const int64_t s = sample.row_ids()[i] / n;
    ASSERT_LT(s, 2);
    ++per_segment[s];
  }
  EXPECT_LE(per_segment[0], 4);
  EXPECT_LE(per_segment[1], 4);
  EXPECT_GT(per_segment[0], 0);
  EXPECT_GT(per_segment[1], 0);
}

// Per-segment edge sets of a segmented matrix, in original node ids: the
// columns labeled into segment b, with row and col labels taken mod n.
std::vector<std::map<std::pair<int32_t, int32_t>, float>> SegmentEdgeSets(const Matrix& m,
                                                                         int64_t segments,
                                                                         int64_t n) {
  std::vector<std::map<std::pair<int32_t, int32_t>, float>> out(static_cast<size_t>(segments));
  for (const auto& [edge, w] : EdgeSet(m)) {
    out[static_cast<size_t>(edge.second / n)][{static_cast<int32_t>(edge.first % n),
                                               static_cast<int32_t>(edge.second % n)}] = w;
  }
  return out;
}

// Three segments, the middle one empty (no columns, so no edges and, in
// the compacted space, no rows).
const std::vector<std::vector<int32_t>> kBatches = {{1, 2, 3, 40}, {}, {2, 5, 77}};

IdArray LabelBatches(int64_t n) {
  std::vector<int32_t> labeled;
  for (size_t b = 0; b < kBatches.size(); ++b) {
    for (int32_t v : kBatches[b]) {
      labeled.push_back(static_cast<int32_t>(static_cast<int64_t>(b) * n + v));
    }
  }
  return IdArray::FromVector(labeled);
}

class SplitSegmentsTest : public ::testing::TestWithParam<bool> {};

TEST_P(SplitSegmentsTest, FullLabeledSpaceMatchesSoloShape) {
  graph::Graph g = gs::testing::SmallRmat(300, 3000, 9, /*weighted=*/GetParam());
  const int64_t n = g.num_nodes();
  const int64_t segments = static_cast<int64_t>(kBatches.size());
  Matrix seg = SegmentedSliceColumns(g.adj(), LabelBatches(n), segments);
  ASSERT_FALSE(seg.has_row_ids());
  ASSERT_EQ(seg.num_rows(), segments * n);

  std::vector<Matrix> parts = SplitSegments(seg, segments, n);
  ASSERT_EQ(static_cast<int64_t>(parts.size()), segments);
  const auto want = SegmentEdgeSets(seg, segments, n);
  for (int64_t b = 0; b < segments; ++b) {
    const Matrix& part = parts[static_cast<size_t>(b)];
    const std::vector<int32_t>& batch = kBatches[static_cast<size_t>(b)];
    // The shape solo extraction emits: n rows, no row id map, the batch's
    // col ids in order.
    Matrix solo = SliceColumns(g.adj(), IdArray::FromVector(batch));
    EXPECT_EQ(part.num_rows(), solo.num_rows());
    EXPECT_EQ(part.num_cols(), solo.num_cols());
    EXPECT_FALSE(part.has_row_ids());
    EXPECT_FALSE(part.rows_compact());
    ASSERT_TRUE(part.has_col_ids());
    EXPECT_EQ(part.col_ids().ToVector(), batch);
    EXPECT_EQ(part.Csc().values.defined(), GetParam());
    EXPECT_EQ(EdgeSet(part), want[static_cast<size_t>(b)]);
    EXPECT_EQ(EdgeSet(part), EdgeSet(solo));
  }
  EXPECT_EQ(parts[1].num_cols(), 0);
  EXPECT_EQ(parts[1].nnz(), 0);
}

TEST_P(SplitSegmentsTest, CompactedSpaceRenumbersRowsPerSegment) {
  graph::Graph g = gs::testing::SmallRmat(300, 3000, 9, /*weighted=*/GetParam());
  const int64_t n = g.num_nodes();
  const int64_t segments = static_cast<int64_t>(kBatches.size());
  Matrix seg = SegmentedSliceColumns(g.adj(), LabelBatches(n), segments);
  Rng rng(171);
  Matrix sample = SegmentedCollectiveSample(seg, 6, SumAxis(seg, 0), n, rng);
  ASSERT_TRUE(sample.rows_compact());
  ASSERT_TRUE(sample.has_row_ids());

  std::vector<Matrix> parts = SplitSegments(sample, segments, n);
  ASSERT_EQ(static_cast<int64_t>(parts.size()), segments);
  const auto want = SegmentEdgeSets(sample, segments, n);
  int64_t total_rows = 0;
  for (int64_t b = 0; b < segments; ++b) {
    const Matrix& part = parts[static_cast<size_t>(b)];
    EXPECT_TRUE(part.rows_compact());
    ASSERT_TRUE(part.has_row_ids());
    ASSERT_TRUE(part.has_col_ids());
    EXPECT_EQ(part.col_ids().ToVector(), kBatches[static_cast<size_t>(b)]);
    EXPECT_EQ(part.Csc().values.defined(), GetParam());
    // Exactly the rows labeled into segment b, in order, as node ids.
    std::vector<int32_t> rows;
    for (int64_t r = 0; r < sample.num_rows(); ++r) {
      if (sample.row_ids()[r] / n == b) {
        rows.push_back(static_cast<int32_t>(sample.row_ids()[r] % n));
      }
    }
    EXPECT_EQ(part.row_ids().ToVector(), rows);
    EXPECT_LE(part.num_rows(), 6);
    EXPECT_EQ(EdgeSet(part), want[static_cast<size_t>(b)]);
    total_rows += part.num_rows();
  }
  EXPECT_EQ(total_rows, sample.num_rows());
  EXPECT_EQ(parts[1].num_rows(), 0);
  EXPECT_EQ(parts[1].num_cols(), 0);
  EXPECT_EQ(parts[1].nnz(), 0);
}

INSTANTIATE_TEST_SUITE_P(Weighted, SplitSegmentsTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Weighted" : "Unweighted";
                         });

TEST(SplitSegments, RejectsColumnsOutOfSegmentOrder) {
  graph::Graph g = gs::testing::SmallRmat();
  const int64_t n = g.num_nodes();
  Matrix seg = SegmentedSliceColumns(
      g.adj(), IdArray::FromVector({static_cast<int32_t>(n + 1), 2}), 2);
  EXPECT_THROW(SplitSegments(seg, 2, n), Error);
}

TEST(MapIdsModulo, WrapsAndKeepsNegatives) {
  IdArray ids = IdArray::FromVector({5, 105, -1, 205});
  IdArray out = MapIdsModulo(ids, 100);
  EXPECT_EQ(out[0], 5);
  EXPECT_EQ(out[1], 5);
  EXPECT_EQ(out[2], -1);
  EXPECT_EQ(out[3], 5);
}

}  // namespace
}  // namespace gs::sparse
