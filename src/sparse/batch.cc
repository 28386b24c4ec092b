#include "sparse/batch.h"

#include <algorithm>
#include <vector>

#include "common/error.h"
#include "common/sampling.h"
#include "sparse/kernels_internal.h"

namespace gs::sparse {

using internal::CurrentStream;
using internal::PickFormat;

namespace {

// Decodes a labeled id against the base graph's node count.
struct Labeled {
  int64_t segment;
  int32_t node;
};

Labeled Decode(int32_t labeled, int64_t num_nodes) {
  GS_CHECK_GE(labeled, 0);
  return {labeled / num_nodes, static_cast<int32_t>(labeled % num_nodes)};
}

// The segmented samplers are written against an rng-per-segment provider so
// one implementation serves both entry points: the legacy epoch path hands
// every segment the same shared Rng (draws interleave across segments in
// column/segment order — statistically a super-batch, not bit-equal to
// per-batch runs), while the serving path hands each segment its own stream
// (bit-equal to running that segment alone; see batch.h).
template <typename RngFor>
Matrix SegmentedFusedSliceSampleImpl(const Matrix& base, const IdArray& labeled_cols,
                                     int64_t num_segments, int64_t k, RngFor&& rng_for) {
  GS_CHECK(!base.has_col_ids()) << "super-batch extract requires the base graph";
  GS_CHECK_GT(k, 0);
  const Compressed& csc = base.Csc();
  const int64_t n = base.num_cols();
  device::KernelScope kernel(CurrentStream());
  const bool weighted = csc.values.defined();
  const int64_t t = labeled_cols.size();

  Compressed sub;
  sub.indptr = OffsetArray::Empty(t + 1);
  sub.indptr[0] = 0;
  std::vector<int32_t> picked;
  std::vector<int32_t> indices;
  std::vector<float> values;
  indices.reserve(static_cast<size_t>(k * t));
  int64_t pcie = 0;

  for (int64_t i = 0; i < t; ++i) {
    const Labeled lc = Decode(labeled_cols[i], n);
    GS_CHECK_LT(lc.segment, num_segments);
    const int64_t begin = csc.indptr[lc.node];
    const int64_t deg = csc.indptr[lc.node + 1] - begin;
    const int32_t offset = static_cast<int32_t>(lc.segment * n);
    picked.clear();
    SampleUniformWithoutReplacement(deg, k, rng_for(lc.segment), picked);
    for (int32_t slot : picked) {
      indices.push_back(csc.indices[begin + slot] + offset);
      if (weighted) {
        values.push_back(csc.values[begin + slot]);
      }
    }
    sub.indptr[i + 1] = static_cast<int64_t>(indices.size());
    pcie += internal::UvaCharge(base, static_cast<uint64_t>(lc.node),
                                static_cast<int64_t>(picked.size()) * 4);
  }

  const int64_t out_nnz = static_cast<int64_t>(indices.size());
  sub.indices = IdArray::FromVector(indices);
  if (weighted) {
    sub.values = ValueArray::FromVector(values);
  }
  Matrix out = Matrix::FromCsc(num_segments * n, t, std::move(sub));
  out.SetColIds(labeled_cols.Clone());
  kernel.Finish({.parallel_items = std::max<int64_t>(out_nnz, 1),
                 .hbm_bytes = out_nnz * int64_t{8},
                 .pcie_bytes = pcie});
  return out;
}

template <typename RngFor>
Matrix SegmentedCollectiveSampleImpl(const Matrix& m, int64_t k, const ValueArray& row_probs,
                                     int64_t num_nodes, RngFor&& rng_for) {
  GS_CHECK_GT(k, 0);
  // row_probs is either in the matrix's local row space (length ==
  // num_rows) or in the labeled row space, gathered through the row id map
  // when the input was compacted — the same contract CollectiveSample
  // implements with RowOperand. Per-node probability vectors repeat per
  // segment under labeled ids, hence the modulo.
  const bool local_probs = row_probs.size() == m.num_rows();
  GS_CHECK(local_probs || m.has_row_ids() ||
           (row_probs.size() > 0 && m.num_rows() % row_probs.size() == 0))
      << "row operand length " << row_probs.size() << " does not match num_rows "
      << m.num_rows() << " and the matrix has no row id map";
  const auto prob_of = [&](int64_t r) -> float {
    if (local_probs) {
      return row_probs[r];
    }
    return row_probs[m.GlobalRowId(static_cast<int32_t>(r)) % row_probs.size()];
  };
  device::KernelScope kernel(CurrentStream());

  // A row's segment comes from its labeled id (works both for the full
  // labeled space and for compacted matrices whose row_ids carry labels).
  int64_t num_segments = 0;
  std::vector<int64_t> segment_of(static_cast<size_t>(m.num_rows()));
  for (int64_t r = 0; r < m.num_rows(); ++r) {
    const int64_t s = m.GlobalRowId(static_cast<int32_t>(r)) / num_nodes;
    segment_of[static_cast<size_t>(r)] = s;
    num_segments = std::max(num_segments, s + 1);
  }

  // Gather positive-probability candidates per segment, then sample each
  // segment independently (the "segmented collective sample" operator).
  std::vector<int32_t> selected;
  {
    std::vector<std::vector<int32_t>> candidates(static_cast<size_t>(num_segments));
    std::vector<std::vector<float>> weights(static_cast<size_t>(num_segments));
    for (int64_t r = 0; r < m.num_rows(); ++r) {
      const float p = prob_of(r);
      if (p > 0.0f) {
        const size_t s = static_cast<size_t>(segment_of[static_cast<size_t>(r)]);
        candidates[s].push_back(static_cast<int32_t>(r));
        weights[s].push_back(p);
      }
    }
    for (int64_t s = 0; s < num_segments; ++s) {
      std::vector<int32_t> picked;
      SampleWeightedWithoutReplacement(weights[static_cast<size_t>(s)], k, rng_for(s), picked);
      for (int32_t slot : picked) {
        selected.push_back(candidates[static_cast<size_t>(s)][static_cast<size_t>(slot)]);
      }
    }
  }
  std::sort(selected.begin(), selected.end());
  const int64_t s = static_cast<int64_t>(selected.size());

  // Filter edges to the selected rows, preserving CSC column grouping.
  const Compressed& csc = m.Csc();
  const bool weighted = csc.values.defined();
  std::vector<int32_t> row_map(static_cast<size_t>(m.num_rows()), -1);
  IdArray row_ids = IdArray::Empty(s);
  for (int64_t i = 0; i < s; ++i) {
    row_map[static_cast<size_t>(selected[static_cast<size_t>(i)])] = static_cast<int32_t>(i);
    row_ids[i] = m.GlobalRowId(selected[static_cast<size_t>(i)]);
  }
  Compressed out;
  out.indptr = OffsetArray::Empty(m.num_cols() + 1);
  out.indptr[0] = 0;
  std::vector<int32_t> idx;
  std::vector<float> vals;
  for (int64_t c = 0; c < m.num_cols(); ++c) {
    for (int64_t e = csc.indptr[c]; e < csc.indptr[c + 1]; ++e) {
      const int32_t mapped = row_map[static_cast<size_t>(csc.indices[e])];
      if (mapped >= 0) {
        idx.push_back(mapped);
        if (weighted) {
          vals.push_back(csc.values[e]);
        }
      }
    }
    out.indptr[c + 1] = static_cast<int64_t>(idx.size());
  }
  out.indices = IdArray::FromVector(idx);
  if (weighted) {
    out.values = ValueArray::FromVector(vals);
  }
  Matrix result = Matrix::FromCsc(s, m.num_cols(), std::move(out));
  result.SetRowIds(std::move(row_ids));
  result.SetRowsCompact(true);
  result.SetColIds(m.col_ids());
  kernel.Finish({.parallel_items = m.nnz(), .hbm_bytes = m.nnz() * int64_t{12}});
  return result;
}

}  // namespace

Matrix SegmentedSliceColumns(const Matrix& base, const IdArray& labeled_cols,
                             int64_t num_segments) {
  GS_CHECK(!base.has_col_ids()) << "super-batch extract requires the base graph";
  const Compressed& csc = base.Csc();
  const int64_t n = base.num_cols();
  device::KernelScope kernel(CurrentStream());
  const bool weighted = csc.values.defined();
  const int64_t t = labeled_cols.size();

  Compressed sub;
  sub.indptr = OffsetArray::Empty(t + 1);
  sub.indptr[0] = 0;
  for (int64_t i = 0; i < t; ++i) {
    const Labeled lc = Decode(labeled_cols[i], n);
    GS_CHECK_LT(lc.segment, num_segments);
    sub.indptr[i + 1] = sub.indptr[i] + (csc.indptr[lc.node + 1] - csc.indptr[lc.node]);
  }
  const int64_t out_nnz = sub.indptr[t];
  sub.indices = IdArray::Empty(out_nnz);
  if (weighted) {
    sub.values = ValueArray::Empty(out_nnz);
  }
  int64_t pcie = 0;
  for (int64_t i = 0; i < t; ++i) {
    const Labeled lc = Decode(labeled_cols[i], n);
    const int64_t begin = csc.indptr[lc.node];
    const int64_t len = csc.indptr[lc.node + 1] - begin;
    const int32_t offset = static_cast<int32_t>(lc.segment * n);
    for (int64_t e = 0; e < len; ++e) {
      sub.indices[sub.indptr[i] + e] = csc.indices[begin + e] + offset;
    }
    if (weighted) {
      std::copy_n(csc.values.data() + begin, len, sub.values.data() + sub.indptr[i]);
    }
    pcie += internal::UvaCharge(base, static_cast<uint64_t>(lc.node),
                                len * static_cast<int64_t>(weighted ? 8 : 4));
  }

  Matrix out = Matrix::FromCsc(num_segments * n, t, std::move(sub));
  out.SetColIds(labeled_cols.Clone());
  kernel.Finish({.parallel_items = std::max<int64_t>(out_nnz, 1),
                 .hbm_bytes = 2 * out_nnz * int64_t{8},
                 .pcie_bytes = pcie});
  return out;
}

Matrix SegmentedFusedSliceSample(const Matrix& base, const IdArray& labeled_cols,
                                 int64_t num_segments, int64_t k, Rng& rng) {
  return SegmentedFusedSliceSampleImpl(base, labeled_cols, num_segments, k,
                                       [&rng](int64_t) -> Rng& { return rng; });
}

Matrix SegmentedFusedSliceSample(const Matrix& base, const IdArray& labeled_cols,
                                 int64_t num_segments, int64_t k,
                                 std::span<Rng> segment_rngs) {
  GS_CHECK_GE(static_cast<int64_t>(segment_rngs.size()), num_segments)
      << "need one rng per segment";
  return SegmentedFusedSliceSampleImpl(
      base, labeled_cols, num_segments, k,
      [segment_rngs](int64_t s) -> Rng& { return segment_rngs[static_cast<size_t>(s)]; });
}

Matrix SegmentedCollectiveSample(const Matrix& m, int64_t k, const ValueArray& row_probs,
                                 int64_t num_nodes, Rng& rng) {
  return SegmentedCollectiveSampleImpl(m, k, row_probs, num_nodes,
                                       [&rng](int64_t) -> Rng& { return rng; });
}

Matrix SegmentedCollectiveSample(const Matrix& m, int64_t k, const ValueArray& row_probs,
                                 int64_t num_nodes, std::span<Rng> segment_rngs) {
  return SegmentedCollectiveSampleImpl(m, k, row_probs, num_nodes,
                                       [segment_rngs](int64_t s) -> Rng& {
                                         GS_CHECK_LT(s, static_cast<int64_t>(segment_rngs.size()))
                                             << "need one rng per segment";
                                         return segment_rngs[static_cast<size_t>(s)];
                                       });
}

Matrix SegmentedIndividualSample(const Matrix& m, int64_t k, const ValueArray& probs,
                                 int64_t num_nodes, std::span<Rng> segment_rngs) {
  GS_CHECK_GT(k, 0) << "fanout must be positive";
  GS_CHECK(m.has_col_ids()) << "segmented individual sample needs labeled col ids";
  if (probs.defined()) {
    GS_CHECK_EQ(probs.size(), m.nnz()) << "probs must align with the matrix's CSC edge order";
  }
  const Compressed& csc = m.Csc();
  const bool weighted = csc.values.defined();
  device::KernelScope kernel(CurrentStream());

  const int64_t t = m.num_cols();
  Compressed out;
  out.indptr = OffsetArray::Empty(t + 1);
  out.indptr[0] = 0;
  std::vector<int32_t> picked;  // per-column scratch of selected slots
  std::vector<int32_t> indices;
  std::vector<float> values;
  indices.reserve(static_cast<size_t>(std::min(m.nnz(), k * t)));
  int64_t pcie = 0;

  for (int64_t c = 0; c < t; ++c) {
    const Labeled lc = Decode(m.GlobalColId(static_cast<int32_t>(c)), num_nodes);
    GS_CHECK_LT(lc.segment, static_cast<int64_t>(segment_rngs.size()))
        << "need one rng per segment";
    Rng& rng = segment_rngs[static_cast<size_t>(lc.segment)];
    const int64_t begin = csc.indptr[c];
    const int64_t deg = csc.indptr[c + 1] - begin;
    picked.clear();
    if (probs.defined()) {
      SampleWeightedWithoutReplacement(
          std::span<const float>(probs.data() + begin, static_cast<size_t>(deg)), k, rng,
          picked);
    } else {
      SampleUniformWithoutReplacement(deg, k, rng, picked);
    }
    std::sort(picked.begin(), picked.end());  // canonical output order
    for (int32_t slot : picked) {
      indices.push_back(csc.indices[begin + slot]);
      if (weighted) {
        values.push_back(csc.values[begin + slot]);
      }
    }
    out.indptr[c + 1] = static_cast<int64_t>(indices.size());
    if (m.IsUva()) {
      pcie += internal::UvaCharge(m, static_cast<uint64_t>(lc.node), deg * int64_t{4});
    }
  }

  const int64_t out_nnz = static_cast<int64_t>(indices.size());
  out.indices = IdArray::FromVector(indices);
  if (weighted) {
    out.values = ValueArray::FromVector(values);
  }
  Matrix result = Matrix::FromCsc(m.num_rows(), t, std::move(out));
  internal::InheritRowSpace(m, result);
  result.SetColIds(m.col_ids());
  kernel.Finish({.parallel_items = std::max<int64_t>(m.nnz(), 1),
                 .hbm_bytes = m.nnz() * int64_t{4} + out_nnz * int64_t{8},
                 .pcie_bytes = pcie});
  return result;
}

std::vector<Matrix> SplitSegments(const Matrix& m, int64_t num_segments, int64_t num_nodes) {
  GS_CHECK_GT(num_segments, 0);
  GS_CHECK_GT(num_nodes, 0);
  const Compressed& csc = m.Csc();
  device::KernelScope kernel(CurrentStream());
  const bool weighted = csc.values.defined();

  // Labels ascend by segment, so one sweep over the col ids yields every
  // segment's column range [col_begin[b], col_begin[b + 1]).
  std::vector<int64_t> col_begin(static_cast<size_t>(num_segments) + 1, 0);
  int64_t cursor = 0;
  for (int64_t b = 0; b < num_segments; ++b) {
    col_begin[static_cast<size_t>(b)] = cursor;
    while (cursor < m.num_cols() &&
           Decode(m.GlobalColId(static_cast<int32_t>(cursor)), num_nodes).segment == b) {
      ++cursor;
    }
  }
  col_begin[static_cast<size_t>(num_segments)] = cursor;
  GS_CHECK_EQ(cursor, m.num_cols()) << "col labels must ascend by segment";

  // Compacted space: row r becomes row local_row[r] of its segment's part.
  const bool full_space = !m.has_row_ids() && m.num_rows() == num_segments * num_nodes;
  std::vector<int32_t> local_row;
  std::vector<std::vector<int32_t>> row_nodes;
  if (!full_space) {
    local_row.resize(static_cast<size_t>(m.num_rows()));
    row_nodes.resize(static_cast<size_t>(num_segments));
    for (int64_t r = 0; r < m.num_rows(); ++r) {
      const Labeled lr = Decode(m.GlobalRowId(static_cast<int32_t>(r)), num_nodes);
      GS_CHECK_LT(lr.segment, num_segments);
      std::vector<int32_t>& nodes = row_nodes[static_cast<size_t>(lr.segment)];
      local_row[static_cast<size_t>(r)] = static_cast<int32_t>(nodes.size());
      nodes.push_back(lr.node);
    }
  }

  std::vector<Matrix> parts;
  parts.reserve(static_cast<size_t>(num_segments));
  for (int64_t b = 0; b < num_segments; ++b) {
    const int64_t c_begin = col_begin[static_cast<size_t>(b)];
    const int64_t cols = col_begin[static_cast<size_t>(b) + 1] - c_begin;
    const int64_t e_begin = csc.indptr[c_begin];
    const int64_t nnz = csc.indptr[c_begin + cols] - e_begin;

    Compressed sub;
    sub.indptr = OffsetArray::Empty(cols + 1);
    for (int64_t i = 0; i <= cols; ++i) {
      sub.indptr[i] = csc.indptr[c_begin + i] - e_begin;
    }
    sub.indices = IdArray::Empty(nnz);
    for (int64_t e = 0; e < nnz; ++e) {
      const int32_t r = csc.indices[e_begin + e];
      GS_INTERNAL(m.GlobalRowId(r) / num_nodes == b) << "edge crosses segments";
      sub.indices[e] = full_space ? static_cast<int32_t>(r - b * num_nodes)
                                  : local_row[static_cast<size_t>(r)];
    }
    if (weighted) {
      sub.values = ValueArray::Empty(nnz);
      std::copy_n(csc.values.data() + e_begin, nnz, sub.values.data());
    }
    IdArray col_ids = IdArray::Empty(cols);
    for (int64_t i = 0; i < cols; ++i) {
      col_ids[i] = Decode(m.GlobalColId(static_cast<int32_t>(c_begin + i)), num_nodes).node;
    }

    if (full_space) {
      parts.push_back(Matrix::FromCsc(num_nodes, cols, std::move(sub)));
    } else {
      IdArray row_ids = IdArray::FromVector(row_nodes[static_cast<size_t>(b)]);
      parts.push_back(Matrix::FromCsc(row_ids.size(), cols, std::move(sub)));
      parts.back().SetRowIds(std::move(row_ids));
      parts.back().SetRowsCompact(m.rows_compact());
    }
    parts.back().SetColIds(std::move(col_ids));
  }
  kernel.Finish({.parallel_items = std::max<int64_t>(m.nnz() + m.num_cols(), 1),
                 .hbm_bytes = 2 * m.nnz() * int64_t{weighted ? 8 : 4} +
                              2 * (m.num_cols() + (full_space ? 0 : m.num_rows())) *
                                  int64_t{4}});
  return parts;
}

IdArray MapIdsModulo(const IdArray& ids, int64_t n) {
  device::KernelScope kernel(CurrentStream());
  IdArray out = IdArray::Empty(ids.size());
  for (int64_t i = 0; i < ids.size(); ++i) {
    out[i] = ids[i] >= 0 ? static_cast<int32_t>(ids[i] % n) : ids[i];
  }
  kernel.Finish({.parallel_items = ids.size(), .hbm_bytes = 2 * ids.bytes()});
  return out;
}

}  // namespace gs::sparse
