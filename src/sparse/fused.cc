#include "sparse/fused.h"

#include <algorithm>

#include "common/error.h"
#include "sparse/kernels_internal.h"

namespace gs::sparse {

using internal::CurrentStream;

namespace {

using Kind = EdgeMapStage::OperandKind;

// One stage with its operands validated and resolved to raw pointers.
// Row-aligned operands may be local (length num_rows) or global (indexed
// through row_ids); see kernels_internal.h::RowOperand.
struct ResolvedStage {
  BinaryOp op;
  Kind kind;
  float scalar;
  const float* data;   // the operand (u for kDot); null for kScalar
  const float* data2;  // v for kDot; null otherwise
  int64_t width;       // columns of a kDense operand, factor length for kDot
  internal::RowOperand rows;
};

// Validates operand shapes once and resolves every stage.
std::vector<ResolvedStage> ResolveStages(const Matrix& m, const std::vector<EdgeMapStage>& stages,
                                         std::span<const tensor::Tensor> operands) {
  std::vector<ResolvedStage> resolved;
  resolved.reserve(stages.size());
  for (const EdgeMapStage& stage : stages) {
    auto operand_of = [&](int index) -> const tensor::Tensor& {
      GS_CHECK(index >= 0 && index < static_cast<int>(operands.size()))
          << "stage operand index " << index << " out of range";
      return operands[static_cast<size_t>(index)];
    };
    ResolvedStage r{stage.op, stage.kind, stage.scalar, nullptr, nullptr, 0,
                    internal::RowOperand(m, m.num_rows())};
    switch (stage.kind) {
      case Kind::kScalar:
        break;
      case Kind::kRowVector: {
        const tensor::Tensor& t = operand_of(stage.operand);
        r.data = t.data();
        r.rows = internal::RowOperand(m, t.numel());
        break;
      }
      case Kind::kColVector: {
        const tensor::Tensor& t = operand_of(stage.operand);
        GS_CHECK_EQ(t.numel(), m.num_cols());
        r.data = t.data();
        break;
      }
      case Kind::kDense: {
        const tensor::Tensor& d = operand_of(stage.operand);
        r.rows = internal::RowOperand(m, d.rows());
        GS_CHECK_EQ(d.cols(), m.num_cols());
        r.data = d.data();
        r.width = d.cols();
        break;
      }
      case Kind::kEdgeTensor: {
        const tensor::Tensor& t = operand_of(stage.operand);
        GS_CHECK_EQ(t.numel(), m.nnz());
        r.data = t.data();
        break;
      }
      case Kind::kDot: {
        const tensor::Tensor& u = operand_of(stage.operand);
        const tensor::Tensor& v = operand_of(stage.operand2);
        r.rows = internal::RowOperand(m, u.rows());
        GS_CHECK_EQ(v.rows(), m.num_cols());
        GS_CHECK_EQ(u.cols(), v.cols());
        r.data = u.data();
        r.data2 = v.data();
        r.width = u.cols();
        break;
      }
    }
    resolved.push_back(r);
  }
  return resolved;
}

// The tight loop: v[i] = op(v[i], rhs(i)) over one column's edges, with the
// operator fixed at compile time so the switch leaves the loop.
template <BinaryOp kOp, typename Rhs>
void RunStage(float* v, int64_t n, Rhs rhs) {
  for (int64_t i = 0; i < n; ++i) {
    v[i] = ApplyBinaryOp(kOp, v[i], rhs(i));
  }
}

template <typename Rhs>
void RunStage(BinaryOp op, float* v, int64_t n, Rhs rhs) {
  switch (op) {
    case BinaryOp::kAdd:
      return RunStage<BinaryOp::kAdd>(v, n, rhs);
    case BinaryOp::kSub:
      return RunStage<BinaryOp::kSub>(v, n, rhs);
    case BinaryOp::kMul:
      return RunStage<BinaryOp::kMul>(v, n, rhs);
    case BinaryOp::kDiv:
      return RunStage<BinaryOp::kDiv>(v, n, rhs);
    case BinaryOp::kPow:
      return RunStage<BinaryOp::kPow>(v, n, rhs);
  }
}

// Applies the stage pipeline to the n edge values v of CSC column `col`,
// one stage at a time. `rows` are the column's row indices and `begin` its
// first edge position. Column-vector operands are one scalar per column.
void MapColumn(const std::vector<ResolvedStage>& stages, const int32_t* rows, int64_t begin,
               int64_t n, int64_t col, float* v) {
  for (const ResolvedStage& s : stages) {
    switch (s.kind) {
      case Kind::kScalar: {
        const float b = s.scalar;
        RunStage(s.op, v, n, [b](int64_t) { return b; });
        break;
      }
      case Kind::kColVector: {
        const float b = s.data[col];
        RunStage(s.op, v, n, [b](int64_t) { return b; });
        break;
      }
      case Kind::kRowVector:
        if (s.rows.local()) {
          RunStage(s.op, v, n, [&](int64_t i) { return s.data[rows[i]]; });
        } else {
          RunStage(s.op, v, n, [&](int64_t i) { return s.data[s.rows.Index(rows[i])]; });
        }
        break;
      case Kind::kDense:
        RunStage(s.op, v, n,
                 [&](int64_t i) { return s.data[s.rows.Index(rows[i]) * s.width + col]; });
        break;
      case Kind::kEdgeTensor: {
        const float* e = s.data + begin;
        RunStage(s.op, v, n, [e](int64_t i) { return e[i]; });
        break;
      }
      case Kind::kDot: {
        const int64_t h = s.width;
        const float* pv = s.data2 + col * h;
        RunStage(s.op, v, n, [&](int64_t i) {
          const float* pu = s.data + s.rows.Index(rows[i]) * h;
          float dot = 0.0f;
          for (int64_t j = 0; j < h; ++j) {
            dot += pu[j] * pv[j];
          }
          return dot;
        });
        break;
      }
    }
  }
}

// Writes the pipeline's starting values (the edge weights, 1 when
// unweighted) of edges [begin, begin + n) into v.
void LoadBase(const Compressed& csc, int64_t begin, int64_t n, float* v) {
  if (csc.values.defined()) {
    std::copy_n(csc.values.data() + begin, n, v);
  } else {
    std::fill_n(v, n, 1.0f);
  }
}

int64_t OperandBytes(std::span<const tensor::Tensor> operands) {
  int64_t bytes = 0;
  for (const tensor::Tensor& t : operands) {
    bytes += t.numel() * static_cast<int64_t>(sizeof(float));
  }
  return bytes;
}

}  // namespace

Matrix FusedEdgeMap(const Matrix& m, const std::vector<EdgeMapStage>& stages,
                    std::span<const tensor::Tensor> operands) {
  const Compressed& csc = m.Csc();
  const std::vector<ResolvedStage> resolved = ResolveStages(m, stages, operands);
  device::KernelScope kernel(CurrentStream());
  ValueArray out = ValueArray::Empty(m.nnz());
  LoadBase(csc, 0, m.nnz(), out.data());
  const int64_t* indptr = csc.indptr.data();
  for (int64_t c = 0; c < m.num_cols(); ++c) {
    const int64_t begin = indptr[c];
    MapColumn(resolved, csc.indices.data() + begin, begin, indptr[c + 1] - begin, c,
              out.data() + begin);
  }
  kernel.Finish({.parallel_items = m.nnz(),
                 .hbm_bytes = m.nnz() * int64_t{12} + OperandBytes(operands)});
  return m.WithValues(Format::kCsc, std::move(out));
}

ValueArray FusedEdgeMapReduce(const Matrix& m, const std::vector<EdgeMapStage>& stages,
                              std::span<const tensor::Tensor> operands, int axis) {
  GS_CHECK(axis == 0 || axis == 1);
  const Compressed& csc = m.Csc();
  const std::vector<ResolvedStage> resolved = ResolveStages(m, stages, operands);
  device::KernelScope kernel(CurrentStream());
  ValueArray out = ValueArray::Full(axis == 0 ? m.num_rows() : m.num_cols(), 0.0f);
  const int64_t* indptr = csc.indptr.data();
  int64_t max_degree = 0;
  for (int64_t c = 0; c < m.num_cols(); ++c) {
    max_degree = std::max(max_degree, indptr[c + 1] - indptr[c]);
  }
  std::vector<float> scratch(static_cast<size_t>(max_degree));
  float* v = scratch.data();
  float* sums = out.data();
  for (int64_t c = 0; c < m.num_cols(); ++c) {
    const int64_t begin = indptr[c];
    const int64_t n = indptr[c + 1] - begin;
    const int32_t* rows = csc.indices.data() + begin;
    LoadBase(csc, begin, n, v);
    MapColumn(resolved, rows, begin, n, c, v);
    if (axis == 0) {
      for (int64_t i = 0; i < n; ++i) {
        sums[rows[i]] += v[i];
      }
    } else {
      float sum = 0.0f;
      for (int64_t i = 0; i < n; ++i) {
        sum += v[i];
      }
      sums[c] = sum;
    }
  }
  kernel.Finish({.parallel_items = m.nnz(),
                 .hbm_bytes = m.nnz() * int64_t{8} + out.bytes() + OperandBytes(operands)});
  return out;
}

}  // namespace gs::sparse
