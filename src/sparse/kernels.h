// Sparse-matrix kernels backing the matrix-centric API (Table 4 of the
// paper). Every function launches one simulated kernel. Functions pick the
// cheapest *already materialized* format of their inputs; they never convert
// formats implicitly except where documented (the data-layout-selection pass
// owns conversion decisions, see core/passes/layout.*).
//
// Axis convention (matches the paper's Figure 3 usage, not PyTorch):
//   axis = 0 : result/operand indexed by ROW    (length num_rows)
//   axis = 1 : result/operand indexed by COLUMN (length num_cols)

#ifndef GSAMPLER_SPARSE_KERNELS_H_
#define GSAMPLER_SPARSE_KERNELS_H_

#include <span>

#include "common/binary_op.h"
#include "common/rng.h"
#include "sparse/matrix.h"
#include "tensor/tensor.h"

namespace gs::sparse {

// ---------------------------------------------------------------- Extract

// A[:, cols]: keeps the full row dimension, selects columns. `cols` holds
// original-graph ids; they become the result's col_ids. Works on any input
// format (CSC is O(output); COO/CSR scan all edges — this cost asymmetry is
// Table 5's first row). Result is produced in the same format family it was
// computed from.
Matrix SliceColumns(const Matrix& m, const IdArray& cols);

// A[rows, :]: symmetric to SliceColumns (CSR is the fast path).
Matrix SliceRows(const Matrix& m, const IdArray& rows);

// ---------------------------------------------------------------- Compute

// Reduction of edge values onto rows (axis=0) or columns (axis=1).
// Unweighted matrices reduce unit weights (i.e., degrees).
ValueArray SumAxis(const Matrix& m, int axis);

// values'[e] = op(values[e], vec[row(e)]) for axis=0 (vec[col(e)] for
// axis=1). Returns a matrix sharing m's structure.
Matrix Broadcast(const Matrix& m, BinaryOp op, const ValueArray& vec, int axis);

// values'[e] = op(values[e], scalar). Shares structure.
Matrix EltwiseScalar(const Matrix& m, BinaryOp op, float scalar);

// values'[e] = op(a.values[e], b.values[e]); a and b must share their
// sparsity pattern. Shares structure with a.
Matrix EltwiseBinary(const Matrix& a, BinaryOp op, const Matrix& b);

// values'[e] = op(values[e], dense.at(row(e), col(e))) with dense of shape
// (num_rows, num_cols). Shares structure.
Matrix DenseEltwise(const Matrix& m, BinaryOp op, const tensor::Tensor& dense);

// A @ D: (num_rows x num_cols) @ (num_cols x k) -> dense (num_rows x k).
tensor::Tensor SpMM(const Matrix& m, const tensor::Tensor& dense);

// Sampled dense-dense matmul: values'[e] = dot(u[row(e)], v[col(e)]),
// optionally multiplied into the existing edge values (mul_existing). u is
// (num_rows x h), v is (num_cols x h). This is the fused form of
// `sub_A * (U @ V^T)` that the Edge-Map fusion pass emits for PASS-style
// attention computation.
Matrix Sddmm(const Matrix& m, const tensor::Tensor& u, const tensor::Tensor& v,
             bool mul_existing);

// ----------------------------------------------------------------- Select

// Node-wise selection: for every column, samples up to k of its edges
// without replacement, uniformly or proportional to `probs` (edge weights
// aligned with m's CSC order; pass an undefined array for uniform). Requires
// / materializes CSC. Result: CSC, same column set, original row dimension.
Matrix IndividualSample(const Matrix& m, int64_t k, const ValueArray& probs, Rng& rng);

// Layer-wise selection: samples up to k distinct row nodes proportional to
// row_probs (length num_rows, non-negative; rows with zero probability are
// never selected) and keeps only edges whose row was selected. Result shape
// is (#selected x num_cols) with rows compacted (row_ids set). Fast path
// gathers selected rows from CSR; COO/CSC paths scan all edges (Table 5 row
// 3).
Matrix CollectiveSample(const Matrix& m, int64_t k, const ValueArray& row_probs, Rng& rng);

// Fused Extract-Select for uniform node-wise sampling: samples k
// in-neighbors for each of `cols` directly from the base matrix without
// materializing the sliced subgraph (Figure 5a). Requires CSC on m.
Matrix FusedSliceSample(const Matrix& m, const IdArray& cols, int64_t k, Rng& rng);

// --------------------------------------------------------------- Finalize

// Original-graph ids of rows that carry at least one edge (the sampled
// neighbors). For rows-compact matrices this is just row_ids.
IdArray RowIds(const Matrix& m);

// Original-graph ids of all columns.
IdArray ColIds(const Matrix& m);

// Drops empty rows and renumbers the remainder; sets row_ids and
// rows_compact. Costs a full pass plus index rewrite — the compaction the
// layout pass weighs against smaller downstream matrices (Section 4.3).
Matrix CompactRows(const Matrix& m);

// Sorted union of id arrays; negative ids (dead walk ends) are dropped.
IdArray Unique(std::span<const IdArray> arrays);

// Gathers vec[ids[i]] into a new array (e.g., row_probs[sample_A.row()]).
ValueArray GatherValues(const ValueArray& vec, const IdArray& ids);

// ------------------------------------------------------------------ Walks

// One uniform random-walk step: out[i] = uniformly sampled in-neighbor of
// cur[i] in m, or -1 when cur[i] is -1 or has no in-neighbors. Requires CSC.
IdArray UniformWalkStep(const Matrix& m, const IdArray& cur, Rng& rng);

// One random-walk step with restarts (PinSAGE/HetGNN): with probability
// `restart_prob`, or when cur[i] has no in-neighbors, the walker jumps back
// to root[i]; otherwise it moves to a uniform in-neighbor.
IdArray UniformWalkStepRestart(const Matrix& m, const IdArray& cur, const IdArray& root,
                               float restart_prob, Rng& rng);

// PinSAGE neighbor construction: given per-root walk traces (`steps[t][i]`
// is walker i's position after step t; -1 entries are skipped), counts
// visits per root and keeps each root's k most-visited nodes (the root
// itself excluded). Returns a (num_rows x #roots) CSC matrix whose values
// are the visit counts (the importance weights PinSAGE aggregates with).
Matrix TopKVisited(std::span<const IdArray> steps, const IdArray& roots, int64_t k,
                   int64_t num_rows);

// One node2vec step: neighbor r of cur[i] gets bias 1/p when r == prev[i],
// 1 when r is also an in/out-neighbor of prev[i], and 1/q otherwise
// (prev[i] == -1 means a first, uniform step). Requires CSC with
// per-column-sorted indices for the adjacency test.
IdArray Node2VecStep(const Matrix& m, const IdArray& cur, const IdArray& prev, float p,
                     float q, Rng& rng);

}  // namespace gs::sparse

#endif  // GSAMPLER_SPARSE_KERNELS_H_
