// Super-batch (segmented) kernels — Section 4.4 of the paper.
//
// Super-batch sampling runs B independent mini-batches through one kernel
// sequence. Non-interference is guaranteed by giving each mini-batch its own
// id space: a node v of mini-batch b is labeled `b * num_nodes + v`. The
// segmented extract/select kernels below understand labeled ids; compute
// operators need no changes because the extracted matrices are block
// diagonal by construction (edges never cross id spaces). SplitSegments
// hands each mini-batch its part of a result with one kernel per output for
// the whole super-batch, so the launches a super-batch saves are not spent
// again per member on the way out.

#ifndef GSAMPLER_SPARSE_BATCH_H_
#define GSAMPLER_SPARSE_BATCH_H_

#include <span>
#include <vector>

#include "common/rng.h"
#include "sparse/matrix.h"

namespace gs::sparse {

// A[:, labeled_cols] against the base graph: column i holds the in-edges of
// node (labeled_cols[i] % num_nodes); emitted row ids carry the same
// segment label. Result: CSC, num_rows = num_segments * num_nodes,
// col_ids = labeled_cols.
Matrix SegmentedSliceColumns(const Matrix& base, const IdArray& labeled_cols,
                             int64_t num_segments);

// Fused extract + uniform node-wise sample of k in-neighbors per labeled
// frontier (the super-batch counterpart of FusedSliceSample).
Matrix SegmentedFusedSliceSample(const Matrix& base, const IdArray& labeled_cols,
                                 int64_t num_segments, int64_t k, Rng& rng);

// Per-segment-RNG variant (serving / request coalescing): every draw for a
// column of segment b comes exclusively from segment_rngs[b], so segment
// b's sample is bit-identical to running that segment alone (one segment,
// the same RNG stream) — the property the request coalescer relies on.
Matrix SegmentedFusedSliceSample(const Matrix& base, const IdArray& labeled_cols,
                                 int64_t num_segments, int64_t k,
                                 std::span<Rng> segment_rngs);

// Layer-wise sampling per segment: independently samples up to k rows within
// each segment's labeled id range [s*num_nodes, (s+1)*num_nodes) according
// to row_probs (length m.num_rows()), then keeps only edges whose row was
// selected. Rows come out compacted with labeled row_ids.
Matrix SegmentedCollectiveSample(const Matrix& m, int64_t k, const ValueArray& row_probs,
                                 int64_t num_nodes, Rng& rng);

// Per-segment-RNG variant; see SegmentedFusedSliceSample above.
Matrix SegmentedCollectiveSample(const Matrix& m, int64_t k, const ValueArray& row_probs,
                                 int64_t num_nodes, std::span<Rng> segment_rngs);

// Node-wise sample of k in-neighbors per column on a segmented matrix whose
// col ids carry labels: column j's draws come from
// segment_rngs[col_label / num_nodes]. `probs` (optional) must align with
// the matrix's CSC edge order, exactly like IndividualSample.
Matrix SegmentedIndividualSample(const Matrix& m, int64_t k, const ValueArray& probs,
                                 int64_t num_nodes, std::span<Rng> segment_rngs);

// Splits a super-batch result back into its members in one kernel: part b
// holds the columns labeled into segment b, in order, with col ids mapped
// back to original node ids (label % num_nodes). Requires CSC (converted if
// absent) and col labels that ascend by segment, as the segmented kernels
// emit them. The row space decides each part's shape:
//  - full labeled space (no row id map, num_rows == num_segments *
//    num_nodes; node-wise programs): part b has num_nodes rows, row r being
//    label b * num_nodes + r, and no row id map — the shape solo sampling
//    emits. Nothing per part is sized to num_nodes.
//  - otherwise (compacted rows with labeled row ids; layer-wise programs):
//    part b keeps the rows labeled into segment b, in order, renumbered
//    through one table shared by every segment; its row ids are mapped back
//    to original node ids and it keeps m's rows_compact flag.
// A segment with no columns yields an empty part (0 columns, no edges).
std::vector<Matrix> SplitSegments(const Matrix& m, int64_t num_segments, int64_t num_nodes);

// out[i] = ids[i] % n (labeled id -> original node id); negatives pass
// through.
IdArray MapIdsModulo(const IdArray& ids, int64_t n);

}  // namespace gs::sparse

#endif  // GSAMPLER_SPARSE_BATCH_H_
