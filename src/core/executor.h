// IR interpreter: runs a Program per mini-batch against the sparse/tensor
// kernels on the simulated device.
//
// The executor supports three layout modes (Section 4.3 / Figure 10):
//  - kAsIs:    kernels use whatever format their inputs already have (the
//              "plain" configuration);
//  - kGreedy:  before each operator, inputs are converted to that operator's
//              single best format, ignoring conversion cost — the DGL-like
//              strategy the paper compares against;
//  - kPlanned: structure-producing nodes carry format/compaction
//              annotations chosen by the data-layout-selection pass.
//
// Super-batch execution (Section 4.4) swaps extract/select operators for
// their segmented counterparts; mini-batch b's node v travels through the
// program as the labeled id `b * N + v`, which keeps batches independent.

#ifndef GSAMPLER_CORE_EXECUTOR_H_
#define GSAMPLER_CORE_EXECUTOR_H_

#include <map>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/ir.h"
#include "sparse/kernels.h"
#include "tensor/tensor.h"

namespace gs::core {

// A runtime value (tagged by the producing node's ValueKind).
struct Value {
  ValueKind kind = ValueKind::kTensor;
  sparse::Matrix matrix;
  tensor::Tensor tensor;
  tensor::IdArray ids;

  static Value OfMatrix(sparse::Matrix m);
  static Value OfTensor(tensor::Tensor t);
  static Value OfIds(tensor::IdArray i);
};

// Exact (bit-level) equality of two runtime values: same kind, and the ids /
// matrix structure+values / tensor payloads compare equal element by
// element. Used by the plan round-trip checks ("a reloaded plan samples
// bit-identically") in tests, tools/check.sh, and the serving warm-start
// test.
bool BitIdentical(const Value& a, const Value& b);

// Per-program inputs.
struct Bindings {
  const sparse::Matrix* graph = nullptr;  // base adjacency (required)
  tensor::IdArray frontier;               // per-batch frontiers
  std::map<std::string, tensor::Tensor> tensors;
  // Additional relation matrices for heterogeneous programs (Section 4.5:
  // each edge type is its own sparse matrix); keyed by GraphNamed() name.
  std::map<std::string, const sparse::Matrix*> named_graphs;
};

enum class LayoutMode {
  kAsIs,
  kGreedy,
  kPlanned,
};

// Observer of frontier hops. The executor calls OnHop once per hop operator
// (column slice, fused slice-sample, walk step) whose matrix operand spans
// the full base graph, passing that matrix and the frontier ids being
// gathered from it — exactly the points where a multi-device run would pull
// remote adjacency. shard::FrontierExchange implements this to charge the
// interconnect all-to-all; the observer is a pure cost-model tap and must
// not influence execution (sampled output is identical with or without
// one). Installed per thread so concurrent shard workers observe only their
// own executions.
class HopObserver {
 public:
  virtual ~HopObserver() = default;
  virtual void OnHop(const sparse::Matrix& graph, const tensor::IdArray& frontier) = 0;
};

// Replaces the calling thread's hop observer (nullptr clears it); returns
// the previous observer.
HopObserver* SetThreadHopObserver(HopObserver* observer);

// Scoped per-thread hop observer installation.
class HopObserverGuard {
 public:
  explicit HopObserverGuard(HopObserver& observer)
      : previous_(SetThreadHopObserver(&observer)) {}
  ~HopObserverGuard() { SetThreadHopObserver(previous_); }

  HopObserverGuard(const HopObserverGuard&) = delete;
  HopObserverGuard& operator=(const HopObserverGuard&) = delete;

 private:
  HopObserver* previous_;
};

struct ExecOptions {
  LayoutMode layout = LayoutMode::kAsIs;
  // Super-batch mode: the frontier carries labeled ids (b * N + v) spanning
  // `num_segments` mini-batches over a graph of `graph_num_nodes` nodes.
  bool super_batch = false;
  int64_t num_segments = 1;
  int64_t graph_num_nodes = 0;
};

class Executor {
 public:
  Executor(const Program& program, ExecOptions options);

  // Injects a compile-time value for a batch-invariant node (the
  // pre-processing optimization); the node is skipped during Run.
  void SetPrecomputed(int node_id, Value value);
  void ClearPrecomputed() { precomputed_.clear(); }

  // Executes the program and returns one Value per program output.
  //
  // `segment_rngs` (super-batch mode only) gives every segment its own RNG
  // stream: all random draws attributed to mini-batch b come exclusively
  // from segment_rngs[b], making segment b's output bit-identical to a
  // one-segment run seeded with the same stream. This is what lets the
  // serving coalescer merge concurrent requests without changing any
  // tenant's results. Empty span = legacy behavior (one shared rng,
  // statistically equivalent only). Programs with walk operators cannot be
  // run with per-segment rngs (walk steps interleave draws across the whole
  // frontier).
  std::vector<Value> Run(const Bindings& bindings, Rng& rng,
                         std::span<Rng> segment_rngs = {}) const;

  // Executes only the batch-invariant prefix (nodes marked invariant) and
  // returns their values; used by the engine to populate SetPrecomputed.
  std::map<int, Value> RunInvariant(const Bindings& bindings) const;

  const ExecOptions& options() const { return options_; }
  void set_options(const ExecOptions& options) { options_ = options; }

 private:
  Value Evaluate(const Node& node, std::vector<Value>& values, const Bindings& bindings,
                 Rng& rng, std::span<Rng> segment_rngs) const;

  const Program* program_;
  ExecOptions options_;
  std::map<int, Value> precomputed_;
  std::vector<int> last_use_;  // node id -> index of its last consumer
};

}  // namespace gs::core

#endif  // GSAMPLER_CORE_EXECUTOR_H_
