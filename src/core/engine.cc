#include "core/engine.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "common/logging.h"
#include "device/device.h"
#include "fault/status.h"
#include "sparse/batch.h"

namespace gs::core {
namespace {

// Splits labeled ids into per-segment arrays of original node ids.
std::vector<tensor::IdArray> SplitLabeledIds(const tensor::IdArray& labeled, int64_t n,
                                             int64_t num_segments) {
  std::vector<std::vector<int32_t>> per_segment(static_cast<size_t>(num_segments));
  for (int64_t i = 0; i < labeled.size(); ++i) {
    const int32_t id = labeled[i];
    if (id < 0) {
      continue;
    }
    per_segment[static_cast<size_t>(id / n)].push_back(static_cast<int32_t>(id % n));
  }
  std::vector<tensor::IdArray> out;
  out.reserve(per_segment.size());
  for (auto& ids : per_segment) {
    out.push_back(tensor::IdArray::FromVector(ids));
  }
  return out;
}

const graph::Graph& PinnedGraph(const std::shared_ptr<const graph::Snapshot>& snapshot) {
  GS_CHECK(snapshot != nullptr);
  return snapshot->graph();
}

}  // namespace

tensor::IdArray WarmupFrontier(const graph::Graph& graph) {
  const tensor::IdArray& train = graph.train_ids();
  const int64_t nodes = std::max<int64_t>(graph.num_nodes(), 1);
  const int64_t n = std::min<int64_t>(32, train.size() > 0 ? train.size() : nodes);
  std::vector<int32_t> ids(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    ids[static_cast<size_t>(i)] = train.size() > 0 ? train[i] : static_cast<int32_t>(i % nodes);
  }
  return tensor::IdArray::FromVector(ids);
}

SamplerSession::SamplerSession(std::shared_ptr<CompiledPlan> plan, const graph::Graph& graph,
                               std::map<std::string, tensor::Tensor> tensors,
                               std::shared_ptr<const graph::Snapshot> pin)
    : plan_(std::move(plan)),
      snapshot_(std::move(pin)),
      graph_(&graph),
      rng_(plan_->options().seed),
      executor_(plan_->program(), ExecOptions{.layout = plan_->layout_mode()}),
      tuned_super_batch_(plan_->tuned_super_batch()) {
  GS_CHECK(plan_ != nullptr);
  bindings_.graph = &graph.adj();
  bindings_.tensors = std::move(tensors);
  Precompute();
}

SamplerSession::SamplerSession(std::shared_ptr<CompiledPlan> plan,
                               std::shared_ptr<const graph::Snapshot> snapshot,
                               std::map<std::string, tensor::Tensor> tensors)
    : SamplerSession(std::move(plan), PinnedGraph(snapshot), std::move(tensors), snapshot) {}

void SamplerSession::Precompute() {
  if (!plan_->options().enable_preprocessing) {
    return;
  }
  try {
    precomputed_ = executor_.RunInvariant(bindings_);
  } catch (const MissingBindingError& e) {
    // Retry once the binding arrives (BindGraph / BindTensor) or on first use.
    GS_LOG(Debug) << "pre-computation deferred: " << e.what();
    precomputed_.clear();
    needs_precompute_ = true;
    return;
  }
  needs_precompute_ = false;
  // Inputs are trivially invariant; caching them buys nothing.
  for (const Node& n : plan_->program().nodes()) {
    if (n.kind == OpKind::kGraphInput || n.kind == OpKind::kTensorInput ||
        n.kind == OpKind::kFrontierInput) {
      precomputed_.erase(n.id);
    }
  }
  for (const auto& [id, value] : precomputed_) {
    executor_.SetPrecomputed(id, value);
  }
}

void SamplerSession::BindTensor(const std::string& name, tensor::Tensor value) {
  GS_CHECK(!warmed_up_) << "cannot re-bind tensor '" << name
                        << "' after Warmup(): the concurrent serving contract relies on "
                           "immutable bindings — open a new SamplerSession over the plan";
  bindings_.tensors[name] = std::move(value);
  // Invariant values may depend on the re-bound tensor; refresh them.
  if (plan_->options().enable_preprocessing && !precomputed_.empty()) {
    executor_.ClearPrecomputed();
    Precompute();
  }
}

void SamplerSession::BindGraph(const std::string& name, const sparse::Matrix* matrix) {
  GS_CHECK(!warmed_up_) << "cannot re-bind graph '" << name
                        << "' after Warmup(): the concurrent serving contract relies on "
                           "immutable bindings — open a new SamplerSession over the plan";
  GS_CHECK(matrix != nullptr);
  bindings_.named_graphs[name] = matrix;
  if (plan_->options().enable_preprocessing) {
    executor_.ClearPrecomputed();
    Precompute();
  }
}

void SamplerSession::EnsureCalibrated(const tensor::IdArray& frontier) {
  if (needs_precompute_) {
    Precompute();
    GS_CHECK(!needs_precompute_) << "pre-computation failed; missing bindings?";
  }
  if (plan_->calibrated()) {
    return;
  }
  std::vector<tensor::IdArray> calib(
      static_cast<size_t>(std::max(1, plan_->options().calibration_batches)), frontier);
  plan_->Calibrate(bindings_, calib, precomputed_, rng_);
}

std::vector<Value> SamplerSession::Sample(const tensor::IdArray& frontier) {
  EnsureCalibrated(frontier);
  Bindings b = bindings_;
  b.frontier = frontier;
  Rng rng = rng_.Fork(batch_counter_++);
  return executor_.Run(b, rng);
}

void SamplerSession::RunSuperBatch(const std::vector<tensor::IdArray>& group,
                                   int64_t first_index, const BatchCallback& callback) {
  const int64_t segments = static_cast<int64_t>(group.size());

  if (plan_->PureWalk()) {
    // Walk super-batch: concatenate the walkers, run once, split the traces
    // positionally.
    std::vector<int32_t> merged;
    std::vector<int64_t> offsets = {0};
    for (const tensor::IdArray& batch : group) {
      merged.insert(merged.end(), batch.data(), batch.data() + batch.size());
      offsets.push_back(static_cast<int64_t>(merged.size()));
    }
    Bindings bind = bindings_;
    bind.frontier = tensor::IdArray::FromVector(merged);
    Rng rng = rng_.Fork(batch_counter_);
    batch_counter_ += static_cast<uint64_t>(segments);
    std::vector<Value> outputs = executor_.Run(bind, rng);
    if (callback == nullptr) {
      return;
    }
    for (int64_t b = 0; b < segments; ++b) {
      std::vector<Value> batch_outputs;
      for (const Value& v : outputs) {
        GS_INTERNAL(v.kind == ValueKind::kIds);
        const int64_t len = offsets[b + 1] - offsets[b];
        tensor::IdArray part = tensor::IdArray::Empty(len);
        std::copy_n(v.ids.data() + offsets[b], len, part.data());
        batch_outputs.push_back(Value::OfIds(std::move(part)));
      }
      callback(first_index + b, batch_outputs);
    }
    return;
  }

  // Per-segment RNG streams forked at the same indices solo Sample() would
  // use, so a batch's result is independent of the super-batch grouping —
  // including the final partial group of an epoch.
  std::vector<Rng> segment_rngs;
  segment_rngs.reserve(static_cast<size_t>(segments));
  for (int64_t b = 0; b < segments; ++b) {
    segment_rngs.push_back(rng_.Fork(batch_counter_ + static_cast<uint64_t>(b)));
  }
  Rng rng = rng_.Fork(batch_counter_);
  batch_counter_ += static_cast<uint64_t>(segments);
  ExecuteLabeled(group, first_index, rng, segment_rngs, callback);
}

void SamplerSession::ExecuteLabeled(const std::vector<tensor::IdArray>& group,
                                    int64_t first_index, Rng& rng, std::span<Rng> segment_rngs,
                                    const BatchCallback& callback) const {
  const int64_t n = graph_->num_nodes();
  const int64_t segments = static_cast<int64_t>(group.size());

  // Label each mini-batch's frontiers into its own id space: b * N + v.
  std::vector<int32_t> labeled;
  for (int64_t b = 0; b < segments; ++b) {
    for (int64_t i = 0; i < group[static_cast<size_t>(b)].size(); ++i) {
      labeled.push_back(static_cast<int32_t>(b * n + group[static_cast<size_t>(b)][i]));
    }
  }

  Bindings bind = bindings_;
  bind.frontier = tensor::IdArray::FromVector(labeled);
  ExecOptions opts = executor_.options();
  opts.super_batch = true;
  opts.num_segments = segments;
  opts.graph_num_nodes = n;
  Executor seg_executor(plan_->program(), opts);
  for (const auto& [id, value] : precomputed_) {
    seg_executor.SetPrecomputed(id, value);
  }
  std::vector<Value> outputs = seg_executor.Run(bind, rng, segment_rngs);

  if (callback == nullptr) {
    return;
  }

  // One split per output for the whole group: a single kernel per matrix
  // output and a host pass per id output, whatever the segment count.
  std::vector<std::vector<Value>> batch_outputs(static_cast<size_t>(segments));
  for (const Value& v : outputs) {
    switch (v.kind) {
      case ValueKind::kIds: {
        std::vector<tensor::IdArray> parts = SplitLabeledIds(v.ids, n, segments);
        for (int64_t b = 0; b < segments; ++b) {
          batch_outputs[static_cast<size_t>(b)].push_back(
              Value::OfIds(std::move(parts[static_cast<size_t>(b)])));
        }
        break;
      }
      case ValueKind::kMatrix: {
        std::vector<sparse::Matrix> parts = sparse::SplitSegments(v.matrix, segments, n);
        for (int64_t b = 0; b < segments; ++b) {
          batch_outputs[static_cast<size_t>(b)].push_back(
              Value::OfMatrix(std::move(parts[static_cast<size_t>(b)])));
        }
        break;
      }
      case ValueKind::kTensor:
        GS_CHECK(false) << "super-batch programs cannot return raw tensors";
    }
  }
  for (int64_t b = 0; b < segments; ++b) {
    callback(first_index + b, batch_outputs[static_cast<size_t>(b)]);
  }
}

void SamplerSession::Warmup(const tensor::IdArray& frontier) {
  EnsureCalibrated(frontier);
  // A warmed-up session may serve concurrently; the shared plan must never
  // change underneath it.
  plan_->Freeze();
  warmed_up_ = true;
  // One throwaway execution materializes every lazily cached structure the
  // concurrent path would otherwise race to build: format conversions on
  // the (shared) base graph and on the pre-computed invariant matrices.
  if (Coalescable()) {
    SampleGrouped({frontier}, {uint64_t{0}}, nullptr);
  } else {
    (void)SampleSeeded(frontier, uint64_t{0});
  }
}

std::vector<Value> SamplerSession::SampleSeeded(const tensor::IdArray& frontier,
                                                uint64_t seed) const {
  GS_CHECK(warmed_up_) << "Warmup() must run before concurrent sampling";
  if (!Coalescable()) {
    Bindings b = bindings_;
    b.frontier = frontier;
    Rng rng = rng_.Fork(seed);
    return executor_.Run(b, rng);
  }
  // Always go through the one-segment super-batch path so a request's
  // results do not depend on whether it was coalesced with others.
  std::vector<Value> result;
  SampleGrouped({frontier}, {seed},
                [&result](int64_t, std::vector<Value>& outputs) { result = std::move(outputs); });
  return result;
}

void SamplerSession::SampleGrouped(const std::vector<tensor::IdArray>& group,
                                   const std::vector<uint64_t>& seeds,
                                   const BatchCallback& callback) const {
  GS_CHECK(Coalescable()) << "program cannot run with per-segment rng streams";
  GS_CHECK_EQ(group.size(), seeds.size()) << "one seed per group member";
  GS_CHECK(!group.empty());
  GS_CHECK(plan_->calibrated() && !needs_precompute_)
      << "Warmup() must run before SampleGrouped";
  std::vector<Rng> segment_rngs;
  segment_rngs.reserve(seeds.size());
  for (uint64_t seed : seeds) {
    segment_rngs.push_back(rng_.Fork(seed));
  }
  // All random draws route through the segment rngs (walk ops are excluded
  // by Coalescable); the shared rng is never consumed.
  Rng unused(uint64_t{0});
  ExecuteLabeled(group, 0, unused, segment_rngs, callback);
}

int64_t SamplerSession::ResidentBytes() const {
  auto matrix_bytes = [](const sparse::Matrix& m) {
    int64_t total = 0;
    if (!m.defined()) {
      return total;
    }
    if (m.HasFormat(sparse::Format::kCsc)) {
      const sparse::Compressed& c = m.Csc();
      total += c.indptr.bytes() + c.indices.bytes() + (c.values.defined() ? c.values.bytes() : 0);
    }
    if (m.HasFormat(sparse::Format::kCsr)) {
      const sparse::Compressed& c = m.Csr();
      total += c.indptr.bytes() + c.indices.bytes() + (c.values.defined() ? c.values.bytes() : 0);
    }
    if (m.HasFormat(sparse::Format::kCoo)) {
      const sparse::Coo& c = m.GetCoo();
      total += c.row.bytes() + c.col.bytes() + (c.values.defined() ? c.values.bytes() : 0);
    }
    if (m.has_row_ids()) {
      total += m.row_ids().bytes();
    }
    if (m.has_col_ids()) {
      total += m.col_ids().bytes();
    }
    return total;
  };
  int64_t total = 0;
  for (const auto& [id, value] : precomputed_) {
    switch (value.kind) {
      case ValueKind::kMatrix:
        total += matrix_bytes(value.matrix);
        break;
      case ValueKind::kTensor:
        total += value.tensor.defined() ? value.tensor.array().bytes() : 0;
        break;
      case ValueKind::kIds:
        total += value.ids.defined() ? value.ids.bytes() : 0;
        break;
    }
  }
  return total;
}

int SamplerSession::AutoTuneSuperBatch(const std::vector<tensor::IdArray>& batches) {
  // Grid search (Section 4.4): grow the super-batch geometrically while the
  // peak memory of a trial group stays within the budget AND per-batch
  // throughput keeps improving.
  device::CachingAllocator& allocator = device::Current().allocator();
  device::Stream& stream = device::Current().stream();
  int best = 1;
  double best_per_batch = -1.0;
  for (int b = 1; b <= static_cast<int>(batches.size()) && b <= 64; b *= 2) {
    // Two trial groups (disjoint where enough batches exist); score by the
    // worse reading so one lucky trial cannot lock in a bad size.
    double per_batch = 0.0;
    int64_t peak = 0;
    bool failed = false;
    for (int trial = 0; trial < 2 && !failed; ++trial) {
      const size_t begin = std::min(static_cast<size_t>(trial) * static_cast<size_t>(b),
                                    batches.size() - static_cast<size_t>(b));
      std::vector<tensor::IdArray> group(batches.begin() + static_cast<ptrdiff_t>(begin),
                                         batches.begin() + static_cast<ptrdiff_t>(begin + b));
      allocator.ResetPeak();
      const int64_t mem_before = allocator.stats().bytes_in_use;
      const int64_t t_before = stream.counters().virtual_ns;
      try {
        RunSuperBatch(group, 0, nullptr);
      } catch (const fault::TransientError&) {
        throw;  // the recovery ladder retries it; it says nothing about size b
      } catch (const Error& e) {
        GS_LOG(Warning) << "super-batch " << b << " failed: " << e.what();
        failed = true;
        break;
      }
      peak = std::max(peak, allocator.stats().peak_bytes_in_use - mem_before);
      per_batch = std::max(per_batch,
                           static_cast<double>(stream.counters().virtual_ns - t_before) /
                               static_cast<double>(b));
    }
    if (failed || peak > plan_->options().memory_budget_bytes) {
      break;
    }
    // Require a clear win to grow: a marginal reading must not lock in a
    // larger super-batch.
    if (best_per_batch < 0 || per_batch < best_per_batch * 0.95) {
      best_per_batch = per_batch;
      best = b;
    }
  }
  GS_LOG(Info) << "auto-tuned super-batch size: " << best;
  return best;
}

void SamplerSession::SampleEpoch(const tensor::IdArray& frontiers, int64_t batch_size,
                                 const BatchCallback& callback) {
  BatchProducer producer(*this, frontiers, batch_size);
  EpochBatch batch;
  while (producer.Next(&batch)) {
    if (callback != nullptr) {
      callback(batch.index, batch.outputs);
    }
  }
}

OptimizationReport SamplerSession::report() const {
  OptimizationReport r = plan_->report();
  r.precomputed_values = static_cast<int>(precomputed_.size());
  return r;
}

std::string SamplerSession::DebugString() const {
  std::ostringstream out;
  out << "SamplerSession(precomputed=" << precomputed_.size() << ", warmed_up=" << warmed_up_
      << ", tuned_super_batch=" << tuned_super_batch_ << ")\n"
      << plan_->DebugString();
  return out.str();
}

BatchProducer::BatchProducer(SamplerSession& session, const tensor::IdArray& frontiers,
                             int64_t batch_size)
    : session_(session) {
  GS_CHECK_GT(batch_size, 0);
  for (int64_t begin = 0; begin < frontiers.size(); begin += batch_size) {
    const int64_t end = std::min(frontiers.size(), begin + batch_size);
    tensor::IdArray batch = tensor::IdArray::Empty(end - begin);
    std::copy_n(frontiers.data() + begin, end - begin, batch.data());
    batches_.push_back(std::move(batch));
  }
  if (batches_.empty()) {
    return;
  }
  session_.EnsureCalibrated(batches_.front());

  const CompiledPlan& plan = session_.plan();
  group_size_ = plan.options().super_batch;
  if (!plan.SuperBatchEligible()) {
    group_size_ = 1;
  } else if (group_size_ == 0) {
    if (session_.tuned_super_batch_ == 0) {
      session_.tuned_super_batch_ = session_.AutoTuneSuperBatch(batches_);
      // Persist the tuning decision into the artifact so a saved plan skips
      // the grid search on reload (skipped once the plan is frozen).
      if (!plan.frozen()) {
        session_.plan_->set_tuned_super_batch(session_.tuned_super_batch_);
      }
    }
    group_size_ = session_.tuned_super_batch_;
  }
  group_size_ = std::max(group_size_, 1);
  // Calibration and auto-tuning may consume batch-counter indices; every
  // epoch batch j forks the session RNG at counter_base_ + j from here on
  // (grouping-independent — see RunSuperBatch), which is what Save/Resume
  // rely on.
  counter_base_ = session_.batch_counter_;
}

BatchProducer::Checkpoint BatchProducer::Save() const {
  Checkpoint cp;
  cp.delivered = static_cast<int64_t>(next_) - static_cast<int64_t>(ready_.size());
  cp.counter_base = counter_base_;
  cp.num_batches = num_batches();
  return cp;
}

void BatchProducer::Resume(const Checkpoint& checkpoint) {
  GS_CHECK(next_ == 0 && ready_.empty())
      << "Resume requires a fresh producer (no batches consumed yet)";
  GS_CHECK_EQ(checkpoint.num_batches, num_batches())
      << "checkpoint is for a different epoch partitioning";
  GS_CHECK_GE(checkpoint.delivered, 0);
  GS_CHECK_LE(checkpoint.delivered, num_batches());
  // Rewind to the enclosing super-batch boundary, pin the session's RNG
  // stream position to the checkpointed epoch base, then re-sample and
  // discard the batches the interrupted run already delivered from that
  // group. Re-pinning makes resume independent of how far this producer's
  // own calibration/auto-tuning advanced the counter.
  const int64_t boundary =
      checkpoint.delivered - checkpoint.delivered % static_cast<int64_t>(group_size_);
  counter_base_ = checkpoint.counter_base;
  next_ = static_cast<size_t>(boundary);
  session_.batch_counter_ = checkpoint.counter_base + static_cast<uint64_t>(boundary);
  EpochBatch discard;
  for (int64_t j = boundary; j < checkpoint.delivered; ++j) {
    GS_INTERNAL(Next(&discard));
  }
}

bool BatchProducer::Next(EpochBatch* out) {
  GS_CHECK(out != nullptr);
  if (ready_.empty()) {
    if (next_ >= batches_.size()) {
      return false;
    }
    if (group_size_ == 1) {
      EpochBatch batch;
      batch.index = static_cast<int64_t>(next_);
      batch.seeds = batches_[next_];
      batch.outputs = session_.Sample(batches_[next_]);
      ready_.push_back(std::move(batch));
      ++next_;
    } else {
      const size_t end = std::min(batches_.size(), next_ + static_cast<size_t>(group_size_));
      std::vector<tensor::IdArray> group(batches_.begin() + static_cast<ptrdiff_t>(next_),
                                         batches_.begin() + static_cast<ptrdiff_t>(end));
      session_.RunSuperBatch(group, static_cast<int64_t>(next_),
                             [&](int64_t index, std::vector<Value>& outputs) {
                               EpochBatch batch;
                               batch.index = index;
                               batch.seeds = batches_[static_cast<size_t>(index)];
                               batch.outputs = std::move(outputs);
                               ready_.push_back(std::move(batch));
                             });
      next_ = end;
    }
  }
  GS_INTERNAL(!ready_.empty());
  *out = std::move(ready_.front());
  ready_.pop_front();
  return true;
}

}  // namespace gs::core
