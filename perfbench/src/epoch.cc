// epoch-sage / epoch-ladies: back-to-back sampling epochs through
// core::BatchProducer, the way a trainer pulls mini-batches.

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "algorithms/algorithms.h"
#include "check.h"
#include "common/rng.h"
#include "core/engine.h"
#include "device/device.h"
#include "graph/datasets.h"
#include "oracle/oracle.h"
#include "workloads.h"

namespace perfbench {

namespace core = gs::core;
namespace device = gs::device;
namespace tensor = gs::tensor;

namespace {

// Model-clock metrics average this many measured epochs, a fixed set, so
// they are identical across runs with the same seed and tuner pick.
constexpr int kModelEpochs = 8;
// Batches checked against the eager reference per run (one per epoch).
constexpr int kCheckedBatches = 8;

// One set-up: a fresh simulated V100, the dataset, the compiled plan and a
// session that has run its warm-up epoch (calibration + super-batch tuning).
// Members are destroyed in reverse order, the device last.
struct EpochRig {
  std::unique_ptr<device::Device> device;
  std::unique_ptr<device::DeviceGuard> guard;
  gs::graph::Graph graph;
  std::shared_ptr<core::CompiledPlan> plan;
  std::unique_ptr<core::SamplerSession> session;
  double build_s = 0.0;
  double compile_ms = 0.0;
  double tune_ms = 0.0;
  double setup_s = 0.0;
};

// A seeded permutation of the graph's train ids.
tensor::IdArray Permutation(const gs::graph::Graph& g, gs::Rng rng) {
  std::vector<int32_t> ids = g.train_ids().ToVector();
  for (size_t i = ids.size(); i > 1; --i) {
    std::swap(ids[i - 1], ids[rng.UniformInt(i)]);
  }
  return tensor::IdArray::FromVector(ids);
}

core::SamplerOptions EpochOptions(const EpochSpec& spec) {
  core::SamplerOptions options;
  options.super_batch = spec.super_batch;
  return options;
}

std::unique_ptr<EpochRig> SetUp(const EpochSpec& spec, uint64_t seed, Tracer& tracer) {
  auto rig = std::make_unique<EpochRig>();
  const Clock::time_point t0 = Clock::now();
  ScopedSpan setup_span(tracer, "setup", "loadgen");
  rig->device = std::make_unique<device::Device>(device::V100Sim());
  rig->guard = std::make_unique<device::DeviceGuard>(*rig->device);
  {
    ScopedSpan span(tracer, "graph.MakeDataset", "graph");
    rig->graph = gs::graph::MakeDataset(spec.dataset, {.scale = spec.scale, .weighted = true});
  }
  const Clock::time_point t1 = Clock::now();
  gs::algorithms::AlgorithmProgram ap = gs::algorithms::MakeAlgorithm(spec.algorithm, rig->graph);
  {
    ScopedSpan span(tracer, "core.CompiledPlan", "core");
    rig->plan = std::make_shared<core::CompiledPlan>(std::move(ap.program), EpochOptions(spec),
                                                     spec.algorithm);
  }
  rig->session = std::make_unique<core::SamplerSession>(rig->plan, rig->graph,
                                                        std::move(ap.tensors));
  const Clock::time_point t2 = Clock::now();
  // Warm-up epoch: its producer calibrates layouts and tunes the
  // super-batch size, then the epoch runs once untimed.
  const tensor::IdArray warm = Permutation(rig->graph, gs::Rng(seed).Fork(0));
  Clock::time_point t3 = t2;
  {
    ScopedSpan span(tracer, "core.BatchProducer(calibrate+tune)", "core");
    core::BatchProducer producer(*rig->session, warm, spec.batch_size);
    t3 = Clock::now();
    core::EpochBatch batch;
    ScopedSpan drain(tracer, "core.warmup_epoch", "core");
    while (producer.Next(&batch)) {
    }
  }
  const Clock::time_point t4 = Clock::now();
  rig->build_s = SecondsBetween(t0, t1);
  rig->compile_ms = SecondsBetween(t1, t2) * 1e3;
  rig->tune_ms = SecondsBetween(t2, t3) * 1e3;
  rig->setup_s = SecondsBetween(t0, t4);
  return rig;
}

// The size the producer groups batches by: the spec's fixed size or the
// tuner's pick (1 for programs that cannot be super-batched).
int GroupSize(const EpochRig& rig, const EpochSpec& spec) {
  if (!rig.plan->SuperBatchEligible()) {
    return 1;
  }
  return spec.super_batch > 0 ? spec.super_batch
                              : std::max(1, rig.session->effective_super_batch());
}

struct KeptBatch {
  tensor::IdArray frontiers;  // the epoch's permutation
  core::BatchProducer::Checkpoint checkpoint;
  core::EpochBatch batch;
};

// What the measured epochs add up to.
struct EpochTotals {
  std::vector<double> traced_ms, untraced_ms, next_ms, batch_ms;
  int64_t epochs = 0, seeds = 0, batches = 0, model_batches = 0;
  double wall_s = 0.0;
  device::StreamCounters model{};  // the first kModelEpochs epochs
  device::StreamCounters all{};    // every measured epoch
  double alloc_peak_mb = 0.0;
  int64_t alloc_calls = 0, alloc_hits = 0, uva_hits = 0, uva_lookups = 0;
};

void Accumulate(device::StreamCounters& acc, const device::StreamCounters& a,
                const device::StreamCounters& b) {
  acc.kernels_launched += b.kernels_launched - a.kernels_launched;
  acc.model_ns += b.model_ns - a.model_ns;
  acc.cpu_ns += b.cpu_ns - a.cpu_ns;
  acc.virtual_ns += b.virtual_ns - a.virtual_ns;
  acc.hbm_bytes += b.hbm_bytes - a.hbm_bytes;
  acc.pcie_bytes += b.pcie_bytes - a.pcie_bytes;
  acc.occupancy_ns += b.occupancy_ns - a.occupancy_ns;
}

// Runs back-to-back epochs for the configured seconds (at least
// kModelEpochs), then checks the batches it kept.
void Measure(EpochRig& rig, const EpochSpec& spec, const RunConfig& config, Tracer& tracer,
             EpochTotals& totals, RunResult& result) {
  core::SamplerSession& session = *rig.session;
  device::Stream& stream = rig.device->stream();
  device::CachingAllocator& allocator = rig.device->allocator();
  gs::feature::HotSetCache* uva = rig.graph.uva_cache();
  // Batches per super-batch group: the first Next() of a group samples the
  // whole group, the rest pop buffered batches.
  const size_t group = static_cast<size_t>(GroupSize(rig, spec));

  allocator.ResetPeak();
  const device::AllocatorStats alloc_before = allocator.stats();
  const gs::feature::HotSetCacheStats uva_before =
      uva != nullptr ? uva->stats() : gs::feature::HotSetCacheStats{};
  std::vector<KeptBatch> kept;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::nanoseconds(static_cast<int64_t>(config.seconds * 1e9));
  for (int epoch = 1;; ++epoch) {
    if (epoch > kModelEpochs && Clock::now() >= deadline) {
      break;
    }
    ++totals.epochs;
    const tensor::IdArray perm = Permutation(rig.graph, gs::Rng(config.seed).Fork(epoch));
    const int64_t num_batches = (perm.size() + spec.batch_size - 1) / spec.batch_size;
    const int64_t check_at =
        epoch <= kCheckedBatches ? static_cast<int64_t>(gs::Rng(config.seed).Fork(1000 + epoch).UniformInt(
                          static_cast<uint64_t>(num_batches)))
                    : -1;
    // The traced run alternates traced and untraced epochs, so the tracing
    // overhead is measured under the same host conditions.
    const bool traced = config.trace && epoch % 2 == 0;
    tracer.set_enabled(traced);
    const device::StreamCounters before = stream.counters();
    const Clock::time_point t0 = Clock::now();
    int64_t delivered = 0;
    std::vector<double> next_ms;
    {
      ScopedSpan epoch_span(tracer, "loadgen.epoch", "loadgen");
      try {
        core::BatchProducer producer(session, perm, spec.batch_size);
        const core::BatchProducer::Checkpoint base = producer.Save();
        for (;;) {
          core::EpochBatch batch;
          const Clock::time_point n0 = Clock::now();
          bool more = false;
          {
            ScopedSpan next_span(tracer, "core.BatchProducer::Next", "core");
            more = producer.Next(&batch);
          }
          if (!more) {
            break;
          }
          next_ms.push_back(SecondsBetween(n0, Clock::now()) * 1e3);
          if (batch.index == check_at) {
            kept.push_back({perm, base, std::move(batch)});
          }
          ++delivered;
        }
      } catch (const std::exception& e) {
        result.notes.push_back(std::string("epoch failed: ") + e.what());
      }
    }
    const Clock::time_point t1 = Clock::now();
    const device::StreamCounters after = stream.counters();
    tracer.set_enabled(false);

    // A mini-batch's latency: its group's sampling time, amortized over
    // the group's batches.
    totals.next_ms.insert(totals.next_ms.end(), next_ms.begin(), next_ms.end());
    for (size_t begin = 0; begin < next_ms.size(); begin += group) {
      const size_t end = std::min(next_ms.size(), begin + group);
      double sum = 0.0;
      for (size_t b = begin; b < end; ++b) {
        sum += next_ms[b];
      }
      totals.batch_ms.insert(totals.batch_ms.end(), end - begin,
                             sum / static_cast<double>(end - begin));
    }
    const double ms = SecondsBetween(t0, t1) * 1e3;
    (traced ? totals.traced_ms : totals.untraced_ms).push_back(ms);
    totals.wall_s += ms / 1e3;
    totals.seeds += perm.size();
    totals.batches += delivered;
    result.attempted += num_batches;
    result.failed += num_batches - delivered;
    Accumulate(totals.all, before, after);
    if (epoch <= kModelEpochs) {
      Accumulate(totals.model, before, after);
      totals.model_batches += delivered;
    }
  }
  const device::AllocatorStats alloc_after = allocator.stats();
  totals.alloc_peak_mb = static_cast<double>(alloc_after.peak_bytes_in_use) / 1e6;
  totals.alloc_calls = alloc_after.alloc_calls - alloc_before.alloc_calls;
  totals.alloc_hits = alloc_after.cache_hits - alloc_before.cache_hits;
  if (uva != nullptr) {
    const gs::feature::HotSetCacheStats uva_after = uva->stats();
    totals.uva_hits = uva_after.hits - uva_before.hits;
    totals.uva_lookups = uva_after.hits - uva_before.hits + uva_after.misses - uva_before.misses;
  }

  // Check the kept batches against the eager reference: a reference
  // session resumed at each batch's epoch position draws from the same RNG
  // stream (counter_base + j) as the optimized run did.
  gs::algorithms::AlgorithmProgram ap = gs::algorithms::MakeAlgorithm(spec.algorithm, rig.graph);
  auto plan = std::make_shared<core::CompiledPlan>(
      std::move(ap.program), gs::oracle::ReferenceOptions(EpochOptions(spec)), spec.algorithm);
  core::SamplerSession reference(plan, rig.graph, std::move(ap.tensors));
  for (KeptBatch& k : kept) {
    core::BatchProducer producer(reference, k.frontiers, spec.batch_size);
    producer.Resume({.delivered = k.batch.index,
                     .counter_base = k.checkpoint.counter_base,
                     .num_batches = k.checkpoint.num_batches});
    core::EpochBatch want;
    std::string why;
    if (!producer.Next(&want) || want.index != k.batch.index) {
      why = "reference producer did not yield the batch";
    } else if (want.seeds.ToVector() != k.batch.seeds.ToVector()) {
      why = "batch seeds differ";
    } else {
      why = CompareFingerprints(FingerprintOf(k.batch.outputs), FingerprintOf(want.outputs));
    }
    result.check.Record("batch " + std::to_string(k.batch.index) + " (super-batch " +
                            std::to_string(group) + ")",
                        why);
  }
}

}  // namespace

RunResult RunEpochWorkload(const RunConfig& config, const EpochSpec& spec, Tracer& tracer) {
  RunResult result;
  tracer.set_enabled(config.trace);
  const std::unique_ptr<EpochRig> rig = SetUp(spec, config.seed, tracer);
  const int pick = GroupSize(*rig, spec);
  EpochTotals totals;
  Measure(*rig, spec, config, tracer, totals, result);

  result.notes.push_back("epochs=" + std::to_string(totals.epochs) + " batches=" +
                         std::to_string(totals.batches) +
                         " super_batch=" + std::to_string(pick));
  result.Add("setup_s", rig->setup_s, "s");
  result.Add("peak_rss_mb", PeakRssMb(), "MB");
  result.Add("ok_frac",
             result.attempted > 0
                 ? 1.0 - static_cast<double>(result.failed) / static_cast<double>(result.attempted)
                 : 0.0,
             "fraction");
  result.Add("seeds_per_s",
             totals.wall_s > 0 ? static_cast<double>(totals.seeds) / totals.wall_s : 0.0, "1/s");
  result.Add("loadgen.p50_ms", Percentile(totals.batch_ms, 50), "ms");
  result.Add("loadgen.p99_ms", WindowedPercentile(totals.batch_ms, 99), "ms");

  result.Add("graph.build_s", rig->build_s, "s");
  result.Add("core.compile_ms", rig->compile_ms, "ms");
  result.Add("core.ir_nodes", rig->plan->program().size(), "count");
  result.Add("core.calibrate_tune_ms", rig->tune_ms, "ms");
  result.Add("core.super_batch", pick, "count");
  result.Add("core.next_p50_ms", Percentile(totals.next_ms, 50), "ms");
  result.Add("core.next_p99_ms", Percentile(totals.next_ms, 99), "ms");

  const device::StreamCounters& model = totals.model;
  const double mb = static_cast<double>(std::max<int64_t>(totals.model_batches, 1));
  result.Add("device.model_ms_per_epoch",
             static_cast<double>(model.model_ns) / 1e6 / kModelEpochs, "ms");
  result.Add("device.kernels_per_batch", static_cast<double>(model.kernels_launched) / mb,
             "count");
  result.Add("device.model_us_per_batch", static_cast<double>(model.model_ns) / 1e3 / mb, "us");
  result.Add("device.hbm_mb_per_batch", static_cast<double>(model.hbm_bytes) / 1e6 / mb, "MB");
  result.Add("device.pcie_mb_per_batch", static_cast<double>(model.pcie_bytes) / 1e6 / mb,
             "MB");
  result.Add("device.sm_pct", model.SmUtilizationPercent(), "%");
  const device::StreamCounters& all = totals.all;
  result.Add("device.host_ns_per_kernel",
             all.kernels_launched > 0
                 ? static_cast<double>(all.cpu_ns) / static_cast<double>(all.kernels_launched)
                 : 0.0,
             "ns");
  result.Add("device.alloc_peak_mb", totals.alloc_peak_mb, "MB");
  result.Add("device.alloc_hit_ratio",
             totals.alloc_calls > 0 ? static_cast<double>(totals.alloc_hits) /
                                          static_cast<double>(totals.alloc_calls)
                                    : 0.0,
             "fraction");
  result.Add("feature.uva_hit_ratio",
             totals.uva_lookups > 0 ? static_cast<double>(totals.uva_hits) /
                                          static_cast<double>(totals.uva_lookups)
                                    : 0.0,
             "fraction");
  result.Add("trace.overhead_frac",
             config.trace && !totals.traced_ms.empty() && !totals.untraced_ms.empty()
                 ? Median(totals.traced_ms) / Median(totals.untraced_ms) - 1.0
                 : 0.0,
             "fraction");
  return result;
}

}  // namespace perfbench
