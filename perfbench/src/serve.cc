// serve-mutate: serving::Server over a mutating GraphStore, under an
// open-loop phase at a fixed rate, then a closed-loop phase with a fixed
// number of requests outstanding. One generator thread (this one) submits,
// reaps responses and applies a mutation batch at a fixed interval between
// submissions.

#include <algorithm>
#include <cmath>
#include <deque>
#include <future>
#include <limits>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "check.h"
#include "common/rng.h"
#include "device/device.h"
#include "dyn/mutation_gen.h"
#include "graph/datasets.h"
#include "graph/store.h"
#include "serving/server.h"
#include "workloads.h"

namespace perfbench {

namespace device = gs::device;
namespace serving = gs::serving;
namespace tensor = gs::tensor;

namespace {

constexpr const char* kAlgorithm = "GraphSAGE";
constexpr const char* kDataset = "PD";
constexpr double kScale = 1.0;
constexpr int64_t kSeedsPerRequest = 64;
constexpr int kTenants = 4;
// Closed phase: each tenant keeps this many requests outstanding, like a
// trainer with a prefetch queue of that depth.
constexpr int kPrefetchDepth = 2;
// Open phase: Poisson arrivals at this fixed rate, about a quarter of the
// closed-loop goodput on a 4-core host.
constexpr double kOpenRps = 600.0;
// One MutationBatch applied per interval. An Apply takes about 30 ms on the
// generator thread and delays the requests due meanwhile; at this interval
// that stays well under half of them even on a slow host.
constexpr auto kApplyInterval = std::chrono::milliseconds(300);
// Responses held for checking after each phase (they are checked when the
// phase has ended, so checking never delays the generator).
constexpr int kChecksPerPhase = 16;
// Checked requests keep their pinned snapshot alive; cap how many distinct
// epochs that holds.
constexpr int kCheckedEpochsPerPhase = 8;
// Closed-phase windows alternate traced / untraced in the traced run.
constexpr auto kTraceWindow = std::chrono::milliseconds(250);

const std::vector<int64_t>& Fanouts() {
  static const std::vector<int64_t> fanouts = {10, 5};
  return fanouts;
}

std::string Tenant(int i) { return "tenant-" + std::to_string(i % kTenants); }

// One set-up: device, dataset wrapped in a GraphStore, a started server,
// and one warm-up request per (plan key, tenant).
// Members are destroyed in reverse order: the server (which stops its
// workers) before the store it listens to, the device last.
struct ServeRig {
  std::unique_ptr<device::Device> device;
  std::unique_ptr<device::DeviceGuard> guard;
  std::unique_ptr<gs::graph::GraphStore> store;
  std::unique_ptr<serving::Server> server;
  tensor::IdArray train;
  double build_s = 0.0;
  double warmup_compile_ms = 0.0;
  double setup_s = 0.0;
};

std::unique_ptr<ServeRig> SetUp(Tracer& tracer) {
  auto rig = std::make_unique<ServeRig>();
  const Clock::time_point t0 = Clock::now();
  ScopedSpan setup_span(tracer, "setup", "loadgen");
  rig->device = std::make_unique<device::Device>(device::V100Sim());
  rig->guard = std::make_unique<device::DeviceGuard>(*rig->device);
  gs::graph::Graph graph;
  {
    ScopedSpan span(tracer, "graph.MakeDataset", "graph");
    graph = gs::graph::MakeDataset(kDataset, {.scale = kScale, .weighted = true});
  }
  rig->train = graph.train_ids();
  rig->build_s = SecondsBetween(t0, Clock::now());

  serving::ServerOptions options;
  options.num_workers = 2;
  options.serve_features = true;
  rig->server = std::make_unique<serving::Server>(options);
  {
    ScopedSpan span(tracer, "graph.GraphStore", "graph");
    rig->store = std::make_unique<gs::graph::GraphStore>(std::move(graph));
  }
  rig->server->RegisterEndpoint(serving::MakeDynamicEndpoint(kAlgorithm, kDataset, *rig->store));
  {
    ScopedSpan span(tracer, "serving.Start", "serving");
    rig->server->Start();
  }
  // Warm-up: the first request per plan key (full and shed fanouts) and per
  // tenant (feature-cache partitions are per tenant).
  for (const std::vector<int64_t>& fanouts : {Fanouts(), ShedFanouts(Fanouts())}) {
    for (int t = 0; t < kTenants; ++t) {
      serving::SampleRequest request;
      request.algorithm = kAlgorithm;
      request.dataset = kDataset;
      request.seeds = tensor::IdArray::FromVector(std::vector<int32_t>(
          rig->train.data(), rig->train.data() + std::min<int64_t>(kSeedsPerRequest,
                                                                    rig->train.size())));
      request.seed = static_cast<uint64_t>(t);
      request.fanouts = fanouts;
      request.tenant = Tenant(t);
      ScopedSpan span(tracer, "serving.warmup_request", "serving");
      const serving::SampleResponse response = rig->server->Submit(std::move(request)).get();
      rig->warmup_compile_ms += static_cast<double>(response.stages.compile_ns) / 1e6;
    }
  }
  rig->setup_s = SecondsBetween(t0, Clock::now());
  return rig;
}

enum class Phase { kOpen, kClosed };

struct InFlight {
  std::future<serving::SampleResponse> future;
  SentRequest sent;
  bool sampled = false;  // drawn for the 1-in-8 check sample
  Phase phase = Phase::kOpen;
  int slot = 0;
  Clock::time_point due;
  Clock::time_point submitted;
};

struct HeldCheck {
  SentRequest sent;
  serving::SampleResponse response;
};

// Everything the generator observes, across both phases.
struct Observed {
  // Open phase.
  std::vector<double> open_latency_ms;  // from due time; +inf for misses
  std::vector<double> late_ms;          // generator lateness per submission
  std::vector<double> queue_ms, execute_ms, scatter_ms, feature_ms;
  // Both phases.
  std::vector<double> submit_us;
  std::vector<double> apply_ms;
  double compile_ms_total = 0.0;
  double busy_ns = 0.0;  // worker time attributed per request (closed phase)
  int64_t requests = 0, missed = 0, shed = 0, rejected = 0;
  int64_t applies = 0, apply_failures = 0;
  // Closed phase.
  int64_t closed_ok = 0;  // full-fidelity kOk completed inside the phase
  int64_t closed_ok_traced = 0, closed_ok_untraced = 0;
  double traced_s = 0.0, untraced_s = 0.0;
  std::vector<HeldCheck> held;
};

class Generator {
 public:
  Generator(ServeRig& rig, const RunConfig& config, Tracer& tracer)
      : rig_(rig),
        tracer_(tracer),
        rng_(gs::Rng(config.seed).Fork(11)),
        check_rng_(gs::Rng(config.seed).Fork(12)),
        snapshot_(rig.store->Current()) {
    const gs::graph::Graph& g = snapshot_->graph();
    gs::dyn::MutationGenOptions gen;
    gen.seed = gs::Rng(config.seed).Fork(13).NextU64();
    gen.num_nodes = g.num_nodes();
    gen.adds_per_batch = 64;
    gen.removes_per_batch = 16;
    gen.feature_updates_per_batch = 8;
    gen.feature_dim = g.features().cols();
    gen.weighted = rig_.store->weighted();
    gen.skew = 0.8;
    mutations_ = std::make_unique<gs::dyn::MutationGen>(gen);
  }

  Observed& observed() { return obs_; }

  void RunOpen(double seconds) {
    BeginPhase(Phase::kOpen);
    ScopedSpan phase_span(tracer_, "loadgen.open", "loadgen");
    phase_span_ = phase_span.id();
    const Clock::time_point start = Clock::now();
    const Clock::time_point end = start + ToNs(seconds);
    next_apply_ = start + kApplyInterval;
    Clock::time_point due = start + ToNs(NextGap());
    for (;;) {
      const bool apply = next_apply_ < due;
      const Clock::time_point event = apply ? next_apply_ : due;
      if (event >= end) {
        break;
      }
      WaitUntil(event);
      if (apply) {
        Apply();
        next_apply_ += kApplyInterval;
        continue;
      }
      Submit(due, 0);
      due += ToNs(NextGap());
    }
    Drain();
  }

  void RunClosed(double seconds, bool alternate_tracing) {
    BeginPhase(Phase::kClosed);
    ScopedSpan phase_span(tracer_, "loadgen.closed", "loadgen");
    phase_span_ = phase_span.id();
    const bool trace_all = tracer_.enabled();
    const Clock::time_point start = Clock::now();
    phase_start_ = start;
    phase_end_ = start + ToNs(seconds);
    alternate_ = alternate_tracing;
    next_apply_ = start + kApplyInterval;
    for (int slot = 0; slot < kTenants * kPrefetchDepth; ++slot) {
      Submit(Clock::now(), slot);
    }
    for (;;) {
      const Clock::time_point now = Clock::now();
      if (now >= phase_end_) {
        break;
      }
      if (alternate_) {
        tracer_.set_enabled(trace_all && WindowTraced(now));
      }
      if (now >= next_apply_) {
        Apply();
        next_apply_ += kApplyInterval;
        continue;
      }
      bool reaped = false;
      for (size_t i = 0; i < in_flight_.size();) {
        if (Ready(in_flight_[i])) {
          const int slot = in_flight_[i].slot;
          Reap(i);
          Submit(Clock::now(), slot);
          reaped = true;
        } else {
          ++i;
        }
      }
      if (!reaped && !in_flight_.empty()) {
        in_flight_.front().future.wait_for(std::chrono::microseconds(100));
      }
    }
    tracer_.set_enabled(trace_all);
    Drain();
    if (alternate_) {
      const double window = std::chrono::duration<double>(kTraceWindow).count();
      for (int w = 0; w * window < seconds; ++w) {
        (w % 2 == 1 ? obs_.traced_s : obs_.untraced_s) += std::min(window, seconds - w * window);
      }
    }
    alternate_ = false;
  }

 private:
  static std::chrono::nanoseconds ToNs(double seconds) {
    return std::chrono::nanoseconds(static_cast<int64_t>(seconds * 1e9));
  }
  // Even windows untraced, odd windows traced.
  bool WindowTraced(Clock::time_point t) const {
    return (NsBetween(phase_start_, t) / std::chrono::nanoseconds(kTraceWindow).count()) % 2 == 1;
  }
  double NextGap() { return -std::log(1.0 - rng_.Uniform()) / kOpenRps; }

  static bool Ready(const InFlight& f) {
    return f.future.wait_for(std::chrono::seconds(0)) == std::future_status::ready;
  }

  // Reaps finished responses until `t`, sleeping in short steps.
  void WaitUntil(Clock::time_point t) {
    for (;;) {
      ReapReady();
      const Clock::time_point now = Clock::now();
      if (now >= t) {
        return;
      }
      std::this_thread::sleep_for(std::min<Clock::duration>(t - now, std::chrono::microseconds(100)));
    }
  }

  void ReapReady() {
    for (size_t i = 0; i < in_flight_.size();) {
      if (Ready(in_flight_[i])) {
        Reap(i);
      } else {
        ++i;
      }
    }
  }

  void BeginPhase(Phase phase) {
    phase_ = phase;
    held_this_phase_ = 0;
    held_epochs_this_phase_ = 0;
    last_checked_snapshot_.reset();
  }

  // Waits for every request still in flight; in the closed phase only
  // completions before the phase end count toward goodput (Reap decides).
  void Drain() {
    while (!in_flight_.empty()) {
      in_flight_.front().future.wait();
      Reap(0);
    }
  }

  void Apply() {
    const gs::graph::MutationBatch batch = mutations_->Next();
    ScopedSpan span(tracer_, "dyn.GraphStore::Apply", "dyn");
    const Clock::time_point t0 = Clock::now();
    ++obs_.applies;
    try {
      snapshot_ = rig_.store->Apply(batch);
    } catch (const std::exception&) {
      ++obs_.apply_failures;
    }
    obs_.apply_ms.push_back(SecondsBetween(t0, Clock::now()) * 1e3);
  }

  void Submit(Clock::time_point due, int slot) {
    InFlight f;
    f.phase = phase_;
    f.slot = slot;
    f.due = due;
    std::vector<int32_t> seeds(kSeedsPerRequest);
    for (int32_t& s : seeds) {
      s = rig_.train[static_cast<int64_t>(rng_.UniformInt(static_cast<uint64_t>(rig_.train.size())))];
    }
    f.sent.seeds = tensor::IdArray::FromVector(seeds);
    f.sent.seed = rng_.NextU64();
    f.sent.fanouts = Fanouts();
    f.sampled = check_rng_.UniformInt(8) == 0;
    f.sent.snapshot = snapshot_;

    serving::SampleRequest request;
    request.algorithm = kAlgorithm;
    request.dataset = kDataset;
    request.seeds = f.sent.seeds;
    request.seed = f.sent.seed;
    request.fanouts = f.sent.fanouts;
    request.tenant = Tenant(phase_ == Phase::kOpen ? static_cast<int>(submitted_) : slot);
    ++submitted_;
    f.submitted = Clock::now();
    {
      ScopedSpan span(tracer_, "serving.Submit", "serving");
      f.future = rig_.server->Submit(std::move(request));
    }
    const Clock::time_point after = Clock::now();
    obs_.submit_us.push_back(static_cast<double>(NsBetween(f.submitted, after)) / 1e3);
    if (phase_ == Phase::kOpen) {
      obs_.late_ms.push_back(static_cast<double>(NsBetween(due, f.submitted)) / 1e6);
    }
    in_flight_.push_back(std::move(f));
  }

  // Which kOk responses to hold for checking: every shed one and the
  // sampled ones, up to the per-phase caps on responses and on the epochs
  // kept alive for them.
  bool HoldForCheck(const InFlight& f, const serving::SampleResponse& response) {
    if (response.status != serving::Status::kOk || !(f.sampled || response.degraded) ||
        held_this_phase_ >= kChecksPerPhase) {
      return false;
    }
    if (f.sent.snapshot != last_checked_snapshot_) {
      if (held_epochs_this_phase_ >= kCheckedEpochsPerPhase) {
        return false;
      }
      ++held_epochs_this_phase_;
      last_checked_snapshot_ = f.sent.snapshot;
    }
    ++held_this_phase_;
    return true;
  }

  void Reap(size_t index) {
    InFlight f = std::move(in_flight_[index]);
    in_flight_.erase(in_flight_.begin() + static_cast<std::ptrdiff_t>(index));
    serving::SampleResponse response = f.future.get();
    const serving::StageBreakdown& st = response.stages;
    const Clock::time_point done = f.submitted + std::chrono::nanoseconds(st.total_ns);
    const bool ok = response.status == serving::Status::kOk;
    const bool full = ok && !response.degraded;
    ++obs_.requests;
    if (!full) {
      ++obs_.missed;
    }
    if (ok && response.degraded) {
      ++obs_.shed;
    }
    if (response.status == serving::Status::kRejected) {
      ++obs_.rejected;
    }
    if (ok) {
      obs_.compile_ms_total += static_cast<double>(st.compile_ns) / 1e6;
    }
    const double group = static_cast<double>(std::max(1, response.group_size));
    if (f.phase == Phase::kOpen) {
      obs_.open_latency_ms.push_back(
          full ? static_cast<double>(NsBetween(f.due, done)) / 1e6
               : std::numeric_limits<double>::infinity());
      if (ok) {
        obs_.queue_ms.push_back(static_cast<double>(st.queue_wait_ns) / 1e6);
        obs_.execute_ms.push_back(static_cast<double>(st.execute_ns) / 1e6);
        obs_.scatter_ms.push_back(static_cast<double>(st.scatter_ns) / 1e6);
        obs_.feature_ms.push_back(static_cast<double>(st.feature_ns) / 1e6);
      }
    } else if (ok) {
      // Worker time: group-shared stages split across the group's members.
      obs_.busy_ns += static_cast<double>(st.compile_ns + st.execute_ns + st.scatter_ns) / group +
                      static_cast<double>(st.feature_ns);
      if (full && done <= phase_end_) {
        ++obs_.closed_ok;
        if (alternate_) {
          ++(WindowTraced(done) ? obs_.closed_ok_traced : obs_.closed_ok_untraced);
        }
      }
    }
    RecordSpans(f, response);
    if (HoldForCheck(f, response)) {
      obs_.held.push_back({std::move(f.sent), std::move(response)});
    }
  }

  // The request's span and its children, rebuilt from the stage breakdown
  // in the order the server runs the stages.
  void RecordSpans(const InFlight& f, const serving::SampleResponse& response) {
    if (!tracer_.enabled()) {
      return;
    }
    const serving::StageBreakdown& st = response.stages;
    const uint64_t req = response.request_id;
    const int64_t start = tracer_.Offset(f.submitted);
    const uint64_t root =
        tracer_.Add("serving.request", "serving", start, start + st.total_ns, phase_span_, req);
    int64_t t = start;
    auto child = [&](const char* name, const char* layer, int64_t ns) {
      if (ns > 0) {
        tracer_.Add(name, layer, t, t + ns, root, req);
        t += ns;
      }
    };
    child("serving.queue", "serving", st.queue_wait_ns);
    child("core.compile", "core", st.compile_ns);
    child("core.execute", "core", st.execute_ns);
    child("serving.scatter", "serving", st.scatter_ns);
    child("feature.gather", "feature", st.feature_ns);
  }

  ServeRig& rig_;
  Tracer& tracer_;
  gs::Rng rng_;
  gs::Rng check_rng_;
  std::unique_ptr<gs::dyn::MutationGen> mutations_;
  std::shared_ptr<const gs::graph::Snapshot> snapshot_;
  std::shared_ptr<const gs::graph::Snapshot> last_checked_snapshot_;
  std::deque<InFlight> in_flight_;
  Observed obs_;
  Phase phase_ = Phase::kOpen;
  uint64_t phase_span_ = 0;
  Clock::time_point phase_start_{};
  Clock::time_point phase_end_ = Clock::time_point::max();
  Clock::time_point next_apply_{};
  bool alternate_ = false;
  int held_this_phase_ = 0;
  int held_epochs_this_phase_ = 0;
  int64_t submitted_ = 0;
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace

RunResult RunServeWorkload(const RunConfig& config, Tracer& tracer) {
  RunResult result;
  tracer.set_enabled(config.trace);
  const std::unique_ptr<ServeRig> rig = SetUp(tracer);
  serving::Server& server = *rig->server;
  device::CachingAllocator& allocator = rig->device->allocator();
  allocator.ResetPeak();
  const device::AllocatorStats alloc0 = allocator.stats();
  const serving::ServerStats s0 = server.stats();
  const gs::graph::GraphStoreStats g0 = rig->store->stats();

  // --- Measured phases: open loop, then closed loop. ---
  Generator gen(*rig, config, tracer);
  const double open_s = config.seconds / 2;
  const double closed_s = config.seconds - open_s;
  gen.RunOpen(open_s);
  const serving::ServerStats s1 = server.stats();
  gen.RunClosed(closed_s, config.trace);
  tracer.set_enabled(false);
  server.DrainRecompiles();
  const serving::ServerStats s2 = server.stats();
  const device::AllocatorStats alloc2 = allocator.stats();
  const gs::graph::GraphStoreStats g2 = rig->store->stats();
  Observed& obs = gen.observed();

  // --- Check the held responses against the eager reference. ---
  {
    ServingReference reference(gs::core::SamplerOptions{});
    for (const HeldCheck& h : obs.held) {
      std::string what = "request " + std::to_string(h.response.request_id) + " (epoch " +
                         std::to_string(h.sent.snapshot->epoch()) + ")";
      if (h.response.degraded) {
        what += " (shed)";
      }
      if (h.response.group_size > 1) {
        what += " (coalesced x" + std::to_string(h.response.group_size) + ")";
      }
      result.check.Record(what, CheckResponse(h.response, h.sent, h.sent.snapshot->graph(), reference));
    }
    obs.held.clear();
  }

  // --- Metrics. ---
  result.attempted = obs.requests + obs.applies;
  result.failed = obs.missed + obs.apply_failures;
  const double apply_p = std::min(90.0, TailPercentileFor(static_cast<int64_t>(obs.apply_ms.size())));
  const double goodput = obs.closed_ok / closed_s;
  result.notes.push_back(
      "open_requests=" + std::to_string(obs.open_latency_ms.size()) + " at " +
      std::to_string(static_cast<int>(kOpenRps)) + "/s (p99 needs 1000) closed_ok=" + std::to_string(obs.closed_ok) +
      " requests=" + std::to_string(obs.requests) + " applies=" + std::to_string(obs.applies) +
      " apply_tail=p" + std::to_string(static_cast<int>(apply_p)));

  result.Add("setup_s", rig->setup_s, "s");
  result.Add("peak_rss_mb", PeakRssMb(), "MB");
  result.Add("ok_frac", 1.0 - Ratio(static_cast<double>(result.failed),
                                    static_cast<double>(result.attempted)),
             "fraction");
  result.Add("seeds_per_s", goodput * kSeedsPerRequest, "1/s");
  result.Add("loadgen.p50_ms", Percentile(obs.open_latency_ms, 50), "ms");
  result.Add("loadgen.p99_ms", WindowedPercentile(obs.open_latency_ms, 99), "ms");

  result.Add("graph.build_s", rig->build_s, "s");
  result.Add("core.compile_ms", rig->warmup_compile_ms, "ms");

  result.Add("device.alloc_peak_mb", static_cast<double>(alloc2.peak_bytes_in_use) / 1e6, "MB");
  result.Add("device.alloc_hit_ratio",
             Ratio(static_cast<double>(alloc2.cache_hits - alloc0.cache_hits),
                   static_cast<double>(alloc2.alloc_calls - alloc0.alloc_calls)),
             "fraction");

  const double feature_rows = static_cast<double>(s2.feature_rows - s0.feature_rows);
  result.Add("feature.hit_ratio",
             Ratio(static_cast<double>(s2.feature_cache_hits - s0.feature_cache_hits),
                   feature_rows),
             "fraction");
  result.Add("feature.gather_p50_ms", Percentile(obs.feature_ms, 50), "ms");
  result.Add("feature.gather_p99_ms", Percentile(obs.feature_ms, 99), "ms");
  result.Add("feature.miss_kb_per_request",
             Ratio(static_cast<double>(s2.feature_miss_bytes - s0.feature_miss_bytes) / 1e3,
                   static_cast<double>(s2.feature_requests - s0.feature_requests)),
             "KB");

  result.Add("serving.submit_p50_us", Percentile(obs.submit_us, 50), "us");
  result.Add("serving.queue_p50_ms", Percentile(obs.queue_ms, 50), "ms");
  result.Add("serving.queue_p99_ms", Percentile(obs.queue_ms, 99), "ms");
  result.Add("serving.execute_p50_ms", Percentile(obs.execute_ms, 50), "ms");
  result.Add("serving.execute_p99_ms", Percentile(obs.execute_ms, 99), "ms");
  result.Add("serving.scatter_p50_ms", Percentile(obs.scatter_ms, 50), "ms");
  result.Add("serving.coalescing_ratio",
             Ratio(static_cast<double>(s2.requests_executed - s1.requests_executed),
                   static_cast<double>(s2.executions - s1.executions)),
             "ratio");
  result.Add("serving.worker_busy_frac", Ratio(obs.busy_ns / 1e9, 2 * closed_s), "fraction");
  result.Add("serving.shed_frac",
             Ratio(static_cast<double>(obs.shed), static_cast<double>(obs.requests)), "fraction");
  result.Add("serving.rejected_frac",
             Ratio(static_cast<double>(obs.rejected), static_cast<double>(obs.requests)),
             "fraction");
  const double hits = static_cast<double>(s2.plan_cache_hits - s0.plan_cache_hits);
  const double misses = static_cast<double>(s2.plan_cache_misses - s0.plan_cache_misses);
  result.Add("serving.plan_cache_hit_ratio", Ratio(hits, hits + misses), "fraction");
  result.Add("serving.compile_ms_total", obs.compile_ms_total, "ms");
  result.Add("closed.goodput_rps", goodput, "1/s");

  result.Add("dyn.epochs", static_cast<double>(s2.graph_epochs - s0.graph_epochs), "count");
  result.Add("dyn.plan_reuses", static_cast<double>(s2.plan_reuses - s0.plan_reuses), "count");
  result.Add("dyn.recompiles_inline",
             static_cast<double>(s2.recompiles_inline - s0.recompiles_inline), "count");
  result.Add("dyn.recompiles_background",
             static_cast<double>(s2.recompiles_background - s0.recompiles_background), "count");
  result.Add("dyn.stale_plans_served",
             static_cast<double>(s2.stale_plans_served - s0.stale_plans_served), "count");
  const double rebuilt = static_cast<double>(g2.segments_rebuilt - g0.segments_rebuilt);
  const double reused = static_cast<double>(g2.segments_reused - g0.segments_reused);
  result.Add("dyn.segments_rebuilt_ratio", Ratio(rebuilt, rebuilt + reused), "fraction");
  // Un-sealed delta-log batches at the end: every Apply materializes them.
  result.Add("dyn.delta_entries", static_cast<double>(g2.delta_entries), "count");
  result.Add("dyn.feature_invalidations",
             static_cast<double>(s2.feature_invalidations - s0.feature_invalidations), "count");
  result.Add("apply.p50_ms", Percentile(obs.apply_ms, 50), "ms");
  result.Add("apply.p90_ms", Percentile(obs.apply_ms, apply_p), "ms");

  result.Add("loadgen.late_p99_ms", Percentile(obs.late_ms, 99), "ms");
  result.Add("loadgen.late_max_ms", Percentile(obs.late_ms, 100), "ms");
  result.Add("trace.overhead_frac",
             config.trace && obs.closed_ok_traced > 0 && obs.untraced_s > 0
                 ? Ratio(obs.closed_ok_untraced / obs.untraced_s,
                         obs.closed_ok_traced / obs.traced_s) -
                       1.0
                 : 0.0,
             "fraction");
  return result;
}

}  // namespace perfbench
