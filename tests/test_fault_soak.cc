// Chaos soak: a live multi-worker server under a seeded fault schedule.
//
// The acceptance criteria of the gs::fault work, end to end: with faults
// injected at every site (kernel launches, allocations, a stuck kernel, UVA
// transfers), the serving recovery ladder must keep the service alive —
// every submitted request gets exactly one terminal response, no worker
// dies, successful responses are bit-identical to a fault-free run, and
// allocator accounting shows no drift once the server is gone.
//
// Labeled "chaos" (excluded from `ctest -L fast`); under GS_SANITIZE=thread
// this is the fault-path TSan workout (tools/check.sh chaos).

#include <gtest/gtest.h>

#include <cstdint>
#include <future>
#include <string>
#include <utility>
#include <vector>

#include "algorithms/algorithms.h"
#include "common/rng.h"
#include "core/engine.h"
#include "device/device.h"
#include "fault/fault.h"
#include "fault/status.h"
#include "graph/generator.h"
#include "graph/graph.h"
#include "serving/request.h"
#include "serving/server.h"
#include "serving/stats.h"
#include "tests/testing.h"

namespace gs::fault {
namespace {

struct Workload {
  serving::SampleRequest request;
  std::vector<core::Value> expected;  // fault-free reference outputs
};

void ExpectValuesEqual(const std::vector<core::Value>& got,
                       const std::vector<core::Value>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].kind, want[i].kind);
    switch (got[i].kind) {
      case core::ValueKind::kIds:
        EXPECT_EQ(got[i].ids.ToVector(), want[i].ids.ToVector());
        break;
      case core::ValueKind::kMatrix:
        // Canonical digest: the sorted global edge set, independent of the
        // matrix's storage layout (faults perturb timing, which may change
        // which format got materialized — never the edges).
        EXPECT_EQ(testing::EdgeSet(got[i].matrix), testing::EdgeSet(want[i].matrix));
        break;
      case core::ValueKind::kTensor:
        ASSERT_EQ(got[i].tensor.shape(), want[i].tensor.shape());
        EXPECT_EQ(got[i].tensor.array().ToVector(), want[i].tensor.array().ToVector());
        break;
    }
  }
}

TEST(FaultSoak, ServerSurvivesSeededFaultScheduleBitIdentically) {
  device::Device dev(device::V100Sim());
  device::DeviceGuard guard(dev);

  graph::Graph g = testing::SmallRmat(400, 4000, 29);
  // A second, host-resident graph so transfer.error probes fire too.
  graph::RMatParams uva_params;
  uva_params.name = "uva";
  uva_params.num_nodes = 400;
  uva_params.num_edges = 4000;
  uva_params.seed = 31;
  uva_params.uva = true;
  graph::Graph uva_graph = graph::MakeRMatGraph(uva_params);

  // Layout selection picks formats from timing measurements, which fault
  // injection perturbs; pin it off so the compiled plan (and therefore the
  // bit-exact outputs) cannot depend on the fault schedule.
  core::SamplerOptions plan_options;
  plan_options.enable_layout_selection = false;

  const std::vector<int64_t> fanouts = {4, 3};

  // Fault-free reference results, computed against plans compiled exactly
  // like the server compiles them (BuildPlan forces super_batch = 1).
  auto build_reference = [&](const graph::Graph& graph) {
    algorithms::AlgorithmProgram ap =
        algorithms::GraphSage(graph, algorithms::SageParams{.fanouts = fanouts});
    core::SamplerOptions options = plan_options;
    options.super_batch = 1;
    auto plan = std::make_shared<core::CompiledSampler>(std::move(ap.program), graph,
                                                        std::move(ap.tensors), options);
    plan->Warmup(tensor::IdArray::FromVector({0, 1, 2, 3}));
    return plan;
  };
  auto reference_plan = build_reference(g);
  auto reference_uva_plan = build_reference(uva_graph);

  constexpr int kRequests = 160;
  Rng workload_rng(0xC0FFEE);
  std::vector<Workload> workload;
  for (int i = 0; i < kRequests; ++i) {
    const bool use_uva = i % 4 == 3;
    serving::SampleRequest request;
    request.algorithm = "GraphSAGE";
    request.dataset = use_uva ? "uva" : "rmat";
    std::vector<int32_t> ids;
    for (int k = 0; k < 8; ++k) {
      ids.push_back(static_cast<int32_t>(workload_rng.NextU64() % 400));
    }
    request.seeds = tensor::IdArray::FromVector(ids);
    request.seed = workload_rng.NextU64();
    request.fanouts = fanouts;
    request.tenant = "tenant-" + std::to_string(i % 3);
    Workload item;
    item.expected = (use_uva ? reference_uva_plan : reference_plan)
                        ->SampleSeeded(request.seeds, request.seed);
    item.request = std::move(request);
    workload.push_back(std::move(item));
  }

  serving::ServerOptions options;
  options.num_workers = 3;
  options.queue_capacity = 256;          // no admission-pressure rejections
  options.shed_occupancy = 2.0;          // no occupancy-based fanout shedding
  options.deadline_admission = false;
  options.max_transient_retries = 6;

  // Fault-free warm-up pass of the full workload through a throwaway server
  // so every piece of one-time lazy state the soak can reach (graph format
  // caches, warmup allocations, per-seed compaction paths) is materialized
  // before the accounting baseline is taken — the soak then must not drift it.
  {
    serving::Server warm(options);
    warm.RegisterEndpoint(serving::MakeEndpoint("GraphSAGE", "rmat", g, plan_options));
    warm.RegisterEndpoint(serving::MakeEndpoint("GraphSAGE", "uva", uva_graph, plan_options));
    warm.Start();
    std::vector<std::future<serving::SampleResponse>> warm_futures;
    for (const Workload& item : workload) {
      warm_futures.push_back(warm.Submit(item.request));
    }
    // Digesting the warm outputs also materializes the lazy format caches
    // inside the workload's expected matrices, which the post-soak
    // comparison would otherwise grow after the baseline.
    for (size_t i = 0; i < warm_futures.size(); ++i) {
      serving::SampleResponse response = warm_futures[i].get();
      ASSERT_EQ(response.status, serving::Status::kOk);
      ExpectValuesEqual(response.outputs, workload[i].expected);
    }
    warm.Stop();
  }
  const int64_t reserved_before = dev.allocator().stats().bytes_reserved;
  const int64_t in_use_before = dev.allocator().stats().bytes_in_use;

  std::vector<serving::SampleResponse> responses;
  {
    // The seeded fault schedule. The soak probes about 200 kernels (each
    // group launches its program once plus one split kernel per matrix
    // output), so p = 0.015 injects a handful of transients; the occurrence
    // entry, at about half the probe count, guarantees one watchdog trip.
    FaultScope scope(FaultPlan::Parse(
        "kernel.transient:p=0.015;alloc.oom:p=0.005;kernel.stuck:occ=100;"
        "transfer.error:p=0.0005",
        2024));

    serving::Server server(options);
    server.RegisterEndpoint(serving::MakeEndpoint("GraphSAGE", "rmat", g, plan_options));
    server.RegisterEndpoint(
        serving::MakeEndpoint("GraphSAGE", "uva", uva_graph, plan_options));
    server.Start();

    std::vector<std::future<serving::SampleResponse>> futures;
    for (const Workload& item : workload) {
      futures.push_back(server.Submit(item.request));
    }
    for (std::future<serving::SampleResponse>& future : futures) {
      responses.push_back(future.get());  // no deadlock: every future must fulfil
    }

    EXPECT_TRUE(server.running()) << "no worker death under faults";
    server.Stop();

    const serving::ServerStats stats = server.stats();
    EXPECT_EQ(stats.received, kRequests);
    EXPECT_EQ(stats.completed + stats.failed, kRequests);
    EXPECT_EQ(stats.worker_exceptions, 0)
        << "recovery must happen inside the ladder, not at the worker boundary";
    EXPECT_GT(stats.transient_retries, 0) << "the schedule must actually inject";

    // Faults were injected at the kernel sites.
    EXPECT_GT(scope.injector().counters(Site::kKernelTransient).injected, 0);
    EXPECT_GT(scope.injector().counters(Site::kKernelStuck).injected, 0);
    EXPECT_GT(scope.injector().counters(Site::kAllocOom).probes, 0);
  }

  // Classify and digest outside the scope: comparing outputs runs format
  // conversions and host copies on this thread, which must not be probed.
  int64_t ok = 0, failed = 0, degraded = 0, identical = 0;
  for (size_t i = 0; i < responses.size(); ++i) {
    const serving::SampleResponse& response = responses[i];
    switch (response.status) {
      case serving::Status::kOk:
        ++ok;
        if (response.degraded) {
          ++degraded;  // shed retry changed the plan; outputs legitimately differ
        } else {
          ExpectValuesEqual(response.outputs, workload[i].expected);
          ++identical;
        }
        break;
      case serving::Status::kFailed:
        ++failed;
        EXPECT_NE(response.code, ErrorCode::kOk);
        EXPECT_FALSE(response.error.empty());
        break;
      default:
        FAIL() << "unexpected status " << serving::StatusName(response.status);
    }
  }

  // Most requests must survive the schedule, and the success path must be
  // bit-identical to the fault-free reference.
  EXPECT_EQ(ok + failed, kRequests);
  EXPECT_GT(identical, kRequests / 2);
  EXPECT_EQ(identical + degraded, ok);

  // No allocator accounting drift once the server (and its plan cache) is
  // destroyed and the responses' device outputs are released: reserved
  // attribution fully returned, no leaked live bytes.
  responses.clear();
  EXPECT_EQ(dev.allocator().stats().bytes_reserved, reserved_before);
  EXPECT_EQ(dev.allocator().stats().bytes_in_use, in_use_before);

  // Determinism of the schedule itself: replaying the decision function for
  // the same plan yields the same injected/clean sequence.
  FaultPlan plan = FaultPlan::Parse("kernel.transient:p=0.002", 2024);
  FaultInjector a(plan);
  FaultInjector b(plan);
  for (int64_t n = 0; n < 5000; ++n) {
    ASSERT_EQ(a.Decide(Site::kKernelTransient, n), b.Decide(Site::kKernelTransient, n));
  }
}

}  // namespace
}  // namespace gs::fault
