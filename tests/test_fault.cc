// Tests for gs::fault (src/fault/) and the recovery paths it exercises:
// plan parsing, deterministic injection sequences, the allocator's OOM
// recovery ladder (cache flush -> pressure handlers -> typed failure), the
// stream watchdog + executor batch cancellation, UVA transfer faults, the
// plan cache's pressure handler, BatchProducer checkpoint/resume, trainer
// interrupt/resume bit-identity, and the GS_CHECK unwind-suppression fix.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "algorithms/algorithms.h"
#include "common/error.h"
#include "common/rng.h"
#include "core/engine.h"
#include "device/allocator.h"
#include "device/device.h"
#include "device/stream.h"
#include "feature/hot_set_cache.h"
#include "fault/fault.h"
#include "fault/status.h"
#include "gnn/minibatch.h"
#include "gnn/trainer.h"
#include "graph/graph.h"
#include "serving/plan_cache.h"
#include "tests/testing.h"

namespace gs::fault {
namespace {

using device::CachingAllocator;
using device::DeviceProfile;
using device::KernelScope;
using device::Stream;

// ------------------------------------------------------------ plan parsing

TEST(FaultPlan, ParsesSpecAndRoundTrips) {
  FaultPlan plan =
      FaultPlan::Parse("alloc.oom:p=0.25;kernel.stuck:occ=3,17:mag=64;kernel.transient:p=0.5", 42);
  EXPECT_EQ(plan.seed, 42u);
  EXPECT_DOUBLE_EQ(plan.site(Site::kAllocOom).probability, 0.25);
  EXPECT_EQ(plan.site(Site::kKernelStuck).occurrences, (std::vector<int64_t>{3, 17}));
  EXPECT_DOUBLE_EQ(plan.site(Site::kKernelStuck).magnitude, 64.0);
  EXPECT_DOUBLE_EQ(plan.site(Site::kKernelTransient).probability, 0.5);
  EXPECT_TRUE(plan.site(Site::kTransferError).empty());
  EXPECT_FALSE(plan.empty());

  // ToString() re-parses to the same plan.
  FaultPlan again = FaultPlan::Parse(plan.ToString(), plan.seed);
  for (int s = 0; s < kNumSites; ++s) {
    const Site site = static_cast<Site>(s);
    EXPECT_DOUBLE_EQ(again.site(site).probability, plan.site(site).probability);
    EXPECT_EQ(again.site(site).occurrences, plan.site(site).occurrences);
  }
}

TEST(FaultPlan, MalformedSpecsThrow) {
  EXPECT_THROW(FaultPlan::Parse("bogus.site:p=0.1", 0), Error);
  EXPECT_THROW(FaultPlan::Parse("alloc.oom", 0), Error);
  EXPECT_THROW(FaultPlan::Parse("alloc.oom:p=1.5", 0), Error);
  EXPECT_THROW(FaultPlan::Parse("alloc.oom:p=nope", 0), Error);
  EXPECT_THROW(FaultPlan::Parse("alloc.oom:occ=-3", 0), Error);
  EXPECT_THROW(FaultPlan::Parse("alloc.oom:frobnicate=1", 0), Error);
  // Magnitudes multiply int64 virtual nanoseconds: non-finite or huge ones
  // would overflow the clock, so the grammar refuses them.
  EXPECT_THROW(FaultPlan::Parse("kernel.stuck:occ=3:mag=inf", 0), Error);
  EXPECT_THROW(FaultPlan::Parse("kernel.stuck:occ=3:mag=nan", 0), Error);
  EXPECT_THROW(FaultPlan::Parse("kernel.stuck:occ=3:mag=1e300", 0), Error);
  EXPECT_THROW(FaultPlan::Parse("shard.slow:p=0.5:mag=0", 0), Error);
  EXPECT_DOUBLE_EQ(
      FaultPlan::Parse("kernel.stuck:occ=3:mag=1e6", 0).site(Site::kKernelStuck).magnitude,
      kMaxMagnitude);
}

TEST(FaultPlan, ShardQualifiedClausesRoundTrip) {
  FaultPlan plan = FaultPlan::Parse(
      "exchange.timeout:p=0.1;shard2:shard.lost:after=5;shard0:exchange.timeout:p=0;"
      "shard1:shard.slow:p=0.5:mag=4", 7);
  // Unqualified clause is the default for shards without an override.
  EXPECT_DOUBLE_EQ(plan.Effective(Site::kExchangeTimeout, 3).probability, 0.1);
  // shard0's p=0 override exempts it from the unqualified clause.
  EXPECT_TRUE(plan.Effective(Site::kExchangeTimeout, 0).empty());
  EXPECT_EQ(plan.Effective(Site::kShardLost, 2).after, 5);
  EXPECT_TRUE(plan.Effective(Site::kShardLost, 1).empty());
  EXPECT_DOUBLE_EQ(plan.Effective(Site::kShardSlow, 1).magnitude, 4.0);
  // Shard-less probes never see shard overrides.
  EXPECT_TRUE(plan.Effective(Site::kShardLost, -1).empty());

  // ToString() re-parses to the same plan, including the p=0 exemption.
  FaultPlan again = FaultPlan::Parse(plan.ToString(), plan.seed);
  EXPECT_EQ(again.ToString(), plan.ToString());
  EXPECT_TRUE(again.Effective(Site::kExchangeTimeout, 0).empty());
  EXPECT_EQ(again.Effective(Site::kShardLost, 2).after, 5);
}

TEST(FaultPlan, MalformedShardQualifiersThrow) {
  EXPECT_THROW(FaultPlan::Parse("shard99:shard.lost:p=1", 0), Error);
  EXPECT_THROW(FaultPlan::Parse("shard1:bogus.site:p=1", 0), Error);
  EXPECT_THROW(FaultPlan::Parse("shard1:shard.lost", 0), Error);
  // "shardX" with a non-numeric suffix is not a qualifier, so it parses as a
  // (bogus) site name and fails there.
  EXPECT_THROW(FaultPlan::Parse("shardx:shard.lost:p=1", 0), Error);
}

TEST(FaultInjector, ShardStreamsAreIndependentAndShardlessStreamIsStable) {
  FaultPlan plan = FaultPlan::Parse("exchange.timeout:p=0.2", 77);
  FaultInjector injector(plan);
  // The shard-less stream must match a plain pre-sharding injector draw for
  // draw: Decide(site, n) == Decide(site, -1, n).
  for (int64_t n = 0; n < 256; ++n) {
    EXPECT_EQ(injector.Decide(Site::kExchangeTimeout, n),
              injector.Decide(Site::kExchangeTimeout, -1, n));
  }
  // Different shards draw from different (salted) streams.
  int differs = 0;
  for (int64_t n = 0; n < 512; ++n) {
    differs +=
        injector.Decide(Site::kExchangeTimeout, 0, n) != injector.Decide(Site::kExchangeTimeout, 1, n)
            ? 1
            : 0;
  }
  EXPECT_GT(differs, 0);
}

TEST(FaultInjector, PerShardCountersAggregateAcrossSlots) {
  FaultPlan plan = FaultPlan::Parse("shard.lost:after=0", 3);
  FaultInjector injector(plan);
  EXPECT_TRUE(injector.ShouldFault(Site::kShardLost, 0));
  EXPECT_TRUE(injector.ShouldFault(Site::kShardLost, 1));
  EXPECT_TRUE(injector.ShouldFault(Site::kShardLost));  // shard-less slot
  EXPECT_EQ(injector.counters(Site::kShardLost, 0).probes, 1);
  EXPECT_EQ(injector.counters(Site::kShardLost, 1).probes, 1);
  EXPECT_EQ(injector.counters(Site::kShardLost, -1).probes, 1);
  // The aggregate view sums every slot (back-compat for chaos stats).
  EXPECT_EQ(injector.counters(Site::kShardLost).probes, 3);
  EXPECT_EQ(injector.counters(Site::kShardLost).injected, 3);
}

TEST(ShardScopeTest, NestsAndRestores) {
  EXPECT_EQ(CurrentShard(), -1);
  {
    ShardScope outer(2);
    EXPECT_EQ(CurrentShard(), 2);
    {
      ShardScope inner(0);
      EXPECT_EQ(CurrentShard(), 0);
    }
    EXPECT_EQ(CurrentShard(), 2);
  }
  EXPECT_EQ(CurrentShard(), -1);
}

// --------------------------------------------------------- injector draws

TEST(FaultInjector, SameSeedSameDecisionSequence) {
  FaultPlan plan = FaultPlan::Parse("kernel.transient:p=0.1;alloc.oom:p=0.01", 1234);
  FaultInjector a(plan);
  FaultInjector b(plan);
  int fired = 0;
  for (int64_t n = 0; n < 2000; ++n) {
    ASSERT_EQ(a.Decide(Site::kKernelTransient, n), b.Decide(Site::kKernelTransient, n));
    ASSERT_EQ(a.Decide(Site::kAllocOom, n), b.Decide(Site::kAllocOom, n));
    fired += a.Decide(Site::kKernelTransient, n) ? 1 : 0;
  }
  // p=0.1 over 2000 draws: the empirical rate should be in the right
  // ballpark (binomial, sigma ~ 13).
  EXPECT_GT(fired, 120);
  EXPECT_LT(fired, 300);

  // A different seed produces a different sequence.
  plan.seed = 99;
  FaultInjector c(plan);
  int differs = 0;
  for (int64_t n = 0; n < 2000; ++n) {
    differs += a.Decide(Site::kKernelTransient, n) != c.Decide(Site::kKernelTransient, n) ? 1 : 0;
  }
  EXPECT_GT(differs, 0);
}

TEST(FaultInjector, OccurrenceListFiresExactly) {
  FaultPlan plan = FaultPlan::Parse("alloc.oom:occ=2,5", 7);
  FaultInjector injector(plan);
  std::vector<bool> fired;
  for (int i = 0; i < 8; ++i) {
    fired.push_back(injector.ShouldFault(Site::kAllocOom));
  }
  EXPECT_EQ(fired, (std::vector<bool>{false, false, true, false, false, true, false, false}));
  EXPECT_EQ(injector.counters(Site::kAllocOom).probes, 8);
  EXPECT_EQ(injector.counters(Site::kAllocOom).injected, 2);
  // Untouched sites never advanced.
  EXPECT_EQ(injector.counters(Site::kKernelTransient).probes, 0);
}

TEST(FaultScope, InstallsAndRestoresNested) {
  EXPECT_EQ(ActiveInjector(), nullptr);
  {
    FaultScope outer(FaultPlan::Parse("alloc.oom:p=0.5", 1));
    EXPECT_EQ(ActiveInjector(), &outer.injector());
    {
      FaultScope inner(FaultPlan::Parse("kernel.transient:p=0.5", 2));
      EXPECT_EQ(ActiveInjector(), &inner.injector());
    }
    EXPECT_EQ(ActiveInjector(), &outer.injector());
  }
  EXPECT_EQ(ActiveInjector(), nullptr);
}

// ----------------------------------------------------------- error taxonomy

TEST(Status, ClassifyMapsTypedErrors) {
  EXPECT_EQ(Classify(TransientError("t")), ErrorCode::kTransient);
  EXPECT_EQ(Classify(ResourceExhaustedError("re")), ErrorCode::kResourceExhausted);
  EXPECT_EQ(Classify(InvalidRequestError("inv")), ErrorCode::kInvalidRequest);
  EXPECT_EQ(Classify(Error("plain")), ErrorCode::kInternal);
  EXPECT_EQ(Classify(std::runtime_error("other")), ErrorCode::kInternal);
  EXPECT_STREQ(ErrorCodeName(ErrorCode::kTransient), "transient");
  // Cross-shard exchange timeouts are transient (they route through the
  // serving retry ladder); a shard with no live replica is kUnavailable.
  EXPECT_EQ(Classify(ExchangeTimeoutError("et")), ErrorCode::kTransient);
  EXPECT_EQ(Classify(ShardUnavailableError("su")), ErrorCode::kUnavailable);
  EXPECT_STREQ(ErrorCodeName(ErrorCode::kUnavailable), "unavailable");
}

// ------------------------------------------------- allocator OOM ladder

TEST(AllocatorLadder, InjectedOomFlushesCacheAndRecovers) {
  CachingAllocator alloc(int64_t{1} << 20);
  // Populate the free-list cache so the flush rung has something to do.
  void* warm = alloc.Allocate(4096);
  alloc.Free(warm);
  ASSERT_GT(alloc.stats().bytes_cached, 0);

  FaultScope scope(FaultPlan::Parse("alloc.oom:occ=0", 5));
  void* p = alloc.Allocate(4096);  // first attempt injected to fail
  ASSERT_NE(p, nullptr);
  const device::AllocatorStats stats = alloc.stats();
  EXPECT_EQ(stats.oom_cache_flushes, 1);
  EXPECT_EQ(stats.oom_recoveries, 1);
  EXPECT_EQ(stats.oom_failures, 0);
  EXPECT_EQ(stats.bytes_cached, 0);  // flush emptied the pool
  alloc.Free(p);
  EXPECT_EQ(alloc.stats().bytes_in_use, 0);
}

TEST(AllocatorLadder, PressureHandlerFreesAndAllocationRecovers) {
  CachingAllocator alloc(1 << 16);
  // A "long-lived cache" holding most of the capacity, released on demand
  // by its pressure handler.
  std::atomic<void*> hoard{alloc.Allocate(48 * 1024)};
  const int64_t id = alloc.RegisterPressureHandler([&](int64_t) -> int64_t {
    void* p = hoard.exchange(nullptr);
    if (p == nullptr) {
      return 0;
    }
    alloc.Free(p);
    return 48 * 1024;
  });

  void* big = alloc.Allocate(32 * 1024);  // only fits after the hoard frees
  ASSERT_NE(big, nullptr);
  EXPECT_EQ(hoard.load(), nullptr);
  const device::AllocatorStats stats = alloc.stats();
  EXPECT_GE(stats.oom_pressure_rounds, 1);
  EXPECT_EQ(stats.oom_recoveries, 1);
  alloc.Free(big);
  alloc.UnregisterPressureHandler(id);
  EXPECT_EQ(alloc.stats().bytes_in_use, 0);
}

TEST(AllocatorLadder, ExhaustionThrowsTypedErrorAfterLadder) {
  CachingAllocator alloc(1 << 16);
  try {
    alloc.Allocate(1 << 20);
    FAIL() << "allocation over capacity must throw";
  } catch (const ResourceExhaustedError& e) {
    EXPECT_EQ(Classify(e), ErrorCode::kResourceExhausted);
  }
  const device::AllocatorStats stats = alloc.stats();
  EXPECT_EQ(stats.oom_failures, 1);
  EXPECT_EQ(stats.oom_recoveries, 0);
  EXPECT_EQ(stats.bytes_in_use, 0);  // failed allocation charged nothing
}

// Concurrent AdjustReserved traffic (plan cache attribution) must not race
// with OOM-ladder pressure rounds that also adjust reserved bytes. Run under
// TSan via tools/check.sh chaos.
TEST(AllocatorLadder, AdjustReservedConcurrentWithPressureRounds) {
  CachingAllocator alloc(1 << 20);
  std::atomic<int64_t> stash_bytes{0};
  const int64_t id = alloc.RegisterPressureHandler([&](int64_t) -> int64_t {
    // Mimic the plan cache: release attribution under pressure.
    const int64_t credit = stash_bytes.exchange(0);
    if (credit > 0) {
      alloc.AdjustReserved(-credit);
    }
    return 0;
  });

  FaultScope scope(FaultPlan::Parse("alloc.oom:p=0.2", 77));
  std::atomic<bool> stop{false};
  std::thread reserver([&] {
    while (!stop.load()) {
      alloc.AdjustReserved(512);
      stash_bytes.fetch_add(512);
      // Occasionally take the attribution back ourselves if the handler
      // has not consumed it.
      const int64_t credit = stash_bytes.exchange(0);
      if (credit > 0) {
        alloc.AdjustReserved(-credit);
      }
    }
  });
  std::thread allocator_thread([&] {
    for (int i = 0; i < 3000; ++i) {
      void* p = alloc.Allocate(1024);
      alloc.Free(p);
    }
    stop.store(true);
  });
  allocator_thread.join();
  reserver.join();
  const int64_t credit = stash_bytes.exchange(0);
  if (credit > 0) {
    alloc.AdjustReserved(-credit);
  }
  alloc.UnregisterPressureHandler(id);

  const device::AllocatorStats stats = alloc.stats();
  EXPECT_EQ(stats.bytes_in_use, 0);
  EXPECT_EQ(stats.bytes_reserved, 0);  // every charge matched a release
}

// ------------------------------------------------- kernel fault injection

TEST(KernelFault, TransientThrowsFromLaunchSite) {
  Stream stream(device::V100Sim());
  FaultScope scope(FaultPlan::Parse("kernel.transient:occ=0", 3));
  try {
    KernelScope k(stream);
    FAIL() << "first launch must throw the injected fault";
  } catch (const TransientError& e) {
    EXPECT_EQ(Classify(e), ErrorCode::kTransient);
  }
  // The next launch proceeds normally.
  KernelScope k(stream);
  k.Finish({.parallel_items = 8, .hbm_bytes = 64});
  EXPECT_EQ(stream.counters().kernels_launched, 1);
}

// Building a serving session over a compiled plan (pre-computation, bind,
// calibration, Warmup) under early kernel transients either succeeds or
// surfaces the TransientError for the serving ladder to retry: no build
// step may consume the fault or turn it into a different error.
TEST(KernelFault, SessionBuildSurfacesTransients) {
  graph::Graph g = gs::testing::SmallRmat(250, 2500, 33, true);
  for (const char* spec : {"kernel.transient:occ=0", "kernel.transient:occ=0,1"}) {
    for (const std::string& name : algorithms::AllAlgorithmNames()) {
      SCOPED_TRACE(std::string(spec) + " " + name);
      algorithms::AlgorithmProgram ap = algorithms::MakeAlgorithm(name, g);
      core::SamplerOptions options;
      options.super_batch = 1;
      auto plan = std::make_shared<core::CompiledPlan>(std::move(ap.program), options, name);
      FaultScope scope(FaultPlan::Parse(spec, 7));
      try {
        core::SamplerSession session(std::move(plan), g, std::move(ap.tensors));
        if (name == "HetGNN") {
          session.BindGraph("rel0", &g.adj());
          session.BindGraph("rel1", &g.adj());
        }
        session.Warmup(core::WarmupFrontier(g));
      } catch (const TransientError&) {
        // Surfaced: the ladder retries the build.
      } catch (const std::exception& e) {
        ADD_FAILURE() << "session build failed with a non-transient error: " << e.what();
      }
      EXPECT_GT(scope.injector().counters(Site::kKernelTransient).injected, 0);
    }
  }
}

// A transient inside the super-batch grid search reaches the caller: it says
// nothing about whether a size fits, so the tuner must not read it as "too
// big" and cap its pick.
TEST(KernelFault, SuperBatchTunerRethrowsTransients) {
  graph::Graph g = gs::testing::SmallRmat(250, 2500, 33, true);
  std::vector<int32_t> ids(64);
  for (int32_t i = 0; i < 64; ++i) {
    ids[static_cast<size_t>(i)] = i;
  }
  const tensor::IdArray seeds = tensor::IdArray::FromVector(ids);
  auto make_sampler = [&] {
    algorithms::AlgorithmProgram ap = algorithms::GraphSage(g, {.fanouts = {3, 2}});
    core::SamplerOptions options;
    options.super_batch = 0;  // grid search at the first epoch
    auto sampler = std::make_unique<core::CompiledSampler>(std::move(ap.program), g,
                                                           std::move(ap.tensors), options);
    sampler->Warmup(core::WarmupFrontier(g));  // pre-computation and calibration
    return sampler;
  };

  // Kernel probes before the grid search's first launch.
  int64_t before_tuning = 0;
  {
    FaultScope scope(FaultPlan::Parse("kernel.transient:occ=1000000000", 7));
    auto sampler = make_sampler();
    before_tuning = scope.injector().counters(Site::kKernelTransient).probes;
    sampler->SampleEpoch(seeds, 8);
    ASSERT_GT(scope.injector().counters(Site::kKernelTransient).probes, before_tuning);
  }

  FaultScope scope(
      FaultPlan::Parse("kernel.transient:occ=" + std::to_string(before_tuning), 7));
  auto sampler = make_sampler();
  ASSERT_EQ(scope.injector().counters(Site::kKernelTransient).injected, 0);
  EXPECT_THROW(sampler->SampleEpoch(seeds, 8), TransientError);
  EXPECT_EQ(scope.injector().counters(Site::kKernelTransient).injected, 1);
  EXPECT_EQ(sampler->effective_super_batch(), 0) << "no size may be picked from a fault";
}

TEST(KernelFault, StuckInflationTripsWatchdog) {
  Stream stream(device::V100Sim());
  ASSERT_GT(stream.profile().watchdog_multiple, 0.0);
  {
    FaultScope scope(FaultPlan::Parse("kernel.stuck:occ=0", 3));
    KernelScope k(stream);
    k.Finish({.parallel_items = 1000, .hbm_bytes = 4096});
  }
  EXPECT_EQ(stream.counters().stuck_kernels, 1);
  EXPECT_EQ(stream.TakeStuckKernels(), 1);
  EXPECT_EQ(stream.TakeStuckKernels(), 0);  // drained

  // Clean kernels never trip it.
  KernelScope k(stream);
  k.Finish({.parallel_items = 1000, .hbm_bytes = 4096});
  EXPECT_EQ(stream.counters().stuck_kernels, 1);
  EXPECT_EQ(stream.TakeStuckKernels(), 0);
}

TEST(KernelFault, ExecutorCancelsBatchOnStuckKernel) {
  device::Device dev(device::V100Sim());
  device::DeviceGuard guard(dev);
  graph::Graph g = testing::SmallRmat(200, 2000, 13);
  algorithms::AlgorithmProgram ap = algorithms::GraphSage(g, {.fanouts = {4, 3}});
  core::SamplerOptions options;
  options.super_batch = 1;
  core::CompiledSampler sampler(std::move(ap.program), g, std::move(ap.tensors), options);
  tensor::IdArray seeds = tensor::IdArray::FromVector({1, 2, 3, 4});
  (void)sampler.Sample(seeds);  // calibrate fault-free

  FaultScope scope(FaultPlan::Parse("kernel.stuck:occ=0", 11));
  try {
    (void)sampler.Sample(seeds);
    FAIL() << "stuck kernel must cancel the batch";
  } catch (const TransientError& e) {
    EXPECT_NE(std::string(e.what()).find("watchdog"), std::string::npos) << e.what();
  }
  // The stuck flag was drained with the failed batch; the next one is clean.
  std::vector<core::Value> ok = sampler.Sample(seeds);
  EXPECT_FALSE(ok.empty());
}

// ----------------------------------------------------- UVA transfer faults

TEST(TransferFault, UvaAccessThrowsAndRecovers) {
  feature::HotSetCache cache(128);
  FaultScope scope(FaultPlan::Parse("transfer.error:occ=1", 9));
  EXPECT_EQ(cache.Access(5, 100), 100);  // probe 0: clean miss
  EXPECT_THROW(cache.Access(5, 100), TransientError);
  EXPECT_EQ(cache.Access(5, 100), 0);  // probe 2: clean hit
}

TEST(TransferFault, ShrinkHalvesLiveSlotsDownToFloor) {
  feature::HotSetCache cache(512);
  EXPECT_EQ(cache.num_slots(), 512);
  cache.Shrink();
  EXPECT_EQ(cache.num_slots(), 256);
  for (int i = 0; i < 10; ++i) {
    cache.Shrink();
  }
  EXPECT_EQ(cache.num_slots(), 64);  // floor
  // Still functional after shrinking.
  EXPECT_EQ(cache.Access(3, 10), 10);
  EXPECT_EQ(cache.Access(3, 10), 0);
}

// ------------------------------------------ plan cache pressure handler

std::shared_ptr<core::SamplerSession> BuildResidentPlan(const graph::Graph& g,
                                                        int64_t layer_width) {
  algorithms::AlgorithmProgram ap =
      algorithms::FastGcn(g, {.num_layers = 2, .layer_width = layer_width});
  core::SamplerOptions options;
  options.super_batch = 1;
  // Layout selection is timing-measured; pin it off so the compiled plan
  // (and its resident footprint) is identical run to run.
  options.enable_layout_selection = false;
  auto plan = std::make_shared<core::CompiledPlan>(std::move(ap.program), options);
  auto session = std::make_shared<core::SamplerSession>(std::move(plan), g,
                                                        std::move(ap.tensors));
  session->Warmup(tensor::IdArray::FromVector({0, 1, 2, 3}));
  return session;
}

TEST(PlanCachePressure, OomLadderEvictsResidentPlans) {
  DeviceProfile profile = device::V100Sim();
  profile.memory_capacity_bytes = int64_t{32} * 1024 * 1024;
  device::Device dev(profile);
  device::DeviceGuard guard(dev);

  graph::Graph g = testing::SmallRmat(2000, 20000, 17);
  serving::PlanCache cache(int64_t{16} * 1024 * 1024, &dev.allocator());
  serving::PlanKey key{"FastGCN", "rmat", "sim", "w32", {}};
  cache.GetOrBuild(key, [&] { return BuildResidentPlan(g, 32); });
  const int64_t resident = cache.stats().resident_bytes;
  ASSERT_GT(resident, 1024) << "FastGCN plans must pin precomputed tensors";
  EXPECT_EQ(dev.allocator().stats().bytes_reserved, resident);

  // The allocator rounds large requests to power-of-two classes, so drive
  // bytes_in_use just past the halfway mark with exactly-sized 512 B ballast
  // chunks: a 16 MiB request then fails the capacity check by less than the
  // plan's resident footprint, and only the pressure rung can satisfy it.
  const int64_t half = profile.memory_capacity_bytes / 2;
  std::vector<device::Array<char>> ballast;
  while (dev.allocator().stats().bytes_in_use + 512 <= half + resident / 2) {
    ballast.push_back(device::Array<char>::Empty(512));
  }
  ASSERT_GT(dev.allocator().stats().bytes_in_use, half) << "16 MiB must not fit up front";
  device::Array<char> big = device::Array<char>::Empty(half);
  (void)big;

  const serving::PlanCacheStats stats = cache.stats();
  EXPECT_GE(stats.pressure_releases, 1);
  EXPECT_EQ(stats.entries, 0);
  EXPECT_EQ(stats.resident_bytes, 0);
  EXPECT_EQ(dev.allocator().stats().bytes_reserved, 0);
  EXPECT_GE(dev.allocator().stats().oom_recoveries, 1);
}

// One pressure round walks every registered cache in registration order —
// plan cache first, feature cache second here — and the outcome is
// deterministic: the plan cache drops its resident plans, the feature cache
// drops backing pages down to its one-page floor, every released byte
// disappears from the allocator's reserved attribution, and a re-run of the
// identical scenario releases exactly the same byte counts.
TEST(CrossCachePressure, OomLadderWalksPlanAndFeatureCachesDeterministically) {
  auto scenario = []() -> std::pair<int64_t, int64_t> {
    DeviceProfile profile = device::V100Sim();
    profile.memory_capacity_bytes = int64_t{32} * 1024 * 1024;
    device::Device dev(profile);
    device::DeviceGuard guard(dev);
    graph::Graph g = gs::testing::SmallRmat(2000, 20000, 17);

    serving::PlanCache plans(int64_t{16} * 1024 * 1024, &dev.allocator());
    plans.GetOrBuild(serving::PlanKey{"FastGCN", "rmat", "sim", "w32", {}},
                     [&] { return BuildResidentPlan(g, 32); });
    const int64_t plan_resident = plans.stats().resident_bytes;
    EXPECT_GT(plan_resident, 1024);

    feature::HotSetCache features(feature::HotSetCacheOptions{
        .capacity = 8192,
        .admission = feature::Admission::kFrequencyEma,
        .entry_bytes = 256,
        .register_pressure_handler = true});
    const int64_t feature_backing = features.stats().backing_bytes;
    EXPECT_GT(feature_backing, 0);
    EXPECT_EQ(dev.allocator().stats().bytes_reserved, plan_resident + feature_backing);

    // Same sizing trick as OomLadderEvictsResidentPlans: exactly-sized
    // ballast past the halfway mark, so a 16 MiB request fails the capacity
    // check by less than what the registered caches can give back.
    const int64_t half = profile.memory_capacity_bytes / 2;
    std::vector<device::Array<char>> ballast;
    while (dev.allocator().stats().bytes_in_use + 512 <= half + plan_resident / 2) {
      ballast.push_back(device::Array<char>::Empty(512));
    }
    device::Array<char> big = device::Array<char>::Empty(half);
    (void)big;

    // Both handlers ran in the single pressure round; the plan cache
    // emptied, the feature cache kept exactly its one-page floor.
    const serving::PlanCacheStats plan_stats = plans.stats();
    EXPECT_EQ(plan_stats.pressure_releases, 1);
    EXPECT_EQ(plan_stats.entries, 0);
    EXPECT_EQ(plan_stats.resident_bytes, 0);
    const feature::HotSetCacheStats feature_stats = features.stats();
    EXPECT_EQ(feature_stats.pressure_releases, 1);
    EXPECT_GT(feature_stats.backing_bytes, 0);
    EXPECT_LT(feature_stats.backing_bytes, feature_backing);
    EXPECT_LT(feature_stats.capacity, 8192);
    EXPECT_EQ(dev.allocator().stats().bytes_reserved, feature_stats.backing_bytes);
    EXPECT_GE(dev.allocator().stats().oom_recoveries, 1);
    return {plan_resident, feature_backing - feature_stats.backing_bytes};
  };

  const std::pair<int64_t, int64_t> first = scenario();
  const std::pair<int64_t, int64_t> second = scenario();
  EXPECT_GT(first.second, 0);
  EXPECT_EQ(first, second) << "pressure releases must be byte-for-byte reproducible";
}

TEST(PlanCacheBudget, EvictsLruUnderByteBudget) {
  device::Device dev(device::V100Sim());
  device::DeviceGuard guard(dev);
  graph::Graph g = testing::SmallRmat(400, 4000, 17);

  // Budget sized to hold exactly one FastGCN plan: inserting a second must
  // evict the least-recently-used one and release its attribution.
  auto probe = BuildResidentPlan(g, 32);
  const int64_t one_plan = probe->ResidentBytes();
  ASSERT_GT(one_plan, 0);
  probe.reset();

  serving::PlanCache cache(one_plan + one_plan / 2, &dev.allocator());
  const int64_t reserved_before = dev.allocator().stats().bytes_reserved;
  serving::PlanKey a{"FastGCN", "rmat", "sim", "w32", {}};
  serving::PlanKey b{"FastGCN", "rmat", "sim", "w48", {}};
  cache.GetOrBuild(a, [&] { return BuildResidentPlan(g, 32); });
  cache.GetOrBuild(b, [&] { return BuildResidentPlan(g, 48); });

  const serving::PlanCacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 1);
  EXPECT_GE(stats.evictions, 1);
  EXPECT_LE(stats.resident_bytes, one_plan + one_plan / 2);
  EXPECT_EQ(dev.allocator().stats().bytes_reserved, reserved_before + stats.resident_bytes);

  // The survivor is the most recently used plan (b).
  bool hit = false;
  cache.GetOrBuild(b, [&]() -> std::shared_ptr<core::SamplerSession> {
    ADD_FAILURE() << "b must still be resident";
    return BuildResidentPlan(g, 48);
  }, &hit);
  EXPECT_TRUE(hit);
}

// ------------------------------------- BatchProducer checkpoint / resume

std::vector<std::vector<core::Value>> DrainProducer(core::BatchProducer& producer) {
  std::vector<std::vector<core::Value>> out;
  core::EpochBatch batch;
  while (producer.Next(&batch)) {
    out.push_back(std::move(batch.outputs));
  }
  return out;
}

void ExpectValuesEqual(const std::vector<core::Value>& a, const std::vector<core::Value>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].kind, b[i].kind);
    switch (a[i].kind) {
      case core::ValueKind::kIds:
        EXPECT_EQ(a[i].ids.ToVector(), b[i].ids.ToVector());
        break;
      case core::ValueKind::kMatrix:
        EXPECT_EQ(testing::EdgeSet(a[i].matrix), testing::EdgeSet(b[i].matrix));
        break;
      case core::ValueKind::kTensor:
        ASSERT_EQ(a[i].tensor.shape(), b[i].tensor.shape());
        EXPECT_EQ(a[i].tensor.array().ToVector(), b[i].tensor.array().ToVector());
        break;
    }
  }
}

TEST(BatchProducerCheckpoint, ResumeYieldsBitIdenticalRemainder) {
  device::Device dev(device::V100Sim());
  device::DeviceGuard guard(dev);
  graph::Graph g = testing::SmallRmat(300, 3000, 21);
  algorithms::AlgorithmProgram ap = algorithms::GraphSage(g, {.fanouts = {4, 3}});
  core::SamplerOptions options;
  options.seed = 7;
  core::CompiledSampler sampler(std::move(ap.program), g, std::move(ap.tensors),
                                options);

  // Reference: one uninterrupted epoch. The Save() taken before any Next()
  // pins this epoch's RNG-stream base — the shared sampler's batch counter
  // advances across epochs, so later producers replay the reference epoch by
  // resuming from this checkpoint rather than starting fresh.
  core::BatchProducer::Checkpoint epoch_start;
  std::vector<std::vector<core::Value>> reference;
  {
    core::BatchProducer producer(sampler, g.train_ids(), 32);
    epoch_start = producer.Save();
    reference = DrainProducer(producer);
  }
  ASSERT_GE(reference.size(), 4u);

  // Interrupted epoch: deliver `cut` batches, checkpoint, resume in a fresh
  // producer, drain the rest. Concatenation must be bit-identical.
  for (int64_t cut : {int64_t{1}, int64_t{3}}) {
    core::BatchProducer first(sampler, g.train_ids(), 32);
    first.Resume(epoch_start);  // replay the reference epoch's stream
    std::vector<std::vector<core::Value>> head;
    core::EpochBatch batch;
    for (int64_t i = 0; i < cut; ++i) {
      ASSERT_TRUE(first.Next(&batch));
      head.push_back(std::move(batch.outputs));
    }
    const core::BatchProducer::Checkpoint cp = first.Save();
    EXPECT_EQ(cp.delivered, cut);
    EXPECT_EQ(cp.counter_base, epoch_start.counter_base);

    core::BatchProducer resumed(sampler, g.train_ids(), 32);
    resumed.Resume(cp);
    std::vector<std::vector<core::Value>> tail = DrainProducer(resumed);

    ASSERT_EQ(head.size() + tail.size(), reference.size());
    for (size_t i = 0; i < reference.size(); ++i) {
      const std::vector<core::Value>& got = i < head.size() ? head[i] : tail[i - head.size()];
      ExpectValuesEqual(got, reference[i]);
    }
  }
}

// ----------------------------------------- trainer interrupt + resume

TEST(TrainerCheckpoint, KilledEpochResumesBitIdentical) {
  device::Device dev(device::V100Sim());
  device::DeviceGuard guard(dev);
  graph::Graph g = testing::SmallRmat(300, 3000, 23);
  // Attach features/labels so the trainer can run.
  {
    Rng frng(5);
    g.SetFeatures(tensor::Tensor::Randn({g.num_nodes(), 16}, frng));
    std::vector<int32_t> labels(static_cast<size_t>(g.num_nodes()));
    Rng lrng(6);
    for (auto& l : labels) {
      l = static_cast<int32_t>(lrng.NextU64() % 4);
    }
    g.SetLabels(device::Array<int32_t>::FromVector(labels), 4);
  }

  // include_seeds: SageModel needs the seed in every layer-1 node list.
  algorithms::AlgorithmProgram ap =
      algorithms::GraphSage(g, {.fanouts = {4, 3}, .include_seeds = true});
  core::SamplerOptions options;
  options.super_batch = 1;
  core::CompiledSampler sampler(std::move(ap.program), g, std::move(ap.tensors), options);
  sampler.Warmup(tensor::IdArray::FromVector({0, 1, 2, 3}));

  // Stateless sampling function: results depend only on (seeds, rng).
  std::atomic<int64_t> sample_calls{0};
  std::atomic<int64_t> kill_at{-1};  // sample index that throws once
  gnn::SampleFn sample = [&](const tensor::IdArray& seeds, Rng& rng) {
    const int64_t call = sample_calls.fetch_add(1);
    int64_t expected = call;  // fires once, when this call is the kill index
    if (kill_at.compare_exchange_strong(expected, -1)) {
      throw TransientError("injected mid-epoch sampling fault");
    }
    return gnn::FromSamplerOutputs(sampler.SampleSeeded(seeds, rng.NextU64()), seeds);
  };

  gnn::TrainerConfig config;
  config.model = gnn::ModelKind::kSage;
  config.epochs = 3;
  config.batch_size = 64;
  config.seed = 31;

  // Reference: uninterrupted run.
  gnn::TrainOutcome reference = Train(g, sample, config);
  ASSERT_FALSE(reference.interrupted);
  ASSERT_FALSE(reference.step_loss.empty());

  // Faulted run: kill a mid-run sample call, then resume. The kill index is
  // derived from the reference run's observed call count so it always lands
  // inside the run regardless of how the train set partitions into batches.
  const int64_t total_calls = sample_calls.load();
  ASSERT_GE(total_calls, 2);
  sample_calls.store(0);
  kill_at.store(total_calls / 2);
  gnn::TrainerCheckpoint checkpoint;
  config.checkpoint = &checkpoint;
  gnn::TrainOutcome interrupted = Train(g, sample, config);
  ASSERT_TRUE(interrupted.interrupted);
  ASSERT_TRUE(checkpoint.valid);
  EXPECT_LT(checkpoint.step * checkpoint.epoch, static_cast<int64_t>(reference.step_loss.size()));

  gnn::TrainOutcome resumed = Train(g, sample, config);
  ASSERT_FALSE(resumed.interrupted);
  EXPECT_FALSE(checkpoint.valid);  // consumed

  ASSERT_EQ(resumed.step_loss.size(), reference.step_loss.size());
  for (size_t i = 0; i < reference.step_loss.size(); ++i) {
    EXPECT_EQ(resumed.step_loss[i], reference.step_loss[i]) << "step " << i;
  }
  ASSERT_EQ(resumed.epoch_accuracy.size(), reference.epoch_accuracy.size());
  for (size_t i = 0; i < reference.epoch_accuracy.size(); ++i) {
    EXPECT_EQ(resumed.epoch_accuracy[i], reference.epoch_accuracy[i]) << "epoch " << i;
  }
  EXPECT_EQ(resumed.final_accuracy, reference.final_accuracy);
}

// --------------------------------------- GS_CHECK during stack unwinding

struct CheckingGuard {
  ~CheckingGuard() noexcept(false) { GS_CHECK(false) << "guard dtor check"; }
};

TEST(CheckUnwind, FailureDuringUnwindIsSuppressedNotFatal) {
  // A GS_CHECK failure inside a destructor running as part of exception
  // unwinding must not throw a second exception (std::terminate); the
  // original exception propagates.
  try {
    CheckingGuard guard;
    throw std::runtime_error("primary failure");
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "primary failure");
  } catch (...) {
    FAIL() << "the primary exception must survive the dtor's failed check";
  }
}

TEST(CheckUnwind, FailureOutsideUnwindStillThrows) {
  EXPECT_THROW({ CheckingGuard guard; }, Error);
}

}  // namespace
}  // namespace gs::fault
