// gs::serving::Server — embedded multi-tenant sampling service.
//
// Concurrent SampleRequests flow through admission, queueing, and the
// staged execution of each coalesced group:
//
//   Admission (Submit, caller thread): unknown endpoints fail fast;
//   requests whose deadline cannot plausibly be met (EMA service-time
//   estimate x queue depth) are rejected; a full admission queue rejects
//   with a retry-after hint; past the shed threshold requests are admitted
//   with halved fanouts — overload degrades fidelity before availability.
//   Queueing: per-tenant queues. Workers pick the least-served tenant
//   (fair queueing), then the earliest deadline within it (EDF; priority
//   breaks ties), and gather up to coalesce_max queued requests with the
//   same plan key into one group. Requests that expire while queued
//   complete as kDeadlineExceeded without executing.
//   Execution (ExecuteAndScatter) passes one Group record through stages:
//     place   — the home shard's replica chain (shard::RunOnReplicaChain);
//               when no replica admits work the group degrades: members
//               are cut to their covered seeds (ha::CoveredIds) and run on
//               the lowest-numbered live device.
//     run     — plan resolve (PlanCache) + execution under one recovery
//               ladder (transient backoff, one shed-fanout retry) that
//               re-places every attempt. A coalescable plan runs the group
//               as ONE segmented super-batch (serving/coalescer.h),
//               bit-identical per member to being served alone; walk-style
//               plans and degraded groups run their members solo.
//     scatter — one kOk, kDegraded (with coverage) or kFailed response per
//               member, with a per-stage wall-latency breakdown.
//     attach features — feature rows for kOk responses.
//     account — one stats update, then the promises.
//
// Built on pipeline::WorkerPool (one device stream per worker) and
// pipeline::BoundedQueue (admission tokens with TryPush rejection). The
// token queue is a capacity limiter and wakeup channel: every registered
// request pushes one token, workers block popping tokens, and the scheduler
// tolerates token/request imbalance from coalescing (a popped token that
// finds no queued request is a no-op).
//
// Sharded mode (ServerOptions::num_shards > 1, gs::shard): Start()
// partitions every registered dataset and creates one simulated device per
// shard. Submit routes each request to its seed frontier's home shard
// (locality-aware routing — the shard owning the plurality of the seeds'
// adjacency); the shard becomes part of the plan key, so every shard warms
// its own session on its own device and coalescing never crosses shards. A
// FrontierExchange observer prices each hop's remote adjacency as a
// coalesced all-to-all at the profile's interconnect rate, surfacing as
// exchange_* counters and per-shard completions/latency in ServerStats.

#ifndef GSAMPLER_SERVING_SERVER_H_
#define GSAMPLER_SERVING_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "algorithms/algorithms.h"
#include "core/engine.h"
#include "device/device.h"
#include "dyn/replanner.h"
#include "feature/hot_set_cache.h"
#include "feature/store.h"
#include "graph/graph.h"
#include "graph/partition.h"
#include "graph/store.h"
#include "ha/health.h"
#include "pipeline/queue.h"
#include "pipeline/worker_pool.h"
#include "serving/plan_cache.h"
#include "serving/request.h"
#include "serving/stats.h"
#include "shard/shard.h"

namespace gs::serving {

// A servable (algorithm, dataset) pair over the Table-2 registry. Programs
// are traced per effective fanout vector (empty = algorithm defaults); the
// sampler options are part of the plan key.
struct Endpoint {
  std::string algorithm;
  std::string dataset;
  // The static graph served (must outlive the server).
  const graph::Graph* graph = nullptr;
  core::SamplerOptions options;
  // Fallback fanouts used when a request does not specify any and overload
  // shedding needs something to halve.
  std::vector<int64_t> default_fanouts;
  // Dynamic graphs (gs::dyn): a mutable versioned store instead of a static
  // graph. When set, `graph` is ignored: every request resolves the store's
  // latest snapshot at admission (and pins it to completion), the plan key
  // carries the snapshot's epoch + digest, and programs are traced against
  // the pinned snapshot's graph. The store must outlive the server.
  graph::GraphStore* store = nullptr;
};

// Endpoint over a static graph. Fanout vectors are honored for the
// fanout-parameterized algorithms (GraphSAGE, GCN-BS, Thanos, PASS, FastGCN,
// LADIES, AS-GCN); others compile with their defaults.
Endpoint MakeEndpoint(const std::string& algorithm, const std::string& dataset,
                      const graph::Graph& graph, core::SamplerOptions options = {});

// The dynamic twin of MakeEndpoint: serves `store`'s evolving graph. Same
// algorithm registry, but programs are traced per epoch against the pinned
// snapshot and compiled plans are reused across epochs while their validity
// predicate holds (see PlanCache::Judge).
Endpoint MakeDynamicEndpoint(const std::string& algorithm, const std::string& dataset,
                             graph::GraphStore& store, core::SamplerOptions options = {});

struct ServerOptions {
  int num_workers = 2;
  // Admission queue capacity; TryPush failure = reject with retry-after.
  int queue_capacity = 64;
  // Maximum requests merged into one segmented execution.
  int coalesce_max = 8;
  bool enable_coalescing = true;
  int64_t plan_cache_budget_bytes = int64_t{256} * 1024 * 1024;
  // Queue-occupancy fraction beyond which admitted requests get shed
  // (halved) fanouts.
  double shed_occupancy = 0.75;
  // Reject requests whose deadline is below the service-time estimate.
  bool deadline_admission = true;
  // Suggested client back-off on rejection.
  std::chrono::nanoseconds retry_after{2'000'000};
  // Recovery ladder (gs::fault taxonomy). Transient execution failures are
  // retried up to this many times with exponential backoff starting at
  // retry_backoff; resource exhaustion (device OOM that survived the
  // allocator's own ladder) is retried once with halved fanouts, marking
  // the responses degraded.
  int max_transient_retries = 3;
  std::chrono::nanoseconds retry_backoff{50'000};
  bool shed_on_resource_exhausted = true;
  // Persistent plan directory. When non-empty, Start() warm-starts the plan
  // cache from artifacts saved there (skipping passes and calibration for
  // every matching endpoint) and Stop() persists the resident plans back —
  // so a restarted server answers its first request from a warm cache.
  std::string plan_dir;
  // Shard every dataset across this many simulated devices (1 = unsharded,
  // today's behavior). Requests route to their seed frontier's home shard
  // and execute on that shard's device with cross-shard adjacency charged
  // at the profile's interconnect_ns_per_byte.
  int num_shards = 1;
  graph::PartitionKind partition_kind = graph::PartitionKind::kEdgeCut;
  // High availability (gs::ha): replicas per shard (1 = no failover). With
  // r > 1 every shard's segment is mirrored onto r devices (chained
  // declustering) and execution walks the replica chain past dead devices;
  // when no replica of a request's home shard survives, the response
  // degrades to a typed partial (Status::kDegraded with a per-request
  // coverage fraction) instead of failing.
  int num_replicas = 1;
  ha::HealthOptions health;
  // Hedged cross-shard exchange re-issues allowed per execution.
  int max_hedged_exchanges = 2;
  // Feature serving (gs::feature). When set, every kOk response for a
  // dataset with features also carries the gathered feature rows for its
  // result frontier (SampleResponse::features / feature_ids), gathered
  // through a per-tenant hot-set cache partition on the executing shard's
  // device.
  bool serve_features = false;
  // Device bytes each shard budgets for feature caching, divided evenly
  // into `feature_cache_partitions` per-tenant shares (multi-tenant
  // isolation: one tenant's scan cannot evict another's hot set). Each
  // partition is byte-accounted through the shard allocator's
  // reserved-bytes and joins its OOM ladder.
  int64_t feature_cache_budget_bytes = int64_t{64} * 1024 * 1024;
  int feature_cache_partitions = 4;
  feature::Admission feature_admission = feature::Admission::kFrequencyEma;
  // Dynamic graphs (gs::dyn): recompile drift-invalidated plans on the
  // background replanner thread while the stale (still-correct) plan keeps
  // serving. When false, a drifted judgment compiles inline on the serving
  // path instead — the contrast bench/mutation_throughput measures.
  bool background_recompile = true;
};

class Server {
 public:
  explicit Server(ServerOptions options = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Registration must complete before Start().
  void RegisterEndpoint(Endpoint endpoint);

  void Start();
  // Drains queued admitted requests, then joins the workers. Idempotent.
  void Stop();
  bool running() const { return running_; }

  // Thread-safe; returns a future fulfilled by a worker (or immediately on
  // rejection/failure). Never blocks on execution.
  std::future<SampleResponse> Submit(SampleRequest request);

  // Persists every resident plan to `dir` (see PlanCache::SaveAll). Requires
  // Start(). Returns the number of plans written.
  int64_t SavePlans(const std::string& dir);

  ServerStats stats() const;

  // Per-shard health state (sharded mode only; null when num_shards == 1).
  // Exposed for tests and for operators polling failover state.
  const ha::HealthMonitor* health_monitor() const { return monitor_.get(); }

  // Dynamic graphs: the background replanner's counters and a test hook
  // that blocks until every queued background recompile has run.
  dyn::ReplannerStats replanner_stats() const;
  void DrainRecompiles();

 private:
  using Clock = std::chrono::steady_clock;

  struct Pending {
    uint64_t id = 0;
    SampleRequest request;
    std::promise<SampleResponse> promise;
    PlanKey key;
    std::string canonical;  // key.Canonical(), cached
    int home_shard = 0;     // locality routing target (0 when unsharded)
    bool degraded = false;
    bool has_deadline = false;
    // Dynamic endpoints: the snapshot resolved at admission, pinned until
    // the response is fulfilled (mutations applied meanwhile never move a
    // request off its epoch).
    std::shared_ptr<const graph::Snapshot> snapshot;
    Clock::time_point deadline_abs{};
    Clock::time_point submitted{};
    Clock::time_point dequeued{};
  };

  const Endpoint* FindEndpoint(const std::string& algorithm, const std::string& dataset) const;
  void WorkerLoop(int worker);
  // Handles one admission token: picks a group and serves it. Returns false
  // when the token found no queued request (tolerated imbalance).
  bool ServeOne();
  // Completes `pending` without executing it: fulfills its promise with a
  // terminal `status` response and counts it (rejected, deadline_exceeded,
  // or failed under `code`). Rejections carry the retry-after hint; an
  // expired request reports its queue wait. Caller must not hold
  // sched_mutex_ or stats_mutex_.
  void Finish(Pending& pending, Status status, fault::ErrorCode code, std::string error);

  // Serves one group (members share a plan key, hence a home shard) through
  // the stages above. Every group takes this path: coalesced, walk-style
  // solo, failed over, or degraded.
  struct Group;
  void ExecuteAndScatter(std::vector<std::unique_ptr<Pending>> members);
  void Run(Group& group);      // the recovery ladder; re-places every attempt
  void Place(Group& group);    // picks the device, runs Execute pinned to it
  void Execute(Group& group);  // one attempt: plan resolve + execution
  void Scatter(Group& group);
  void AttachFeatures(Group& group);
  void Account(Group& group);
  // The one session factory: traces the endpoint's program against the
  // served graph (the pinned `snapshot` for dynamic endpoints, else the
  // endpoint's static graph), builds a session over `plan` — or over a
  // freshly compiled plan (passes + calibration) when `plan` is null — and
  // warms it up.
  std::shared_ptr<core::SamplerSession> BuildSession(
      const Endpoint& endpoint, const PlanKey& key,
      const std::shared_ptr<const graph::Snapshot>& snapshot,
      std::shared_ptr<core::CompiledPlan> plan);
  // Plan-cache miss path for `key`. For dynamic endpoints (`snapshot`
  // non-null) the resident frozen plan is judged first: a still-valid one
  // gets a cheap session rebuild (no passes, no calibration); a drifted one
  // serves stale and schedules a background recompile.
  std::shared_ptr<core::SamplerSession> BuildPlan(
      const Endpoint& endpoint, const PlanKey& key,
      const std::shared_ptr<const graph::Snapshot>& snapshot);
  // Replanner job body: full compile of `compile_key` against `snapshot`,
  // publishing the plan and the session into the plan cache so the next
  // request at that epoch hits. Runs on the replanner thread.
  void CompileForSnapshot(const std::string& compile_key,
                          const std::shared_ptr<const graph::Snapshot>& snapshot);
  // Counts one failed request of `tenant` under its error code. Caller
  // holds stats_mutex_.
  void CountFailedLocked(const std::string& tenant, fault::ErrorCode code);
  // Mutation listener (runs on the ingest thread, never a serving worker):
  // incremental re-partition, feature-cache invalidation, and epoch
  // accounting.
  void OnMutation(const std::string& dataset,
                  const std::shared_ptr<const graph::Snapshot>& snapshot,
                  const graph::MutationBatch& batch);
  // The dataset's current partition (swapped by OnMutation); null when
  // unsharded or unknown. Callers hold the returned shared_ptr across use.
  std::shared_ptr<const graph::Partition> PartitionFor(const std::string& dataset) const;
  // PlanCache::LoadFrom activator: re-binds tensors and warms up a session
  // over a persisted plan; null when this server cannot serve the key.
  std::shared_ptr<core::SamplerSession> ActivatePlan(const PlanKey& key,
                                                     std::shared_ptr<core::CompiledPlan> plan);
  // The feature-cache partition for (shard, tenant, dataset), created
  // lazily on the worker thread (with the shard's device active, so the
  // cache's backing pages land on — and are byte-accounted against — that
  // shard's allocator). `row_bytes` sizes the entries.
  feature::HotSetCache* TenantFeatureCache(int shard, const std::string& tenant,
                                           const std::string& dataset, int64_t row_bytes);

  ServerOptions options_;
  std::map<std::string, Endpoint> endpoints_;  // "algorithm|dataset" -> endpoint
  // Sharded mode: dataset name -> partition, plus one device per shard.
  // Immutable snapshots swapped under partition_mutex_ by OnMutation;
  // readers copy the shared_ptr (PartitionFor) and use it lock-free.
  mutable std::mutex partition_mutex_;
  std::map<std::string, std::shared_ptr<const graph::Partition>> partitions_;
  shard::Devices shard_devices_;
  std::unique_ptr<ha::HealthMonitor> monitor_;
  // Feature serving: per-(shard, tenant, dataset) cache partitions; rows
  // are gathered from the executing group's own graph (its pinned snapshot
  // for dynamic endpoints). Declared after shard_devices_ so the caches
  // (whose backing pages live on those devices) are destroyed first.
  mutable std::mutex feature_mutex_;
  std::map<std::string, std::unique_ptr<feature::HotSetCache>> feature_caches_;
  // Dynamic graphs: the background recompilation worker and the store
  // listeners to unregister at Stop().
  std::unique_ptr<dyn::Replanner> replanner_;
  std::vector<std::pair<graph::GraphStore*, int64_t>> store_listeners_;
  std::unique_ptr<PlanCache> plan_cache_;
  std::unique_ptr<pipeline::BoundedQueue<uint64_t>> tokens_;
  std::unique_ptr<pipeline::WorkerPool> pool_;
  std::atomic<bool> running_{false};

  std::atomic<uint64_t> next_id_{1};
  std::atomic<int64_t> queued_{0};           // admitted, not yet dequeued
  std::atomic<int64_t> ema_service_ns_{0};   // per-request EMA (wall)

  mutable std::mutex sched_mutex_;  // tenant queues + served counts
  std::map<std::string, std::deque<std::unique_ptr<Pending>>> tenant_queues_;
  std::map<std::string, int64_t> tenant_served_;

  mutable std::mutex stats_mutex_;
  ServerStats stats_;
  // One histogram per shard (a single entry when unsharded); stats() merges
  // them into the server-level percentiles.
  std::vector<LatencyHistogram> shard_latency_;
};

}  // namespace gs::serving

#endif  // GSAMPLER_SERVING_SERVER_H_
