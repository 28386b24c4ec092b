#include "serving/server.h"

#include <algorithm>
#include <exception>
#include <optional>
#include <sstream>
#include <thread>
#include <utility>

#include "common/error.h"
#include "fault/fault.h"
#include "fault/status.h"
#include "common/logging.h"
#include "common/timer.h"
#include "device/device.h"
#include "serving/coalescer.h"
#include "shard/shard.h"

namespace gs::serving {
namespace {

std::string EndpointKey(const std::string& algorithm, const std::string& dataset) {
  return algorithm + "|" + dataset;
}

int64_t ElapsedNs(std::chrono::steady_clock::time_point from,
                  std::chrono::steady_clock::time_point to) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(to - from).count();
}

// A small representative frontier for plan warmup: real train ids when the
// dataset has them (warmup then touches the same UVA/feature paths serving
// will), otherwise the first node ids.
tensor::IdArray WarmupFrontier(const graph::Graph& graph) {
  const tensor::IdArray& train = graph.train_ids();
  const int64_t pool = train.size() > 0 ? train.size() : std::max<int64_t>(graph.num_nodes(), 1);
  const int64_t n = std::min<int64_t>(32, pool);
  std::vector<int32_t> ids(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    ids[static_cast<size_t>(i)] =
        train.size() > 0 ? train[i] : static_cast<int32_t>(i % std::max<int64_t>(graph.num_nodes(), 1));
  }
  return tensor::IdArray::FromVector(ids);
}

// The frontier a response's features are gathered for: the last ids output
// of the program (the sampled frontier the caller will train on), falling
// back to the request's seeds for programs that emit no id output.
const tensor::IdArray& FeatureFrontier(const std::vector<core::Value>& outputs,
                                       const tensor::IdArray& seeds) {
  for (auto it = outputs.rbegin(); it != outputs.rend(); ++it) {
    if (it->kind == core::ValueKind::kIds && it->ids.defined() && !it->ids.empty()) {
      return it->ids;
    }
  }
  return seeds;
}

std::vector<int64_t> ShedFanouts(const std::vector<int64_t>& fanouts) {
  std::vector<int64_t> shed(fanouts.size());
  for (size_t i = 0; i < fanouts.size(); ++i) {
    shed[i] = std::max<int64_t>(1, fanouts[i] / 2);
  }
  return shed;
}

// Registry-backed program construction for every endpoint. Fanout vectors
// are honored for the fanout-parameterized algorithms; others compile with
// their defaults.
algorithms::AlgorithmProgram BuildProgram(const std::string& algorithm, const graph::Graph& g,
                                          const std::vector<int64_t>& fanouts) {
  if (!fanouts.empty()) {
    if (algorithm == "GraphSAGE") {
      return algorithms::GraphSage(g, algorithms::SageParams{.fanouts = fanouts});
    }
    if (algorithm == "GCN-BS") {
      return algorithms::GcnBs(g, algorithms::BanditParams{.fanouts = fanouts});
    }
    if (algorithm == "Thanos") {
      return algorithms::Thanos(g, algorithms::BanditParams{.fanouts = fanouts});
    }
    if (algorithm == "PASS") {
      algorithms::PassParams params;
      params.fanouts = fanouts;
      return algorithms::Pass(g, params);
    }
    if (algorithm == "FastGCN" || algorithm == "LADIES" || algorithm == "AS-GCN") {
      algorithms::LayerWiseParams params;
      params.num_layers = static_cast<int>(fanouts.size());
      params.layer_width = fanouts.front();
      if (algorithm == "FastGCN") {
        return algorithms::FastGcn(g, params);
      }
      if (algorithm == "LADIES") {
        return algorithms::Ladies(g, params);
      }
      return algorithms::Asgcn(g, params);
    }
  }
  return algorithms::MakeAlgorithm(algorithm, g);
}

std::vector<int64_t> RegistryDefaultFanouts(const std::string& algorithm) {
  if (algorithm == "GraphSAGE") {
    return algorithms::SageParams{}.fanouts;
  }
  if (algorithm == "GCN-BS" || algorithm == "Thanos") {
    return algorithms::BanditParams{}.fanouts;
  }
  if (algorithm == "PASS") {
    return algorithms::PassParams{}.fanouts;
  }
  if (algorithm == "FastGCN" || algorithm == "LADIES" || algorithm == "AS-GCN") {
    const algorithms::LayerWiseParams defaults;
    return std::vector<int64_t>(static_cast<size_t>(defaults.num_layers), defaults.layer_width);
  }
  return {};
}

}  // namespace

Endpoint MakeEndpoint(const std::string& algorithm, const std::string& dataset,
                      const graph::Graph& graph, core::SamplerOptions options) {
  Endpoint ep;
  ep.algorithm = algorithm;
  ep.dataset = dataset;
  ep.graph = &graph;
  ep.options = options;
  ep.default_fanouts = RegistryDefaultFanouts(algorithm);
  return ep;
}

Endpoint MakeDynamicEndpoint(const std::string& algorithm, const std::string& dataset,
                             graph::GraphStore& store, core::SamplerOptions options) {
  Endpoint ep;
  ep.algorithm = algorithm;
  ep.dataset = dataset;
  ep.store = &store;
  ep.options = options;
  ep.default_fanouts = RegistryDefaultFanouts(algorithm);
  return ep;
}

Server::Server(ServerOptions options) : options_(options) {
  GS_CHECK_GT(options_.num_workers, 0);
  GS_CHECK_GT(options_.queue_capacity, 0);
  GS_CHECK_GT(options_.coalesce_max, 0);
  GS_CHECK_GE(options_.num_shards, 1);
  GS_CHECK_LE(options_.num_shards, fault::kMaxShards)
      << "serving supports at most " << fault::kMaxShards << " shards";
  GS_CHECK_GE(options_.num_replicas, 1);
  GS_CHECK_LE(options_.num_replicas, options_.num_shards)
      << "more replicas than shard devices";
  shard_latency_.resize(static_cast<size_t>(std::max(1, options_.num_shards)));
}

Server::~Server() { Stop(); }

void Server::RegisterEndpoint(Endpoint endpoint) {
  GS_CHECK(!running_) << "endpoints must be registered before Start()";
  GS_CHECK(endpoint.store != nullptr || endpoint.graph != nullptr)
      << "endpoints need a graph or a store (see MakeEndpoint / MakeDynamicEndpoint)";
  const std::string key = EndpointKey(endpoint.algorithm, endpoint.dataset);
  endpoints_[key] = std::move(endpoint);
}

const Endpoint* Server::FindEndpoint(const std::string& algorithm,
                                     const std::string& dataset) const {
  auto it = endpoints_.find(EndpointKey(algorithm, dataset));
  return it != endpoints_.end() ? &it->second : nullptr;
}

void Server::Start() {
  GS_CHECK(!running_) << "server already running";
  GS_CHECK(!endpoints_.empty()) << "no endpoints registered";
  tokens_ = std::make_unique<pipeline::BoundedQueue<uint64_t>>(options_.queue_capacity);
  plan_cache_ = std::make_unique<PlanCache>(options_.plan_cache_budget_bytes,
                                            &device::Current().allocator());
  if (options_.num_shards > 1) {
    // Partition every registered dataset once and give each shard its own
    // simulated device: per-shard sessions allocate there and locality
    // routing (Submit) resolves against these partitions. num_replicas > 1
    // additionally mirrors each shard's segment (chained declustering) so
    // execution can fail over past dead devices. Dynamic endpoints
    // partition the store's current snapshot; later epochs re-partition
    // incrementally through the mutation listener (OnMutation).
    for (const auto& [key, endpoint] : endpoints_) {
      if (partitions_.find(endpoint.dataset) == partitions_.end()) {
        const graph::Graph& graph =
            endpoint.store != nullptr ? endpoint.store->Current()->graph() : *endpoint.graph;
        std::lock_guard<std::mutex> lock(partition_mutex_);
        partitions_[endpoint.dataset] =
            std::make_shared<const graph::Partition>(graph::Partitioner::Build(
                graph, options_.partition_kind, options_.num_shards, options_.num_replicas));
      }
    }
    shard_devices_.reserve(static_cast<size_t>(options_.num_shards));
    for (int s = 0; s < options_.num_shards; ++s) {
      shard_devices_.push_back(std::make_unique<device::Device>(device::Current().profile()));
    }
    monitor_ = std::make_unique<ha::HealthMonitor>(options_.num_shards, options_.health);
    // Pre-register every shard in the per-shard completion map so a shard
    // that dies before completing anything still shows up (as zero) in
    // stats() instead of silently vanishing from the report.
    std::lock_guard<std::mutex> lock(stats_mutex_);
    for (int s = 0; s < options_.num_shards; ++s) {
      stats_.per_shard_completed[s] += 0;
    }
  }
  // Dynamic endpoints: subscribe to each distinct store's mutation stream
  // (incremental re-partition, feature-cache invalidation, epoch
  // accounting) and start the background replanner. Listeners run on the
  // ingest thread — materialization, re-partitioning, and invalidation
  // never touch the serving path.
  bool any_dynamic = false;
  for (const auto& [key, endpoint] : endpoints_) {
    if (endpoint.store == nullptr) {
      continue;
    }
    any_dynamic = true;
    bool subscribed = false;
    for (const auto& [store, id] : store_listeners_) {
      if (store == endpoint.store) {
        subscribed = true;
        break;
      }
    }
    if (subscribed) {
      continue;
    }
    const std::string dataset = endpoint.dataset;
    const int64_t id = endpoint.store->AddListener(
        [this, dataset](const std::shared_ptr<const graph::Snapshot>& snapshot,
                        const graph::MutationBatch& batch) {
          OnMutation(dataset, snapshot, batch);
        });
    store_listeners_.emplace_back(endpoint.store, id);
  }
  if (any_dynamic && options_.background_recompile) {
    replanner_ = std::make_unique<dyn::Replanner>(
        [this](const std::string& key, std::shared_ptr<const graph::Snapshot> snapshot) {
          CompileForSnapshot(key, snapshot);
        });
    replanner_->Start();
  }
  pool_ = std::make_unique<pipeline::WorkerPool>(device::Current().profile(),
                                                 options_.num_workers);
  if (!options_.plan_dir.empty()) {
    // Warm start: activate persisted plans before workers begin serving, so
    // the first request of every restored endpoint is a cache hit with no
    // pass pipeline and no layout calibration.
    try {
      plan_cache_->LoadFrom(options_.plan_dir,
                            [this](const PlanKey& key, std::shared_ptr<core::CompiledPlan> plan) {
                              return ActivatePlan(key, std::move(plan));
                            });
    } catch (const Error& e) {
      GS_LOG(Warning) << "serving: plan warm-start failed, continuing cold: " << e.what();
    }
  }
  running_ = true;
  pool_->Start([this](int worker) { WorkerLoop(worker); });
  GS_LOG(Info) << "serving: started " << options_.num_workers << " workers, queue capacity "
               << options_.queue_capacity << ", coalesce_max " << options_.coalesce_max;
}

void Server::Stop() {
  if (!running_.exchange(false)) {
    return;
  }
  // Quiesce the dynamic-graph machinery first: unsubscribe from mutation
  // streams (no callback may outlive the server) and stop the replanner
  // after at most its in-flight compile.
  for (const auto& [store, id] : store_listeners_) {
    store->RemoveListener(id);
  }
  store_listeners_.clear();
  if (replanner_ != nullptr) {
    replanner_->Stop();
  }
  // Close() lets workers drain every queued admission token (each matching
  // an already-admitted request) before their Pop() returns nullopt.
  tokens_->Close();
  pool_->Join();
  if (!options_.plan_dir.empty() && plan_cache_ != nullptr) {
    // Best effort: a failed save must not turn shutdown into a crash.
    try {
      plan_cache_->SaveAll(options_.plan_dir);
    } catch (const Error& e) {
      GS_LOG(Warning) << "serving: failed to persist plans to " << options_.plan_dir << ": "
                      << e.what();
    }
  }
  // The token invariant (tokens remaining >= requests remaining) means the
  // queues are empty here; fail anything left over defensively.
  std::vector<std::unique_ptr<Pending>> leftovers;
  {
    std::lock_guard<std::mutex> lock(sched_mutex_);
    for (auto& [tenant, queue] : tenant_queues_) {
      for (auto& pending : queue) {
        leftovers.push_back(std::move(pending));
      }
      queue.clear();
    }
  }
  for (auto& pending : leftovers) {
    queued_.fetch_sub(1, std::memory_order_relaxed);
    SampleResponse response;
    response.status = Status::kFailed;
    response.code = fault::ErrorCode::kInternal;
    response.request_id = pending->id;
    response.error = "server stopped";
    const std::string tenant = pending->request.tenant;
    pending->promise.set_value(std::move(response));
    std::lock_guard<std::mutex> lock(stats_mutex_);
    CountFailedLocked(tenant, fault::ErrorCode::kInternal);
  }
  GS_LOG(Info) << "serving: stopped";
}

std::future<SampleResponse> Server::Submit(SampleRequest request) {
  auto pending = std::make_unique<Pending>();
  pending->id = next_id_.fetch_add(1, std::memory_order_relaxed);
  pending->submitted = Clock::now();
  pending->request = std::move(request);
  std::future<SampleResponse> future = pending->promise.get_future();
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.received;
  }

  const SampleRequest& req = pending->request;
  auto finish = [&](Status status, fault::ErrorCode code, const std::string& error,
                    bool with_retry) {
    SampleResponse response;
    response.status = status;
    response.code = code;
    response.request_id = pending->id;
    response.error = error;
    if (with_retry) {
      response.retry_after = options_.retry_after;
    }
    pending->promise.set_value(std::move(response));
    std::lock_guard<std::mutex> lock(stats_mutex_);
    if (status == Status::kRejected) {
      ++stats_.rejected;
    } else {
      CountFailedLocked(req.tenant, code);
    }
  };

  if (!running_) {
    finish(Status::kFailed, fault::ErrorCode::kInternal, "server not running", false);
    return future;
  }
  const Endpoint* endpoint = FindEndpoint(req.algorithm, req.dataset);
  if (endpoint == nullptr) {
    finish(Status::kFailed, fault::ErrorCode::kInvalidRequest,
           "unknown endpoint: " + EndpointKey(req.algorithm, req.dataset), false);
    return future;
  }
  if (!req.seeds.defined() || req.seeds.empty()) {
    finish(Status::kFailed, fault::ErrorCode::kInvalidRequest, "empty seed set", false);
    return future;
  }
  for (const int64_t fanout : req.fanouts) {
    if (fanout <= 0) {
      finish(Status::kFailed, fault::ErrorCode::kInvalidRequest,
             "fanouts must be positive, got " + std::to_string(fanout), false);
      return future;
    }
  }

  // Graceful degradation: past the shed threshold, admit with halved
  // fanouts instead of rejecting outright.
  std::vector<int64_t> fanouts = req.fanouts.empty() ? endpoint->default_fanouts : req.fanouts;
  const int64_t backlog = queued_.load(std::memory_order_relaxed);
  const int64_t shed_threshold =
      static_cast<int64_t>(options_.shed_occupancy * options_.queue_capacity);
  if (!fanouts.empty() && backlog >= shed_threshold) {
    fanouts = ShedFanouts(fanouts);
    pending->degraded = true;
  }

  pending->has_deadline = req.deadline.count() > 0;
  pending->deadline_abs = pending->submitted + req.deadline;

  // Deadline-aware admission: estimate completion as (queue depth / workers
  // + 1) service times and reject when that already exceeds the deadline.
  // With no service history yet, admit.
  if (pending->has_deadline && options_.deadline_admission) {
    const int64_t ema = ema_service_ns_.load(std::memory_order_relaxed);
    if (ema > 0) {
      const int64_t waves = backlog / std::max(1, options_.num_workers) + 1;
      if (ema * waves > req.deadline.count()) {
        finish(Status::kRejected, fault::ErrorCode::kResourceExhausted,
               "deadline infeasible under current load", true);
        return future;
      }
    }
  }

  pending->key.algorithm = req.algorithm;
  pending->key.dataset = req.dataset;
  pending->key.device = device::Current().profile().name;
  pending->key.pass_config = PassConfigDigest(endpoint->options);
  pending->key.fanouts = std::move(fanouts);
  if (endpoint->store != nullptr) {
    // Dynamic endpoint: resolve the latest snapshot at admission and pin it
    // for the request's lifetime. The epoch + digest join the plan key, so
    // sessions and coalescing groups never mix epochs.
    pending->snapshot = endpoint->store->Current();
    pending->key.dynamic = true;
    pending->key.graph_epoch = pending->snapshot->epoch();
    pending->key.graph_digest = pending->snapshot->digest();
  }
  if (options_.num_shards > 1) {
    // Locality-aware routing: execute on the shard owning the plurality of
    // the seeds. The shard is part of the plan key, so each shard warms its
    // own session and coalescing stays shard-local.
    const std::shared_ptr<const graph::Partition> partition = PartitionFor(req.dataset);
    if (partition != nullptr) {
      pending->home_shard = partition->HomeShard(req.seeds.data(), req.seeds.size());
      pending->key.shard = pending->home_shard;
    }
  }
  pending->canonical = pending->key.Canonical();

  // Register under the scheduler mutex so a worker that pops this request's
  // token is guaranteed to find it already queued; a TryPush refusal (queue
  // full, or closed by Stop) is the overload signal.
  const std::string tenant = req.tenant;
  {
    std::lock_guard<std::mutex> lock(sched_mutex_);
    if (tokens_->TryPush(pending->id)) {
      queued_.fetch_add(1, std::memory_order_relaxed);
      tenant_queues_[tenant].push_back(std::move(pending));
      std::lock_guard<std::mutex> stats_lock(stats_mutex_);
      ++stats_.admitted;
      return future;
    }
  }
  finish(Status::kRejected, fault::ErrorCode::kResourceExhausted, "admission queue full", true);
  return future;
}

void Server::WorkerLoop(int worker) {
  // Nothing a request does may kill a worker: ExecuteAndScatter already
  // classifies and absorbs execution failures per request, so anything that
  // reaches this boundary is a server-side bug — log it, count it, and keep
  // serving. (A dead worker would strand queued admission tokens and turn
  // every later request into a "server stopped" failure at Stop().)
  while (tokens_->Pop().has_value()) {
    try {
      ServeOne();
    } catch (const std::exception& e) {
      GS_LOG(Warning) << "serving: worker " << worker
                      << " caught exception at the loop boundary: " << e.what();
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.worker_exceptions;
    } catch (...) {
      GS_LOG(Warning) << "serving: worker " << worker
                      << " caught non-standard exception at the loop boundary";
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.worker_exceptions;
    }
  }
}

// Strict scheduling order within a tenant: earliest deadline first (requests
// with deadlines ahead of those without), then priority, then arrival.
static bool ScheduleBefore(const SampleRequest& a_req, bool a_has_deadline,
                           std::chrono::steady_clock::time_point a_deadline, uint64_t a_id,
                           const SampleRequest& b_req, bool b_has_deadline,
                           std::chrono::steady_clock::time_point b_deadline, uint64_t b_id) {
  if (a_has_deadline != b_has_deadline) {
    return a_has_deadline;
  }
  if (a_has_deadline && a_deadline != b_deadline) {
    return a_deadline < b_deadline;
  }
  if (a_req.priority != b_req.priority) {
    return a_req.priority > b_req.priority;
  }
  return a_id < b_id;
}

bool Server::ServeOne() {
  std::vector<std::unique_ptr<Pending>> expired;
  std::vector<std::unique_ptr<Pending>> group;
  {
    std::lock_guard<std::mutex> lock(sched_mutex_);
    const Clock::time_point now = Clock::now();

    // Requests that expired while queued complete without executing.
    for (auto& [tenant, queue] : tenant_queues_) {
      for (auto it = queue.begin(); it != queue.end();) {
        if ((*it)->has_deadline && (*it)->deadline_abs <= now) {
          queued_.fetch_sub(1, std::memory_order_relaxed);
          expired.push_back(std::move(*it));
          it = queue.erase(it);
        } else {
          ++it;
        }
      }
    }

    // Fair queueing across tenants: serve the least-served tenant first.
    std::map<std::string, std::deque<std::unique_ptr<Pending>>>::iterator best_tenant =
        tenant_queues_.end();
    for (auto it = tenant_queues_.begin(); it != tenant_queues_.end(); ++it) {
      if (it->second.empty()) {
        continue;
      }
      if (best_tenant == tenant_queues_.end() ||
          tenant_served_[it->first] < tenant_served_[best_tenant->first]) {
        best_tenant = it;
      }
    }
    if (best_tenant != tenant_queues_.end()) {
      auto& queue = best_tenant->second;
      auto leader = queue.begin();
      for (auto it = std::next(queue.begin()); it != queue.end(); ++it) {
        if (ScheduleBefore((*it)->request, (*it)->has_deadline, (*it)->deadline_abs, (*it)->id,
                           (*leader)->request, (*leader)->has_deadline, (*leader)->deadline_abs,
                           (*leader)->id)) {
          leader = it;
        }
      }
      queued_.fetch_sub(1, std::memory_order_relaxed);
      tenant_served_[best_tenant->first] += 1;
      group.push_back(std::move(*leader));
      queue.erase(leader);

      // Coalesce: gather queued requests (any tenant, arrival order) whose
      // plan key matches the leader's, consuming one admission token per
      // extra so tokens keep pace with queued requests. A TryPop miss just
      // leaves a surplus token that some worker later pops as a no-op.
      if (options_.enable_coalescing) {
        const std::string& canonical = group.front()->canonical;
        for (auto& [tenant, queue2] : tenant_queues_) {
          if (static_cast<int>(group.size()) >= options_.coalesce_max) {
            break;
          }
          for (auto it = queue2.begin();
               it != queue2.end() && static_cast<int>(group.size()) < options_.coalesce_max;) {
            if ((*it)->canonical == canonical) {
              tokens_->TryPop();
              queued_.fetch_sub(1, std::memory_order_relaxed);
              tenant_served_[tenant] += 1;
              group.push_back(std::move(*it));
              it = queue2.erase(it);
            } else {
              ++it;
            }
          }
        }
      }
    }
  }

  for (auto& pending : expired) {
    CompleteExpired(std::move(pending));
  }
  if (group.empty()) {
    return false;  // spurious token (its request was coalesced or expired)
  }
  ExecuteAndScatter(std::move(group));
  return true;
}

void Server::CompleteExpired(std::unique_ptr<Pending> pending) {
  SampleResponse response;
  response.status = Status::kDeadlineExceeded;
  response.request_id = pending->id;
  response.degraded = pending->degraded;
  response.stages.queue_wait_ns = ElapsedNs(pending->submitted, Clock::now());
  response.stages.total_ns = response.stages.queue_wait_ns;
  response.error = "deadline expired while queued";
  pending->promise.set_value(std::move(response));
  std::lock_guard<std::mutex> lock(stats_mutex_);
  ++stats_.deadline_exceeded;
}

std::shared_ptr<core::SamplerSession> Server::BuildSession(
    const Endpoint& endpoint, const PlanKey& key,
    const std::shared_ptr<const graph::Snapshot>& snapshot,
    std::shared_ptr<core::CompiledPlan> plan) {
  const graph::Graph& graph = snapshot != nullptr ? snapshot->graph() : *endpoint.graph;
  // With a given plan the re-trace only recovers the named tensor bindings;
  // the plan (program + annotations + calibration) is used as-is, so no
  // passes and no calibration run.
  algorithms::AlgorithmProgram algorithm = BuildProgram(endpoint.algorithm, graph, key.fanouts);
  if (plan == nullptr) {
    core::SamplerOptions options = endpoint.options;
    // The server groups requests itself; epoch-style super-batching inside
    // the plan would fight the coalescer.
    options.super_batch = 1;
    plan = std::make_shared<core::CompiledPlan>(std::move(algorithm.program), options,
                                                endpoint.algorithm);
  }
  auto session = std::make_shared<core::SamplerSession>(
      std::move(plan), graph, std::move(algorithm.tensors), snapshot);
  session->Warmup(WarmupFrontier(graph));
  return session;
}

std::shared_ptr<core::SamplerSession> Server::BuildPlan(
    const Endpoint& endpoint, const PlanKey& key,
    const std::shared_ptr<const graph::Snapshot>& snapshot) {
  if (snapshot == nullptr) {
    return BuildSession(endpoint, key, nullptr, nullptr);
  }

  // Dynamic endpoint: judge the resident frozen plan before paying for
  // passes + calibration.
  std::shared_ptr<core::CompiledPlan> plan;
  std::string why;
  const PlanJudgment judgment = plan_cache_->Judge(key, *snapshot, &plan, &why);
  if (judgment == PlanJudgment::kMiss ||
      (judgment == PlanJudgment::kDrifted && replanner_ == nullptr)) {
    // Cold start, or drift with background recompilation disabled: the full
    // compile runs here on the serving path.
    std::shared_ptr<core::SamplerSession> session =
        BuildSession(endpoint, key, snapshot, nullptr);
    plan_cache_->Publish(key, session->plan_ptr(), *snapshot);
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.recompiles_inline;
    return session;
  }

  // Cheap path: rebuild a session over the resident frozen plan. A drifted
  // plan still serves correct results (layout decisions affect cost, never
  // values) while the replanner recompiles off the serving path.
  std::shared_ptr<core::SamplerSession> session =
      BuildSession(endpoint, key, snapshot, std::move(plan));
  if (judgment == PlanJudgment::kDrifted) {
    GS_LOG(Info) << "serving: plan " << key.CompileKey() << " drifted past validity (" << why
                 << "); serving stale, recompiling in the background";
    replanner_->Enqueue(key.CompileKey(), snapshot);
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.stale_plans_served;
  } else {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.plan_reuses;
  }
  return session;
}

void Server::CompileForSnapshot(const std::string& compile_key,
                                const std::shared_ptr<const graph::Snapshot>& snapshot) {
  PlanKey key = PlanKey::Parse(compile_key);
  const Endpoint* endpoint = FindEndpoint(key.algorithm, key.dataset);
  if (endpoint == nullptr || endpoint->store == nullptr) {
    return;  // endpoint vanished (shutdown race); nothing to publish
  }
  std::optional<device::ThreadDeviceGuard> shard_guard;
  if (options_.num_shards > 1 && key.shard < static_cast<int>(shard_devices_.size())) {
    shard_guard.emplace(*shard_devices_[static_cast<size_t>(key.shard)]);
  }
  key.dynamic = true;
  key.graph_epoch = snapshot->epoch();
  key.graph_digest = snapshot->digest();
  std::shared_ptr<core::SamplerSession> session = BuildSession(*endpoint, key, snapshot, nullptr);
  // Publish the plan and the warmed session at its epoch so the next
  // request there hits the cache instead of rebuilding.
  plan_cache_->Publish(key, session->plan_ptr(), *snapshot);
  plan_cache_->Insert(key, std::move(session));
  std::lock_guard<std::mutex> lock(stats_mutex_);
  ++stats_.recompiles_background;
}

void Server::CountFailedLocked(const std::string& tenant, fault::ErrorCode code) {
  ++stats_.failed;
  ++stats_.per_tenant_failed[tenant];
  switch (code) {
    case fault::ErrorCode::kTransient:
      ++stats_.failed_transient;
      break;
    case fault::ErrorCode::kResourceExhausted:
      ++stats_.failed_resource_exhausted;
      break;
    case fault::ErrorCode::kInvalidRequest:
      ++stats_.failed_invalid;
      break;
    default:
      ++stats_.failed_internal;
      break;
  }
}

void Server::OnMutation(const std::string& dataset,
                        const std::shared_ptr<const graph::Snapshot>& snapshot,
                        const graph::MutationBatch& batch) {
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.graph_epochs;
  }
  // Incremental re-partition with pinned ownership: only shards owning a
  // touched column get their CSC segment re-sliced; routing (and every
  // global<->local map) stays stable, so in-flight requests keep resolving
  // the same home shards.
  if (options_.num_shards > 1) {
    const std::shared_ptr<const graph::Partition> base = PartitionFor(dataset);
    if (base != nullptr) {
      auto next = std::make_shared<const graph::Partition>(
          graph::Partitioner::Rebuild(*base, snapshot->graph(), batch.TouchedColumns()));
      {
        std::lock_guard<std::mutex> lock(partition_mutex_);
        partitions_[dataset] = next;
      }
      std::lock_guard<std::mutex> lock(stats_mutex_);
      stats_.partition_segments_rebuilt += next->segments_rebuilt();
      stats_.partition_segments_reused += next->segments_reused();
    }
  }
  // Feature tier: invalidate exactly the mutated rows in every cache
  // partition of this dataset — un-touched rows are identical across
  // epochs, so their cached copies stay valid.
  if (!batch.update_features.empty()) {
    int64_t invalidated = 0;
    {
      std::lock_guard<std::mutex> lock(feature_mutex_);
      const std::string suffix = "|" + dataset;
      for (auto& [cache_key, cache] : feature_caches_) {
        if (cache_key.size() >= suffix.size() &&
            cache_key.compare(cache_key.size() - suffix.size(), suffix.size(), suffix) == 0) {
          for (const graph::FeatureUpdate& update : batch.update_features) {
            cache->Invalidate(static_cast<uint64_t>(update.node));
            ++invalidated;
          }
        }
      }
    }
    if (invalidated > 0) {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      stats_.feature_invalidations += invalidated;
    }
  }
}

std::shared_ptr<const graph::Partition> Server::PartitionFor(const std::string& dataset) const {
  std::lock_guard<std::mutex> lock(partition_mutex_);
  auto it = partitions_.find(dataset);
  return it != partitions_.end() ? it->second : nullptr;
}

void Server::DrainRecompiles() {
  if (replanner_ != nullptr) {
    replanner_->Drain();
  }
}

dyn::ReplannerStats Server::replanner_stats() const {
  return replanner_ != nullptr ? replanner_->stats() : dyn::ReplannerStats{};
}

std::shared_ptr<core::SamplerSession> Server::ActivatePlan(
    const PlanKey& key, std::shared_ptr<core::CompiledPlan> plan) {
  const Endpoint* endpoint = FindEndpoint(key.algorithm, key.dataset);
  if (endpoint == nullptr) {
    return nullptr;  // this server no longer serves the endpoint
  }
  if (key.device != device::Current().profile().name) {
    return nullptr;  // calibrated for a different device profile
  }
  if (key.pass_config != PassConfigDigest(endpoint->options)) {
    return nullptr;  // stale artifact: pass configuration changed
  }
  if (key.shard >= std::max(1, options_.num_shards)) {
    return nullptr;  // persisted by a server with more shards
  }
  if (key.dynamic != (endpoint->store != nullptr)) {
    return nullptr;  // endpoint changed between static and dynamic
  }
  std::optional<device::ThreadDeviceGuard> shard_guard;
  if (options_.num_shards > 1) {
    shard_guard.emplace(*shard_devices_[static_cast<size_t>(key.shard)]);
  }
  std::shared_ptr<const graph::Snapshot> snapshot;
  if (key.dynamic) {
    // A persisted dynamic plan is only servable when the store's current
    // epoch has the exact digest it was calibrated against; anything else
    // must recompile through the plan cache's validity judgment.
    snapshot = endpoint->store->Current();
    if (key.graph_digest != snapshot->digest()) {
      return nullptr;
    }
  }
  std::shared_ptr<core::SamplerSession> session =
      BuildSession(*endpoint, key, snapshot, std::move(plan));
  if (snapshot != nullptr) {
    plan_cache_->Publish(key, session->plan_ptr(), *snapshot);
  }
  return session;
}

feature::HotSetCache* Server::TenantFeatureCache(int shard, const std::string& tenant,
                                                 const std::string& dataset,
                                                 int64_t row_bytes) {
  const std::string key = std::to_string(shard) + "|" + tenant + "|" + dataset;
  std::lock_guard<std::mutex> lock(feature_mutex_);
  auto it = feature_caches_.find(key);
  if (it != feature_caches_.end()) {
    return it->second.get();
  }
  // Per-tenant partitioning: each tenant gets an equal slice of the shard's
  // feature-cache byte budget, sized in whole feature rows. The partition
  // allocates real backing pages from the current (shard) device and joins
  // its allocator's OOM ladder.
  const int64_t share = options_.feature_cache_budget_bytes /
                        std::max(1, options_.feature_cache_partitions);
  const int64_t capacity = std::max<int64_t>(64, share / std::max<int64_t>(row_bytes, 1));
  auto cache = std::make_unique<feature::HotSetCache>(feature::HotSetCacheOptions{
      .capacity = capacity,
      .admission = options_.feature_admission,
      .entry_bytes = row_bytes,
      .register_pressure_handler = true,
  });
  feature::HotSetCache* raw = cache.get();
  feature_caches_[key] = std::move(cache);
  return raw;
}

int64_t Server::SavePlans(const std::string& dir) {
  GS_CHECK(plan_cache_ != nullptr) << "SavePlans requires Start()";
  return plan_cache_->SaveAll(dir);
}

// GCC 12's -Wmaybe-uninitialized loses track of std::optional's engaged flag
// for the shard_guard below and claims ThreadDeviceGuard::previous_ may be
// read uninitialized in the destructor; the guard is only ever destroyed
// engaged (reset()/emplace() pair inside the retry loop).
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif
void Server::ExecuteAndScatter(std::vector<std::unique_ptr<Pending>> group) {
  const Clock::time_point dequeued = Clock::now();
  for (auto& pending : group) {
    pending->dequeued = dequeued;
  }
  Pending& leader = *group.front();

  std::ostringstream tag;
  tag << "req=" << leader.id;
  if (group.size() > 1) {
    tag << "+" << group.size() - 1;
  }
  ScopedLogTag log_tag(tag.str());

  const Endpoint* endpoint = FindEndpoint(leader.request.algorithm, leader.request.dataset);
  GS_CHECK(endpoint != nullptr);

  // Sharded mode: each execution attempt re-resolves the executing device —
  // the home shard's replica chain is walked in placement order, skipping
  // devices the health monitor holds dead (a dead device still gets one
  // probe per backoff window). The chosen device is pinned for the
  // resolve+execute span and cross-shard adjacency pulls are metered with a
  // FrontierExchange observer. The group is shard-homogeneous because the
  // shard is part of the plan key; executing on a replica changes only
  // which timeline is charged, never the outputs (sessions bind the full
  // graph).
  const int shard = leader.home_shard;
  // Pin the partition for the whole execution: a mutation epoch may swap in
  // an incrementally rebuilt partition mid-flight, and routing decisions
  // must stay consistent within one group.
  std::shared_ptr<const graph::Partition> pinned_partition;
  const graph::Partition* partition = nullptr;
  std::optional<device::ThreadDeviceGuard> shard_guard;
  std::optional<fault::ShardScope> fault_scope;
  if (options_.num_shards > 1) {
    pinned_partition = PartitionFor(endpoint->dataset);
    partition = pinned_partition.get();
  }
  int64_t exchange_hops = 0;
  int64_t exchange_remote_nodes = 0;
  int64_t exchange_bytes = 0;
  int64_t hedged = 0;
  int exec_shard = shard;     // device that actually executed (== shard unsharded)
  bool unavailable = false;   // no live replica of the home shard

  // Recovery ladder around plan resolution + execution. Transient failures
  // (injected kernel faults, watchdog-cancelled batches, UVA transfer
  // errors) are retried with exponential backoff — results are a pure
  // function of (seeds, seed), so a retry returns bit-identical outputs.
  // Resource exhaustion that survived the allocator's own ladder gets one
  // retry with shed (halved) fanouts, reusing the overload-degradation
  // path. Invalid requests and internal errors fail immediately.
  bool cache_hit = false;
  int64_t compile_ns = 0;
  GroupResult result;
  bool coalesced = false;
  int64_t executions = 0;
  std::string error;
  fault::ErrorCode code = fault::ErrorCode::kOk;
  PlanKey key = leader.key;
  int transient_left = std::max(0, options_.max_transient_retries);
  bool shed_retry_used = false;
  std::chrono::nanoseconds backoff = options_.retry_backoff;

  while (true) {
    error.clear();
    code = fault::ErrorCode::kOk;
    result = GroupResult{};
    coalesced = false;
    exchange_hops = 0;
    exchange_remote_nodes = 0;
    exchange_bytes = 0;
    hedged = 0;
    // Placement: walk the home shard's replica chain. A shard.lost
    // injection at placement marks the device dead and moves on; when no
    // replica admits work the group degrades instead of failing. Guards
    // outlive the loop so the feature/scatter phase below still runs on the
    // executing device.
    if (options_.num_shards > 1) {
      fault_scope.reset();
      shard_guard.reset();
      exec_shard = -1;
      const int replicas = partition != nullptr ? partition->num_replicas() : 1;
      for (int r = 0; r < replicas; ++r) {
        const int candidate =
            partition != nullptr ? partition->ReplicaDevice(shard, r) : shard;
        if (!monitor_->AdmitWork(candidate)) {
          continue;
        }
        fault::ShardScope probe_scope(candidate);
        if (fault::Injected(fault::Site::kShardLost)) {
          shard_devices_[static_cast<size_t>(candidate)]->MarkLost();
          monitor_->ReportDeviceLost(candidate);
          continue;
        }
        exec_shard = candidate;
        break;
      }
      if (exec_shard < 0) {
        unavailable = true;
        code = fault::ErrorCode::kUnavailable;
        error = "no live replica for shard " + std::to_string(shard);
        break;
      }
      shard_guard.emplace(*shard_devices_[static_cast<size_t>(exec_shard)]);
      fault_scope.emplace(exec_shard);
    }
    try {
      bool hit = false;
      int64_t build_ns = 0;
      std::shared_ptr<core::SamplerSession> plan = plan_cache_->GetOrBuild(
          key, [&] { return BuildPlan(*endpoint, key, leader.snapshot); }, &hit, &build_ns);
      cache_hit = hit;
      compile_ns += build_ns;
      auto run_group = [&](const std::vector<tensor::IdArray>& frontiers,
                           const std::vector<uint64_t>& seeds) {
        if (partition == nullptr) {
          return ExecuteGroup(*plan, frontiers, seeds);
        }
        shard::FrontierExchange exchange(*partition, exec_shard, monitor_.get(),
                                         options_.max_hedged_exchanges);
        core::HopObserverGuard observer(exchange);
        GroupResult group_result = ExecuteGroup(*plan, frontiers, seeds);
        for (const shard::HopRecord& h : exchange.hops()) {
          if (h.remote_nodes > 0) {
            ++exchange_hops;
          }
          exchange_remote_nodes += h.remote_nodes;
          exchange_bytes += h.bytes;
        }
        hedged += exchange.hedges();
        return group_result;
      };
      if (plan->Coalescable()) {
        std::vector<tensor::IdArray> frontiers;
        std::vector<uint64_t> seeds;
        frontiers.reserve(group.size());
        seeds.reserve(group.size());
        for (auto& pending : group) {
          frontiers.push_back(pending->request.seeds);
          seeds.push_back(pending->request.seed);
        }
        result = run_group(frontiers, seeds);
        coalesced = group.size() > 1;
        executions = 1;
        break;
      }
      // Walk-style plans can't share a segmented execution; serve the
      // gathered requests back to back on this worker instead.
      result.outputs.resize(group.size());
      Timer timer;
      for (size_t i = 0; i < group.size(); ++i) {
        GroupResult solo = run_group({group[i]->request.seeds}, {group[i]->request.seed});
        result.outputs[i] = std::move(solo.outputs[0]);
      }
      result.execute_ns = timer.ElapsedNanos();
      executions = static_cast<int64_t>(group.size());
      break;
    } catch (const std::exception& e) {
      error = e.what();
      code = fault::Classify(e);
      if (monitor_ != nullptr && exec_shard >= 0 &&
          code == fault::ErrorCode::kTransient) {
        // Injected kernel faults, watchdog cancellations, and exchange
        // timeouts past the hedge budget feed the shard's suspect state;
        // the retry below re-resolves placement, so a shard the signals
        // kill gets skipped on the next attempt.
        monitor_->ReportTransient(exec_shard);
      }
    }
    if (code == fault::ErrorCode::kTransient && transient_left > 0) {
      --transient_left;
      {
        std::lock_guard<std::mutex> lock(stats_mutex_);
        ++stats_.transient_retries;
      }
      GS_LOG(Debug) << "serving: transient failure, retrying after " << backoff.count() / 1000
                    << " us: " << error;
      std::this_thread::sleep_for(backoff);
      backoff *= 2;
      continue;
    }
    if (code == fault::ErrorCode::kResourceExhausted && options_.shed_on_resource_exhausted &&
        !shed_retry_used && !key.fanouts.empty()) {
      shed_retry_used = true;
      key.fanouts = ShedFanouts(key.fanouts);
      {
        std::lock_guard<std::mutex> lock(stats_mutex_);
        ++stats_.shed_retries;
      }
      GS_LOG(Warning) << "serving: resource exhausted, retrying with shed fanouts: " << error;
      continue;
    }
    break;  // terminal failure
  }
  if (unavailable) {
    // No live replica of the home shard: answer partially from the devices
    // still standing rather than failing the whole group.
    GS_CHECK(partition != nullptr);
    ServeDegraded(std::move(group), *endpoint, *partition);
    return;
  }
  if (monitor_ != nullptr && error.empty()) {
    monitor_->ReportSuccess(exec_shard);
    device::Device& exec_device = *shard_devices_[static_cast<size_t>(exec_shard)];
    if (exec_device.lost()) {
      exec_device.Revive();  // a backoff probe made it through
    }
  }
  if (shed_retry_used && error.empty()) {
    // Shed-fanout results are degraded regardless of admission-time state.
    for (auto& pending : group) {
      pending->degraded = true;
    }
  }
  GS_LOG(Debug) << "serving: executed group of " << group.size() << " ("
                << (cache_hit ? "plan hit" : "plan miss") << ", " << result.execute_ns / 1000
                << " us)" << (error.empty() ? "" : " FAILED");

  // Scatter results back per request.
  Timer scatter_timer;
  std::vector<SampleResponse> responses(group.size());
  for (size_t i = 0; i < group.size(); ++i) {
    Pending& pending = *group[i];
    SampleResponse& response = responses[i];
    response.request_id = pending.id;
    response.degraded = pending.degraded;
    response.group_size = coalesced ? static_cast<int>(group.size()) : 1;
    response.stages.queue_wait_ns = ElapsedNs(pending.submitted, pending.dequeued);
    response.stages.compile_ns = compile_ns;
    response.stages.plan_cache_hit = cache_hit;
    response.stages.execute_ns = result.execute_ns;
    if (error.empty()) {
      response.status = Status::kOk;
      response.outputs = std::move(result.outputs[i]);
    } else {
      response.status = Status::kFailed;
      response.error = error;
      response.code = code;
    }
  }
  const int64_t scatter_ns = scatter_timer.ElapsedNanos();

  // Feature tier: attach the gathered feature rows to every successful
  // response, each through its tenant's cache partition on this shard (the
  // shard device guard is still active, so backing pages and gather kernels
  // land on the executing shard). Coalesced members gather from their own
  // scattered outputs, so the rows are identical to being served alone.
  feature::GatherStats group_gather;
  int64_t feature_responses = 0;
  int64_t feature_wall_ns = 0;
  // Rows come from the group's own graph: a dynamic group's pinned snapshot
  // holds its epoch's feature tensor, so feature updates applied while the
  // group was in flight never leak into its responses.
  const graph::Graph& served =
      leader.snapshot != nullptr ? leader.snapshot->graph() : *endpoint->graph;
  if (options_.serve_features && error.empty() && served.features().defined()) {
    const feature::FeatureStore store(served.features());
    for (size_t i = 0; i < group.size(); ++i) {
      SampleResponse& response = responses[i];
      if (response.status != Status::kOk) {
        continue;
      }
      feature::HotSetCache* cache = TenantFeatureCache(
          exec_shard, group[i]->request.tenant, endpoint->dataset, store.row_bytes());
      Timer feature_timer;
      try {
        const tensor::IdArray& ids =
            FeatureFrontier(response.outputs, group[i]->request.seeds);
        response.features = store.Gather(ids, cache, &group_gather);
        response.feature_ids = ids;
        response.stages.feature_ns = feature_timer.ElapsedNanos();
        feature_wall_ns += response.stages.feature_ns;
        ++feature_responses;
      } catch (const std::exception& e) {
        // A failed gather (injected transfer fault) fails the response —
        // a frontier without the features the caller asked for is not a
        // success — but never the worker.
        response.status = Status::kFailed;
        response.outputs.clear();
        response.features = {};
        response.feature_ids = {};
        response.error = std::string("feature gather failed: ") + e.what();
        response.code = fault::Classify(e);
      }
    }
  }

  // Service-time EMA feeding deadline admission (amortized per request).
  if (error.empty()) {
    const int64_t per_request =
        (compile_ns + result.execute_ns) / static_cast<int64_t>(group.size());
    const int64_t previous = ema_service_ns_.load(std::memory_order_relaxed);
    const int64_t next = previous == 0 ? per_request : (7 * previous + per_request) / 8;
    ema_service_ns_.store(next, std::memory_order_relaxed);
  }

  std::vector<int64_t> totals(group.size());
  const Clock::time_point done = Clock::now();
  for (size_t i = 0; i < group.size(); ++i) {
    responses[i].stages.scatter_ns = scatter_ns;
    totals[i] = ElapsedNs(group[i]->submitted, done);
    responses[i].stages.total_ns = totals[i];
  }
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    stats_.executions += executions;
    stats_.requests_executed += static_cast<int64_t>(group.size());
    if (coalesced) {
      ++stats_.coalesced_executions;
    }
    if (error.empty() && options_.num_shards > 1) {
      stats_.exchange_hops += exchange_hops;
      stats_.exchange_remote_nodes += exchange_remote_nodes;
      stats_.exchange_bytes += exchange_bytes;
      stats_.hedged_exchanges += hedged;
      if (exec_shard != shard) {
        // Served by a non-primary replica: count one failover per execution,
        // not per coalesced member.
        ++stats_.failovers;
      }
    }
    if (feature_responses > 0) {
      stats_.feature_requests += feature_responses;
      stats_.feature_rows += group_gather.rows;
      stats_.feature_cache_hits += group_gather.hits;
      stats_.feature_cache_misses += group_gather.misses;
      stats_.feature_gather_bytes += group_gather.gathered_bytes;
      stats_.feature_miss_bytes += group_gather.miss_bytes;
      stats_.feature_gather_ns += feature_wall_ns;
    }
    for (size_t i = 0; i < group.size(); ++i) {
      if (responses[i].status == Status::kOk) {
        ++stats_.completed;
        ++stats_.per_tenant_completed[group[i]->request.tenant];
        if (options_.num_shards > 1) {
          // Attribute to the device that did the work, so failover shows up
          // in the per-shard breakdown instead of crediting the dead shard.
          ++stats_.per_shard_completed[exec_shard];
        }
        if (responses[i].degraded) {
          ++stats_.degraded;
        }
        shard_latency_[static_cast<size_t>(exec_shard)].Record(totals[i]);
      } else {
        CountFailedLocked(group[i]->request.tenant, responses[i].code);
      }
    }
  }
  for (size_t i = 0; i < group.size(); ++i) {
    group[i]->promise.set_value(std::move(responses[i]));
  }
}
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

void Server::ServeDegraded(std::vector<std::unique_ptr<Pending>> group, const Endpoint& endpoint,
                           const graph::Partition& partition) {
  // Fallback placement: the lowest-numbered live device. Every worker
  // resolves the same device for the same monitor state, so a replayed
  // fault schedule reproduces the same degraded outputs bit-for-bit.
  int exec = -1;
  for (int s = 0; s < options_.num_shards; ++s) {
    if (monitor_->Alive(s)) {
      exec = s;
      break;
    }
  }

  // Resolve the plan once for the group (shard-homogeneous key). Failures
  // here must still fulfill every promise below — no future may hang.
  std::shared_ptr<core::SamplerSession> plan;
  std::string plan_error;
  int64_t compile_ns = 0;
  bool cache_hit = false;
  if (exec >= 0) {
    device::ThreadDeviceGuard guard(*shard_devices_[static_cast<size_t>(exec)]);
    try {
      bool hit = false;
      const PlanKey& key = group.front()->key;
      plan = plan_cache_->GetOrBuild(
          key, [&] { return BuildPlan(endpoint, key, group.front()->snapshot); }, &hit,
          &compile_ns);
      cache_hit = hit;
    } catch (const std::exception& e) {
      plan_error = std::string("degraded plan resolution failed: ") + e.what();
    }
  }

  std::vector<SampleResponse> responses(group.size());
  std::vector<char> ran(group.size(), 0);
  int64_t executed = 0;
  for (size_t i = 0; i < group.size(); ++i) {
    Pending& pending = *group[i];
    SampleResponse& response = responses[i];
    response.request_id = pending.id;
    response.group_size = 1;
    response.degraded = true;
    response.status = Status::kDegraded;
    response.stages.queue_wait_ns = ElapsedNs(pending.submitted, pending.dequeued);
    response.stages.compile_ns = compile_ns;
    response.stages.plan_cache_hit = cache_hit;
    const tensor::IdArray& seeds = pending.request.seeds;
    response.coverage =
        ha::CoverageFraction(partition, *monitor_, seeds.data(), seeds.size());
    const std::vector<int32_t> covered =
        ha::CoveredIds(partition, *monitor_, seeds.data(), seeds.size());
    if (covered.empty()) {
      // Nothing coverable: an honest empty partial (coverage says why),
      // never a request error. Feature gather is skipped in degraded mode.
      continue;
    }
    if (plan == nullptr) {
      response.status = Status::kFailed;
      response.error = exec < 0 ? "no live device for degraded serving" : plan_error;
      response.code = fault::ErrorCode::kUnavailable;
      continue;
    }
    // Serve the covered subset solo on the fallback device; coalescing is
    // pointless here because each member's covered frontier differs.
    device::ThreadDeviceGuard guard(*shard_devices_[static_cast<size_t>(exec)]);
    fault::ShardScope scope(exec);
    int transient_left = std::max(0, options_.max_transient_retries);
    while (true) {
      try {
        shard::FrontierExchange exchange(partition, exec, monitor_.get(),
                                         options_.max_hedged_exchanges);
        core::HopObserverGuard observer(exchange);
        GroupResult solo =
            ExecuteGroup(*plan, {tensor::IdArray::FromVector(covered)}, {pending.request.seed});
        response.outputs = std::move(solo.outputs[0]);
        response.stages.execute_ns = solo.execute_ns;
        ran[i] = 1;
        ++executed;
        break;
      } catch (const std::exception& e) {
        const fault::ErrorCode code = fault::Classify(e);
        if (code == fault::ErrorCode::kTransient && transient_left-- > 0) {
          continue;
        }
        response.status = Status::kFailed;
        response.error = e.what();
        response.code = code;
        break;
      }
    }
  }

  const Clock::time_point done = Clock::now();
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    stats_.executions += executed;
    stats_.requests_executed += executed;
    for (size_t i = 0; i < group.size(); ++i) {
      const int64_t total = ElapsedNs(group[i]->submitted, done);
      responses[i].stages.total_ns = total;
      if (responses[i].status == Status::kDegraded) {
        ++stats_.completed;
        ++stats_.partial;
        ++stats_.per_tenant_completed[group[i]->request.tenant];
        if (ran[i]) {
          ++stats_.per_shard_completed[exec];
          shard_latency_[static_cast<size_t>(exec)].Record(total);
        }
      } else {
        CountFailedLocked(group[i]->request.tenant, responses[i].code);
      }
    }
  }
  for (size_t i = 0; i < group.size(); ++i) {
    group[i]->promise.set_value(std::move(responses[i]));
  }
}

ServerStats Server::stats() const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  ServerStats snapshot = stats_;
  if (plan_cache_ != nullptr) {
    const PlanCacheStats cache = plan_cache_->stats();
    snapshot.plan_cache_hits = cache.hits;
    snapshot.plan_cache_misses = cache.misses;
    snapshot.plan_cache_evictions = cache.evictions;
    snapshot.plan_resident_bytes = cache.resident_bytes;
    snapshot.plan_cache_entries = cache.entries;
    snapshot.plans_saved = cache.plans_saved;
    snapshot.plans_loaded = cache.plans_loaded;
  }
  // Per-shard histograms merge exactly (aligned log-scale buckets) into the
  // server-level percentile report; unsharded servers have a single shard.
  LatencyHistogram merged;
  for (const LatencyHistogram& shard_histogram : shard_latency_) {
    merged.Merge(shard_histogram);
  }
  snapshot.latency_p50_ns = merged.Percentile(50);
  snapshot.latency_p95_ns = merged.Percentile(95);
  snapshot.latency_p99_ns = merged.Percentile(99);
  snapshot.latency_max_ns = merged.max_ns();
  return snapshot;
}

}  // namespace gs::serving
