// gs::shard — multi-device sharded sampling with cross-shard frontier
// exchange.
//
// A ShardGroup partitions a graph across N simulated devices
// (graph::Partitioner) and runs the full sampling engine per shard: one
// device::Device (allocator + stream set) per shard, one SamplerSession per
// shard over a single shared frozen CompiledPlan. Each frontier hop
// executes locally; frontier nodes whose adjacency is owned by a remote
// shard are detected by a FrontierExchange observer, which charges one
// coalesced all-to-all per hop at the profile's interconnect_ns_per_byte —
// the shard-to-shard analog of the UVA PCIe charge.
//
// Cost-model tap, not a data-path fork: after the (simulated) exchange a
// shard holds exactly the adjacency the full matrix would give, so every
// shard session binds the full graph and the exchange only advances the
// shard's virtual clock and counters. Sharded sampling is therefore
// bit-identical to single-device SampleSeeded with the same plan and seed —
// the property the oracle test checks — while capacity (requests per
// simulated second) scales with the shard count because each shard's work
// lands on its own timeline.
//
// High availability (gs::ha): with ShardGroupOptions::num_replicas > 1 the
// partition mirrors each shard's segment onto replica devices (chained
// declustering). RunOnReplicaChain is the one placement policy: it walks a
// shard's replica chain — primary first, then each replica in placement
// order — skipping devices the shared HealthMonitor has declared dead, and
// both ShardGroup::Sample and the sharded serving::Server place work
// through it. Shard-level fault sites drive the monitor: shard.lost kills a
// device mid-placement (work fails over to the next replica,
// bit-identically, since every session binds the full graph),
// exchange.timeout triggers bounded hedged exchanges before unwinding as a
// Transient error, and shard.slow inflates exchange time, flagging the
// shard suspect. Failover order is a pure function of (partition, monitor
// state), so a seeded FaultPlan reproduces the same decisions every run.

#ifndef GSAMPLER_SHARD_SHARD_H_
#define GSAMPLER_SHARD_SHARD_H_

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/engine.h"
#include "device/device.h"
#include "feature/hot_set_cache.h"
#include "feature/store.h"
#include "graph/graph.h"
#include "graph/partition.h"
#include "ha/health.h"

namespace gs::shard {

// One frontier hop's cross-shard traffic as seen by one shard.
struct HopRecord {
  int hop = 0;                 // hop index within the sample
  int64_t frontier_nodes = 0;  // deduplicated frontier size
  int64_t remote_nodes = 0;    // frontier nodes with remote adjacency
  int64_t bytes = 0;           // adjacency bytes pulled over the interconnect
  int64_t exchange_ns = 0;     // virtual time charged for the all-to-all
  int64_t hedges = 0;          // hedged re-issues of this hop's exchange
};

// Aggregated exchange counters (per shard, or group-wide).
struct ExchangeStats {
  int64_t samples = 0;
  int64_t hops = 0;
  int64_t frontier_nodes = 0;
  int64_t remote_nodes = 0;
  int64_t bytes = 0;
  int64_t exchange_ns = 0;
  int64_t hedges = 0;     // hedged exchange re-issues (timeouts + suspects)
  int64_t failovers = 0;  // samples served by a non-primary replica
  // Aggregate per hop index across samples (hop 0 = seeds, hop 1 = their
  // neighbors, ...): the per-hop exchange-bytes table the bench reports.
  std::vector<HopRecord> per_hop;

  void Add(const std::vector<HopRecord>& hops_taken);
  void Merge(const ExchangeStats& other);
  std::string ToString() const;
};

// Hop observer charging the cross-shard all-to-all. One instance per Sample
// call (it carries the per-call hop index), installed on the executing
// thread via core::HopObserverGuard. For every hop against the base graph
// it deduplicates the frontier, looks up each node's owner in the
// partition, sums the bytes of adjacency not hosted on the executing
// device, and records one kernel on the current stream whose only cost is
// those bytes at the profile's interconnect_ns_per_byte. Hops with no
// remote nodes charge nothing (no all-to-all is needed).
//
// With a HealthMonitor attached the exchange also runs the HA protocol:
// an injected exchange.timeout is absorbed by a hedged re-issue (a second
// all-to-all charged on the replica path) while the hedge budget lasts,
// then unwinds as fault::ExchangeTimeoutError; a suspect executing shard
// hedges proactively; shard.slow inflates the charge and flags the shard.
class FrontierExchange : public core::HopObserver {
 public:
  FrontierExchange(const graph::Partition& partition, int shard,
                   ha::HealthMonitor* monitor = nullptr, int max_hedges = 0)
      : partition_(&partition), shard_(shard), monitor_(monitor), max_hedges_(max_hedges) {}

  void OnHop(const sparse::Matrix& graph, const tensor::IdArray& frontier) override;

  // Per-hop records of the sample this instance observed.
  const std::vector<HopRecord>& hops() const { return hops_; }
  // Hedged re-issues across all hops of this sample.
  int64_t hedges() const { return hedges_; }

 private:
  const graph::Partition* partition_;
  int shard_;
  ha::HealthMonitor* monitor_;
  int max_hedges_;
  int64_t hedges_ = 0;
  std::vector<HopRecord> hops_;
};

// One simulated device per shard, indexed by device id.
using Devices = std::vector<std::unique_ptr<device::Device>>;

// Where RunOnReplicaChain placed a unit of work.
struct Placement {
  int replica = -1;  // index on the shard's replica chain (0 = primary)
  int device = -1;   // device that ran the work; -1 when no replica admitted it
};

// Runs `work` with the calling thread pinned to devices[device] (its
// device::ThreadDeviceGuard and fault::ShardScope). With a `monitor`, a
// `work` that returns is recorded as the device's success: ReportSuccess,
// and Revive for a lost device that a backoff probe got through to. An
// exception from `work` propagates unrecorded.
void RunOnDevice(int device, const Devices& devices, ha::HealthMonitor* monitor,
                 const std::function<void()>& work);

// Replica-chain placement, the failover policy of ShardGroup::Sample and the
// sharded serving::Server. Walks `shard`'s replica chain in placement order
// from replica `first`. A device the monitor does not admit (AdmitWork:
// dead and not due a backoff probe) is skipped; an admitted one is probed
// for shard.lost under its ShardScope, and a firing probe marks the device
// lost, reports it (ReportDeviceLost) and moves on. The first survivor runs
// `work(device)` through RunOnDevice, which records its success with the
// monitor. `placement` names the survivor before
// `work` starts, so a caller catching an exception from `work` knows which
// device failed; it stays {-1, -1}, and `work` never runs, when no replica
// admits work.
void RunOnReplicaChain(const graph::Partition& partition, int shard, int first,
                       ha::HealthMonitor& monitor, const Devices& devices,
                       const std::function<void(int device)>& work, Placement* placement);

struct ShardGroupOptions {
  int num_shards = 2;
  graph::PartitionKind partition = graph::PartitionKind::kEdgeCut;
  // Profile every shard device is created with (interconnect_ns_per_byte
  // prices the exchange).
  device::DeviceProfile profile = device::V100Sim();
  core::SamplerOptions sampler;
  // Feature serving (gs::feature): when true and the graph has features,
  // every shard gets its own hot-set cache over the shared feature store,
  // and GatherFeatures() gathers rows on the shard's device and clock.
  bool serve_features = false;
  // Per-shard cache capacity in feature rows; 0 sizes it to 10% of the
  // graph's nodes (floor 64).
  int64_t feature_cache_rows = 0;
  feature::Admission feature_admission = feature::Admission::kFrequencyEma;
  // High availability: replicas per shard (1 = no failover; r > 1 mirrors
  // each shard's segment onto r devices by chained declustering).
  int num_replicas = 1;
  // Health state-machine thresholds shared by every shard.
  ha::HealthOptions health;
  // Hedged exchange re-issues allowed per sample (timeout absorption and
  // proactive suspect hedging share the budget).
  int max_hedged_exchanges = 2;
};

// N complete sampling engines over one partitioned graph and one shared
// compiled plan. Construction compiles (or adopts) the plan, partitions the
// graph, creates one device per shard, and warms one session per shard —
// sequentially, so lazily cached structures on shared objects materialize
// race-free. After construction Sample() is const-safe from any number of
// threads; concurrent samples on one shard serialize onto that shard's
// virtual timeline (one device executes one kernel at a time), which is
// exactly the per-device capacity model the serving bench measures.
class ShardGroup {
 public:
  ShardGroup(const graph::Graph& graph, core::Program program,
             std::map<std::string, tensor::Tensor> tensors, ShardGroupOptions options);
  // Adopts an existing (possibly deserialized) plan instead of compiling.
  ShardGroup(const graph::Graph& graph, std::shared_ptr<core::CompiledPlan> plan,
             std::map<std::string, tensor::Tensor> tensors, ShardGroupOptions options);
  // Snapshot-pinning constructors (gs::dyn): the group holds the snapshot's
  // shared_ptr so the epoch outlives the store's later mutations. Sampling
  // is bit-identical to the same-epoch static-graph constructors.
  ShardGroup(std::shared_ptr<const graph::Snapshot> snapshot, core::Program program,
             std::map<std::string, tensor::Tensor> tensors, ShardGroupOptions options);
  ShardGroup(std::shared_ptr<const graph::Snapshot> snapshot,
             std::shared_ptr<core::CompiledPlan> plan,
             std::map<std::string, tensor::Tensor> tensors, ShardGroupOptions options);

  ShardGroup(const ShardGroup&) = delete;
  ShardGroup& operator=(const ShardGroup&) = delete;
  ~ShardGroup();

  int num_shards() const { return options_.num_shards; }
  int num_replicas() const { return options_.num_replicas; }
  const graph::Partition& partition() const { return *partition_; }
  // Shared per-shard health state machine (failover decisions, coverage).
  ha::HealthMonitor& monitor() const { return *monitor_; }
  const core::CompiledPlan& plan() const { return *plan_; }
  std::shared_ptr<core::CompiledPlan> plan_ptr() const { return plan_; }

  // Locality routing: the frontier's plurality home shard.
  int Route(const tensor::IdArray& frontier) const;

  // Samples `frontier` on `shard`'s device with the shared plan. Thread-safe
  // after construction; bit-identical to SamplerSession::SampleSeeded on a
  // single device with the same plan and seed. Per-hop exchange records are
  // folded into the shard's aggregate (and copied to `hops` if given).
  //
  // With num_replicas > 1 the call walks `shard`'s replica chain in
  // placement order, skipping devices the monitor holds dead (except
  // backoff-admitted probes) and failing over on device loss or transient
  // faults. Because every replica runs the same pure SampleSeeded, a
  // failed-over sample is bit-identical to the primary's. Throws
  // fault::TransientError when every admitted replica failed transiently
  // (the serving retry ladder re-resolves placement), or
  // fault::ShardUnavailableError when no replica admits work at all.
  std::vector<core::Value> Sample(int shard, const tensor::IdArray& frontier, uint64_t seed,
                                  std::vector<HopRecord>* hops = nullptr) const;

  // Sample on the frontier's home shard (locality-aware entry point).
  std::vector<core::Value> SampleRouted(const tensor::IdArray& frontier, uint64_t seed,
                                        std::vector<HopRecord>* hops = nullptr) const;

  // Gathers the feature rows for `ids` through `shard`'s hot-set cache, on
  // that shard's device and virtual clock. Bit-identical to an eager
  // per-node lookup regardless of cache state. Requires
  // ShardGroupOptions::serve_features and a graph with features.
  tensor::Tensor GatherFeatures(int shard, const tensor::IdArray& ids,
                                feature::GatherStats* stats = nullptr) const;
  // Null when the group was built without serve_features (or no features).
  const feature::FeatureStore* feature_store() const { return feature_store_.get(); }
  feature::HotSetCache* feature_cache(int shard) const;

  device::Device& device(int shard) const;
  core::SamplerSession& session(int shard) const;

  // Accumulated exchange traffic of one shard / all shards.
  ExchangeStats exchange_stats(int shard) const;
  ExchangeStats TotalExchange() const;
  // The shard device's default-stream counters (virtual clock, bytes).
  device::StreamCounters counters(int shard) const;

  std::string DebugString() const;

 private:
  void Init(const graph::Graph& graph, std::map<std::string, tensor::Tensor> tensors);

  ShardGroupOptions options_;
  // Pinned graph epoch (null for groups over a caller-owned static graph).
  // Declared before graph_ so graph_ may point into *snapshot_.
  std::shared_ptr<const graph::Snapshot> snapshot_;
  const graph::Graph* graph_;
  std::shared_ptr<core::CompiledPlan> plan_;
  std::unique_ptr<graph::Partition> partition_;
  std::unique_ptr<ha::HealthMonitor> monitor_;
  Devices devices_;
  // Declared after devices_: each shard's cache holds backing pages on that
  // shard's allocator, so the caches must be destroyed first.
  std::unique_ptr<feature::FeatureStore> feature_store_;
  std::vector<std::unique_ptr<feature::HotSetCache>> feature_caches_;
  std::vector<std::unique_ptr<core::SamplerSession>> sessions_;
  mutable std::mutex stats_mutex_;
  mutable std::vector<ExchangeStats> exchange_;
};

}  // namespace gs::shard

#endif  // GSAMPLER_SHARD_SHARD_H_
