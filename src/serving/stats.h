// Serving observability: latency percentiles and server-wide counters.

#ifndef GSAMPLER_SERVING_STATS_H_
#define GSAMPLER_SERVING_STATS_H_

#include <array>
#include <cstdint>
#include <map>
#include <string>

namespace gs::serving {

// Log-scale latency histogram: bucket i counts samples in
// [2^i, 2^(i+1)) nanoseconds. Percentile() interpolates linearly within the
// bucket holding the requested quantile (capped at the observed maximum) —
// O(1) memory with bounded error, instead of the up-to-2x overstatement a
// bucket-upper-bound readout gives for p50/p95.
class LatencyHistogram {
 public:
  void Record(int64_t ns);
  // p in [0, 100]. Returns 0 when empty.
  int64_t Percentile(double p) const;
  // Folds `other` into this histogram (buckets and count add, max takes the
  // larger). Sharded serving keeps one histogram per shard and merges them
  // into the server-level p50/p95/p99 report; merging is exact because the
  // buckets are aligned log-scale ranges.
  void Merge(const LatencyHistogram& other);
  int64_t count() const { return count_; }
  int64_t max_ns() const { return max_ns_; }

 private:
  std::array<int64_t, 64> buckets_{};
  int64_t count_ = 0;
  int64_t max_ns_ = 0;
};

struct ServerStats {
  // Request lifecycle counters.
  int64_t received = 0;
  int64_t admitted = 0;
  int64_t rejected = 0;           // admission refusals (queue full / deadline)
  int64_t deadline_exceeded = 0;  // expired in queue, never executed
  int64_t failed = 0;
  int64_t completed = 0;
  int64_t degraded = 0;  // served with shed fanouts
  int64_t partial = 0;   // kDegraded responses (some shards uncovered)

  // Execution counters.
  int64_t executions = 0;          // super-batch executions launched
  int64_t requests_executed = 0;   // sum of group sizes
  int64_t coalesced_executions = 0;  // executions with group size > 1

  // Plan cache.
  int64_t plan_cache_hits = 0;
  int64_t plan_cache_misses = 0;
  int64_t plan_cache_evictions = 0;
  int64_t plan_resident_bytes = 0;
  int64_t plan_cache_entries = 0;  // compile keys resident (see PlanCacheStats::entries)
  int64_t plans_saved = 0;   // plan artifacts persisted to the plan dir
  int64_t plans_loaded = 0;  // sessions warm-started from persisted plans

  // Feature serving (gs::feature): responses that carried gathered feature
  // rows, and the hot-set cache's aggregate behavior across every tenant
  // partition on every shard.
  int64_t feature_requests = 0;      // completed responses carrying features
  int64_t feature_rows = 0;          // feature rows gathered
  int64_t feature_cache_hits = 0;    // rows served from device-side caches
  int64_t feature_cache_misses = 0;  // rows fetched over host DRAM + PCIe
  int64_t feature_gather_bytes = 0;  // total feature bytes produced
  int64_t feature_miss_bytes = 0;    // bytes that crossed the bus
  int64_t feature_gather_ns = 0;     // wall time spent gathering features

  // Fault recovery (gs::fault taxonomy).
  int64_t transient_retries = 0;    // execution retries after transient faults
  int64_t shed_retries = 0;         // retries with shed fanouts after resource exhaustion
  int64_t worker_exceptions = 0;    // exceptions stopped at the worker boundary
  int64_t failed_transient = 0;     // terminal failures by code
  int64_t failed_resource_exhausted = 0;
  int64_t failed_invalid = 0;
  int64_t failed_internal = 0;

  // High availability (gs::ha).
  int64_t failovers = 0;         // executions served by a non-primary replica
  int64_t hedged_exchanges = 0;  // hedged cross-shard exchange re-issues

  // Dynamic graphs (gs::dyn): online-mutation traffic and what each epoch
  // cost the plan layer. `plan_reuses` + `stale_plans_served` are the
  // cheap-path sessions (no passes, no calibration), including uncached
  // rebuilds for straggler requests still pinned at a superseded epoch;
  // `recompiles_inline` are full compiles on the serving path (cold starts,
  // or drifted plans with background recompilation disabled);
  // `recompiles_background` ran on the replanner thread, never blocking a
  // request.
  int64_t graph_epochs = 0;            // mutation epochs observed (all stores)
  int64_t plan_reuses = 0;             // sessions rebuilt over a still-valid frozen plan
  int64_t stale_plans_served = 0;      // drifted plans that kept serving while recompiling
  int64_t recompiles_inline = 0;       // full compiles on the serving path
  int64_t recompiles_background = 0;   // replanner compiles (off the serving path)
  int64_t feature_invalidations = 0;   // cache rows invalidated by feature updates
  int64_t partition_segments_rebuilt = 0;  // incremental re-partition: segments re-sliced
  int64_t partition_segments_reused = 0;   // ... vs reused by reference

  // End-to-end wall latency of completed requests (submit -> response).
  int64_t latency_p50_ns = 0;
  int64_t latency_p95_ns = 0;
  int64_t latency_p99_ns = 0;
  int64_t latency_max_ns = 0;

  // Multi-shard serving (gs::shard): cross-shard frontier-exchange traffic
  // accumulated over all executions, and per-shard completion counts
  // (locality-routing visibility).
  int64_t exchange_hops = 0;          // frontier hops that pulled remote adjacency
  int64_t exchange_remote_nodes = 0;  // frontier nodes whose adjacency was remote
  int64_t exchange_bytes = 0;         // adjacency bytes moved over the interconnect
  std::map<int, int64_t> per_shard_completed;

  // Completed requests per tenant (fair-queueing visibility).
  std::map<std::string, int64_t> per_tenant_completed;
  // Failed requests per tenant (who is hitting errors, fed by the serving
  // recovery ladder's terminal failures and request-boundary rejections).
  std::map<std::string, int64_t> per_tenant_failed;

  // Fraction of gathered feature rows served from the device-side cache.
  double FeatureHitRate() const {
    return feature_rows > 0
               ? static_cast<double>(feature_cache_hits) / static_cast<double>(feature_rows)
               : 0.0;
  }

  // Mean requests per execution; 1.0 = no coalescing happened.
  double CoalescingRatio() const {
    return executions > 0
               ? static_cast<double>(requests_executed) / static_cast<double>(executions)
               : 0.0;
  }

  std::string ToString() const;
};

}  // namespace gs::serving

#endif  // GSAMPLER_SERVING_STATS_H_
