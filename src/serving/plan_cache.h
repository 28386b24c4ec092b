// The serving plan store: one record per compile key, LRU-evicted under a
// byte budget.
//
// A record holds what serving keeps of one compiled plan:
//   - the warmed-up core::SamplerSession for the newest graph epoch built so
//     far. Building one is the expensive part of serving a cold request
//     (trace + pass pipeline + calibration executions), so sessions are
//     cached keyed by everything that affects the compiled artifact:
//     algorithm, dataset, device profile, pass configuration, and
//     effective fanouts (PlanKey::CompileKey());
//   - for dynamic graphs (gs::dyn), the frozen core::CompiledPlan and the
//     graph epoch it was calibrated against. Judge() checks the
//     plan's validity predicate (core::PlanValidity) against a new epoch:
//       kMiss    -> no plan: compile on the miss path (cold start).
//       kValid   -> distribution still within bounds: rebuild a session
//                   over the EXISTING frozen plan (no passes, no
//                   calibration — epochs cost O(warmup), not O(compile)).
//       kDrifted -> bounds violated: the stale plan may still SERVE (results
//                   stay correct — layout decisions affect cost, not
//                   values), but a recompile should be scheduled
//                   (dyn::Replanner), which Publish()es the new plan.
//
// Superseded epochs: caching a session for epoch e drops the record's
// session for any older epoch (in-flight executions keep theirs through the
// shared_ptr), so old snapshots are not pinned by the cache. A request still
// pinned at an older epoch gets a session that is built but not cached, so
// it never displaces the newer one. Static keys are always epoch 0.
//
// Because the plan half is serializable, the cache can persist its plans to
// a directory (SaveAll) and warm-start from one (LoadFrom): loaded plans
// skip the pass pipeline AND layout calibration — a restarted server only
// re-binds tensors and re-runs pre-computation.
//
// Memory: a session pins its pre-computed tensors/matrices in device memory
// (SamplerSession::ResidentBytes). The cache enforces its own byte budget
// with least-recently-used eviction of sessions (frozen plans stay) and
// mirrors the pinned total into the CachingAllocator's reserved-bytes stat —
// attribution only; the bytes are already counted in bytes_in_use, so no
// capacity is double-charged.

#ifndef GSAMPLER_SERVING_PLAN_CACHE_H_
#define GSAMPLER_SERVING_PLAN_CACHE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/engine.h"
#include "device/allocator.h"
#include "graph/store.h"

namespace gs::serving {

// Everything that distinguishes one compiled plan from another. Canonical()
// is the cache key and the request-compatibility test: two admitted
// requests may share one coalesced execution iff their keys are equal.
struct PlanKey {
  std::string algorithm;
  std::string dataset;
  std::string device;       // DeviceProfile name
  std::string pass_config;  // SamplerOptions digest (see PassConfigDigest)
  std::vector<int64_t> fanouts;  // effective (possibly shed) fanouts
  // Multi-shard serving: the shard whose device this session is warmed on.
  // 0 (single-device and shard 0) keeps the canonical form — and therefore
  // persisted plan digests — unchanged; coalescing across shards is ruled
  // out automatically because the shard is part of the key.
  int shard = 0;
  // Dynamic graphs (gs::dyn): the snapshot the request resolved at
  // admission. Only endpoints backed by a graph::GraphStore set `dynamic`,
  // which appends a `|g<epoch>:<digest>` canonical component — every epoch
  // is a distinct session key (coalescing never crosses epochs), while
  // static endpoints' canonical forms, and every previously persisted plan
  // artifact, are byte-for-byte unchanged.
  bool dynamic = false;
  uint64_t graph_epoch = 0;
  uint64_t graph_digest = 0;

  std::string Canonical() const;
  // The canonical form WITHOUT the graph-version component: the epoch-
  // independent compile identity (the PlanCache record key). Equal to
  // Canonical() for static keys.
  std::string CompileKey() const;
  // Inverse of Canonical() (persisted plan-index lines). Throws gs::Error on
  // malformed input.
  static PlanKey Parse(const std::string& canonical);
};

// Compact digest of the pass configuration. Covers every SamplerOptions
// field that can change the compiled artifact (including the seed, the
// calibration batch count, the super-batch policy, and the auto-tune memory
// budget). The only fields excluded are verify_passes / dump_ir_after_passes,
// which by construction cannot affect the artifact (they add checks and
// logging only).
std::string PassConfigDigest(const core::SamplerOptions& options);

// Outcome of PlanCache::Judge for a dynamic key at a new graph epoch.
enum class PlanJudgment {
  kMiss,
  kValid,
  kDrifted,
};

struct PlanCacheStats {
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t evictions = 0;  // sessions dropped by the byte budget or the OOM ladder
  int64_t resident_bytes = 0;
  int64_t entries = 0;  // records: compile keys holding a session, a frozen plan, or both
  // Times the allocator's OOM ladder asked this cache to shrink.
  int64_t pressure_releases = 0;
  // Persisted-plan traffic (SaveAll / LoadFrom). Loads count as neither hits
  // nor misses: a warm-started server's first request is a hit.
  int64_t plans_saved = 0;
  int64_t plans_loaded = 0;
  // Frozen-plan traffic (dynamic keys): Judge() outcomes and accepted
  // Publish() calls (initial compiles + recompiles).
  int64_t judged_miss = 0;
  int64_t judged_valid = 0;
  int64_t judged_drifted = 0;
  int64_t publishes = 0;
};

class PlanCache {
 public:
  // `allocator` (optional) receives AdjustReserved() calls mirroring the
  // cache's resident bytes.
  PlanCache(int64_t budget_bytes, device::CachingAllocator* allocator);
  ~PlanCache();

  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  using Factory = std::function<std::shared_ptr<core::SamplerSession>()>;

  // Returns the session for `key`, building it with `factory` on a miss. A
  // built session is cached unless the record already holds one for a
  // newer epoch (see "Superseded epochs" above).
  // Builds are serialized under one mutex: plan construction and warmup
  // materialize lazily cached structures on *shared* objects (the base
  // graph's format caches), which concurrent builds would race on. Lookups
  // of already-built plans only briefly take the table mutex.
  // `compile_ns` (optional) receives the build wall time (0 on a hit);
  // `hit` (optional) receives whether the plan was already resident.
  std::shared_ptr<core::SamplerSession> GetOrBuild(const PlanKey& key, const Factory& factory,
                                                   bool* hit = nullptr,
                                                   int64_t* compile_ns = nullptr);

  // Inserts (or replaces) a ready session for `key`. Used by the background
  // replanner (gs::dyn) to publish a freshly recompiled session so the next
  // request at that epoch hits instead of rebuilding; counts as neither hit
  // nor miss. Never replaces a session for a newer epoch.
  void Insert(const PlanKey& key, std::shared_ptr<core::SamplerSession> session);

  // Judges the frozen plan published for `key`'s compile key against
  // `snapshot`'s degree distribution. On kValid/kDrifted fills `plan`
  // (optional) with the resident plan; on kDrifted fills `why` (optional)
  // with the violated bound. A plan calibrated at `snapshot`'s epoch or a
  // later one is valid for it.
  PlanJudgment Judge(const PlanKey& key, const graph::Snapshot& snapshot,
                     std::shared_ptr<core::CompiledPlan>* plan = nullptr,
                     std::string* why = nullptr);

  // Publishes (or replaces) the frozen plan for `key`'s compile key: a plan
  // calibrated against `snapshot`. Never replaces a plan calibrated at a
  // newer epoch. Frozen plans survive session eviction.
  void Publish(const PlanKey& key, std::shared_ptr<core::CompiledPlan> plan,
               const graph::Snapshot& snapshot);

  // Persists every resident entry's CompiledPlan into `dir` (created if
  // missing): one `<digest>.plan` artifact per entry plus an `index.txt`
  // mapping digests back to canonical keys. Returns the number of plans
  // written. Safe to call while serving (entries are snapshotted).
  int64_t SaveAll(const std::string& dir);

  // Warm-starts from a directory written by SaveAll. For every index entry
  // whose key is not already resident, loads the plan artifact and calls
  // `activate` to turn it into a warmed-up session (re-binding tensors and
  // running Warmup); `activate` may return null to skip a plan this server
  // cannot serve (unknown endpoint, different device, stale pass config).
  // Unreadable or corrupt artifacts are skipped with a warning. Returns the
  // number of sessions activated.
  using Activator = std::function<std::shared_ptr<core::SamplerSession>(
      const PlanKey& key, std::shared_ptr<core::CompiledPlan> plan)>;
  int64_t LoadFrom(const std::string& dir, const Activator& activate);

  // Memory-pressure response (registered with the allocator's OOM ladder
  // when an allocator was supplied): evicts least-recently-used sessions
  // until at least `bytes_needed` of resident bytes were released or no
  // session is left. Returns the released byte total. Also callable
  // directly.
  int64_t ReleaseMemory(int64_t bytes_needed);

  PlanCacheStats stats() const;

 private:
  struct Entry {
    // Dynamic keys: the frozen plan and the graph version it was calibrated
    // against (null for static keys, whose session owns the plan).
    std::shared_ptr<core::CompiledPlan> plan;
    uint64_t plan_epoch = 0;
    // The newest epoch's session (null after eviction) and its full key.
    std::shared_ptr<core::SamplerSession> session;
    PlanKey session_key;
    int64_t resident_bytes = 0;
    uint64_t last_used = 0;  // LRU tick
  };
  using Entries = std::map<std::string, Entry>;

  // Returns the record's session when it was built for exactly `key`'s
  // graph version (null otherwise), counting a hit.
  std::shared_ptr<core::SamplerSession> LookupLocked(const std::string& compile_key,
                                                     const PlanKey& key);
  // Caches `session` as the record's session unless the record holds one
  // for a newer epoch. Returns whether it was cached.
  bool InsertLocked(const std::string& compile_key, const PlanKey& key,
                    std::shared_ptr<core::SamplerSession> session);
  // Retires `entry`'s session from the byte accounting and returns it.
  std::shared_ptr<core::SamplerSession> TakeSessionLocked(Entry& entry);
  // Evicts the LRU session (skipping `keep_key` when non-empty), and its
  // record too when that holds no frozen plan; returns the session's
  // resident bytes, or -1 when nothing evictable remains. The evicted
  // session is appended to `dropped` when given.
  int64_t EvictOneLocked(const std::string& keep_key,
                         std::vector<std::shared_ptr<core::SamplerSession>>* dropped = nullptr);

  const int64_t budget_bytes_;
  device::CachingAllocator* allocator_;
  int64_t pressure_handler_id_ = 0;  // 0 = not registered
  mutable std::mutex mutex_;        // guards table + stats
  std::mutex build_mutex_;          // serializes plan construction
  Entries entries_;  // by PlanKey::CompileKey()
  PlanCacheStats stats_;
  uint64_t tick_ = 0;
};

}  // namespace gs::serving

#endif  // GSAMPLER_SERVING_PLAN_CACHE_H_
