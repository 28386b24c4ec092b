// Seeded, deterministic fault injection.
//
// Real CUDA stacks cannot test their failure paths deterministically: an
// actual OOM or a stuck kernel depends on the machine's state. The
// simulated device can. A FaultPlan names injection *sites* — fixed probe
// points compiled into the device layer — and gives each a schedule:
//
//   alloc.oom         CachingAllocator::Allocate fails as if cudaMalloc
//                     returned cudaErrorMemoryAllocation (the recovery
//                     ladder then runs before the failure surfaces)
//   kernel.transient  a kernel launch throws fault::TransientError
//   kernel.stuck      a kernel's charged virtual time is inflated by
//                     `magnitude`×, tripping the stream watchdog
//   transfer.error    a UVA gather throws fault::TransientError
//   shard.lost        a shard device drops off the interconnect; the HA
//                     layer (gs::ha) marks it dead and fails work over
//   exchange.timeout  a cross-shard frontier exchange times out; hedged
//                     re-issues absorb it until the hedge budget is spent,
//                     then fault::ExchangeTimeoutError (Transient) unwinds
//   shard.slow        a shard's exchange runs `magnitude`× slow without
//                     failing — the gray-failure signal that drives the
//                     health monitor's suspect state
//
// Shard targeting: a clause may carry a `shardN:` qualifier
// (`shard3:kernel.transient:p=0.5`) restricting it to probes made while
// shard N is the thread's executing shard (fault::ShardScope, installed by
// gs::shard / sharded serving workers). A shard-qualified clause *overrides*
// the unqualified clause for that shard, so `shard2:kernel.transient:p=0`
// exempts shard 2 from a chaos run that targets everyone else. Probes on
// different shards number independently and draw from shard-salted streams,
// so per-shard fault sequences are deterministic regardless of how threads
// interleave across shards.
//
// Determinism: whether probe number n of a site fires is a pure function
// of (plan seed, site, shard, n) — an occurrence/after match or a seeded
// hash compared against the site probability. Probes are numbered by a
// per-(site, shard) atomic counter, so a single-threaded run replays the
// exact same fault sequence for the same seed; multi-threaded runs see the
// same *decision sequence* per site (thread interleaving only changes which
// thread draws which probe number).
//
// Installation is process-global via the RAII FaultScope, mirroring
// device::Device::SetCurrent: sites compile to a single relaxed atomic
// load when no scope is active, so the hooks cost nothing in production.
// Installing/removing a scope must not race with probing threads.

#ifndef GSAMPLER_FAULT_FAULT_H_
#define GSAMPLER_FAULT_FAULT_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace gs::fault {

enum class Site : int {
  kAllocOom = 0,
  kKernelTransient,
  kKernelStuck,
  kTransferError,
  kShardLost,
  kExchangeTimeout,
  kShardSlow,
};
inline constexpr int kNumSites = 7;

// Upper bound on shard ids a ShardScope may install; bounds the injector's
// per-shard counter arrays.
inline constexpr int kMaxShards = 16;

const char* SiteName(Site site);
bool ParseSite(const std::string& name, Site* site);

// Default virtual-time inflation for kernel.stuck when the plan does not
// set a magnitude. Chosen to clear any profile's watchdog multiple by a
// wide margin.
inline constexpr double kDefaultStuckMagnitude = 1024.0;

// Default exchange-time inflation for shard.slow: slow enough to matter in
// the cost model, far below the watchdog's stuck threshold.
inline constexpr double kDefaultSlowMagnitude = 8.0;

// Largest magnitude a plan may set. Sites multiply virtual nanoseconds by
// it, so an unbounded value (inf, 1e300) would overflow the int64 clock.
inline constexpr double kMaxMagnitude = 1e6;

// Per-site schedule. A probe fires if its number appears in `occurrences`
// (sorted, 0-based), is at or past `after` (when set), or if the seeded
// hash draw falls below `probability`.
struct SiteSchedule {
  double probability = 0.0;
  std::vector<int64_t> occurrences;
  // Every probe numbered >= after fires; -1 disables. `after=0` makes a
  // site fire permanently — how a chaos plan kills a shard for good.
  int64_t after = -1;
  // Site-specific intensity; kernel.stuck and shard.slow use it (time
  // multiplier), in (0, kMaxMagnitude]. 0 means the site default.
  double magnitude = 0.0;

  bool empty() const {
    return probability <= 0.0 && occurrences.empty() && after < 0;
  }
};

// A full plan: seed + one schedule per site, plus optional shard-qualified
// overrides.
//
// Text form (for --fault-plan): semicolon-separated site clauses, each
// `[shardN:]site:key=value[:key=value...]` with keys `p` (probability),
// `occ` (comma-separated occurrence indices), `after` (every probe from
// this number on), and `mag` (magnitude), e.g.
//
//   "alloc.oom:p=0.001;kernel.stuck:occ=3,17:mag=64;shard1:shard.lost:after=0"
struct FaultPlan {
  uint64_t seed = 0;
  std::array<SiteSchedule, kNumSites> sites;
  // Shard-qualified overrides: presence of an entry (even an all-zero one)
  // replaces the unqualified schedule for that (site, shard).
  std::array<std::map<int, SiteSchedule>, kNumSites> shard_sites;

  SiteSchedule& site(Site s) { return sites[static_cast<size_t>(s)]; }
  const SiteSchedule& site(Site s) const { return sites[static_cast<size_t>(s)]; }
  // Creates (or returns) the shard-qualified override for (site, shard).
  SiteSchedule& shard_site(Site s, int shard);
  // The schedule a probe on `shard` consults: the shard override when one
  // exists, the unqualified schedule otherwise (shard < 0 = no context).
  const SiteSchedule& Effective(Site s, int shard) const;
  bool empty() const;

  // Throws gs::Error on malformed specs.
  static FaultPlan Parse(const std::string& spec, uint64_t seed);
  std::string ToString() const;
};

struct SiteCounters {
  int64_t probes = 0;
  int64_t injected = 0;
};

class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan);

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  // Draws the next probe number for `site` on `shard` (-1 = no shard
  // context) and returns whether it fires. Thread-safe; the decision for
  // probe n is deterministic given the seed.
  bool ShouldFault(Site site, int shard = -1);

  // Pure decision function for probe `n` of (site, shard) — no counter side
  // effects; exposed so tests can assert sequence reproducibility directly.
  bool Decide(Site site, int64_t n) const { return Decide(site, -1, n); }
  bool Decide(Site site, int shard, int64_t n) const;

  // Magnitude for `site` (under `shard`'s override when present), falling
  // back to `default_magnitude` when the plan leaves it unset.
  double Magnitude(Site site, double default_magnitude) const {
    return Magnitude(site, -1, default_magnitude);
  }
  double Magnitude(Site site, int shard, double default_magnitude) const;

  // Aggregate counters over every shard context (plus shard-less probes).
  SiteCounters counters(Site site) const;
  // Counters for one shard context; shard = -1 selects shard-less probes.
  SiteCounters counters(Site site, int shard) const;
  const FaultPlan& plan() const { return plan_; }

 private:
  // Slot 0 holds shard-less probes; slot s+1 holds shard s.
  static size_t Slot(int shard);

  FaultPlan plan_;
  std::array<std::array<std::atomic<int64_t>, kMaxShards + 1>, kNumSites> probes_{};
  std::array<std::array<std::atomic<int64_t>, kMaxShards + 1>, kNumSites> injected_{};
};

// Currently installed injector, or nullptr. Owned by the active FaultScope.
FaultInjector* ActiveInjector();

// Installs `plan` for the scope's lifetime. Scopes nest (the previous
// injector is restored on destruction). Construction and destruction must
// not race with probes on other threads.
class FaultScope {
 public:
  explicit FaultScope(FaultPlan plan);
  ~FaultScope();

  FaultScope(const FaultScope&) = delete;
  FaultScope& operator=(const FaultScope&) = delete;

  FaultInjector& injector() { return injector_; }

 private:
  FaultInjector injector_;
  FaultInjector* previous_;
};

// Thread-local executing-shard context. gs::shard and sharded serving
// workers install one around each placement so shard-qualified clauses and
// the shard-level sites know which shard is probing. Scopes nest.
class ShardScope {
 public:
  explicit ShardScope(int shard);
  ~ShardScope();

  ShardScope(const ShardScope&) = delete;
  ShardScope& operator=(const ShardScope&) = delete;

 private:
  int previous_;
};

// The thread's executing shard, or -1 when no ShardScope is active.
int CurrentShard();

// Probe helpers for the device-layer hooks: one relaxed load and out when
// no injector is installed. The thread's ShardScope (if any) selects the
// shard-qualified schedule and counter stream.
inline bool Injected(Site site) {
  FaultInjector* injector = ActiveInjector();
  return injector != nullptr && injector->ShouldFault(site, CurrentShard());
}

// Probes kernel.stuck; returns the time-inflation multiplier (> 1) when it
// fires, 1.0 otherwise.
double StuckMultiplier();

// Probes shard.slow; returns the exchange-time inflation multiplier (> 1)
// when it fires, 1.0 otherwise.
double SlowShardMultiplier();

}  // namespace gs::fault

#endif  // GSAMPLER_FAULT_FAULT_H_
