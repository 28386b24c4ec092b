#include "fault/fault.h"

#include <algorithm>
#include <atomic>
#include <sstream>

#include "common/error.h"

namespace gs::fault {
namespace {

std::atomic<FaultInjector*> g_active{nullptr};

thread_local int t_current_shard = -1;

// SplitMix64 finalizer: full-avalanche mix of (seed, site, shard, probe
// number) into a uniform 64-bit draw. This is the entire source of
// randomness, so the decision for a given tuple never depends on thread
// interleaving.
uint64_t Mix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

double UniformDraw(uint64_t seed, Site site, int64_t n) {
  uint64_t h = Mix(seed ^ Mix(static_cast<uint64_t>(site) + 1));
  h = Mix(h ^ static_cast<uint64_t>(n));
  // Top 53 bits -> [0, 1).
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

int64_t ParseInt(const std::string& text, const std::string& clause) {
  GS_CHECK(!text.empty()) << "fault plan: empty integer in clause '" << clause << "'";
  size_t pos = 0;
  int64_t value = 0;
  try {
    value = std::stoll(text, &pos);
  } catch (const std::exception&) {
    pos = 0;
  }
  GS_CHECK(pos == text.size() && value >= 0)
      << "fault plan: bad occurrence index '" << text << "' in clause '" << clause << "'";
  return value;
}

double ParseProb(const std::string& text, const std::string& clause) {
  size_t pos = 0;
  double value = 0.0;
  try {
    value = std::stod(text, &pos);
  } catch (const std::exception&) {
    pos = 0;
  }
  GS_CHECK(pos == text.size() && value >= 0.0 && value <= 1.0)
      << "fault plan: probability must be in [0,1], got '" << text << "' in clause '"
      << clause << "'";
  return value;
}

std::vector<std::string> Split(const std::string& text, char sep) {
  std::vector<std::string> parts;
  std::string part;
  std::istringstream in(text);
  while (std::getline(in, part, sep)) {
    parts.push_back(part);
  }
  return parts;
}

// "shardN" -> N; -1 when the token is not a shard qualifier.
int ParseShardQualifier(const std::string& token) {
  constexpr const char kPrefix[] = "shard";
  constexpr size_t kPrefixLen = sizeof(kPrefix) - 1;
  if (token.size() <= kPrefixLen || token.compare(0, kPrefixLen, kPrefix) != 0) {
    return -1;
  }
  int shard = 0;
  for (size_t i = kPrefixLen; i < token.size(); ++i) {
    const char c = token[i];
    if (c < '0' || c > '9') {
      return -1;
    }
    shard = shard * 10 + (c - '0');
    if (shard > kMaxShards) {
      return -1;
    }
  }
  return shard;
}

void AppendSchedule(std::ostringstream& out, const SiteSchedule& s) {
  bool wrote_key = false;
  if (s.probability > 0.0) {
    out << ":p=" << s.probability;
    wrote_key = true;
  }
  if (!s.occurrences.empty()) {
    out << ":occ=";
    for (size_t k = 0; k < s.occurrences.size(); ++k) {
      out << (k == 0 ? "" : ",") << s.occurrences[k];
    }
    wrote_key = true;
  }
  if (s.after >= 0) {
    out << ":after=" << s.after;
    wrote_key = true;
  }
  if (s.magnitude > 0.0) {
    out << ":mag=" << s.magnitude;
    wrote_key = true;
  }
  if (!wrote_key) {
    // An all-zero shard override still means "exempt this shard"; emit an
    // explicit p=0 so the spec round-trips.
    out << ":p=0";
  }
}

bool FiresAt(const SiteSchedule& schedule, uint64_t seed, Site site, uint64_t salt,
             int64_t n) {
  if (std::binary_search(schedule.occurrences.begin(), schedule.occurrences.end(), n)) {
    return true;
  }
  if (schedule.after >= 0 && n >= schedule.after) {
    return true;
  }
  if (schedule.probability <= 0.0) {
    return false;
  }
  return UniformDraw(seed ^ salt, site, n) < schedule.probability;
}

}  // namespace

const char* SiteName(Site site) {
  switch (site) {
    case Site::kAllocOom:
      return "alloc.oom";
    case Site::kKernelTransient:
      return "kernel.transient";
    case Site::kKernelStuck:
      return "kernel.stuck";
    case Site::kTransferError:
      return "transfer.error";
    case Site::kShardLost:
      return "shard.lost";
    case Site::kExchangeTimeout:
      return "exchange.timeout";
    case Site::kShardSlow:
      return "shard.slow";
  }
  return "unknown";
}

bool ParseSite(const std::string& name, Site* site) {
  for (int i = 0; i < kNumSites; ++i) {
    if (name == SiteName(static_cast<Site>(i))) {
      *site = static_cast<Site>(i);
      return true;
    }
  }
  return false;
}

SiteSchedule& FaultPlan::shard_site(Site s, int shard) {
  GS_CHECK(shard >= 0 && shard < kMaxShards)
      << "fault plan: shard qualifier out of range: " << shard;
  return shard_sites[static_cast<size_t>(s)][shard];
}

const SiteSchedule& FaultPlan::Effective(Site s, int shard) const {
  const auto& overrides = shard_sites[static_cast<size_t>(s)];
  if (shard >= 0) {
    auto it = overrides.find(shard);
    if (it != overrides.end()) {
      return it->second;
    }
  }
  return sites[static_cast<size_t>(s)];
}

bool FaultPlan::empty() const {
  const bool base_empty = std::all_of(sites.begin(), sites.end(),
                                      [](const SiteSchedule& s) { return s.empty(); });
  if (!base_empty) {
    return false;
  }
  for (const auto& overrides : shard_sites) {
    for (const auto& [shard, schedule] : overrides) {
      (void)shard;
      if (!schedule.empty()) {
        return false;
      }
    }
  }
  return true;
}

FaultPlan FaultPlan::Parse(const std::string& spec, uint64_t seed) {
  FaultPlan plan;
  plan.seed = seed;
  for (const std::string& clause : Split(spec, ';')) {
    if (clause.empty()) {
      continue;
    }
    std::vector<std::string> fields = Split(clause, ':');
    size_t site_field = 0;
    int shard = ParseShardQualifier(fields[0]);
    if (shard >= 0) {
      GS_CHECK(shard < kMaxShards)
          << "fault plan: shard qualifier out of range in clause '" << clause
          << "' (max " << kMaxShards - 1 << ")";
      GS_CHECK(fields.size() > 1)
          << "fault plan: shard qualifier '" << fields[0] << "' has no site";
      site_field = 1;
    }
    Site site;
    GS_CHECK(ParseSite(fields[site_field], &site))
        << "fault plan: unknown site '" << fields[site_field]
        << "' (expected alloc.oom, kernel.transient, kernel.stuck, transfer.error, "
           "shard.lost, exchange.timeout, or shard.slow)";
    SiteSchedule& schedule = shard >= 0 ? plan.shard_site(site, shard) : plan.site(site);
    GS_CHECK(fields.size() > site_field + 1)
        << "fault plan: site '" << fields[site_field]
        << "' has no schedule (use p=, occ=, after=, or mag=)";
    for (size_t i = site_field + 1; i < fields.size(); ++i) {
      const std::string& field = fields[i];
      const size_t eq = field.find('=');
      GS_CHECK(eq != std::string::npos)
          << "fault plan: expected key=value, got '" << field << "'";
      const std::string key = field.substr(0, eq);
      const std::string value = field.substr(eq + 1);
      if (key == "p") {
        schedule.probability = ParseProb(value, clause);
      } else if (key == "occ") {
        for (const std::string& occ : Split(value, ',')) {
          schedule.occurrences.push_back(ParseInt(occ, clause));
        }
        std::sort(schedule.occurrences.begin(), schedule.occurrences.end());
      } else if (key == "after") {
        schedule.after = ParseInt(value, clause);
      } else if (key == "mag") {
        size_t pos = 0;
        double magnitude = 0.0;
        try {
          magnitude = std::stod(value, &pos);
        } catch (const std::exception&) {
          pos = 0;
        }
        GS_CHECK(pos == value.size() && magnitude > 0.0 && magnitude <= kMaxMagnitude)
            << "fault plan: magnitude must be in (0, " << kMaxMagnitude << "], got '" << value
            << "'";
        schedule.magnitude = magnitude;
      } else {
        GS_CHECK(false) << "fault plan: unknown key '" << key
                        << "' (expected p, occ, after, or mag)";
      }
    }
  }
  return plan;
}

std::string FaultPlan::ToString() const {
  std::ostringstream out;
  bool first = true;
  for (int i = 0; i < kNumSites; ++i) {
    const SiteSchedule& s = sites[static_cast<size_t>(i)];
    if (s.empty()) {
      continue;
    }
    if (!first) {
      out << ";";
    }
    first = false;
    out << SiteName(static_cast<Site>(i));
    AppendSchedule(out, s);
  }
  // Shard-qualified clauses follow the unqualified ones; std::map keeps the
  // shard order deterministic.
  for (int i = 0; i < kNumSites; ++i) {
    for (const auto& [shard, s] : shard_sites[static_cast<size_t>(i)]) {
      if (!first) {
        out << ";";
      }
      first = false;
      out << "shard" << shard << ":" << SiteName(static_cast<Site>(i));
      AppendSchedule(out, s);
    }
  }
  return out.str();
}

FaultInjector::FaultInjector(FaultPlan plan) : plan_(std::move(plan)) {}

size_t FaultInjector::Slot(int shard) {
  if (shard < 0 || shard >= kMaxShards) {
    return 0;
  }
  return static_cast<size_t>(shard) + 1;
}

bool FaultInjector::Decide(Site site, int shard, int64_t n) const {
  const SiteSchedule& schedule = plan_.Effective(site, shard);
  // Shard contexts draw from shard-salted streams so two shards probing the
  // same site see independent sequences; shard-less probes keep the
  // pre-sharding stream exactly.
  const uint64_t salt = shard >= 0 ? Mix(0xC0FFEEull + static_cast<uint64_t>(shard)) : 0;
  return FiresAt(schedule, plan_.seed, site, salt, n);
}

bool FaultInjector::ShouldFault(Site site, int shard) {
  const size_t idx = static_cast<size_t>(site);
  if (plan_.Effective(site, shard).empty()) {
    return false;  // keep inactive sites free of counter traffic
  }
  const size_t slot = Slot(shard);
  const int64_t n = probes_[idx][slot].fetch_add(1, std::memory_order_relaxed);
  if (!Decide(site, shard, n)) {
    return false;
  }
  injected_[idx][slot].fetch_add(1, std::memory_order_relaxed);
  return true;
}

double FaultInjector::Magnitude(Site site, int shard, double default_magnitude) const {
  const double m = plan_.Effective(site, shard).magnitude;
  return m > 0.0 ? m : default_magnitude;
}

SiteCounters FaultInjector::counters(Site site) const {
  const size_t idx = static_cast<size_t>(site);
  SiteCounters c;
  for (size_t slot = 0; slot <= static_cast<size_t>(kMaxShards); ++slot) {
    c.probes += probes_[idx][slot].load(std::memory_order_relaxed);
    c.injected += injected_[idx][slot].load(std::memory_order_relaxed);
  }
  return c;
}

SiteCounters FaultInjector::counters(Site site, int shard) const {
  const size_t idx = static_cast<size_t>(site);
  const size_t slot = Slot(shard);
  SiteCounters c;
  c.probes = probes_[idx][slot].load(std::memory_order_relaxed);
  c.injected = injected_[idx][slot].load(std::memory_order_relaxed);
  return c;
}

FaultInjector* ActiveInjector() { return g_active.load(std::memory_order_acquire); }

FaultScope::FaultScope(FaultPlan plan) : injector_(std::move(plan)) {
  previous_ = g_active.exchange(&injector_, std::memory_order_acq_rel);
}

FaultScope::~FaultScope() { g_active.store(previous_, std::memory_order_release); }

ShardScope::ShardScope(int shard) : previous_(t_current_shard) {
  GS_CHECK(shard >= 0 && shard < kMaxShards)
      << "fault: ShardScope shard out of range: " << shard;
  t_current_shard = shard;
}

ShardScope::~ShardScope() { t_current_shard = previous_; }

int CurrentShard() { return t_current_shard; }

double StuckMultiplier() {
  FaultInjector* injector = ActiveInjector();
  const int shard = CurrentShard();
  if (injector == nullptr || !injector->ShouldFault(Site::kKernelStuck, shard)) {
    return 1.0;
  }
  return injector->Magnitude(Site::kKernelStuck, shard, kDefaultStuckMagnitude);
}

double SlowShardMultiplier() {
  FaultInjector* injector = ActiveInjector();
  const int shard = CurrentShard();
  if (injector == nullptr || !injector->ShouldFault(Site::kShardSlow, shard)) {
    return 1.0;
  }
  return injector->Magnitude(Site::kShardSlow, shard, kDefaultSlowMagnitude);
}

}  // namespace gs::fault
