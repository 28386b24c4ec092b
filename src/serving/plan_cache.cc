#include "serving/plan_cache.h"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <utility>

#include "common/error.h"
#include "common/logging.h"
#include "common/timer.h"

namespace gs::serving {

std::string PlanKey::CompileKey() const {
  std::ostringstream out;
  out << algorithm << '|' << dataset << '|' << device << '|' << pass_config << '|';
  for (int64_t f : fanouts) {
    out << f << ',';
  }
  if (shard > 0) {
    out << '|' << 's' << shard;
  }
  return out.str();
}

std::string PlanKey::Canonical() const {
  std::string out = CompileKey();
  if (dynamic) {
    std::ostringstream g;
    g << "|g" << graph_epoch << ':' << std::hex << graph_digest;
    out += g.str();
  }
  return out;
}

PlanKey PlanKey::Parse(const std::string& canonical) {
  std::vector<std::string> parts;
  std::string part;
  std::istringstream in(canonical);
  while (std::getline(in, part, '|')) {
    parts.push_back(part);
  }
  // 4 parts: trailing '|' with no fanouts; optional suffixes after the
  // fanouts: "sN" (shard) then "g<epoch>:<digest>" (graph version).
  GS_CHECK(parts.size() >= 4 && parts.size() <= 7)
      << "malformed plan key: '" << canonical << "'";
  PlanKey key;
  key.algorithm = parts[0];
  key.dataset = parts[1];
  key.device = parts[2];
  key.pass_config = parts[3];
  for (size_t p = 5; p < parts.size(); ++p) {
    const std::string& suffix = parts[p];
    GS_CHECK(suffix.size() > 1) << "malformed plan key suffix: '" << canonical << "'";
    if (suffix[0] == 's') {
      char* end = nullptr;
      key.shard = static_cast<int>(std::strtol(suffix.c_str() + 1, &end, 10));
      GS_CHECK(end != nullptr && *end == '\0' && key.shard > 0)
          << "malformed plan key shard: '" << canonical << "'";
    } else if (suffix[0] == 'g') {
      const size_t colon = suffix.find(':');
      GS_CHECK(colon != std::string::npos && colon > 1 && colon + 1 < suffix.size())
          << "malformed plan key graph version: '" << canonical << "'";
      char* end = nullptr;
      key.graph_epoch = std::strtoull(suffix.c_str() + 1, &end, 10);
      GS_CHECK(end != nullptr && *end == ':')
          << "malformed plan key graph version: '" << canonical << "'";
      key.graph_digest = std::strtoull(suffix.c_str() + colon + 1, &end, 16);
      GS_CHECK(end != nullptr && *end == '\0')
          << "malformed plan key graph version: '" << canonical << "'";
      key.dynamic = true;
    } else {
      GS_CHECK(false) << "malformed plan key suffix: '" << canonical << "'";
    }
  }
  if (parts.size() >= 5 && !parts[4].empty()) {
    std::istringstream fin(parts[4]);
    while (std::getline(fin, part, ',')) {
      GS_CHECK(!part.empty()) << "malformed plan key fanouts: '" << canonical << "'";
      char* end = nullptr;
      key.fanouts.push_back(std::strtoll(part.c_str(), &end, 10));
      GS_CHECK(end != nullptr && *end == '\0') << "malformed plan key fanouts: '" << canonical
                                               << "'";
    }
  }
  return key;
}

std::string PassConfigDigest(const core::SamplerOptions& options) {
  // Exhaustive over artifact-affecting fields; verify_passes and
  // dump_ir_after_passes are deliberately excluded (instrumentation only —
  // they add checks/logging but cannot change the compiled plan).
  std::ostringstream out;
  out << "fus" << options.enable_fusion << options.fuse_extract_select << options.fuse_edge_maps
      << options.rewrite_sddmm << "pre" << options.enable_preprocessing << "lay"
      << options.enable_layout_selection << options.greedy_when_layout_disabled << "sb"
      << options.super_batch << "mem" << options.memory_budget_bytes << "cal"
      << options.calibration_batches << "seed" << options.seed;
  return out.str();
}

PlanCache::PlanCache(int64_t budget_bytes, device::CachingAllocator* allocator)
    : budget_bytes_(budget_bytes), allocator_(allocator) {
  GS_CHECK_GT(budget_bytes, 0);
  if (allocator_ != nullptr) {
    // Join the allocator's OOM ladder: under memory pressure the cache gives
    // back plan-resident bytes before an allocation is allowed to fail.
    pressure_handler_id_ = allocator_->RegisterPressureHandler(
        [this](int64_t bytes_needed) { return ReleaseMemory(bytes_needed); });
  }
}

PlanCache::~PlanCache() {
  // Unregister BEFORE taking mutex_: Unregister blocks until any in-flight
  // handler invocation (which takes mutex_ via ReleaseMemory) returns.
  // Locking mutex_ first would deadlock against that invocation.
  if (allocator_ != nullptr && pressure_handler_id_ != 0) {
    allocator_->UnregisterPressureHandler(pressure_handler_id_);
  }
  std::lock_guard<std::mutex> lock(mutex_);
  if (allocator_ != nullptr && stats_.resident_bytes > 0) {
    allocator_->AdjustReserved(-stats_.resident_bytes);
  }
}

std::shared_ptr<core::SamplerSession> PlanCache::LookupLocked(const std::string& compile_key,
                                                              const PlanKey& key) {
  auto it = entries_.find(compile_key);
  if (it == entries_.end() || it->second.session == nullptr) {
    return nullptr;
  }
  const PlanKey& resident = it->second.session_key;
  if (resident.dynamic != key.dynamic || resident.graph_epoch != key.graph_epoch ||
      resident.graph_digest != key.graph_digest) {
    return nullptr;
  }
  it->second.last_used = ++tick_;
  ++stats_.hits;
  return it->second.session;
}

std::shared_ptr<core::SamplerSession> PlanCache::GetOrBuild(const PlanKey& key,
                                                            const Factory& factory, bool* hit,
                                                            int64_t* compile_ns) {
  const std::string compile_key = key.CompileKey();
  auto lookup = [&] {
    std::lock_guard<std::mutex> lock(mutex_);
    return LookupLocked(compile_key, key);
  };
  std::shared_ptr<core::SamplerSession> session = lookup();
  // Build outside the table mutex (lookups stay fast) but under the build
  // mutex (construction touches shared lazily-cached graph structures).
  std::unique_lock<std::mutex> build_lock(build_mutex_, std::defer_lock);
  if (session == nullptr) {
    build_lock.lock();
    session = lookup();  // another thread may have built it while we waited
  }
  const bool resident = session != nullptr;
  int64_t elapsed = 0;
  if (!resident) {
    Timer timer;
    session = factory();
    GS_CHECK(session != nullptr) << "plan factory returned null for " << key.Canonical();
    GS_CHECK(session->warmed_up()) << "plan factory must Warmup() the session: "
                                   << key.Canonical();
    elapsed = timer.ElapsedNanos();
    bool cached = false;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.misses;
      cached = InsertLocked(compile_key, key, session);
    }
    GS_LOG(Debug) << "plan cache: built " << key.Canonical() << " in " << elapsed / 1000000
                  << " ms" << (cached ? "" : " (superseded epoch, not cached)");
  }
  if (hit != nullptr) {
    *hit = resident;
  }
  if (compile_ns != nullptr) {
    *compile_ns = elapsed;
  }
  return session;
}

void PlanCache::Insert(const PlanKey& key, std::shared_ptr<core::SamplerSession> session) {
  GS_CHECK(session != nullptr);
  GS_CHECK(session->warmed_up()) << "Insert requires a warmed-up session";
  std::lock_guard<std::mutex> lock(mutex_);
  InsertLocked(key.CompileKey(), key, std::move(session));
}

bool PlanCache::InsertLocked(const std::string& compile_key, const PlanKey& key,
                             std::shared_ptr<core::SamplerSession> session) {
  auto it = entries_.find(compile_key);
  if (it == entries_.end()) {
    it = entries_.emplace(compile_key, Entry{}).first;
    stats_.entries = static_cast<int64_t>(entries_.size());
  } else if (it->second.session != nullptr) {
    if (it->second.session_key.graph_epoch > key.graph_epoch) {
      return false;  // a newer epoch's session stays
    }
    TakeSessionLocked(it->second);  // replace (same epoch) or supersede (older)
  }
  Entry& entry = it->second;
  entry.resident_bytes = session->ResidentBytes();
  entry.session = std::move(session);
  entry.session_key = key;
  entry.last_used = ++tick_;
  stats_.resident_bytes += entry.resident_bytes;
  if (allocator_ != nullptr) {
    allocator_->AdjustReserved(entry.resident_bytes);
  }
  while (stats_.resident_bytes > budget_bytes_ && EvictOneLocked(compile_key) >= 0) {
  }
  return true;
}

PlanJudgment PlanCache::Judge(const PlanKey& key, const graph::Snapshot& snapshot,
                              std::shared_ptr<core::CompiledPlan>* plan, std::string* why) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(key.CompileKey());
  if (it == entries_.end() || it->second.plan == nullptr) {
    ++stats_.judged_miss;
    return PlanJudgment::kMiss;
  }
  if (plan != nullptr) {
    *plan = it->second.plan;
  }
  // Calibrated at this epoch (or a later one: a straggler request), or a
  // predicate still within bounds: the plan is valid as-is.
  if (it->second.plan_epoch >= snapshot.epoch() ||
      it->second.plan->validity().CheckAgainst(snapshot.degree_stats(), why)) {
    ++stats_.judged_valid;
    return PlanJudgment::kValid;
  }
  ++stats_.judged_drifted;
  return PlanJudgment::kDrifted;
}

void PlanCache::Publish(const PlanKey& key, std::shared_ptr<core::CompiledPlan> plan,
                        const graph::Snapshot& snapshot) {
  GS_CHECK(plan != nullptr);
  GS_CHECK(plan->frozen()) << "published plans must be frozen";
  std::lock_guard<std::mutex> lock(mutex_);
  Entry& entry = entries_[key.CompileKey()];
  stats_.entries = static_cast<int64_t>(entries_.size());
  if (entry.plan != nullptr && entry.plan_epoch > snapshot.epoch()) {
    return;  // never roll a plan back to an older epoch
  }
  entry.plan = std::move(plan);
  entry.plan_epoch = snapshot.epoch();
  ++stats_.publishes;
}

int64_t PlanCache::SaveAll(const std::string& dir) {
  // Snapshot under the lock, serialize outside it: Serialize() walks the
  // (frozen, immutable) plan only, so concurrent serving is unaffected.
  std::vector<std::pair<std::string, std::shared_ptr<core::CompiledPlan>>> snapshot;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    snapshot.reserve(entries_.size());
    for (const auto& [compile_key, entry] : entries_) {
      if (entry.session != nullptr) {
        snapshot.emplace_back(entry.session_key.Canonical(), entry.session->plan_ptr());
      }
    }
  }
  std::filesystem::create_directories(dir);
  std::ostringstream index;
  int64_t saved = 0;
  for (const auto& [canonical, plan] : snapshot) {
    char digest[24];
    std::snprintf(digest, sizeof(digest), "%016llx",
                  static_cast<unsigned long long>(plan->Digest()));
    core::SavePlanFile(*plan, dir + "/" + digest + ".plan");
    index << digest << ' ' << canonical << '\n';
    ++saved;
  }
  std::ofstream index_file(dir + "/index.txt", std::ios::trunc);
  GS_CHECK(index_file.good()) << "cannot write plan index: " << dir << "/index.txt";
  index_file << index.str();
  index_file.flush();
  GS_CHECK(index_file.good()) << "failed writing plan index: " << dir << "/index.txt";
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stats_.plans_saved += saved;
  }
  GS_LOG(Info) << "plan cache: saved " << saved << " plan(s) to " << dir;
  return saved;
}

int64_t PlanCache::LoadFrom(const std::string& dir, const Activator& activate) {
  GS_CHECK(activate != nullptr);
  std::ifstream index(dir + "/index.txt");
  if (!index.good()) {
    GS_LOG(Info) << "plan cache: no plan index at " << dir << " (cold start)";
    return 0;
  }
  int64_t loaded = 0;
  std::string line;
  // Activation executes sampling (Warmup) on shared graph structures —
  // serialize it like any other build.
  std::lock_guard<std::mutex> build_lock(build_mutex_);
  while (std::getline(index, line)) {
    if (line.empty()) {
      continue;
    }
    // Per-artifact fault isolation: one corrupted index line or plan file
    // must cost exactly that plan, never the whole warm start — a thrown
    // Error here would unwind out of Server::Start's warm-start block and
    // abandon every remaining (valid) artifact.
    const size_t space = line.find(' ');
    if (space == std::string::npos || space == 0 || space + 1 >= line.size()) {
      GS_LOG(Warning) << "plan cache: skipping malformed index line: '" << line << "'";
      continue;
    }
    const std::string digest = line.substr(0, space);
    const std::string canonical = line.substr(space + 1);
    try {
      const PlanKey key = PlanKey::Parse(canonical);
      const std::string compile_key = key.CompileKey();
      {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = entries_.find(compile_key);
        if (it != entries_.end() && it->second.session != nullptr) {
          continue;  // already resident
        }
      }
      std::shared_ptr<core::CompiledPlan> plan =
          core::LoadPlanFile(dir + "/" + digest + ".plan");
      std::shared_ptr<core::SamplerSession> session = activate(key, std::move(plan));
      if (session == nullptr) {
        continue;  // activator declined (unknown endpoint / wrong device)
      }
      GS_CHECK(session->warmed_up()) << "activator must Warmup() the session: " << canonical;
      std::lock_guard<std::mutex> lock(mutex_);
      InsertLocked(compile_key, key, std::move(session));
      ++stats_.plans_loaded;
      ++loaded;
    } catch (const std::exception& e) {
      // Covers gs::Error (digest mismatch from Deserialize, malformed
      // canonical keys, I/O failures) and any std failure underneath them.
      GS_LOG(Warning) << "plan cache: skipping persisted plan " << canonical << ": " << e.what();
    }
  }
  if (loaded > 0) {
    GS_LOG(Info) << "plan cache: warm-started " << loaded << " plan(s) from " << dir;
  }
  return loaded;
}

std::shared_ptr<core::SamplerSession> PlanCache::TakeSessionLocked(Entry& entry) {
  stats_.resident_bytes -= entry.resident_bytes;
  if (allocator_ != nullptr) {
    allocator_->AdjustReserved(-entry.resident_bytes);
  }
  entry.resident_bytes = 0;
  return std::move(entry.session);
}

int64_t PlanCache::EvictOneLocked(const std::string& keep_key,
                                  std::vector<std::shared_ptr<core::SamplerSession>>* dropped) {
  auto victim = entries_.end();
  uint64_t oldest = std::numeric_limits<uint64_t>::max();
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    if (it->second.session == nullptr || (!keep_key.empty() && it->first == keep_key)) {
      continue;  // never evict the plan the caller is about to use
    }
    if (it->second.last_used < oldest) {
      oldest = it->second.last_used;
      victim = it;
    }
  }
  if (victim == entries_.end()) {
    return -1;
  }
  GS_LOG(Debug) << "plan cache: evicting " << victim->second.session_key.Canonical() << " ("
                << victim->second.resident_bytes << " bytes)";
  const int64_t released = victim->second.resident_bytes;
  ++stats_.evictions;
  // In-flight executions holding the shared_ptr keep the session alive; the
  // memory returns to the allocator pool when the last user drops it.
  std::shared_ptr<core::SamplerSession> session = TakeSessionLocked(victim->second);
  if (victim->second.plan == nullptr) {
    entries_.erase(victim);  // frozen plans stay; a session-only record goes
    stats_.entries = static_cast<int64_t>(entries_.size());
  }
  if (dropped != nullptr) {
    dropped->push_back(std::move(session));
  }
  return released;
}

int64_t PlanCache::ReleaseMemory(int64_t bytes_needed) {
  // Session destruction calls allocator Free, and the global lock order is
  // handlers_mutex_ -> plan-cache mutex_ -> allocator mutex_, so dropping
  // sessions under mutex_ would be safe. Still, collect the victims and
  // release them after unlocking so the (potentially expensive) teardown
  // does not serialize cache lookups.
  std::vector<std::shared_ptr<core::SamplerSession>> dropped;
  int64_t released = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.pressure_releases;
    while (released < bytes_needed) {
      const int64_t freed = EvictOneLocked("", &dropped);
      if (freed < 0) {
        break;
      }
      released += freed;
    }
  }
  dropped.clear();
  if (released > 0) {
    GS_LOG(Info) << "plan cache: released " << released << " bytes under memory pressure ("
                 << bytes_needed << " needed)";
  }
  return released;
}

PlanCacheStats PlanCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace gs::serving
