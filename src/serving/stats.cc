#include "serving/stats.h"

#include <algorithm>
#include <bit>
#include <sstream>

namespace gs::serving {

void LatencyHistogram::Record(int64_t ns) {
  const uint64_t v = ns > 0 ? static_cast<uint64_t>(ns) : 1;
  const int bucket = 63 - std::countl_zero(v);  // floor(log2(v))
  buckets_[static_cast<size_t>(std::min(bucket, 63))] += 1;
  count_ += 1;
  max_ns_ = std::max(max_ns_, ns);
}

void LatencyHistogram::Merge(const LatencyHistogram& other) {
  if (other.count_ == 0) {
    // A dead or just-recovered shard merges as a no-op. Folding its
    // (all-zero) state in unconditionally is almost right, but max_ns_
    // would still take the larger of the two maxima even when the other
    // histogram never recorded — a stale max from before a Reset-style
    // swap would then skew the capped percentiles.
    return;
  }
  for (size_t i = 0; i < buckets_.size(); ++i) {
    buckets_[i] += other.buckets_[i];
  }
  count_ += other.count_;
  max_ns_ = std::max(max_ns_, other.max_ns_);
}

int64_t LatencyHistogram::Percentile(double p) const {
  if (count_ == 0) {
    return 0;
  }
  const double rank = std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(count_);
  // The last occupied bucket interpolates toward the observed maximum, not
  // its 2^(i+1) edge: the samples in that bucket cannot exceed max_ns_, and
  // extrapolating past it (then clamping) flattens every quantile that
  // lands beyond the maximum's position onto max_ns_ itself — e.g. a
  // handful of 513ns samples under a 520ns majority would read p50 = p99 =
  // 520 instead of interpolating across [512, 520].
  size_t top = 0;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    if (buckets_[i] != 0) {
      top = i;
    }
  }
  int64_t seen = 0;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    if (buckets_[i] == 0) {
      continue;
    }
    const int64_t lower = int64_t{1} << i;
    const int64_t upper =
        i >= top ? std::max(max_ns_, lower) : int64_t{1} << (i + 1);
    // p = 0 resolves to the lower edge of the first occupied bucket instead
    // of charging a full bucket's width to the minimum.
    if (rank <= static_cast<double>(seen)) {
      return std::min(lower, max_ns_);
    }
    seen += buckets_[i];
    if (static_cast<double>(seen) >= rank) {
      // Interpolate within the bucket: returning the bucket's upper bound
      // would overstate mid-distribution quantiles by up to 2x.
      const double frac = (rank - static_cast<double>(seen - buckets_[i])) /
                          static_cast<double>(buckets_[i]);
      const int64_t value = lower + static_cast<int64_t>(
                                        frac * static_cast<double>(upper - lower));
      return std::min(value, max_ns_);
    }
  }
  return max_ns_;
}

std::string ServerStats::ToString() const {
  std::ostringstream out;
  out << "received=" << received << " admitted=" << admitted << " completed=" << completed
      << " rejected=" << rejected << " deadline_exceeded=" << deadline_exceeded
      << " failed=" << failed << " degraded=" << degraded << " executions=" << executions
      << " coalesced=" << coalesced_executions << " coalescing_ratio=" << CoalescingRatio()
      << " plan_hits=" << plan_cache_hits << " plan_misses=" << plan_cache_misses
      << " plan_evictions=" << plan_cache_evictions
      << " plan_resident_bytes=" << plan_resident_bytes
      << " plan_cache_entries=" << plan_cache_entries << " plans_saved=" << plans_saved
      << " plans_loaded=" << plans_loaded
      << " transient_retries=" << transient_retries << " shed_retries=" << shed_retries
      << " worker_exceptions=" << worker_exceptions
      << " failed_by_code=[t=" << failed_transient << " re=" << failed_resource_exhausted
      << " inv=" << failed_invalid << " int=" << failed_internal << "]"
      << " partial=" << partial << " failovers=" << failovers
      << " hedged_exchanges=" << hedged_exchanges
      << " p50_us=" << latency_p50_ns / 1000 << " p95_us=" << latency_p95_ns / 1000
      << " p99_us=" << latency_p99_ns / 1000;
  if (feature_requests > 0) {
    out << " features=[requests=" << feature_requests << " rows=" << feature_rows
        << " hit_rate=" << FeatureHitRate() << " gather_mb="
        << static_cast<double>(feature_gather_bytes) / 1e6 << " miss_mb="
        << static_cast<double>(feature_miss_bytes) / 1e6 << " gather_us="
        << feature_gather_ns / 1000 << "]";
  }
  if (!per_shard_completed.empty()) {
    out << " exchange=[hops=" << exchange_hops << " remote_nodes=" << exchange_remote_nodes
        << " bytes=" << exchange_bytes << "] shards=[";
    for (const auto& [shard, completed] : per_shard_completed) {
      out << "s" << shard << "=" << completed << " ";
    }
    out << "]";
  }
  if (graph_epochs > 0) {
    out << " dyn=[epochs=" << graph_epochs << " plan_reuses=" << plan_reuses
        << " stale_served=" << stale_plans_served << " recompiles_inline=" << recompiles_inline
        << " recompiles_bg=" << recompiles_background
        << " feature_invalidations=" << feature_invalidations
        << " partition_rebuilt=" << partition_segments_rebuilt
        << " partition_reused=" << partition_segments_reused << "]";
  }
  return out.str();
}

}  // namespace gs::serving
