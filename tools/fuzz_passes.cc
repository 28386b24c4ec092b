// Randomized differential fuzzer for the pass pipeline.
//
// Each seeded draw picks an algorithm, an R-MAT graph, an epoch shape, and a
// random optimization configuration (pass flags, super-batch size, device
// profile), then runs the gs::oracle differential checks: the optimized plan
// must sample exactly what the all-optimizations-off reference samples under
// mirrored RNG streams (statistical equivalence where the contract is only
// distributional). Failures are *minimized* — optimization flags are dropped
// one at a time, the pass pipeline is truncated via SamplerOptions.pass_limit
// to the shortest failing prefix, and the graph/epoch are shrunk — down to a
// one-line reproducer that `--repro` replays.
//
// With --shards N (N > 1) every draw additionally runs the gs::shard
// differential: the same config is sampled through an N-way ShardGroup
// (randomly edge- or vertex-cut) and every batch must come back bit-identical
// to a single-device SamplerSession with the same plan and seed — the
// subsystem's core guarantee that sharding changes where time is charged,
// never what is sampled.
//
// With --kill-shard (requires --shards N > 1) every sharded draw also kills
// one randomly drawn shard permanently (a seeded shard.lost FaultPlan with
// after=0) and runs the group with 2 replicas: the gs::ha failover path must
// still return batches bit-identical to the single-device session — the
// high-availability tier's core guarantee that failover changes which
// device executes, never what is sampled.
//
// With --features every draw additionally runs the gs::feature differential:
// the oracle's feature-gather check (cold + warm gathers under every
// admission policy must match an eager lookup bit for bit), plus a
// determinism check — two fresh hot-set caches fed the identical access
// sequence under a randomly drawn admission policy must report identical
// hit/miss counts and identical gathered rows.
//
// With --mutate every draw additionally runs the gs::dyn differential: the
// base graph is wrapped in a GraphStore, a seeded MutationGen stream applies
// a drawn number of MutationBatches (with a mid-stream Seal), and the
// resulting snapshot must satisfy gs::oracle::VerifySnapshotEquivalence —
// digest-identical and bit-identical sampling against a from-scratch
// FromEdges load of the same effective edge set. This is the versioned-graph
// tier's core guarantee that incremental maintenance changes how the CSC is
// stored, never what is sampled.
//
// Usage:
//   fuzz_passes --seeds 200                 # fuzz 200 seeded draws
//   fuzz_passes --seeds 50 --base-seed 7    # different deterministic stream
//   fuzz_passes --seeds 100 --shards 2      # + 2-shard-vs-single differential
//   fuzz_passes --seeds 100 --features      # + feature-gather differential
//   fuzz_passes --seeds 100 --mutate        # + snapshot-equivalence differential
//   fuzz_passes --out failures.txt          # append reproducer lines
//   fuzz_passes --repro 'algo=LADIES nodes=200 ...'   # replay one line
//
// Exit status: 0 when every draw passes, 1 on any failure, 2 on bad usage.

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "algorithms/algorithms.h"
#include "common/rng.h"
#include "core/engine.h"
#include "core/executor.h"
#include "core/plan.h"
#include "device/device.h"
#include "dyn/mutation_gen.h"
#include "fault/fault.h"
#include "feature/hot_set_cache.h"
#include "feature/store.h"
#include "graph/generator.h"
#include "graph/graph.h"
#include "graph/partition.h"
#include "graph/store.h"
#include "oracle/oracle.h"
#include "shard/shard.h"
#include "tensor/tensor.h"

namespace {

using gs::Rng;

// One fuzz draw, fully determined by its fields; serializes to the
// reproducer line.
struct FuzzConfig {
  std::string algo = "GraphSAGE";
  int64_t nodes = 200;
  int64_t edges = 2000;
  uint64_t gseed = 1;
  bool weighted = true;
  int num_batches = 4;
  int64_t batch_size = 8;
  bool fusion = true;
  bool preproc = true;
  bool layout = true;
  bool greedy = true;
  int super_batch = 1;
  uint64_t seed = 1;
  std::string profile = "v100";
  int pass_limit = -1;
  int shards = 1;             // >1 adds the sharded-vs-single differential
  std::string cut = "edge";   // partition kind when shards > 1
  bool features = false;      // adds the feature-gather differential
  std::string admission = "frequency-ema";  // cache policy when features
  int replicas = 1;           // replication factor when shards > 1
  int kill = -1;              // shard killed permanently (-1 = none)
  bool mutate = false;        // adds the snapshot-equivalence differential
  int mutations = 0;          // MutationBatches applied when mutate
  uint64_t mseed = 1;         // mutation-stream seed

  std::string ToLine() const {
    std::ostringstream os;
    os << "algo=" << algo << " nodes=" << nodes << " edges=" << edges
       << " gseed=" << gseed << " weighted=" << weighted
       << " batches=" << num_batches << " batch_size=" << batch_size
       << " fusion=" << fusion << " preproc=" << preproc << " layout=" << layout
       << " greedy=" << greedy << " super_batch=" << super_batch
       << " seed=" << seed << " profile=" << profile
       << " pass_limit=" << pass_limit << " shards=" << shards
       << " cut=" << cut << " features=" << features << " admission=" << admission
       << " replicas=" << replicas << " kill=" << kill
       << " mutate=" << mutate << " mutations=" << mutations << " mseed=" << mseed;
    return os.str();
  }

  static bool FromLine(const std::string& line, FuzzConfig& out) {
    std::istringstream is(line);
    std::string tok;
    std::map<std::string, std::string> kv;
    while (is >> tok) {
      const size_t eq = tok.find('=');
      if (eq == std::string::npos) {
        return false;
      }
      kv[tok.substr(0, eq)] = tok.substr(eq + 1);
    }
    try {
      if (kv.count("algo")) out.algo = kv["algo"];
      if (kv.count("nodes")) out.nodes = std::stoll(kv["nodes"]);
      if (kv.count("edges")) out.edges = std::stoll(kv["edges"]);
      if (kv.count("gseed")) out.gseed = std::stoull(kv["gseed"]);
      if (kv.count("weighted")) out.weighted = std::stoi(kv["weighted"]) != 0;
      if (kv.count("batches")) out.num_batches = std::stoi(kv["batches"]);
      if (kv.count("batch_size")) out.batch_size = std::stoll(kv["batch_size"]);
      if (kv.count("fusion")) out.fusion = std::stoi(kv["fusion"]) != 0;
      if (kv.count("preproc")) out.preproc = std::stoi(kv["preproc"]) != 0;
      if (kv.count("layout")) out.layout = std::stoi(kv["layout"]) != 0;
      if (kv.count("greedy")) out.greedy = std::stoi(kv["greedy"]) != 0;
      if (kv.count("super_batch")) out.super_batch = std::stoi(kv["super_batch"]);
      if (kv.count("seed")) out.seed = std::stoull(kv["seed"]);
      if (kv.count("profile")) out.profile = kv["profile"];
      if (kv.count("pass_limit")) out.pass_limit = std::stoi(kv["pass_limit"]);
      if (kv.count("shards")) out.shards = std::stoi(kv["shards"]);
      if (kv.count("cut")) out.cut = kv["cut"];
      if (kv.count("features")) out.features = std::stoi(kv["features"]) != 0;
      if (kv.count("admission")) out.admission = kv["admission"];
      if (kv.count("replicas")) out.replicas = std::stoi(kv["replicas"]);
      if (kv.count("kill")) out.kill = std::stoi(kv["kill"]);
      if (kv.count("mutate")) out.mutate = std::stoi(kv["mutate"]) != 0;
      if (kv.count("mutations")) out.mutations = std::stoi(kv["mutations"]);
      if (kv.count("mseed")) out.mseed = std::stoull(kv["mseed"]);
    } catch (const std::exception&) {
      return false;
    }
    return true;
  }
};

gs::core::SamplerOptions ToSamplerOptions(const FuzzConfig& c) {
  gs::core::SamplerOptions opts;
  opts.enable_fusion = c.fusion;
  opts.enable_preprocessing = c.preproc;
  opts.enable_layout_selection = c.layout;
  opts.greedy_when_layout_disabled = c.greedy;
  opts.super_batch = c.super_batch;
  opts.seed = c.seed;
  opts.pass_limit = c.pass_limit;
  return opts;
}

gs::graph::Graph MakeGraph(const FuzzConfig& c) {
  gs::graph::RMatParams p;
  p.name = "fuzz";
  p.num_nodes = c.nodes;
  p.num_edges = c.edges;
  p.weighted = c.weighted;
  p.seed = c.gseed;
  return gs::graph::MakeRMatGraph(p);
}

// Runs the oracle once for a config; returns the report. The eager-twin
// comparison stays off (it checks the hand-written baselines, not the pass
// pipeline) and the stochastic significance is tight so that hundreds of
// draws keep a negligible false-positive rate.
gs::oracle::OracleReport RunConfig(const FuzzConfig& c) {
  // Device before graph: lazy format materialization allocates into the
  // current device's caching allocator, so the graph must die first.
  gs::device::Device device(c.profile == "t4" ? gs::device::T4Sim()
                                              : gs::device::V100Sim());
  gs::device::DeviceGuard guard(device);
  gs::graph::Graph g = MakeGraph(c);
  gs::oracle::OracleOptions opts;
  opts.seed = c.seed ^ 0xF022F022ULL;
  opts.num_batches = c.num_batches;
  opts.batch_size = c.batch_size;
  opts.stochastic_batches = 100;
  opts.significance = 1e-5;
  opts.check_eager_twin = false;
  // The feature-gather differential runs only in --features draws (it is
  // orthogonal to the pass pipeline the default stream targets).
  opts.check_feature_gather = c.features;
  return gs::oracle::VerifyConfig(c.algo, g, ToSamplerOptions(c), opts);
}

// Sharded-vs-single differential (--shards N): every batch sampled through
// an N-way ShardGroup must be bit-identical to a single-device session over
// the same plan, frontier, and seed. Returns an empty string when the
// contract holds, a description of the first divergence otherwise.
// Model-updating algorithms are skipped (SampleSeeded is pure, but their
// contract is defined over the stateful epoch path the group does not run),
// as is HetGNN (its extra relation bindings have no ShardGroup hook).
std::string ShardMismatch(const FuzzConfig& c, bool* ran = nullptr) {
  if (ran) *ran = false;
  if (c.shards <= 1) {
    return "";
  }
  try {
    const gs::device::DeviceProfile profile =
        c.profile == "t4" ? gs::device::T4Sim() : gs::device::V100Sim();
    // Device before graph, as in RunConfig: the graph must die first.
    gs::device::Device device(profile);
    gs::device::DeviceGuard guard(device);
    gs::graph::Graph g = MakeGraph(c);
    gs::algorithms::AlgorithmProgram ref = gs::algorithms::MakeAlgorithm(c.algo, g);
    if (ref.updates_model || c.algo == "HetGNN") {
      return "";
    }
    if (ran) *ran = true;
    gs::core::SamplerOptions opts = ToSamplerOptions(c);
    opts.super_batch = 1;  // both sides sample one request at a time
    auto plan = std::make_shared<gs::core::CompiledPlan>(std::move(ref.program), opts, c.algo);
    gs::core::SamplerSession session(std::move(plan), g, std::move(ref.tensors));
    session.Warmup(gs::tensor::IdArray::FromVector({0, 1, 2, 3}));

    gs::algorithms::AlgorithmProgram ap = gs::algorithms::MakeAlgorithm(c.algo, g);
    gs::shard::ShardGroupOptions shard_opts;
    shard_opts.num_shards = c.shards;
    shard_opts.partition = c.cut == "vertex" ? gs::graph::PartitionKind::kVertexCut
                                             : gs::graph::PartitionKind::kEdgeCut;
    shard_opts.profile = profile;
    shard_opts.sampler = opts;
    shard_opts.num_replicas = std::min(std::max(c.replicas, 1), c.shards);
    const gs::shard::ShardGroup group(g, std::move(ap.program), std::move(ap.tensors),
                                      shard_opts);

    // Kill dimension (--kill-shard): one shard is permanently lost from the
    // first placement probe. The reference session probes with no shard
    // context, so the shard-qualified plan cannot touch it; failover must
    // keep the group bit-identical anyway.
    std::unique_ptr<gs::fault::FaultScope> kill_scope;
    if (c.kill >= 0 && c.kill < c.shards) {
      kill_scope = std::make_unique<gs::fault::FaultScope>(gs::fault::FaultPlan::Parse(
          "shard" + std::to_string(c.kill) + ":shard.lost:after=0", c.seed));
    }

    Rng rng = Rng(c.seed ^ 0x5A4D5A4DULL);
    for (int b = 0; b < c.num_batches; ++b) {
      std::vector<int32_t> ids;
      ids.reserve(static_cast<size_t>(c.batch_size));
      for (int64_t j = 0; j < c.batch_size; ++j) {
        ids.push_back(static_cast<int32_t>(rng.UniformInt(static_cast<uint64_t>(c.nodes))));
      }
      const gs::tensor::IdArray frontier = gs::tensor::IdArray::FromVector(ids);
      const uint64_t seed = c.seed + static_cast<uint64_t>(b) * 1315423911ULL;
      const std::vector<gs::core::Value> want = session.SampleSeeded(frontier, seed);
      const int shard = b % c.shards;  // rotate so every shard gets checked
      const std::vector<gs::core::Value> got = group.Sample(shard, frontier, seed);
      if (got.size() != want.size()) {
        return c.algo + ": shard " + std::to_string(shard) + " returned " +
               std::to_string(got.size()) + " outputs, single-device returned " +
               std::to_string(want.size());
      }
      for (size_t v = 0; v < want.size(); ++v) {
        if (!gs::core::BitIdentical(got[v], want[v])) {
          return c.algo + ": batch " + std::to_string(b) + " output " + std::to_string(v) +
                 " on shard " + std::to_string(shard) +
                 " diverged from single-device (" + c.cut + "-cut x" +
                 std::to_string(c.shards) + ")";
        }
      }
    }
  } catch (const std::exception& e) {
    return std::string("shard THROW ") + e.what();
  }
  return "";
}

// Feature-gather determinism differential (--features): two fresh hot-set
// caches fed the identical access sequence under the drawn admission policy
// must produce bit-identical gathered rows (both matching an eager lookup)
// and identical hit/miss counters. Returns an empty string when the contract
// holds. The bit-identity-across-policies check itself runs inside the
// oracle (check_feature_gather); this adds the cache-determinism axis the
// oracle's single-cache pass cannot see.
std::string FeatureMismatch(const FuzzConfig& c, bool* ran = nullptr) {
  if (ran) *ran = false;
  if (!c.features) {
    return "";
  }
  try {
    gs::device::Device device(c.profile == "t4" ? gs::device::T4Sim()
                                                : gs::device::V100Sim());
    gs::device::DeviceGuard guard(device);
    gs::graph::Graph g = MakeGraph(c);
    if (!g.features().defined()) {
      return "";
    }
    if (ran) *ran = true;
    const gs::feature::FeatureStore store(g.features());
    gs::feature::HotSetCacheOptions cache_opts;
    cache_opts.capacity = std::max<int64_t>(c.nodes / 8, 64);
    cache_opts.admission = gs::feature::AdmissionFromName(c.admission);
    gs::feature::HotSetCache cache_a(cache_opts);
    gs::feature::HotSetCache cache_b(cache_opts);
    const int64_t dim = g.features().cols();

    Rng rng = Rng(c.seed ^ 0xFEA7FEA7ULL);
    for (int b = 0; b < c.num_batches * 2; ++b) {  // x2: revisit for warm hits
      std::vector<int32_t> ids;
      ids.reserve(static_cast<size_t>(c.batch_size));
      Rng batch_rng = rng.Fork(static_cast<uint64_t>(b % c.num_batches));
      for (int64_t j = 0; j < c.batch_size; ++j) {
        ids.push_back(
            static_cast<int32_t>(batch_rng.UniformInt(static_cast<uint64_t>(c.nodes))));
      }
      const gs::tensor::IdArray frontier = gs::tensor::IdArray::FromVector(ids);
      const gs::tensor::Tensor got_a = store.Gather(frontier, &cache_a);
      const gs::tensor::Tensor got_b = store.Gather(frontier, &cache_b);
      for (size_t i = 0; i < ids.size(); ++i) {
        const float* a = got_a.data() + static_cast<int64_t>(i) * dim;
        const float* bb = got_b.data() + static_cast<int64_t>(i) * dim;
        const float* want = g.features().data() + static_cast<int64_t>(ids[i]) * dim;
        if (std::memcmp(a, want, static_cast<size_t>(dim) * sizeof(float)) != 0) {
          return c.admission + ": batch " + std::to_string(b) + " row " + std::to_string(i) +
                 " (node " + std::to_string(ids[i]) + ") diverged from the eager lookup";
        }
        if (std::memcmp(a, bb, static_cast<size_t>(dim) * sizeof(float)) != 0) {
          return c.admission + ": batch " + std::to_string(b) + " row " + std::to_string(i) +
                 " differs between two caches fed the same sequence";
        }
      }
    }
    if (cache_a.hits() != cache_b.hits() || cache_a.misses() != cache_b.misses()) {
      return c.admission + ": nondeterministic cache counters (hits " +
             std::to_string(cache_a.hits()) + " vs " + std::to_string(cache_b.hits()) +
             ", misses " + std::to_string(cache_a.misses()) + " vs " +
             std::to_string(cache_b.misses()) + ")";
    }
  } catch (const std::exception& e) {
    return std::string("feature THROW ") + e.what();
  }
  return "";
}

// Snapshot-equivalence differential (--mutate): apply a seeded mutation
// stream to a GraphStore over the drawn base graph (Seal mid-stream so
// compaction is exercised too), then require the oracle's
// VerifySnapshotEquivalence to hold — the incremental snapshot must be
// digest-identical and sample bit-identically to a from-scratch FromEdges
// load of the same effective edge set. Returns an empty string when the
// contract holds.
std::string MutateMismatch(const FuzzConfig& c, bool* ran = nullptr) {
  if (ran) *ran = false;
  if (!c.mutate || c.mutations <= 0) {
    return "";
  }
  try {
    gs::device::Device device(c.profile == "t4" ? gs::device::T4Sim()
                                                : gs::device::V100Sim());
    gs::device::DeviceGuard guard(device);
    gs::graph::Graph g = MakeGraph(c);
    const int64_t feature_dim = g.features().defined() ? g.features().cols() : 0;
    gs::graph::GraphStoreOptions store_opts;
    store_opts.segment_cols = 64;  // small segments so COW sharing is exercised
    gs::graph::GraphStore store(std::move(g), store_opts);
    if (ran) *ran = true;

    gs::dyn::MutationGenOptions gen_opts;
    gen_opts.seed = c.mseed;
    gen_opts.num_nodes = c.nodes;
    gen_opts.adds_per_batch = 16;
    gen_opts.removes_per_batch = 4;
    gen_opts.feature_updates_per_batch = feature_dim > 0 ? 4 : 0;
    gen_opts.feature_dim = feature_dim;
    gen_opts.weighted = c.weighted;
    gen_opts.skew = 0.8;
    gs::dyn::MutationGen gen(gen_opts);
    for (int m = 0; m < c.mutations; ++m) {
      store.Apply(gen.Next());
      if (m == c.mutations / 2) {
        store.Seal();  // mid-stream compaction must not change the epoch
      }
    }

    gs::oracle::OracleOptions opts;
    opts.seed = c.seed ^ 0xD1D1D1D1ULL;
    opts.num_batches = c.num_batches;
    opts.batch_size = c.batch_size;
    const gs::oracle::OracleReport report =
        gs::oracle::VerifySnapshotEquivalence(c.algo, store, ToSamplerOptions(c), opts);
    if (!report.ok()) {
      return report.ToString();
    }
  } catch (const std::exception& e) {
    return std::string("mutate THROW ") + e.what();
  }
  return "";
}

bool Fails(const FuzzConfig& c) {
  try {
    return !RunConfig(c).ok() || !ShardMismatch(c).empty() || !FeatureMismatch(c).empty() ||
           !MutateMismatch(c).empty();
  } catch (const std::exception&) {
    return true;  // a throwing config is a failing config — keep minimizing
  }
}

// Ordered differential-dimension ladder, run before the knob minimization:
// try to drop each dimension — features, mutate, kill-shard, shards —
// re-verifying the failure after
// *each* drop rather than assuming the fixed order preserves the repro (a
// kill-shard failure, for instance, vanishes when the shard drop goes first).
// A dimension whose removal makes the failure disappear is load-bearing: it
// is restored and reported back so the --repro line can name it.
std::vector<std::string> MinimizeDimensions(FuzzConfig& c) {
  std::vector<std::string> surviving;
  auto attempt = [&](const char* name, auto&& drop) {
    FuzzConfig t = c;
    drop(t);
    if (Fails(t)) {
      c = t;
    } else {
      surviving.push_back(name);
    }
  };
  if (c.features) {
    attempt("features", [](FuzzConfig& t) { t.features = false; });
  }
  if (c.mutate) {
    attempt("mutate", [](FuzzConfig& t) {
      t.mutate = false;
      t.mutations = 0;
    });
  }
  if (c.kill >= 0) {
    attempt("kill-shard", [](FuzzConfig& t) {
      t.kill = -1;
      t.replicas = 1;
    });
  }
  if (c.shards > 1) {
    // Re-verified like every other rung: if kill-shard survived above, this
    // trial also removes it, and Fails() decides whether that still repros.
    attempt("shards", [](FuzzConfig& t) {
      t.shards = 1;
      t.kill = -1;
      t.replicas = 1;
    });
  }
  return surviving;
}

// Greedy ddmin over the discrete knobs: repeatedly try every single-knob
// reduction towards the reference configuration and keep the ones that
// preserve the failure, until a fixpoint.
void MinimizeFlags(FuzzConfig& c) {
  bool changed = true;
  while (changed) {
    changed = false;
    std::vector<FuzzConfig> trials;
    if (c.super_batch != 1) {
      trials.push_back(c);
      trials.back().super_batch = 1;
    }
    if (c.shards > 1 && c.cut != "edge") {
      trials.push_back(c);
      trials.back().cut = "edge";
    }
    for (bool FuzzConfig::* knob :
         {&FuzzConfig::fusion, &FuzzConfig::preproc, &FuzzConfig::layout,
          &FuzzConfig::greedy, &FuzzConfig::weighted}) {
      if (c.*knob) {
        trials.push_back(c);
        trials.back().*knob = false;
      }
    }
    for (const FuzzConfig& t : trials) {
      if (Fails(t)) {
        c = t;
        changed = true;
        break;
      }
    }
  }
}

// Pass-pipeline bisection through SamplerOptions.pass_limit: find the
// shortest failing prefix, attributing the divergence to its last pass.
void MinimizePasses(FuzzConfig& c, std::string& culprit) {
  int total = 0;
  std::vector<std::string> names;
  try {
    gs::graph::Graph g = MakeGraph(c);
    gs::algorithms::AlgorithmProgram ap = gs::algorithms::MakeAlgorithm(c.algo, g);
    gs::core::CompiledPlan plan(std::move(ap.program), ToSamplerOptions(c));
    for (const auto& pass : plan.report().passes) {
      names.push_back(pass.name);
    }
    total = static_cast<int>(names.size());
  } catch (const std::exception&) {
    return;  // compilation itself fails; nothing to bisect
  }
  for (int limit = 0; limit <= total; ++limit) {
    FuzzConfig t = c;
    t.pass_limit = limit;
    if (Fails(t)) {
      c = t;
      culprit = limit == 0 ? "(no passes: baseline mismatch)"
                           : names[static_cast<size_t>(limit - 1)];
      return;
    }
  }
  // Every prefix passes in isolation yet the full run failed (flaky
  // stochastic rejection, most likely); leave pass_limit untouched.
}

// Shrinks the graph and the epoch while the failure persists.
void MinimizeShape(FuzzConfig& c) {
  bool changed = true;
  while (changed) {
    changed = false;
    std::vector<FuzzConfig> trials;
    if (c.nodes / 2 >= 32) {
      trials.push_back(c);
      trials.back().nodes = c.nodes / 2;
      trials.back().edges = std::max<int64_t>(c.edges / 2, c.nodes / 2);
    }
    if (c.edges / 2 >= c.nodes) {
      trials.push_back(c);
      trials.back().edges = c.edges / 2;
    }
    if (c.num_batches > 1) {
      trials.push_back(c);
      trials.back().num_batches = c.num_batches / 2;
    }
    if (c.batch_size / 2 >= 1) {
      trials.push_back(c);
      trials.back().batch_size = c.batch_size / 2;
    }
    if (c.mutations > 1) {
      trials.push_back(c);
      trials.back().mutations = c.mutations / 2;
    }
    for (const FuzzConfig& t : trials) {
      if (Fails(t)) {
        c = t;
        changed = true;
        break;
      }
    }
  }
}

FuzzConfig Draw(uint64_t base_seed, uint64_t index, int shards, bool features,
                bool kill_shard, bool mutate) {
  Rng rng = Rng(base_seed).Fork(index);
  const std::vector<std::string> algos = gs::algorithms::AllAlgorithmNames();
  FuzzConfig c;
  c.algo = algos[static_cast<size_t>(rng.UniformInt(static_cast<int64_t>(algos.size())))];
  c.nodes = 100 + rng.UniformInt(301);           // 100..400
  c.edges = c.nodes * (4 + rng.UniformInt(9));   // mean degree 4..12
  c.gseed = rng.UniformInt(1 << 20);
  c.weighted = rng.UniformInt(2) == 1;
  c.num_batches = 2 + static_cast<int>(rng.UniformInt(5));  // 2..6
  c.batch_size = 4 + rng.UniformInt(13);         // 4..16
  c.fusion = rng.UniformInt(2) == 1;
  c.preproc = rng.UniformInt(2) == 1;
  c.layout = rng.UniformInt(2) == 1;
  c.greedy = rng.UniformInt(2) == 1;
  const int sb[] = {1, 2, 4};
  c.super_batch = sb[rng.UniformInt(3)];
  c.seed = rng.UniformInt(int64_t{1} << 32);
  c.profile = rng.UniformInt(2) == 1 ? "t4" : "v100";
  c.pass_limit = -1;
  // The shard count comes from the CLI, not the stream, so `--seeds N` draws
  // the same configs with and without `--shards`; only the cut is drawn (and
  // drawn last, keeping every pre-shard field identical to older streams).
  c.shards = shards;
  c.cut = rng.UniformInt(2) == 1 ? "vertex" : "edge";
  // Like the shard count, the feature toggle comes from the CLI; only the
  // admission policy is drawn (last, preserving older streams).
  c.features = features;
  const char* admissions[] = {"static-degree", "lru", "frequency-ema"};
  c.admission = admissions[rng.UniformInt(3)];
  // The kill dimension is drawn LAST and only under --kill-shard, so every
  // older stream (and every --shards run without it) is unchanged.
  if (kill_shard && shards > 1) {
    c.kill = static_cast<int>(rng.UniformInt(shards));
    c.replicas = 2;
  }
  // The mutate dimension is drawn after kill (and only under --mutate), so
  // every pre-existing stream stays byte-identical without the flag.
  if (mutate) {
    c.mutate = true;
    c.mutations = 1 + static_cast<int>(rng.UniformInt(4));  // 1..4 batches
    c.mseed = rng.UniformInt(1 << 20);
  }
  return c;
}

int Usage() {
  std::cerr << "usage: fuzz_passes [--seeds N] [--base-seed S] [--out FILE]\n"
               "                   [--shards N] [--kill-shard] [--features] [--mutate]\n"
               "                   [--repro 'key=value ...']\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  int64_t num_seeds = 50;
  uint64_t base_seed = 0xF022;
  int shards = 1;
  bool kill_shard = false;
  bool features = false;
  bool mutate = false;
  std::string out_path;
  std::string repro_line;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    if (arg == "--seeds") {
      const char* v = next();
      if (!v) return Usage();
      num_seeds = std::atoll(v);
    } else if (arg == "--base-seed") {
      const char* v = next();
      if (!v) return Usage();
      base_seed = std::strtoull(v, nullptr, 0);
    } else if (arg == "--shards") {
      const char* v = next();
      if (!v) return Usage();
      shards = std::atoi(v);
      if (shards < 1) return Usage();
    } else if (arg == "--kill-shard") {
      kill_shard = true;
    } else if (arg == "--features") {
      features = true;
    } else if (arg == "--mutate") {
      mutate = true;
    } else if (arg == "--out") {
      const char* v = next();
      if (!v) return Usage();
      out_path = v;
    } else if (arg == "--repro") {
      const char* v = next();
      if (!v) return Usage();
      repro_line = v;
    } else {
      return Usage();
    }
  }

  if (!repro_line.empty()) {
    FuzzConfig c;
    if (!FuzzConfig::FromLine(repro_line, c)) {
      std::cerr << "fuzz_passes: cannot parse repro line\n";
      return 2;
    }
    try {
      const gs::oracle::OracleReport report = RunConfig(c);
      std::cout << report.ToString() << "\n";
      bool ran = false;
      const std::string mismatch = ShardMismatch(c, &ran);
      if (!mismatch.empty()) {
        std::cout << "shard differential: " << mismatch << "\n";
      } else if (ran) {
        std::cout << "shard differential: " << c.shards << "-shard " << c.cut
                  << "-cut bit-identical\n";
      } else if (c.shards > 1) {
        std::cout << "shard differential: skipped (stateful or extra bindings)\n";
      }
      bool feature_ran = false;
      const std::string feature_mismatch = FeatureMismatch(c, &feature_ran);
      if (!feature_mismatch.empty()) {
        std::cout << "feature differential: " << feature_mismatch << "\n";
      } else if (feature_ran) {
        std::cout << "feature differential: " << c.admission
                  << " bit-identical and deterministic\n";
      }
      bool mutate_ran = false;
      const std::string mutate_mismatch = MutateMismatch(c, &mutate_ran);
      if (!mutate_mismatch.empty()) {
        std::cout << "mutate differential: " << mutate_mismatch << "\n";
      } else if (mutate_ran) {
        std::cout << "mutate differential: " << c.mutations
                  << " batches snapshot-equivalent\n";
      }
      return report.ok() && mismatch.empty() && feature_mismatch.empty() &&
                     mutate_mismatch.empty()
                 ? 0
                 : 1;
    } catch (const std::exception& e) {
      std::cout << c.algo << ": THROW " << e.what() << "\n";
      return 1;
    }
  }

  int64_t failures = 0;
  for (int64_t i = 0; i < num_seeds; ++i) {
    FuzzConfig c = Draw(base_seed, static_cast<uint64_t>(i), shards, features, kill_shard,
                        mutate);
    std::string detail;
    try {
      const gs::oracle::OracleReport report = RunConfig(c);
      if (report.ok()) {
        const std::string mismatch = ShardMismatch(c);
        const std::string feature_mismatch = mismatch.empty() ? FeatureMismatch(c) : "";
        const std::string mutate_mismatch =
            mismatch.empty() && feature_mismatch.empty() ? MutateMismatch(c) : "";
        if (mismatch.empty() && feature_mismatch.empty() && mutate_mismatch.empty()) {
          continue;
        }
        detail = !mismatch.empty()           ? "shard differential: " + mismatch
                 : !feature_mismatch.empty() ? "feature differential: " + feature_mismatch
                                             : "mutate differential: " + mutate_mismatch;
      } else {
        detail = report.ToString();
      }
    } catch (const std::exception& e) {
      detail = std::string("THROW ") + e.what();
    }
    ++failures;
    std::cout << "FAIL draw " << i << ": " << detail << "\n";
    std::string culprit;
    const std::vector<std::string> surviving = MinimizeDimensions(c);
    MinimizeFlags(c);
    MinimizePasses(c, culprit);
    MinimizeShape(c);
    // The shipped reproducer must actually reproduce: re-verify the whole
    // minimized config once, end to end, before printing it.
    if (!Fails(c)) {
      std::cout << "  (warning: minimized config no longer reproduces — "
                   "likely a flaky stochastic rejection)\n";
    }
    std::string survived;
    for (const std::string& dim : surviving) {
      survived += (survived.empty() ? "" : ",") + dim;
    }
    const std::string line = c.ToLine();
    std::cout << "  minimized: " << line << "\n";
    if (!survived.empty()) {
      std::cout << "  surviving dimensions: " << survived << "\n";
    }
    if (!culprit.empty()) {
      std::cout << "  first failing pass prefix ends at: " << culprit << "\n";
    }
    std::cout << "  replay: fuzz_passes --repro '" << line << "'"
              << (survived.empty() ? "" : "  # surviving: " + survived) << "\n";
    if (!out_path.empty()) {
      FILE* f = std::fopen(out_path.c_str(), "a");
      if (f) {
        std::fprintf(f, "%s\n", line.c_str());
        std::fclose(f);
      }
    }
  }
  std::cout << "fuzz_passes: " << (num_seeds - failures) << "/" << num_seeds
            << " draws clean (base seed 0x" << std::hex << base_seed << std::dec
            << ")\n";
  return failures == 0 ? 0 : 1;
}
