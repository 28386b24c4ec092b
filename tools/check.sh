#!/usr/bin/env bash
# Tier-1 verification plus the concurrency-sensitive suites under TSan.
#
# Usage: tools/check.sh [--fast | chaos | plans | oracle | shard | feature | ha | dynamic | jit | asan]
#
#   (default)  configure + build + full ctest in ./build, then the plans
#              tier, then the oracle tier, then the shard tier, then the
#              feature tier, then the ha tier, then the dynamic tier, then
#              the jit tier, then the asan tier, then a -DGS_SANITIZE=thread
#              build in ./build-tsan running the threaded suites (pipeline,
#              serving, device accounting, fault ladder) with pass-boundary
#              verification (GS_VERIFY_PASSES=1), then the chaos tier.
#   --fast     tier-1 only, restricted to `ctest -L fast` (skips the
#              soak/chaos tests, the plans tier, and the TSan pass).
#   plans      plan round-trip tier only: builds gsampler_cli and, for every
#              Table-2 algorithm, compiles + serializes + reloads the plan
#              and requires bit-identical samples from the restored artifact
#              (gsampler_cli --verify-plan), saving each one under
#              build/plans/.
#   oracle     differential-correctness tier only: builds test_oracle +
#              fuzz_passes, runs `ctest -L oracle` (optimized-vs-reference
#              checks for every algorithm plus the primitive distribution
#              tests), then a fixed-seed 200-draw pass fuzz that must come
#              back clean. Everything is seeded, so a failure here is a
#              deterministic reproducer, printed as a --repro line.
#   shard      multi-device sharding tier only (gs::shard): runs
#              `ctest -L shard` (partitioner goldens + the sharded-vs-single
#              bit-identity oracle + sharded serving), then the ShardGroup
#              concurrency suite under TSan, then a sharded pass fuzz
#              (fuzz_passes --shards 2) differencing 2-shard sampling
#              against single-device for every drawn config.
#   feature    feature-serving tier only (gs::feature): runs
#              `ctest -L feature` (hot-set cache semantics + the gather
#              bit-identity oracle across all algorithms, 2/4-way shards,
#              and coalesced serving), then the gather suite under TSan
#              (concurrent tenants sharing one cache), then a fixed-seed
#              feature-gather fuzz (fuzz_passes --features) differencing
#              cached gathers against the eager per-node lookup for every
#              drawn config and admission policy.
#   ha         high-availability tier only (gs::ha): runs `ctest -L ha`
#              (failover bit-identity oracle, degraded-mode coverage,
#              health state-machine goldens, recovery re-admission), then
#              the same suite under TSan (concurrent failover), then a
#              fixed-seed shard-kill fuzz (fuzz_passes --shards 2
#              --kill-shard) requiring bit-identical samples with one shard
#              permanently dead and 2 replicas.
#   dynamic    dynamic-graph tier only (gs::dyn + graph::GraphStore): runs
#              `ctest -L dynamic` (versioned-snapshot semantics, COW/seal
#              accounting, plan judgment + background replanning, the
#              all-algorithm snapshot-equivalence oracle over single-device,
#              4-shard, and 2-replica configs, and the live-server mutation
#              soak with zero failed requests), then the mutation soak under
#              TSan (ingest thread racing serving workers and the
#              replanner), then a fixed-seed mutation fuzz
#              (fuzz_passes --mutate) requiring every maintained epoch to
#              sample bit-identically to a from-scratch reload.
#   jit        JIT-compilation tier only (gs::jit): runs `ctest -L jit`
#              (region extraction, kernel-cache artifact reuse + corruption
#              recovery, compile-fault demotion, the JIT-vs-interpreter
#              bit-identity oracle over all algorithms including sharded and
#              mutated-epoch serving), then the same suite under TSan
#              (serving workers racing the per-plan compile), then a
#              fixed-seed JIT fuzz (fuzz_passes --jit) differencing native
#              kernels against the interpreter for every drawn config.
#   asan       AddressSanitizer tier only: builds with GS_SANITIZE=address
#              in ./build-asan and runs the suites that exercise session and
#              snapshot lifetimes (test_serving, test_dyn, test_plan,
#              test_serving_soak): superseded-epoch sessions, stragglers,
#              eviction under the byte budget and the OOM ladder, and warm
#              restarts, checked for use-after-free and leaks.
#   chaos      fault-injection tier only: builds with GS_SANITIZE=thread and
#              runs the gs::fault suites (test_fault + the chaos soak) under
#              TSan — the deterministic-injection racing workout.
#
# Exits non-zero on the first failing step.

set -euo pipefail
cd "$(dirname "$0")/.."

FAST=0
CHAOS=0
PLANS=0
ORACLE=0
SHARD=0
FEATURE=0
HA=0
DYNAMIC=0
JIT=0
ASAN=0
for arg in "$@"; do
  case "$arg" in
    --fast) FAST=1 ;;
    chaos|--chaos) CHAOS=1 ;;
    plans|--plans) PLANS=1 ;;
    oracle|--oracle) ORACLE=1 ;;
    shard|--shard) SHARD=1 ;;
    feature|--feature) FEATURE=1 ;;
    ha|--ha) HA=1 ;;
    dynamic|--dynamic) DYNAMIC=1 ;;
    jit|--jit) JIT=1 ;;
    asan|--asan) ASAN=1 ;;
    *) echo "unknown flag: $arg (usage: tools/check.sh [--fast | chaos | plans | oracle | shard | feature | ha | dynamic | jit | asan])" >&2; exit 2 ;;
  esac
done

JOBS="$(nproc 2>/dev/null || echo 4)"

run_chaos_tier() {
  echo "== chaos: configure + build (GS_SANITIZE=thread) =="
  cmake -B build-tsan -S . -DGS_SANITIZE=thread >/dev/null
  cmake --build build-tsan -j "$JOBS" --target test_fault test_fault_soak

  echo "== chaos: fault suites under TSan =="
  ./build-tsan/tests/test_fault
  ./build-tsan/tests/test_fault_soak
}

# Plan round-trip tier: every algorithm must compile, serialize, reload, and
# re-sample bit-identically; the verified artifacts are left in build/plans/
# so a --load-plan run can pick them up.
run_plans_tier() {
  echo "== plans: build gsampler_cli =="
  cmake -B build -S . >/dev/null
  cmake --build build -j "$JOBS" --target gsampler_cli

  echo "== plans: round-trip every algorithm =="
  mkdir -p build/plans
  local algorithms
  algorithms="$(./build/tools/gsampler_cli --list | sed -n 's/^algorithms: //p')"
  for alg in $algorithms; do
    ./build/tools/gsampler_cli --algorithm "$alg" --dataset PD --scale 0.1 \
      --verify-plan --save-plan "build/plans/$alg.plan"
  done
}

# Differential-correctness tier: the oracle ctest label (optimized plan vs
# eager reference for every algorithm, plus primitive distribution tests),
# then a fixed-seed pass fuzz. Both are fully seeded — layout calibration
# ranks candidates on the deterministic model clock — so any failure here
# reproduces exactly; the fuzzer prints a minimized `--repro` line.
run_oracle_tier() {
  echo "== oracle: build test_oracle + fuzz_passes =="
  cmake -B build -S . >/dev/null
  cmake --build build -j "$JOBS" --target test_oracle fuzz_passes

  echo "== oracle: ctest -L oracle =="
  (cd build && ctest -L oracle --output-on-failure -j "$JOBS")

  echo "== oracle: fixed-seed pass fuzz (200 draws) =="
  ./build/tools/fuzz_passes --seeds 200
}

# Multi-device sharding tier: the shard ctest label, the ShardGroup
# concurrency suite under TSan (four threads on four shard devices), and a
# sharded pass fuzz differencing 2-shard against single-device sampling.
run_shard_tier() {
  echo "== shard: build test_partition + test_shard + fuzz_passes =="
  cmake -B build -S . >/dev/null
  cmake --build build -j "$JOBS" --target test_partition test_shard fuzz_passes

  echo "== shard: ctest -L shard =="
  (cd build && ctest -L shard --output-on-failure -j "$JOBS")

  echo "== shard: ShardGroup suite under TSan =="
  cmake -B build-tsan -S . -DGS_SANITIZE=thread >/dev/null
  cmake --build build-tsan -j "$JOBS" --target test_shard
  ./build-tsan/tests/test_shard

  echo "== shard: sharded pass fuzz (100 draws, 2 shards) =="
  ./build/tools/fuzz_passes --seeds 100 --shards 2
}

# Feature-serving tier: the feature ctest label (cache semantics plus the
# gather bit-identity oracle across algorithms, shards, and coalesced
# serving), the gather suite under TSan, and a feature-gather fuzz that
# checks cached-vs-eager bit-identity and cache-counter determinism for
# every drawn config.
run_feature_tier() {
  echo "== feature: build test_feature + fuzz_passes =="
  cmake -B build -S . >/dev/null
  cmake --build build -j "$JOBS" --target test_feature fuzz_passes

  echo "== feature: ctest -L feature =="
  (cd build && ctest -L feature --output-on-failure -j "$JOBS")

  echo "== feature: gather suite under TSan =="
  cmake -B build-tsan -S . -DGS_SANITIZE=thread >/dev/null
  cmake --build build-tsan -j "$JOBS" --target test_feature
  ./build-tsan/tests/test_feature

  echo "== feature: feature-gather fuzz (100 draws) =="
  ./build/tools/fuzz_passes --seeds 100 --features
}

# High-availability tier: the ha ctest label (failover bit-identity against
# single-device, degraded coverage fractions, health state-machine goldens,
# recovery re-admission), the same suite under TSan (failover and health
# signals from concurrent workers), and a shard-kill fuzz: every drawn
# config runs with one randomly drawn shard permanently dead and 2 replicas,
# and must still sample bit-identically to a single device.
run_ha_tier() {
  echo "== ha: build test_ha + fuzz_passes =="
  cmake -B build -S . >/dev/null
  cmake --build build -j "$JOBS" --target test_ha fuzz_passes

  echo "== ha: ctest -L ha =="
  (cd build && ctest -L ha --output-on-failure -j "$JOBS")

  echo "== ha: failover suite under TSan =="
  cmake -B build-tsan -S . -DGS_SANITIZE=thread >/dev/null
  cmake --build build-tsan -j "$JOBS" --target test_ha
  ./build-tsan/tests/test_ha

  echo "== ha: shard-kill fuzz (60 draws, 2 shards, 2 replicas) =="
  ./build/tools/fuzz_passes --seeds 60 --shards 2 --kill-shard
}

# Dynamic-graph tier: the dynamic ctest label (GraphStore semantics, plan
# judgment/replanning, the snapshot-equivalence oracle, the serving soak),
# the mutation soak under TSan (the ingest thread applying epochs while
# serving workers sample and the replanner publishes), and a fixed-seed
# mutation fuzz differencing every maintained epoch against a from-scratch
# FromEdges reload of the same effective edge set.
run_dynamic_tier() {
  echo "== dynamic: build test_dyn + fuzz_passes =="
  cmake -B build -S . >/dev/null
  cmake --build build -j "$JOBS" --target test_dyn fuzz_passes

  echo "== dynamic: ctest -L dynamic =="
  (cd build && ctest -L dynamic --output-on-failure -j "$JOBS")

  echo "== dynamic: mutation soak under TSan =="
  cmake -B build-tsan -S . -DGS_SANITIZE=thread >/dev/null
  cmake --build build-tsan -j "$JOBS" --target test_dyn
  ./build-tsan/tests/test_dyn

  echo "== dynamic: mutation fuzz (100 draws) =="
  ./build/tools/fuzz_passes --seeds 100 --mutate
}

# JIT tier: the jit ctest label (region extraction, kernel-cache artifact
# reuse and corruption recovery, compile-fault demotion, and the
# JIT-vs-interpreter bit-identity oracle over every algorithm including
# 4-shard serving and a mutated-epoch snapshot), the same suite under TSan
# (serving workers race TableFor's per-plan compile + memoization), and a
# fixed-seed JIT fuzz: every drawn config samples once through the
# interpreter and once through the compiled kernels, and the outputs must be
# bit-identical. In the fuzzer's minimizer the jit dimension is dropped
# first, so a repro that survives without --jit is a plain interpreter bug.
run_jit_tier() {
  echo "== jit: build test_jit + test_fused + fuzz_passes =="
  cmake -B build -S . >/dev/null
  cmake --build build -j "$JOBS" --target test_jit test_fused fuzz_passes

  echo "== jit: ctest -L jit =="
  (cd build && ctest -L jit --output-on-failure -j "$JOBS")

  echo "== jit: suite under TSan =="
  cmake -B build-tsan -S . -DGS_SANITIZE=thread >/dev/null
  cmake --build build-tsan -j "$JOBS" --target test_jit
  ./build-tsan/tests/test_jit

  echo "== jit: differential fuzz (60 draws, native vs interpreter) =="
  ./build/tools/fuzz_passes --seeds 60 --jit
}

# AddressSanitizer tier: the serving, dynamic-graph and plan suites, whose
# sessions and pinned snapshots are dropped while executions may still hold
# them (superseded epochs, stragglers, eviction, warm restarts).
run_asan_tier() {
  echo "== asan: configure + build (GS_SANITIZE=address) =="
  cmake -B build-asan -S . -DGS_SANITIZE=address >/dev/null
  cmake --build build-asan -j "$JOBS" --target test_serving test_dyn test_plan test_serving_soak

  echo "== asan: serving, dynamic, plan and soak suites =="
  ./build-asan/tests/test_serving
  ./build-asan/tests/test_dyn
  ./build-asan/tests/test_plan
  ./build-asan/tests/test_serving_soak
}

if [[ "$ASAN" == 1 ]]; then
  run_asan_tier
  echo "check.sh: asan tier green"
  exit 0
fi

if [[ "$JIT" == 1 ]]; then
  run_jit_tier
  echo "check.sh: jit tier green"
  exit 0
fi

if [[ "$DYNAMIC" == 1 ]]; then
  run_dynamic_tier
  echo "check.sh: dynamic tier green"
  exit 0
fi

if [[ "$HA" == 1 ]]; then
  run_ha_tier
  echo "check.sh: ha tier green"
  exit 0
fi

if [[ "$FEATURE" == 1 ]]; then
  run_feature_tier
  echo "check.sh: feature tier green"
  exit 0
fi

if [[ "$SHARD" == 1 ]]; then
  run_shard_tier
  echo "check.sh: shard tier green"
  exit 0
fi

if [[ "$ORACLE" == 1 ]]; then
  run_oracle_tier
  echo "check.sh: oracle tier green"
  exit 0
fi

if [[ "$CHAOS" == 1 ]]; then
  run_chaos_tier
  echo "check.sh: chaos tier green"
  exit 0
fi

if [[ "$PLANS" == 1 ]]; then
  run_plans_tier
  echo "check.sh: plans tier green"
  exit 0
fi

echo "== tier-1: configure + build =="
cmake -B build -S . >/dev/null
cmake --build build -j "$JOBS"

if [[ "$FAST" == 1 ]]; then
  echo "== tier-1: ctest -L fast =="
  (cd build && ctest -L fast --output-on-failure -j "$JOBS")
  exit 0
fi

echo "== tier-1: full ctest =="
(cd build && ctest --output-on-failure -j "$JOBS")

run_plans_tier

run_oracle_tier

run_shard_tier

run_feature_tier

run_ha_tier

run_dynamic_tier

run_jit_tier

run_asan_tier

echo "== TSan: configure + build (GS_SANITIZE=thread) =="
cmake -B build-tsan -S . -DGS_SANITIZE=thread >/dev/null
cmake --build build-tsan -j "$JOBS" \
  --target test_pipeline test_serving test_serving_soak test_device

echo "== TSan: threaded suites (pass-boundary verification on) =="
export GS_VERIFY_PASSES=1
./build-tsan/tests/test_pipeline
./build-tsan/tests/test_serving
./build-tsan/tests/test_serving_soak
./build-tsan/tests/test_device --gtest_filter='Allocator.*'
unset GS_VERIFY_PASSES

run_chaos_tier

echo "check.sh: all green"
