#!/usr/bin/env bash
# Tier-1 verification plus the tiers in the TIERS table below.
#
# Usage: tools/check.sh [--fast | plans | oracle | shard | feature | ha | dynamic | asan | chaos]
#
#   (default)  configure + build + full ctest in ./build, then every tier in
#              table order except chaos, then a -DGS_SANITIZE=thread build
#              in ./build-tsan running the threaded suites (pipeline,
#              serving, device accounting, fault ladder) with pass-boundary
#              verification (GS_VERIFY_PASSES=1), then the chaos tier.
#   --fast     tier-1 only, restricted to `ctest -L fast` (skips the
#              soak/chaos tests, every tier, and the TSan pass).
#   <tier>     that one tier only.
#
# A tier runs up to four steps, in this order:
#   1. `ctest -L <label>` in ./build, after building the label's tests and
#      fuzz_passes;
#   2. the listed suites from a sanitizer build (thread -> ./build-tsan,
#      address,undefined -> ./build-asan);
#   3. a fixed-seed `fuzz_passes <args>` sweep; everything is seeded, so a
#      failure is a deterministic reproducer, printed as a --repro line;
#   4. an extra step, named by a shell function.
#
# What each tier checks:
#   plans    every Table-2 algorithm compiles, serializes, reloads and
#            re-samples bit-identically from the restored artifact
#            (gsampler_cli --verify-plan); the artifacts stay in
#            build/plans/ for a later --load-plan run.
#   oracle   optimized plan vs the eager reference for every algorithm plus
#            the primitive distribution tests, then a 200-draw pass fuzz.
#   shard    partitioner goldens, the sharded-vs-single bit-identity oracle
#            and sharded serving; ShardGroup's four threads under TSan; a
#            fuzz differencing 2-shard against single-device sampling.
#   feature  hot-set cache semantics and the gather bit-identity oracle;
#            concurrent tenants sharing one cache under TSan; a fuzz
#            differencing cached gathers against the eager per-node lookup.
#   ha       failover bit-identity, degraded coverage, health state-machine
#            goldens and recovery re-admission; concurrent failover under
#            TSan; a fuzz with one shard permanently dead and 2 replicas.
#   dynamic  versioned snapshots, plan judgment and replanning, the
#            snapshot-equivalence oracle and the live mutation soak; the
#            soak under TSan; a fuzz requiring every maintained epoch to
#            sample like a from-scratch reload.
#   asan     sessions and pinned snapshots dropped while executions may hold
#            them (serving, dynamic, plan, soak), the fused kernels, the
#            oracle, and the failover, degraded and retry paths (ha, shard,
#            chaos soak), under ASan + UBSan.
#   chaos    the gs::fault suites (test_fault + the chaos soak) under TSan.
#
# Exits non-zero on the first failing step.

set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || echo 4)"
USAGE="usage: tools/check.sh [--fast | plans | oracle | shard | feature | ha | dynamic | asan | chaos]"

# name    | ctest label | sanitizer         | sanitizer suites                  | fuzz_passes args                   | extra step
TIERS=(
  "plans   |             |                   |                                   |                                    | plans_roundtrip"
  "oracle  | oracle      |                   |                                   | --seeds 200                        |"
  "shard   | shard       | thread            | test_shard                        | --seeds 100 --shards 2             |"
  "feature | feature     | thread            | test_feature                      | --seeds 100 --features             |"
  "ha      | ha          | thread            | test_ha                           | --seeds 60 --shards 2 --kill-shard |"
  "dynamic | dynamic     | thread            | test_dyn                          | --seeds 100 --mutate               |"
  "asan    |             | address,undefined | test_serving test_dyn test_plan test_serving_soak test_fused test_oracle test_ha test_shard test_fault_soak | |"
  "chaos   |             | thread            | test_fault test_fault_soak        |                                    |"
)

trim() { local s="$1"; s="${s#"${s%%[![:space:]]*}"}"; echo "${s%"${s##*[![:space:]]}"}"; }

sanitizer_dir() {
  case "$1" in
    thread) echo build-tsan ;;
    *) echo build-asan ;;
  esac
}

plans_roundtrip() {
  cmake --build build -j "$JOBS" --target gsampler_cli
  mkdir -p build/plans
  local algorithms
  algorithms="$(./build/tools/gsampler_cli --list | sed -n 's/^algorithms: //p')"
  for alg in $algorithms; do
    ./build/tools/gsampler_cli --algorithm "$alg" --dataset PD --scale 0.1 \
      --verify-plan --save-plan "build/plans/$alg.plan"
  done
}

run_tier() {
  local row name label sanitizer suites fuzz extra
  for row in "${TIERS[@]}"; do
    IFS='|' read -r name label sanitizer suites fuzz extra <<<"$row"
    [[ "$(trim "$name")" == "$1" ]] && break
    name=""
  done
  [[ -n "$name" ]] || { echo "unknown flag: $1 ($USAGE)" >&2; exit 2; }
  label="$(trim "$label")" sanitizer="$(trim "$sanitizer")" suites="$(trim "$suites")"
  fuzz="$(trim "$fuzz")" extra="$(trim "$extra")"

  if [[ -n "$label" || -n "$fuzz" || -n "$extra" ]]; then
    cmake -B build -S . >/dev/null
  fi
  if [[ -n "$label" || -n "$fuzz" ]]; then
    local targets=()
    [[ -z "$label" ]] || mapfile -t targets < <(
      cd build && ctest -N -L "$label" | sed -n 's/^ *Test *#[0-9]*: //p')
    [[ -z "$fuzz" ]] || targets+=(fuzz_passes)
    echo "== $1: build ${targets[*]} =="
    cmake --build build -j "$JOBS" --target "${targets[@]}"
  fi
  if [[ -n "$label" ]]; then
    echo "== $1: ctest -L $label =="
    (cd build && ctest -L "$label" --output-on-failure -j "$JOBS")
  fi
  if [[ -n "$sanitizer" ]]; then
    local dir suite
    dir="$(sanitizer_dir "$sanitizer")"
    echo "== $1: $suites under GS_SANITIZE=$sanitizer =="
    cmake -B "$dir" -S . -DGS_SANITIZE="$sanitizer" >/dev/null
    cmake --build "$dir" -j "$JOBS" --target $suites
    for suite in $suites; do
      "./$dir/tests/$suite"
    done
  fi
  if [[ -n "$fuzz" ]]; then
    echo "== $1: fuzz_passes $fuzz =="
    ./build/tools/fuzz_passes $fuzz
  fi
  if [[ -n "$extra" ]]; then
    echo "== $1: $extra =="
    "$extra"
  fi
  echo "check.sh: $1 tier green"
}

case "${1:-}" in
  "" | --fast) ;;
  *)
    run_tier "${1#--}"
    exit 0
    ;;
esac

echo "== tier-1: configure + build =="
cmake -B build -S . >/dev/null
cmake --build build -j "$JOBS"

if [[ "${1:-}" == --fast ]]; then
  echo "== tier-1: ctest -L fast =="
  (cd build && ctest -L fast --output-on-failure -j "$JOBS")
  exit 0
fi

echo "== tier-1: full ctest =="
(cd build && ctest --output-on-failure -j "$JOBS")

for tier in plans oracle shard feature ha dynamic asan; do
  run_tier "$tier"
done

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

run_tier chaos

echo "check.sh: all green"
