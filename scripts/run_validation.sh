#!/bin/sh
# Runs the invariant-checker validation matrix (see src/validate/ and
# docs/testing.md):
#
#   1. default build      — full test suite, then the validate-labelled
#                           tests again with run-time checking forced on
#                           for every experiment (EASCHED_VALIDATE=1)
#   2. AddressSanitizer   — validate + faults + resilience + telemetry +
#                           sched suites (sched: the power controller and
#                           driver read the Datacenter's maintained
#                           per-host node-class state)
#   3. ThreadSanitizer    — validate + solver + resilience suites (the
#                           threaded solver and the ladder's thread-count
#                           determinism under the checker)
#   4. EASCHED_VALIDATE=OFF — compile-out check: the hook call sites must
#                           vanish and the validate suite must still pass
#                           (the checker itself is always built)
#   5. EASCHED_RESILIENCE=OFF — same compile-out check for the resilience
#                           control plane (tests drive the controller
#                           directly, so its suite must still pass)
#   6. EASCHED_TELEMETRY=OFF — same compile-out check for the live
#                           telemetry plane (ring/serialisation/alert-engine
#                           tests drive the classes directly and must still
#                           pass; the sampling end-to-end tests compile out)
#
# Usage: scripts/run_validation.sh [fast]
#   fast — default build only (step 1); CI tier-1 runs this.
#
# Opt-in: EASCHED_BENCH_REGRESSION=1 appends a benchmark-regression step —
# a Release build of bench_fleet generates a reduced BENCH_fleet.json and
# scripts/check_bench_regression.py diffs it (plus any other fresh
# BENCH_*.json found in the build dir) against the committed baselines.
# Off by default: it is a wall-clock measurement and needs an idle machine.
set -eu

repo="$(cd "$(dirname "$0")/.." && pwd)"
fast="${1:-}"

build() {
  dir="$1"
  shift
  cmake -S "$repo" -B "$dir" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DEASCHED_BUILD_BENCH=OFF -DEASCHED_BUILD_EXAMPLES=OFF "$@" >/dev/null
  cmake --build "$dir" -j"$(nproc)" >/dev/null
}

echo "== default build: full suite + validated experiments =="
build "$repo/build-validate"
ctest --test-dir "$repo/build-validate" --output-on-failure -j"$(nproc)"
EASCHED_VALIDATE=1 ctest --test-dir "$repo/build-validate" -L validate \
  --output-on-failure -j"$(nproc)"

if [ "${EASCHED_BENCH_REGRESSION:-}" = "1" ]; then
  echo "== benchmark regression check (opt-in) =="
  cmake -S "$repo" -B "$repo/build-bench-check" -DCMAKE_BUILD_TYPE=Release \
    -DEASCHED_BUILD_TESTS=OFF -DEASCHED_BUILD_EXAMPLES=OFF >/dev/null
  cmake --build "$repo/build-bench-check" --target bench_fleet \
    -j"$(nproc)" >/dev/null
  # Reduced sweep: the checker compares only the (hosts, churn) rows that
  # exist in both files, so fewer sizes/rounds still gate the overlap.
  "$repo/build-bench-check/bench/bench_fleet" --json \
    --hosts=1000,4000 --rounds=12 --warmup=4 \
    > "$repo/build-bench-check/BENCH_fleet.json"
  python3 "$repo/scripts/check_bench_regression.py" \
    --baseline-dir "$repo" --fresh-dir "$repo/build-bench-check"
fi

if [ "$fast" = "fast" ]; then
  echo "validation (fast) OK"
  exit 0
fi

echo "== address-sanitized build: validate + faults + resilience + telemetry + sched =="
build "$repo/build-validate-asan" -DEASCHED_SANITIZE=address
EASCHED_VALIDATE=1 ctest --test-dir "$repo/build-validate-asan" \
  -L "validate|faults|resilience|telemetry|sched" --output-on-failure \
  -j"$(nproc)"

echo "== thread-sanitized build: validate + solver + resilience + fleet =="
build "$repo/build-validate-tsan" -DEASCHED_SANITIZE=thread
EASCHED_VALIDATE=1 ctest --test-dir "$repo/build-validate-tsan" \
  -L "validate|solver|resilience|fleet" --output-on-failure -j"$(nproc)"

echo "== EASCHED_VALIDATE=OFF build: hooks compiled out =="
build "$repo/build-validate-off" -DEASCHED_VALIDATE=OFF
EASCHED_VALIDATE=1 ctest --test-dir "$repo/build-validate-off" -L validate \
  --output-on-failure -j"$(nproc)"

echo "== EASCHED_RESILIENCE=OFF build: control-plane hooks compiled out =="
build "$repo/build-resilience-off" -DEASCHED_RESILIENCE=OFF
ctest --test-dir "$repo/build-resilience-off" -L resilience \
  --output-on-failure -j"$(nproc)"

echo "== EASCHED_TELEMETRY=OFF build: sampling hooks compiled out =="
build "$repo/build-telemetry-off" -DEASCHED_TELEMETRY=OFF
ctest --test-dir "$repo/build-telemetry-off" -L telemetry \
  --output-on-failure -j"$(nproc)"

echo "validation matrix OK"
