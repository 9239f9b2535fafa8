#!/bin/sh
# Runs the invariant-checker validation matrix (see src/validate/ and
# docs/testing.md):
#
#   1. default build      — full test suite, then the validate-labelled
#                           tests again with run-time checking forced on
#                           for every experiment (EASCHED_VALIDATE=1)
#   2. AddressSanitizer + UndefinedBehaviorSanitizer — validate + faults +
#                           resilience + telemetry + sched + obs + fleet +
#                           solver suites (sched: the power controller and
#                           driver read the Datacenter's maintained
#                           per-host node-class state; fleet: the score
#                           model's recycled scratch buffers, persisted
#                           columns and the fleet refresh's maintained host
#                           sets; solver: the penalty terms, the score
#                           model's evaluator and the solvers' indexing)
#   3. ThreadSanitizer    — validate + solver + resilience + fleet + sweep
#                           suites (sweep covers SweepRunner, the only
#                           library code that starts threads; the other
#                           suites stay as a wider net)
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

echo "== address+UB-sanitized build: validate + faults + resilience + telemetry + sched + obs + fleet + solver =="
build "$repo/build-validate-asan" -DEASCHED_SANITIZE=address
EASCHED_VALIDATE=1 ctest --test-dir "$repo/build-validate-asan" \
  -L "validate|faults|resilience|telemetry|sched|obs|fleet|solver" \
  --output-on-failure -j"$(nproc)"

echo "== thread-sanitized build: validate + solver + resilience + fleet + sweep =="
build "$repo/build-validate-tsan" -DEASCHED_SANITIZE=thread
EASCHED_VALIDATE=1 ctest --test-dir "$repo/build-validate-tsan" \
  -L "validate|solver|resilience|fleet|sweep" --output-on-failure -j"$(nproc)"

echo "validation matrix OK"
