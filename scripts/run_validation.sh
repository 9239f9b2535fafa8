#!/bin/sh
# Runs the invariant-checker validation matrix (see src/validate/ and
# docs/testing.md):
#
#   1. default build      — full test suite, then the validate-labelled
#                           tests again with run-time checking forced on
#                           for every experiment (EASCHED_VALIDATE=1)
#   2. perfbench          — the frozen end-to-end benchmark builds against
#                           the library, passes its self-test, and runs
#                           each workload twice with correct digests and no
#                           failed job: at seed 1, the seed digests.txt
#                           pins, and traced at the held-out seed 9001,
#                           where the incremental, reference and pool
#                           variants must agree (tier-1 never builds it)
#   3. AddressSanitizer + UndefinedBehaviorSanitizer, with bounds-checked
#                           standard containers (_GLIBCXX_ASSERTIONS) —
#                           validate + faults +
#                           resilience + telemetry + sched + obs + fleet +
#                           solver suites (sched: the power controller and
#                           driver read the Datacenter's maintained
#                           per-host node-class state; fleet: the score
#                           model's copy-on-touch plan rows and their
#                           restore, its incremental-vs-reference property
#                           suite and the fleet refresh's maintained host
#                           sets; solver: the penalty terms, the score
#                           model's evaluator and the solvers' indexing)
#   4. ThreadSanitizer    — validate + solver + resilience + fleet + sweep
#                           suites (sweep covers SweepRunner, the only
#                           library code that starts threads; the other
#                           suites stay as a wider net)
#
# Usage: scripts/run_validation.sh [fast]
#   fast — default build only (step 1); CI tier-1 runs this.
#
# Opt-in: EASCHED_BENCH_REGRESSION=1 appends a benchmark-regression step —
# a Release build of bench_fleet re-measures every committed (hosts, churn)
# row, and `trace_tool diff BENCH_fleet.json <fresh>` gates it under the
# per-metric bands the committed baseline carries (identical_decisions
# exactly, round times one-sided).
# Off by default: it is a wall-clock measurement and needs an idle machine.
set -eu

repo="$(cd "$(dirname "$0")/.." && pwd)"
fast="${1:-}"

build() {
  dir="$1"
  shift
  cmake -S "$repo" -B "$dir" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DEASCHED_BUILD_TESTS=ON -DEASCHED_BUILD_BENCH=OFF \
    -DEASCHED_BUILD_EXAMPLES=OFF "$@" >/dev/null
  cmake --build "$dir" -j"$(nproc)" >/dev/null
}

echo "== default build: full suite + validated experiments =="
build "$repo/build-validate"
ctest --test-dir "$repo/build-validate" --output-on-failure --no-tests=error \
  -j"$(nproc)"
EASCHED_VALIDATE=1 ctest --test-dir "$repo/build-validate" -L validate \
  --output-on-failure --no-tests=error -j"$(nproc)"

if [ "${EASCHED_BENCH_REGRESSION:-}" = "1" ]; then
  echo "== benchmark regression check (opt-in) =="
  cmake -S "$repo" -B "$repo/build-bench-check" -DCMAKE_BUILD_TYPE=Release \
    -DEASCHED_BUILD_TESTS=OFF -DEASCHED_BUILD_EXAMPLES=ON >/dev/null
  cmake --build "$repo/build-bench-check" --target bench_fleet trace_tool \
    -j"$(nproc)" >/dev/null
  # The committed sizes and round counts: every baseline key exists in the
  # fresh file (a missing key is a regression), and the measured rounds
  # are the same steady-state window — a shorter warm-up times an earlier,
  # different regime of the scenario.
  "$repo/build-bench-check/bench/bench_fleet" --json \
    > "$repo/build-bench-check/BENCH_fleet.json"
  "$repo/build-bench-check/examples/trace_tool" diff "$repo/BENCH_fleet.json" \
    "$repo/build-bench-check/BENCH_fleet.json"
fi

if [ "$fast" = "fast" ]; then
  echo "validation (fast) OK"
  exit 0
fi

echo "== perfbench: self-test + two runs per workload =="
# perfbench compiles against the library's API; run it from the repository
# root, as its runner expects, with its build kept under build-validate.
CARGO_TARGET_DIR="$repo/build-validate/perfbench-target"
export CARGO_TARGET_DIR
(cd "$repo" && python3 perfbench/run.py --self-test)
for workload in coldstart_2k chaos_2d paper_sweep; do
  for seed_trace in "1 0" "9001 1"; do
    set -- $seed_trace
    out="$(cd "$repo" && python3 perfbench/run.py --workload "$workload" \
      --seed "$1" --seconds 0.1 --trace "$2")"
    printf '%s\n' "$out" | python3 -c '
import json, sys
r = json.loads(sys.stdin.read().splitlines()[-1])
sys.exit(0 if r.get("correct") is True and r.get("failed") == 0 else 1)' || {
      echo "perfbench $workload --seed $1 --trace $2: not correct or a failed job"
      exit 1
    }
  done
done
unset CARGO_TARGET_DIR

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
