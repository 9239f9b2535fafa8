#!/bin/sh
# Regenerates the committed baselines from one Release build:
#
#   BENCH_fleet.json  — incremental-vs-reference scheduling-round times at
#                       fleet scale (bench_fleet --json; both variants run
#                       in the same binary and the action streams must
#                       match, so the speedups compare identical decisions)
#   BENCH_sim.json    — simulation-kernel benchmarks (bench_event_queue
#                       --json): the pooled event queue against the
#                       reference queue in one binary, the whole-run week
#                       and the sweep harness.
#   tests/data/run_summary_baseline.json — attribution baseline artifact:
#                       the quickstart run's energy/decision summary,
#                       diffed against each fresh run by the
#                       attribution_regression_gate ctest.
#
# The benches write their easched.baseline/1 documents themselves (see
# docs/run_summary_schema.md). Before a committed file is replaced, the
# fresh one is diffed against it with `trace_tool diff` — the BENCH files
# under the bands they carry, the run summary at a 5% threshold — so drift
# is surfaced here instead of silently baked into the baseline.
#
# Usage: scripts/refresh_bench.sh [fast] [fleet] [sim] [summary]
#   fast    — skip the whole-run week section of BENCH_sim.json; the
#             committed file should be produced WITHOUT fast.
#   fleet | sim | summary — refresh only the named baselines
#             (BENCH_fleet.json, BENCH_sim.json, the run summary); with no
#             name all three are refreshed. A change refreshes the files it
#             owns, so box noise is not baked into the others.
#
# Run on an otherwise idle machine; the context blocks record the thread
# count so numbers are interpretable later. bench_micro (google-benchmark)
# stays a developer tool and writes no committed baseline.
set -eu

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="$repo/build-bench"
week_flag=""
fleet=0
sim=0
summary=0
for arg in "$@"; do
  case "$arg" in
    fast) week_flag="--skip-week" ;;
    fleet) fleet=1 ;;
    sim) sim=1 ;;
    summary) summary=1 ;;
    *)
      echo "usage: scripts/refresh_bench.sh [fast] [fleet] [sim] [summary]" >&2
      exit 2
      ;;
  esac
done
if [ $((fleet + sim + summary)) -eq 0 ]; then
  fleet=1
  sim=1
  summary=1
fi

echo "== Release build =="
cmake -S "$repo" -B "$build" -DCMAKE_BUILD_TYPE=Release \
  -DEASCHED_BUILD_TESTS=OFF -DEASCHED_BUILD_EXAMPLES=ON >/dev/null
cmake --build "$build" \
  --target bench_fleet bench_event_queue quickstart trace_tool \
  -j"$(nproc)" >/dev/null

# replace <committed> <fresh> [trace_tool diff options]: shows the fresh
# file's deltas against the committed one, then moves it into place.
replace() {
  committed="$1"
  fresh="$2"
  shift 2
  if [ -f "$committed" ]; then
    echo "-- diff vs committed $(basename "$committed") --"
    if ! "$build/examples/trace_tool" diff "$committed" "$fresh" "$@"; then
      echo "NOTE: the deltas above are being baked into the new baseline."
    fi
  fi
  mv "$fresh" "$committed"
}

written=""
if [ "$fleet" = 1 ]; then
  echo "== BENCH_fleet.json (bench_fleet) =="
  # No google-benchmark dependency: the binary times its own rounds and
  # fails unless both variants emitted identical action streams.
  "$build/bench/bench_fleet" --json > "$build/BENCH_fleet.json"
  replace "$repo/BENCH_fleet.json" "$build/BENCH_fleet.json"
  written="$written $repo/BENCH_fleet.json"
fi

if [ "$sim" = 1 ]; then
  echo "== BENCH_sim.json (bench_event_queue) =="
  # shellcheck disable=SC2086
  "$build/bench/bench_event_queue" --json $week_flag > "$build/BENCH_sim.json"
  replace "$repo/BENCH_sim.json" "$build/BENCH_sim.json"
  written="$written $repo/BENCH_sim.json"
fi

if [ "$summary" = 1 ]; then
  echo "== run_summary_baseline.json (attribution artifact) =="
  "$build/examples/quickstart" --attribution \
    --summary-out="$build/run_summary.json" >/dev/null
  replace "$repo/tests/data/run_summary_baseline.json" \
    "$build/run_summary.json" --threshold=0.05
  written="$written $repo/tests/data/run_summary_baseline.json"
fi

echo "wrote$written"
