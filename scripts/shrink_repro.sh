#!/bin/sh
# Delta-minimises a failing scenario repro bundle with the shrink_tool
# example (see validate/shrink.hpp for the ddmin algorithm and
# experiments/repro.hpp for the bundle format).
#
# Usage: scripts/shrink_repro.sh <bundle> [<out>] [<max-tests>]
#   bundle    — repro file written by a validated run (the runner writes it
#               to RunConfig.validate.repro_path on the first violation)
#   out       — minimised bundle path (default: <bundle>.min)
#   max-tests — replay budget for the shrinker (default 2000)
#
# Builds an up-to-date tree first (validation hooks ON) so the replayed
# scenario runs the same code that recorded the bundle.
set -eu

repo="$(cd "$(dirname "$0")/.." && pwd)"

if [ $# -lt 1 ]; then
  echo "usage: scripts/shrink_repro.sh <bundle> [<out>] [<max-tests>]" >&2
  exit 2
fi
bundle="$1"
out="${2:-$bundle.min}"
max_tests="${3:-2000}"

# Its own build directory: run_validation.sh builds build-validate with
# tests on, and a shared cache would carry one script's options into the other.
build_dir="$repo/build-shrink"
cmake -S "$repo" -B "$build_dir" -DCMAKE_BUILD_TYPE=Release \
  -DEASCHED_BUILD_TESTS=OFF -DEASCHED_BUILD_BENCH=OFF \
  >/dev/null
cmake --build "$build_dir" --target shrink_tool -j"$(nproc)" >/dev/null

"$build_dir/examples/shrink_tool" \
  --bundle="$bundle" --out="$out" --max-tests="$max_tests"
