#!/usr/bin/env python3
"""Compare two checkouts on one perfbench workload with alternating runs.

    python3 scripts/perf_pairs.py --base DIR --change DIR --workload W \\
        [--pairs N] [--seconds S] [--seed N] [--aligned]

Runs `python3 perfbench/run.py --workload W --seed N --seconds S --trace 0`
from each checkout, alternating between them (the order flips every pair so
neither side always runs first). Each checkout builds into its own
CARGO_TARGET_DIR; one untimed warm-up run per checkout builds it first.
perfbench configures a build directory only once, so the directory is keyed
on the CXXFLAGS environment variable: `<checkout>/.bench_build` when it is
unset or empty, `<checkout>/.bench_build-<8 hex digits of its SHA-256>`
otherwise. Setting, say, CXXFLAGS="-falign-functions=64 -falign-loops=64"
therefore builds both checkouts afresh with that code alignment.
`--aligned` runs a second series after the first, with CXXFLAGS set to
"-falign-functions=64 -falign-loops=64", and prints its table after the
first series' table: code layout alone moves some workloads by about 10 %,
and fixed alignment on both sides removes most of that. For every
end-to-end metric that the change's BENCHMARK.json lists, each table gives
the base's and the change's median [q1, q3] and how many pairs the change
won (strictly better, in the metric's direction).

Exits 1 when any run fails: a nonzero exit, no JSON result,
`"correct": false` or a failed job. Python standard library only.
"""
import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys


ALIGN_FLAGS = "-falign-functions=64 -falign-loops=64"


def build_dir(checkout, flags):
    if not flags:
        return os.path.join(checkout, ".bench_build")
    digest = hashlib.sha256(flags.encode()).hexdigest()[:8]
    return os.path.join(checkout, f".bench_build-{digest}")


def run_once(checkout, args, flags):
    env = dict(os.environ)
    env["CARGO_TARGET_DIR"] = build_dir(checkout, flags)
    env["CXXFLAGS"] = flags
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, env=env, stdout=subprocess.PIPE,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout}: exit {proc.returncode}, no result")
    result = json.loads(lines[-1])
    if not result.get("correct") or result.get("failed", 1) != 0:
        raise RuntimeError(f"{checkout}: correct={result.get('correct')} "
                           f"failed={result.get('failed')}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def run_series(base, change, args, flags):
    """Alternating pairs of runs built with `flags`: {checkout: [metrics]}."""
    runs = {base: [], change: []}
    for checkout in (base, change):  # warm-up: builds the checkout
        run_once(checkout, args, flags)
    for i in range(args.pairs):
        order = (base, change) if i % 2 == 0 else (change, base)
        for checkout in order:
            runs[checkout].append(run_once(checkout, args, flags))
        print(f"pair {i + 1}/{args.pairs} done ({flags or 'default'})",
              file=sys.stderr)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return med, q1, q3


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=4)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--aligned", action="store_true",
                        help=f"also run a series built with {ALIGN_FLAGS}")
    args = parser.parse_args()
    base = os.path.abspath(args.base)
    change = os.path.abspath(args.change)

    with open(os.path.join(change, "BENCHMARK.json")) as f:
        end_to_end = json.load(f)["end_to_end"]

    series = [os.environ.get("CXXFLAGS", "")]
    if args.aligned and series[0] != ALIGN_FLAGS:
        series.append(ALIGN_FLAGS)
    tables = []
    try:
        for flags in series:
            tables.append((flags, run_series(base, change, args, flags)))
    except (RuntimeError, ValueError, KeyError, OSError) as err:
        print(f"perf_pairs: {err}", file=sys.stderr)
        return 1

    for flags, runs in tables:
        print(f"{args.workload}, seed {args.seed}, --seconds {args.seconds}, "
              f"{args.pairs} pairs, CXXFLAGS {flags or '(unset)'}: "
              f"base -> change, median [q1, q3]")
        for metric in end_to_end:
            name = metric["name"]
            b = [r[name] for r in runs[base] if name in r]
            c = [r[name] for r in runs[change] if name in r]
            if len(b) != args.pairs or len(c) != args.pairs:
                continue
            lower = metric["better"] == "lower"
            wins = sum((y < x) if lower else (y > x) for x, y in zip(b, c))
            bm, bq1, bq3 = quartiles(b)
            cm, cq1, cq3 = quartiles(c)
            print(f"  {name:18s} {bm:.6g} [{bq1:.6g}, {bq3:.6g}] -> "
                  f"{cm:.6g} [{cq1:.6g}, {cq3:.6g}] {metric['unit']}, "
                  f"change wins {wins}/{args.pairs}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
