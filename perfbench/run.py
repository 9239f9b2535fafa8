#!/usr/bin/env python3
"""Build and run the easched end-to-end benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the repository root. The first call configures and builds the
library and the benchmark (Release) under $CARGO_TARGET_DIR, or
.bench_build when that is unset; later calls only check the build is up to
date. Build output goes to stderr, so the last line of stdout is the
benchmark's JSON result. --self-test builds and runs the benchmark's unit
tests instead. See perfbench/README.md.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(target):
    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "perfbench")
    if not any(os.path.exists(os.path.join(build_dir, f))
               for f in ("build.ninja", "Makefile")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target", target,
                    "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(build_dir, target)


def main(argv):
    try:
        if argv == ["--self-test"]:
            return subprocess.run([build("perfbench_tests")]).returncode
        binary = build("perfbench")
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1
    digests = os.path.join(HERE, "digests.txt")
    return subprocess.run([binary, *argv, "--digests", digests]).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
