#!/usr/bin/env python3
"""Build and run the plan-service benchmark from the root of a checkout.

    python3 perfbench/run.py --workload hot --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

Builds perfbench/bench.exe (and the libraries it links) with dune in the
`bench` profile under .bench_build/, then runs it with the given
arguments. The last line of stdout is the run's JSON result. Exits
non-zero without a result when the checkout has no source tree to build.
"""
import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe")


def main(argv):
    if not (os.path.isfile("dune-project") and os.path.isdir(os.path.join("lib", "serve"))):
        print("perfbench: no source tree here (run from the repository root)", file=sys.stderr)
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = ["dune", "build", "--root", ".", "--profile", "bench", "--build-dir", BUILD_DIR,
             "./perfbench/bench.exe"]
    try:
        built = subprocess.run(build, env=env, stdout=sys.stderr).returncode == 0
    except OSError as e:
        print(f"perfbench: cannot run dune: {e}", file=sys.stderr)
        return 2
    if not built:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    args = ["selftest"] if argv == ["--selftest"] else argv
    sys.stdout.flush()
    return subprocess.run([EXE] + args).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
