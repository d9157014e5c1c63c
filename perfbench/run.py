#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --pin

Builds perfbench/bench.exe from source with dune inside the checkout that
holds this file, then runs it with the given arguments from the checkout
root. Build output goes to stderr; the benchmark's last line on stdout is
its JSON result. Exits non-zero without a result when the build fails.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    # keep dune's shared cache inside the checkout, and off
    env = dict(os.environ, DUNE_CACHE="disabled",
               XDG_CACHE_HOME=os.path.join(ROOT, "_build", ".cache"))
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "./perfbench/bench.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
    return subprocess.run([exe] + sys.argv[1:], cwd=ROOT,
                          preexec_fn=pin_to_one_cpu).returncode


def pin_to_one_cpu():
    """Keep the benchmark on one CPU: migrating between CPUs of a small
    shared host makes repetitions of identical work differ by 10-20%."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


if __name__ == "__main__":
    sys.exit(main())
