#!/usr/bin/env python3
"""Builds and runs the hetsep benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <table3|corpus-warm|serve-edit> \
        --seed <n> --seconds <s> --trace <0|1>

Builds `perfbench` (a package of its own that depends on the checkout's
crates by path) in release mode into `$CARGO_TARGET_DIR` (default
`.bench_build`), then runs it. The last line of standard output is the
result object. Exits non-zero without a result when the checkout's sources
are missing or the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    if not os.path.isfile(os.path.join(ROOT, "crates", "hetsep", "Cargo.toml")):
        sys.stderr.write("perfbench: no hetsep sources next to perfbench/\n")
        return 2
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    # Measure the shipped thread defaults, whatever the caller's shell sets.
    env.pop("HETSEP_THREADS", None)
    env.pop("HETSEP_INTRA_THREADS", None)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return build.returncode or 1
    binary = os.path.join(target, "release", "hetsep-perfbench")
    return subprocess.run([binary] + sys.argv[1:], cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
