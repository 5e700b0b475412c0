#!/usr/bin/env python3
"""Builds the benchmark from source and runs one measurement.

Usage (from the repository root):

    python3 webbench/run.py --workload <browse|cached_rw|static_small> \
        --seed <n> --seconds <n> --trace <0|1>

`--trace 0` runs the timed binary (end-to-end metrics); `--trace 1`
runs the traced binary (per-layer metrics) and writes its spans next to
the build output. Cargo's output goes to standard error, so the last
line of standard output is the benchmark's JSON result. The exit code
is the benchmark's: non-zero on a build failure or a correctness
violation.
"""

import os
import subprocess
import sys


def main():
    args = sys.argv[1:]
    here = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ)
    target = os.path.abspath(env.setdefault("CARGO_TARGET_DIR", ".bench_build"))
    env["CARGO_TARGET_DIR"] = target
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(here, "Cargo.toml")],
        env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        return build.returncode or 1
    flags = dict(zip(args[::2], args[1::2]))
    traced = flags.get("--trace") == "1"
    binary = os.path.join(target, "release", "webbench-traced" if traced else "webbench")
    if traced and "--spans" not in flags:
        # One file per workload: the latest traced run's spans.
        name = "spans-{}.tsv".format(flags.get("--workload"))
        args += ["--spans", os.path.join(target, name)]
    return subprocess.run([binary] + args).returncode


if __name__ == "__main__":
    sys.exit(main())
