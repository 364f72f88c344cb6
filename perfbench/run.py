#!/usr/bin/env python3
"""Build and run the iva-file end-to-end benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <table1-warm|disk-cold|post-and-search> \
        --seed <n> --seconds <s> --trace <0|1>

The benchmark is a Cargo package of its own (perfbench/Cargo.toml) with a
path dependency on the repository. It is built in release mode into
$CARGO_TARGET_DIR (default .bench_build), then run once. Build output and
progress go to stderr; the last line of stdout is the result object
{"correct", "attempted", "failed", "metrics"}. Any build or run failure
exits non-zero without printing a result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 175


def main():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("benchmark build failed", file=sys.stderr)
        return 1
    binary = os.path.join(target, "release", "iva-perfbench")
    work_dir = os.path.join(target, "perfbench-work")
    try:
        run = subprocess.run(
            [binary, *sys.argv[1:], "--work-dir", work_dir],
            env=env, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print("benchmark run timed out", file=sys.stderr)
        return 1
    if run.returncode != 0:
        print(f"benchmark run failed with code {run.returncode}", file=sys.stderr)
        return 1
    sys.stdout.write(run.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
