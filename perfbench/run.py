#!/usr/bin/env python3
"""Build ipcc and the benchmark harness from source, then run one workload.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <n> --trace <0|1>

Run from the repository root. Both binaries are built in release mode
into $CARGO_TARGET_DIR (default: .bench_build at the root); generated
programs and span files go to perfbench-work inside it. The harness
prints a table and, as its last line, the JSON result. `--workload all`
runs every workload of BENCHMARK.json in turn; `--seconds` defaults to
its `run_seconds`. The exit code is nonzero
when a build fails or any correctness check fails.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def build(target):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-p", "ipcp-cli"],
        ["cargo", "build", "--release", "--offline", "--manifest-path", "perfbench/Cargo.toml"],
    ):
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            sys.exit("run.py: build failed: " + " ".join(cmd))
    binaries = [os.path.join(target, "release", name) for name in ("ipcc", "perfbench")]
    for path in binaries:
        if not os.path.isfile(path):
            sys.exit("run.py: build produced no " + path)
    return binaries


def benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=102)
    parser.add_argument("--seconds", type=int, default=benchmark()["run_seconds"])
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()

    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    ipcc, harness = build(target)
    work = os.path.join(target, "perfbench-work")

    if args.workload == "all":
        workloads = [w["name"] for w in benchmark()["workloads"]]
    else:
        workloads = [args.workload]
    code = 0
    for workload in workloads:
        cmd = [
            harness,
            "--workload", workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", args.trace,
            "--ipcc", ipcc,
            "--work", work,
        ]
        code = max(code, subprocess.run(cmd, cwd=ROOT).returncode)
    sys.exit(code)


if __name__ == "__main__":
    main()
