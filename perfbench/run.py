#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1] [--scale full|tiny]

Run it from the repository root. The first run configures and builds
the benchmark binary (a Release build of perfbench/CMakeLists.txt,
which compiles the simulator from src/) under .bench_build/; later
runs only re-check the build. --seconds defaults to BENCHMARK.json's
run_seconds; the binary validates the option values. Its output is
passed through; the last line is the JSON result. Before printing it,
this script checks that the reported metric names and units are
exactly the ones BENCHMARK.json lists for the run's mode.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(bench_dir, build_dir):
    """Configure (once) and build the benchmark; returns the binary."""
    build_dir.mkdir(parents=True, exist_ok=True)
    log = build_dir / "build.log"
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(bench_dir), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs])
    with open(log, "a") as out:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                                    timeout=850).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                fail(f"build step {cmd[:2]} failed: {e}")
            if rc != 0:
                out.flush()
                tail = log.read_text(errors="replace").splitlines()[-20:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed (exit {rc}); full log in {log}")
    binary = build_dir / "perfbench"
    if not binary.exists():
        fail(f"build produced no binary at {binary}")
    return binary


def check_metrics(result, spec, trace):
    """The result's metrics must be exactly BENCHMARK.json's list."""
    expected = {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        units = sorted(k for k in set(got) & set(expected)
                       if got[k] != expected[k])
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, "
             f"extra {extra}, unit mismatch {units}")


def main():
    bench_dir = Path(__file__).resolve().parent
    root = bench_dir.parent
    spec_path = root / "BENCHMARK.json"
    try:
        spec = json.loads(spec_path.read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read {spec_path}: {e}")

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", default="7")
    ap.add_argument("--seconds", default=str(spec["run_seconds"]))
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--scale", choices=["full", "tiny"], default="full")
    args = ap.parse_args()

    build_dir = root / ".bench_build" / "perfbench"
    binary = build(bench_dir, build_dir)

    cmd = [str(binary), "--workload", args.workload, "--seed", args.seed,
           "--seconds", args.seconds, "--trace", str(args.trace),
           "--scale", args.scale]
    if args.trace:
        spans = root / ".bench_build" / "spans"
        spans.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans",
                str(spans / f"{args.workload}-seed{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        if lines:
            print("\n".join(lines[:-1]))
        fail(f"benchmark exited with {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        print("\n".join(lines))
        fail("last output line is not JSON")
    check_metrics(result, spec, args.trace)
    print("\n".join(lines))


if __name__ == "__main__":
    main()
