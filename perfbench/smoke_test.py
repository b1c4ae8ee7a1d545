#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 perfbench/smoke_test.py

Runs every workload through run.py at --scale tiny for one second:
untraced twice and traced once. run.py fails any run whose metrics
are not exactly the names and units BENCHMARK.json lists for its
mode, so every passing run has printed each named metric with its
unit. This test checks that each run is correct with at least one
cell attempted and none failed, and that the two untraced runs agree
exactly on the simulated outputs (the sim_digest line and sim_score).
Exits 0 when every check passes.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(workload, trace):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace), "--scale", "tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace}: exit "
                             f"{proc.returncode}\n{proc.stderr[-2000:]}")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    digest = next(l.split()[1] for l in lines if l.startswith("sim_digest"))
    return result, digest


def check_result(workload, trace, result):
    where = f"{workload} trace={trace}"
    assert result["correct"] is True, f"{where}: not correct"
    assert result["attempted"] >= 1 and result["failed"] == 0, where


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = 0
    for w in (w["name"] for w in spec["workloads"]):
        try:
            first, d1 = run(w, 0)
            second, d2 = run(w, 0)
            traced, _ = run(w, 1)
            for trace, res in ((0, first), (0, second), (1, traced)):
                check_result(w, trace, res)
            assert d1 == d2, f"{w}: sim_digest {d1} != {d2}"
            s1 = first["metrics"]["sim_score"]["value"]
            s2 = second["metrics"]["sim_score"]["value"]
            assert s1 == s2, f"{w}: sim_score {s1} != {s2}"
            print(f"PASS {w}: sim_digest {d1}, sim_score {s1}")
        except (AssertionError, KeyError, StopIteration, ValueError,
                subprocess.TimeoutExpired) as e:
            failures += 1
            print(f"FAIL {w}: {e}")
    print("smoke test", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
