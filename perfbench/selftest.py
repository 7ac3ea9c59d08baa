#!/usr/bin/env python3
"""The benchmark's own checks.

    python3 perfbench/selftest.py

- the same seed gives an identical item list, another seed a different one;
- every item the generators emit has a recorded payload;
- the metric names run.py prints are the ones BENCHMARK.json declares;
- each workload runs correctly at its small size, untraced and traced;
- without the program's sources the benchmark fails without a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def check_generators(failures: list[str]) -> None:
    expected = harness.load_expected()
    for name in workloads.WORKLOADS:
        cycle = workloads.cycle_length(name)
        for small in (False, True):
            a = workloads.first_passes(name, 1, cycle, small)
            if a != workloads.first_passes(name, 1, cycle, small):
                failures.append(f"{name}: seed 1 gave two item lists")
            if workloads.digest(a) == workloads.digest(
                    workloads.first_passes(name, 2, cycle, small)):
                failures.append(f"{name}: seeds 1 and 2 gave one item list")
        for seed in range(5):
            for p in workloads.first_passes(name, seed, 2 * cycle):
                missing = [it.key for it in p if it.key not in expected]
                if missing:
                    failures.append(f"{name}: unrecorded item {missing[0]}")


def check_declared(failures: list[str]) -> None:
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    declared = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    if declared != dict(run.END_TO_END):
        failures.append(f"end_to_end {declared} != {dict(run.END_TO_END)}")
    declared = {m["name"]: m["unit"] for m in bench["per_layer"]}
    if declared != dict(tracing.metric_names()):
        failures.append("per_layer metrics differ from tracing.metric_names()")
    if [w["name"] for w in bench["workloads"]] != list(workloads.WORKLOADS):
        failures.append("workload names differ from workloads.WORKLOADS")


def check_small_runs(failures: list[str]) -> None:
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", "7", "--seconds", "0", "--trace", str(trace),
                 "--small"], cwd=ROOT, capture_output=True, text=True,
                timeout=300)
            label = f"{name} trace={trace}"
            if proc.returncode != 0:
                failures.append(f"{label}: exit {proc.returncode} "
                                f"{proc.stderr[-300:]}")
                continue
            result = json.loads(proc.stdout.rstrip("\n").split("\n")[-1])
            want = set(run.units(bool(trace)))
            if set(result["metrics"]) != want:
                failures.append(
                    f"{label}: metrics {sorted(result['metrics'])}")
            if not result["correct"] or result["failed"] or \
                    result["attempted"] < 1:
                failures.append(f"{label}: {result['failed']} of "
                                f"{result['attempted']} items failed")
            print(f"ok {label}: {result['attempted']} items", flush=True)


def check_bare_directory(failures: list[str]) -> None:
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, str(bare / HERE.name / "run.py"),
             "--workload", "lvalue", "--seed", "1", "--seconds", "1",
             "--trace", "0"], cwd=bare, capture_output=True, text=True,
            timeout=120)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        failures.append("without src/ the benchmark did not fail cleanly")


def main() -> int:
    failures: list[str] = []
    check_generators(failures)
    check_declared(failures)
    check_bare_directory(failures)
    check_small_runs(failures)
    for line in failures:
        print(f"FAIL {line}")
    print("selftest " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
