#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the hecke-zero CLI.

    python3 perfbench/run.py --workload lvalue --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py): `lvalue`, `family`, `field-sweep`; `all` runs
the three one after another, each in its own process.  A run is a closed
loop with one client: it makes passes over seeded items, one item after
another through `heckezero.cli.main(argv)` in this process, until the timed
item calls add up to --seconds (and at least MIN_PASSES passes, set per
workload).

--trace 0 reports the end-to-end metrics: wall_s, item_p50_ms,
item_tail_ms, setup_s, peak_rss_mb, with error_rate alongside.  --trace 1
runs an even number of pairs of an untraced and a traced pass over the same
items, each order in half of them, and reports the per-layer metrics of
tracing.py, per traced pass, plus trace.overhead_s; a traced payload that
differs from the untraced one is a failed item.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  A full record of the run (environment,
passes, per-item sizes and latencies) goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

MIN_PAIRS = 2            # traced runs: both orders of plain and traced
SETUP_FIRST = 3          # fresh-interpreter imports timed before pass 1
SETUP_EVERY_S = 1.0      # then one after the first item past each interval
END_TO_END = (("wall_s", "s"), ("item_p50_ms", "ms"), ("item_tail_ms", "ms"),
              ("setup_s", "s"), ("peak_rss_mb", "MiB"))


# ------------------------------------------------------------- environment

def git_sha(root: Path) -> str | None:
    """HEAD of the checkout, or None outside a git work tree (git is kept
    from looking above the checkout)."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=30,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)})
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(root)).encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def package_version(name: str) -> str | None:
    try:
        return importlib.metadata.version(name)
    except importlib.metadata.PackageNotFoundError:
        return None


def environment(args) -> dict:
    kernels = sys.modules.get("heckezero.kernels")
    cycle = workloads.first_passes(args.workload, args.seed,
                                   workloads.cycle_length(args.workload),
                                   args.small)
    return {
        "git_sha": git_sha(ROOT),
        "source_sha256": source_digest(ROOT),
        "python": platform.python_version(),
        "numpy": package_version("numpy"),
        "nproc": os.cpu_count(),
        "have_compiled": getattr(kernels, "HAVE_COMPILED", None),
        "workload": args.workload,
        "seed": args.seed,
        "small": args.small,
        "items_per_pass": len(cycle[0]),
        "items_sha256": workloads.digest(cycle),
    }


# -------------------------------------------------------------------- runs

class Run:
    """Outcomes and failures of one run, kept as compact rows."""

    def __init__(self, cli, expected):
        self.cli = cli
        self.expected = expected
        self.rows: list[dict] = []
        self.failed = 0

    def record(self, pass_no: int, outcome, problem: str, mode: str) -> None:
        self.failed += bool(problem)
        self.rows.append({"pass": pass_no, "mode": mode,
                          "argv": outcome.item.key,
                          "ms": outcome.seconds * 1e3,
                          "size": outcome.item.size, "problem": problem})

    @property
    def attempted(self) -> int:
        return len(self.rows)

    def problems(self) -> list[str]:
        return [f"{r['argv']}: {r['problem']}" for r in self.rows
                if r["problem"]]


def keep_going(done: int, minimum: int, walls: list[float],
               seconds: float) -> bool:
    """Start another pass while at least `minimum` are not done, or while
    the measured time would end nearer `seconds` than stopping now."""
    if done < minimum:
        return True
    return sum(walls) + statistics.median(walls) / 2 < seconds


def plain_run(run: Run, gen, args) -> tuple[dict, dict]:
    setup = harness.SetupSampler(ROOT, SETUP_FIRST, SETUP_EVERY_S)
    walls: list[float] = []
    minimum = 1 if args.small else workloads.MIN_PASSES[args.workload]
    while keep_going(len(walls), minimum, walls, args.seconds):
        wall, outcomes = harness.run_pass(run.cli, next(gen), setup.maybe)
        for o in outcomes:
            run.record(len(walls), o, harness.check(o, run.expected), "plain")
        walls.append(wall)
    latencies = [r["ms"] for r in run.rows]
    frac = harness.tail_fraction(minimum * len(outcomes))
    metrics = {
        "wall_s": statistics.median(walls),
        "item_p50_ms": statistics.median(latencies),
        "item_tail_ms": harness.quantile(latencies, frac),
        # the least of about 30 imports: an import is a fixed amount of work
        # that other load on the machine only lengthens, and the median
        # followed that load from run to run three times as much
        "setup_s": min(setup.samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
    }
    detail = {"pass_walls_s": walls, "setup_samples_s": setup.samples,
              "tail_percentile": 100 * frac, "samples": len(latencies)}
    return metrics, detail


def traced_run(run: Run, gen, args) -> tuple[dict, dict]:
    tracer = tracing.Tracer()
    walls = {"plain": [], "traced": []}
    pair_walls: list[float] = []
    minimum = 1 if args.small else MIN_PAIRS
    # an even number of pairs, so plain and traced each go first as often
    while (len(pair_walls) % 2 and not args.small) or keep_going(
            len(pair_walls), minimum, pair_walls, args.seconds):
        items = next(gen)
        pair_no = len(pair_walls)
        modes = ("plain", "traced")
        if pair_no % 2:
            modes = modes[::-1]
        outcomes = {}
        for mode in modes:
            if mode == "traced":
                tracer.install()
            try:
                wall, outcomes[mode] = harness.run_pass(run.cli, items)
            finally:
                tracer.uninstall()
            walls[mode].append(wall)
        pair_walls.append(walls["plain"][-1] + walls["traced"][-1])
        for plain, traced in zip(outcomes["plain"], outcomes["traced"]):
            run.record(pair_no, plain, harness.check(plain, run.expected),
                       "plain")
            problem = harness.check(traced, run.expected)
            if not problem and traced.results() != plain.results_or_none():
                problem = "traced payload differs from the untraced one"
            run.record(pair_no, traced, problem, "traced")
    metrics = tracer.metrics(len(walls["traced"]))
    metrics["trace.overhead_s"] = (statistics.median(walls["traced"])
                                   - statistics.median(walls["plain"]))
    detail = {"pass_walls_s": walls, "not_found": sorted(tracer.missing)}
    return metrics, detail


# ---------------------------------------------------------------- reporting

def units(trace: bool) -> dict[str, str]:
    return dict(tracing.metric_names() if trace else END_TO_END)


def report(args, env, metrics, detail, run) -> dict:
    unit = units(args.trace)
    rate = run.failed / run.attempted if run.attempted else 1.0
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"items={run.attempted}")
    print("environment " + json.dumps(env, sort_keys=True))
    for name, value in metrics.items():
        note = ""
        if name == "item_tail_ms":
            note = (f"  p{detail['tail_percentile']:.1f} of "
                    f"{detail['samples']} items")
        print(f"  {name:<44} {value:>14.6g} {unit[name]}{note}")
    print(f"  {'error_rate':<44} {rate:>14.6g} ratio  "
          f"({run.failed} of {run.attempted} items failed)")
    for line in run.problems()[:10]:
        print(f"  FAILED {line}")
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / (f"{args.workload}-seed{args.seed}-trace{args.trace}"
                      f"{'-small' if args.small else ''}.json")
    with open(path, "w") as fh:
        json.dump({"environment": env, "metrics": metrics,
                   "error_rate": rate, "detail": detail, "items": run.rows},
                  fh, indent=1)
    print(f"record written to {path.relative_to(ROOT)}")
    return {"correct": run.failed == 0 and run.attempted > 0,
            "attempted": run.attempted, "failed": run.failed,
            "metrics": {name: {"value": value, "unit": unit[name]}
                        for name, value in metrics.items()}}


def run_all(args) -> int:
    """Each workload in its own process, so peak_rss_mb is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in workloads.WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.small:
            argv.append("--small")
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            status = proc.returncode
            continue
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    if status == 0:
        print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true",
                    help="the small size used by selftest.py")
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        cli = harness.load_cli(ROOT)
        expected = harness.load_expected()
    except (harness.ProgramMissing, OSError) as exc:
        print(f"perfbench: cannot run: {exc}", file=sys.stderr)
        return 2
    run = Run(cli, expected)
    gen = workloads.passes(args.workload, args.seed, args.small)
    measure = traced_run if args.trace else plain_run
    metrics, detail = measure(run, gen, args)
    result = report(args, environment(args), metrics, detail, run)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
