"""Running items through the program's CLI entry point, checking their
outputs, and turning timings into metrics.

Items run in this process through `heckezero.cli.main(argv)`, one after
another, with stdout and stderr captured.  Only the call is timed; outputs
are checked after the pass that produced them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from workloads import H_PLUS_ONE_YOKOI, Item

HERE = Path(__file__).resolve().parent
EXPECTED_PATH = HERE / "expected.json"

# The q <= 7, p <= 13 slice of `biro search`, as acceptance criterion 8
# pins it down: the conjugate quartic pair mod 5 at p = 5, nothing mod 3,
# and the three p = 7 pairs mod 7.  (chi, p, zeta_image)
SEARCH_SLICE = {("q=5;gens=2:1", 5, 2), ("q=5;gens=2:3", 5, 3),
                ("q=7;gens=3:1", 7, 3), ("q=7;gens=3:3", 7, 6),
                ("q=7;gens=3:5", 7, 5)}


class ProgramMissing(RuntimeError):
    pass


def load_cli(root: Path):
    """Import heckezero.cli from the checkout's own src/ and nowhere else."""
    src = root / "src"
    if not (src / "heckezero" / "cli.py").is_file():
        raise ProgramMissing(f"no heckezero sources under {src}")
    sys.path.insert(0, str(src))
    import heckezero.cli as cli
    if Path(cli.__file__).resolve().parent != (src / "heckezero").resolve():
        raise ProgramMissing(f"heckezero was imported from {cli.__file__}")
    return cli


@dataclass
class Outcome:
    item: Item
    seconds: float
    code: int | None
    stdout: str
    error: str = ""

    def results(self):
        return json.loads(self.stdout)["results"]

    def results_or_none(self):
        try:
            return self.results()
        except (ValueError, KeyError):
            return None


def run_item(cli, item: Item) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    code, error = None, ""
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = cli.main(list(item.argv))
        except SystemExit as exc:  # argparse rejects a bad argv this way
            code = exc.code
        except Exception as exc:  # a crash is a failed item, not a stop
            error = f"raised {type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
    if code not in (0, None):
        error = f"exit {code!r}: {err.getvalue().strip()[:200]}"
    return Outcome(item, dt, code, out.getvalue(), error)


def run_pass(cli, items: list[Item], between=None
             ) -> tuple[float, list[Outcome]]:
    """The wall time of the items and their outcomes.  `between`, if given,
    is called after every item, outside the timed region."""
    wall, outcomes = 0.0, []
    for it in items:
        t0 = time.perf_counter()
        outcomes.append(run_item(cli, it))
        wall += time.perf_counter() - t0
        if between is not None:
            between()
    return wall, outcomes


# ------------------------------------------------------------------ checks

def payload_digest(results) -> str:
    text = json.dumps(results, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def load_expected() -> dict[str, str]:
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)["digests"]


def semantic_problem(kind: str, results) -> str:
    """What is wrong with a payload by the known answers, or ""."""
    if kind == "oracle" and results.get("equal") is not True:
        return "factorization oracle returned equal = false"
    if kind == "linearity" and not all(results["verdicts"].values()):
        return f"linearity verdicts {results['verdicts']}"
    if kind == "search":
        got = {(p["chi"], p["p"], p["zeta_image"]) for p in results["pairs"]
               if p["q"] <= 7 and p["p"] <= 13}
        if got != SEARCH_SLICE:
            return f"q <= 7, p <= 13 pairs {sorted(got)}"
    if kind == "residues":
        for rep in results["reports"]:
            for n in H_PLUS_ONE_YOKOI:
                if n % rep["q"] != rep["r"]:
                    continue
                if rep["status"] == "vacuous" or (
                        rep["status"] == "determined"
                        and rep["residue"] != n % rep["p"]):
                    return (f"{rep['status']} report q={rep['q']} "
                            f"p={rep['p']} r={rep['r']} excludes the "
                            f"h = 1 member n = {n}")
    return ""


def check(outcome: Outcome, expected: dict[str, str]) -> str:
    """Why an outcome is wrong, or "" when it is right."""
    if outcome.error:
        return outcome.error
    try:
        results = outcome.results()
    except (ValueError, KeyError) as exc:
        return f"unreadable output: {exc}"
    problem = semantic_problem(outcome.item.kind, results)
    if problem:
        return problem
    want = expected.get(outcome.item.key)
    if want is None:
        return "no recorded payload for this item"
    if payload_digest(results) != want:
        return "payload differs from the recorded one"
    return ""


# ----------------------------------------------------------------- metrics

def quantile(values: list[float], frac: float) -> float:
    """Linear interpolation between order statistics."""
    xs = sorted(values)
    pos = frac * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_fraction(min_samples: int) -> float:
    """The highest quantile with at least ten samples above it when only
    the guaranteed minimum number of samples is there; the median when
    there are too few for that."""
    if min_samples <= 21:
        return 0.5
    return (min_samples - 11) / (min_samples - 1)


SETUP_CODE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t0 = time.perf_counter()\n"
    "import heckezero.cli\n"
    "print(time.perf_counter() - t0)\n")


class SetupSampler:
    """Seconds to import heckezero.cli in fresh interpreters.

    One warm-up import first, so a bytecode cache written on first use is
    not timed, then `first` samples at once.  After that `maybe()` takes
    one more whenever `every` seconds have gone by since the last, so the
    samples spread over the whole run rather than one moment of it."""

    def __init__(self, root: Path, first: int, every: float):
        self.root = root
        self.every = every
        self.samples: list[float] = []
        self._import()
        for _ in range(first):
            self.samples.append(self._import())
        self.last = time.perf_counter()

    def _import(self) -> float:
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(self.root / "src")],
            cwd=self.root, capture_output=True, text=True, timeout=120,
            check=True)
        return float(proc.stdout.strip())

    def maybe(self) -> None:
        if time.perf_counter() - self.last >= self.every:
            self.samples.append(self._import())
            self.last = time.perf_counter()
