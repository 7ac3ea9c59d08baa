#!/usr/bin/env python3
"""Record the payload digest of every item the generators can emit.

    python3 perfbench/record.py

Runs each item of each workload's universe once and writes expected.json,
which run.py compares every payload against.  Refuses to record an item
that fails or contradicts a known answer.  Rerun it only when the
benchmark's items change, never to make a changed payload pass.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    cli = harness.load_cli(HERE.parent)
    digests, bad = {}, []
    for name in workloads.WORKLOADS:
        items = workloads.universe(name)
        for i, item in enumerate(items):
            outcome = harness.run_item(cli, item)
            problem = outcome.error or harness.semantic_problem(
                item.kind, outcome.results())
            if problem:
                bad.append(f"{item.key}: {problem}")
            else:
                digests[item.key] = harness.payload_digest(outcome.results())
            print(f"{name} {i + 1}/{len(items)} {outcome.seconds:.3f}s "
                  f"{problem or 'ok'}", file=sys.stderr, flush=True)
    if bad:
        print("\n".join(bad), file=sys.stderr)
        return 1
    with open(harness.EXPECTED_PATH, "w") as fh:
        json.dump({"about": "sha256 prefix of the canonical JSON of each "
                            "item's results payload; written by record.py",
                   "digests": dict(sorted(digests.items()))}, fh, indent=0)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
