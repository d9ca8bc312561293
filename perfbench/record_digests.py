#!/usr/bin/env python3
"""Record the artifact digests of every workload at its committed seed.

    python3 perfbench/record_digests.py

Writes perfbench/expected_digests.json, which every benchmark run checks
its warm-up cycle against.  Re-record only when a change is meant to alter
the program's output bytes, and say so in that change.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import workflow as wf  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main() -> int:
    work = ROOT / ".perfbench_work" / "record"
    digests = {}
    try:
        for wl in WORKLOADS.values():
            cycle = wf.run_cli_cycle(wl, wl.golden_seed, ROOT, work,
                                     wf.expectation(wl, ROOT))
            if cycle.failures:
                print(f"{wl.name}: {cycle.failures}", file=sys.stderr)
                return 1
            digests[wl.name] = dict(sorted(cycle.digests.items()))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (HERE / "expected_digests.json").write_text(
        json.dumps(digests, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
