#!/usr/bin/env python3
"""Run the benchmark on every workload and print each run's metrics.

    python3 perfbench/suite.py [--seed N] [--seconds S] [--trace 0|1]

Exits non-zero if any run fails or reports incorrect output.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402


def main(argv=None) -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    status = 0
    for wl in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", wl,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]) if proc.returncode == 0 else proc.stdout)
        if proc.returncode != 0 or not json.loads(lines[-1])["correct"]:
            print(f"{wl}: exit {proc.returncode} {proc.stderr.strip()}")
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
