#!/usr/bin/env python3
"""Compare a parent and a change commit with this benchmark.

    python3 perfbench/compare.py run --parent-root P --change-root C \\
        --out DIR [--workload W ...] [--pairs 10] [--seconds S] [--trace 0]
    python3 perfbench/compare.py report DIR

``run`` measures both checkouts with this benchmark's code in alternating
pairs (the parent goes first in even pairs, the change in odd ones; both
sides of a pair use the same seed) and saves one record per run in DIR.
``report`` pairs the records up and prints, per workload, each side's
failed and attempted operations and, per metric, each side's median and
quartiles, the share of pairs the change won and a verdict (see
stats.compare_pairs).  Every metric of a workload reads "not comparable"
when a change run was incorrect or failed more operations than the
parent run of its pair.
"""

from __future__ import annotations

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import stats  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SEED_BASE = 1000  # pair i of every workload uses seed SEED_BASE + i
_RECORD = re.compile(r"(parent|change)-(.+)-trace([01])-(\d+)\.json")


def run(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    sides = {"parent": args.parent_root, "change": args.change_root}
    for wl in args.workload or sorted(WORKLOADS):
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                record = out / f"{side}-{wl}-trace{args.trace}-{i:03d}.json"
                proc = subprocess.run(
                    [sys.executable, str(HERE / "run.py"), "--workload", wl,
                     "--seed", str(SEED_BASE + i),
                     "--seconds", str(args.seconds),
                     "--trace", str(args.trace),
                     "--program-root", sides[side], "--record", str(record)],
                    capture_output=True, text=True)
                if proc.returncode != 0:
                    status = (f"exit {proc.returncode}: "
                              f"{proc.stderr.strip()[-200:]}")
                else:
                    result = json.loads(record.read_text())["result"]
                    status = "ok" if result["correct"] else (
                        f"INCORRECT, {result['failed']} of "
                        f"{result['attempted']} ops failed")
                print(f"{wl} pair {i} {side}: {status}", flush=True)
    return report(out)


def report(out: Path) -> int:
    records: dict[tuple, dict] = {}
    for path in sorted(Path(out).glob("*.json")):
        m = _RECORD.fullmatch(path.name)
        if m:
            side, wl, trace, i = m.groups()
            records[(side, wl, int(trace), int(i))] = json.loads(
                path.read_text())
    groups = sorted({(wl, trace) for _, wl, trace, _ in records})
    if not groups:
        print(f"no records in {out}", file=sys.stderr)
        return 1
    for wl, trace in groups:
        pairs = sorted(i for s, w, t, i in records
                       if (s, w, t) == ("parent", wl, trace)
                       and ("change", wl, trace, i) in records)
        print(f"\n{wl} (trace {trace}), {len(pairs)} pairs")
        results = {s: [records[(s, wl, trace, i)]["result"] for i in pairs]
                   for s in ("parent", "change")}
        for s, rs in results.items():
            print(f"  {s}: {sum(r['failed'] for r in rs)} of "
                  f"{sum(r['attempted'] for r in rs)} ops failed, "
                  f"{sum(not r['correct'] for r in rs)} incorrect runs")
        # a change that fails more often is never faster, whatever it times
        comparable = all(c["correct"] and c["failed"] <= p["failed"]
                         for p, c in zip(results["parent"],
                                         results["change"]))
        print(f"  {'metric':<28} {'parent q1/median/q3':>36} "
              f"{'change q1/median/q3':>36}  won  {'verdict':<14} pooled tail")
        declared = SPEC["per_layer" if trace else "end_to_end"]
        for metric in declared:
            name = metric["name"]
            side = {s: [records[(s, wl, trace, i)]["result"]["metrics"]
                        .get(name, {}).get("value") for i in pairs]
                    for s in ("parent", "change")}
            if len(pairs) < 2 or None in side["parent"] + side["change"]:
                print(f"  {name:<28} too few complete pairs")
                continue
            verdict = stats.compare_pairs(side["parent"], side["change"],
                                          metric["better"],
                                          metric.get("bound"))
            if not comparable:
                verdict["verdict"] = "not comparable"
            tails = []
            for s in ("parent", "change"):
                pooled = [v for i in pairs for v in
                          records[(s, wl, trace, i)]["samples"].get(name, [])]
                summary = stats.summarize(pooled, metric["better"])
                tails.append("-" if summary["tail"] is None else
                             f"p{summary['tail_level']}={summary['tail']:.4g}"
                             f" (n={summary['n']})")
            parent, change = ("/".join(f"{v:.4g}" for v in verdict[s])
                              for s in ("parent", "change"))
            print(f"  {name:<28} {parent:>36} {change:>36} "
                  f"{verdict['won']:>4.0%}  {verdict['verdict']:<14} "
                  f"{' vs '.join(tails)} {metric['unit']}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run", help="measure both checkouts in pairs")
    r.add_argument("--parent-root", required=True)
    r.add_argument("--change-root", required=True)
    r.add_argument("--out", required=True, help="directory for the records")
    r.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    r.add_argument("--pairs", type=int, default=10)
    r.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    r.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p = sub.add_parser("report", help="report saved records")
    p.add_argument("out")
    args = parser.parse_args(argv)
    return run(args) if args.cmd == "run" else report(Path(args.out))


if __name__ == "__main__":
    sys.exit(main())
