#!/usr/bin/env python3
"""jpdkit benchmark: the README workflow, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

--trace 0 times the CLI commands (simulate -> reconstruct -> spectrum) in
this process, set-up in fresh interpreters and peak memory in child
processes, and reports the end-to-end metrics of BENCHMARK.json.
--trace 1 replays the workflow from the modules' public functions with a
span around each call and reports the per-layer metrics.  Every command's
output is checked; the last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
from pathlib import Path
from time import perf_counter

START = perf_counter()

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS")

sys.path.insert(0, str(HERE))
import stats  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def cap_threads(nproc: int) -> dict[str, str]:
    """Cap BLAS/OpenMP pools at nproc (before numpy loads; children
    inherit the environment)."""
    for var in THREAD_VARS:
        try:
            ok = 1 <= int(os.environ[var]) <= nproc
        except (KeyError, ValueError):
            ok = False
        if not ok:
            os.environ[var] = str(nproc)
    return {var: os.environ[var] for var in THREAD_VARS}


def git_sha(root: Path) -> str | None:
    """HEAD of the program's checkout, read without running git; None when
    the checkout is not a git repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(program: Path, nproc: int, threads: dict) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 2.0 has no dict mode
        blas = None
    return {"git_sha": git_sha(program), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": blas, "thread_env": threads, "nproc": nproc,
            "machine": platform.machine()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--program-root", default=str(ROOT),
                        help="checkout whose src/ and configs/ are measured "
                             "(default: the one holding this benchmark)")
    parser.add_argument("--record", help="where to write the full record "
                        "(default: .perfbench_work/results/)")
    args = parser.parse_args(argv)

    program = Path(args.program_root).resolve()
    src = program / "src"
    if not (src / "jpdkit" / "__init__.py").is_file():
        print(f"error: no jpdkit sources under {src}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]

    nproc = len(os.sched_getaffinity(0))
    threads = cap_threads(nproc)
    sys.path.insert(0, str(src))
    import jpdkit
    import measure

    if Path(jpdkit.__file__).resolve().parent != src / "jpdkit":
        print(f"error: imported jpdkit from {jpdkit.__file__}", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    tag = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    work = WORK / f"{tag}-{os.getpid()}"
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    try:
        # the whole run, warm-up and probes included, fits in --seconds
        samples, ledger, stacks = measure.measure(
            wl, args.seed, START + args.seconds, bool(args.trace), program,
            work, results / f"{tag}-spans.jsonl", nproc)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics, summary = {}, {}
    missing = []
    for m in declared:
        values = samples.get(m["name"])
        if not values:
            missing.append(m["name"])
            continue
        summary[m["name"]] = stats.summarize(values, m["better"])
        metrics[m["name"]] = {"value": summary[m["name"]]["median"],
                              "unit": m["unit"]}
    line = {"correct": ledger.failed == 0 and not missing,
            "attempted": ledger.attempted, "failed": ledger.failed,
            "metrics": metrics}
    record = {"workload": wl.name, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds,
              "environment": environment(program, nproc, threads),
              "frame_stack_sha256": stacks, "samples": samples,
              "summary": summary, "failures": ledger.failures,
              "result": line}
    Path(args.record or results / f"{tag}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    print(f"perfbench {tag}: {ledger.attempted} ops, {ledger.failed} failed")
    for failure in ledger.failures:
        print(f"  FAILED {failure}")
    for m in declared:
        s = summary.get(m["name"])
        if s is None:
            print(f"  {m['name']:<28} no sample")
            continue
        tail = (f"p{s['tail_level']} {s['tail']:.6g}" if s["tail"] is not None
                else "tail: too few samples")
        print(f"  {m['name']:<28} {s['median']:>14.6g} {m['unit']:<8}"
              f" median of n={s['n']}, {tail}")
    if missing:
        print(f"error: no samples for {missing}", file=sys.stderr)
        return 1
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
