"""The measuring loops of one benchmark run.

The importer must put the program's ``src`` directory on ``sys.path``
first (``workflow`` imports jpdkit).
"""

from __future__ import annotations

import gc
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import workflow as wf
from spans import Tracer, self_time, total

HERE = Path(__file__).resolve().parent
# the fresh-interpreter probes of an untraced run, in the order they run:
# five set-up probes and one peak-memory probe per command (simulate
# before reconstruct, which reads its frames)
PROBES = ("setup", "simulate", "setup", "setup", "reconstruct", "setup",
          "setup")
MIN_CYCLES = 3
PROBE_TIMEOUT_S = 150


class Ledger:
    """Operations attempted and failed in one run, with the reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def op(self, what: str, error: str | None) -> bool:
        self.attempted += 1
        if error:
            self.failures.append(f"{what}: {error}")
        return error is None

    def cycle(self, label: str, cycle, reference: dict | None) -> bool:
        """Count a CLI cycle's commands.  A command whose checked artifacts
        differ from *reference* (digests by artifact key) fails."""
        bad = {}
        if reference is not None:
            for key, digest in cycle.digests.items():
                if reference.get(key) != digest:
                    bad.setdefault(wf.command_of(key), []).append(key)
        ok = True
        for c in cycle.commands:
            error = c.error or (f"digests differ from the reference: "
                                f"{bad[c.command]}" if c.command in bad else None)
            ok &= self.op(f"{label} {c.command}", error)
        return ok and len(cycle.commands) == 3

    @property
    def failed(self) -> int:
        return len(self.failures)


def probe(args: list[str]) -> tuple[dict | None, str | None]:
    """Run perfbench/probe.py in a fresh interpreter; (result, error)."""
    try:
        proc = subprocess.run([sys.executable, str(HERE / "probe.py"), *args],
                              capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, "probe timed out"
    if proc.returncode != 0:
        return None, f"probe exit {proc.returncode}: {proc.stderr[-300:]}"
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1]), None
    except (IndexError, json.JSONDecodeError):
        return None, f"probe printed no result: {proc.stdout[-300:]}"


def untraced(wl, seed, deadline, program, work, expect, ledger):
    """Timed CLI cycles of one seed, with the set-up and memory probes
    spread evenly over the run between them.  The machine's speed drifts
    over tens of seconds, so every metric samples the whole run rather
    than one stretch of it."""
    src = str(program / "src")
    samples = {"setup_s": [], "simulate_fps": [], "reconstruct_fps": [],
               "end_to_end_s": [], "simulate_peak_rss_mb": [],
               "reconstruct_peak_rss_mb": []}
    config_args = [str(program / wl.config), *wl.overrides, f"rng.seed={seed}"]
    # peak memory: each command alone in its own interpreter; the outputs
    # are checked, and compared with the in-process cycles at the end
    out = work / "probe"
    argvs = dict(zip(wf.COMMANDS, wf.cli_argvs(wl, seed, program, out)))
    checks = {"simulate": wf.check_simulate,
              "reconstruct": wf.check_reconstruct}
    memory = []
    probe_digests: dict[str, str] = {}

    def run_probe(kind: str, index: int) -> None:
        if kind == "setup":
            result, error = probe(["setup", src, *config_args])
            if ledger.op(f"setup probe {index}", error):
                samples["setup_s"].append(result["setup_s"])
            return
        result, error = probe(["cli", src, *argvs[kind]])
        if error is None and result["rc"] != 0:
            error = f"exit code {result['rc']}"
        memory.append((kind, result,
                       error or checks[kind](out, expect, probe_digests)))

    start = perf_counter()
    due = [start + (deadline - start) * (i + 0.5) / len(PROBES)
           for i in range(len(PROBES))]
    reference = None
    cycles, last, probed = 0, 0.0, 0
    while probed < len(PROBES) or cycles < MIN_CYCLES \
            or perf_counter() + last < deadline:
        no_time = cycles >= MIN_CYCLES and perf_counter() + last >= deadline
        if probed < len(PROBES) and (perf_counter() >= due[probed] or no_time):
            run_probe(PROBES[probed], probed)
            probed += 1
            continue
        t0 = perf_counter()
        gc.collect()
        cycle = wf.run_cli_cycle(wl, seed, program, work / "cycle", expect)
        if reference is None and not cycle.failures:
            reference = cycle.digests
        if ledger.cycle(f"cycle {cycles}", cycle, reference):
            n = expect.frames
            samples["simulate_fps"].append(n / cycle.seconds("simulate"))
            samples["reconstruct_fps"].append(n / cycle.seconds("reconstruct"))
            samples["end_to_end_s"].append(
                sum(c.seconds for c in cycle.commands))
        cycles += 1
        last = perf_counter() - t0

    for command, result, error in memory:
        if error is None and reference is not None and any(
                reference.get(k) != v for k, v in probe_digests.items()
                if wf.command_of(k) == command):
            error = "digests differ from the in-process run"
        if ledger.op(f"memory probe {command}", error):
            samples[f"{command}_peak_rss_mb"].append(result["peak_rss_mb"])
    return samples, reference


def layer_row(sp, counts: dict, nproc: int) -> dict:
    """Per-layer metrics of one traced cycle from its spans."""
    partial = total(sp, "jpd.accumulate_partial")
    one_s = total(sp, "jpd.accumulate_1w")
    many_s = total(sp, "jpd.accumulate_nproc")
    return {
        "scenes.build_s": total(sp, "scenes.build"),
        "config.load_s": total(sp, "config.load"),
        "config.manifest_s": total(sp, "config.manifest"),
        "simulate.frames_s": total(sp, "simulate.frames"),
        "simulate.render_s": total(sp, "simulate.render"),
        "simulate.events_bin_s": self_time(sp, "simulate.frames"),
        "frames.write_s": total(sp, "frames.write"),
        "frames.read_s": total(sp, "frames.read"),
        "jpd.accumulate_partial_s": partial,
        "jpd.merge_s": total(sp, "jpd.merge"),
        "jpd.finalize_s": total(sp, "jpd.finalize"),
        "jpd.band_kernel_gflop_per_s":
            counts["jpd.band_kernel_flops"] / partial / 1e9,
        "jpd.accumulate_1w_s": one_s,
        "jpd.accumulate_nproc_s": many_s,
        "jpd.scaling_eff": one_s / (nproc * many_s),
        "jpd.separation_policy_s": total(sp, "jpd.separation_policy"),
        "jpd.snapshot_write_s": total(sp, "jpd.snapshot_write"),
        "pipeline.interpolate_s": total(sp, "pipeline.interpolate"),
        "pipeline.filter_s": total(sp, "pipeline.filter"),
        "pipeline.normalize_s": total(sp, "pipeline.normalize"),
        "pipeline.super_resolve_s": total(sp, "pipeline.super_resolve"),
        "images.write_pgm_s": total(sp, "images.write_pgm"),
        "analysis.spectrum_s": total(sp, "analysis.spectrum"),
        "workflow_s": total(sp, "workflow"),
    }


def traced_cycle(tr, wl, seed, program, work, expect, ledger, nproc,
                 reference: dict) -> tuple[dict, dict] | None:
    """One traced replay plus the worker-scaling calls; returns its
    (layer row, counts), or None if it failed."""
    out = work / "traced"
    try:
        result = wf.run_traced_cycle(tr, wl, seed, program, out)
    except Exception as exc:
        ledger.op(f"{tr.run} traced workflow", f"{type(exc).__name__}: {exc}")
        return None
    digests: dict[str, str] = {}
    error = None
    for check in (wf.check_simulate, wf.check_reconstruct, wf.check_spectrum):
        error = error or check(out, expect, digests)
    if error is None and digests != reference:
        error = "traced artifacts differ from the CLI's: " + str(sorted(
            k for k in reference if digests.get(k) != reference[k]))
    traced_ok = ledger.op(f"{tr.run} traced workflow", error)

    with tr.span("jpd.scaling"):
        one, many = wf.scaling_run(tr, result.frames, result.mode,
                                   result.band_radius, result.chunk, nproc)
    scaling_ok = ledger.op(
        f"{tr.run} accumulate_jpd at 1 and {nproc} workers",
        None if one == many == result.raw_planes else
        "result depends on the worker count or on the chunk composition")
    if not (traced_ok and scaling_ok):
        return None
    return layer_row(tr.of_run(tr.run), result.counts, nproc), result.counts


def traced(wl, seed, deadline, program, work, expect, ledger, nproc,
           spans_path):
    """CLI cycles alternating with traced replays of the same seed."""
    tr = Tracer()
    samples: dict[str, list] = {}
    e2e = []
    counts = None
    reference = None
    cycles, last = 0, 0.0
    while cycles < 2 or perf_counter() + last < deadline:
        t0 = perf_counter()
        gc.collect()
        cycle = wf.run_cli_cycle(wl, seed, program, work / "cycle", expect)
        if reference is None and not cycle.failures:
            reference = cycle.digests
        if ledger.cycle(f"cycle {cycles}", cycle, reference):
            e2e.append(sum(c.seconds for c in cycle.commands))
        if reference is not None:
            gc.collect()
            tr.run = f"{wl.name}-seed{seed}-cycle{cycles}"
            got = traced_cycle(tr, wl, seed, program, work, expect, ledger,
                               nproc, reference)
            if got is not None:
                row, cycle_counts = got
                if counts is None:
                    counts = cycle_counts
                elif counts != cycle_counts:
                    ledger.op(f"{tr.run} counts", "counts differ between "
                              "cycles of one seed")
                for name, value in row.items():
                    samples.setdefault(name, []).append(value)
        cycles += 1
        last = perf_counter() - t0

    tr.dump(spans_path)
    workflow_s = samples.pop("workflow_s", [])
    if counts is None or not e2e or not workflow_s:
        return samples, reference
    for name, value in counts.items():
        samples[name] = [value]
    samples["trace.overhead_s"] = [
        statistics.median(workflow_s) - statistics.median(e2e)]
    samples["ops_failed_ratio"] = [ledger.failed / ledger.attempted]
    return samples, reference


def measure(wl, seed: int, deadline: float, trace: bool, program: Path,
            work: Path, spans_path: Path, nproc: int):
    """Warm up on the committed seed, checked against the recorded
    digests, then measure *seed* until *deadline*.  Returns the samples
    by metric name, the ledger and the frame-stack digests by seed."""
    expected = json.loads((HERE / "expected_digests.json").read_text())
    expect = wf.expectation(wl, program)
    ledger = Ledger()
    golden = wf.run_cli_cycle(wl, wl.golden_seed, program, work / "golden",
                              expect)
    ledger.cycle(f"golden seed {wl.golden_seed}", golden,
                 expected.get(wl.name, {}))
    if trace:
        samples, reference = traced(wl, seed, deadline, program, work,
                                    expect, ledger, nproc, spans_path)
    else:
        samples, reference = untraced(wl, seed, deadline, program, work,
                                      expect, ledger)
    stacks = {str(wl.golden_seed): golden.digests.get("sim/frames.bpsr"),
              str(seed): (reference or {}).get("sim/frames.bpsr")}
    return samples, ledger, stacks
