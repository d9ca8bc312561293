"""The README workflow (simulate -> reconstruct -> spectrum), run two ways.

``run_cli_cycle`` drives ``jpdkit.cli.main`` in-process, exactly as a user
would from the shell, and times each command.  ``run_traced_cycle`` performs
the same steps by calling each module's public functions directly, with a
span around every call, so the traced run can attribute time to layers.
Both write the same artifact files; ``check_*`` verify them.

The importer must put the program's ``src`` directory on ``sys.path``
before importing this module.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import functools
import shutil
import struct
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from jpdkit.analysis import spectrum_along_axis
from jpdkit.cli import main as cli_main
from jpdkit.config import (artifact_entry, build_camera, build_manifest,
                           build_scene, load_config, parse_config,
                           read_manifest, write_manifest)
from jpdkit.errors import FileFormatError
from jpdkit.frames import read_frames, write_frames
from jpdkit.images import GridImage, write_pgm16, write_spectrum_csv
from jpdkit.jpd import (accumulate_jpd, accumulate_partial,
                        apply_separation_policy, diagonal_image, finalize_jpd,
                        merge_partials, write_jpd_snapshot)
from jpdkit.pipeline import (filter_jpd, interpolate_invalid, normalize_jpd,
                             super_resolve)
from jpdkit.simulate import (camera_by_name, interference_rate, noon_density,
                             simulate_frames)

from spans import TimedCamera, Tracer
from workloads import Workload

COMMANDS = ("simulate", "reconstruct", "spectrum")


def command_of(artifact: str) -> str:
    """The command that wrote a digest key such as ``rec/jpd.bjpd``."""
    return {"sim": "simulate", "rec": "reconstruct"}.get(
        artifact.split("/")[0], "spectrum")


@dataclass
class Expect:
    """What a correct run of a workload must produce."""

    frames: int
    size: int
    mode: str
    camera: str
    band_radius: int
    fundamental: float | None


def expectation(wl: Workload, root: Path) -> Expect:
    config = load_config(root / wl.config, list(wl.overrides))
    return Expect(config.pairs["frames"], config.scene["size"],
                  config.pairs["mode"], config.camera["profile"],
                  config.processing["band_radius"], wl.fundamental)


def cli_argvs(wl: Workload, seed: int, root: Path, out: Path) -> list[list[str]]:
    sets = [a for o in (*wl.overrides, f"rng.seed={seed}") for a in ("--set", o)]
    sim, rec = out / "sim", out / "rec"
    return [
        ["simulate", "--config", str(root / wl.config), *sets, "--out", str(sim)],
        ["reconstruct", "--frames", str(sim / "frames.bpsr"),
         "--manifest", str(sim / "manifest.json"), "--out", str(rec)],
        ["spectrum", "--input", str(rec / "super_resolved.npy"),
         "--manifest", str(rec / "manifest.json"),
         "--out", str(out / "spectrum.csv")],
    ]


@dataclass
class CommandResult:
    command: str
    seconds: float
    error: str | None = None


@dataclass
class CycleResult:
    commands: list[CommandResult] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)

    @property
    def failures(self) -> list[str]:
        return [f"{c.command}: {c.error}" for c in self.commands if c.error]

    def seconds(self, command: str) -> float:
        return next(c.seconds for c in self.commands if c.command == command)


def run_cli(argv: list[str]) -> tuple[int, float, str]:
    """Run one CLI command in-process; returns (exit code, seconds, output)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        t0 = perf_counter()
        try:
            rc = cli_main(argv)
        except Exception:  # a raw traceback is a failed command
            rc = -1
            traceback.print_exc()
        elapsed = perf_counter() - t0
    return rc, elapsed, buf.getvalue()


def run_cli_cycle(wl: Workload, seed: int, root: Path, out: Path,
                  expect: Expect) -> CycleResult:
    """simulate, reconstruct and spectrum back to back, each checked after
    it ran (outside its timed region).  A failed command ends the cycle."""
    shutil.rmtree(out, ignore_errors=True)
    result = CycleResult()
    checks = (check_simulate, check_reconstruct, check_spectrum)
    for command, argv, check in zip(COMMANDS, cli_argvs(wl, seed, root, out),
                                    checks):
        rc, seconds, output = run_cli(argv)
        error = None
        if rc != 0:
            error = f"exit code {rc}: {output.strip()[-300:]}"
        else:
            error = check(out, expect, result.digests)
        result.commands.append(CommandResult(command, seconds, error))
        if error:
            break
    return result


# ---------------------------------------------------------------------------
# output checks; each returns None or a description of what is wrong and
# adds the digests it verified to *digests*

def _guarded(check):
    """Report a malformed or missing output file as a failed check."""
    @functools.wraps(check)
    def run(out: Path, expect: Expect, digests: dict) -> str | None:
        try:
            return check(out, expect, digests)
        except (OSError, ValueError, IndexError, struct.error) as exc:
            return f"unreadable output: {type(exc).__name__}: {exc}"
    return run


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _check_manifest(directory: Path, names: set[str],
                    digests: dict[str, str]) -> str | None:
    try:
        manifest = read_manifest(directory / "manifest.json")
    except FileFormatError as exc:
        return f"unreadable manifest: {exc}"
    artifacts = manifest.get("artifacts", {})
    if set(artifacts) != names:
        return f"manifest lists {sorted(artifacts)}, expected {sorted(names)}"
    for name, entry in artifacts.items():
        path = directory / name
        if not path.is_file():
            return f"{name} missing"
        data = path.read_bytes()
        if hashlib.sha256(data).hexdigest() != entry.get("sha256") \
                or len(data) != entry.get("bytes"):
            return f"{name} does not match its manifest digest"
        digests[f"{directory.name}/{name}"] = entry["sha256"]
    digests[f"{directory.name}/manifest.json"] = _sha256(
        directory / "manifest.json")
    return None


@_guarded
def check_simulate(out: Path, expect: Expect, digests: dict) -> str | None:
    sim = out / "sim"
    error = _check_manifest(sim, {"frames.bpsr"}, digests)
    if error:
        return error
    # header layout as documented in jpdkit.frames: magic, version, sample
    # code, width, height, count
    raw = (sim / "frames.bpsr").read_bytes()
    magic, version, code, width, height, count = struct.unpack_from(
        "<4sHHIII", raw, 0)
    want_code = 2 if expect.camera == "spad" else 0
    row = (width + 7) // 8 if code == 2 else width * 2
    if (magic, version, code) != (b"BPSR", 1, want_code):
        return f"frame header {(magic, version, code)} unexpected"
    if (count, height, width) != (expect.frames, expect.size, expect.size):
        return f"frame stack shape {(count, height, width)} unexpected"
    if len(raw) != 32 + count * height * row:
        return "frame stack size does not match its header"
    return None


@_guarded
def check_reconstruct(out: Path, expect: Expect, digests: dict) -> str | None:
    rec = out / "rec"
    names = {"jpd.bjpd", "super_resolved.npy", "super_resolved.pgm"}
    if expect.mode == "near":
        names |= {"native.npy", "native.pgm"}
    error = _check_manifest(rec, names, digests)
    if error:
        return error
    manifest = read_manifest(rec / "manifest.json")
    if (manifest.get("mode"), manifest.get("camera")) != (expect.mode,
                                                          expect.camera):
        return "reconstruct manifest has the wrong mode or camera"
    image = np.load(rec / "super_resolved.npy")
    side = 2 * expect.size - 1
    if image.shape != (side, side) or not np.all(np.isfinite(image)) \
            or not image.max() > 0:
        return f"super-resolved image {image.shape} is empty or not finite"
    header = (rec / "jpd.bjpd").read_bytes()[:32]
    magic, _, _, k, h, w, n_frames = struct.unpack_from("<4sHBBHHI", header)
    if (magic, k, h, w, n_frames) != (b"BJPD", expect.band_radius,
                                      expect.size, expect.size, expect.frames):
        return "JPD snapshot header does not describe the input stack"
    return None


@_guarded
def check_spectrum(out: Path, expect: Expect, digests: dict) -> str | None:
    path = out / "spectrum.csv"
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != ["frequency_cycles_per_pixel", "amplitude"]:
        return "spectrum header missing"
    data = np.array(rows[1:], dtype=np.float64)
    if len(data) != expect.size or not np.all(np.isfinite(data)) \
            or data[0, 1] != 1.0:
        return f"spectrum has {len(data)} rows or is not normalized"
    if expect.fundamental is not None:
        freqs, amps = data[:, 0], data[:, 1]
        peak = freqs[freqs > 0.05][np.argmax(amps[freqs > 0.05])]
        if abs(peak - expect.fundamental) > freqs[1]:
            return (f"strongest line at {peak:.3f} cycles/px, expected "
                    f"{expect.fundamental}")
    digests["spectrum.csv"] = _sha256(path)
    return None


# ---------------------------------------------------------------------------
# the traced workflow

def chunk_spans(n_frames: int, chunk_size: int) -> list[tuple[int, int]]:
    """The overlapping chunk spans accumulate_jpd uses."""
    return [(i, min(i + chunk_size + 1, n_frames))
            for i in range(0, n_frames - 1, chunk_size)]


@dataclass
class TracedResult:
    counts: dict[str, int]
    raw_planes: bytes  # accumulated JPD before the separation policy
    frames: np.ndarray
    mode: str
    band_radius: int
    chunk: int


def run_traced_cycle(tr: Tracer, wl: Workload, seed: int, root: Path,
                     out: Path) -> TracedResult:
    """The CLI workflow with no flags beyond --config/--set, replayed from
    the modules' public functions under spans.  Produces the same files."""
    shutil.rmtree(out, ignore_errors=True)
    sim, rec = out / "sim", out / "rec"
    sim.mkdir(parents=True)
    rec.mkdir()
    counts = {"config.bytes_hashed": 0}

    def manifest(directory: Path, names, command, **details):
        with tr.span("config.manifest"):
            artifacts = {}
            for name, pitch in names:
                artifacts[name] = artifact_entry(directory / name, pitch=pitch)
                counts["config.bytes_hashed"] += artifacts[name]["bytes"]
            write_manifest(directory / "manifest.json",
                           build_manifest(command, artifacts, **details))

    with tr.span("workflow"):
        with tr.span("simulate"):
            with tr.span("config.load"):
                config = load_config(root / wl.config,
                                     [*wl.overrides, f"rng.seed={seed}"])
            with tr.span("scenes.build"):
                scene = build_scene(config)
            camera = build_camera(config)
            pairs = config.pairs
            density, rate = None, pairs["rate"]
            if pairs["interference"] == "noon":
                density = noon_density(scene, pairs["shift"], pairs["contrast"])
                rate = interference_rate(rate, density, scene.near_density())
            with tr.span("simulate.frames"):
                frames = simulate_frames(
                    scene, pairs["mode"], pairs["sigma"], rate,
                    pairs["frames"], TimedCamera(camera, tr), config.seed,
                    density)
            with tr.span("frames.write"):
                write_frames(sim / "frames.bpsr", frames)
            manifest(sim, [("frames.bpsr", None)], "simulate",
                     config_text=config.text, seed=config.seed,
                     mode=pairs["mode"], camera=config.camera["profile"],
                     frame_shape=list(frames.shape))
            del frames

        with tr.span("reconstruct"):
            with tr.span("frames.read"):
                frames = read_frames(sim / "frames.bpsr")
            with tr.span("config.load"):
                sim_manifest = read_manifest(sim / "manifest.json")
                run_config = parse_config(sim_manifest["config"])
            profile, mode = sim_manifest["camera"], sim_manifest["mode"]
            if profile == "emccd" and run_config.camera["profile"] == "emccd":
                camera = build_camera(run_config)
            else:
                camera = camera_by_name(profile)
            proc = run_config.processing
            k, chunk = proc["band_radius"], proc["chunk"]
            if proc["workers"] not in (None, 1):
                raise ValueError("the traced replay composes the "
                                 "single-threaded accumulation only")

            with tr.span("jpd.accumulate"):
                parts = []
                for a, b in chunk_spans(frames.shape[0], chunk):
                    with tr.span("jpd.accumulate_partial"):
                        parts.append(accumulate_partial(frames[a:b], mode, k))
                with tr.span("jpd.merge"):
                    merged = merge_partials(parts)
                with tr.span("jpd.finalize"):
                    jpd = finalize_jpd(merged)
            raw_planes = jpd.planes.tobytes()
            counts["jpd.chunks"] = len(parts)
            del parts, merged
            valid0 = int(jpd.valid.sum())
            with tr.span("jpd.separation_policy"):
                jpd = apply_separation_policy(jpd, camera.invalid_pair_separation)
            counts["jpd.entries_invalidated"] = valid0 - int(jpd.valid.sum())
            valid1 = int(jpd.valid.sum())
            with tr.span("pipeline.interpolate"):
                if proc["interpolate"] and jpd.mode == "near":
                    jpd = interpolate_invalid(jpd)
                else:
                    jpd = jpd.with_invalid_excluded()
            counts["pipeline.entries_filled"] = int(jpd.valid.sum()) - valid1
            # the spans enclose the decision, so a skipped stage reads as
            # the (tiny) time it took to skip it
            with tr.span("pipeline.filter"):
                if proc["threshold"] is not None:
                    jpd = filter_jpd(jpd, proc["threshold"])
            counts["pipeline.active_planes"] = int(jpd.active.sum())
            with tr.span("pipeline.normalize"):
                if proc["normalize"]:
                    jpd = normalize_jpd(jpd)
            with tr.span("pipeline.super_resolve"):
                image = super_resolve(jpd)
            native = None
            if mode == "near" and jpd.active[k, k]:
                with tr.span("jpd.diagonal_image"):
                    native = diagonal_image(jpd)

            with tr.span("jpd.snapshot_write"):
                write_jpd_snapshot(rec / "jpd.bjpd", jpd)
            names = [("jpd.bjpd", None), ("super_resolved.npy", image.pitch),
                     ("super_resolved.pgm", None)]
            with tr.span("images.write_npy"):
                np.save(rec / "super_resolved.npy", image.values)
            with tr.span("images.write_pgm"):
                write_pgm16(rec / "super_resolved.pgm", image.values)
            if native is not None:
                with tr.span("images.write_npy"):
                    np.save(rec / "native.npy", native.values)
                with tr.span("images.write_pgm"):
                    write_pgm16(rec / "native.pgm", native.values)
                names += [("native.npy", native.pitch), ("native.pgm", None)]
            manifest(rec, names, "reconstruct", camera=camera.name, mode=mode,
                     source="frames.bpsr")

        with tr.span("spectrum"):
            values = np.load(rec / "super_resolved.npy")
            entry = read_manifest(rec / "manifest.json")["artifacts"][
                "super_resolved.npy"]
            with tr.span("analysis.spectrum"):
                freqs, amps = spectrum_along_axis(
                    GridImage(values, pitch=entry["pitch"]), axis=0,
                    window="hann")
            with tr.span("images.write_spectrum"):
                write_spectrum_csv(out / "spectrum.csv", freqs, amps)

    counts["frames.bytes"] = (sim / "frames.bpsr").stat().st_size
    counts["jpd.snapshot_bytes"] = (rec / "jpd.bjpd").stat().st_size
    counts.update(band_kernel_counts(frames.shape, k, counts["jpd.chunks"]))
    return TracedResult(counts, raw_planes, frames, mode, k, chunk)


def band_kernel_counts(shape, band_radius: int, chunks: int) -> dict[str, int]:
    """Work of the band kernel computed from the shapes (not measured).

    Per consecutive-frame term, plane (dy, dx) multiplies and adds over the
    (h - |dy|) x (w - |dx|) overlap: 2 flop per entry.  Bytes count the two
    float64 operands read per term and one read-modify-write of the output
    overlap per chunk, ignoring cache reuse.
    """
    n, h, w = shape
    ks = range(-band_radius, band_radius + 1)
    area = sum(max(0, h - abs(d)) for d in ks) * sum(max(0, w - abs(d))
                                                     for d in ks)
    terms = n - 1
    return {"jpd.band_kernel_flops": 2 * terms * area,
            "jpd.band_kernel_bytes": 8 * area * (2 * terms + 2 * chunks)}


def scaling_run(tr: Tracer, frames, mode: str, band_radius: int, chunk: int,
                nproc: int) -> tuple[bytes, bytes]:
    """accumulate_jpd with one thread (the baseline) and with nproc."""
    with tr.span("jpd.accumulate_1w"):
        one = accumulate_jpd(frames, mode, band_radius, chunk_size=chunk,
                             workers=1)
    with tr.span("jpd.accumulate_nproc"):
        many = accumulate_jpd(frames, mode, band_radius, chunk_size=chunk,
                              workers=nproc)
    return one.planes.tobytes(), many.planes.tobytes()
