"""Command-line interface.

Three subcommands cover the standard workflow:

  simulate     INI config -> frame stack (frames.bpsr) + manifest.json
  reconstruct  frame stack -> jpd.bjpd, super_resolved / native images
  spectrum     image array -> fringe spectrum CSV

Every run directory gets a manifest with SHA-256 digests of its artifacts
and no volatile content, so identical inputs reproduce identical bytes.

Exit codes: 0 success, 2 configuration or usage error, 3 unreadable or
malformed file, 4 processing failure on valid inputs.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from ._version import __version__
from .analysis import spectrum_along_axis
from .config import (DEFAULTS, artifact_entry, build_camera, build_manifest,
                     build_scene, load_config, parse_config, read_manifest,
                     write_manifest)
from .errors import ConfigurationError, FileFormatError, ProcessingError
from .frames import read_frames, write_frames
from .images import GridImage, write_pgm16, write_spectrum_csv
from .jpd import write_jpd_snapshot
from .pipeline import reconstruct
from .simulate import (camera_by_name, interference_rate, noon_density,
                       simulate_frames)


_UNSET = object()


def _threshold_arg(raw: str):
    if raw.lower() == "none":
        return None
    try:
        value = float(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{raw!r} is not a number or 'none'") from None
    if not 0 <= value <= 1:
        raise argparse.ArgumentTypeError("threshold must lie in [0, 1]")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jpdkit",
        description="photon-pair frame simulation, JPD estimation and "
                    "super-resolved reconstruction")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="simulate a photon-pair frame stack")
    sim.add_argument("--config", required=True, help="INI run description")
    sim.add_argument("--set", action="append", default=[], metavar="SEC.KEY=VAL",
                     help="override a config setting (repeatable)")
    sim.add_argument("--out", required=True, help="output directory")
    sim.set_defaults(func=_cmd_simulate)

    rec = sub.add_parser("reconstruct",
                         help="estimate the JPD of a frame stack and project it")
    rec.add_argument("--frames", required=True, help="input frame stack (.bpsr)")
    rec.add_argument("--manifest",
                     help="manifest of the simulate run that produced the stack; "
                          "supplies camera, geometry and processing defaults")
    rec.add_argument("--camera", choices=("ideal", "emccd", "spad"),
                     help="camera profile (default: manifest, else guessed "
                          "from the frame dtype)")
    rec.add_argument("--mode", choices=("near", "far"),
                     help="imaging geometry (default: manifest, else near)")
    rec.add_argument("--band-radius", type=int)
    rec.add_argument("--threshold", type=_threshold_arg, default=_UNSET,
                     metavar="X|none",
                     help="plane filter threshold relative to the strongest "
                          "plane, or 'none' to keep all planes")
    rec.add_argument("--no-normalize", action="store_true", default=None,
                     help="skip per-plane normalization")
    rec.add_argument("--no-interpolate", action="store_true", default=None,
                     help="exclude invalid entries instead of interpolating")
    rec.add_argument("--chunk", type=int, help="frames per accumulation chunk")
    rec.add_argument("--workers", type=int, help="accumulation worker threads")
    rec.add_argument("--out", required=True, help="output directory")
    rec.set_defaults(func=_cmd_reconstruct)

    spec = sub.add_parser("spectrum", help="fringe spectrum of a saved image")
    spec.add_argument("--input", required=True, help="image array (.npy)")
    spec.add_argument("--manifest",
                      help="reconstruct manifest, supplies the grid pitch")
    spec.add_argument("--pitch", type=float,
                      help="sample spacing in camera pixels (default: "
                           "manifest entry for the input file, else 1)")
    spec.add_argument("--axis", type=int, choices=(0, 1), default=0,
                      help="fringe axis, 0 = y (default)")
    spec.add_argument("--window", choices=("hann", "none"), default="hann")
    spec.add_argument("--out", required=True, help="output CSV path")
    spec.set_defaults(func=_cmd_spectrum)
    return parser


def _out_dir(path: str) -> Path:
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_simulate(args) -> int:
    config = load_config(args.config, args.set)
    scene = build_scene(config)
    camera = build_camera(config)
    pairs = config.pairs
    density = None
    rate = pairs["rate"]
    if pairs["interference"] == "noon":
        density = noon_density(scene, pairs["shift"], pairs["contrast"])
        rate = interference_rate(rate, density, scene.near_density())
    frames = simulate_frames(scene, pairs["mode"], pairs["sigma"],
                             rate, pairs["frames"], camera,
                             config.seed, density)
    out = _out_dir(args.out)
    write_frames(out / "frames.bpsr", frames)
    manifest = build_manifest(
        "simulate",
        {"frames.bpsr": artifact_entry(out / "frames.bpsr")},
        config_text=config.text, seed=config.seed, mode=pairs["mode"],
        camera=config.camera["profile"], frame_shape=list(frames.shape))
    write_manifest(out / "manifest.json", manifest)
    print(f"wrote {frames.shape[0]} frames to {out / 'frames.bpsr'}")
    return 0


def _camera_for_frames(frames: np.ndarray) -> str:
    # without provenance, binary data can only come from the binary array;
    # for counts assume the conservative profile (its invalid set covers
    # the ideal one's)
    return "spad" if frames.dtype == np.bool_ else "emccd"


def _cmd_reconstruct(args) -> int:
    frames = read_frames(args.frames)
    manifest = read_manifest(args.manifest) if args.manifest else None
    run_config = None
    if manifest is not None and "config" in manifest:
        run_config = parse_config(manifest["config"])

    profile = args.camera
    if profile is None and manifest is not None:
        profile = manifest.get("camera")
    if profile is None:
        profile = _camera_for_frames(frames)
    if profile == "emccd" and run_config is not None \
            and run_config.camera["profile"] == "emccd":
        camera = build_camera(run_config)
    else:
        camera = camera_by_name(profile)

    mode = args.mode
    if mode is None and manifest is not None:
        mode = manifest.get("mode")
    mode = mode or "near"

    def processing(flag_value, key):
        if flag_value is not None:
            return flag_value
        if run_config is not None:
            return run_config.processing[key]
        return DEFAULTS["processing"][key]

    # --threshold none is an explicit choice, distinct from an absent flag
    threshold = args.threshold
    if threshold is _UNSET:
        threshold = processing(None, "threshold")
    workers = args.workers
    if workers is None and run_config is not None:
        workers = run_config.processing["workers"]

    result = reconstruct(
        frames, mode=mode, camera=camera,
        band_radius=processing(args.band_radius, "band_radius"),
        threshold=threshold,
        normalize=not args.no_normalize if args.no_normalize is not None
        else processing(None, "normalize"),
        interpolate=not args.no_interpolate if args.no_interpolate is not None
        else processing(None, "interpolate"),
        chunk_size=processing(args.chunk, "chunk"), workers=workers)

    out = _out_dir(args.out)
    write_jpd_snapshot(out / "jpd.bjpd", result.jpd)
    np.save(out / "super_resolved.npy", result.image.values)
    write_pgm16(out / "super_resolved.pgm", result.image.values)
    artifacts = {
        "jpd.bjpd": artifact_entry(out / "jpd.bjpd"),
        "super_resolved.npy": artifact_entry(out / "super_resolved.npy",
                                             pitch=result.image.pitch),
        "super_resolved.pgm": artifact_entry(out / "super_resolved.pgm"),
    }
    if result.native is not None:
        np.save(out / "native.npy", result.native.values)
        write_pgm16(out / "native.pgm", result.native.values)
        artifacts["native.npy"] = artifact_entry(out / "native.npy",
                                                 pitch=result.native.pitch)
        artifacts["native.pgm"] = artifact_entry(out / "native.pgm")
    payload = build_manifest("reconstruct", artifacts, camera=camera.name,
                             mode=mode, source=Path(args.frames).name)
    write_manifest(out / "manifest.json", payload)
    print(f"wrote {len(artifacts)} artifacts to {out}")
    return 0


def _cmd_spectrum(args) -> int:
    try:
        values = np.load(args.input)
    except ValueError as exc:
        raise FileFormatError(f"{args.input} is not a valid array file: {exc}") \
            from exc
    pitch = args.pitch
    if pitch is None and args.manifest:
        manifest = read_manifest(args.manifest)
        entry = manifest.get("artifacts", {}).get(Path(args.input).name, {})
        pitch = entry.get("pitch")
    freqs, amps = spectrum_along_axis(
        GridImage(values, pitch=pitch if pitch is not None else 1.0),
        axis=args.axis, window=args.window)
    write_spectrum_csv(args.out, freqs, amps)
    print(f"wrote {len(freqs)} spectral bins to {args.out}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (FileFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ProcessingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
