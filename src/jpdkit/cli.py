"""Command-line interface.

Three subcommands cover the standard workflow:

  simulate     INI config -> frame stack (frames.bpsr) + manifest.json
  reconstruct  frame stack -> jpd.bjpd, super_resolved / native images
  spectrum     image array -> fringe spectrum CSV

Every run directory gets a manifest with SHA-256 digests of its artifacts
and no volatile content, so identical inputs reproduce identical bytes.

Exit codes: 0 success, else the code :data:`jpdkit.errors.EXIT_CODES`
gives the error's category (2 configuration or usage error, 3 unreadable or
malformed file, 4 processing failure on valid inputs), after one ``error:``
line on stderr.
"""

from __future__ import annotations

import argparse
import shutil
import sys
from pathlib import Path

import numpy as np

from ._version import __version__
from .analysis import spectrum_along_axis
from .config import (_PARSERS, DEFAULTS, _float_range, artifact_entry,
                     build_camera, build_manifest, build_scene, cite,
                     load_config, parse_config, read_manifest, sized_by,
                     write_manifest)
from .errors import EXIT_CODES, ConfigurationError, FileFormatError
from .frames import (check_blocks, open_frames, stack_bytes,
                     write_frame_chunks)
from .images import GridImage, write_pgm16, write_spectrum_csv
from .jpd import MODES, write_jpd_snapshot
from .pipeline import reconstruct
from .simulate import (CAMERAS, camera_by_name, noon_acquisition,
                       simulate_chunks)


def _arg(parse):
    """argparse type from a config value parser: its ValueError, which
    names the allowed range or the bad value, becomes a usage error."""
    def convert(raw: str):
        try:
            return parse(raw)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return convert


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
                     help="manifest of the simulate run that produced the "
                          "stack (no other record is taken); its config "
                          "supplies camera, geometry and processing defaults")
    rec.add_argument("--camera", choices=tuple(CAMERAS),
                     help="camera profile (default: manifest, else guessed "
                          "from the frame dtype)")
    rec.add_argument("--mode", choices=MODES,
                     help="imaging geometry (default: manifest, else near)")
    # processing flags are absent from args unless given, so the manifest's
    # [processing] section (or the defaults) fills in the rest; a value flag
    # is checked by its setting's parser
    def processing(key, **kwargs):
        rec.add_argument("--" + key.replace("_", "-"), default=argparse.SUPPRESS,
                         type=_arg(_PARSERS["processing", key]), **kwargs)

    processing("band_radius")
    processing("threshold", metavar="X|none",
               help="plane filter threshold relative to the strongest "
                    "plane, or 'none' to keep all planes")
    rec.add_argument("--no-normalize", dest="normalize", action="store_false",
                     default=argparse.SUPPRESS,
                     help="skip per-plane normalization")
    rec.add_argument("--no-interpolate", dest="interpolate",
                     action="store_false", default=argparse.SUPPRESS,
                     help="exclude invalid entries instead of interpolating")
    processing("chunk", help="frames per accumulation chunk")
    processing("workers", metavar="N|none",
               help="accumulation worker threads, or 'none' for one")
    rec.add_argument("--out", required=True, help="output directory")
    rec.set_defaults(func=_cmd_reconstruct)

    spec = sub.add_parser("spectrum", help="fringe spectrum of a saved image")
    spec.add_argument("--input", required=True, help="image array (.npy)")
    spec.add_argument("--manifest",
                      help="manifest of the reconstruct run that wrote the "
                           "input (no other record is taken); supplies the "
                           "grid pitch")
    spec.add_argument("--pitch", type=_arg(_float_range(0.0, low_open=True)),
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


def _check_free_space(config, out: Path, size: int) -> None:
    """Refuse a frame stack larger than the free space where *out* goes."""
    # out may not exist yet; its nearest existing ancestor holds it
    where = next(p for p in (out, *out.parents) if p.exists())
    free = shutil.disk_usage(where).free
    if size > free:
        raise ConfigurationError(
            f"{cite(config, 'pairs.frames', 'scene.size')} make a {size}-byte "
            f"frames.bpsr, but {where} has {free} bytes free")


def _cmd_simulate(args) -> int:
    config = load_config(args.config, args.set)
    scene = build_scene(config)
    camera = build_camera(config)
    pairs = config.pairs
    density, rate = None, pairs["rate"]
    if pairs["interference"] == "noon":
        density, rate = noon_acquisition(scene, pairs["shift"],
                                         pairs["contrast"], rate)
        if rate == 0:
            raise ConfigurationError(
                f"{cite(config, 'pairs.shift', 'pairs.contrast')} leave the "
                "NOON acquisition no pair flux")
    with sized_by(cite(config, "pairs.rate", "pairs.frames")):
        # the first block is rendered and the file's size checked before
        # anything is written, so a run refused for memory or disk leaves
        # nothing behind
        stack = check_blocks(simulate_chunks(
            scene, pairs["mode"], pairs["sigma"], rate, pairs["frames"],
            camera, config.seed, density))
        shape = (pairs["frames"], *stack.shape[1:])
        _check_free_space(config, Path(args.out),
                          stack_bytes(shape, stack.dtype))
        out = _out_dir(args.out)
        write_frame_chunks(out / "frames.bpsr", stack.blocks)
    manifest = build_manifest(
        "simulate",
        {"frames.bpsr": artifact_entry(out / "frames.bpsr")},
        config_text=config.text, seed=config.seed, mode=pairs["mode"],
        camera=config.camera["profile"], frame_shape=list(shape))
    write_manifest(out / "manifest.json", manifest)
    print(f"wrote {shape[0]} frames to {out / 'frames.bpsr'}")
    return 0


def _cmd_reconstruct(args) -> int:
    # the settings come from the simulate record's config, else from the
    # defaults, and flags override them; they are resolved and --out checked
    # before the stack is opened, so a bad record or config fails at once;
    # the stack is then read chunk by chunk and never held whole
    mode, profile, settings = "near", None, DEFAULTS["processing"]
    if args.manifest:
        text = read_manifest(args.manifest, "simulate").get("config", "")
        try:
            # a line of the config string inside the JSON is no file line
            config = parse_config(text, cite_lines=False)
        except ConfigurationError as exc:
            raise ConfigurationError(f"{args.manifest}: {exc}") from exc
        mode, profile = config.pairs["mode"], config.camera["profile"]
        settings = config.processing
    mode = args.mode or mode
    settings = {key: getattr(args, key, value)
                for key, value in settings.items()}
    # --out may only hold an earlier reconstruct run's record
    if (Path(args.out) / "manifest.json").is_file():
        read_manifest(Path(args.out) / "manifest.json", "reconstruct")
    frames = open_frames(args.frames)
    # reconstruct reads only a profile's separation policy, which no camera
    # parameter changes, so the profile's name is all it needs.  Without a
    # record, binary frames can only come from the binary array, and counts
    # get the conservative profile (its invalid set covers the ideal one's)
    camera = camera_by_name(args.camera or profile or (
        "spad" if frames.dtype == np.bool_ else "emccd"))
    with sized_by("{1}x{2} frames, band_radius = {band_radius} and chunk = "
                  "{chunk}".format(*frames.shape, **settings)):
        result = reconstruct(frames, mode=mode, camera=camera,
                             chunk_size=settings.pop("chunk"), **settings)

    out = _out_dir(args.out)
    write_jpd_snapshot(out / "jpd.bjpd", result.jpd)
    artifacts = {"jpd.bjpd": artifact_entry(out / "jpd.bjpd")}
    for stem, image in (("super_resolved", result.image),
                        ("native", result.native)):
        if image is None:
            continue
        np.save(out / f"{stem}.npy", image.values)
        write_pgm16(out / f"{stem}.pgm", image.values)
        artifacts[f"{stem}.npy"] = artifact_entry(out / f"{stem}.npy",
                                                  pitch=image.pitch)
        artifacts[f"{stem}.pgm"] = artifact_entry(out / f"{stem}.pgm")
    payload = build_manifest("reconstruct", artifacts, camera=camera.name,
                             mode=mode, source=Path(args.frames).name)
    write_manifest(out / "manifest.json", payload)
    print(f"wrote {len(artifacts)} artifacts to {out}")
    return 0


def _cmd_spectrum(args) -> int:
    manifest = read_manifest(args.manifest, "reconstruct") if args.manifest else {}
    entry = manifest.get("artifacts", {}).get(Path(args.input).name, {})
    pitch = args.pitch or entry.get("pitch", 1.0)
    try:
        # mapped, not read: a header that claims more than the file holds,
        # or a size that overflows, is refused before anything is allocated
        with np.errstate(over="raise"):
            values = np.lib.format.open_memmap(args.input, mode="r")
    except (ValueError, ArithmeticError) as exc:
        raise FileFormatError(f"{args.input} is not a valid array file: {exc}") \
            from exc
    # a non-finite image fails the zero-frequency check (exit 4) without a
    # floating-point warning on the way
    with sized_by(f"an image of shape {values.shape} and its spectrum"), \
            np.errstate(all="ignore"):
        freqs, amps = spectrum_along_axis(GridImage(values, pitch=pitch),
                                          axis=args.axis, window=args.window)
    write_spectrum_csv(args.out, freqs, amps)
    print(f"wrote {len(freqs)} spectral bins to {args.out}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except tuple(EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for category, code in EXIT_CODES.items()
                    if isinstance(exc, category))


if __name__ == "__main__":
    sys.exit(main())
