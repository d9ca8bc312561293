"""Run configuration (INI) parsing and reproducibility manifests.

A run is described by an INI file with sections [scene], [pairs], [camera],
[processing] and [rng].  Parsing is strict: unknown sections or keys, values
of the wrong type and keys that do not apply to the chosen scene kind or
camera profile are all configuration errors, reported with the line number
where possible.  ``--set section.key=value`` overrides are applied on top of
the file before validation.

The parsed configuration carries a canonical text rendering with every
effective value written out.  Manifests embed that text together with SHA-256
digests of the run's artifacts, and contain nothing volatile, so repeating a
run and comparing bytes is a meaningful check.
"""

from __future__ import annotations

import configparser
import copy
import hashlib
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path

from ._version import __version__
from .errors import ConfigurationError, FileFormatError
from .jpd import DEFAULT_BAND_RADIUS, DEFAULT_CHUNK_SIZE
from .scenes import Scene, cat_half_plane, checkerboard_phase, grating, uniform
from .simulate import EmccdCamera, camera_by_name

TOOL_NAME = "jpdkit"

DEFAULTS = {
    "scene": {"kind": None, "size": None, "oversample": 8, "period": None,
              "duty": None, "orientation": "y", "blocks": 3,
              "edge_alignment": "pixel"},
    "pairs": {"mode": "near", "sigma": 0.25, "rate": 60.0, "frames": 1000,
              "interference": "none", "shift": 0.0, "contrast": 1.0},
    "camera": {"profile": "ideal", "gain_mean": None, "gain_cv": None,
               "read_sigma": None, "smear": None},
    "processing": {"band_radius": DEFAULT_BAND_RADIUS, "threshold": 0.5,
                   "normalize": True, "interpolate": True,
                   "chunk": DEFAULT_CHUNK_SIZE, "workers": None},
    "rng": {"seed": 0},
}

_GRATING_KEYS = {"period", "duty", "orientation"}
_CHECKER_KEYS = {"blocks", "edge_alignment"}
_EMCCD_KEYS = {"gain_mean", "gain_cv", "read_sigma", "smear"}


def _choice(*names):
    def parse(raw: str) -> str:
        value = raw.strip().lower()
        if value not in names:
            raise ValueError(f"expected one of {', '.join(names)}")
        return value
    return parse


def _int_min(minimum: int):
    def parse(raw: str) -> int:
        value = int(raw)
        if value < minimum:
            raise ValueError(f"must be >= {minimum}")
        return value
    return parse


def _float_range(low=None, high=None, low_open=False):
    def parse(raw: str) -> float:
        value = float(raw)
        if not math.isfinite(value):
            raise ValueError("must be finite")
        if low is not None and (value <= low if low_open else value < low):
            raise ValueError(f"must be {'>' if low_open else '>='} {low}")
        if high is not None and value > high:
            raise ValueError(f"must be <= {high}")
        return value
    return parse


def _bool(raw: str) -> bool:
    value = raw.strip().lower()
    if value in ("true", "yes", "on", "1"):
        return True
    if value in ("false", "no", "off", "0"):
        return False
    raise ValueError("expected a boolean (true/false)")


def _or_none(inner):
    def parse(raw: str):
        if raw.strip().lower() == "none":
            return None
        return inner(raw)
    return parse


_PARSERS = {
    ("scene", "kind"): _choice("grating", "checkerboard", "cat", "uniform"),
    ("scene", "size"): _int_min(2),
    ("scene", "oversample"): _int_min(1),
    ("scene", "period"): _float_range(0.0, low_open=True),
    ("scene", "duty"): _float_range(0.0, 1.0, low_open=True),
    ("scene", "orientation"): _choice("y", "x"),
    ("scene", "blocks"): _int_min(1),
    ("scene", "edge_alignment"): _choice("pixel", "quarter"),
    ("pairs", "mode"): _choice("near", "far"),
    ("pairs", "sigma"): _float_range(0.0),
    ("pairs", "rate"): _float_range(0.0, low_open=True),
    ("pairs", "frames"): _int_min(2),
    ("pairs", "interference"): _choice("none", "noon"),
    ("pairs", "shift"): _float_range(),
    ("pairs", "contrast"): _float_range(0.0, 1.0),
    ("camera", "profile"): _choice("ideal", "emccd", "spad"),
    ("camera", "gain_mean"): _float_range(0.0, low_open=True),
    ("camera", "gain_cv"): _float_range(0.0),
    ("camera", "read_sigma"): _float_range(0.0),
    ("camera", "smear"): _float_range(0.0, 1.0),
    ("processing", "band_radius"): _int_min(1),
    ("processing", "threshold"): _or_none(_float_range(0.0, 1.0)),
    ("processing", "normalize"): _bool,
    ("processing", "interpolate"): _bool,
    ("processing", "chunk"): _int_min(1),
    ("processing", "workers"): _or_none(_int_min(1)),
    ("rng", "seed"): int,
}


@dataclass(frozen=True)
class RunConfig:
    """Validated run description with a canonical text rendering."""

    scene: dict
    pairs: dict
    camera: dict
    processing: dict
    seed: int
    text: str


def _line_of(text: str, section: str, key: str | None = None) -> int | None:
    current = None
    for number, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if stripped.startswith("[") and stripped.endswith("]"):
            current = stripped[1:-1].strip()
            if key is None and current == section:
                return number
        elif key is not None and current == section and stripped \
                and not stripped.startswith(("#", ";")):
            head = re.split(r"[=:]", stripped, maxsplit=1)[0].strip()
            if head == key:
                return number
    return None


def _fail(text: str, section: str, key: str | None, message: str,
          with_line: bool = True):
    where = f"[{section}]" if key is None else f"[{section}] {key}"
    line = _line_of(text, section, key) if with_line else None
    suffix = f" (line {line})" if line is not None else ""
    raise ConfigurationError(f"{where}: {message}{suffix}")


def _given_keys(given: set[tuple[str, str]], section: str) -> set[str]:
    return {key for sec, key in given if sec == section}


def apply_overrides(parser: configparser.ConfigParser,
                    assignments: list[str]) -> set[tuple[str, str]]:
    """Apply ``section.key=value`` assignments onto a parsed config.
    Returns the set of (section, key) pairs that were overridden."""
    touched = set()
    for assignment in assignments:
        target, sep, raw = assignment.partition("=")
        section, dot, key = target.strip().partition(".")
        if not sep or not dot or not section or not key:
            raise ConfigurationError(
                f"override {assignment!r} must look like section.key=value")
        key = key.strip()
        if (section, key) not in _PARSERS:
            raise ConfigurationError(
                f"override {assignment!r}: no such setting {section}.{key}")
        try:
            _PARSERS[section, key](raw.strip())
        except ValueError as exc:
            raise ConfigurationError(f"override {assignment!r}: {exc}") from exc
        if not parser.has_section(section):
            parser.add_section(section)
        parser.set(section, key, raw.strip())
        touched.add((section, key))
    return touched


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "none"
    return repr(value) if isinstance(value, float) else str(value)


def _canonical_text(merged: dict) -> str:
    lines = []
    for section, defaults in DEFAULTS.items():
        lines.append(f"[{section}]")
        for key in defaults:
            if section == "scene":
                kind = merged["scene"]["kind"]
                if key in _GRATING_KEYS and kind != "grating":
                    continue
                if key in _CHECKER_KEYS and kind != "checkerboard":
                    continue
            if section == "camera" and key in _EMCCD_KEYS \
                    and merged["camera"]["profile"] != "emccd":
                continue
            lines.append(f"{key} = {_format_value(merged[section][key])}")
        lines.append("")
    return "\n".join(lines)


def parse_config(text: str, overrides: list[str] | None = None) -> RunConfig:
    """Parse and validate an INI run description, applying overrides."""
    parser = configparser.ConfigParser(interpolation=None,
                                       inline_comment_prefixes=("#", ";"))
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigurationError(f"cannot parse config: {exc}") from exc
    touched = apply_overrides(parser, overrides or [])

    merged = copy.deepcopy(DEFAULTS)
    given = set()
    for section in parser.sections():
        if section not in DEFAULTS:
            _fail(text, section, None, "unknown section")
        for key, raw in parser.items(section):
            if (section, key) not in _PARSERS:
                _fail(text, section, key, "unknown setting")
            try:
                merged[section][key] = _PARSERS[section, key](raw)
            except ValueError as exc:
                _fail(text, section, key, str(exc),
                      with_line=(section, key) not in touched)
            given.add((section, key))

    scene, pairs, camera = merged["scene"], merged["pairs"], merged["camera"]
    if scene["kind"] is None:
        _fail(text, "scene", "kind", "required setting is missing")
    if scene["size"] is None:
        _fail(text, "scene", "size", "required setting is missing")
    if scene["kind"] == "grating":
        for key in ("period", "duty"):
            if scene[key] is None:
                _fail(text, "scene", key,
                      "required for a grating scene", with_line=False)
    else:
        for key in _GRATING_KEYS & _given_keys(given, "scene"):
            _fail(text, "scene", key,
                  f"does not apply to a {scene['kind']} scene")
    if scene["kind"] != "checkerboard":
        for key in _CHECKER_KEYS & _given_keys(given, "scene"):
            _fail(text, "scene", key,
                  f"does not apply to a {scene['kind']} scene")
    if scene["kind"] == "checkerboard" and scene["size"] % scene["blocks"]:
        _fail(text, "scene", "blocks",
              f"size {scene['size']} is not divisible into {scene['blocks']} blocks")
    if camera["profile"] == "emccd":
        reference = EmccdCamera()
        for key in _EMCCD_KEYS:
            if camera[key] is None:
                camera[key] = float(getattr(reference, key))
    else:
        for key in _EMCCD_KEYS & _given_keys(given, "camera"):
            _fail(text, "camera", key,
                  f"does not apply to the {camera['profile']} profile")
    if pairs["interference"] == "noon" and pairs["mode"] != "near":
        _fail(text, "pairs", "interference",
              "the interference model applies to the near-field geometry",
              with_line=False)

    return RunConfig(scene=merged["scene"], pairs=merged["pairs"],
                     camera=merged["camera"], processing=merged["processing"],
                     seed=merged["rng"]["seed"], text=_canonical_text(merged))


def load_config(path, overrides: list[str] | None = None) -> RunConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text, overrides)


def build_scene(config: RunConfig) -> Scene:
    spec = config.scene
    kind, size, oversample = spec["kind"], spec["size"], spec["oversample"]
    if kind == "grating":
        return grating(size, spec["period"], spec["duty"], oversample,
                       spec["orientation"])
    if kind == "checkerboard":
        return checkerboard_phase(size, spec["blocks"], oversample,
                                  spec["edge_alignment"])
    if kind == "cat":
        return cat_half_plane(size, oversample)
    return uniform(size, oversample)


def build_camera(config: RunConfig):
    spec = config.camera
    if spec["profile"] == "emccd":
        return camera_by_name("emccd", **{k: spec[k] for k in _EMCCD_KEYS})
    return camera_by_name(spec["profile"])


# ---------------------------------------------------------------------------
# manifests

def artifact_entry(path, pitch: float | None = None) -> dict:
    """Digest record for one output file; *pitch* tags image grids with
    their sample spacing in camera pixels."""
    data = Path(path).read_bytes()
    entry = {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}
    if pitch is not None:
        entry["pitch"] = pitch
    return entry


def build_manifest(command: str, artifacts: dict[str, dict],
                   config_text: str | None = None, **details) -> dict:
    """Assemble a manifest payload.  *details* records run facts a later
    stage needs (camera profile, geometry mode, seed); nothing volatile such
    as timestamps or absolute paths belongs here."""
    manifest = {"tool": TOOL_NAME, "version": __version__, "command": command,
                "artifacts": artifacts}
    if config_text is not None:
        manifest["config"] = config_text
    manifest.update(details)
    return manifest


def write_manifest(path, manifest: dict) -> None:
    Path(path).write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def read_manifest(path) -> dict:
    try:
        payload = json.loads(Path(path).read_text())
    except OSError as exc:
        raise FileFormatError(f"cannot read manifest {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"manifest {path} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("tool") != TOOL_NAME:
        raise FileFormatError(f"{path} is not a {TOOL_NAME} manifest")
    return payload
