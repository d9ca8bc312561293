"""Run configuration (INI) parsing and reproducibility manifests.

A run is described by an INI file with sections [scene], [pairs], [camera],
[processing] and [rng].  Parsing is strict: unknown sections or keys, values
of the wrong type and keys that do not apply to the chosen scene kind or
camera profile are all configuration errors.  ``--set section.key=value``
overrides replace the file's value of a setting.  Each value is parsed once,
whether the file or an override gives it, and every error names where the
value came from: the file line, or the override.

Every setting is declared once, in ``_SETTINGS``: its default (or that a
run description must give it), its value parser and, for a key that belongs
to one scene kind or camera profile, that kind or profile.  ``DEFAULTS``, the parsers, the applicability rule and the
canonical text all follow from that table.

The parsed configuration carries a canonical text rendering with every
effective value that applies written out, in table order.  Manifests embed
that text together with SHA-256 digests of the run's artifacts, and contain
nothing volatile, so repeating a run and comparing bytes is a meaningful
check.
"""

from __future__ import annotations

import configparser
import hashlib
import json
import math
import re
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

from ._version import __version__
from .errors import ConfigurationError, FileFormatError
from .frames import MAX_FIELD
from .jpd import (DEFAULT_BAND_RADIUS, DEFAULT_CHUNK_SIZE, MODES,
                  check_band_radius)
from .scenes import CAT_MIN_SIZE, SCENES, Scene
from .simulate import CAMERAS, MAX_RATE, EmccdCamera, camera_by_name

TOOL_NAME = "jpdkit"


def _choice(*names):
    def parse(raw: str) -> str:
        value = raw.strip().lower()
        if value not in names:
            raise ValueError(f"expected one of {', '.join(names)}")
        return value
    return parse


def _int_range(low: int, high: int | None = None):
    def parse(raw: str) -> int:
        value = int(raw)
        if value < low:
            raise ValueError(f"must be >= {low}")
        if high is not None and value > high:
            raise ValueError(f"must be <= {high}")
        return value
    return parse


def _float_range(low=None, high=None, low_open=False, high_open=False):
    def parse(raw: str) -> float:
        value = float(raw)
        if not math.isfinite(value):
            raise ValueError("must be finite")
        if low is not None and (value <= low if low_open else value < low):
            raise ValueError(f"must be {'>' if low_open else '>='} {low}")
        if high is not None and (value >= high if high_open else value > high):
            raise ValueError(f"must be {'<' if high_open else '<='} {high}")
        return value
    return parse


def _bool(raw: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[raw.strip().lower()]
    except KeyError:
        raise ValueError("expected a boolean (true/false)") from None


def _or_none(inner):
    def parse(raw: str):
        if raw.strip().lower() == "none":
            return None
        return inner(raw)
    return parse


# the default of a setting that a run description must give wherever the
# setting applies; not None, which is the value of ``workers = none``
_REQUIRED = object()

# (section, key) -> (default, parser[, scene kind or camera profile the key
# belongs to]).  The canonical text lists the keys in this order.
_SETTINGS = {
    ("scene", "kind"): (_REQUIRED, _choice(*SCENES)),
    ("scene", "size"): (_REQUIRED, _int_range(2)),
    ("scene", "oversample"): (Scene.oversample, _int_range(1)),
    ("scene", "period"): (_REQUIRED, _float_range(0.0, low_open=True),
                          "grating"),
    ("scene", "duty"): (_REQUIRED, _float_range(0.0, 1.0, low_open=True,
                                                high_open=True), "grating"),
    ("scene", "orientation"): ("y", _choice("y", "x"), "grating"),
    ("scene", "blocks"): (3, _int_range(1), "checkerboard"),
    ("scene", "edge_alignment"): ("pixel", _choice("pixel", "quarter"),
                                  "checkerboard"),
    ("pairs", "mode"): ("near", _choice(*MODES)),
    ("pairs", "sigma"): (0.25, _float_range(0.0)),
    ("pairs", "rate"): (60.0, _float_range(0.0, MAX_RATE, low_open=True)),
    ("pairs", "frames"): (1000, _int_range(2, MAX_FIELD)),  # .bpsr count
    ("pairs", "interference"): ("none", _choice("none", "noon")),
    ("pairs", "shift"): (0.0, _float_range()),
    ("pairs", "contrast"): (1.0, _float_range(0.0, 1.0)),
    ("camera", "profile"): ("ideal", _choice(*CAMERAS)),
    ("camera", "gain_mean"): (EmccdCamera.gain_mean,
                              _float_range(0.0, low_open=True), "emccd"),
    ("camera", "gain_cv"): (EmccdCamera.gain_cv, _float_range(0.0), "emccd"),
    ("camera", "read_sigma"): (EmccdCamera.read_sigma, _float_range(0.0),
                               "emccd"),
    ("camera", "smear"): (EmccdCamera.smear,
                          _float_range(0.0, 1.0, high_open=True), "emccd"),
    ("processing", "band_radius"): (DEFAULT_BAND_RADIUS, _int_range(1)),
    ("processing", "threshold"): (0.5, _or_none(_float_range(0.0, 1.0))),
    ("processing", "normalize"): (True, _bool),
    ("processing", "interpolate"): (True, _bool),
    ("processing", "chunk"): (DEFAULT_CHUNK_SIZE, _int_range(1)),
    ("processing", "workers"): (None, _or_none(_int_range(1))),
    ("rng", "seed"): (0, _int_range(0)),
}

DEFAULTS = {section: {key: None if spec[0] is _REQUIRED else spec[0]
                      for (other, key), spec in _SETTINGS.items()
                      if other == section}
            for section, _ in _SETTINGS}
_PARSERS = {name: spec[1] for name, spec in _SETTINGS.items()}

# the key that picks the kind or profile of a section, and how a message
# names the picked one
_CHOOSER = {"scene": ("kind", "a {} scene"),
            "camera": ("profile", "the {} profile")}


def _applies(values: dict, section: str, key: str) -> bool:
    """Whether *key* applies given *values*, the settings of its section:
    a key that belongs to a scene kind or camera profile applies to that
    one only."""
    _, _, *owner = _SETTINGS[section, key]
    return not owner or values[_CHOOSER[section][0]] == owner[0]


def _applicable(values: dict, section: str) -> dict:
    """The settings in *values* that apply, without the key that picks the
    kind or profile: the keyword arguments of the scene or camera builder."""
    chooser = _CHOOSER[section][0]
    return {key: value for key, value in values.items()
            if key != chooser and _applies(values, section, key)}


@dataclass(frozen=True)
class RunConfig:
    """Validated run description with a canonical text rendering."""

    scene: dict
    pairs: dict
    camera: dict
    processing: dict
    seed: int
    text: str


def _file_lines(text: str) -> dict:
    """(section, key) -> number of the first line of *text* that sets the
    key, and (section, None) -> the line of the section's header."""
    lines, section = {}, None
    for number, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if stripped.startswith("[") and stripped.endswith("]"):
            section = stripped[1:-1].strip()
            lines.setdefault((section, None), number)
        elif stripped and not stripped.startswith(("#", ";")):
            # configparser folds keys to lower case
            key = re.split(r"[=:]", stripped, maxsplit=1)[0].strip().lower()
            lines.setdefault((section, key), number)
    return lines


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "none"
    return repr(value) if isinstance(value, float) else str(value)


def _canonical_text(merged: dict) -> str:
    lines = []
    for section, values in merged.items():
        lines.append(f"[{section}]")
        lines += [f"{key} = {_format_value(value)}"
                  for key, value in values.items()
                  if _applies(values, section, key)]
        lines.append("")
    return "\n".join(lines)


def parse_config(text: str, overrides: list[str] | None = None, *,
                 cite_lines: bool = True) -> RunConfig:
    """Parse and validate an INI run description, applying overrides.  An
    error cites the line of *text* that sets the value if *cite_lines*."""
    parser = configparser.ConfigParser(interpolation=None,
                                       inline_comment_prefixes=("#", ";"))
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigurationError(f"cannot parse config: {exc}") from exc
    lines = _file_lines(text) if cite_lines else {}
    # (section, key) -> (raw value, source): the number of the file line
    # that sets it, or the override's text; the last source wins
    given = {(section, key): (raw, lines.get((section, key)))
             for section in parser.sections()
             for key, raw in parser.items(section)}

    def fail(section: str, key: str | None, message: str):
        _, source = given.get((section, key), (None, lines.get((section, key))))
        if isinstance(source, str):
            raise ConfigurationError(f"override {source!r}: {message}")
        where = f"[{section}]" if key is None else f"[{section}] {key}"
        suffix = f" (line {source})" if source is not None else ""
        raise ConfigurationError(f"{where}: {message}{suffix}")

    for assignment in overrides or []:
        target, sep, raw = assignment.partition("=")
        section, dot, key = target.strip().partition(".")
        if not sep or not dot or not section or not key:
            raise ConfigurationError(
                f"override {assignment!r} must look like section.key=value")
        key = key.strip()
        given[section, key] = (raw.strip(), assignment)
        if (section, key) not in _PARSERS:
            fail(section, key, f"no such setting {section}.{key}")
    for section in parser.sections():
        if section not in DEFAULTS:
            fail(section, None, "unknown section")

    merged = {section: dict(values) for section, values in DEFAULTS.items()}
    for (section, key), (raw, _) in given.items():
        if (section, key) not in _PARSERS:
            fail(section, key, "unknown setting")
        try:
            merged[section][key] = _PARSERS[section, key](raw)
        except ValueError as exc:
            fail(section, key, str(exc))

    for (section, key), (default, _, *owner) in _SETTINGS.items():
        if not _applies(merged[section], section, key):
            if (section, key) in given:
                chooser, phrase = _CHOOSER[section]
                fail(section, key, "does not apply to "
                     + phrase.format(merged[section][chooser]))
        elif default is _REQUIRED and (section, key) not in given:
            fail(section, key, "required for "
                 + _CHOOSER[section][1].format(owner[0])
                 if owner else "required setting is missing")
    scene, pairs = merged["scene"], merged["pairs"]
    if scene["kind"] == "cat" and scene["size"] < CAT_MIN_SIZE:
        fail("scene", "size", f"a cat scene needs size >= {CAT_MIN_SIZE}")
    if scene["kind"] == "checkerboard" and scene["size"] % scene["blocks"]:
        fail("scene", "blocks",
             f"size {scene['size']} is not divisible into {scene['blocks']} blocks")
    try:
        # the frames are size x size; reconstruct checks its stack again
        check_band_radius(merged["processing"]["band_radius"],
                          (scene["size"], scene["size"]))
    except ConfigurationError as exc:
        fail("processing", "band_radius", str(exc))
    if pairs["interference"] == "noon" and pairs["mode"] != "near":
        # a conflict of two settings, so no one source is named
        raise ConfigurationError("[pairs] interference: the interference "
                                 "model applies to the near-field geometry")

    return RunConfig(scene=merged["scene"], pairs=merged["pairs"],
                     camera=merged["camera"], processing=merged["processing"],
                     seed=merged["rng"]["seed"], text=_canonical_text(merged))


def load_config(path, overrides: list[str] | None = None) -> RunConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text, overrides)


def cite(config: RunConfig, *names: str) -> str:
    """The ``section.key`` settings *names* with their values, as an error
    message that blames them begins."""
    return " and ".join(
        f"{name} = {_format_value(getattr(config, section)[key])}"
        for name in names for section, key in [name.split(".")])


@contextmanager
def sized_by(what: str):
    """Re-raise a MemoryError of the block as a ConfigurationError (exit 2)
    that says *what* sizes the allocation: the settings, frames or image.
    The one memory rule of the commands."""
    try:
        yield
    except MemoryError:
        raise ConfigurationError(f"{what} need more memory than is "
                                 "available") from None


def build_scene(config: RunConfig) -> Scene:
    with sized_by(cite(config, "scene.size", "scene.oversample")):
        return SCENES[config.scene["kind"]](**_applicable(config.scene, "scene"))


def build_camera(config: RunConfig):
    return camera_by_name(config.camera["profile"],
                          **_applicable(config.camera, "camera"))


# ---------------------------------------------------------------------------
# manifests

def artifact_entry(path, pitch: float | None = None) -> dict:
    """Digest record for one output file; *pitch* tags image grids with
    their sample spacing in camera pixels."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        # in 1 MiB blocks, so the file is never held whole
        while block := fh.read(1 << 20):
            digest.update(block)
        entry = {"sha256": digest.hexdigest(), "bytes": fh.tell()}
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


def read_manifest(path, command: str | None = None) -> dict:
    """Read and check a manifest; given a *command*, refuse the record of
    any other command as a configuration error."""
    try:
        payload = json.loads(Path(path).read_text())
    except OSError as exc:
        raise FileFormatError(f"cannot read manifest {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"manifest {path} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("tool") != TOOL_NAME:
        raise FileFormatError(f"{path} is not a {TOOL_NAME} manifest")
    # the commands read only "config" and "artifacts"; "camera" and "mode"
    # describe the run to a reader, and are checked all the same
    for key in ("config", "camera", "mode"):
        if not isinstance(payload.get(key, ""), str):
            raise FileFormatError(f"{path}: manifest {key!r} is not a string")
    artifacts = payload.get("artifacts", {})
    if not (isinstance(artifacts, dict)
            and all(isinstance(entry, dict) for entry in artifacts.values())):
        raise FileFormatError(
            f"{path}: manifest 'artifacts' does not map names to records")
    kind = payload.get("command")
    if command not in (None, kind):
        run = "a run that names no command" if kind is None else f"a {kind} run"
        raise ConfigurationError(f"{path} holds the manifest of {run}, not of "
                                 f"a {command} run")
    return payload
