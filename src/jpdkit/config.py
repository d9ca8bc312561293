"""Run configuration (INI) parsing and reproducibility manifests.

A run is described by an INI file with sections [scene], [pairs], [camera],
[processing] and [rng].  Parsing is strict: unknown sections or keys, values
of the wrong type and keys that do not apply to the chosen scene kind or
camera profile are all configuration errors, reported with the line number
where possible.  ``--set section.key=value`` overrides are checked and
applied on top of the file before validation.

Every setting is declared once, in ``_SETTINGS``: its default, its value
parser and, for a key that belongs to one scene kind or camera profile, that
kind or profile.  ``DEFAULTS``, the parsers, the applicability rule and the
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
from .jpd import DEFAULT_BAND_RADIUS, DEFAULT_CHUNK_SIZE, MODES
from .scenes import CAT_MIN_SIZE, SCENES, Scene
from .simulate import CAMERAS, EmccdCamera, camera_by_name

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


# (section, key) -> (default, parser[, scene kind or camera profile the key
# belongs to]).  The canonical text lists the keys in this order.
_SETTINGS = {
    ("scene", "kind"): (None, _choice(*SCENES)),
    ("scene", "size"): (None, _int_range(2)),
    ("scene", "oversample"): (Scene.oversample, _int_range(1)),
    ("scene", "period"): (None, _float_range(0.0, low_open=True), "grating"),
    ("scene", "duty"): (None, _float_range(0.0, 1.0, low_open=True,
                                           high_open=True), "grating"),
    ("scene", "orientation"): ("y", _choice("y", "x"), "grating"),
    ("scene", "blocks"): (3, _int_range(1), "checkerboard"),
    ("scene", "edge_alignment"): ("pixel", _choice("pixel", "quarter"),
                                  "checkerboard"),
    ("pairs", "mode"): ("near", _choice(*MODES)),
    ("pairs", "sigma"): (0.25, _float_range(0.0)),
    ("pairs", "rate"): (60.0, _float_range(0.0, low_open=True)),
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

DEFAULTS = {section: {key: spec[0] for (other, key), spec in _SETTINGS.items()
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


def apply_overrides(parser: configparser.ConfigParser,
                    assignments: list[str]) -> None:
    """Apply ``section.key=value`` assignments onto a parsed config,
    checking each value with its setting's parser."""
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


def parse_config(text: str, overrides: list[str] | None = None) -> RunConfig:
    """Parse and validate an INI run description, applying overrides."""
    parser = configparser.ConfigParser(interpolation=None,
                                       inline_comment_prefixes=("#", ";"))
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigurationError(f"cannot parse config: {exc}") from exc
    apply_overrides(parser, overrides or [])

    merged = {section: dict(values) for section, values in DEFAULTS.items()}
    for section in parser.sections():
        if section not in DEFAULTS:
            _fail(text, section, None, "unknown section")
        for key, raw in parser.items(section):
            if (section, key) not in _PARSERS:
                _fail(text, section, key, "unknown setting")
            try:
                merged[section][key] = _PARSERS[section, key](raw)
            except ValueError as exc:
                _fail(text, section, key, str(exc))

    scene, pairs = merged["scene"], merged["pairs"]
    for key in ("kind", "size"):
        if scene[key] is None:
            _fail(text, "scene", key, "required setting is missing")
    if scene["kind"] == "grating":
        for key in ("period", "duty"):
            if scene[key] is None:
                _fail(text, "scene", key, "required for a grating scene")
    for section, key in _SETTINGS:
        if parser.has_option(section, key) \
                and not _applies(merged[section], section, key):
            chooser, phrase = _CHOOSER[section]
            _fail(text, section, key, "does not apply to "
                  + phrase.format(merged[section][chooser]))
    if scene["kind"] == "cat" and scene["size"] < CAT_MIN_SIZE:
        _fail(text, "scene", "size", f"a cat scene needs size >= {CAT_MIN_SIZE}")
    if scene["kind"] == "checkerboard" and scene["size"] % scene["blocks"]:
        _fail(text, "scene", "blocks",
              f"size {scene['size']} is not divisible into {scene['blocks']} blocks")
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


@contextmanager
def sized_by(config: RunConfig, *names: str):
    """Re-raise a MemoryError of the block as a ConfigurationError that
    names the ``section.key`` settings which size the allocation."""
    try:
        yield
    except MemoryError:
        values = [f"{name} = {_format_value(getattr(config, section)[key])}"
                  for name in names for section, key in [name.split(".")]]
        raise ConfigurationError(f"{' and '.join(values)} need more memory "
                                 "than is available") from None


def build_scene(config: RunConfig) -> Scene:
    with sized_by(config, "scene.size", "scene.oversample"):
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


def read_manifest(path) -> dict:
    try:
        payload = json.loads(Path(path).read_text())
    except OSError as exc:
        raise FileFormatError(f"cannot read manifest {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"manifest {path} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("tool") != TOOL_NAME:
        raise FileFormatError(f"{path} is not a {TOOL_NAME} manifest")
    # the fields a later stage reads
    for key in ("config", "camera", "mode"):
        if not isinstance(payload.get(key, ""), str):
            raise FileFormatError(f"{path}: manifest {key!r} is not a string")
    artifacts = payload.get("artifacts", {})
    if not (isinstance(artifacts, dict)
            and all(isinstance(entry, dict) for entry in artifacts.values())):
        raise FileFormatError(
            f"{path}: manifest 'artifacts' does not map names to records")
    return payload
