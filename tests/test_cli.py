import contextlib
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import jpdkit
from jpdkit import cli, pipeline
from jpdkit import jpd as jpd_module
from jpdkit.cli import main
from jpdkit.config import (_PARSERS, DEFAULTS, build_camera, build_manifest,
                           build_scene, parse_config, write_manifest)
from jpdkit.errors import ConfigurationError
from jpdkit.frames import read_frames, write_frames
from jpdkit.images import read_spectrum_csv
from jpdkit.jpd import MODES, read_jpd_snapshot
from jpdkit.scenes import SCENES
from jpdkit.simulate import CAMERAS, simulate_frames

INI = """\
[scene]
kind = grating
size = 16
period = 4.0
duty = 0.25

[pairs]
sigma = 0.5
rate = 20
frames = 300

[processing]
band_radius = 2

[rng]
seed = 3
"""


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(INI)
    return path


def run_simulate(tmp_path, config_path, name="sim", overrides=()):
    out = tmp_path / name
    argv = ["simulate", "--config", str(config_path), "--out", str(out)]
    for assignment in overrides:
        argv += ["--set", assignment]
    assert main(argv) == 0
    return out


def test_simulate_reconstruct_spectrum_workflow(tmp_path, config_path):
    sim = run_simulate(tmp_path, config_path)
    assert (sim / "frames.bpsr").exists()
    manifest = json.loads((sim / "manifest.json").read_text())
    assert manifest["command"] == "simulate"
    assert manifest["camera"] == "ideal"
    assert manifest["mode"] == "near"
    assert manifest["frame_shape"] == [300, 16, 16]
    assert manifest["seed"] == 3
    frames = read_frames(sim / "frames.bpsr")
    assert frames.shape == (300, 16, 16)

    rec = tmp_path / "rec"
    assert main(["reconstruct", "--frames", str(sim / "frames.bpsr"),
                 "--manifest", str(sim / "manifest.json"),
                 "--out", str(rec)]) == 0
    for name in ("jpd.bjpd", "super_resolved.npy", "super_resolved.pgm",
                 "native.npy", "native.pgm", "manifest.json"):
        assert (rec / name).exists()
    rec_manifest = json.loads((rec / "manifest.json").read_text())
    assert rec_manifest["camera"] == "ideal"
    assert rec_manifest["artifacts"]["super_resolved.npy"]["pitch"] == 0.5
    assert rec_manifest["artifacts"]["native.npy"]["pitch"] == 1.0
    image = np.load(rec / "super_resolved.npy")
    assert image.shape == (31, 31)

    csv = tmp_path / "spec.csv"
    assert main(["spectrum", "--input", str(rec / "super_resolved.npy"),
                 "--manifest", str(rec / "manifest.json"),
                 "--out", str(csv)]) == 0
    freqs, amps = read_spectrum_csv(csv)
    # pitch 0.5 from the manifest: top bin of rfftfreq(31, d=0.5)
    assert freqs[-1] == pytest.approx(15 / 15.5)
    assert freqs[-1] > 0.9
    assert amps[0] == pytest.approx(1.0)

    explicit = tmp_path / "native_spec.csv"
    assert main(["spectrum", "--input", str(rec / "native.npy"),
                 "--out", str(explicit)]) == 0
    freqs, _ = read_spectrum_csv(explicit)
    assert freqs[-1] == pytest.approx(0.5)   # pitch defaults to 1


def test_simulate_is_deterministic_and_seed_sensitive(tmp_path, config_path):
    a = run_simulate(tmp_path, config_path, "a")
    b = run_simulate(tmp_path, config_path, "b")
    assert (a / "frames.bpsr").read_bytes() == (b / "frames.bpsr").read_bytes()
    assert (a / "manifest.json").read_text() == (b / "manifest.json").read_text()
    c = run_simulate(tmp_path, config_path, "c", overrides=["rng.seed=4"])
    assert (a / "frames.bpsr").read_bytes() != (c / "frames.bpsr").read_bytes()


def test_camera_precedence(tmp_path):
    emccd_ini = INI + "\n[camera]\nprofile = emccd\ngain_mean = 100\n" \
                      "gain_cv = 0.0\nread_sigma = 2.0\n"
    config = tmp_path / "emccd.ini"
    config.write_text(emccd_ini)
    sim = run_simulate(tmp_path, config)

    by_manifest = tmp_path / "by_manifest"
    assert main(["reconstruct", "--frames", str(sim / "frames.bpsr"),
                 "--manifest", str(sim / "manifest.json"),
                 "--out", str(by_manifest)]) == 0
    assert json.loads((by_manifest / "manifest.json").read_text())["camera"] \
        == "emccd"

    overridden = tmp_path / "overridden"
    assert main(["reconstruct", "--frames", str(sim / "frames.bpsr"),
                 "--manifest", str(sim / "manifest.json"),
                 "--camera", "ideal", "--out", str(overridden)]) == 0
    assert json.loads((overridden / "manifest.json").read_text())["camera"] \
        == "ideal"

    guessed = tmp_path / "guessed"
    assert main(["reconstruct", "--frames", str(sim / "frames.bpsr"),
                 "--out", str(guessed)]) == 0
    assert json.loads((guessed / "manifest.json").read_text())["camera"] \
        == "emccd"


def test_threshold_flag_controls_plane_filter(tmp_path, config_path):
    sim = run_simulate(tmp_path, config_path)
    keep_all = tmp_path / "keep_all"
    # near-zero corner planes are kept, so they must not be normalized
    assert main(["reconstruct", "--frames", str(sim / "frames.bpsr"),
                 "--manifest", str(sim / "manifest.json"),
                 "--threshold", "none", "--no-normalize",
                 "--out", str(keep_all)]) == 0
    jpd = read_jpd_snapshot(keep_all / "jpd.bjpd")
    assert jpd.active.all()
    assert jpd.band_radius == 2

    filtered = tmp_path / "filtered"
    assert main(["reconstruct", "--frames", str(sim / "frames.bpsr"),
                 "--manifest", str(sim / "manifest.json"),
                 "--threshold", "0.5", "--out", str(filtered)]) == 0
    assert read_jpd_snapshot(filtered / "jpd.bjpd").active.sum() < 25


def test_far_mode_has_no_native_image(tmp_path):
    # a scene that overlaps its own point reflection, so the far-field
    # pair density has mass
    far_config = tmp_path / "far.ini"
    far_config.write_text(
        "[scene]\nkind = uniform\nsize = 8\n\n"
        "[pairs]\nmode = far\nsigma = 0.3\nrate = 20\nframes = 300\n\n"
        "[processing]\nband_radius = 2\n\n[rng]\nseed = 3\n")
    sim = run_simulate(tmp_path, far_config)
    rec = tmp_path / "far_rec"
    assert main(["reconstruct", "--frames", str(sim / "frames.bpsr"),
                 "--manifest", str(sim / "manifest.json"),
                 "--out", str(rec)]) == 0
    assert not (rec / "native.npy").exists()
    manifest = json.loads((rec / "manifest.json").read_text())
    assert "native.npy" not in manifest["artifacts"]
    assert manifest["mode"] == "far"


def test_configuration_errors_exit_2(tmp_path, config_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[scene]\nsize = 16\n")
    assert main(["simulate", "--config", str(bad),
                 "--out", str(tmp_path / "x")]) == 2
    assert main(["simulate", "--config", str(config_path),
                 "--set", "pairs.sigma=-2",
                 "--out", str(tmp_path / "y")]) == 2
    assert main(["simulate", "--config", str(tmp_path / "absent.ini"),
                 "--out", str(tmp_path / "z")]) == 2
    assert main(["simulate", "--config", str(config_path),
                 "--set", "processing.threshold=3",
                 "--out", str(tmp_path / "w")]) == 2
    assert not (tmp_path / "w").exists()
    emccd = ["camera.profile=emccd"]
    for overrides in (["rng.seed=-1"], ["pairs.rate=nan"], ["pairs.rate=inf"],
                      ["pairs.sigma=nan"], ["pairs.shift=inf"],
                      ["processing.threshold=nan"],
                      ["pairs.frames=4294967296"],  # the .bpsr count is u32
                      # beyond numpy's Poisson sampler, which raised a bare
                      # ValueError
                      ["pairs.rate=1e300"],
                      emccd + ["camera.gain_mean=inf"],
                      emccd + ["camera.gain_cv=nan"]):
        out = tmp_path / "nonfinite"
        argv = ["simulate", "--config", str(config_path), "--out", str(out)]
        for assignment in overrides:
            argv += ["--set", assignment]
        assert main(argv) == 2, overrides
        assert not out.exists(), overrides
    # the config states the camera's own range, and names the override
    capsys.readouterr()
    assert main(["simulate", "--config", str(config_path),
                 "--set", "camera.profile=emccd", "--set", "camera.smear=1",
                 "--out", str(tmp_path / "v")]) == 2
    assert "override 'camera.smear=1': must be < 1.0" in capsys.readouterr().err
    assert not (tmp_path / "v").exists()
    stack = tmp_path / "small.bpsr"
    write_frames(stack, np.ones((5, 4, 4), dtype=np.uint16))
    for workers in ("0", "-3"):
        with pytest.raises(SystemExit) as info:
            main(["reconstruct", "--frames", str(stack), "--camera", "ideal",
                  "--workers", workers, "--out", str(tmp_path / "r")])
        assert info.value.code == 2
        assert "argument --workers: must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()
    image = tmp_path / "image.npy"
    np.save(image, np.ones((8, 8)))
    csv = tmp_path / "s.csv"
    for pitch in ("0", "-1", "nan"):
        with pytest.raises(SystemExit) as info:
            main(["spectrum", "--input", str(image), "--pitch", pitch,
                  "--out", str(csv)])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert "argument --pitch" in err
        assert ("> 0" if pitch != "nan" else "finite") in err
    manifest = tmp_path / "bad_pitch.json"
    for pitch in (0, "0.5"):
        write_manifest(manifest, build_manifest(
            "reconstruct", {"image.npy": {"pitch": pitch}}))
        assert main(["spectrum", "--input", str(image), "--manifest",
                     str(manifest), "--out", str(csv)]) == 2
    assert not csv.exists()


def test_threshold_flag_above_one_is_a_usage_error(tmp_path, capsys):
    # the message names the range for an out-of-range value and repeats
    # a value that is not a number
    for value, named in (("2", "1"), ("abc", "'abc'")):
        with pytest.raises(SystemExit) as info:
            main(["reconstruct", "--frames", str(tmp_path / "any.bpsr"),
                  "--threshold", value, "--out", str(tmp_path / "r")])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert named in err.partition("argument --threshold:")[2]


@pytest.mark.parametrize("shape, flags, usage_error", [
    ((4, 4), ["--band-radius", "0"], True),
    ((4, 4), ["--band-radius", "5", "--threshold", "none"], False),
    ((4, 4), ["--band-radius", "128", "--threshold", "none", "--no-normalize"],
     False),
    ((2, 8), ["--band-radius", "5", "--threshold", "none"], False),
], ids=["zero", "above-side", "above-snapshot-limit", "above-short-side"])
def test_out_of_range_band_radius_exits_2_before_accumulating(
        tmp_path, monkeypatch, shape, flags, usage_error):
    # below 1 the flag's parser rejects the value (argparse exits 2); the
    # limits that depend on the frames are checked by reconstruct
    stack = tmp_path / "small.bpsr"
    write_frames(stack, np.random.default_rng(1).integers(
        0, 5, (20, *shape), dtype=np.uint16))
    calls = []
    monkeypatch.setattr(pipeline, "_accumulate",
                        lambda *args, **kwargs: calls.append(args))
    argv = ["reconstruct", "--frames", str(stack), "--camera", "ideal",
            *flags, "--out", str(tmp_path / "r")]
    if usage_error:
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
    else:
        assert main(argv) == 2
    assert calls == []


def test_stack_beyond_exact_sums_exits_4_before_accumulating(
        tmp_path, monkeypatch):
    frames = np.zeros((21, 4, 4), dtype=np.uint16)
    frames[3, 1, 1] = 65535
    stack = tmp_path / "long.bpsr"
    write_frames(stack, frames)
    monkeypatch.setattr(jpd_module, "EXACT_SUM_LIMIT", 20 * 65535 ** 2)
    calls = []
    monkeypatch.setattr(jpd_module, "_accumulate_chunk",
                        lambda *args: calls.append(args))
    assert main(["reconstruct", "--frames", str(stack), "--camera", "ideal",
                 "--band-radius", "1", "--out", str(tmp_path / "r")]) == 4
    assert calls == []


class _Captured(Exception):
    pass


# a manifest whose [processing] section differs from DEFAULTS in every key
MANIFEST_PROCESSING = ["processing.band_radius=2", "processing.threshold=0.25",
                       "processing.normalize=false",
                       "processing.interpolate=false", "processing.chunk=64",
                       "processing.workers=2"]
FROM_MANIFEST = {"band_radius": 2, "threshold": 0.25, "normalize": False,
                 "interpolate": False, "chunk_size": 64, "workers": 2}


@pytest.fixture()
def reconstruct_settings(tmp_path, monkeypatch):
    """Run ``reconstruct`` with the given flags (and optionally a manifest
    with the given config overrides) and return the processing settings
    it passes to the pipeline."""
    stack = tmp_path / "small.bpsr"
    write_frames(stack, np.ones((3, 4, 4), dtype=np.uint16))
    seen = []

    def capture(frames, **kwargs):
        seen.append(kwargs)
        raise _Captured

    monkeypatch.setattr(cli, "reconstruct", capture)

    def run(flags=(), manifest_overrides=None):
        argv = ["reconstruct", "--frames", str(stack), *flags,
                "--out", str(tmp_path / "r")]
        if manifest_overrides is not None:
            path = tmp_path / "manifest.json"
            config = parse_config(INI, list(manifest_overrides))
            write_manifest(path, build_manifest(
                "simulate", {}, config_text=config.text, camera="ideal",
                mode="near"))
            argv += ["--manifest", str(path)]
        with pytest.raises(_Captured):
            main(argv)
        kwargs = seen.pop()
        return {key: kwargs[key] for key in FROM_MANIFEST}
    return run


def test_reconstruct_settings_come_from_defaults_or_manifest(
        reconstruct_settings):
    defaults = DEFAULTS["processing"]
    assert reconstruct_settings() == {
        "band_radius": defaults["band_radius"],
        "threshold": defaults["threshold"],
        "normalize": defaults["normalize"],
        "interpolate": defaults["interpolate"],
        "chunk_size": defaults["chunk"], "workers": defaults["workers"]}
    assert reconstruct_settings(
        manifest_overrides=MANIFEST_PROCESSING) == FROM_MANIFEST


@pytest.mark.parametrize("flags, key, value", [
    (["--band-radius", "1"], "band_radius", 1),
    (["--threshold", "none"], "threshold", None),
    (["--no-normalize"], "normalize", False),
    (["--no-interpolate"], "interpolate", False),
    (["--chunk", "8"], "chunk_size", 8),
    (["--workers", "3"], "workers", 3),
    (["--workers", "none"], "workers", None),
])
def test_reconstruct_flags_override_manifest(reconstruct_settings, flags,
                                              key, value):
    # --no-normalize and --no-interpolate can only turn a setting off, so
    # their manifest keeps it on
    manifest = [o for o in MANIFEST_PROCESSING
                if o != f"processing.{key}=false"]
    expected = reconstruct_settings(manifest_overrides=manifest)
    assert expected[key] != value
    expected[key] = value
    assert reconstruct_settings(flags, manifest_overrides=manifest) == expected


def test_malformed_files_exit_3(tmp_path):
    junk = tmp_path / "junk.bpsr"
    junk.write_bytes(b"not a frame stack at all")
    assert main(["reconstruct", "--frames", str(junk),
                 "--out", str(tmp_path / "r")]) == 3
    text = tmp_path / "text.npy"
    text.write_text("hello")
    assert main(["spectrum", "--input", str(text),
                 "--out", str(tmp_path / "s.csv")]) == 3
    stack = tmp_path / "ok.bpsr"
    write_frames(stack, np.zeros((3, 4, 4), dtype=np.uint16))
    assert main(["reconstruct", "--frames", str(stack),
                 "--manifest", str(tmp_path / "absent.json"),
                 "--out", str(tmp_path / "t")]) == 3
    image = tmp_path / "image.npy"
    np.save(image, np.ones((8, 8)))
    crafted = tmp_path / "crafted.json"
    for command, field in (("reconstruct", {"camera": ["x"]}),
                           ("reconstruct", {"config": 5}),
                           ("spectrum", {"artifacts": []}),
                           ("spectrum", {"artifacts": {"image.npy": 3}})):
        crafted.write_text(json.dumps({"tool": "jpdkit", **field}))
        source = (["--frames", str(stack)] if command == "reconstruct"
                  else ["--input", str(image)])
        assert main([command, *source, "--manifest", str(crafted),
                     "--out", str(tmp_path / "u")]) == 3, field
    assert not (tmp_path / "u").exists()


def test_spectrum_refuses_a_header_beyond_the_address_space(tmp_path,
                                                           capsys):
    # 10^7 x 10^7 float64 is 800 TB, beyond a 47-bit address space, so a
    # whole read fails at once whatever the overcommit policy; the header
    # alone, 128 bytes, claims more than the file holds
    image = tmp_path / "claims.npy"
    header = io.BytesIO()
    np.lib.format.write_array_header_1_0(header, {
        "descr": "<f8", "fortran_order": False, "shape": (10 ** 7, 10 ** 7)})
    image.write_bytes(header.getvalue())
    csv = tmp_path / "spec.csv"
    assert main(["spectrum", "--input", str(image), "--out", str(csv)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {image} is not a valid array file: ")
    assert err.count("\n") == 1
    assert not csv.exists()


def test_manifest_pitch_must_be_a_number_not_a_bool(tmp_path, capsys):
    image = tmp_path / "image.npy"
    np.save(image, np.ones((8, 8)))
    manifest = tmp_path / "rec.json"
    write_manifest(manifest, build_manifest(
        "reconstruct", {"image.npy": {"pitch": True}}))
    csv = tmp_path / "spec.csv"
    assert main(["spectrum", "--input", str(image), "--manifest",
                 str(manifest), "--out", str(csv)]) == 2
    assert capsys.readouterr().err == (
        "error: pitch must be a finite number > 0, got True\n")
    assert not csv.exists()


# the dtype kinds b, i, u, f, c, U, M and V (plain and structured), some
# of them big-endian
SPECTRUM_DTYPES = ["?", "<i2", ">i8", "u1", "<u4", "<f2", "<f4", ">f8",
                   "<c8", ">c16", "<U3", "<M8[D]", "V3",
                   [("a", "<f8"), ("b", "u1")]]


@st.composite
def npy_files(draw):
    """The bytes of a .npy file, the array it was made from and how it was
    made: whole, empty, cut short anywhere or cut to its header.  The array
    has 0 to 3 sides of 0 to 5 entries and arbitrary bytes as values."""
    dtype = np.dtype(draw(st.sampled_from(SPECTRUM_DTYPES)))
    shape = tuple(draw(st.lists(st.integers(0, 5), max_size=3)))
    size = int(np.prod(shape)) * dtype.itemsize
    values = np.frombuffer(draw(st.binary(min_size=size, max_size=size)),
                           dtype).reshape(shape)
    buffer = io.BytesIO()
    np.save(buffer, values)
    data = buffer.getvalue()
    how = draw(st.sampled_from(["whole", "empty", "cut", "header"]))
    if how == "empty":
        data = b""
    elif how == "cut":
        data = data[:draw(st.integers(0, len(data) - 1))]
    elif how == "header":
        data = data[:len(data) - values.nbytes]
    return data, values, how


@settings(max_examples=200, deadline=None)
@given(npy_files(), st.sampled_from(["0", "1"]),
       st.sampled_from(["hann", "none"]))
def test_spectrum_over_npy_files(npy, axis, window):
    data, values, how = npy
    with tempfile.TemporaryDirectory() as tmp:
        image, csv = Path(tmp) / "image.npy", Path(tmp) / "spec.csv"
        image.write_bytes(data)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = _fuzz_main(["spectrum", "--input", str(image), "--axis",
                               axis, "--window", window, "--out", str(csv)])
        assert [w for w in caught
                if not issubclass(w.category, ResourceWarning)] == []
        assert csv.exists() == (code == 0)
    if how != "whole" and (how != "header" or values.nbytes):
        assert code == 3    # a file that holds less than its header claims
    elif (values.ndim != 2 or values.size == 0
          or values.dtype.kind not in "biuf"):
        assert code == 2    # outside the image contract
    else:
        assert code in (0, 4)   # 4: a non-finite or zero-mean image


def test_reconstruct_resolves_its_settings_before_reading_the_stack(
        tmp_path, monkeypatch):
    def unread(path):
        raise AssertionError(f"{path} was opened")

    monkeypatch.setattr(cli, "open_frames", unread)
    argv = ["reconstruct", "--frames", str(tmp_path / "frames.bpsr"),
            "--out", str(tmp_path / "r")]
    assert main([*argv, "--manifest", str(tmp_path / "absent.json")]) == 3
    invalid = tmp_path / "invalid.json"
    write_manifest(invalid, build_manifest(
        "simulate", {}, config_text=INI.replace("band_radius = 2",
                                                "band_radius = two"),
        camera="ideal", mode="near"))
    assert main([*argv, "--manifest", str(invalid)]) == 2
    assert not (tmp_path / "r").exists()


def test_reconstruct_refuses_to_overwrite_its_source_record(
        tmp_path, config_path, capsys):
    sim = run_simulate(tmp_path, config_path)
    record = (sim / "manifest.json").read_bytes()

    def reconstruct(manifest, out):
        return main(["reconstruct", "--frames", str(sim / "frames.bpsr"),
                     "--manifest", str(manifest), "--out", str(out)])

    # into the simulate run's own directory: the manifest it reads
    assert reconstruct(sim / "manifest.json", sim) == 2
    assert "manifest of a simulate run, not of a reconstruct run" in \
        capsys.readouterr().err
    # a copy of that manifest read from elsewhere: another command's record
    copy = tmp_path / "copy.json"
    copy.write_bytes(record)
    assert reconstruct(copy, sim) == 2
    assert "manifest of a simulate run" in capsys.readouterr().err
    assert (sim / "manifest.json").read_bytes() == record
    assert sorted(p.name for p in sim.iterdir()) == ["frames.bpsr",
                                                     "manifest.json"]
    # a directory of an earlier reconstruct is rerun into, unless its
    # manifest is the one read
    rec = tmp_path / "rec"
    assert reconstruct(copy, rec) == 0
    first = (rec / "jpd.bjpd").read_bytes()
    assert reconstruct(copy, rec) == 0
    assert (rec / "jpd.bjpd").read_bytes() == first
    assert reconstruct(rec / "manifest.json", rec) == 2
    # nor is a manifest.json that cannot be read as one replaced
    (rec / "manifest.json").write_text("{")
    assert reconstruct(copy, rec) == 3
    assert (rec / "manifest.json").read_text() == "{"


def test_each_command_takes_only_its_own_record(tmp_path, config_path,
                                               capsys):
    # reconstruct reads its settings from a simulate record's config, which
    # a reconstruct record lacks; spectrum reads the pitch of an image that
    # only a reconstruct record lists
    sim = run_simulate(tmp_path, config_path)
    rec = tmp_path / "rec"
    assert main(["reconstruct", "--frames", str(sim / "frames.bpsr"),
                 "--manifest", str(sim / "manifest.json"),
                 "--out", str(rec)]) == 0
    capsys.readouterr()
    again = tmp_path / "again"
    assert main(["reconstruct", "--frames", str(sim / "frames.bpsr"),
                 "--manifest", str(rec / "manifest.json"),
                 "--out", str(again)]) == 2
    assert capsys.readouterr().err == (
        f"error: {rec / 'manifest.json'} holds the manifest of a reconstruct "
        "run, not of a simulate run\n")
    assert not again.exists()
    csv = tmp_path / "spectrum.csv"
    assert main(["spectrum", "--input", str(rec / "super_resolved.npy"),
                 "--manifest", str(sim / "manifest.json"),
                 "--out", str(csv)]) == 2
    assert capsys.readouterr().err == (
        f"error: {sim / 'manifest.json'} holds the manifest of a simulate "
        "run, not of a reconstruct run\n")
    assert not csv.exists()


def test_an_incomplete_simulate_record_is_named(tmp_path, capsys):
    # an error in a record's embedded config names the record, with no line
    # number (it would count lines of a string inside the JSON)
    record = tmp_path / "m3.json"
    out = tmp_path / "r"
    argv = ["reconstruct", "--frames", str(tmp_path / "frames.bpsr"),
            "--manifest", str(record), "--out", str(out)]
    simulate = {"tool": "jpdkit", "command": "simulate"}
    for payload, message in (
            ({**simulate, "config": "[scene]\nkind = grating\n"},
             f"{record}: [scene] size: required setting is missing"),
            (simulate, f"{record}: [scene] kind: required setting is missing"),
            ({"tool": "jpdkit", "config": INI},
             f"{record} holds the manifest of a run that names no command, "
             "not of a simulate run")):
        record.write_text(json.dumps(payload))
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("override, message", [
    # the INI's 16-pixel scene at its own band radius line
    ("processing.band_radius=16",
     "override 'processing.band_radius=16': band radius 16 outside [1, 15] "
     "for 16x16 frames"),
    # a smaller scene leaves the file's band radius 2 beyond it
    ("scene.size=2",
     "[processing] band_radius: band radius 2 outside [1, 1] for 2x2 frames "
     "(line 13)"),
])
def test_simulate_refuses_a_band_radius_reconstruct_would_refuse(
        tmp_path, config_path, capsys, override, message):
    out = tmp_path / "sim"
    assert main(["simulate", "--config", str(config_path), "--set", override,
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_processing_failures_exit_4(tmp_path):
    single = tmp_path / "single.bpsr"
    write_frames(single, np.ones((1, 6, 6), dtype=np.uint16))
    assert main(["reconstruct", "--frames", str(single),
                 "--out", str(tmp_path / "a")]) == 4
    dark = tmp_path / "dark.bpsr"
    write_frames(dark, np.zeros((10, 6, 6), dtype=np.uint16))
    assert main(["reconstruct", "--frames", str(dark), "--camera", "ideal",
                 "--out", str(tmp_path / "b")]) == 4


CONFIGS = Path(__file__).resolve().parents[1] / "configs"

# run -> (config, overrides): every configs/*.ini, plus the runs that put
# the SPAD profile and the checkerboard scene through the CLI; all at 200
# frames
PINNED_RUNS = {
    "cat_far_field": ("cat_far_field.ini",),
    "cat_far_field_spad": ("cat_far_field.ini", "camera.profile=spad"),
    "fine_grating_emccd": ("fine_grating_emccd.ini",),
    "grating_superres": ("grating_superres.ini",),
    "noon_phase": ("noon_phase.ini",),
    "noon_phase_checkerboard": ("noon_phase.ini", "scene.kind=checkerboard",
                                "scene.size=9"),
}

PINNED_RUN_DIGESTS = {
    "cat_far_field": {
        "rec/jpd.bjpd": "1b3e92e9692d7cc40f8b0b30bc27f30971ebabe46ea9808ebb004de2d7a1d592",
        "rec/manifest.json": "b5e3a427a5fb0989945b01fe917041f289bcd81357d5f42956148b6a5f815430",
        "rec/super_resolved.npy": "4f94fd80d9cb739784eaf8da94c9366a11e0eabc69892c6eecd0c664fdf13528",
        "rec/super_resolved.pgm": "4f025bbe1e1b0d15392d2b0273686b85656621c9028b1f4421b374939e32c614",
        "sim/frames.bpsr": "71aceb6627d21f9a5582547248e12d5a71b11b1fa577ac205a0e5b8be6fb1768",
        "sim/manifest.json": "a3140dfb024158c2b4224c80e19e94c866ef31b5ff15f6b35f9d84cecb762d4a",
    },
    "cat_far_field_spad": {
        "rec/jpd.bjpd": "f99783a0f3db7a473386393674abdcf8032618b77af43e55a78f36922e35362e",
        "rec/manifest.json": "3d05cda2faaf6d8f95be0f910848a70590eda97433b2444bbe3e817f6f0e41bc",
        "rec/super_resolved.npy": "91093e2219ee00713cfb272bd1411d77d803e4b8640aa544bdde429c0714bb34",
        "rec/super_resolved.pgm": "c0693afcc8ed8e0e5891f8c7b0d12a002595e3d7522118ff183851c3bc997cc0",
        "sim/frames.bpsr": "73e3011ed78d7582831ad7a5c70f71010186da9e106cc6607225d7a222d476b8",
        "sim/manifest.json": "c92b2d3b237e49fd96b39c18ca43b04242d3507b9bad44a525e7b356c33b2477",
    },
    "fine_grating_emccd": {
        "rec/jpd.bjpd": "de1fb1cd62012f4da8c69d15f423f0b0c743cdb0fa94fc1964fb051513181091",
        "rec/manifest.json": "80c7bf3af59be22f48c8cbd7b50e224ed20dde8d598377d7cf2bf95d8cc6903e",
        "rec/native.npy": "dc14c4e61d726c97c93c4010669a8a93a7e88e5d0288b981cc1f2d99a48f0b9f",
        "rec/native.pgm": "1c92a7bcf182f5779f49a4e93f2a5f0f8e8ec18eeece12ee0b789b1aa0d177d3",
        "rec/super_resolved.npy": "dea4f3b071ff017459b5cbb57ee4818626e76d1026fa1d70c8590108f4872040",
        "rec/super_resolved.pgm": "bbf89eed0c89419fd707b7e40bf8b1a17b292b7f5d94b1381485daa1948eee61",
        "sim/frames.bpsr": "2ad8076157fce8ef1603028e105d9bda94f13ae92b7925290cd35cbed9668668",
        "sim/manifest.json": "227ee1a649b35272094b796c20b4a77ecad371cbd9369197e899362cff453d00",
    },
    "grating_superres": {
        "rec/jpd.bjpd": "797d79fb6cfd1b306453000ce8f6a4a6d0d7ed19bdf702c635ba044fee50ca6a",
        "rec/manifest.json": "0bdc3ff6a5bf9a06ff99cce1a0f53c44fd0ded8b1812f3aff56310c65dca279e",
        "rec/native.npy": "da00602003a90b64d5f021be58ce9eccd01704cde1ae96aec4441eb365dda968",
        "rec/native.pgm": "4b604e1406725610a54520de80fa7d284953113c7873cbe8d608319d587482ff",
        "rec/super_resolved.npy": "ba95d8ea811cc467935c704058ba1820ba345d483f7734e0723843c33aefecd3",
        "rec/super_resolved.pgm": "9b4e31961966bf634f958910b35497f6011f3677e18d446c17af3508d7f5562e",
        "sim/frames.bpsr": "e00588843019fae9774c12896ab14fa0ab01699a5d69fb62593b563a774cbe1d",
        "sim/manifest.json": "9c12fdcb5235bd6383abf6d74b644736973f38f2c76a13237eaa4dc8a4247d27",
    },
    "noon_phase": {
        "rec/jpd.bjpd": "471b69d0267db7e0e7cce196188891cf74f6a2853a35e7337b127f1fc2670b99",
        "rec/manifest.json": "31745d49b2d82695e2075bb63c9cc211080ba182ec0cea3525a73724be77e693",
        "rec/native.npy": "0d5beecdfab98ba1e544d8db2434b7a503aa4e6d14f883cb7ab0e50ec78bce5a",
        "rec/native.pgm": "c2cdae02e73499587840e894f887fc063e6abefe23533c13a076202077c5ff0b",
        "rec/super_resolved.npy": "25d2a56b75cddf76ddbf358631ef0b1d4c14c3029404fddce8babd0136b1595c",
        "rec/super_resolved.pgm": "47c65ee91be08faafab4bd23c384168a387eb75e6116fbdf56ac22aa647a1a68",
        "sim/frames.bpsr": "2c818f6654f8f62fca1df88f0c8bb84675d8d344b065b70f3c29789767f27e9a",
        "sim/manifest.json": "f0039a6a246f4756ababaf27ed7aa7012c1ae9bfbc729e6a6cd67db3e22ba7b8",
    },
    "noon_phase_checkerboard": {
        "rec/jpd.bjpd": "0bba6d45d63c03abe650c70ef2df2f9343f41296918ef30a6ef1bbe5f3b3e69a",
        "rec/manifest.json": "b32c2fe3ef0b932120086df09a691e43186ae3bd8344f5257fe7824ead36b0e0",
        "rec/native.npy": "8fea8399550213ff0304b660951710872545df9b347b92d5850ace1aa7f82acf",
        "rec/native.pgm": "da7d5f64e058e84e2e23ae6dd86961574c16fcafd8d1d383ef9a616d9c0d284e",
        "rec/super_resolved.npy": "ac9e9c50f1a62d2d04ffc77f01bbc5545a623c899e9173bca3bbb0af1f762b30",
        "rec/super_resolved.pgm": "04b56061396966eaa48522795c8309a1976810e19c19627bea7785bab9cc60a6",
        "sim/frames.bpsr": "5a358541d3b58caf19bc052578b78ca9f2c991d0584368afd496fef7f3922b9e",
        "sim/manifest.json": "53949eade850a061906fe429bf727ea5ff62c7cf7f2e0e137634a3a00643cbeb",
    },
}


@pytest.mark.parametrize("run", sorted(PINNED_RUNS))
def test_config_runs_are_pinned(tmp_path, run):
    # SHA-256 of every file simulate and reconstruct write
    config, *overrides = PINNED_RUNS[run]
    sim = run_simulate(tmp_path, CONFIGS / config,
                       overrides=["pairs.frames=200", *overrides])
    rec = tmp_path / "rec"
    assert main(["reconstruct", "--frames", str(sim / "frames.bpsr"),
                 "--manifest", str(sim / "manifest.json"),
                 "--out", str(rec)]) == 0
    digests = {f"{out.name}/{path.name}":
               hashlib.sha256(path.read_bytes()).hexdigest()
               for out in (sim, rec) for path in sorted(out.iterdir())}
    assert digests == PINNED_RUN_DIGESTS[run]


def test_cat_scene_below_minimum_size_exits_2(tmp_path, capsys):
    # the config states the cat builder's minimum, naming the override that
    # set the size, not the file line it replaced
    out = tmp_path / "sim"
    assert main(["simulate", "--config", str(CONFIGS / "cat_far_field.ini"),
                 "--set", "scene.size=8", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: override 'scene.size=8': a cat scene needs size >= 16\n")
    assert not out.exists()


@pytest.mark.parametrize("override, names", [
    # both allocations lie beyond a 47-bit address space, so the allocator
    # refuses them at once whatever the overcommit policy
    ("pairs.rate=1e12", "pairs.rate = 1000000000000.0 and pairs.frames = 50"),
    ("scene.oversample=200000", "scene.size = 32 and scene.oversample = 200000"),
])
def test_simulation_beyond_memory_exits_2(tmp_path, capsys, override, names):
    out = tmp_path / "sim"
    assert main(["simulate", "--config", str(CONFIGS / "grating_superres.ini"),
                 "--set", "pairs.frames=50", "--set", override,
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: {names} need more memory than is available\n")
    assert not out.exists()


def test_reconstruct_beyond_memory_exits_2(tmp_path, capsys, monkeypatch):
    stack = tmp_path / "stack.bpsr"
    write_frames(stack, np.ones((5, 6, 7), dtype=np.uint16))

    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(jpd_module, "_accumulate_chunk", exhausted)
    out = tmp_path / "rec"
    assert main(["reconstruct", "--frames", str(stack), "--camera", "ideal",
                 "--band-radius", "2", "--chunk", "3",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: 6x7 frames, band_radius = 2 and chunk = 3 need more memory "
        "than is available\n")
    assert not out.exists()


@pytest.mark.parametrize("profile, size", [
    ("ideal", 16), ("emccd", 16),
    # 12-pixel rows pack into two bytes, the second one partly filled
    ("spad", 12)])
def test_streamed_frames_equal_the_written_stack(tmp_path, config_path,
                                                 profile, size):
    # 4097 frames: one full chunk, then a one-frame chunk
    overrides = ["pairs.frames=4097", f"scene.size={size}",
                 f"camera.profile={profile}"]
    sim = run_simulate(tmp_path, config_path, overrides=overrides)
    config = parse_config(config_path.read_text(), overrides)
    pairs = config.pairs
    write_frames(tmp_path / "stack.bpsr", simulate_frames(
        build_scene(config), pairs["mode"], pairs["sigma"], pairs["rate"],
        pairs["frames"], build_camera(config), config.seed))
    assert (sim / "frames.bpsr").read_bytes() == \
        (tmp_path / "stack.bpsr").read_bytes()


@pytest.mark.parametrize("spare, code", [(-1, 2), (0, 0)])
def test_simulation_beyond_free_disk_exits_2(tmp_path, config_path, capsys,
                                             monkeypatch, spare, code):
    # the INI's 300 frames of 16x16 u16 samples after the 32-byte header
    size = 32 + 300 * 16 * 16 * 2
    usage = shutil.disk_usage(tmp_path)
    monkeypatch.setattr(shutil, "disk_usage",
                        lambda path: usage._replace(free=size + spare))
    out = tmp_path / "sim"
    assert main(["simulate", "--config", str(config_path),
                 "--out", str(out)]) == code
    if code:
        assert capsys.readouterr().err == (
            f"error: pairs.frames = 300 and scene.size = 16 make a "
            f"{size}-byte frames.bpsr, but {tmp_path} has {size - 1} bytes "
            "free\n")
        assert not out.exists()
    else:
        assert (out / "frames.bpsr").stat().st_size == size


def test_chunk_failing_midway_leaves_no_frame_file(tmp_path, config_path,
                                                   capsys, monkeypatch):
    # the second block of frames runs out of memory after the first one
    # reached the file
    render = cli.simulate_chunks

    def failing(*args):
        chunks = render(*args)
        yield next(chunks)
        raise MemoryError

    monkeypatch.setattr(cli, "simulate_chunks", failing)
    out = tmp_path / "sim"
    assert main(["simulate", "--config", str(config_path), "--set",
                 "pairs.frames=5000", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: pairs.rate = 20.0 and pairs.frames = 5000 need more memory "
        "than is available\n")
    assert list(out.iterdir()) == []


def test_noon_run_without_pair_flux_names_shift_and_contrast(tmp_path, capsys):
    # against a uniform scene at contrast 1, a reference shift of pi / 2
    # leaves no coincidence flux anywhere
    out = tmp_path / "sim"
    assert main(["simulate", "--config", str(CONFIGS / "noon_phase.ini"),
                 "--set", "pairs.shift=1.5707963267948966",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: pairs.shift = 1.5707963267948966 and pairs.contrast = 1.0 "
        "leave the NOON acquisition no pair flux\n")
    assert not out.exists()


def test_cli_import_loads_no_scipy():
    # numpy is the only runtime dependency: a fresh interpreter that imports
    # the CLI and builds a jittered analytic JPD has loaded no scipy module
    src = str(Path(jpdkit.__file__).resolve().parents[1])
    code = ("import sys, jpdkit.cli\n"
            "from jpdkit.scenes import grating\n"
            "from jpdkit.simulate import analytic_jpd\n"
            "analytic_jpd(grating(8, 3.0, 0.4), 'near', 2, sigma=0.7)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    result = subprocess.run([sys.executable, "-c", code], check=True,
                            capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert result.stdout.strip() == "[]"


def test_cli_import_loads_no_thread_pool():
    # the thread pool is imported only when a run uses threads, so every
    # command's process is spared concurrent.futures and the logging it loads
    src = str(Path(jpdkit.__file__).resolve().parents[1])
    code = ("import sys, jpdkit.cli\n"
            "print(sorted(m for m in ('concurrent.futures', 'logging')"
            " if m in sys.modules))")
    result = subprocess.run([sys.executable, "-c", code], check=True,
                            capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert result.stdout.strip() == "[]"


def test_version_flag():
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0


# strings to try on every setting: numbers of either sign and size, the
# words of every choice, and junk
FUZZ_STRINGS = [*map(str, range(-2, 31)), "100", "4294967296", "0.0", "0.3",
                "0.5", "0.99", "1.6", "-0.5", "1e300", "nan", "inf", "-inf",
                "none", "true", "off", "y", "x", "pixel", "quarter", "noon",
                "abc", "", *SCENES, *CAMERAS, *MODES]
# accepted values above these would only make a run slow or large
FUZZ_CAPS = {("pairs", "frames"): 50, ("scene", "size"): 24,
             ("scene", "oversample"): 16, ("pairs", "rate"): 200,
             ("processing", "workers"): 2}


def _fuzz_pools(name):
    """The strings the setting's parser accepts, up to its cap, and the
    strings it rejects."""
    accepted, rejected = [], []
    for raw in FUZZ_STRINGS:
        try:
            value = _PARSERS[name](raw)
        except ValueError:
            rejected.append(raw)
            continue
        if name not in FUZZ_CAPS or value is None or value <= FUZZ_CAPS[name]:
            accepted.append(raw)
    return accepted, rejected


FUZZ_VALUES = {name: _fuzz_pools(name) for name in _PARSERS}


@st.composite
def fuzz_runs(draw):
    """A scene kind, a camera profile and up to three overrides, one in
    four with a value its setting's parser rejects."""
    overrides = []
    for name in draw(st.lists(st.sampled_from(sorted(FUZZ_VALUES)),
                              max_size=3)):
        accepted, rejected = FUZZ_VALUES[name]
        pool = rejected if draw(st.integers(0, 3)) == 0 else accepted
        overrides.append(f"{name[0]}.{name[1]}={draw(st.sampled_from(pool))}")
    return (draw(st.sampled_from(sorted(SCENES))),
            draw(st.sampled_from(sorted(CAMERAS))), overrides)


def _fuzz_main(argv):
    """Exit code of an in-process CLI run, which is 0 or, with exactly one
    error line on stderr, 2, 3 or 4."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    lines = err.getvalue().splitlines()
    if code == 0:
        assert lines == [], argv
    else:
        assert code in (2, 3, 4), argv
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
    return code


@settings(max_examples=200, deadline=None)
@given(fuzz_runs())
def test_cli_fuzz_over_settings(run):
    kind, profile, overrides = run
    extra = "period = 3\nduty = 0.5\n" if kind == "grating" else ""
    text = (f"[scene]\nkind = {kind}\nsize = 18\n{extra}\n"
            "[pairs]\nrate = 5\nframes = 20\n\n"
            f"[camera]\nprofile = {profile}\n\n[processing]\nband_radius = 1\n")
    try:
        parse_config(text, overrides)
        rejected = False
    except ConfigurationError:
        rejected = True
    with tempfile.TemporaryDirectory() as tmp:
        config, sim, rec = (Path(tmp) / name for name in ("run.ini", "sim",
                                                          "rec"))
        config.write_text(text)
        code = _fuzz_main(["simulate", "--config", str(config), "--out",
                           str(sim), *(arg for assignment in overrides
                                       for arg in ("--set", assignment))])
        if rejected:
            assert code == 2 and not sim.exists(), overrides
        if code == 0:
            # a run simulate accepts has settings reconstruct accepts too
            assert _fuzz_main(["reconstruct", "--frames",
                               str(sim / "frames.bpsr"), "--manifest",
                               str(sim / "manifest.json"),
                               "--out", str(rec)]) != 2, overrides
