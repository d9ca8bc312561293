import json

import numpy as np
import pytest

from jpdkit import pipeline
from jpdkit.cli import main
from jpdkit.frames import read_frames, write_frames
from jpdkit.images import read_spectrum_csv
from jpdkit.jpd import read_jpd_snapshot

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


def test_configuration_errors_exit_2(tmp_path, config_path):
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


def test_threshold_flag_above_one_is_a_usage_error(tmp_path):
    with pytest.raises(SystemExit) as info:
        main(["reconstruct", "--frames", str(tmp_path / "any.bpsr"),
              "--threshold", "2", "--out", str(tmp_path / "r")])
    assert info.value.code == 2


@pytest.mark.parametrize("flags", [
    ["--band-radius", "0"],
    ["--band-radius", "5", "--threshold", "none"],
    ["--band-radius", "128", "--threshold", "none", "--no-normalize"],
])
def test_out_of_range_band_radius_exits_2_before_accumulating(
        tmp_path, monkeypatch, flags):
    stack = tmp_path / "small.bpsr"
    write_frames(stack, np.random.default_rng(1).integers(
        0, 5, (20, 4, 4), dtype=np.uint16))
    calls = []
    monkeypatch.setattr(pipeline, "accumulate_jpd",
                        lambda *args, **kwargs: calls.append(args))
    assert main(["reconstruct", "--frames", str(stack), "--camera", "ideal",
                 *flags, "--out", str(tmp_path / "r")]) == 2
    assert calls == []


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


def test_processing_failures_exit_4(tmp_path):
    single = tmp_path / "single.bpsr"
    write_frames(single, np.ones((1, 6, 6), dtype=np.uint16))
    assert main(["reconstruct", "--frames", str(single),
                 "--out", str(tmp_path / "a")]) == 4
    dark = tmp_path / "dark.bpsr"
    write_frames(dark, np.zeros((10, 6, 6), dtype=np.uint16))
    assert main(["reconstruct", "--frames", str(dark), "--camera", "ideal",
                 "--out", str(tmp_path / "b")]) == 4


def test_version_flag():
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0
