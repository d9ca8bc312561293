import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jpdkit.config import (_SETTINGS, artifact_entry, build_camera,
                           build_manifest, build_scene, load_config,
                           parse_config, read_manifest, write_manifest)
from jpdkit.errors import ConfigurationError, FileFormatError
from jpdkit.jpd import MODES
from jpdkit.scenes import (SCENES, cat_half_plane, checkerboard_phase, grating,
                           uniform)
from jpdkit.simulate import CAMERAS, EmccdCamera, IdealCamera, SpadCamera

GRATING_INI = """\
[scene]
kind = grating
size = 32
period = 5.0
duty = 0.1

[pairs]
sigma = 0.84
rate = 60
frames = 5000

[rng]
seed = 7
"""


def test_parse_fills_defaults():
    cfg = parse_config(GRATING_INI)
    assert cfg.scene["kind"] == "grating"
    assert cfg.scene["size"] == 32
    assert cfg.scene["oversample"] == 8
    assert cfg.pairs["mode"] == "near"
    assert cfg.pairs["sigma"] == 0.84
    assert cfg.camera["profile"] == "ideal"
    assert cfg.processing["band_radius"] == 3
    assert cfg.processing["threshold"] == 0.5
    assert cfg.seed == 7


def test_canonical_text_round_trips():
    cfg = parse_config(GRATING_INI)
    again = parse_config(cfg.text)
    assert again.text == cfg.text
    assert again == cfg
    # only keys applicable to the chosen kind/profile are rendered
    assert "blocks" not in cfg.text
    assert "gain_mean" not in cfg.text
    assert "period = 5.0" in cfg.text


def test_emccd_config_gets_reference_defaults():
    cfg = parse_config(GRATING_INI + "\n[camera]\nprofile = emccd\ngain_cv = 0.7\n")
    reference = EmccdCamera()
    assert cfg.camera["gain_cv"] == 0.7
    assert cfg.camera["gain_mean"] == reference.gain_mean
    assert cfg.camera["read_sigma"] == reference.read_sigma
    assert "gain_mean" in cfg.text
    cam = build_camera(cfg)
    assert isinstance(cam, EmccdCamera)
    assert cam.gain_cv == 0.7


def test_inapplicable_keys_rejected():
    with pytest.raises(ConfigurationError, match="does not apply"):
        parse_config(GRATING_INI + "\n[camera]\nprofile = ideal\ngain_mean = 10\n")
    bad_scene = GRATING_INI.replace("kind = grating", "kind = uniform")
    with pytest.raises(ConfigurationError, match="does not apply"):
        parse_config(bad_scene)


def test_errors_carry_line_numbers():
    bad = GRATING_INI.replace("duty = 0.1", "duty = 1.4")
    with pytest.raises(ConfigurationError, match=r"duty.*line 5"):
        parse_config(bad)
    extra_key = GRATING_INI.replace("frames = 5000",
                                    "frames = 5000\nwavelength = 810")
    with pytest.raises(ConfigurationError, match="unknown setting"):
        parse_config(extra_key)
    with pytest.raises(ConfigurationError, match="unknown section"):
        parse_config(GRATING_INI + "\n[detector]\nx = 1\n")
    # grating duty and EMCCD smear must be < 1, in the builders too, so
    # the config states that bound and names the key and its line
    emccd = GRATING_INI + "\n[camera]\nprofile = emccd\nsmear = 1\n"
    full_duty = GRATING_INI.replace("duty = 0.1", "duty = 1")
    for text, where, line in ((emccd, "[camera] smear", emccd.count("\n")),
                              (full_duty, "[scene] duty", 5)):
        with pytest.raises(ConfigurationError) as info:
            parse_config(text)
        assert str(info.value) == f"{where}: must be < 1.0 (line {line})"
    assert parse_config(emccd.replace("smear = 1", "smear = 0.99")) \
        .camera["smear"] == 0.99


def test_required_settings():
    with pytest.raises(ConfigurationError, match="kind"):
        parse_config("[scene]\nsize = 16\n")
    with pytest.raises(ConfigurationError, match="size"):
        parse_config("[scene]\nkind = uniform\n")
    with pytest.raises(ConfigurationError, match="required for a grating"):
        parse_config("[scene]\nkind = grating\nsize = 16\nperiod = 4.0\n")


def test_checkerboard_divisibility_checked():
    text = "[scene]\nkind = checkerboard\nsize = 16\nblocks = 3\n"
    with pytest.raises(ConfigurationError, match="divisible"):
        parse_config(text)


def test_cat_minimum_size_checked():
    text = "[scene]\nkind = cat\nsize = 8\n"
    with pytest.raises(ConfigurationError) as info:
        parse_config(text)
    assert str(info.value) == \
        "[scene] size: a cat scene needs size >= 16 (line 3)"
    assert parse_config(text.replace("8", "16")).scene["size"] == 16


def test_frame_count_bounded_by_bpsr_header():
    cfg = parse_config(GRATING_INI, overrides=["pairs.frames=4294967295"])
    assert cfg.pairs["frames"] == 2 ** 32 - 1
    assert "frames = 4294967295\n" in cfg.text
    with pytest.raises(ConfigurationError) as info:
        parse_config(GRATING_INI, overrides=["pairs.frames=4294967296"])
    assert str(info.value) == \
        "override 'pairs.frames=4294967296': must be <= 4294967295"


def test_noon_requires_near_field():
    text = GRATING_INI.replace(
        "sigma = 0.84", "sigma = 0.84\ninterference = noon\nmode = far")
    with pytest.raises(ConfigurationError, match="near-field"):
        parse_config(text)


def test_overrides():
    cfg = parse_config(GRATING_INI, overrides=["pairs.sigma=0.5", "rng.seed=11"])
    assert cfg.pairs["sigma"] == 0.5
    assert cfg.seed == 11
    with pytest.raises(ConfigurationError, match="no such setting"):
        parse_config(GRATING_INI, overrides=["pairs.bogus=1"])
    with pytest.raises(ConfigurationError, match="section.key=value"):
        parse_config(GRATING_INI, overrides=["sigma0.5"])
    with pytest.raises(ConfigurationError, match="override"):
        parse_config(GRATING_INI, overrides=["pairs.sigma=-1"])


def test_threshold_and_workers_accept_none():
    cfg = parse_config(GRATING_INI +
                       "\n[processing]\nthreshold = none\nworkers = 4\n")
    assert cfg.processing["threshold"] is None
    assert cfg.processing["workers"] == 4
    assert "threshold = none" in cfg.text


def test_build_scene_matches_direct_construction():
    cfg = parse_config(GRATING_INI)
    scene = build_scene(cfg)
    direct = grating(32, 5.0, 0.1)
    assert np.array_equal(scene.magnitude2, direct.magnitude2)
    # every kind, with its owned keys away from their defaults
    for kind, keys, direct in (
            ("grating", "size = 12\nperiod = 3\nduty = 0.5\norientation = x",
             grating(12, 3.0, 0.5, orientation="x")),
            ("checkerboard", "size = 8\nblocks = 2\nedge_alignment = quarter",
             checkerboard_phase(8, 2, edge_alignment="quarter")),
            ("cat", "size = 16\noversample = 4", cat_half_plane(16, 4)),
            ("uniform", "size = 6", uniform(6))):
        scene = build_scene(parse_config(f"[scene]\nkind = {kind}\n{keys}\n"))
        assert (scene.size, scene.oversample) == \
            (direct.size, direct.oversample), kind
        assert np.array_equal(scene.magnitude2, direct.magnitude2), kind
        assert np.array_equal(scene.phase, direct.phase), kind
    assert isinstance(build_camera(cfg), IdealCamera)
    spad = parse_config(GRATING_INI + "\n[camera]\nprofile = spad\n")
    assert isinstance(build_camera(spad), SpadCamera)


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigurationError, match="cannot read"):
        load_config(tmp_path / "absent.ini")


def test_manifest_round_trip(tmp_path):
    artifact = tmp_path / "data.bin"
    artifact.write_bytes(b"\x00\x01\x02")
    entry = artifact_entry(artifact, pitch=0.5)
    assert entry["bytes"] == 3
    assert entry["pitch"] == 0.5
    assert len(entry["sha256"]) == 64
    manifest = build_manifest("simulate", {"data.bin": entry},
                              config_text="[scene]\n", seed=7, mode="near")
    path = tmp_path / "manifest.json"
    write_manifest(path, manifest)
    back = read_manifest(path)
    assert back == manifest
    assert back["tool"] == "jpdkit"
    assert back["seed"] == 7
    # canonical rendering: stable key order, no timestamps
    assert path.read_text() == json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    assert "time" not in path.read_text().lower()


def test_artifact_entry_hashes_files_longer_than_a_block(tmp_path):
    data = np.random.default_rng(0).bytes(3 * 2 ** 20 + 5)
    artifact = tmp_path / "stack.bpsr"
    artifact.write_bytes(data)
    assert artifact_entry(artifact) == {
        "sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}


def test_manifest_rejects_foreign_files(tmp_path):
    path = tmp_path / "not.json"
    path.write_text("{broken")
    with pytest.raises(FileFormatError, match="JSON"):
        read_manifest(path)
    path.write_text(json.dumps({"tool": "other"}))
    with pytest.raises(FileFormatError, match="manifest"):
        read_manifest(path)
    with pytest.raises(FileFormatError, match="cannot read"):
        read_manifest(tmp_path / "absent.json")
    # the fields a later stage reads must have the types it expects
    for field in ({"camera": ["x"]}, {"config": 5}, {"mode": None},
                  {"artifacts": []}, {"artifacts": {"image.npy": 3}}):
        path.write_text(json.dumps({"tool": "jpdkit", **field}))
        with pytest.raises(FileFormatError, match="manifest"):
            read_manifest(path)


CONFIGS = Path(__file__).resolve().parents[1] / "configs"

CANONICAL_DIGESTS = {
    "cat_far_field:ideal": "ecf1d8e58b57ca8ff9da8215fd999a977fcd371c80a51333ab92fb64c4698a1e",
    "cat_far_field:emccd": "32ca01667a8600a7e5f6385a74522fb51a1e06762a00e4dc479ad2d4f13fb48f",
    "cat_far_field:spad": "8ca52b597545ba0654242e0112de518ac6e89c7250b9d54da196dd5a9c859fc3",
    "fine_grating_emccd:ideal": "8c521a1d659f23391212f4005da7b57290e278f82b98a82c7b95c17a69e88243",
    "fine_grating_emccd:emccd": "a0e0ba4617b80cf9c1fa86ca2983369a16d2866e0bde02cb44f76a7f5daf3914",
    "fine_grating_emccd:spad": "32adbbc498357b1911f56f5ac6c649e56809adae81f500dcc816ccf8825f7795",
    "grating_superres:ideal": "4b12318f4b733749e7f2fca0f1ac2c9276e660ab3fdba603010139465af20a7b",
    "grating_superres:emccd": "94c88e614be3d4ff247e59d1b83cb4797daf1262883e7734d0465baf1033b92e",
    "grating_superres:spad": "d021cce353dd6eb6e1e44997d1604d7c3be18cd07568732b091fd9a1e2d7ec2f",
    "noon_phase:ideal": "032989674509f61fe4090611f17371193656502d04b959435d85211d76a54696",
    "noon_phase:emccd": "3f847be564d3dd8e2c2b61ce2d0db6a980b092344109819378c4cdb6755c8a92",
    "noon_phase:spad": "8246c52d727615d3da23d9d125533e3cd843d5fd940273766faa5d7c720ea0b7",
    "checkerboard": "ca3e4fee0b6e9e752a34b398602cca6617f385259ac9207eda21ac05d793f4d2",
    "uniform_emccd": "250217fd272fd39f918da2dce12506127e3be80e038faaa09fb1b597107243c5",
}


def _canonical_texts():
    texts = {}
    for path in sorted(CONFIGS.glob("*.ini")):
        for profile in ("ideal", "emccd", "spad"):
            text = path.read_text()
            if profile != "emccd":
                text = "".join(line for line in text.splitlines(True)
                               if not line.startswith("gain_cv"))
            texts[f"{path.stem}:{profile}"] = parse_config(
                text, [f"camera.profile={profile}"]).text
    texts["checkerboard"] = parse_config(
        "[scene]\nkind = checkerboard\nsize = 12\nblocks = 4\n"
        "edge_alignment = quarter\n\n[processing]\nworkers = 2\n").text
    texts["uniform_emccd"] = parse_config(
        "[scene]\nkind = uniform\nsize = 6\n\n[camera]\nprofile = emccd\n"
        "gain_mean = 50\ngain_cv = 0.1\nread_sigma = 2\nsmear = 0.25\n\n"
        "[processing]\nthreshold = none\nnormalize = no\n").text
    return texts


def test_canonical_text_is_pinned():
    # manifests embed this text, so its bytes are part of every rerun check
    digests = {name: hashlib.sha256(text.encode()).hexdigest()
               for name, text in _canonical_texts().items()}
    assert digests == CANONICAL_DIGESTS


# every key that belongs to one scene kind or camera profile, with a legal
# value, its owner and the other kinds or profiles
OWNED_KEYS = {
    ("scene", "period"): ("3", "grating", ("checkerboard", "cat", "uniform")),
    ("scene", "duty"): ("0.5", "grating", ("checkerboard", "cat", "uniform")),
    ("scene", "orientation"): ("x", "grating",
                               ("checkerboard", "cat", "uniform")),
    ("scene", "blocks"): ("2", "checkerboard", ("grating", "cat", "uniform")),
    ("scene", "edge_alignment"): ("quarter", "checkerboard",
                                  ("grating", "cat", "uniform")),
    ("camera", "gain_mean"): ("10", "emccd", ("ideal", "spad")),
    ("camera", "gain_cv"): ("0.1", "emccd", ("ideal", "spad")),
    ("camera", "read_sigma"): ("1", "emccd", ("ideal", "spad")),
    ("camera", "smear"): ("0.1", "emccd", ("ideal", "spad")),
}


def _scene_text(kind):
    extra = "period = 3\nduty = 0.5\n" if kind == "grating" else ""
    return f"[scene]\nkind = {kind}\nsize = 12\n{extra}"


def test_keys_of_other_kinds_and_profiles_do_not_apply():
    for (section, key), (value, owner, others) in OWNED_KEYS.items():
        for other in others:
            if section == "scene":
                base, target = _scene_text(other), f"a {other} scene"
            else:
                base = _scene_text("uniform") + f"\n[camera]\nprofile = {other}\n"
                target = f"the {other} profile"
            text = base + f"{key} = {value}\n"
            line = text.count("\n")
            with pytest.raises(ConfigurationError) as info:
                parse_config(text)
            assert str(info.value) == (f"[{section}] {key}: does not apply "
                                       f"to {target} (line {line})")
            with pytest.raises(ConfigurationError) as info:
                parse_config(base, [f"{section}.{key}={value}"])
            assert str(info.value) == (f"override '{section}.{key}={value}': "
                                       f"does not apply to {target}")
        # and under its owner the key is accepted and rendered
        owned = (_scene_text(owner) if section == "scene" else
                 _scene_text("uniform") + f"\n[camera]\nprofile = {owner}\n")
        rendered = parse_config(owned, [f"{section}.{key}={value}"]).text
        assert f"\n{key} = " in rendered


# strings for any setting: integers and floats of either sign and any size,
# the words of every choice, booleans, none and junk
SETTING_VALUES = st.one_of(
    st.integers(-3, 2 ** 33).map(str),
    st.floats().map(repr),
    st.sampled_from(["", "none", "true", "off", "y", "x", "pixel", "quarter",
                     "noon", "abc", " 7 ", *SCENES, *CAMERAS, *MODES]))


@settings(max_examples=300, deadline=None)
@given(name=st.sampled_from(sorted(_SETTINGS)),
       kind=st.sampled_from(sorted(SCENES)),
       profile=st.sampled_from(sorted(CAMERAS)),
       to_owner=st.booleans(), value=SETTING_VALUES)
def test_file_and_override_values_are_read_alike(name, kind, profile,
                                                 to_owner, value):
    section, key = name
    _, _, *owner = _SETTINGS[name]
    if owner and to_owner:
        kind, profile = (owner[0], profile) if section == "scene" \
            else (kind, owner[0])
    base = {"scene": {"kind": kind, "size": "24"}, "pairs": {"frames": "50"},
            "camera": {"profile": profile}}
    if kind == "grating":
        base["scene"].update(period="3", duty="0.5")
    base.setdefault(section, {}).pop(key, None)

    def render(sections):
        return "".join(f"[{title}]\n" + "".join(f"{k} = {v}\n"
                                                for k, v in values.items())
                       for title, values in sections.items())

    text = render(base)
    in_file = render({**base, section: {**base[section], key: value}})
    assignment = f"{section}.{key}={value}"
    try:
        from_file = parse_config(in_file)
    except ConfigurationError as exc:
        with pytest.raises(ConfigurationError) as info:
            parse_config(text, [assignment])
        # an error about this value names its source; one about another
        # setting reads the same either way
        line = in_file.splitlines().index(f"{key} = {value}") + 1
        where, suffix = f"[{section}] {key}: ", f" (line {line})"
        message = str(exc)
        if message.startswith(where) and message.endswith(suffix):
            message = (f"override {assignment!r}: "
                       + message[len(where):-len(suffix)])
        assert str(info.value) == message
    else:
        assert parse_config(text, [assignment]) == from_file


def test_last_source_of_a_setting_wins():
    # a value that another source replaces is never parsed
    bad = GRATING_INI.replace("sigma = 0.84", "sigma = -1")
    assert parse_config(bad, ["pairs.sigma=0.5"]).pairs["sigma"] == 0.5
    cfg = parse_config(GRATING_INI, ["pairs.sigma=-1", "pairs.sigma=0.25"])
    assert cfg.pairs["sigma"] == 0.25
    with pytest.raises(ConfigurationError) as info:
        parse_config(GRATING_INI, ["pairs.sigma=0.25", "pairs.sigma=nan"])
    assert str(info.value) == "override 'pairs.sigma=nan': must be finite"
