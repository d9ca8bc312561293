import math
import tracemalloc

import numpy as np
import pytest

from jpdkit.errors import (ConfigurationError, FrameShapeError,
                           InsufficientDataError)
from jpdkit.holography import (INTENSITY_SHIFTS, PAIR_SHIFTS,
                               analytic_intensity_phase_map,
                               analytic_pair_phase_map, dominant_period,
                               double_phase_curve, four_step_phase,
                               intensity_phase_map, pair_phase_map,
                               reference_intensity_phase, reference_pair_phase,
                               simulate_pair_phase_stacks, wrap_phase)
from jpdkit.jpd import accumulate_jpd
from jpdkit.pipeline import process_jpd, super_resolve
from jpdkit.scenes import checkerboard_phase, uniform
from jpdkit.simulate import EmccdCamera


def test_wrap_phase():
    assert wrap_phase(0.3) == pytest.approx(0.3)
    assert wrap_phase(2 * math.pi + 0.3) == pytest.approx(0.3)
    assert abs(wrap_phase(-3 * math.pi)) == pytest.approx(math.pi)
    assert wrap_phase(math.pi) == math.pi
    x = np.linspace(-10, 10, 101)
    w = wrap_phase(x)
    assert np.all((w > -math.pi - 1e-12) & (w <= math.pi + 1e-12))
    assert np.allclose(np.exp(1j * w), np.exp(1j * x))


def test_four_step_exact_for_linear_fringe():
    phi = np.linspace(-3, 3, 41)
    signals = [3.7 + 1.2 * np.cos(phi - k * math.pi / 2) for k in range(4)]
    assert np.allclose(four_step_phase(*signals), wrap_phase(phi), atol=1e-12)


def test_four_step_exact_for_squared_pair_fringe():
    # the squared fringe adds a double-frequency harmonic, but it is common
    # mode between acquisitions half a fringe apart and cancels
    theta = np.linspace(-1.5, 1.5, 37)
    v = 0.8
    signals = [(1 + v * np.cos(2 * theta - 2 * a)) ** 2 for a in PAIR_SHIFTS]
    assert np.allclose(four_step_phase(*signals), wrap_phase(2 * theta),
                       atol=1e-12)


def test_analytic_pair_phase_matches_reference():
    scene = checkerboard_phase(6, blocks=3, oversample=8,
                               edge_alignment="quarter")
    got = analytic_pair_phase_map(scene, contrast=1.0, sigma=0.0)
    want = reference_pair_phase(scene)
    assert got.values.shape == (11, 11)
    err = np.abs(wrap_phase(got.values - want.values))
    assert err.max() < 1e-9


def test_analytic_intensity_phase_matches_reference():
    scene = checkerboard_phase(6, blocks=3, oversample=8,
                               edge_alignment="pixel")
    got = analytic_intensity_phase_map(scene, contrast=1.0)
    want = reference_intensity_phase(scene)
    err = np.abs(wrap_phase(got - want))
    assert err.max() < 1e-9


def test_simulated_pair_phase_tracks_analytic():
    scene = checkerboard_phase(6, blocks=3, oversample=8,
                               edge_alignment="quarter")
    stacks = simulate_pair_phase_stacks(scene, sigma=0.5, pair_rate=40.0,
                                        n_frames=3000, seed=5)
    got = pair_phase_map(stacks, band_radius=1)
    want = analytic_pair_phase_map(scene, sigma=0.5)
    rms = np.sqrt(np.mean(wrap_phase(got.values - want.values) ** 2))
    assert rms < 0.25


def _held(stacks):
    """The stacks of simulate_pair_phase_stacks, each rendered whole."""
    return [np.concatenate(list(blocks)) for blocks in stacks]


def test_pair_stacks_have_independent_streams():
    scene = checkerboard_phase(4, blocks=2, oversample=8,
                               edge_alignment="quarter")
    stacks = _held(simulate_pair_phase_stacks(scene, sigma=0.4, pair_rate=20.0,
                                              n_frames=40, seed=0))
    assert len(stacks) == 4
    assert not np.array_equal(stacks[0], stacks[1])
    again = _held(simulate_pair_phase_stacks(scene, sigma=0.4, pair_rate=20.0,
                                             n_frames=40, seed=0))
    for a, b in zip(stacks, again):
        assert np.array_equal(a, b)


def test_pair_phase_map_holds_less_than_one_stack():
    # the streams are rendered only as reconstruct reads them, so the
    # phase map never holds one shift's stack, let alone four
    n_frames = 20_000
    scene = checkerboard_phase(30, 3, edge_alignment="quarter")
    stack_bytes = n_frames * 30 * 30 * 2  # one shift's u16 stack
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        image = pair_phase_map(simulate_pair_phase_stacks(
            scene, sigma=0.6, pair_rate=60.0, n_frames=n_frames, seed=7))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert image.values.shape == (59, 59)
    assert peak < stack_bytes


def test_pair_phase_map_with_camera_policy():
    scene = checkerboard_phase(4, blocks=2, oversample=8,
                               edge_alignment="quarter")
    stacks = simulate_pair_phase_stacks(
        scene, sigma=0.4, pair_rate=30.0, n_frames=500, seed=2,
        camera=EmccdCamera(gain_mean=50.0, read_sigma=1.0))
    img = pair_phase_map(stacks, camera=EmccdCamera(gain_mean=50.0,
                                                    read_sigma=1.0))
    assert img.values.shape == (7, 7)
    assert np.all(np.isfinite(img.values))


def test_pair_phase_map_equals_hand_composed_pipeline():
    scene = checkerboard_phase(4, blocks=2, oversample=8,
                               edge_alignment="quarter")
    for camera, k, workers in [(None, 1, None),
                               (EmccdCamera(gain_mean=50.0), 2, 2)]:
        def draw():
            return simulate_pair_phase_stacks(
                scene, sigma=0.4, pair_rate=30.0, n_frames=300,
                camera=camera, seed=3)

        # the streams as pair_phase_map reads them, the hand-composed
        # pipeline on a second draw rendered whole
        got = pair_phase_map(draw(), camera=camera, band_radius=k,
                             chunk_size=64, workers=workers)
        stacks = _held(draw())
        images = [super_resolve(process_jpd(
            accumulate_jpd(frames, "near", k, chunk_size=64, workers=workers),
            camera, threshold=None, normalize=False)) for frames in stacks]
        want = four_step_phase(*(im.values for im in images))
        assert got.values.tobytes() == want.tobytes()
        assert got.counts.tobytes() == images[0].counts.tobytes()
        assert (got.pitch, got.origin) == (images[0].pitch, images[0].origin)
    with pytest.raises(ConfigurationError, match="band radius 0"):
        pair_phase_map(stacks, band_radius=0)


def test_phase_map_input_validation():
    with pytest.raises(ConfigurationError):
        pair_phase_map([np.zeros((3, 4, 4))] * 3)
    with pytest.raises(ConfigurationError):
        intensity_phase_map([np.zeros((3, 4, 4))] * 5)
    # each intensity stack is a frame stack of at least one frame: 2-D
    # arrays would average to a 1-D "phase map", empty stacks to NaNs
    with pytest.raises(FrameShapeError, match="must be 3-D"):
        intensity_phase_map([np.ones((4, 5))] * 4)
    with pytest.raises(InsufficientDataError, match="got 0"):
        intensity_phase_map([np.ones((2, 4, 5))] * 3 + [np.ones((0, 4, 5))])
    with pytest.raises(FrameShapeError, match="frame samples must be"):
        intensity_phase_map([np.ones((2, 4, 5), complex)] * 4)


def test_intensity_phase_map_averages_frames():
    phi = 0.7
    base = [10.0 + 4.0 * math.cos(phi - a) for a in INTENSITY_SHIFTS]
    stacks = [np.stack([np.full((2, 2), s - 1.0), np.full((2, 2), s + 1.0)])
              for s in base]
    out = intensity_phase_map(stacks)
    assert np.allclose(out, phi)


def test_double_phase_curve_periods():
    scene = uniform(4)
    shifts = np.linspace(0.0, 2 * math.pi, 16, endpoint=False)
    pair = double_phase_curve(scene, shifts, kind="pair")
    intensity = double_phase_curve(scene, shifts, kind="intensity")
    assert dominant_period(shifts, pair) == pytest.approx(math.pi)
    assert dominant_period(shifts, intensity) == pytest.approx(2 * math.pi)
    with pytest.raises(ConfigurationError):
        double_phase_curve(scene, shifts, kind="both")


def test_dominant_period_validation():
    with pytest.raises(ConfigurationError):
        dominant_period(np.array([0.0, 1.0]), np.array([1.0, 2.0]))
    with pytest.raises(ConfigurationError):
        dominant_period(np.array([0.0, 1.0, 3.0]), np.ones(3))
    with pytest.raises(ConfigurationError):
        dominant_period(np.linspace(0, 1, 5), np.ones(4))
