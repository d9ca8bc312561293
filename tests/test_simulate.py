import collections
import hashlib
import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, signal

from jpdkit.errors import ConfigurationError, DegenerateDensityError
from jpdkit.jpd import (accumulate_jpd, minus_projection, structural_validity,
                        sum_projection)
from jpdkit.scenes import Scene, grating, half_pixel_average, uniform
import jpdkit.simulate as simulate_module
from jpdkit.simulate import (RENDER_PIXELS, SEARCH_PIECE, SIM_CHUNK_FRAMES,
                             EmccdCamera, IdealCamera, SpadCamera,
                             _axis_capture, _ChunkCounts, _cells_below,
                             _normalized_density, _step_table, analytic_jpd,
                             camera_by_name, classical_fringe,
                             interference_rate, noon_density, simulate_chunks,
                             simulate_frames, simulate_intensity_frames)

# frames per render block of 32 x 32 frames; the tests below cut stacks of
# other frame sizes into blocks of as many frames
BLOCK = RENDER_PIXELS // 32 ** 2


def _render(camera, counts, rng):
    """A camera's render of *counts*, its blocks joined into one array."""
    return np.concatenate(list(camera.render(counts, rng)))


def test_photons_far_off_the_sensor_are_dropped_before_any_cast():
    # float-to-int casts of such positions are undefined; only positions
    # on the sensor may reach one
    for mode in ("near", "far"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            frames = simulate_frames(uniform(4), mode, sigma=1e300,
                                     pair_rate=20.0, n_frames=50, seed=1)
        assert frames.shape == (50, 4, 4) and not frames.any()


def test_simulation_parameter_validation():
    scene = uniform(4)
    with pytest.raises(ConfigurationError):
        simulate_frames(scene, mode="mid")
    with pytest.raises(ConfigurationError):
        simulate_frames(scene, sigma=-0.1)
    with pytest.raises(ConfigurationError):
        simulate_frames(scene, pair_rate=0.0)
    with pytest.raises(ConfigurationError):
        simulate_frames(scene, n_frames=0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ConfigurationError):
            simulate_frames(scene, sigma=bad)
    # beyond numpy's Poisson sampler, which raises a bare ValueError
    for bad in (math.nan, math.inf, 1e300):
        with pytest.raises(ConfigurationError):
            simulate_frames(scene, pair_rate=bad)
        with pytest.raises(ConfigurationError):
            simulate_intensity_frames(scene, scene.magnitude2, bad, 5)
    for seed in (-1, (3, -2)):
        with pytest.raises(ConfigurationError, match="seed"):
            simulate_frames(scene, seed=seed)
    with pytest.raises(ConfigurationError, match="density shape"):
        simulate_frames(scene, density=np.ones((4, 4)))
    with pytest.raises(DegenerateDensityError):
        simulate_frames(scene, density=np.zeros((32, 32)))
    with pytest.raises(DegenerateDensityError):
        simulate_frames(scene, density=-np.ones((32, 32)))
    # the chunk iterator checks when it is made, before any chunk renders
    with pytest.raises(ConfigurationError):
        simulate_chunks(scene, sigma=-0.1)
    with pytest.raises(DegenerateDensityError):
        simulate_chunks(scene, density=np.zeros((32, 32)))


@pytest.mark.parametrize("bad", [
    {"seed": -1}, {"seed": 1.5}, {"seed": (1, "a")}, {"seed": (1, 2.5)},
    {"pair_rate": 0.0}, {"n_frames": 0}])
def test_chunk_iterator_checks_rate_frames_and_seed_when_made(bad):
    # no chunk is asked for: the call itself must raise
    with pytest.raises(ConfigurationError,
                       match="seed" if "seed" in bad else "n_frames"):
        simulate_chunks(uniform(4), **bad)


def test_determinism_and_chunked_streams():
    scene = grating(8, period=3.0, duty=0.5)
    a = simulate_frames(scene, sigma=0.4, pair_rate=5.0, n_frames=50, seed=9)
    b = simulate_frames(scene, sigma=0.4, pair_rate=5.0, n_frames=50, seed=9)
    assert np.array_equal(a, b)
    c = simulate_frames(scene, sigma=0.4, pair_rate=5.0, n_frames=50, seed=10)
    assert not np.array_equal(a, c)
    # tuple seeds label independent streams; a bare int means a 1-tuple
    d = simulate_frames(scene, sigma=0.4, pair_rate=5.0, n_frames=50, seed=(9,))
    assert np.array_equal(a, d)
    e = simulate_frames(scene, sigma=0.4, pair_rate=5.0, n_frames=50, seed=(9, 1))
    assert not np.array_equal(a, e)


def test_chunk_boundary_prefix_property():
    # each fixed-size chunk draws from its own stream, so a longer run
    # reproduces a shorter one bit for bit on the shared prefix
    scene = uniform(4)
    long = simulate_frames(scene, pair_rate=2.0, n_frames=SIM_CHUNK_FRAMES + 4,
                           seed=3)
    short = simulate_frames(scene, pair_rate=2.0, n_frames=SIM_CHUNK_FRAMES,
                            seed=3)
    assert np.array_equal(long[:SIM_CHUNK_FRAMES], short)


def test_chunks_are_the_stack_in_order():
    scene = uniform(4)
    chunks = list(simulate_chunks(scene, pair_rate=2.0,
                                  n_frames=SIM_CHUNK_FRAMES + 3, seed=3))
    assert [len(c) for c in chunks] == [SIM_CHUNK_FRAMES, 3]
    assert np.array_equal(np.concatenate(chunks), simulate_frames(
        scene, pair_rate=2.0, n_frames=SIM_CHUNK_FRAMES + 3, seed=3))


@st.composite
def cdfs_and_draws(draw):
    """A normalized CDF with runs of zero mass, and draws in [0, 1) that
    repeat each other and hit CDF values exactly."""
    weights = draw(st.lists(st.sampled_from([0.0, 0.0, 0.5, 1.0, 3.0]),
                            min_size=1, max_size=30))
    weights[draw(st.integers(0, len(weights) - 1))] = 1.0
    cum = np.cumsum(weights) / sum(weights)
    values = draw(st.lists(st.one_of(
        st.sampled_from(sorted({0.0, *cum[cum < 1]})),
        st.floats(0.0, 1.0, exclude_max=True)), min_size=1, max_size=8))
    return cum, np.array(draw(st.lists(st.sampled_from(values), max_size=60)))


def _table_search(cum, u):
    """The simulator's search of the draws *u* in the CDF *cum*: through
    its step table, built in a copy of *cum*, which it takes over."""
    return _cells_below(*_step_table(cum.copy()), u.copy())


@settings(max_examples=300, deadline=None)
@given(cdfs_and_draws(), st.sampled_from([SEARCH_PIECE, 1, 3]))
def test_sorted_search_equals_searchsorted(case, piece):
    cum, u = case
    with pytest.MonkeyPatch.context() as mp:
        # the values searched into the draws whole, or 1 or 3 at a time
        mp.setattr(simulate_module, "SEARCH_PIECE", piece)
        assert np.array_equal(_table_search(cum, u), np.searchsorted(cum, u))


@pytest.mark.parametrize("cum, u", [
    # a CDF whose last value is below 1, with draws past it
    ([0.1, 0.1, 0.3, 0.6], [0.7, 0.6, 0.99, 0.0, 0.1, 0.35]),
    # one cell
    ([1.0], [0.0, 0.5, 0.999]),
    ([0.5], [0.25, 0.5, 0.75]),
    # no draws
    ([0.2, 0.2, 1.0], []),
    # fewer than 1.5 draws per value: each draw searched in the values
    ([0.25, 0.5, 0.5, 0.75, 1.0], [0.5, 0.1, 0.8, 0.0, 0.75]),
])
def test_table_search_at_the_edges(cum, u):
    cum, u = np.array(cum), np.array(u, dtype=np.float64)
    assert np.array_equal(_table_search(cum, u), np.searchsorted(cum, u))


@pytest.mark.parametrize("steps, identity", [(3, False), (4, True)])
def test_table_on_either_side_of_two_thirds(steps, identity):
    # six cells: 3 distinct values take 3 * 12 + 4 = 40 bytes of the CDF's
    # 48, 4 would take 52, so the CDF is its own table from 4 on
    cum = np.repeat(np.arange(1, steps + 1) / steps, [6 - steps + 1]
                    + [1] * (steps - 1))
    assert cum.size == 6 and np.unique(cum).size == steps
    buffer = cum.copy()
    values, starts = _step_table(buffer)
    assert (starts is None) == identity
    # the table lives in the CDF's own buffer
    assert np.shares_memory(values, buffer)
    if not identity:
        assert np.shares_memory(starts, buffer)
        assert np.array_equal(values, np.unique(cum))
        assert np.array_equal(starts, [0, 6 - steps + 1, 6 - steps + 2, 6])
    u = np.concatenate([np.linspace(0, 1, 13), cum])
    assert np.array_equal(_cells_below(values, starts, u),
                          np.searchsorted(cum, u))


@pytest.mark.parametrize("cells, steps", [(120_000, 70_000),
                                          (80_000, 70_000)])
@pytest.mark.parametrize("n_random", [100_000, 1_000])
def test_table_search_in_several_pieces(cells, steps, n_random):
    # more than 2**16 distinct values: with 1.5 or more draws per value
    # they are counted into the draws in two pieces, with fewer each draw
    # is searched in them; once through starts (58 % of the cells are
    # steps), once with the CDF as its own table (88 %)
    first = np.linspace(0, cells - 1, steps).astype(np.int64)
    weights = np.zeros(cells)
    weights[first] = np.arange(1, steps + 1)
    cum = np.cumsum(weights) / weights.sum()
    d = np.unique(cum).size
    assert d == steps + (weights[0] == 0) > SEARCH_PIECE
    rng = np.random.default_rng(12)
    u = np.concatenate([rng.random(n_random), cum[::7], [0.0, 1.0]])
    rng.shuffle(u)
    assert (2 * u.size >= 3 * d) == (n_random == 100_000)
    assert (_step_table(cum.copy())[1] is None) == (cells == 80_000)
    assert np.array_equal(_table_search(cum, u), np.searchsorted(cum, u))


def _traced_peak(make):
    """``make()`` and the peak of the memory it traced above the start."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        made = make()
        return made, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


# array headers, views and Python ints around the arrays a bound counts
SMALL_OBJECTS = 4096


@pytest.mark.parametrize("scene, identity", [
    # every cell a step: the CDF is its own table
    (uniform(256, oversample=4), True),
    # about 31 % of the cells are steps
    (grating(256, period=1.6, duty=0.3125, oversample=4), False)])
def test_step_table_memory(scene, identity):
    p = _normalized_density(scene, "near", None)
    cells = p.size
    assert cells == 1024 ** 2
    cum = np.cumsum(p, out=p)
    # the search's expected cells, from the CDF before the build takes it
    cdf = cum.copy()
    # the build: the density's buffer becomes the CDF and then the table,
    # beside one bool per cell and one piece's values or starts (intp)
    (values, starts), peak = _traced_peak(lambda: _step_table(cum))
    assert peak <= cells + 8 * SEARCH_PIECE + SMALL_OBJECTS, peak
    assert (starts is None) == identity
    # the table holds no more bytes than the CDF, in the CDF's buffer
    held = values.nbytes + (0 if identity else starts.nbytes)
    assert held <= cells * 8
    assert all(np.shares_memory(a, p) for a in (values, starts)
               if a is not None)
    # a search holds at most four arrays of 8 (draws + 1) bytes at once:
    # the draws' order and the sorted draws (which become the cells), with
    # either the unsorted draws, or the values below each draw and, when
    # counting, one piece's counts (or the cells gathered from the int32
    # starts); and, when counting, one piece's positions among the draws.
    # One 600-frame chunk at 40 events per frame searches each draw in the
    # values; twice as many draws as values are counted into
    sizes = [40 * 600] + ([] if identity else [2 * values.size])
    for n in sizes:
        draws = np.random.default_rng(2).random(n)
        expected = np.searchsorted(cdf, draws)
        found, peak = _traced_peak(
            lambda: _cells_below(values, starts, draws.copy()))
        assert np.array_equal(found, expected)
        assert peak <= 4 * 8 * (n + 1) + 8 * SEARCH_PIECE + SMALL_OBJECTS, (
            n, peak)


@pytest.mark.parametrize("n", [1, BLOCK - 1, BLOCK, BLOCK + 1, 1100])
def test_block_binning_equals_indexed_add_at(n):
    # a chunk's counts, binned a block of frames at a time by the flat,
    # same-dtype np.add.at, equal the (frame, y, x) one
    rng = np.random.default_rng(4)
    m = 5
    # photons in the last frame of each block and the first of the next
    edges = [f for b in range(BLOCK, n, BLOCK) for f in (b - 1, b)]
    frame_of = np.sort(np.concatenate([rng.integers(0, n, 9000),
                                       np.repeat(edges, 40).astype(int)]))
    source = _ChunkCounts(n, m)
    reference = np.zeros((n, m, m), dtype=np.int32)
    # one array per photon of a pair; the second adds 70 000 photons to
    # one pixel of the last frame, past the u16 full scale
    for extra in (0, 70000):
        f = np.concatenate([frame_of, np.full(extra, n - 1)])
        # some positions are off the sensor
        py = np.concatenate([rng.uniform(-3, m + 2, frame_of.size),
                             np.full(extra, 1.2)])
        px = np.concatenate([rng.uniform(-3, m + 2, frame_of.size),
                             np.full(extra, 3.4)])
        # the reference first: add consumes the position arrays
        y, x = py + 0.5, px + 0.5
        ok = (y >= 0) & (y < m) & (x >= 0) & (x < m)
        np.add.at(reference, (f[ok], y[ok].astype(np.int64),
                              x[ok].astype(np.int64)), 1)
        source.add(f, (py, px))
    blocks = [source[a:a + BLOCK] for a in range(0, n, BLOCK)]
    assert source.shape == (n, m, m)
    # uint16 for blocks under 2**16 photons, int32 for the last block,
    # which holds the 70 000-photon pixel
    assert [block.dtype for block in blocks] == (
        [np.uint16] * (len(blocks) - 1) + [np.int32])
    assert np.array_equal(np.concatenate(blocks), reference)
    assert np.array_equal(source[n // 3:n], reference[n // 3:])
    assert reference[n - 1, 1, 3] >= 70000
    assert reference.sum() < 2 * frame_of.size + 70000
    assert all(reference[e].any() for e in edges)


@pytest.mark.parametrize("n", [2047, 2048, SIM_CHUNK_FRAMES])
def test_flat_index_past_int32_lands_on_its_pixel(n):
    # frames of 1024 x 1024: the last pixel's flat index n * 2**20 - 1 fits
    # int32 below n = 2048 and needs int64 from there on (4.29e9 > 2**31
    # at n = 4096)
    source = _ChunkCounts(n, 1024)
    source.add(np.array([0, n - 1, n - 1], dtype=np.int32),
               (np.array([5.0, 1023.2, 1022.6]),
                np.array([7.0, 1022.9, 1023.4])))
    # only the last frame's block is made
    last = source[n - 1:n]
    assert last.shape == (1, 1024, 1024)
    assert last[0, 1023, 1023] == 2 and last.sum() == 2


@pytest.mark.parametrize("photons, dtype", [(2 ** 16 - 1, np.uint16),
                                             (2 ** 16, np.int32)])
def test_block_counts_are_u16_below_2_16_photons(photons, dtype):
    # every photon of the slice in one pixel: 65535 fits u16, 65536 not
    source = _ChunkCounts(3, 4)
    source.add(np.full(photons, 1), (np.full(photons, 2.0),
                                     np.full(photons, 3.0)))
    block = source[0:3]
    assert block.dtype == dtype
    assert block[1, 2, 3] == photons and block.sum() == photons
    assert source[2:3].dtype == np.uint16


@st.composite
def block_counts(draw):
    """Counts of n frames (n on both sides of block edges), as an ndarray
    and as the simulator's block source; a few pixels past the u16 scale."""
    n = draw(st.sampled_from([1, 2, BLOCK - 1, BLOCK, BLOCK + 1,
                              2 * BLOCK + 3]))
    m = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    counts = rng.poisson(draw(st.sampled_from([0.0, 0.3, 4.0])),
                         (n, m, m)).astype(np.int32)
    counts.flat[rng.integers(0, counts.size, draw(st.integers(0, 2)))] = 70000
    # one photon at each pixel centre per count, frames in order
    frame, y, x = np.unravel_index(
        np.repeat(np.arange(counts.size), counts.ravel()), counts.shape)
    source = _ChunkCounts(n, m)
    source.add(frame, (y.astype(float), x.astype(float)))
    return counts, source


def _whole_chunk_render(camera, counts, rng):
    """Each camera's render of a whole chunk at once, as it was before
    chunks were rendered in blocks of frames."""
    if isinstance(camera, SpadCamera):
        return counts >= 1
    if isinstance(camera, IdealCamera):
        return np.minimum(counts, 65535).astype(np.uint16)
    n = counts.shape[0]
    gains = rng.normal(camera.gain_mean, camera.gain_cv * camera.gain_mean, n)
    analog = counts * gains[:, None, None]
    for y in range(1, analog.shape[1]):
        analog[:, y] += camera.smear * analog[:, y - 1]
    analog += rng.normal(0.0, camera.read_sigma, analog.shape)
    np.clip(analog, 0, 65535, out=analog)
    return np.round(analog, out=analog).astype(np.uint16)


@settings(max_examples=150, deadline=None)
@given(block_counts(), st.sampled_from([
    IdealCamera(), SpadCamera(), EmccdCamera(),
    EmccdCamera(gain_mean=300.0, gain_cv=0.4, read_sigma=5.0, smear=0.2)]),
    st.integers(0, 2 ** 32 - 1),
    st.sampled_from(["whole block", "7 pixels", "3 frames"]))
def test_block_render_equals_whole_chunk_render(case, camera, seed, noise):
    counts, source = case
    n, h, w = counts.shape
    expected = _whole_chunk_render(camera, counts.copy(),
                                   np.random.default_rng(seed))
    given_counts = counts.copy()
    with pytest.MonkeyPatch.context() as mp:
        # blocks of BLOCK frames, whatever the frame size
        mp.setattr(simulate_module, "RENDER_PIXELS", BLOCK * h * w)
        # EMCCD frames made and their read noise drawn a whole block, 7
        # pixels (part of a frame from 3 x 3 on) or 3 frames at a time
        mp.setattr(simulate_module, "NOISE_PIXELS", {
            "whole block": BLOCK * h * w, "7 pixels": 7,
            "3 frames": 3 * h * w}[noise])
        blocks = list(camera.render(given_counts, np.random.default_rng(seed)))
        assert [len(b) for b in blocks] == [min(BLOCK, n - a)
                                            for a in range(0, n, BLOCK)]
        out = np.concatenate(blocks)
        assert out.dtype == expected.dtype
        assert out.tobytes() == expected.tobytes()
        # the counts are only read
        assert np.array_equal(given_counts, counts)
        # the simulator's source bins the same counts block by block
        out = _render(camera, source, np.random.default_rng(seed))
        assert out.tobytes() == expected.tobytes()


class _ForwardingCamera:
    """Forwards only ``render`` and ``invalid_pair_separation``, as a
    timing proxy around a camera does."""

    def __init__(self, camera):
        self._camera = camera

    def render(self, counts, rng):
        return self._camera.render(counts, rng)

    def invalid_pair_separation(self, dy, dx):
        return self._camera.invalid_pair_separation(dy, dx)


def test_forwarding_camera_gives_the_same_stack(monkeypatch):
    scene = grating(8, period=3.0, duty=0.5)
    # blocks of BLOCK frames of 8 x 8, so the stack spans two
    monkeypatch.setattr(simulate_module, "RENDER_PIXELS", BLOCK * 8 * 8)
    for camera in (IdealCamera(), SpadCamera(),
                   EmccdCamera(gain_mean=50.0, gain_cv=0.1, read_sigma=2.0,
                               smear=0.1)):
        stacks = [simulate_frames(scene, "far", 0.4, 3.0, BLOCK + 7,
                                  camera=cam, seed=5)
                  for cam in (camera, _ForwardingCamera(camera))]
        assert stacks[0].tobytes() == stacks[1].tobytes()


@pytest.mark.parametrize("camera", [
    IdealCamera(), SpadCamera(),
    EmccdCamera(gain_mean=50.0, gain_cv=0.3, read_sigma=2.0, smear=0.1)])
def test_frame_larger_than_the_pixel_budget_renders_one_frame_per_block(
        monkeypatch, camera):
    args = (grating(6, period=3.0, duty=0.5), "near", 0.4, 5.0, 9, camera, 2)
    whole = simulate_frames(*args)
    # 36-pixel frames against a 20-pixel budget, and the read noise drawn
    # 7 values at a time
    monkeypatch.setattr(simulate_module, "RENDER_PIXELS", 20)
    monkeypatch.setattr(simulate_module, "NOISE_PIXELS", 7)
    blocks = list(simulate_chunks(*args))
    assert [len(block) for block in blocks] == [1] * 9
    assert np.concatenate(blocks).tobytes() == whole.tobytes()


@pytest.mark.parametrize("step", [7, 4096, 2 ** 16])
def test_consecutive_draws_are_one_whole_draw(step):
    # the simulator's bytes rest on it: the read noise is drawn in pieces
    n = 70001
    for draw in (lambda rng, k: rng.normal(0.0, 8.0, k),
                 lambda rng, k: rng.random(k)):
        whole = draw(np.random.default_rng(3), n)
        rng = np.random.default_rng(3)
        pieces = [draw(rng, min(step, n - i)) for i in range(0, n, step)]
        assert np.concatenate(pieces).tobytes() == whole.tobytes()


@pytest.mark.parametrize("scale", [0.84 / math.sqrt(2.0), 8.0, 1e-3])
def test_scaled_normal_equals_a_standard_normal_scaled_in_place(scale):
    # the simulator's bytes rest on it: the pair jitter is drawn so, into
    # one reused buffer; it holds while numpy computes 0 + scale * z and
    # does not fuse the multiply-add
    expected = np.random.default_rng(5).normal(0.0, scale, 70001)
    buffer = np.empty(70001)
    np.random.default_rng(5).standard_normal(out=buffer)
    buffer *= scale
    assert buffer.tobytes() == expected.tobytes()


@pytest.mark.parametrize("mode", ["near", "far"])
def test_chunk_peak_is_a_few_arrays_per_event(mode):
    # one 4096-frame chunk of 32 x 32 ideal frames at 60 pairs per frame,
    # whose peak is the event stage's.  Alive at once, per event: y and x
    # (16 B), the reused jitter (8 B), the int32 frame and flat indices
    # (8 B), photon one's kept indices and photon two's (8 B), and at most
    # three masks (3 B): 43 B
    rate = 60.0
    blocks = simulate_chunks(uniform(32), mode, 0.84, rate, SIM_CHUNK_FRAMES,
                             IdealCamera(), 7)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        collections.deque(blocks, maxlen=0)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak / (SIM_CHUNK_FRAMES * rate) < 48, peak


def test_chunk_peak_memory_does_not_grow_with_the_frame_area():
    # one chunk of 512 EMCCD frames at the same pair rate: its events take
    # the same memory at either size, and each render block holds
    # RENDER_PIXELS pixels (128 frames of 64 x 64, 32 of 128 x 128)
    peaks = []
    for size in (64, 128):
        blocks = simulate_chunks(uniform(size, oversample=1), "near", 0.5,
                                 20.0, 512, EmccdCamera(), 0)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            # each block is dropped as soon as it is made
            collections.deque(blocks, maxlen=0)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.05 * peaks[0]
    # far below one float64 array of the 128 x 128 chunk (67 MB)
    assert peaks[1] < 12e6, peaks


def test_photon_bookkeeping_with_delta_density():
    scene = uniform(8)
    density = np.zeros((64, 64))
    density[20, 20] = 1.0     # subcell well inside pixel (2, 2)
    frames = simulate_frames(scene, mode="near", sigma=0.0, pair_rate=4.0,
                             n_frames=200, seed=0, density=density)
    assert frames[:, 2, 2].sum() == frames.sum()
    assert frames.sum() % 2 == 0
    assert frames[:, 2, 2].mean() == pytest.approx(8.0, rel=0.2)
    far = simulate_frames(scene, mode="far", sigma=0.0, pair_rate=4.0,
                          n_frames=200, seed=0, density=density)
    # far partner born point-symmetric about the sum centre 7: pixel (5, 5)
    assert far[:, 2, 2].sum() + far[:, 5, 5].sum() == far.sum()
    assert np.array_equal(far[:, 2, 2], far[:, 5, 5])


def test_axis_capture_matches_quadrature():
    sp = 0.37
    for off in (-1.3, -0.4, 0.0, 0.6, 2.1):
        expected, _ = integrate.quad(
            lambda t: math.exp(-(t - off) ** 2 / (2 * sp * sp))
            / (sp * math.sqrt(2 * math.pi)), -0.5, 0.5)
        assert _axis_capture(np.array(off), sp) == pytest.approx(expected, abs=1e-12)


def test_analytic_sum_projection_equals_half_pixel_density_near():
    scene = grating(6, period=2.5, duty=0.4)
    jpd = analytic_jpd(scene, "near", band_radius=1, sigma=0.0, pair_rate=3.0)
    img = sum_projection(jpd)
    density = scene.near_density()
    expected = half_pixel_average(density, scene.oversample)
    scale = 3.0 * (scene.oversample ** 2 / 4.0) / density.sum()
    assert np.allclose(img.values, scale * expected, atol=1e-13)


def test_analytic_minus_projection_equals_half_pixel_density_far():
    rng = np.random.default_rng(11)
    mag2 = rng.uniform(0.1, 1.0, (32, 32))
    scene = Scene(mag2, np.zeros_like(mag2), size=4, oversample=8)
    jpd = analytic_jpd(scene, "far", band_radius=1, sigma=0.0, pair_rate=2.0)
    img = minus_projection(jpd)
    density = scene.far_density()
    expected = half_pixel_average(density, scene.oversample)
    scale = 2.0 * (scene.oversample ** 2 / 4.0) / density.sum()
    assert np.allclose(img.values, scale * expected, atol=1e-13)


def test_analytic_jpd_validation():
    scene = uniform(4)
    with pytest.raises(ConfigurationError):
        analytic_jpd(scene, "mid")
    with pytest.raises(ConfigurationError):
        analytic_jpd(scene, band_radius=0)
    with pytest.raises(ConfigurationError):
        analytic_jpd(scene, sigma=-1.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ConfigurationError):
            analytic_jpd(scene, sigma=bad)
        with pytest.raises(ConfigurationError):
            analytic_jpd(scene, pair_rate=bad)
    jpd = analytic_jpd(scene, band_radius=1)
    assert jpd.n_frames == 0
    assert jpd.valid[1, 1].all()


def test_analytic_jpd_needs_a_non_negative_pair_rate():
    scene = uniform(6)
    with pytest.raises(ConfigurationError, match="pair_rate >= 0"):
        analytic_jpd(scene, pair_rate=-3.0)
    # a phase map can leave an acquisition no pair flux
    for sigma in (0.0, 0.5):
        assert not analytic_jpd(scene, sigma=sigma, pair_rate=0.0).planes.any()


def test_analytic_jpd_is_estimator_expectation():
    # jittered pairs: the simulated estimate should fluctuate around the
    # closed form, plane by plane
    scene = grating(8, period=3.0, duty=0.5)
    sigma, rate = 0.5, 20.0
    frames = simulate_frames(scene, "near", sigma, rate, n_frames=30000, seed=1)
    est = accumulate_jpd(frames, "near", band_radius=1)
    gt = analytic_jpd(scene, "near", band_radius=1, sigma=sigma, pair_rate=rate)
    mask = gt.valid & (np.abs(gt.planes) > 1e-3 * np.abs(gt.planes).max())
    mask[1, 1] = False    # zero separation: self-product bias, not modeled
    ratio = est.planes[mask].sum() / gt.planes[mask].sum()
    assert ratio == pytest.approx(1.0, abs=0.05)
    corr = np.corrcoef(est.planes[mask], gt.planes[mask])[0, 1]
    assert corr > 0.99


def test_emccd_gain_and_read_noise():
    cam = EmccdCamera(gain_mean=200.0, gain_cv=0.0, read_sigma=0.0)
    counts = np.ones((3, 4, 4), dtype=np.int32)
    out = _render(cam, counts, np.random.default_rng(0))
    assert out.dtype == np.uint16
    assert np.all(out == 200)
    noisy = EmccdCamera(gain_mean=200.0, gain_cv=0.5, read_sigma=8.0)
    out = _render(noisy, counts, np.random.default_rng(0))
    assert out.std() > 0
    dark = _render(noisy, np.zeros((4, 16, 16), np.int32),
                   np.random.default_rng(1))
    # read noise alone: negative excursions clip at zero, positive ones remain
    assert dark.max() > 0
    assert (dark == 0).sum() > dark.size // 3


def test_emccd_smear_decays_down_columns():
    cam = EmccdCamera(gain_mean=100.0, gain_cv=0.0, read_sigma=0.0, smear=0.3)
    counts = np.zeros((1, 6, 3), dtype=np.int32)
    counts[0, 1, 1] = 10
    out = _render(cam, counts, np.random.default_rng(0)).astype(float)
    assert out[0, 1, 1] == 1000
    assert out[0, 2, 1] == pytest.approx(300, abs=1)
    assert out[0, 3, 1] == pytest.approx(90, abs=1)
    assert out[0, 0, 1] == 0


def _render_with_lfilter(cam, counts, rng):
    """EmccdCamera.render with the readout smear as scipy's IIR filter."""
    gains = rng.normal(cam.gain_mean, cam.gain_cv * cam.gain_mean, counts.shape[0])
    analog = counts.astype(np.float64) * gains[:, None, None]
    analog = signal.lfilter([1.0], [1.0, -cam.smear], analog, axis=1)
    analog += rng.normal(0.0, cam.read_sigma, analog.shape)
    return np.round(np.clip(analog, 0, 65535)).astype(np.uint16)


def test_emccd_smear_recurrence_matches_lfilter():
    counts_rng = np.random.default_rng(4)
    for shape in [(3, 1, 5), (2, 1, 1), (4, 6, 1), (5, 7, 9), (2, 32, 32)]:
        counts = counts_rng.integers(0, 40, shape).astype(np.int32)
        for smear in (0.01, 0.1, 0.3, 0.5, 0.9, 0.999):
            for gain_cv in (0.0, 0.7):
                cam = EmccdCamera(gain_mean=300.0, gain_cv=gain_cv,
                                  read_sigma=4.0, smear=smear)
                out = _render(cam, counts, np.random.default_rng(8))
                ref = _render_with_lfilter(cam, counts, np.random.default_rng(8))
                assert out.tobytes() == ref.tobytes(), (shape, smear, gain_cv)


def _emccd_old_formula(cam, counts, rng):
    """EmccdCamera.render's bytes as its formula was first written: c * g,
    the smear recurrence, rng.normal(0, sigma) read noise added per
    NOISE_PIXELS piece, clip, round, cast."""
    gains = rng.normal(cam.gain_mean, cam.gain_cv * cam.gain_mean,
                       counts.shape[0])
    analog = counts * gains[:, None, None]
    for y in range(1, analog.shape[1]):
        analog[:, y] += cam.smear * analog[:, y - 1]
    flat = analog.reshape(-1)
    for i in range(0, flat.size, simulate_module.NOISE_PIXELS):
        part = flat[i:i + simulate_module.NOISE_PIXELS]
        part += rng.normal(0.0, cam.read_sigma, part.size)
    np.clip(analog, 0, 65535, out=analog)
    return np.round(analog, out=analog).astype(np.uint16)


@pytest.mark.parametrize("read_sigma", [0.0, 8.0])
@pytest.mark.parametrize("gain_cv", [0.0, 0.7, 3.0])  # 3: negative gains
@pytest.mark.parametrize("smear", [0.0, 0.3])
@pytest.mark.parametrize("dtype", [np.int32, np.uint16])
def test_emccd_bytes_follow_the_old_formula(read_sigma, gain_cv, smear,
                                            dtype):
    cam = EmccdCamera(gain_mean=60.0, gain_cv=gain_cv,
                      read_sigma=read_sigma, smear=smear)
    rng = np.random.default_rng(21)
    # frames of 32 x 32, of 7 x 9, and of more than NOISE_PIXELS pixels
    for shape in [(5, 32, 32), (3, 7, 9), (2, 300, 300)]:
        counts = rng.poisson(3.0, shape).astype(dtype)
        if dtype == np.int32:
            counts[-1, 2, 4] = 70000  # past the u16 full scale
        out = _render(cam, counts, np.random.default_rng(5))
        ref = _emccd_old_formula(cam, counts, np.random.default_rng(5))
        assert out.tobytes() == ref.tobytes(), shape


def test_camera_invalid_separation_masks():
    assert IdealCamera().invalid_pair_separation(0, 0)
    assert not IdealCamera().invalid_pair_separation(0, 1)
    emccd = EmccdCamera()
    dy = np.arange(-2, 3)[:, None]
    dx = np.arange(-2, 3)[None, :]
    assert np.array_equal(emccd.invalid_pair_separation(dy, dx),
                          np.broadcast_to(dx == 0, (5, 5)))
    spad = SpadCamera()
    ring = spad.invalid_pair_separation(dy, dx)
    assert ring[2, 2] and ring[1, 1] and ring[3, 2]
    assert not ring[0, 2] and not ring[2, 0]


def test_ideal_camera_saturates_at_u16_full_scale():
    # about 150k photons land in each pixel of each frame; cast without a
    # clip they would wrap modulo 65536
    frames = simulate_frames(uniform(2, oversample=1), "near", 0.0, 3e5, 3,
                             IdealCamera(), 0)
    assert frames.dtype == np.uint16
    assert (frames == 65535).all()


def test_spad_binarizes():
    cam = SpadCamera()
    counts = np.array([[[0, 1], [2, 5]]], dtype=np.int32)
    out = _render(cam, counts, np.random.default_rng(0))
    assert out.dtype == np.bool_
    assert np.array_equal(out[0], [[False, True], [True, True]])
    frames = simulate_frames(uniform(4), pair_rate=3.0, n_frames=5, camera=cam)
    assert frames.dtype == np.bool_


def test_emccd_parameter_validation():
    with pytest.raises(ConfigurationError):
        EmccdCamera(gain_mean=0.0)
    with pytest.raises(ConfigurationError):
        EmccdCamera(smear=1.0)
    with pytest.raises(ConfigurationError):
        EmccdCamera(read_sigma=-1.0)
    for bad in (math.nan, math.inf):
        for key in ("gain_mean", "gain_cv", "read_sigma", "smear"):
            with pytest.raises(ConfigurationError):
                EmccdCamera(**{key: bad})


def test_camera_by_name():
    assert isinstance(camera_by_name("ideal"), IdealCamera)
    assert isinstance(camera_by_name("spad"), SpadCamera)
    cam = camera_by_name("emccd", gain_mean=150.0, gain_cv=0.2)
    assert cam.gain_mean == 150.0 and cam.gain_cv == 0.2
    with pytest.raises(ConfigurationError):
        camera_by_name("ideal", gain_mean=1.0)
    with pytest.raises(ConfigurationError):
        camera_by_name("spad", smear=0.1)
    with pytest.raises(ConfigurationError, match="EMCCD parameter"):
        camera_by_name("emccd", bogus=1.0)
    with pytest.raises(ConfigurationError, match="unknown camera"):
        camera_by_name("ccd")


def test_interference_densities():
    scene = Scene(np.full((16, 16), 2.0), np.full((16, 16), 0.3),
                  size=2, oversample=8)
    noon = noon_density(scene, shift=0.1, contrast=0.8)
    expected = 4.0 * (1.0 + 0.8 * math.cos(2 * 0.3 - 2 * 0.1)) ** 2
    assert np.allclose(noon, expected)
    fringe = classical_fringe(scene, shift=0.1, contrast=0.8)
    assert np.allclose(fringe, 2.0 * (1.0 + 0.8 * math.cos(0.3 - 0.1)))


def test_interference_rate_scales_with_pattern_mass():
    ref = np.ones((8, 8))
    assert interference_rate(10.0, 1.5 * ref, ref) == pytest.approx(15.0)
    assert interference_rate(10.0, 0.0 * ref, ref) == 0.0
    with pytest.raises(DegenerateDensityError):
        interference_rate(10.0, ref, 0.0 * ref)


def _half_grid_split_loop(scene, mode):
    """The per-subcell reference for simulate._half_grid_split."""
    m, f = scene.size, scene.oversample
    coords = scene.subcell_coordinates()
    big_c = m - 1
    target = 2.0 * coords - big_c if mode == "far" else 2.0 * coords
    s_all = np.round(target).astype(np.int64)
    mats = {d: np.zeros((m * f, m)) for d in (-1, 0, 1)}
    for j, s in enumerate(s_all):
        if mode == "far":
            parity = (big_c + s) % 2
            options = ((0, 1.0),) if parity == 0 else ((-1, 0.5), (1, 0.5))
            for u, weight in options:
                r1 = (big_c + u + int(s)) // 2
                r2 = r1 - int(s)
                if 0 <= r1 < m and 0 <= r2 < m:
                    mats[u][j, r1] = weight
        else:
            options = ((0, 1.0),) if s % 2 == 0 else ((-1, 0.5), (1, 0.5))
            for d, weight in options:
                r1 = (int(s) - d) // 2
                r2 = (int(s) + d) // 2
                if 0 <= r1 < m and 0 <= r2 < m:
                    mats[d][j, r1] = weight
    return [(d, mats[d]) for d in (-1, 0, 1)]


def _analytic_planes_two_loops(scene, mode, k, sigma, pair_rate):
    """The reference for analytic_jpd's planes: one plane loop per branch."""
    m = scene.size
    n_sub = m * scene.oversample
    rho = pair_rate * _normalized_density(scene, mode, None).reshape(n_sub, n_sub)
    planes = np.zeros((2 * k + 1, 2 * k + 1, m, m))
    if sigma == 0:
        axis_mats = _half_grid_split_loop(scene, mode)
        for dy, wy in axis_mats:
            for dx, wx in axis_mats:
                planes[dy + k, dx + k] = wy.T @ rho @ wx
    else:
        sigma_photon = sigma / math.sqrt(2.0)
        coords = scene.subcell_coordinates()
        r = np.arange(m)
        first = _axis_capture(r[None, :] - coords[:, None], sigma_photon)
        pair_weight = {}
        big_c = m - 1
        for d in range(-k, k + 1):
            # partner pixel minus the partner photon's birth position
            if mode == "near":
                off = (r[None, :] + d) - coords[:, None]
            else:
                off = (big_c - r[None, :] + d) - (big_c - coords[:, None])
            pair_weight[d] = first * _axis_capture(off, sigma_photon)
        for dy in range(-k, k + 1):
            for dx in range(-k, k + 1):
                planes[dy + k, dx + k] = pair_weight[dy].T @ rho @ pair_weight[dx]
        planes *= 2.0
    valid = structural_validity(mode, k, (m, m))
    return np.where(valid, planes, 0.0), valid


def test_analytic_jpd_matches_per_subcell_split_and_branch_loops():
    # oversample 2 and 6 put subcell centres on round() ties of 2x
    rng = np.random.default_rng(21)
    for size in range(2, 18):
        for oversample in (1, 2, 3, 4, 6, 8):
            n = size * oversample
            scene = Scene(rng.uniform(0.05, 1.0, (n, n)), np.zeros((n, n)),
                          size, oversample)
            for mode, sigma, k in itertools.product(
                    ("near", "far"), (0.0, 0.3, 0.84), range(1, 5)):
                jpd = analytic_jpd(scene, mode, k, sigma, pair_rate=2.5)
                planes, valid = _analytic_planes_two_loops(
                    scene, mode, k, sigma, 2.5)
                case = (size, oversample, mode, sigma, k)
                assert jpd.planes.tobytes() == planes.tobytes(), case
                assert jpd.valid.tobytes() == valid.tobytes(), case
                assert jpd.active.all(), case


# SHA-256 of small stacks from both simulators: any change to the RNG draw
# order (poisson, site, y, x, then jitter), the binning or the rendering
# changes them
STACK_DIGESTS = {
    "near_sigma": "ea13815e3f2acdccaf9d16ae065a34bcd4664832541f4777080aaaa8b8bc71f5",
    "near_zero": "79d7e26ef0847f3b86d893bb48ba3c8acdab79d691e0b00de4bbfea6875910d5",
    "far_sigma": "d25a0a36b8719e2da23b659241b5549c4984a77b6fea0d60b0b25d84bcca73b3",
    "far_zero": "eea514b0fa299f8ab042abd0bfc07d1f0817ed1e67da48727ddc0584bb0c4378",
    "intensity": "e41fee863f66cfd7ef0200f839e6e6cb8d40bad531366b8c2dcc3d63401392c6",
    "near_emccd": "04cc8ecbde3a5608c8a7297a8b98ed70776030370a68c113e46200eac45c4ef6",
    "two_chunks": "e2c5652eaaed583381ea7062d038c69c6fbfd05641186a6b64159687664cf668",
}


def test_stack_bytes_are_pinned():
    scene = grating(8, period=3.0, duty=0.5)
    emccd = EmccdCamera(gain_mean=50.0, gain_cv=0.1, read_sigma=2.0, smear=0.1)
    stacks = {
        "near_sigma": simulate_frames(scene, "near", 0.4, 5.0, 40, seed=7),
        "near_zero": simulate_frames(scene, "near", 0.0, 5.0, 40, seed=7),
        "far_sigma": simulate_frames(uniform(8), "far", 0.4, 5.0, 40, seed=7),
        "far_zero": simulate_frames(uniform(8), "far", 0.0, 5.0, 40, seed=7),
        "intensity": simulate_intensity_frames(
            scene, classical_fringe(scene, 0.3), 8.0, 40, seed=7),
        "near_emccd": simulate_frames(scene, "near", 0.4, 5.0, 40,
                                      camera=emccd, seed=7),
        "two_chunks": simulate_frames(uniform(4), "near", 0.3, 1.0,
                                      SIM_CHUNK_FRAMES + 5, seed=7),
    }
    digests = {name: hashlib.sha256(np.ascontiguousarray(frames).tobytes())
               .hexdigest() for name, frames in stacks.items()}
    assert digests == STACK_DIGESTS


def test_intensity_frames():
    scene = uniform(6)
    frames = simulate_intensity_frames(scene, scene.magnitude2, 30.0, 400, seed=2)
    assert frames.shape == (400, 6, 6)
    assert frames.sum() / 400 == pytest.approx(30.0, rel=0.05)
    again = simulate_intensity_frames(scene, scene.magnitude2, 30.0, 400, seed=2)
    assert np.array_equal(frames, again)
    with pytest.raises(ConfigurationError):
        simulate_intensity_frames(scene, scene.magnitude2, 0.0, 10)
    with pytest.raises(ConfigurationError):
        simulate_intensity_frames(scene, scene.magnitude2, 5.0, 0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ConfigurationError):
            simulate_intensity_frames(scene, scene.magnitude2, bad, 10)
