import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from jpdkit.errors import (ConfigurationError, DegeneratePlaneError,
                           EmptyFilterError, InterpolationError, StateError)
from jpdkit.jpd import (Jpd, PartialJpd, accumulate_jpd,
                        accumulate_partial, apply_separation_policy,
                        finalize_jpd, merge_partials, minus_projection,
                        scatter_half_grid, structural_validity,
                        sum_projection)
from jpdkit.pipeline import (filter_jpd, interpolate_invalid, normalize_jpd,
                             plane_masses, process_jpd, reconstruct,
                             super_resolve)
from jpdkit.scenes import grating
from jpdkit.simulate import (RENDER_PIXELS, EmccdCamera, IdealCamera,
                             SpadCamera, analytic_jpd, simulate_chunks,
                             simulate_frames)


def constant_plane_jpd(shape, band_radius, value_of, mode="near"):
    """Near/far JPD whose plane (dy, dx) is constant value_of(dy, dx)."""
    k = band_radius
    h, w = shape
    valid = structural_validity(mode, k, shape)
    planes = np.zeros((2 * k + 1, 2 * k + 1, h, w))
    for a in range(2 * k + 1):
        for b in range(2 * k + 1):
            planes[a, b] = np.where(valid[a, b], value_of(a - k, b - k), 0.0)
    active = np.ones((2 * k + 1, 2 * k + 1), dtype=bool)
    return Jpd(mode, k, planes, valid, active, 0)


def test_interpolation_fills_column_dropout_from_neighbours():
    jpd = constant_plane_jpd((5, 6), 2, lambda dy, dx: (dx + 3) ** 2 + dy)
    dropped = apply_separation_policy(jpd, EmccdCamera().invalid_pair_separation)
    filled = interpolate_invalid(dropped)
    assert not filled.pending_invalid
    assert np.array_equal(filled.valid, jpd.valid)
    for dy in (-2, -1, 0, 1, 2):
        plane = filled.plane(dy, 0)
        rows = slice(max(0, -dy), 5 - max(0, dy))
        # interior: mean of the dx = -1 and dx = +1 neighbours
        assert np.allclose(plane[rows, 1:-1], 10 + dy)
        # band edge columns see a single valid neighbour
        assert np.allclose(plane[rows, 0], 16 + dy)
        assert np.allclose(plane[rows, -1], 4 + dy)


def test_interpolation_iterates_across_wide_dropout():
    jpd = constant_plane_jpd((8, 8), 2, lambda dy, dx: 100 + 10 * dy + dx ** 2)
    dropped = apply_separation_policy(jpd, SpadCamera().invalid_pair_separation)
    filled = interpolate_invalid(dropped)
    assert np.array_equal(filled.valid, jpd.valid)
    # first pass reaches dx = +-1 from dx = +-2, second pass reaches dx = 0
    assert np.allclose(filled.plane(0, 1)[2:-2, 2:-2], 104)
    assert np.allclose(filled.plane(0, -1)[2:-2, 2:-2], 104)
    assert np.allclose(filled.plane(0, 0)[2:-2, 2:-2], 104)
    assert np.allclose(filled.plane(1, 1)[2:-2, 2:-2], 114)


def test_interpolation_fails_without_sources():
    jpd = constant_plane_jpd((6, 6), 1, lambda dy, dx: 5.0)
    dropped = apply_separation_policy(jpd, SpadCamera().invalid_pair_separation)
    with pytest.raises(InterpolationError):
        interpolate_invalid(dropped)


def test_interpolation_rejects_far_mode():
    jpd = constant_plane_jpd((6, 6), 1, lambda dy, dx: 5.0, mode="far")
    with pytest.raises(StateError, match="near-field"):
        interpolate_invalid(jpd)


def _interpolate_invalid_loop(jpd):
    """The plane-by-plane, double-buffered reference for interpolate_invalid."""
    k = jpd.band_radius
    structural = structural_validity(jpd.mode, k, jpd.shape)
    planes = jpd.planes.copy()
    valid = jpd.valid.copy()
    holes = structural & ~valid
    while holes.any():
        new_planes = planes.copy()
        new_valid = valid.copy()
        progress = False
        for dy, dx, a, b in jpd.displacements():
            if not holes[a, b].any():
                continue
            acc = np.zeros(jpd.shape)
            cnt = np.zeros(jpd.shape)
            for nb in (dx - 1, dx + 1):
                if abs(nb) > k:
                    continue
                nv = valid[dy + k, nb + k]
                acc += np.where(nv, planes[dy + k, nb + k], 0.0)
                cnt += nv
            fill = holes[a, b] & (cnt > 0)
            if fill.any():
                new_planes[a, b][fill] = (acc / np.maximum(cnt, 1))[fill]
                new_valid[a, b][fill] = True
                progress = True
        if not progress:
            bad = [(dy, dx) for dy, dx, a, b in jpd.displacements()
                   if holes[a, b].any()]
            raise InterpolationError(
                f"no valid neighbouring plane to interpolate from for {bad}")
        planes, valid = new_planes, new_valid
        holes = structural & ~valid
    return dataclasses.replace(jpd, planes=planes, valid=valid,
                               pending_invalid=False)


def _outcome(fn, jpd):
    try:
        out = fn(jpd)
    except InterpolationError as exc:
        return str(exc)
    return (out.planes.tobytes(), out.valid.tobytes(), out.active.tobytes(),
            out.pending_invalid)


def test_interpolation_matches_plane_loop():
    # random symmetrized near-field JPDs on 1-9 px sides, K up to
    # max(h, w) + 1, under the three camera policies and a random per-entry
    # drop-out that needs several passes or leaves holes without sources
    rng = np.random.default_rng(21)
    policies = [IdealCamera().invalid_pair_separation,
                EmccdCamera().invalid_pair_separation,
                SpadCamera().invalid_pair_separation]
    for _ in range(120):
        h, w = rng.integers(1, 10, size=2)
        k = int(rng.integers(1, max(h, w) + 2))
        sums = rng.standard_normal((2 * k + 1, 2 * k + 1, h, w))
        jpd = finalize_jpd(PartialJpd("near", k, (h, w), sums, 1))
        dropped = [apply_separation_policy(jpd, p) for p in policies]
        keep = jpd.valid & (rng.random(jpd.valid.shape) < rng.random())
        dropped.append(dataclasses.replace(
            jpd, planes=np.where(keep, jpd.planes, 0.0), valid=keep,
            pending_invalid=True))
        for case in dropped:
            assert (_outcome(interpolate_invalid, case)
                    == _outcome(_interpolate_invalid_loop, case)), (h, w, k)


def test_filter_keeps_dominant_planes():
    scene = grating(8, period=3.0, duty=0.5)
    jpd = analytic_jpd(scene, "near", band_radius=2, sigma=0.0)
    masses = plane_masses(jpd)
    # perfectly correlated pairs populate |d|_inf <= 1 only
    assert masses[0, 0] == pytest.approx(0.0, abs=1e-12)
    kept = filter_jpd(jpd, threshold=0.05)
    dys, dxs = np.nonzero(kept.active)
    assert kept.active.sum() == 9
    assert np.all(np.abs(np.stack([dys, dxs]) - 2) <= 1)
    # idempotent and monotone in the threshold
    again = filter_jpd(kept, threshold=0.05)
    assert np.array_equal(again.active, kept.active)
    stricter = filter_jpd(jpd, threshold=0.9)
    assert np.all(kept.active | ~stricter.active)


def test_filter_validation_and_degenerate_input():
    jpd = constant_plane_jpd((4, 4), 1, lambda dy, dx: 1.0)
    with pytest.raises(ConfigurationError):
        filter_jpd(jpd, threshold=1.5)
    zero = dataclasses.replace(jpd, planes=np.zeros_like(jpd.planes))
    with pytest.raises(EmptyFilterError):
        filter_jpd(zero, threshold=0.5)
    pending = dataclasses.replace(jpd, pending_invalid=True)
    with pytest.raises(StateError):
        filter_jpd(pending, threshold=0.5)


def test_normalize_sets_plane_means_to_one():
    scene = grating(6, period=2.5, duty=0.4)
    jpd = analytic_jpd(scene, "near", band_radius=1, sigma=0.3)
    out = normalize_jpd(jpd)
    for dy, dx, a, b in out.displacements():
        v = out.valid[a, b]
        assert out.planes[a, b][v].mean() == pytest.approx(1.0)
        assert np.all(out.planes[a, b][~v] == 0.0)


def test_normalize_degenerate_planes():
    jpd = constant_plane_jpd((4, 4), 1, lambda dy, dx: -1.0)
    with pytest.raises(DegeneratePlaneError) as info:
        normalize_jpd(jpd)
    # a plain float, not numpy 2's np.float64(-1.0)
    assert str(info.value) == "plane (-1, -1) mean -1.0 is not normalizable"
    # a 1-row sensor leaves the |dy| = 1 planes without any valid entry
    rows = accumulate_jpd(np.array([[[1, 2, 3]], [[2, 1, 4]], [[5, 1, 2]]]),
                          band_radius=1)
    with pytest.raises(DegeneratePlaneError, match="no valid entries"):
        normalize_jpd(rows)
    pending = dataclasses.replace(jpd, pending_invalid=True)
    with pytest.raises(StateError):
        normalize_jpd(pending)


def test_super_resolve_averages_coinciding_contributions():
    jpd = constant_plane_jpd((2, 2), 1, lambda dy, dx: 2.0 ** (dy + 1) * 3.0 ** (dx + 1))
    img = super_resolve(jpd)
    assert np.array_equal(img.counts, [[1, 2, 1], [2, 4, 2], [1, 2, 1]])
    expected = np.array([[6.0, 10.0, 6.0],
                         [7.5, 12.5, 7.5],
                         [6.0, 10.0, 6.0]])
    assert np.allclose(img.values, expected)
    assert img.pitch == 0.5
    assert img.origin == (0.0, 0.0)


def test_super_resolve_far_geometry():
    jpd = constant_plane_jpd((2, 2), 1, lambda dy, dx: 1.0, mode="far")
    img = super_resolve(jpd)
    assert np.array_equal(img.counts, [[1, 2, 1], [2, 4, 2], [1, 2, 1]])
    assert np.allclose(img.values, 1.0)
    assert img.origin == (-0.5, -0.5)


def test_super_resolve_requires_resolved_invalid():
    jpd = constant_plane_jpd((4, 4), 1, lambda dy, dx: 1.0)
    pending = dataclasses.replace(jpd, pending_invalid=True)
    with pytest.raises(StateError):
        super_resolve(pending)


@st.composite
def random_jpds(draw):
    """Near or far JPDs with 1-5 px sides, K in 1..3, integer-valued planes
    (so sums are exact), a random subset of the structurally valid entries
    and random active planes."""
    mode = draw(st.sampled_from(["near", "far"]))
    h, w = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    k = draw(st.integers(1, 3))
    shape = (2 * k + 1, 2 * k + 1, h, w)
    valid = structural_validity(mode, k, (h, w)) & draw(arrays(np.bool_, shape))
    values = draw(arrays(np.int64, shape, elements=st.integers(-1000, 1000)))
    planes = np.where(valid, values, 0).astype(np.float64)
    active = draw(arrays(np.bool_, shape[:2]))
    return Jpd(mode, k, planes, valid, active, 0)


def scatter_by_loop(jpd, values, coordinate):
    """Reference for scatter_half_grid: one np.add.at per active plane, at
    r + p ("sum") or r - p + n - 1 ("difference") per axis, where p is the
    partner pixel: r + d near field, (n - 1) - r + d far field."""
    h, w = jpd.shape
    sh, sw = 2 * h - 1, 2 * w - 1
    img = np.zeros((sh, sw))
    ys, xs = np.mgrid[0:h, 0:w]
    values = np.broadcast_to(values, jpd.planes.shape)
    for dy, dx, a, b in jpd.displacements():
        if not jpd.active[a, b]:
            continue
        if jpd.mode == "near":
            py, px = ys + dy, xs + dx
        else:
            py, px = (h - 1) - ys + dy, (w - 1) - xs + dx
        if coordinate == "sum":
            sy, sx = ys + py, xs + px
        else:
            sy, sx = ys - py + h - 1, xs - px + w - 1
        ok = jpd.valid[a, b] & (sy >= 0) & (sy < sh) & (sx >= 0) & (sx < sw)
        np.add.at(img, (sy[ok], sx[ok]), values[a, b][ok])
    return img


@settings(max_examples=200, deadline=None)
@given(jpd=random_jpds())
def test_half_grid_map_conserves_mass_and_counts_entries(jpd):
    kept = jpd.valid & jpd.active[:, :, None, None]
    retained = jpd.planes[kept].sum()
    assert sum_projection(jpd).values.sum() == retained
    assert minus_projection(jpd).values.sum() == retained
    assert super_resolve(jpd).counts.sum() == kept.sum()
    ones = super_resolve(dataclasses.replace(jpd, planes=np.ones_like(jpd.planes)))
    assert np.array_equal(ones.values, (ones.counts > 0).astype(np.float64))
    # non-dyadic values make the sums depend on the order of addition
    sevenths = dataclasses.replace(jpd, planes=jpd.planes / 7.0)
    coordinate = "sum" if jpd.mode == "near" else "difference"
    total = scatter_by_loop(sevenths, sevenths.planes, coordinate)
    counts = scatter_by_loop(sevenths, 1.0, coordinate)
    assert np.array_equal(
        scatter_half_grid(sevenths, sevenths.planes, coordinate).values, total)
    assert np.array_equal(super_resolve(sevenths).values, np.where(
        counts > 0, total / np.maximum(counts, 1.0), 0.0))


@settings(max_examples=200, deadline=None)
@given(jpd=random_jpds())
def test_half_grid_scatters_match_loop_bitwise(jpd):
    # both coordinates in both geometries, and the projections built on
    # them; non-dyadic values make the sums depend on the order of addition
    sevenths = dataclasses.replace(jpd, planes=jpd.planes / 7.0)
    loop = {coordinate: scatter_by_loop(sevenths, sevenths.planes, coordinate)
            for coordinate in ("sum", "difference")}
    for coordinate, expected in loop.items():
        image = scatter_half_grid(sevenths, sevenths.planes, coordinate)
        assert np.array_equal(image.values, expected)
        assert image.pitch == 0.5
    assert np.array_equal(sum_projection(sevenths).values, loop["sum"])
    if jpd.mode == "far":
        assert np.array_equal(minus_projection(sevenths).values,
                              loop["difference"])
    h, w = jpd.shape
    assert scatter_half_grid(jpd, 1.0, "sum").origin == (0.0, 0.0)
    assert scatter_half_grid(jpd, 1.0, "difference").origin == (
        -(h - 1) / 2.0, -(w - 1) / 2.0)


@settings(max_examples=200, deadline=None)
@given(jpd=random_jpds(), thresholds=st.lists(st.floats(0.0, 1.0), min_size=2,
                                              max_size=2))
def test_filter_is_idempotent_and_monotone(jpd, thresholds):
    low, high = sorted(thresholds)
    try:
        loose = filter_jpd(jpd, low)
    except EmptyFilterError:
        # no plane with positive mass: every threshold finds none
        with pytest.raises(EmptyFilterError):
            filter_jpd(jpd, high)
        return
    strict = filter_jpd(jpd, high)
    for kept, threshold in ((loose, low), (strict, high)):
        assert np.array_equal(filter_jpd(kept, threshold).active, kept.active)
    assert not (strict.active & ~loose.active).any()
    assert not (loose.active & ~jpd.active).any()


def test_untouched_points_stay_zero():
    jpd = constant_plane_jpd((3, 3), 1, lambda dy, dx: 1.0)
    active = np.zeros((3, 3), dtype=bool)
    active[1, 1] = True     # keep only the d = (0, 0) plane
    only_diag = dataclasses.replace(jpd, active=active)
    img = super_resolve(only_diag)
    assert img.values[0, 0] == 1.0
    assert img.values[0, 1] == 0.0
    assert img.counts[0, 1] == 0


def test_process_jpd_steps_compose():
    scene = grating(8, period=3.0, duty=0.5)
    frames = simulate_frames(scene, sigma=0.5, pair_rate=20.0, n_frames=2000,
                             seed=4)
    raw = accumulate_jpd(frames, band_radius=2)
    out = process_jpd(raw, camera=EmccdCamera(), threshold=0.2, normalize=True)
    assert not out.pending_invalid
    # interpolation refilled the dropped dx = 0 column planes
    assert np.array_equal(out.valid, structural_validity("near", 2, (8, 8)))
    assert out.active.sum() < raw.active.sum()
    none = process_jpd(raw, camera=None, threshold=None, normalize=False)
    assert np.array_equal(none.planes, raw.planes)
    assert none.active.all()


def _traced_peak(fn, *args, **kwargs):
    """fn's result and its peak of traced memory above what was held."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        out = fn(*args, **kwargs)
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("mode, camera", [
    ("near", IdealCamera()), ("near", SpadCamera()), ("far", SpadCamera())],
    ids=["near_ideal", "near_spad", "far_spad"])
def test_process_jpd_memory_by_formula(mode, camera):
    # beside its input, process_jpd holds its one copy of the band and,
    # while it interpolates, the band of neighbour sums: 2 float64 bands,
    # with 5 one-byte masks (the copied validity, the u8 counts, the holes,
    # the entries filled and one temporary) and a plane while it
    # normalizes; the far field does not interpolate
    k, h, w = 3, 64, 64
    sums = np.random.default_rng(13).random((2 * k + 1, 2 * k + 1, h, w)) + 1
    jpd = finalize_jpd(PartialJpd(mode, k, (h, w), sums, 100))
    planes, valid = jpd.planes.copy(), jpd.valid.copy()
    band, mask = jpd.planes.nbytes, jpd.valid.nbytes
    out, peak = _traced_peak(process_jpd, jpd, camera=camera, threshold=0.5)
    bands = 2 if mode == "near" else 1
    assert peak <= bands * band + 5 * mask + h * w * 8
    assert jpd.planes.tobytes() == planes.tobytes()
    assert np.array_equal(jpd.valid, valid)
    assert not out.pending_invalid


def test_public_steps_leave_their_input_unchanged():
    # each public step works on its own copy and returns the bytes that
    # reconstruct, which works on the band it accumulated in place, gives
    scene = grating(12, period=3.0, duty=0.5)
    for mode, camera in (("near", EmccdCamera()), ("near", SpadCamera()),
                         ("far", SpadCamera())):
        frames = simulate_frames(scene, mode=mode, sigma=0.5, pair_rate=20.0,
                                 n_frames=300, camera=camera, seed=5)
        parts = [accumulate_partial(frames[:150], mode, 2),
                 accumulate_partial(frames[149:], mode, 2)]
        merged = merge_partials(parts)
        held = [merged.sums.copy(), parts[0].sums.copy()]
        raw = finalize_jpd(merged)
        assert merged.sums.tobytes() == held[0].tobytes()
        assert parts[0].sums.tobytes() == held[1].tobytes()
        steps = [lambda j: apply_separation_policy(
            j, camera.invalid_pair_separation)]
        if mode == "near":
            steps.append(interpolate_invalid)
        else:
            steps.append(Jpd.with_invalid_excluded)
        steps += [lambda j: filter_jpd(j, 0.5), normalize_jpd]
        jpd = raw
        for step in steps:
            before = (jpd.planes.tobytes(), jpd.valid.tobytes(),
                      jpd.active.tobytes(), jpd.pending_invalid)
            out = step(jpd)
            assert (jpd.planes.tobytes(), jpd.valid.tobytes(),
                    jpd.active.tobytes(), jpd.pending_invalid) == before
            jpd = out
        raw_planes = raw.planes.tobytes()
        processed = process_jpd(raw, camera=camera)
        assert raw.planes.tobytes() == raw_planes
        result = reconstruct(frames, mode=mode, camera=camera, band_radius=2)
        for got in (processed, result.jpd):
            assert got.planes.tobytes() == jpd.planes.tobytes()
            assert np.array_equal(got.valid, jpd.valid)
            assert np.array_equal(got.active, jpd.active)
        assert (result.image.values.tobytes()
                == super_resolve(jpd).values.tobytes())
    planes = np.ones((3, 3, 4, 4))
    assert Jpd.from_planes("near", planes, 0).planes[0, 0, 0, 0] == 0.0
    assert (planes == 1).all()


def test_reconstruct_end_to_end():
    scene = grating(8, period=3.0, duty=0.5)
    frames = simulate_frames(scene, sigma=0.5, pair_rate=20.0, n_frames=2000,
                             seed=4)
    result = reconstruct(frames, mode="near", camera=IdealCamera(),
                         band_radius=1, threshold=0.2)
    assert result.image.values.shape == (15, 15)
    assert result.image.pitch == 0.5
    assert result.native is not None
    assert result.native.values.shape == (8, 8)
    far_frames = simulate_frames(scene, mode="far", sigma=0.5, pair_rate=20.0,
                                 n_frames=2000, seed=4)
    far = reconstruct(far_frames, mode="far", camera=None, band_radius=1,
                      threshold=0.2)
    assert far.native is None
    assert far.image.values.shape == (15, 15)


@pytest.mark.parametrize("mode", ["near", "far"])
@pytest.mark.parametrize("camera", [IdealCamera(), EmccdCamera(gain_mean=50.0),
                                    SpadCamera()], ids=lambda c: c.name)
def test_reconstruct_of_the_simulator_stream_equals_the_stack(mode, camera):
    # 48 x 48 frames render in blocks of 227, so 500 frames arrive in three
    # blocks, and chunks of 100 terms span the block boundaries
    scene = grating(48, period=5.0, duty=0.3, oversample=4)
    args = (scene, mode, 0.6, 20.0, 500, camera, 4)
    assert RENDER_PIXELS // (48 * 48) == 227
    kwargs = dict(mode=mode, camera=camera, band_radius=2, threshold=None,
                  normalize=False, chunk_size=100)
    held = reconstruct(simulate_frames(*args), **kwargs)
    for workers in (None, 2):
        streamed = reconstruct(simulate_chunks(*args), workers=workers,
                               **kwargs)
        assert streamed.jpd.planes.tobytes() == held.jpd.planes.tobytes()
        assert streamed.jpd.n_frames == held.jpd.n_frames == 500
        assert streamed.image.values.tobytes() == held.image.values.tobytes()
        assert (streamed.native is None) == (held.native is None)
        if held.native is not None:
            assert (streamed.native.values.tobytes()
                    == held.native.values.tobytes())
