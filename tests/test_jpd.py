import dataclasses
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from jpdkit.analysis import banded_from_dense, dense_jpd_matrix
from jpdkit.errors import (ConfigurationError, FileFormatError,
                           FrameShapeError, InsufficientDataError, StateError)
from jpdkit.jpd import (Jpd, accumulate_jpd, accumulate_partial,
                        apply_separation_policy, diagonal_image, finalize_jpd,
                        merge_partials, minus_projection, read_jpd_snapshot,
                        structural_validity, sum_projection,
                        write_jpd_snapshot)

# three 1x2 frames small enough to run the estimator by hand:
#   Gamma(r1, r2) = mean_l [I_l(r1) I_l(r2) - I_l(r1) I_{l+1}(r2)]
TINY = np.array([[[1, 2]], [[4, 3]], [[2, 7]]], dtype=np.uint16)


def test_estimator_matches_hand_computation_near():
    jpd = accumulate_jpd(TINY, mode="near", band_radius=1, symmetrize=False)
    assert jpd.n_frames == 3
    # diagonal: ((1*1-1*4) + (4*4-4*2)) / 2 and ((2*2-2*3) + (3*3-3*7)) / 2
    assert np.array_equal(jpd.plane(0, 0), [[2.5, -7.0]])
    # Gamma((0,0),(0,1)): ((1*2-1*3) + (4*3-4*7)) / 2
    assert jpd.plane(0, 1)[0, 0] == -8.5
    # Gamma((0,1),(0,0)): ((2*1-2*4) + (3*4-3*2)) / 2
    assert jpd.plane(0, -1)[0, 1] == 0.0
    # off-sensor partners are invalid and zeroed
    assert not jpd.plane_valid(0, 1)[0, 1]
    assert jpd.plane(0, 1)[0, 1] == 0.0
    assert not jpd.plane_valid(1, 0).any()


def test_symmetrize_averages_partner_orderings():
    jpd = accumulate_jpd(TINY, mode="near", band_radius=1, symmetrize=True)
    assert jpd.plane(0, 1)[0, 0] == pytest.approx((-8.5 + 0.0) / 2)
    assert jpd.plane(0, -1)[0, 1] == pytest.approx((-8.5 + 0.0) / 2)
    assert np.array_equal(jpd.plane(0, 0), [[2.5, -7.0]])


def test_estimator_matches_hand_computation_far():
    jpd = accumulate_jpd(TINY, mode="far", band_radius=1, symmetrize=False)
    assert jpd.center == (0, 1)
    # plane u holds Gamma(r, c - r + u)
    assert np.array_equal(jpd.plane(0, 0), [[-8.5, 0.0]])
    assert jpd.plane(0, 1)[0, 1] == -7.0   # partner (0,1) itself
    assert jpd.plane(0, -1)[0, 0] == 2.5   # partner (0,0) itself
    assert not jpd.plane_valid(0, 1)[0, 0]
    sym = accumulate_jpd(TINY, mode="far", band_radius=1, symmetrize=True)
    # partner swap reflects within the plane about c + u
    assert np.array_equal(sym.plane(0, 0), [[-4.25, -4.25]])


def test_symmetrized_planes_satisfy_exchange_identity():
    rng = np.random.default_rng(5)
    frames = rng.integers(0, 40, size=(30, 7, 6), dtype=np.uint16)
    jpd = accumulate_jpd(frames, mode="near", band_radius=2)
    h, w = jpd.shape
    for dy, dx, a, b in jpd.displacements():
        pd, pm = jpd.plane(dy, dx), jpd.plane(-dy, -dx)
        for y in range(h):
            for x in range(w):
                if 0 <= y + dy < h and 0 <= x + dx < w:
                    assert pd[y, x] == pytest.approx(pm[y + dy, x + dx])


def test_far_symmetrized_planes_are_point_symmetric():
    rng = np.random.default_rng(6)
    frames = rng.integers(0, 40, size=(30, 5, 5), dtype=np.uint16)
    jpd = accumulate_jpd(frames, mode="far", band_radius=1)
    cy, cx = jpd.center
    h, w = jpd.shape
    for dy, dx, a, b in jpd.displacements():
        plane, valid = jpd.plane(dy, dx), jpd.plane_valid(dy, dx)
        for y in range(h):
            for x in range(w):
                py, px = cy + dy - y, cx + dx - x
                if valid[y, x] and 0 <= py < h and 0 <= px < w:
                    assert plane[y, x] == pytest.approx(plane[py, px])


def test_result_independent_of_chunking_and_workers():
    rng = np.random.default_rng(7)
    frames = rng.integers(0, 50, size=(41, 6, 6), dtype=np.uint16)
    base = accumulate_jpd(frames, band_radius=2, chunk_size=1000)
    for chunk, workers in [(1, None), (3, None), (7, 4), (40, 2)]:
        other = accumulate_jpd(frames, band_radius=2, chunk_size=chunk,
                               workers=workers)
        assert np.array_equal(base.planes, other.planes)
    # explicit chunk overlap bookkeeping: terms count frame pairs
    parts = [accumulate_partial(frames[:21], band_radius=2),
             accumulate_partial(frames[20:], band_radius=2)]
    merged = finalize_jpd(merge_partials(parts))
    assert merged.n_frames == 41
    assert np.array_equal(base.planes, merged.planes)


@st.composite
def small_stacks(draw):
    """Stacks with a 1-3 pixel side (so some planes have no partner rows),
    bool or full-range u16 values."""
    h, w = draw(st.integers(1, 3)), draw(st.integers(1, 5))
    if draw(st.booleans()):
        h, w = w, h
    n = draw(st.integers(2, 12))
    if draw(st.booleans()):
        return draw(arrays(np.bool_, (n, h, w)))
    return draw(arrays(np.uint16, (n, h, w), elements=st.integers(0, 65535)))


@settings(max_examples=150, deadline=None)
@given(frames=small_stacks(), data=st.data())
def test_banded_equals_dense_on_edge_shapes(frames, data):
    n, h, w = frames.shape
    k = data.draw(st.integers(1, max(h, w) + 1), label="band_radius")
    mode = data.draw(st.sampled_from(["near", "far"]), label="mode")
    symmetrize = data.draw(st.booleans(), label="symmetrize")
    chunk = data.draw(st.integers(1, n), label="chunk_size")
    workers = data.draw(st.sampled_from([None, 2]), label="workers")
    jpd = accumulate_jpd(frames, mode, k, chunk_size=chunk, workers=workers,
                         symmetrize=symmetrize)
    ref = banded_from_dense(dense_jpd_matrix(frames, symmetrize=symmetrize),
                            mode, k, (h, w))
    assert np.array_equal(np.where(jpd.valid, ref, 0.0), jpd.planes)

    parts = [accumulate_partial(frames[i:min(i + chunk + 1, n)], mode, k)
             for i in range(0, n - 1, chunk)]
    first = parts[0].sums.copy()
    from_list = merge_partials(parts)
    from_iter = merge_partials(p for p in parts)
    assert np.array_equal(from_list.sums, from_iter.sums)
    assert from_list.n_terms == from_iter.n_terms == n - 1
    assert np.array_equal(parts[0].sums, first)


def test_input_validation():
    with pytest.raises(FrameShapeError):
        accumulate_jpd(np.zeros((4, 4)))
    with pytest.raises(InsufficientDataError):
        accumulate_jpd(np.zeros((1, 4, 4)))
    with pytest.raises(ConfigurationError, match="mode"):
        accumulate_jpd(TINY, mode="mid")
    with pytest.raises(ConfigurationError, match="band radius"):
        accumulate_jpd(TINY, band_radius=-1)
    with pytest.raises(ConfigurationError, match="chunk_size"):
        accumulate_jpd(TINY, chunk_size=0)
    with pytest.raises(ConfigurationError, match="centre"):
        accumulate_jpd(np.zeros((3, 4, 4)), mode="far", center=(1, 1))
    with pytest.raises(InsufficientDataError):
        merge_partials([])


def test_merge_rejects_mismatched_geometry():
    a = accumulate_partial(TINY, band_radius=1)
    b = accumulate_partial(TINY, band_radius=2)
    with pytest.raises(StateError):
        merge_partials([a, b])
    c = accumulate_partial(TINY, mode="far", band_radius=1)
    with pytest.raises(StateError):
        merge_partials([a, c])


def test_structural_validity_edges():
    near = structural_validity("near", 1, (3, 3), (2, 2))
    assert near[1, 1].all()                   # zero displacement
    assert not near[1, 2][:, 2].any()         # dx=+1 partner off the right edge
    assert near[1, 2][:, :2].all()
    far = structural_validity("far", 1, (3, 3), (2, 2))
    assert far[1, 1].all()                    # u = 0 partner always on sensor
    assert not far[2, 1][0, :].any()          # u=(1,0): partner row 3 - y
    assert far[2, 1][1:, :].all()


def test_separation_policy_near_drops_whole_planes():
    jpd = accumulate_jpd(np.random.default_rng(0).integers(
        0, 30, (10, 5, 5), dtype=np.uint16), band_radius=1)
    out = apply_separation_policy(jpd, lambda dy, dx: dx == 0)
    assert out.pending_invalid
    for dy, dx, a, b in out.displacements():
        if dx == 0:
            assert not out.valid[a, b].any()
            assert np.all(out.planes[a, b] == 0.0)
        else:
            assert out.valid[a, b].any()
    with pytest.raises(StateError, match="unresolved invalid"):
        sum_projection(out)
    resolved = out.with_invalid_excluded()
    assert not resolved.pending_invalid
    sum_projection(resolved)


def test_separation_policy_far_drops_entries_individually():
    frames = np.random.default_rng(1).integers(0, 30, (10, 3, 3), np.uint16)
    jpd = accumulate_jpd(frames, mode="far", band_radius=1)
    out = apply_separation_policy(jpd, lambda sy, sx: (sy == 0) & (sx == 0))
    # separation c + u - 2r vanishes only where r = (c + u) / 2 is integral
    k = 1
    for dy, dx, a, b in out.displacements():
        expected = jpd.valid[a, b].copy()
        ry, rx = (2 + dy), (2 + dx)
        if ry % 2 == 0 and rx % 2 == 0:
            expected[ry // 2, rx // 2] = False
        assert np.array_equal(out.valid[a, b], expected)


def test_projection_mass_conservation():
    rng = np.random.default_rng(2)
    frames = rng.integers(0, 30, size=(20, 6, 6), dtype=np.uint16)
    for mode in ("near", "far"):
        jpd = accumulate_jpd(frames, mode=mode, band_radius=2)
        total = sum(jpd.planes[a, b][jpd.valid[a, b]].sum()
                    for _, _, a, b in jpd.displacements())
        assert sum_projection(jpd).values.sum() == pytest.approx(total)
        assert minus_projection(jpd).values.sum() == pytest.approx(total)


def test_projection_geometry():
    frames = np.random.default_rng(3).integers(0, 30, (10, 4, 4), np.uint16)
    jpd = accumulate_jpd(frames, mode="near", band_radius=1)
    img = sum_projection(jpd)
    assert img.values.shape == (7, 7)
    assert img.pitch == 0.5
    # sum coordinate s = 2r + d: the corner only receives the (0, 0) plane
    assert img.values[0, 0] == pytest.approx(jpd.plane(0, 0)[0, 0])
    minus = minus_projection(jpd)
    assert minus.values.shape == (3, 3)
    assert minus.origin == (-0.5, -0.5)
    assert minus.values[1, 1] == pytest.approx(jpd.plane(0, 0).sum())
    diag = diagonal_image(jpd)
    assert np.array_equal(diag.values, jpd.plane(0, 0))
    assert diag.pitch == 1.0

    far = accumulate_jpd(frames, mode="far", band_radius=1)
    fsum = sum_projection(far)
    # far plane u concentrates at sum coordinate c + u
    assert fsum.values[3, 3] == pytest.approx(
        far.plane(0, 0)[far.plane_valid(0, 0)].sum())
    with pytest.raises(StateError):
        diagonal_image(far)


def test_inactive_planes_are_skipped():
    frames = np.random.default_rng(4).integers(0, 30, (10, 4, 4), np.uint16)
    jpd = accumulate_jpd(frames, band_radius=1)
    active = jpd.active.copy()
    active[1, 1] = False
    trimmed = dataclasses.replace(jpd, active=active)
    assert minus_projection(trimmed).values[1, 1] == 0.0
    with pytest.raises(StateError, match="inactive"):
        diagonal_image(trimmed)


def test_plane_accessor_bounds():
    jpd = accumulate_jpd(TINY, band_radius=1)
    with pytest.raises(ConfigurationError):
        jpd.plane(2, 0)
    with pytest.raises(ConfigurationError):
        jpd.plane_valid(0, -2)


def test_snapshot_round_trip(tmp_path):
    frames = np.random.default_rng(8).integers(0, 30, (12, 5, 4), np.uint16)
    jpd = accumulate_jpd(frames, mode="far", band_radius=1)
    jpd = apply_separation_policy(jpd, lambda sy, sx: (sy == 0) & (sx == 0))
    active = jpd.active.copy()
    active[0, 0] = False
    jpd = dataclasses.replace(jpd, active=active)
    path = tmp_path / "snap.bjpd"
    write_jpd_snapshot(path, jpd)
    back = read_jpd_snapshot(path)
    assert back.mode == jpd.mode
    assert back.band_radius == jpd.band_radius
    assert back.center == jpd.center
    assert back.n_frames == jpd.n_frames
    assert back.pending_invalid
    assert np.array_equal(back.active, jpd.active)
    for dy, dx, a, b in jpd.displacements():
        if jpd.active[a, b]:
            assert np.array_equal(back.planes[a, b], jpd.planes[a, b])
            assert np.array_equal(back.valid[a, b], jpd.valid[a, b])
        else:
            assert np.all(back.planes[a, b] == 0.0)
            assert not back.valid[a, b].any()


def test_snapshot_corruption_detection(tmp_path):
    jpd = accumulate_jpd(TINY, band_radius=1)
    path = tmp_path / "snap.bjpd"
    write_jpd_snapshot(path, jpd)
    raw = bytearray(path.read_bytes())

    def write_variant(mutate):
        data = bytearray(raw)
        mutate(data)
        bad = tmp_path / "bad.bjpd"
        bad.write_bytes(bytes(data))
        return bad

    with pytest.raises(FileFormatError, match="magic"):
        read_jpd_snapshot(write_variant(lambda d: d.__setitem__(slice(0, 4), b"NOPE")))
    with pytest.raises(FileFormatError, match="version"):
        read_jpd_snapshot(write_variant(
            lambda d: d.__setitem__(slice(4, 6), struct.pack("<H", 9))))
    with pytest.raises(FileFormatError, match="mode code"):
        read_jpd_snapshot(write_variant(lambda d: d.__setitem__(6, 9)))
    with pytest.raises(FileFormatError, match="outside band"):
        read_jpd_snapshot(write_variant(lambda d: d.__setitem__(32, 100)))
    with pytest.raises(FileFormatError, match="too short"):
        read_jpd_snapshot(write_variant(lambda d: d.__delitem__(slice(8, None))))
    with pytest.raises(FileFormatError, match="bytes"):
        read_jpd_snapshot(write_variant(lambda d: d.extend(b"\x00")))
