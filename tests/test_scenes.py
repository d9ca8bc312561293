import numpy as np
import pytest

from jpdkit.errors import ConfigurationError, DegenerateDensityError
from jpdkit.scenes import (Scene, block_mean, cat_half_plane,
                           checkerboard_phase, grating, half_pixel_average,
                           uniform)


def test_scene_shape_and_negativity_checks():
    good = np.ones((8, 8))
    with pytest.raises(ConfigurationError, match="shape"):
        Scene(np.ones((4, 4)), np.zeros((8, 8)), size=2, oversample=4)
    with pytest.raises(DegenerateDensityError):
        Scene(-good, np.zeros_like(good), size=2, oversample=4)
    scene = Scene(good, np.zeros_like(good), size=2, oversample=4)
    assert scene.center == 0.5


def test_subcell_coordinates_cover_sensor():
    scene = uniform(4, oversample=8)
    coords = scene.subcell_coordinates()
    assert coords[0] == pytest.approx(-0.5 + 0.5 / 8)
    assert coords[-1] == pytest.approx(3.5 - 0.5 / 8)
    # subcells tile (-0.5, size - 0.5) uniformly, so they average to the centre
    assert coords.mean() == pytest.approx(scene.center)


def test_grating_mass_matches_duty_cycle():
    # two full periods across the sensor, slit edges on subcell boundaries
    scene = grating(8, period=4.0, duty=0.5, oversample=8)
    assert scene.magnitude2.mean() == pytest.approx(0.5, abs=1e-12)
    assert set(np.unique(scene.magnitude2)) == {0.0, 1.0}


def test_grating_orientation():
    gy = grating(8, period=3.0, duty=0.4, orientation="y")
    gx = grating(8, period=3.0, duty=0.4, orientation="x")
    # fringes along y vary down the rows and are constant across columns
    assert np.all(gy.magnitude2 == gy.magnitude2[:, :1])
    assert np.array_equal(gx.magnitude2, gy.magnitude2.T)


def test_grating_validation():
    with pytest.raises(ConfigurationError):
        grating(8, period=0.0, duty=0.5)
    with pytest.raises(ConfigurationError):
        grating(8, period=4.0, duty=1.0)
    with pytest.raises(ConfigurationError):
        grating(8, period=4.0, duty=0.5, orientation="z")


def test_checkerboard_pixel_alignment_keeps_pixels_uniform():
    scene = checkerboard_phase(6, blocks=3, oversample=4, edge_alignment="pixel")
    per_pixel = scene.phase.reshape(6, 4, 6, 4)
    assert np.all(per_pixel.std(axis=(1, 3)) == 0)
    assert np.all(scene.magnitude2 == 1.0)
    assert len(np.unique(scene.phase)) == 9


def test_checkerboard_quarter_alignment_clears_half_pixel_windows():
    scene = checkerboard_phase(6, blocks=3, oversample=8, edge_alignment="quarter")
    mean = half_pixel_average(scene.phase, 8)
    mean_sq = half_pixel_average(scene.phase ** 2, 8)
    # every half-pixel window sees a single constant phase
    assert np.max(mean_sq - mean ** 2) < 1e-12
    pixel = checkerboard_phase(6, blocks=3, oversample=8, edge_alignment="pixel")
    mean = half_pixel_average(pixel.phase, 8)
    mean_sq = half_pixel_average(pixel.phase ** 2, 8)
    # pixel-aligned edges land inside odd-index windows instead
    assert np.max(mean_sq - mean ** 2) > 0.1


def test_checkerboard_custom_phases_and_validation():
    phases = np.array([[0.1, 0.2], [0.3, 0.4]])
    scene = checkerboard_phase(4, blocks=2, oversample=4, phases=phases)
    assert scene.phase[0, 0] == 0.1
    assert scene.phase[-1, -1] == 0.4
    with pytest.raises(ConfigurationError, match="divisible"):
        checkerboard_phase(7, blocks=3)
    with pytest.raises(ConfigurationError, match="edge_alignment"):
        checkerboard_phase(6, blocks=3, edge_alignment="eighth")
    # the config's bound, where 0 divided by zero and a negative count
    # reached numpy's reshape
    for blocks in (0, -3):
        with pytest.raises(ConfigurationError) as info:
            checkerboard_phase(9, blocks=blocks)
        assert str(info.value) == f"blocks must be >= 1, got {blocks}"


def test_block_mean_literal():
    sub = np.arange(16.0).reshape(4, 4)
    out = block_mean(sub, 2)
    assert np.array_equal(out, [[2.5, 4.5], [10.5, 12.5]])


def test_half_pixel_average_oracle():
    # 1-D ramp broadcast along x: window k averages subcells of the
    # half-pixel interval centred at k/2
    sub = np.arange(8.0)[:, None] * np.ones((1, 8))
    out = half_pixel_average(sub, 4)
    assert out.shape == (3, 3)
    assert np.array_equal(out[:, 0], [1.5, 3.5, 5.5])
    assert np.all(out == out[:, :1])
    with pytest.raises(ConfigurationError):
        half_pixel_average(sub, 2)


def test_near_and_far_densities():
    rng = np.random.default_rng(0)
    mag2 = rng.uniform(0.0, 2.0, (12, 12))
    scene = Scene(mag2, np.zeros_like(mag2), size=3, oversample=4)
    assert np.array_equal(scene.near_density(), mag2 ** 2)
    far = scene.far_density()
    # pairing x with c - x makes the far density point symmetric by construction
    assert np.array_equal(far, far[::-1, ::-1])
    assert np.array_equal(far, mag2 * mag2[::-1, ::-1])


def test_cat_scene_geometry():
    scene = cat_half_plane(32, oversample=4)
    mag2 = scene.magnitude2
    assert set(np.unique(mag2)) == {0.0, 1.0}
    # upper-coordinate half fully open, silhouette strictly inside the other half
    assert np.all(mag2[-8:] == 1.0)
    assert 0 < mag2[: mag2.shape[0] // 2].mean() < 1
    assert scene.far_density().max() == 1.0
    with pytest.raises(ConfigurationError):
        cat_half_plane(8)


def _meshgrid(size, oversample):
    """The subcell centres as two full (n, n) arrays."""
    c = -0.5 + (np.arange(size * oversample) + 0.5) / oversample
    return np.meshgrid(c, c, indexing="ij")


def _meshgrid_cat(size, oversample):
    """The cat silhouette's |t|^2 evaluated on full meshgrids."""
    yy, xx = _meshgrid(size, oversample)

    def in_triangle(a, b, c):
        def side(p, q):
            return (q[1] - p[1]) * (yy - p[0]) - (q[0] - p[0]) * (xx - p[1])
        s1, s2, s3 = side(a, b), side(b, c), side(c, a)
        return (((s1 >= 0) & (s2 >= 0) & (s3 >= 0))
                | ((s1 <= 0) & (s2 <= 0) & (s3 <= 0)))

    half = (size - 1) / 2.0
    cy, cx, rad = 0.30 * size, 0.50 * size, 0.16 * size
    head = (yy - cy) ** 2 + (xx - cx) ** 2 <= rad ** 2
    ear_h = 0.17 * size
    left = in_triangle(
        (cy - 0.6 * rad, cx - rad), (cy - 0.6 * rad - ear_h, cx - 0.55 * rad),
        (cy - 0.1 * rad, cx - 0.35 * rad))
    right = in_triangle(
        (cy - 0.6 * rad, cx + rad), (cy - 0.6 * rad - ear_h, cx + 0.55 * rad),
        (cy - 0.1 * rad, cx + 0.35 * rad))
    silhouette = (head | left | right) & (yy < half - 1.0)
    return np.where(silhouette | (yy > half), 1.0, 0.0)


@pytest.mark.parametrize("size", [16, 23, 64])
@pytest.mark.parametrize("oversample", [1, 3, 4, 8])
def test_scenes_on_open_grids_equal_the_meshgrid_formulas(size, oversample):
    # a column and a row broadcast by the same operations as two full
    # meshgrids, so every element gets the same bits
    yy, xx = _meshgrid(size, oversample)
    for orientation, coord in (("y", yy), ("x", xx)):
        scene = grating(size, period=3.7, duty=0.3, oversample=oversample,
                        orientation=orientation)
        want = ((coord % 3.7) < 0.3 * 3.7).astype(np.float64)
        assert scene.magnitude2.tobytes() == want.tobytes()
        assert scene.phase.tobytes() == np.zeros_like(want).tobytes()
    cat = cat_half_plane(size, oversample)
    want = _meshgrid_cat(size, oversample)
    assert cat.magnitude2.tobytes() == want.tobytes()
    assert cat.magnitude2.flags.c_contiguous
    assert cat.phase.tobytes() == np.zeros_like(want).tobytes()


def test_uniform_scene():
    scene = uniform(5, oversample=4)
    assert np.all(scene.magnitude2 == 1.0)
    assert np.all(scene.phase == 0.0)
