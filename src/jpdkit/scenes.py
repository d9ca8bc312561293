"""Scene definitions on an oversampled object grid.

A scene describes the complex transmission of the object plane on a subgrid
``oversample`` times denser than the camera grid per axis.  Pixel centres sit
at integer coordinates; pixel ``r`` spans ``(r - 0.5, r + 0.5)``, so a sensor
of ``size`` pixels covers ``(-0.5, size - 0.5)`` and subcell ``j`` is centred
at ``-0.5 + (j + 0.5) / oversample``.

Only the squared transmission magnitude and the phase are stored; pair
densities for the two imaging geometries derive from them:

* near field, both photons through the object: density ``|t|^4``,
* far field, partners point-symmetric about the sensor centre:
  density ``|t(x)|^2 |t(c - x)|^2``.

An ``oversample`` divisible by 4 keeps half-pixel windows aligned to whole
subcells, which the analytic constructions rely on; the default is 8.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DegenerateDensityError


def _subcell_centres(size: int, oversample: int) -> np.ndarray:
    return -0.5 + (np.arange(size * oversample) + 0.5) / oversample


@dataclass
class Scene:
    """Object-plane transmission sampled on the oversampled grid.

    magnitude2 -- |t|^2 per subcell, non-negative, shape (size*f, size*f)
    phase      -- arg t per subcell, radians, same shape
    size       -- sensor pixels per side
    oversample -- subcells per pixel per axis
    """

    magnitude2: np.ndarray
    phase: np.ndarray
    size: int
    oversample: int = 8

    def __post_init__(self):
        n = self.size * self.oversample
        if self.magnitude2.shape != (n, n) or self.phase.shape != (n, n):
            raise ConfigurationError(
                f"scene arrays must have shape {(n, n)}, got "
                f"{self.magnitude2.shape} and {self.phase.shape}"
            )
        if np.any(self.magnitude2 < 0):
            raise DegenerateDensityError("scene |t|^2 must be non-negative")

    @property
    def center(self) -> float:
        """Point-symmetry centre of the sensor, pixel units (per axis)."""
        return (self.size - 1) / 2.0

    def subcell_coordinates(self) -> np.ndarray:
        """Physical positions of subcell centres along one axis."""
        return _subcell_centres(self.size, self.oversample)

    def near_density(self) -> np.ndarray:
        """Unnormalized pair density |t|^4 for the near-field geometry."""
        return self.magnitude2 ** 2

    def far_density(self) -> np.ndarray:
        """Unnormalized pair density |t(x)|^2 |t(c-x)|^2 for the far field.

        The point reflection about the sensor centre maps subcell j to
        subcell n-1-j per axis, a plain array reversal.
        """
        return self.magnitude2 * self.magnitude2[::-1, ::-1]


def block_mean(subgrid: np.ndarray, oversample: int) -> np.ndarray:
    """Average an oversampled array down to the camera grid."""
    n = subgrid.shape[0] // oversample
    m = subgrid.shape[1] // oversample
    return subgrid.reshape(n, oversample, m, oversample).mean(axis=(1, 3))


def half_pixel_average(subgrid: np.ndarray, oversample: int) -> np.ndarray:
    """Average an oversampled array over half-pixel windows.

    Window k is the half-pixel-wide interval centred at physical position
    k / 2, the natural sampling comb of pair sum/difference coordinates.
    For a size-M sensor this yields a (2M-1, 2M-1) array.  Requires
    ``oversample % 4 == 0`` so windows align with subcell boundaries.
    """
    f = oversample
    if f % 4 != 0:
        raise ConfigurationError("half-pixel windows need oversample % 4 == 0")
    out = subgrid
    for axis in (0, 1):
        arr = np.moveaxis(out, axis, 0)
        n_half = (arr.shape[0] // f) * 2 - 1
        seg = arr[f // 4: f // 4 + (f // 2) * n_half]
        arr = seg.reshape(n_half, f // 2, *arr.shape[1:]).mean(axis=1)
        out = np.moveaxis(arr, 0, axis)
    return out


def _subgrid_mesh(size: int, oversample: int):
    """The subcell centres as a column (y) and a row (x), which broadcast
    to the (n, n) subgrid as a meshgrid's two arrays would, value for
    value."""
    c = _subcell_centres(size, oversample)
    return c[:, None], c[None, :]


def grating(size: int, period: float, duty: float, oversample: int = 8,
            orientation: str = "y") -> Scene:
    """Binary amplitude grating: transmissive slits of width duty*period.

    The fringe axis is *orientation*; slits open where the coordinate
    modulo the period falls below duty * period.
    """
    if period <= 0 or not (0 < duty < 1):
        raise ConfigurationError("grating needs period > 0 and 0 < duty < 1")
    if orientation not in ("y", "x"):
        raise ConfigurationError(f"orientation must be 'y' or 'x', got {orientation!r}")
    yy, xx = _subgrid_mesh(size, oversample)
    coord = yy if orientation == "y" else xx
    mask = (coord % period) < duty * period
    mag2 = np.broadcast_to(mask, (yy.size, xx.size)).astype(np.float64)
    return Scene(mag2, np.zeros_like(mag2), size, oversample)


def checkerboard_phase(size: int, blocks: int = 3, oversample: int = 8,
                       edge_alignment: str = "pixel",
                       phases: np.ndarray | None = None) -> Scene:
    """Uniform-amplitude phase plate of blocks x blocks constant-phase squares.

    edge_alignment places interior block edges on pixel boundaries
    ("pixel", half-integer positions) or a quarter pixel above them
    ("quarter"), which keeps half-pixel windows clear of phase steps.
    Default phases are evenly spaced over 2 pi, row-major.
    """
    if blocks < 1:
        raise ConfigurationError(f"blocks must be >= 1, got {blocks}")
    if size % blocks != 0:
        raise ConfigurationError(f"size {size} not divisible into {blocks} blocks")
    if edge_alignment == "pixel":
        offset = 0.0
    elif edge_alignment == "quarter":
        offset = 0.25
    else:
        raise ConfigurationError(
            f"edge_alignment must be 'pixel' or 'quarter', got {edge_alignment!r}")
    if phases is None:
        phases = -np.pi + (np.arange(blocks * blocks) + 0.5) * 2 * np.pi / (blocks ** 2)
    phases = np.asarray(phases, dtype=np.float64).reshape(blocks, blocks)
    edges = -0.5 + (size / blocks) * np.arange(1, blocks) + offset
    idx = np.searchsorted(edges, _subcell_centres(size, oversample))
    phase = phases[np.ix_(idx, idx)]
    mag2 = np.ones_like(phase)
    return Scene(mag2, phase, size, oversample)


def _point_in_triangle(yy, xx, a, b, c):
    def side(p, q):
        return (q[1] - p[1]) * (yy - p[0]) - (q[0] - p[0]) * (xx - p[1])
    s1, s2, s3 = side(a, b), side(b, c), side(c, a)
    return ((s1 >= 0) & (s2 >= 0) & (s3 >= 0)) | ((s1 <= 0) & (s2 <= 0) & (s3 <= 0))


CAT_MIN_SIZE = 16  # smallest frame side the silhouette is drawn on


def cat_half_plane(size: int, oversample: int = 8) -> Scene:
    """A transmissive cat silhouette in the lower-coordinate half of the
    field; the other half fully open, the rest opaque.

    Photon pairs in the far-field geometry sit point-symmetric about the
    sensor centre, so one photon can pass the silhouette while its partner
    crosses the open half.  The pair density is then the silhouette plus its
    point-reflected twin, which is what the difference-coordinate image
    displays.
    """
    if size < CAT_MIN_SIZE:
        raise ConfigurationError(f"cat scene needs size >= {CAT_MIN_SIZE}")
    yy, xx = _subgrid_mesh(size, oversample)
    half = (size - 1) / 2.0
    # head circle plus two ear triangles, well inside the closed half
    cy, cx, rad = 0.30 * size, 0.50 * size, 0.16 * size
    head = (yy - cy) ** 2 + (xx - cx) ** 2 <= rad ** 2
    ear_h = 0.17 * size
    left = _point_in_triangle(
        yy, xx,
        (cy - 0.6 * rad, cx - rad), (cy - 0.6 * rad - ear_h, cx - 0.55 * rad),
        (cy - 0.1 * rad, cx - 0.35 * rad))
    right = _point_in_triangle(
        yy, xx,
        (cy - 0.6 * rad, cx + rad), (cy - 0.6 * rad - ear_h, cx + 0.55 * rad),
        (cy - 0.1 * rad, cx + 0.35 * rad))
    silhouette = (head | left | right) & (yy < half - 1.0)
    mag2 = np.where(silhouette | (yy > half), 1.0, 0.0)
    return Scene(mag2, np.zeros_like(mag2), size, oversample)


def uniform(size: int, oversample: int = 8) -> Scene:
    """Fully transmissive flat scene."""
    n = size * oversample
    return Scene(np.ones((n, n)), np.zeros((n, n)), size, oversample)


# the scene kinds a run can name; each builder's parameters are the [scene]
# keys that apply to its kind
SCENES = {"grating": grating, "checkerboard": checkerboard_phase,
          "cat": cat_half_plane, "uniform": uniform}
