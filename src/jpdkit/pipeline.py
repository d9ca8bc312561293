"""Reconstruction pipeline: from a raw banded JPD to a super-resolved image.

The canonical order is

    accumulate -> apply camera separation policy -> interpolate (or accept)
    invalid entries -> filter weak planes -> normalize planes -> project

``super_resolve`` places every valid plane entry at its pair sum coordinate
(near field) or difference coordinate (far field) on the half-pixel grid and
averages the contributions per grid point.  Averaging, not summing, matters:
interior points of the dense grid receive 1, 2 or 4 plane contributions
depending on coordinate parity, and a plain sum would imprint that
multiplicity comb onto the image as a spurious half-sampling modulation.
The plain-sum projections (which conserve total mass) remain available in
:mod:`jpdkit.jpd`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    ConfigurationError,
    DegeneratePlaneError,
    EmptyFilterError,
    InterpolationError,
    StateError,
)
from .images import GridImage
from .jpd import (
    MAX_BAND_RADIUS,
    Jpd,
    accumulate_jpd,
    apply_separation_policy,
    diagonal_image,
    structural_validity,
)


def interpolate_invalid(jpd: Jpd) -> Jpd:
    """Fill camera-invalidated entries from horizontally adjacent
    displacement planes.

    An invalid entry of plane (dy, dx) at pixel r is replaced by the mean of
    the valid entries at the same r of planes (dy, dx-1) and (dy, dx+1); at
    the band edge, or where only one neighbour is valid, the single available
    value is used.  Passes repeat so that freshly filled planes can serve as
    sources (a camera may invalidate several adjacent planes); if a full pass
    makes no progress while holes remain, interpolation fails.

    Only camera-invalidated entries are filled.  Structural holes (partner
    pixel off the sensor) represent measurements that never existed and stay
    excluded.  Defined for the near-field geometry, where a displacement
    plane is a smooth function of the displacement; far-field invalid entries
    can only be accepted via :meth:`Jpd.with_invalid_excluded`.
    """
    if jpd.mode != "near":
        raise StateError(
            "interpolation is defined for near-field JPDs; use "
            "with_invalid_excluded() for far-field data")
    k = jpd.band_radius
    structural = structural_validity(jpd.mode, k, jpd.shape, jpd.center)
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
    return replace(jpd, planes=planes, valid=valid, pending_invalid=False)


def plane_masses(jpd: Jpd) -> np.ndarray:
    """Mass (sum over valid entries) of each plane; inactive planes are NaN."""
    k = jpd.band_radius
    masses = np.full((2 * k + 1, 2 * k + 1), np.nan)
    for dy, dx, a, b in jpd.displacements():
        if jpd.active[a, b]:
            masses[a, b] = jpd.planes[a, b][jpd.valid[a, b]].sum()
    return masses


def filter_jpd(jpd: Jpd, threshold: float = 0.5) -> Jpd:
    """Deactivate planes whose mass falls below threshold times the largest
    active-plane mass.  Genuine-pair mass concentrates in a few displacement
    planes; the rest of the band carries accidental residue.

    Idempotent (survivor masses and their maximum are unchanged) and
    monotone in the threshold.  Raises if nothing would survive.
    """
    if not (0 <= threshold <= 1):
        raise ConfigurationError("filter threshold must lie in [0, 1]")
    if jpd.pending_invalid:
        raise StateError("resolve invalid entries before filtering")
    masses = plane_masses(jpd)
    finite = np.nan_to_num(masses, nan=-np.inf)
    top = finite.max()
    if not np.isfinite(top) or top <= 0:
        raise EmptyFilterError("no active plane with positive mass to filter")
    keep = jpd.active & (finite >= threshold * top)
    if not keep.any():
        raise EmptyFilterError(
            f"threshold {threshold} removed all {int(jpd.active.sum())} planes")
    return replace(jpd, active=keep)


def normalize_jpd(jpd: Jpd) -> Jpd:
    """Divide each active plane by its mean over valid entries.

    Displacement planes carry vastly different total weights (the pair
    correlation width sets them); normalization equalizes the plane scales
    so the interleaved image is free of parity striping.  A plane whose mean
    is non-positive or non-finite cannot be normalized meaningfully.
    """
    if jpd.pending_invalid:
        raise StateError("resolve invalid entries before normalizing")
    planes = jpd.planes.copy()
    for dy, dx, a, b in jpd.displacements():
        if not jpd.active[a, b]:
            continue
        v = jpd.valid[a, b]
        if not v.any():
            raise DegeneratePlaneError(
                f"plane ({dy}, {dx}) has no valid entries to normalize")
        mean = planes[a, b][v].mean()
        if not np.isfinite(mean) or mean <= 0:
            raise DegeneratePlaneError(
                f"plane ({dy}, {dx}) mean {mean!r} is not normalizable")
        planes[a, b] = np.where(v, planes[a, b] / mean, 0.0)
    return replace(jpd, planes=planes)


def super_resolve(jpd: Jpd) -> GridImage:
    """Interleave plane values on the half-pixel grid, averaging the
    contributions that coincide at each dense-grid point.

    Near field: entry (r, d) maps to the pair sum coordinate 2r + d.  Far
    field: entry (r, u) maps to the difference coordinate 2r - c - u, which
    charts the double field of view.  Points never touched by a valid entry
    of an active plane stay zero; the per-point contribution counts are kept
    on the returned image.
    """
    if jpd.pending_invalid:
        raise StateError("resolve invalid entries before super-resolving")
    h, w = jpd.shape
    sh, sw = 2 * h - 1, 2 * w - 1
    img = np.zeros((sh, sw))
    cnt = np.zeros((sh, sw))
    ys, xs = np.mgrid[0:h, 0:w]
    if jpd.mode == "near":
        oy, ox = 0, 0
        origin = (0.0, 0.0)
    else:
        oy, ox = -(h - 1), -(w - 1)
        origin = (oy / 2.0, ox / 2.0)
    for dy, dx, a, b in jpd.displacements():
        if not jpd.active[a, b]:
            continue
        v = jpd.valid[a, b]
        if jpd.mode == "near":
            sy, sx = 2 * ys + dy, 2 * xs + dx
        else:
            sy = 2 * ys - jpd.center[0] - dy - oy
            sx = 2 * xs - jpd.center[1] - dx - ox
        ok = v & (sy >= 0) & (sy < sh) & (sx >= 0) & (sx < sw)
        np.add.at(img, (sy[ok], sx[ok]), jpd.planes[a, b][ok])
        np.add.at(cnt, (sy[ok], sx[ok]), 1.0)
    filled = cnt > 0
    img = np.where(filled, img / np.maximum(cnt, 1.0), 0.0)
    return GridImage(img, pitch=0.5, origin=origin, counts=cnt)


@dataclass
class PipelineResult:
    """Outcome of :func:`reconstruct`: the processed JPD, the super-resolved
    image and (near field) the native-sampling diagonal image."""

    jpd: Jpd
    image: GridImage
    native: GridImage | None


def process_jpd(jpd: Jpd, camera=None, threshold: float | None = 0.5,
                normalize: bool = True, interpolate: bool = True) -> Jpd:
    """Apply the standard post-estimation steps to a raw JPD."""
    if camera is not None:
        jpd = apply_separation_policy(jpd, camera.invalid_pair_separation)
        if interpolate and jpd.mode == "near":
            jpd = interpolate_invalid(jpd)
        else:
            jpd = jpd.with_invalid_excluded()
    if threshold is not None:
        jpd = filter_jpd(jpd, threshold)
    if normalize:
        jpd = normalize_jpd(jpd)
    return jpd


def reconstruct(frames: np.ndarray, mode: str = "near", camera=None,
                band_radius: int = 3, threshold: float | None = 0.5,
                normalize: bool = True, interpolate: bool = True,
                chunk_size: int = 256, workers: int | None = None) -> PipelineResult:
    """Run the full pipeline on a frame stack.

    *camera* supplies the separation validity policy (None treats every
    estimated entry as usable, appropriate only for synthetic data);
    *threshold* None skips the plane filter.  The band radius must lie in
    [1, min(max(H, W) - 1, MAX_BAND_RADIUS)]; it is checked before any
    accumulation.
    """
    frames = np.asarray(frames)
    if frames.ndim == 3:
        limit = min(max(frames.shape[1:]) - 1, MAX_BAND_RADIUS)
        if not 1 <= band_radius <= limit:
            raise ConfigurationError(
                f"band radius {band_radius} outside [1, {limit}] for "
                f"{frames.shape[1]}x{frames.shape[2]} frames")
    jpd = accumulate_jpd(frames, mode=mode, band_radius=band_radius,
                         chunk_size=chunk_size, workers=workers)
    jpd = process_jpd(jpd, camera=camera, threshold=threshold,
                      normalize=normalize, interpolate=interpolate)
    image = super_resolve(jpd)
    native = None
    if mode == "near" and jpd.active[band_radius, band_radius]:
        native = diagonal_image(jpd)
    return PipelineResult(jpd, image, native)
