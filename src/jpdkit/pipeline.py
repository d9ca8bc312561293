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
The half-pixel index map lives once, in :func:`jpdkit.jpd.half_grid_index`.
``super_resolve`` divides ``scatter_half_grid``'s scatter of the plane values
by its scatter of ones; the plain-sum projections of :mod:`jpdkit.jpd`, but
the near-field difference image, scatter the plane values alone.
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
    DEFAULT_BAND_RADIUS,
    DEFAULT_CHUNK_SIZE,
    Jpd,
    _accumulate,
    _check_args,
    _require_resolved,
    apply_separation_policy,
    check_band_radius,
    diagonal_image,
    finalize_jpd,
    plane_masses,
    scatter_half_grid,
    structural_validity,
)


def interpolate_invalid(jpd: Jpd) -> Jpd:
    """Fill camera-invalidated entries from horizontally adjacent
    displacement planes.

    An invalid entry of plane (dy, dx) at pixel r is replaced by the mean of
    the valid entries at the same r of planes (dy, dx-1) and (dy, dx+1); at
    the band edge, or where only one neighbour is valid, the single available
    value is used.  Each pass fills, over the whole band at once, every hole
    with a valid neighbour from the previous pass's values; passes repeat so
    that freshly filled planes can serve as sources (a camera may invalidate
    several adjacent planes).  A pass that fills nothing fails.

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
    planes, valid = jpd.planes, jpd.valid
    holes = structural_validity(jpd.mode, k, jpd.shape) & ~valid
    while holes.any():
        # valid dx - 1, then dx + 1 neighbours; the order fixes the float bits
        src = np.where(valid, planes, 0.0)
        acc, cnt = np.zeros_like(src), np.zeros_like(src)
        acc[:, 1:] += src[:, :-1]
        acc[:, :-1] += src[:, 1:]
        cnt[:, 1:] += valid[:, :-1]
        cnt[:, :-1] += valid[:, 1:]
        fill = holes & (cnt > 0)
        if not fill.any():
            bad = [(int(a) - k, int(b) - k)
                   for a, b in np.argwhere(holes.any(axis=(2, 3)))]
            raise InterpolationError(
                f"no valid neighbouring plane to interpolate from for {bad}")
        planes = np.where(fill, acc / np.maximum(cnt, 1), planes)
        valid = valid | fill
        holes &= ~fill
    return replace(jpd, planes=planes, valid=valid, pending_invalid=False)


def check_threshold(threshold: float) -> None:
    """Refuse a plane-filter threshold outside [0, 1], NaN included."""
    if not (0 <= threshold <= 1):
        raise ConfigurationError("filter threshold must lie in [0, 1]")


def filter_jpd(jpd: Jpd, threshold: float = 0.5) -> Jpd:
    """Deactivate planes whose mass falls below threshold times the largest
    active-plane mass.  Genuine-pair mass concentrates in a few displacement
    planes; the rest of the band carries accidental residue.

    Idempotent (survivor masses and their maximum are unchanged) and
    monotone in the threshold.  Raises if nothing would survive.
    """
    check_threshold(threshold)
    _require_resolved(jpd, "plane filter")
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
    _require_resolved(jpd, "normalization")
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
                f"plane ({dy}, {dx}) mean {float(mean)} is not normalizable")
        planes[a, b] = np.where(v, planes[a, b] / mean, 0.0)
    return replace(jpd, planes=planes)


def super_resolve(jpd: Jpd) -> GridImage:
    """Interleave plane values on the half-pixel grid, averaging the
    contributions that coincide at each dense-grid point.

    Near field: entry (r, d) maps to the pair sum coordinate r + p, p its
    partner pixel; far field: to the difference coordinate r - p, which
    charts the double field of view.  Points never touched by a valid entry
    of an active plane stay zero; the per-point contribution counts are kept
    on the returned image.
    """
    _require_resolved(jpd, "super-resolution")
    coordinate = "sum" if jpd.mode == "near" else "difference"
    image = scatter_half_grid(jpd, jpd.planes, coordinate)
    cnt = scatter_half_grid(jpd, 1.0, coordinate).values
    image.values = np.where(cnt > 0, image.values / np.maximum(cnt, 1.0), 0.0)
    image.counts = cnt
    return image


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


def reconstruct(frames, mode: str = "near", camera=None,
                band_radius: int = DEFAULT_BAND_RADIUS,
                threshold: float | None = 0.5, normalize: bool = True,
                interpolate: bool = True, chunk_size: int = DEFAULT_CHUNK_SIZE,
                workers: int | None = None) -> PipelineResult:
    """Run the full pipeline on a frame stack: an array, a
    :class:`~jpdkit.frames.FrameSource`, or an iterator of blocks of its
    frames, such as :func:`~jpdkit.simulate.simulate_chunks` returns, read
    one chunk at a time as :func:`~jpdkit.jpd.accumulate_jpd` reads it.

    *camera* supplies the separation validity policy (None treats every
    estimated entry as usable, appropriate only for synthetic data);
    *threshold* None skips the plane filter.  The threshold is checked
    (:func:`check_threshold`), then the stack once, as the accumulator
    checks it, then the band radius by
    :func:`~jpdkit.jpd.check_band_radius`, before any accumulation.
    """
    if threshold is not None:
        check_threshold(threshold)
    frames = _check_args(frames, mode, band_radius, chunk_size, workers)
    check_band_radius(band_radius, frames.shape[1:])
    jpd = finalize_jpd(_accumulate(frames, mode, band_radius, chunk_size,
                                   workers))
    jpd = process_jpd(jpd, camera=camera, threshold=threshold,
                      normalize=normalize, interpolate=interpolate)
    image = super_resolve(jpd)
    native = None
    if mode == "near" and jpd.active[band_radius, band_radius]:
        native = diagonal_image(jpd)
    return PipelineResult(jpd, image, native)
