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
    _apply_policy,
    _check_args,
    _copy,
    _finalize,
    _require_resolved,
    check_band_radius,
    diagonal_image,
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

    *jpd* is left as it is: the holes of one copy are filled in place, and
    every pass reuses one band of neighbour sums and one of u8 counts.
    """
    if jpd.mode != "near":
        raise StateError(
            "interpolation is defined for near-field JPDs; use "
            "with_invalid_excluded() for far-field data")
    return _interpolate(_copy(jpd))


def _interpolate(jpd: Jpd) -> Jpd:
    """:func:`interpolate_invalid` on a near-field JPD whose planes and mask
    it may overwrite."""
    k = jpd.band_radius
    planes, valid = jpd.planes, jpd.valid
    holes = structural_validity(jpd.mode, k, jpd.shape) & ~valid
    acc = np.empty_like(planes)
    cnt = np.empty(planes.shape, np.uint8)
    fill = np.empty_like(holes)
    while holes.any():
        # the valid dx - 1, then dx + 1 neighbours, added to zeros: 0 + x
        # is never -0, so skipping an invalid neighbour gives the bits of
        # adding a zero; the order fixes the float bits
        acc.fill(0.0)
        np.add(acc[:, 1:], planes[:, :-1], out=acc[:, 1:], where=valid[:, :-1])
        np.add(acc[:, :-1], planes[:, 1:], out=acc[:, :-1], where=valid[:, 1:])
        cnt.fill(0)
        cnt[:, 1:] += valid[:, :-1]
        cnt[:, :-1] += valid[:, 1:]
        np.greater(cnt, 0, out=fill)
        fill &= holes
        if not fill.any():
            bad = [(int(a) - k, int(b) - k)
                   for a, b in np.argwhere(holes.any(axis=(2, 3)))]
            raise InterpolationError(
                f"no valid neighbouring plane to interpolate from for {bad}")
        np.divide(acc, cnt, out=planes, where=fill)
        valid |= fill
        holes &= ~fill
    return replace(jpd, pending_invalid=False)


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
    is non-positive or non-finite cannot be normalized meaningfully.  *jpd*
    is left as it is: one copy is normalized in place.
    """
    return _normalize(_copy(jpd))


def _normalize(jpd: Jpd) -> Jpd:
    """:func:`normalize_jpd` on a JPD whose planes it may overwrite."""
    _require_resolved(jpd, "normalization")
    for dy, dx, a, b in jpd.displacements():
        if not jpd.active[a, b]:
            continue
        v, plane = jpd.valid[a, b], jpd.planes[a, b]
        if not v.any():
            raise DegeneratePlaneError(
                f"plane ({dy}, {dx}) has no valid entries to normalize")
        mean = plane[v].mean()
        if not np.isfinite(mean) or mean <= 0:
            raise DegeneratePlaneError(
                f"plane ({dy}, {dx}) mean {float(mean)} is not normalizable")
        plane /= mean
        np.copyto(plane, 0.0, where=~v)
    return jpd


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
    """Apply the standard post-estimation steps to a raw JPD: the camera's
    separation policy, interpolation (near field) or acceptance of the
    holes, the plane filter and normalization.

    *jpd* is left as it is: its planes and mask are copied once, and every
    step works in place on the copy, so beside its input the steps hold the
    copy, interpolation's band of neighbour sums and bool and u8 masks.
    """
    return _process(_copy(jpd), camera, threshold, normalize, interpolate)


def _process(jpd: Jpd, camera, threshold: float | None, normalize: bool,
             interpolate: bool) -> Jpd:
    """:func:`process_jpd` on a JPD whose planes and mask it may
    overwrite."""
    if camera is not None:
        jpd = _apply_policy(jpd, camera.invalid_pair_separation)
        if interpolate and jpd.mode == "near":
            jpd = _interpolate(jpd)
        else:
            jpd = jpd.with_invalid_excluded()
    if threshold is not None:
        jpd = filter_jpd(jpd, threshold)
    if normalize:
        jpd = _normalize(jpd)
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

    The band it accumulates is its own, so it is finalized and processed
    in place, as :func:`~jpdkit.jpd.accumulate_jpd` and
    :func:`process_jpd` work on their copies: past the chunk reads it holds
    at most two bands and their masks.
    """
    if threshold is not None:
        check_threshold(threshold)
    frames = _check_args(frames, mode, band_radius, chunk_size, workers)
    check_band_radius(band_radius, frames.shape[1:])
    jpd = _finalize(_accumulate(frames, mode, band_radius, chunk_size,
                                workers))
    jpd = _process(jpd, camera, threshold, normalize, interpolate)
    image = super_resolve(jpd)
    native = None
    if mode == "near" and jpd.active[band_radius, band_radius]:
        native = diagonal_image(jpd)
    return PipelineResult(jpd, image, native)
