"""Joint probability distribution (JPD) estimation and banded storage.

The coincidence structure of a photon-pair frame stack is summarized by the
JPD ``Gamma(r1, r2)``, the frame-averaged product of intensities at two pixels
with the accidental (uncorrelated) part removed by a consecutive-frame
subtraction:

    Gamma(r1, r2) = mean_l [ I_l(r1) I_l(r2) - I_l(r1) I_{l+1}(r2) ]

Genuine pairs only populate separations up to a few pixels (near field) or
positions nearly point-symmetric about the sensor centre (far field), so only
a narrow band of the full 4-D object is kept:

* near field: plane ``d`` holds ``Gamma(r, r + d)`` for ``|d|_inf <= K``;
* far field: plane ``u`` holds ``Gamma(r, c - r + u)`` where ``c`` is the
  point-symmetry centre, derived from the frame shape as ``(H - 1, W - 1)``.

That partner map is defined once, in ``_partners``, on the point reflection
of the far field (``reflect``), which the simulator's pair model and the
analytic JPD use too; the structural mask, the symmetrization, the
separation policy and the half-pixel index of the pair sum and difference
coordinates (``half_grid_index``) are all built on it.

Each plane comes with a validity mask.  Entries whose partner pixel falls off
the sensor are structurally invalid and never receive data; camera profiles
may invalidate further entries (for example the self-product diagonal, which
the estimator cannot debias).  Once a separation policy has been applied the
JPD is flagged as holding unresolved invalid entries, and projections refuse
to run until the caller either interpolates the holes or explicitly accepts
their exclusion, so silent drop-outs cannot skew downstream images.
"""

from __future__ import annotations

import collections
import itertools
import os
import struct
import threading
from collections.abc import Iterator
from dataclasses import dataclass, replace

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import (
    ConfigurationError,
    FileFormatError,
    InsufficientDataError,
    PrecisionError,
    StateError,
)
from .frames import (Blocks, FrameSource, check_blocks, check_stack,
                     unpack_header)
from .images import GridImage

MODES = ("near", "far")  # the imaging geometries
DEFAULT_BAND_RADIUS = 3
DEFAULT_CHUNK_SIZE = 256
# pixel columns per band-kernel GEMM tile: 8 and 4 run within 6 % of each
# other on the three benchmark stacks (2 cores, ms per chunk: 2.29 and 2.31
# near_grating_k3, 1.86 and 1.97 emccd_fine_k1, 2.33 and 2.22
# far_cat_spad64), and 8 stages fewer halo columns; 16 is 1.3-2.6x slower
TILE_WIDTH = 8
# bytes of a band-kernel chunk's pix, part and prod buffers, past which it
# runs over bands of frame rows: at chunk 256 and K = 1 in float64, 32 x 32
# frames take 3.2 MB, 256 x 256 frames 157 MB
KERNEL_BYTES = 2 ** 23
# frames per block of the kernel's transposing cast: per chunk, ms, whole
# against blocks of 32 (2 cores): 0.334 and 0.210 near_grating_k3 (u16 to
# float32), 0.396 and 0.314 emccd_fine_k1 (u16 to float64), 0.361 and
# 0.227 far_cat_spad64 (bool, read as u8, to float32)
STAGE_FRAMES = 32
EXACT_SUM_LIMIT = 2 ** 53  # float64 holds every integer below this exactly
FLOAT32_SUM_LIMIT = 2 ** 24  # float32 holds every integer below this exactly


@dataclass(frozen=True)
class Jpd:
    """Banded JPD.

    mode         -- "near" or "far"
    band_radius  -- K; planes cover displacements in [-K, K]^2
    planes       -- (2K+1, 2K+1, H, W) float64, plane [a, b] holds
                    displacement (a - K, b - K)
    valid        -- same shape, False where no usable estimate exists
    active       -- (2K+1, 2K+1) bool, False for planes dropped by a filter
    n_frames     -- frames behind the estimate (0 for analytic constructions)
    pending_invalid -- True once a separation policy has flagged entries that
                    the caller has not yet interpolated or accepted
    """

    mode: str
    band_radius: int
    planes: np.ndarray
    valid: np.ndarray
    active: np.ndarray
    n_frames: int
    pending_invalid: bool = False

    @property
    def shape(self) -> tuple[int, int]:
        return self.planes.shape[2], self.planes.shape[3]

    @property
    def center(self) -> tuple[int, int]:
        """Far-field symmetry centre (pixel indices), derived: (H-1, W-1)."""
        return self.shape[0] - 1, self.shape[1] - 1

    def displacements(self):
        """Iterate (dy, dx, plane index pair) over the band."""
        k = self.band_radius
        for a in range(2 * k + 1):
            for b in range(2 * k + 1):
                yield a - k, b - k, a, b

    def _index(self, dy: int, dx: int) -> tuple[int, int]:
        k = self.band_radius
        if abs(dy) > k or abs(dx) > k:
            raise ConfigurationError(f"displacement ({dy}, {dx}) outside band {k}")
        return dy + k, dx + k

    def plane(self, dy: int, dx: int) -> np.ndarray:
        return self.planes[self._index(dy, dx)]

    def plane_valid(self, dy: int, dx: int) -> np.ndarray:
        return self.valid[self._index(dy, dx)]

    @classmethod
    def from_planes(cls, mode: str, planes: np.ndarray, n_frames: int) -> "Jpd":
        """A fresh band of a float64 copy of *planes*, (2K+1, 2K+1, H, W):
        every plane active, and the entries whose partner pixel is off the
        sensor invalid and zeroed."""
        return _fresh(mode, np.array(planes, dtype=np.float64), n_frames)

    def with_invalid_excluded(self) -> "Jpd":
        """Accept invalid entries as missing; projections will skip them."""
        return replace(self, pending_invalid=False)


@dataclass
class PartialJpd:
    """Un-normalized accumulator over a contiguous run of frame pairs.

    Chunks of a stream are accumulated independently (the last frame of one
    chunk is repeated as the first frame of the next) and merged in order;
    n_terms counts consecutive-frame products, so a finalized stream of
    n_terms products corresponds to n_terms + 1 frames.
    """

    mode: str
    band_radius: int
    shape: tuple[int, int]
    sums: np.ndarray
    n_terms: int


def check_mode(mode: str) -> None:
    if mode not in MODES:
        raise ConfigurationError(
            f"mode must be {' or '.join(map(repr, MODES))}, got {mode!r}")


def check_band_radius(band_radius: int, shape) -> None:
    """Refuse a band radius outside [1, min(min(H, W) - 1, MAX_BAND_RADIUS)]
    for frames of *shape* (H, W): inside it every band plane has entries
    whose partner pixel is on the sensor, and a snapshot can store it."""
    limit = min(min(shape) - 1, MAX_BAND_RADIUS)
    if not 1 <= band_radius <= limit:
        raise ConfigurationError(
            f"band radius {band_radius} outside [1, {limit}] for "
            f"{shape[0]}x{shape[1]} frames")


def _check_args(frames, mode: str, band_radius: int, chunk_size: int,
                workers: int | None):
    """The checks every accumulation makes, the arguments' before the
    source is touched and the source's, by :func:`~jpdkit.frames.check_stack`
    for at least 2 frames, before any chunk is accumulated; returns
    *frames* as an array, as the :class:`~jpdkit.frames.FrameSource` it
    is, or, when it is an iterator of blocks, as the
    :class:`~jpdkit.frames.Blocks` that :func:`~jpdkit.frames.check_blocks`
    reads up to its second frame."""
    check_mode(mode)
    if band_radius < 0:
        raise ConfigurationError("band radius must be >= 0")
    if chunk_size < 1:
        raise ConfigurationError("chunk_size must be >= 1")
    if workers is not None and workers < 1:
        raise ConfigurationError("workers must be >= 1 or None")
    if isinstance(frames, Iterator):
        frames = check_blocks(frames, 2)
    elif not isinstance(frames, FrameSource):
        frames = np.asarray(frames)
    check_stack(frames, 2)
    return frames


def accumulate_partial(frames, mode: str = "near",
                       band_radius: int = DEFAULT_BAND_RADIUS) -> PartialJpd:
    """Accumulate the estimator numerator over one contiguous chunk: any
    source :func:`accumulate_jpd` takes, read whole, checked and refused
    as :func:`accumulate_jpd` checks and refuses it.  An integer or bool
    source is read in pieces whose frames fit KERNEL_BYTES, which leave
    its sums' bits as they are.

    The chunk contributes ``len(frames) - 1`` consecutive-frame terms; feed
    overlapping chunks (repeat the boundary frame) to cover a long stream.
    """
    # one serial chunk of a source shorter than 2**63 terms: all of it
    frames = _check_args(frames, mode, band_radius, 2 ** 63, None)
    return _accumulate(frames, mode, band_radius, 2 ** 63, None)


def _accumulate_chunk(frames: np.ndarray, dtype, mode: str,
                      band_radius: int, scratch: dict,
                      sums: np.ndarray | None = None,
                      add: bool = False) -> PartialJpd:
    """:func:`accumulate_partial` of a checked chunk in the kernel *dtype*
    that :func:`_typed` gives it, into the float64 band *sums*: a fresh
    zeroed one when None.  The chunk's band is stored in it or, with *add*,
    added to it in place, which are the float64 additions
    :func:`merge_partials` makes, so the same bits.  A store writes every
    entry but those of the planes no partner reaches, which stay zero, so
    the band of an earlier chunk of the same frame shape and radius serves
    as a fresh one.

    It runs over bands of frame rows whose kernel
    buffers (``pix``, ``part`` and ``prod``) fit KERNEL_BYTES; a chunk
    whose buffers fit runs as one band.  The buffers, with their views,
    come from *scratch* when a chunk of the same shape and kernel dtype
    left them there, and are left there for the next chunk; any other
    chunk replaces them.  Their padding is never written, so it is zeroed
    only when they are allocated.  One *scratch* serves one band radius.

    A band runs one batched matmul per column tile, which covers every
    row offset of the band, and one strided copy of all its planes into
    the band sums.
    """
    h, w = frames.shape[1:]
    k = band_radius
    ky, kx = min(k, h - 1), min(k, w - 1)
    n = frames.shape[0] - 1
    b = TILE_WIDTH
    tiles = -(-w // b)
    cols = tiles * b
    span = b + 2 * kx  # a tile's columns and their kx-column halos
    m = (2 * ky + 1) * span  # a tile row's partners: span columns per dy
    edge = cols - w + kx  # zero columns on either side of a staged frame
    item = np.dtype(dtype).itemsize
    sign = 1 if mode == "near" else -1
    # Rows per band: all h if one band's buffers fit the budget, else as
    # many as fit (at least one) beside the 2 ky halo rows of pix and part;
    # far-field bands also copy their own rows to pix (see below).
    pix_row = (w + 2 * edge) * (n + 1) * item
    part_row = span * n * item
    prod_row = cols * (m + 1) * item
    rows = h if h * (pix_row + part_row + prod_row) + 2 * ky * part_row \
        <= KERNEL_BYTES else max(1, (
            KERNEL_BYTES - 2 * ky * (pix_row + part_row)) // (
            pix_row * (2 if sign < 0 else 1) + part_row + prod_row))
    # pix: pixel-major frames, (rows, w + 2 edge, n + 1), with the frame in
    # columns [edge, edge + w); the zero columns on either side are what
    # the halos and the tile padding read past the sensor, whether the
    # columns are read forward or reversed.  It stages a band's partner
    # rows with their ky-row halo; the band's own rows are a view of them
    # when they lie inside (always in the near field, and for one band),
    # else they are copied to pix's last `rows` rows, which only far-field
    # bands have.
    # part: one tile's partner differences d_l = a_l - a_{l+1},
    # (rows + 2 ky, b + 2 kx, n): its b columns with kx halo columns on
    # either side, and ky zero rows above and below the band.  Far field:
    # plane u pairs r with c - r + u, so the partner rows and columns are
    # read reversed, which turns plane u into offset -u.
    # prod: the band's products, (rows, cols (m + 1)).
    # The 2 ky + 1 partner rows of a tile's pixel row are contiguous in
    # part, so one matmul per tile covers every dy: row x = tb + i of the
    # tile's product holds, at (dy + ky) span + j,
    #     sum_l a_l(y, x) d_l(partner row y + dy, tb + j - kx),
    # and plane (dy, dx) is the entry at j = i + dx + kx.  The product rows
    # are laid out m items apart within a tile and m + 1 items from one
    # tile to the next, so that entry lies at x (m + 1) + (dy + ky) span +
    # dx + kx for every x, and one strided view holds all the band's
    # planes.  Entries whose partner lies off the sensor are computed as
    # zeros; those whose pixel lies in the tile padding are never stored.
    # The scratch keeps the views with the buffers: every tile row's
    # partners, every tile's matmul output and the band's planes.
    key = frames.shape, dtype
    if key not in scratch:
        scratch.clear()
        staged = min(h, rows + 2 * ky)
        own = rows if sign < 0 and rows < h else 0
        pix = np.zeros((staged + own, w + 2 * edge, n + 1), dtype)
        part = np.zeros((rows + 2 * ky, span, n), dtype)
        prod = np.empty((rows, cols * (m + 1)), dtype)
        scratch[key] = (
            pix, part,
            as_strided(part, (rows, m, n), part.strides).swapaxes(1, 2),
            as_strided(prod, (tiles, rows, b, m),
                       (b * (m + 1) * item, prod_row, m * item, item)),
            as_strided(prod, (2 * ky + 1, 2 * kx + 1, rows, w),
                       (span * item, item, prod_row, (m + 1) * item),
                       writeable=False))
    pix, part, partners, out, band = scratch[key]
    if sums is None:
        sums = np.zeros((2 * k + 1, 2 * k + 1, h, w))
    # the planes the kernel fills, in its (dy, dx) order
    planes = sums[k - ky:k + ky + 1, k - kx:k + kx + 1][::sign, ::sign]
    for y0 in range(0, h, rows):
        y1 = min(h, y0 + rows)
        r = y1 - y0
        # the band's partner rows [lo, hi) in read order, at part rows
        # [p0, p1), and the frame rows [f0, f1) they come from
        lo, hi = max(0, y0 - ky), min(h, y1 + ky)
        p0, p1 = lo - y0 + ky, hi - y0 + ky
        f0, f1 = (lo, hi) if sign > 0 else (h - hi, h - lo)
        stage = pix[:f1 - f0]
        _stage(stage[:, edge:edge + w], frames[:, f0:f1])
        # partner columns [-kx, cols + kx) in read order, and each tile's
        # window of them
        src = (stage[:, cols - w:] if sign > 0
               else stage[::-1, cols + 2 * kx - 1::-1])
        s0, s1, s2 = src.strides
        src = as_strided(src, (tiles, hi - lo, span, n + 1),
                         (b * s1, s0, s1, s2), writeable=False)
        if f0 <= y0 and y1 <= f1:
            mine = stage[y0 - f0:y1 - f0]
        else:
            mine = pix[-rows:][:r]
            _stage(mine[:, edge:edge + w], frames[:, y0:y1])
        a = mine[:, edge:edge + cols, :-1].reshape(r, tiles, b, n)
        if rows < h:  # rows off the sensor here may hold another band's
            part[:p0] = 0
            part[p1:r + 2 * ky] = 0
        for t in range(tiles):
            np.subtract(src[t, ..., :-1], src[t, ..., 1:], out=part[p0:p1])
            np.matmul(a[:, t], partners[:r], out=out[t, :r])
        # the band's planes, widened to float64, added or stored
        if add:
            planes[:, :, y0:y1] += band[:, :, :r]
        else:
            planes[:, :, y0:y1] = band[:, :, :r]
    return PartialJpd(mode, k, (h, w), sums, n)


def _stage(out: np.ndarray, frames: np.ndarray) -> None:
    """Cast frames (l, y, x) into *out* at (y, x, l), STAGE_FRAMES frames
    at a time; bool frames are read as u8, which casts faster."""
    if frames.dtype == np.bool_:
        frames = frames.view(np.uint8)
    for t in range(0, frames.shape[0], STAGE_FRAMES):
        block = frames[t:t + STAGE_FRAMES]
        out[..., t:t + STAGE_FRAMES] = block.transpose(1, 2, 0)


def _sum_bound(n_terms: int, lo: int, hi: int) -> int:
    """The bound n_terms * max|a| * max|a - a'| on every sum of n_terms
    consecutive-frame products of values in [lo, hi]."""
    return n_terms * max(-lo, hi) * (hi - lo)


def _typed(frames, chunk_size: int, dry: bool = False):
    """The chunks of a checked source (:func:`_chunks`), in order, each with
    the dtype the kernel runs it in.

    An integer or bool chunk runs in float32 when :func:`_sum_bound` of its
    term count and value range is below FLOAT32_SUM_LIMIT, in float64
    otherwise; a float chunk runs in float64.  Either way every partial sum
    of an integer chunk is exact under any summation order, so the float64
    sums get the same bits from both kernels, whatever the tiles, BLAS's
    blocking, the row bands, the chunking or the thread count.

    Integer and bool sums must also stay below EXACT_SUM_LIMIT, where
    float64 stops holding integers exactly: past it, by the bound of the
    running term count and value range over every chunk so far,
    PrecisionError.  A stream is checked as it is read, before the chunk
    that would cross; an array or a file whose dtype range over all its
    terms could cross is checked in a *dry* pass before its first chunk.

    A chunk's range is read once, and only as far as the bound needs it:
    its max when the dtype's range does not decide, then its min when the
    dtype's min and the chunk's max do not (unsigned and bool: n max**2).
    The running check reads both, since a stream's chunk cannot be read
    again once the running bound needs its range.
    """
    if frames.dtype.kind not in "biu":
        for chunk in _chunks(frames, chunk_size):
            yield chunk, np.float64
            del chunk  # released before the next chunk is read
        return
    span = ((0, 1) if frames.dtype == np.bool_
            else (np.iinfo(frames.dtype).min, np.iinfo(frames.dtype).max))
    running = dry or isinstance(frames, Blocks)
    if not running and _sum_bound(frames.shape[0] - 1,
                                  *span) >= EXACT_SUM_LIMIT:
        collections.deque(_typed(frames, chunk_size, dry=True), 0)
    terms, lo, hi = 0, np.inf, -np.inf
    for chunk in _chunks(frames, chunk_size):
        n, (c_lo, c_hi) = len(chunk) - 1, span
        if running or _sum_bound(n, c_lo, c_hi) >= FLOAT32_SUM_LIMIT:
            c_hi = int(chunk.max())
        if running or _sum_bound(n, c_lo, c_hi) >= FLOAT32_SUM_LIMIT:
            c_lo = int(chunk.min())
        if running:
            terms, lo, hi = terms + n, min(lo, c_lo), max(hi, c_hi)
            if _sum_bound(terms, lo, hi) >= EXACT_SUM_LIMIT:
                raise PrecisionError(
                    f"{terms} frame pairs with values in [{lo}, {hi}] may "
                    f"sum past {EXACT_SUM_LIMIT}, beyond which float64 "
                    "accumulation is not exact; split the stack")
        yield chunk, (np.float32 if _sum_bound(n, c_lo, c_hi)
                      < FLOAT32_SUM_LIMIT else np.float64)
        del chunk  # released before the next chunk is read


def merge_partials(parts) -> PartialJpd:
    """Merge chunk accumulators in the order given, consuming *parts* (any
    iterable) one at a time; order does not affect the sums' bits for
    integer-valued frames and is kept chunk-major for float ones."""
    parts = iter(parts)
    first = next(parts, None)
    if first is None:
        raise InsufficientDataError("no partial accumulators to merge")
    sums = first.sums.copy()
    n_terms = first.n_terms
    for p in parts:
        if (p.mode, p.band_radius, p.shape) != (
                first.mode, first.band_radius, first.shape):
            raise StateError("partial accumulators disagree in geometry")
        sums += p.sums
        n_terms += p.n_terms
    return PartialJpd(first.mode, first.band_radius, first.shape, sums, n_terms)


def reflect(mode: str, r, n: int, out=None):
    """Where the partner of a photon at coordinate *r* lands, along one axis
    of side n: at r itself in the near field, at its point reflection
    (n - 1) - r about the sensor centre in the far field.  ``out=r``
    reflects the array r in place."""
    return r if mode == "near" else np.subtract(n - 1, r, out=out)


def _partners(mode: str, band_radius: int, n: int) -> np.ndarray:
    """(2K+1, n) partner coordinate along one axis of side n, indexed by
    [d + K, r]: the :func:`reflect` of r, plus d."""
    d = np.arange(-band_radius, band_radius + 1)[:, None]
    return reflect(mode, np.arange(n), n) + d


def half_grid_index(mode: str, coordinate: str, band_radius: int,
                    n: int) -> np.ndarray:
    """(2K+1, n) index on the half-pixel grid of one axis of side n, indexed
    like :func:`_partners`, of the pair coordinate of pixel r and its
    partner p: r + p for the "sum" coordinate (origin 0), r - p + (n - 1)
    for the "difference" coordinate (origin -(n - 1) / 2)."""
    p = _partners(mode, band_radius, n)
    r = np.arange(n)
    return r + p if coordinate == "sum" else r - p + (n - 1)


def structural_validity(mode, band_radius, shape) -> np.ndarray:
    """(2K+1, 2K+1, H, W) mask of the entries whose partner pixel is on the
    sensor; the row and column conditions are separable, so the band is one
    broadcast of the two."""
    h, w = shape
    py, px = _partners(mode, band_radius, h), _partners(mode, band_radius, w)
    oky = (py >= 0) & (py < h)
    okx = (px >= 0) & (px < w)
    return oky[:, None, :, None] & okx[None, :, None, :]


def _fresh(mode: str, planes: np.ndarray, n_frames: int) -> Jpd:
    """:meth:`Jpd.from_planes` of float64 *planes*, whose structural holes
    are zeroed in place."""
    k = planes.shape[0] // 2
    valid = structural_validity(mode, k, planes.shape[2:])
    np.copyto(planes, 0.0, where=~valid)
    return Jpd(mode, k, planes, valid, np.ones(planes.shape[:2], dtype=bool),
               n_frames)


def _copy(jpd: Jpd) -> Jpd:
    """*jpd* with its own copy of the planes and the validity mask, which
    the in-place steps may then overwrite."""
    return replace(jpd, planes=jpd.planes.copy(), valid=jpd.valid.copy())


def _symmetrize(jpd: Jpd) -> Jpd:
    """Average each valid entry of a fresh band with its partner-swapped
    counterpart, in one gather.

    Near field: Gamma(r, r+d) with Gamma(r+d, r), which lives in plane -d at
    r + d.  Far field: swapping partners stays inside plane u, at the
    point-reflected position c - r + u.  Either way the counterpart sits at
    the entry's partner pixel, and it is valid when the entry is.
    """
    planes, k, (h, w) = jpd.planes, jpd.band_radius, jpd.shape
    ab = np.arange(2 * k + 1)[::-1 if jpd.mode == "near" else 1]
    # off-sensor partners are clipped onto it; those entries are invalid,
    # and keep their plane value
    py = np.clip(_partners(jpd.mode, k, h), 0, h - 1)
    px = np.clip(_partners(jpd.mode, k, w), 0, w - 1)
    # the result is built in the gathered copy, so symmetrizing holds two
    # bands and a mask at most
    out = planes[ab[:, None, None, None], ab[None, :, None, None],
                 py[:, None, :, None], px[None, :, None, :]]
    out += planes
    out *= 0.5
    np.copyto(out, planes, where=~jpd.valid)
    return replace(jpd, planes=out)


def finalize_jpd(partial: PartialJpd, symmetrize: bool = True) -> Jpd:
    """Normalize a merged accumulator into a :class:`Jpd`.

    Divides by the number of consecutive-frame terms and, by default,
    symmetrizes (the estimator's expectation is symmetric under partner
    exchange; averaging the two orderings halves the variance).  *partial*
    is left as it is: its sums are copied once, and the copy is divided and
    its structural holes zeroed in place, so finalizing holds the copy and,
    while it symmetrizes, the gathered band beside it, with two masks.
    """
    return _finalize(replace(partial, sums=partial.sums.copy()), symmetrize)


def _finalize(partial: PartialJpd, symmetrize: bool = True) -> Jpd:
    """:func:`finalize_jpd` of an accumulator whose sums it may overwrite."""
    if partial.n_terms < 1:
        raise InsufficientDataError("cannot finalize an empty accumulator")
    partial.sums /= partial.n_terms
    jpd = _fresh(partial.mode, partial.sums, partial.n_terms + 1)
    return _symmetrize(jpd) if symmetrize else jpd


def accumulate_jpd(frames, mode: str = "near",
                   band_radius: int = DEFAULT_BAND_RADIUS,
                   chunk_size: int = DEFAULT_CHUNK_SIZE,
                   workers: int | None = None,
                   symmetrize: bool = True) -> Jpd:
    """Estimate the banded JPD of a frame stack: an array, a
    :class:`~jpdkit.frames.FrameSource`, or an iterator (not a list) of
    (count, H, W) blocks of its frames in order, such as
    :func:`~jpdkit.simulate.simulate_chunks` returns.  Every argument is
    checked before the stack is touched, so a refused call reads no block.
    Then the stack is checked by :func:`~jpdkit.frames.check_stack`, an
    iterator's blocks as far as its second frame: a stack that is not 3-D,
    has frames with no pixels, or has samples other than bools, integers
    and reals is refused with :class:`~jpdkit.errors.FrameShapeError`, and
    one of fewer than 2 frames with :class:`InsufficientDataError`, before
    any chunk is accumulated.

    The stack is read in the calling thread, in order, as overlapping
    chunks of ``chunk_size`` consecutive-frame terms: slices of an array
    or a file, and the same frames re-cut from an iterator's blocks, so no
    source is held whole.  Each chunk's value range is read there too,
    once and only as far as one range rule needs it, which gives the
    chunk its kernel dtype and keeps the sums exact.  A block is held, not
    copied, until its chunks are accumulated, so it must not be written to
    once it is yielded.  The chunks are accumulated (optionally on up to
    ``workers`` threads, never more than there are processors this process
    may use, nor than there are chunks in an array or a file) into one
    running float64 band, in chunk order: the first chunk's band is
    stored in it and each later one added.  A serial run's kernel adds
    straight into that band, so it holds one band; with threads each chunk
    makes its own band, which the calling thread adds as the chunks finish,
    and at most one chunk more than there are threads is in flight.  An
    integer or bool chunk takes at most ``chunk_size`` terms and at most
    as many frames as fit KERNEL_BYTES (at least 2).  Each chunk runs over
    bands of frame rows whose kernel buffers fit KERNEL_BYTES, so memory
    does not grow with the frame area beyond the running band and, for a
    float stack, the chunk's frames.  The band is then divided, zeroed
    and symmetrized in place (:func:`finalize_jpd`), beside one gathered
    band.  The thread count and the row
    bands never change the result's bits.  For integer and bool stacks the
    chunking does not either; for float stacks it may move the last bits,
    as the sums are rounded in another order.  Integer stacks whose sums
    could leave float64's exact range raise :class:`PrecisionError`: an
    array or a file before any chunk is accumulated, an iterator before
    the chunk that would take its sums past that range.
    """
    frames = _check_args(frames, mode, band_radius, chunk_size, workers)
    return _finalize(_accumulate(frames, mode, band_radius, chunk_size,
                                 workers), symmetrize=symmetrize)


def _chunks(frames, chunk_size: int):
    """The overlapping chunks of chunk_size terms (chunk_size + 1 frames,
    the last chunk fewer) of a checked source, in order:
    ``frames[a:a + chunk_size + 1]`` of an array or a file, and the same
    frames re-cut from a stream's blocks, which carries each chunk's last
    frame over as the next one's first and copies together a chunk that
    spans blocks."""
    if not isinstance(frames, Blocks):
        for a in range(0, frames.shape[0] - 1, chunk_size):
            yield frames[a:a + chunk_size + 1]
        return
    held = []  # the next chunk's frames so far
    for block in frames.blocks:
        while (count := sum(map(len, held))) + len(block) > chunk_size:
            take = chunk_size + 1 - count
            yield np.concatenate([*held, block[:take]]) if held else block[:take]
            held, block = [], block[take - 1:]
        held.append(block)
    if sum(map(len, held)) > 1:
        yield np.concatenate(held)


def _chunk_terms(frames, chunk_size: int) -> int:
    """The terms of each chunk of a checked source: *chunk_size*, but for
    an integer or bool stack no more than keep a chunk's frames within
    KERNEL_BYTES (and at least one).  A float stack's sums depend on its
    chunking, so its chunks keep *chunk_size* terms."""
    if frames.dtype.kind not in "biu":
        return chunk_size
    frame = frames.dtype.itemsize * frames.shape[1] * frames.shape[2]
    return min(chunk_size, max(1, KERNEL_BYTES // frame - 1))


def _accumulate(frames, mode: str, band_radius: int, chunk_size: int,
                workers: int | None) -> PartialJpd:
    """The accumulator of a source and arguments that :func:`_check_args`
    has checked, as :func:`accumulate_jpd` reads it, in one running band
    that the caller owns."""
    # each thread's kernel scratch, kept across its chunks for this call only
    scratch = {}

    def run(typed, sums=None, add=False):
        mine = scratch.setdefault(threading.get_ident(), {})
        return _accumulate_chunk(*typed, mode, band_radius, mine, sums, add)

    chunk_size = _chunk_terms(frames, chunk_size)
    chunks = _typed(frames, chunk_size)
    threads = min(workers or 1, _usable_cpus(),
                  np.inf if isinstance(frames, Blocks)
                  else len(range(0, frames.shape[0] - 1, chunk_size)))
    if threads > 1:
        # imported here: concurrent.futures loads logging, which a serial
        # run has no use for
        from concurrent.futures import ThreadPoolExecutor
        # the chunk bands already added, which later chunks are stored
        # into, so no more bands are made than are ever in flight
        spare = collections.deque()

        def store(typed):
            try:
                sums = spare.pop()
            except IndexError:  # none spare yet
                sums = None
            return run(typed, sums)

        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = _in_order(pool, store, chunks, threads + 1)
            total = next(parts)
            for part in parts:
                total.sums += part.sums
                total.n_terms += part.n_terms
                spare.append(part.sums)
            return total
    # map holds no chunk past its call: each is released before the next
    # is read
    total = run(next(chunks))
    for part in map(run, chunks, itertools.repeat(total.sums),
                    itertools.repeat(True)):
        total.n_terms += part.n_terms
    return total


def _usable_cpus() -> int:
    """The processors this process may run on: its affinity set where the
    system has one (a cpuset or taskset narrows it below the machine's
    count), else the machine's count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _in_order(pool, fn, items, depth: int):
    """``fn`` of each of *items*, run on *pool* and yielded in order, with
    at most *depth* items submitted and not yet taken, so results that
    finish early do not pile up behind a slow one."""
    pending = collections.deque()
    for item in items:
        if len(pending) == depth:
            yield pending.popleft().result()
        pending.append(pool.submit(fn, item))
    while pending:
        yield pending.popleft().result()


def apply_separation_policy(jpd: Jpd, invalid_separation) -> Jpd:
    """Invalidate entries whose pair separation r2 - r1 a camera cannot
    measure reliably.  ``invalid_separation(dy, dx)`` must accept arrays.

    The separation of every entry is its partner minus its pixel, so the
    policy is called once on the whole band.  Near-field planes have constant
    separation, so whole planes drop; in the far field the separation varies
    across a plane and entries drop individually.  The returned JPD is
    flagged pending until the caller interpolates or accepts the holes.
    *jpd* is left as it is: the policy zeroes the dropped entries of one
    copy in place.
    """
    return _apply_policy(_copy(jpd), invalid_separation)


def _apply_policy(jpd: Jpd, invalid_separation) -> Jpd:
    """:func:`apply_separation_policy` on a JPD whose planes and mask it
    may overwrite."""
    k = jpd.band_radius
    h, w = jpd.shape
    sy = _partners(jpd.mode, k, h) - np.arange(h)
    sx = _partners(jpd.mode, k, w) - np.arange(w)
    bad = invalid_separation(sy[:, None, :, None], sx[None, :, None, :])
    valid = jpd.valid
    valid &= ~np.broadcast_to(bad, valid.shape)
    np.copyto(jpd.planes, 0.0, where=~valid)
    return replace(jpd, pending_invalid=True)


def _require_resolved(jpd: Jpd, what: str) -> None:
    if jpd.pending_invalid:
        raise StateError(
            f"{what} on a JPD with unresolved invalid entries; interpolate "
            "them or call with_invalid_excluded() first")


def plane_masses(jpd: Jpd) -> np.ndarray:
    """Mass (sum over valid entries) of each plane; inactive planes are NaN."""
    k = jpd.band_radius
    masses = np.full((2 * k + 1, 2 * k + 1), np.nan)
    for dy, dx, a, b in jpd.displacements():
        if jpd.active[a, b]:
            masses[a, b] = jpd.planes[a, b][jpd.valid[a, b]].sum()
    return masses


def scatter_half_grid(jpd: Jpd, values, coordinate: str) -> GridImage:
    """Sum *values* (broadcast to the band's shape) of every valid entry of
    an active plane onto the half-pixel grid of pitch 0.5, at the index
    :func:`half_grid_index` gives the entry's pair *coordinate* ("sum" or
    "difference").  The difference grid charts the double field of view.
    Entries are added plane by plane in row-major order; indices off the
    grid, which only a crafted validity mask can produce, are skipped.
    """
    h, w = jpd.shape
    sh, sw = 2 * h - 1, 2 * w - 1
    k = jpd.band_radius
    sy = half_grid_index(jpd.mode, coordinate, k, h)[:, None, :, None]
    sx = half_grid_index(jpd.mode, coordinate, k, w)[None, :, None, :]
    ok = (jpd.valid & jpd.active[:, :, None, None]
          & (sy >= 0) & (sy < sh) & (sx >= 0) & (sx < sw))
    idx = np.broadcast_to(sy * sw + sx, ok.shape)[ok]
    weights = np.broadcast_to(values, ok.shape)[ok]
    img = np.bincount(idx, weights, minlength=sh * sw).reshape(sh, sw)
    origin = ((0.0, 0.0) if coordinate == "sum"
              else (-(h - 1) / 2.0, -(w - 1) / 2.0))
    return GridImage(img, pitch=0.5, origin=origin)


def sum_projection(jpd: Jpd) -> GridImage:
    """Project plane values onto the pair sum coordinate (r1 + r2).

    The sum coordinate lives on a grid twice as dense as the sensor; the
    returned image has pitch 0.5 and covers s in [0, 2M-2] per axis.  Plain
    sums over valid entries of active planes: total image mass equals the
    total retained JPD mass.  In the far field the sum coordinate is
    constant across a plane, so each plane's mass lands on one point.
    """
    _require_resolved(jpd, "sum projection")
    return scatter_half_grid(jpd, jpd.planes, "sum")


def minus_projection(jpd: Jpd) -> GridImage:
    """Project plane values onto the pair difference coordinate (r1 - r2).

    Near field: one value per displacement plane (the plane mass), a
    (2K+1)^2 image.  Far field: the difference coordinate sweeps the double
    field of view and carries the point-symmetric double image.
    """
    _require_resolved(jpd, "minus projection")
    if jpd.mode == "far":
        return scatter_half_grid(jpd, jpd.planes, "difference")
    k = jpd.band_radius
    return GridImage(np.where(jpd.active, plane_masses(jpd), 0.0), pitch=0.5,
                     origin=(-k / 2.0, -k / 2.0))


def diagonal_image(jpd: Jpd) -> GridImage:
    """The native-sampling coincidence image Gamma(r, r) (near field)."""
    if jpd.mode != "near":
        raise StateError("diagonal image is defined for near-field JPDs")
    _require_resolved(jpd, "diagonal image")
    k = jpd.band_radius
    if not jpd.active[k, k]:
        raise StateError("diagonal plane is inactive")
    vals = np.where(jpd.valid[k, k], jpd.planes[k, k], 0.0)
    return GridImage(vals.copy(), pitch=1.0, origin=(0.0, 0.0))


# ---------------------------------------------------------------------------
# snapshot format

MAX_BAND_RADIUS = 127  # plane records store (dy, dx) as i8
MAX_SNAPSHOT_SIDE = 65535  # the header stores H and W as u16
_SNAP_MAGIC = b"BJPD"
_SNAP_VERSION = 1
_SNAP_HEADER = struct.Struct("<4sHBBHHIiiBH5x")  # 32 bytes; mode as MODES index


def write_jpd_snapshot(path, jpd: Jpd) -> None:
    """Serialize active planes, their validity masks and the geometry.

    Layout: 32-byte header, then per active plane (lexicographic in
    displacement) a 2-byte record (dy, dx as i8), then the float64
    little-endian plane values, then the bit-packed validity masks.
    """
    k = jpd.band_radius
    if k > MAX_BAND_RADIUS:
        raise ConfigurationError(
            f"band radius {k} exceeds the snapshot limit {MAX_BAND_RADIUS}")
    h, w = jpd.shape
    if max(h, w) > MAX_SNAPSHOT_SIDE:
        raise ConfigurationError(
            f"{h}x{w} frames exceed the snapshot limit of "
            f"{MAX_SNAPSHOT_SIDE} pixels per side")
    recs = np.argwhere(jpd.active)
    n = len(recs)
    header = _SNAP_HEADER.pack(
        _SNAP_MAGIC, _SNAP_VERSION, MODES.index(jpd.mode), k, h, w,
        jpd.n_frames, jpd.center[0], jpd.center[1],
        1 if jpd.pending_invalid else 0, n)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write((recs - k).astype(np.int8).tobytes())
        fh.write(jpd.planes[jpd.active].astype("<f8", copy=False).tobytes())
        masks = jpd.valid[jpd.active].reshape(n, h * w)  # not -1: n may be 0
        fh.write(np.packbits(masks, axis=1).tobytes())


def read_jpd_snapshot(path) -> Jpd:
    """Read a snapshot written by :func:`write_jpd_snapshot`.

    Planes absent from the file are restored as inactive and invalid.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    mode_code, k, h, w, n_frames, cy, cx, pending, n_recs = unpack_header(
        path, raw, _SNAP_HEADER, _SNAP_MAGIC, _SNAP_VERSION, "a JPD snapshot")
    if mode_code >= len(MODES):
        raise FileFormatError(f"{path}: unknown mode code {mode_code}")
    if h < 1 or w < 1:
        raise FileFormatError(f"{path}: bad frame shape {(h, w)}")
    if (cy, cx) != (h - 1, w - 1):
        raise FileFormatError(
            f"{path}: symmetry centre {(cy, cx)} is not {(h - 1, w - 1)}")
    if k > MAX_BAND_RADIUS:
        raise FileFormatError(
            f"{path}: band radius {k} exceeds the limit {MAX_BAND_RADIUS}")
    if n_recs > (2 * k + 1) ** 2:
        raise FileFormatError(
            f"{path}: {n_recs} plane records for {(2 * k + 1) ** 2} planes")
    plane_bytes = h * w * 8
    mask_bytes = (h * w + 7) // 8
    expected = _SNAP_HEADER.size + n_recs * (2 + plane_bytes + mask_bytes)
    if len(raw) != expected:
        raise FileFormatError(
            f"{path}: expected {expected} bytes, found {len(raw)}")
    recs, values, bits = np.split(
        np.frombuffer(raw, np.uint8, offset=_SNAP_HEADER.size),
        [2 * n_recs, n_recs * (2 + plane_bytes)])
    # compared as int: abs() of the i8 value -128 wraps
    recs = recs.view(np.int8).reshape(n_recs, 2).astype(int)
    outside = (np.abs(recs) > k).any(axis=1)
    if outside.any():
        dy, dx = recs[outside.argmax()]
        raise FileFormatError(f"{path}: displacement ({dy}, {dx}) outside band")
    if len(np.unique(recs, axis=0)) != n_recs:
        raise FileFormatError(f"{path}: duplicate plane records")
    try:
        planes = np.zeros((2 * k + 1, 2 * k + 1, h, w))
        valid = np.zeros((2 * k + 1, 2 * k + 1, h, w), dtype=bool)
    except MemoryError:
        raise FileFormatError(
            f"{path}: a radius-{k} band of {h}x{w} planes does not fit in "
            "memory") from None
    active = np.zeros((2 * k + 1, 2 * k + 1), dtype=bool)
    a, b = (recs + k).T
    planes[a, b] = values.view("<f8").reshape(n_recs, h, w)
    valid[a, b] = np.unpackbits(bits.reshape(n_recs, mask_bytes), axis=1,
                                count=h * w).reshape(n_recs, h, w)
    active[a, b] = True
    return Jpd(MODES[mode_code], k, planes, valid, active, n_frames,
               bool(pending))
