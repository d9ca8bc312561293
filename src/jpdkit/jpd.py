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
import os
import struct
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    ConfigurationError,
    FileFormatError,
    InsufficientDataError,
    PrecisionError,
    StateError,
)
from .frames import FrameSource, check_stack_shape, unpack_header
from .images import GridImage

MODES = ("near", "far")  # the imaging geometries
DEFAULT_BAND_RADIUS = 3
DEFAULT_CHUNK_SIZE = 256
# pixel columns per band-kernel GEMM tile: 4 measured fastest, for the
# float32 kernel too (grating_superres.ini reconstruct on 2 cores: 0.100 s
# at 4 against 0.106 s at 8)
TILE_WIDTH = 4
# bytes of a band-kernel chunk's pix and dpad buffers, past which it runs
# over bands of frame rows: at chunk 256 and K = 1 in float64, 32 x 32
# frames take 4.3 MB, 256 x 256 frames 270 MB
KERNEL_BYTES = 2 ** 23
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
        """A fresh band of *planes*, (2K+1, 2K+1, H, W): every plane active,
        and the entries whose partner pixel is off the sensor invalid and
        zeroed."""
        k = planes.shape[0] // 2
        valid = structural_validity(mode, k, planes.shape[2:])
        return cls(mode, k, np.where(valid, planes, 0.0), valid,
                   np.ones(planes.shape[:2], dtype=bool), n_frames)

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


def _check_args(frames, mode: str, band_radius: int):
    """The checks every accumulation makes; returns *frames* as an array, or
    as the :class:`~jpdkit.frames.FrameSource` it is."""
    if not isinstance(frames, FrameSource):
        frames = np.asarray(frames)
    check_stack_shape(frames.shape)
    if frames.shape[0] < 2:
        raise InsufficientDataError(
            f"estimator needs at least 2 frames, got {frames.shape[0]}")
    check_mode(mode)
    if band_radius < 0:
        raise ConfigurationError("band radius must be >= 0")
    return frames


def accumulate_partial(frames: np.ndarray, mode: str = "near",
                       band_radius: int = DEFAULT_BAND_RADIUS) -> PartialJpd:
    """Accumulate the estimator numerator over one contiguous chunk.

    The chunk contributes ``len(frames) - 1`` consecutive-frame terms; feed
    overlapping chunks (repeat the boundary frame) to cover a long stream.
    """
    return _accumulate_chunk(_check_args(frames, mode, band_radius)[:], mode,
                             band_radius, {})


def _accumulate_chunk(frames: np.ndarray, mode: str, band_radius: int,
                      scratch: dict) -> PartialJpd:
    """:func:`accumulate_partial` of a checked chunk, run over bands of
    frame rows whose ``pix`` and ``dpad`` buffers fit KERNEL_BYTES; a chunk
    whose buffers fit runs as one band.  The buffers come from *scratch*
    when a chunk of the same shape and kernel dtype left them there, and
    are left there for the next chunk; any other chunk replaces them.
    Their padding is never written, so it is zeroed only when they are
    allocated.  One *scratch* serves one band radius."""
    h, w = frames.shape[1:]
    k = band_radius
    ky, kx = min(k, h - 1), min(k, w - 1)
    n = frames.shape[0] - 1
    b = TILE_WIDTH
    tiles = -(-w // b)
    # The kernel runs in float32 when every sum of the chunk is an integer
    # below 2**24, and in float64 otherwise (accumulate_jpd has checked
    # that integer sums stay below 2**53).  Either way every partial sum is
    # exact under any summation order, so the float64 sums get the same
    # bits from both kernels, whatever b, BLAS's blocking, the row bands,
    # the chunking or the thread count.
    exact32 = (frames.dtype.kind in "biu"
               and _range_past(frames, FLOAT32_SUM_LIMIT) is None)
    dtype = np.float32 if exact32 else np.float64
    sign = 1 if mode == "near" else -1
    # Rows per band: all h if one band's buffers fit the budget, else as
    # many as fit (at least one) beside the 2 ky halo rows of pix and dpad;
    # far-field bands also copy their own rows (see below).
    pix_row = tiles * b * (n + 1) * np.dtype(dtype).itemsize
    row = pix_row + (tiles * b + 2 * kx) * n * np.dtype(dtype).itemsize
    rows = h if h * row <= KERNEL_BYTES else max(1, (
        KERNEL_BYTES - 2 * ky * row) // (row + (pix_row if sign < 0 else 0)))
    # Pixel-major frames, zero-padded to whole tiles of b columns.
    # d_l = a_l - a_{l+1} goes straight into a partner buffer with kx zero
    # columns on either side, and each tile's partner columns plus a
    # kx-column halo on either side are an overlapping window view of it,
    # (rows, tiles, n, b + 2 kx).  Far field: plane u pairs r with
    # c - r + u, so the partner rows and columns are stored reversed, which
    # turns plane u into offset -u.  pix stages a band's partner rows with
    # their ky-row halo; the band's own rows are a view of them when they
    # lie inside (always in the near field, and for one band), else they
    # are copied to pix's last `rows` rows, which only far-field bands have.
    key = frames.shape, dtype
    if key not in scratch:
        scratch.clear()
        staged = min(h, rows + 2 * ky)
        own = rows if sign < 0 and rows < h else 0
        scratch[key] = (np.zeros((staged + own, tiles * b, n + 1), dtype),
                        np.zeros((staged, tiles * b + 2 * kx, n), dtype))
    pix, dpad = scratch[key]
    sums = np.zeros((2 * k + 1, 2 * k + 1, h, w))
    for y0 in range(0, h, rows):
        y1 = min(h, y0 + rows)
        # the band's partner rows [lo, hi) in dpad's row order, and the
        # frame rows [f0, f1) they come from
        lo, hi = max(0, y0 - ky), min(h, y1 + ky)
        f0, f1 = (lo, hi) if sign > 0 else (h - hi, h - lo)
        stage, d = pix[:f1 - f0], dpad[:hi - lo]
        stage[:, :w] = np.moveaxis(frames[:, f0:f1], 0, -1)
        src = stage[::sign, :w][:, ::sign]
        np.subtract(src[..., :-1], src[..., 1:], out=d[:, kx:kx + w])
        halo = np.lib.stride_tricks.sliding_window_view(
            d, b + 2 * kx, axis=1)[:, ::b]
        if f0 <= y0 and y1 <= f1:
            mine = stage[y0 - f0:y1 - f0]
        else:
            mine = pix[-rows:][:y1 - y0]
            mine[:, :w] = np.moveaxis(frames[:, y0:y1], 0, -1)
        a = mine[..., :-1].reshape(y1 - y0, tiles, b, n)
        # Band-only GEMMs: one batched matmul per row offset dy gives
        # prod[y, t, i, j] = sum_l a_l(y, tb + i) d_l(partner row, tb + j - kx),
        # so plane (dy, dx) is the diagonal at offset dx + kx, widened to
        # float64 as it is stored.  Entries whose pixel or partner lies in
        # the padding are computed as zeros and never stored.
        for dy in range(-ky, ky + 1):
            ya, yb = max(y0, -dy), min(y1, h - dy)
            if ya >= yb:
                continue  # no row of this band has a partner row at dy
            prod = np.matmul(a[ya - y0:yb - y0],
                             halo[ya + dy - lo:yb + dy - lo])
            for dx in range(-kx, kx + 1):
                xa, xb = max(0, -dx), w - max(0, dx)
                diag = np.diagonal(prod, dx + kx, 2, 3).reshape(yb - ya, -1)
                sums[sign * dy + k, sign * dx + k, ya:yb, xa:xb] = \
                    diag[:, xa:xb]
    return PartialJpd(mode, k, (h, w), sums, n)


def _range_past(frames, limit, spans=None):
    """The value range (lo, hi) of the integer or bool stack *frames* if
    its sums could reach *limit*; None when every sum stays below it.

    Every sum is bounded by n_terms * max|a| * max|a - a'|.  The dtype's
    range decides this without reading the frames when it can (bool
    against 2**24: under 2**24 terms; u16 against 2**53: under about 2e6
    frames); only otherwise is the stack's own range read, chunk by chunk
    over *spans* (by default the whole stack at once).
    """
    n_terms = frames.shape[0] - 1

    def bound(lo, hi):
        return n_terms * max(-lo, hi) * (hi - lo)

    if frames.dtype == np.bool_:
        lo, hi = 0, 1
    else:
        info = np.iinfo(frames.dtype)
        lo, hi = int(info.min), int(info.max)
    if bound(lo, hi) < limit:
        return None
    lo, hi = hi, lo
    for a, b in spans or [(0, frames.shape[0])]:
        chunk = frames[a:b]
        lo, hi = min(lo, int(chunk.min())), max(hi, int(chunk.max()))
    return None if bound(lo, hi) < limit else (lo, hi)


def _check_exact(frames, spans) -> None:
    """Raise PrecisionError if the sums of an integer or bool stack could
    reach EXACT_SUM_LIMIT, where float64 stops holding integers exactly;
    the stack's range is read chunk by chunk over *spans* when its dtype
    cannot decide.  Float stacks are not summed exactly in any case."""
    if frames.dtype.kind not in "biu":
        return
    over = _range_past(frames, EXACT_SUM_LIMIT, spans)
    if over is not None:
        lo, hi = over
        raise PrecisionError(
            f"{frames.shape[0] - 1} frame pairs with values in [{lo}, {hi}] "
            f"may sum past {EXACT_SUM_LIMIT}, beyond which float64 "
            "accumulation is not exact; split the stack")


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
    # the result is built in the gathered copy, so finalizing holds two
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
    exchange; averaging the two orderings halves the variance).
    """
    if partial.n_terms < 1:
        raise InsufficientDataError("cannot finalize an empty accumulator")
    jpd = Jpd.from_planes(partial.mode, partial.sums / partial.n_terms,
                          partial.n_terms + 1)
    return _symmetrize(jpd) if symmetrize else jpd


def accumulate_jpd(frames, mode: str = "near",
                   band_radius: int = DEFAULT_BAND_RADIUS,
                   chunk_size: int = DEFAULT_CHUNK_SIZE,
                   workers: int | None = None,
                   symmetrize: bool = True) -> Jpd:
    """Estimate the banded JPD of a frame stack: an array, or a
    :class:`~jpdkit.frames.FrameSource`, which is read one chunk at a time.

    The stack is processed in fixed chunks of ``chunk_size`` consecutive-frame
    terms (optionally on up to ``workers`` threads, never more than there
    are chunks or processors this process may use) and merged in chunk
    order as the chunks finish, so only one merged sum is held; with
    threads, at most one chunk more than there are threads is in flight.
    Each chunk runs over bands of frame rows whose kernel buffers fit
    KERNEL_BYTES, so its memory does not grow with the frame area beyond
    the chunk's frames and its band sums.  The thread count and the row
    bands never change the result's bits.  For integer and bool stacks the
    chunking does not either; for float stacks it may move the last bits,
    as the sums are rounded in another order.  Integer stacks whose sums
    could leave float64's exact range raise :class:`PrecisionError` before
    any chunk is accumulated.
    """
    frames = _check_args(frames, mode, band_radius)
    if chunk_size < 1:
        raise ConfigurationError("chunk_size must be >= 1")
    if workers is not None and workers < 1:
        raise ConfigurationError("workers must be >= 1 or None")
    n = frames.shape[0]
    spans = [(i, min(i + chunk_size + 1, n)) for i in range(0, n - 1, chunk_size)]
    _check_exact(frames, spans)

    # each thread's kernel scratch, kept across its chunks for this call only
    scratch = {}

    def run(span):
        mine = scratch.setdefault(threading.get_ident(), {})
        return _accumulate_chunk(frames[span[0]:span[1]], mode, band_radius,
                                 mine)

    threads = min(workers or 1, len(spans), _usable_cpus())
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            merged = merge_partials(_in_order(pool, run, spans, threads + 1))
    else:
        merged = merge_partials(map(run, spans))
    return finalize_jpd(merged, symmetrize=symmetrize)


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
    """
    k = jpd.band_radius
    h, w = jpd.shape
    sy = _partners(jpd.mode, k, h) - np.arange(h)
    sx = _partners(jpd.mode, k, w) - np.arange(w)
    bad = invalid_separation(sy[:, None, :, None], sx[None, :, None, :])
    valid = jpd.valid & ~np.broadcast_to(bad, jpd.valid.shape)
    planes = np.where(valid, jpd.planes, 0.0)
    return replace(jpd, planes=planes, valid=valid, pending_invalid=True)


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
