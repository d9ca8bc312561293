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
  point-symmetry centre, here always the natural one ``(H - 1, W - 1)``.

Each plane comes with a validity mask.  Entries whose partner pixel falls off
the sensor are structurally invalid and never receive data; camera profiles
may invalidate further entries (for example the self-product diagonal, which
the estimator cannot debias).  Once a separation policy has been applied the
JPD is flagged as holding unresolved invalid entries, and projections refuse
to run until the caller either interpolates the holes or explicitly accepts
their exclusion, so silent drop-outs cannot skew downstream images.
"""

from __future__ import annotations

import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    ConfigurationError,
    FileFormatError,
    FrameShapeError,
    InsufficientDataError,
    StateError,
)
from .images import GridImage

DEFAULT_BAND_RADIUS = 3
DEFAULT_CHUNK_SIZE = 256


@dataclass(frozen=True)
class Jpd:
    """Banded JPD.

    mode         -- "near" or "far"
    band_radius  -- K; planes cover displacements in [-K, K]^2
    planes       -- (2K+1, 2K+1, H, W) float64, plane [a, b] holds
                    displacement (a - K, b - K)
    valid        -- same shape, False where no usable estimate exists
    active       -- (2K+1, 2K+1) bool, False for planes dropped by a filter
    center       -- far-field symmetry centre (pixel indices); (H-1, W-1)
    n_frames     -- frames behind the estimate (0 for analytic constructions)
    pending_invalid -- True once a separation policy has flagged entries that
                    the caller has not yet interpolated or accepted
    """

    mode: str
    band_radius: int
    planes: np.ndarray
    valid: np.ndarray
    active: np.ndarray
    center: tuple[int, int]
    n_frames: int
    pending_invalid: bool = False

    @property
    def shape(self) -> tuple[int, int]:
        return self.planes.shape[2], self.planes.shape[3]

    def displacements(self):
        """Iterate (dy, dx, plane index pair) over the band."""
        k = self.band_radius
        for a in range(2 * k + 1):
            for b in range(2 * k + 1):
                yield a - k, b - k, a, b

    def plane(self, dy: int, dx: int) -> np.ndarray:
        k = self.band_radius
        if abs(dy) > k or abs(dx) > k:
            raise ConfigurationError(f"displacement ({dy}, {dx}) outside band {k}")
        return self.planes[dy + k, dx + k]

    def plane_valid(self, dy: int, dx: int) -> np.ndarray:
        k = self.band_radius
        if abs(dy) > k or abs(dx) > k:
            raise ConfigurationError(f"displacement ({dy}, {dx}) outside band {k}")
        return self.valid[dy + k, dx + k]

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
    center: tuple[int, int]
    shape: tuple[int, int]
    sums: np.ndarray
    n_terms: int


def _check_stack(frames: np.ndarray) -> np.ndarray:
    frames = np.asarray(frames)
    if frames.ndim != 3:
        raise FrameShapeError(f"frame stack must be 3-D, got shape {frames.shape}")
    if frames.shape[0] < 2:
        raise InsufficientDataError(
            f"estimator needs at least 2 frames, got {frames.shape[0]}")
    if frames.shape[1] < 1 or frames.shape[2] < 1:
        raise FrameShapeError("frames must be non-empty")
    return frames


def _natural_center(shape) -> tuple[int, int]:
    return shape[0] - 1, shape[1] - 1


def accumulate_partial(frames: np.ndarray, mode: str = "near",
                       band_radius: int = DEFAULT_BAND_RADIUS,
                       center: tuple[int, int] | None = None) -> PartialJpd:
    """Accumulate the estimator numerator over one contiguous chunk.

    The chunk contributes ``len(frames) - 1`` consecutive-frame terms; feed
    overlapping chunks (repeat the boundary frame) to cover a long stream.
    """
    frames = _check_stack(frames)
    if mode not in ("near", "far"):
        raise ConfigurationError(f"mode must be 'near' or 'far', got {mode!r}")
    if band_radius < 0:
        raise ConfigurationError("band radius must be >= 0")
    h, w = frames.shape[1:]
    natural = _natural_center((h, w))
    if center is None:
        center = natural
    elif tuple(center) != natural:
        raise ConfigurationError(
            f"only the natural centre {natural} is supported, got {tuple(center)}")
    k = band_radius
    # Integer frames are exact in float64 under any summation order while
    # every sum stays below 2**53 (u16 frames: fewer than about 2e6 frames),
    # so BLAS's reordering gives the same bits and the result does not
    # depend on chunking or thread count.
    pix = np.moveaxis(frames, 0, -1).astype(np.float64, order="C")
    a = pix[..., :-1]
    d = a - pix[..., 1:]
    # One batched GEMM per row offset dy gives full[y, x, x'] =
    # sum_l a_l(y, x) d_l(partner row, x'); plane (dy, dx) is its diagonal at
    # offset dx.  Far field: plane u pairs r with c - r + u, so reversing the
    # partner rows and the GEMM's partner columns turns it into offset -u.
    sign = 1 if mode == "near" else -1
    d = d[::sign]
    sums = np.zeros((2 * k + 1, 2 * k + 1, h, w))
    for dy in range(-min(k, h - 1), min(k, h - 1) + 1):
        ya, yb = max(0, -dy), h - max(0, dy)
        full = np.matmul(a[ya:yb], d[ya + dy:yb + dy].transpose(0, 2, 1))
        full = full[:, :, ::sign]
        for dx in range(-min(k, w - 1), min(k, w - 1) + 1):
            xa, xb = max(0, -dx), w - max(0, dx)
            sums[sign * dy + k, sign * dx + k, ya:yb, xa:xb] = np.diagonal(
                full, dx, 1, 2)
    return PartialJpd(mode, k, tuple(center), (h, w), sums, frames.shape[0] - 1)


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
        if (p.mode, p.band_radius, p.center, p.shape) != (
                first.mode, first.band_radius, first.center, first.shape):
            raise StateError("partial accumulators disagree in geometry")
        sums += p.sums
        n_terms += p.n_terms
    return PartialJpd(first.mode, first.band_radius, first.center,
                      first.shape, sums, n_terms)


def structural_validity(mode, band_radius, shape, center) -> np.ndarray:
    k = band_radius
    h, w = shape
    valid = np.zeros((2 * k + 1, 2 * k + 1, h, w), dtype=bool)
    ys = np.arange(h)[:, None]
    xs = np.arange(w)[None, :]
    for dy in range(-k, k + 1):
        for dx in range(-k, k + 1):
            if mode == "near":
                ok = (ys + dy >= 0) & (ys + dy < h) & (xs + dx >= 0) & (xs + dx < w)
            else:
                py = center[0] - ys + dy
                px = center[1] - xs + dx
                ok = (py >= 0) & (py < h) & (px >= 0) & (px < w)
            valid[dy + k, dx + k] = ok
    return valid


def _flip_about(arr: np.ndarray, cy: int, cx: int) -> np.ndarray:
    """Point reflection q -> (cy, cx) - q, zero where the source is outside."""
    h, w = arr.shape
    out = np.zeros_like(arr)
    ya, yb = max(0, cy - h + 1), min(h - 1, cy)
    xa, xb = max(0, cx - w + 1), min(w - 1, cx)
    if ya > yb or xa > xb:
        return out
    src = arr[cy - yb:cy - ya + 1, cx - xb:cx - xa + 1]
    out[ya:yb + 1, xa:xb + 1] = src[::-1, ::-1]
    return out


def _symmetrize(planes: np.ndarray, valid: np.ndarray, mode: str,
                band_radius: int, center) -> np.ndarray:
    """Average each entry with its partner-swapped counterpart.

    Near field: Gamma(r, r+d) with Gamma(r+d, r), which lives in plane -d at
    r + d.  Far field: swapping partners stays inside plane u, at the
    point-reflected position (c + u) - r.
    """
    k = band_radius
    h, w = planes.shape[2:]
    out = planes.copy()
    for dy in range(-k, k + 1):
        for dx in range(-k, k + 1):
            pd = planes[dy + k, dx + k]
            if mode == "near":
                pm = planes[-dy + k, -dx + k]
                ya, yb = max(0, -dy), h - max(0, dy)
                xa, xb = max(0, -dx), w - max(0, dx)
                if ya >= yb or xa >= xb:
                    continue
                out[dy + k, dx + k, ya:yb, xa:xb] = 0.5 * (
                    pd[ya:yb, xa:xb]
                    + pm[ya + dy:yb + dy, xa + dx:xb + dx])
            else:
                swapped = _flip_about(pd, center[0] + dy, center[1] + dx)
                v = valid[dy + k, dx + k]
                out[dy + k, dx + k] = np.where(v, 0.5 * (pd + swapped), pd)
    return out


def finalize_jpd(partial: PartialJpd, symmetrize: bool = True) -> Jpd:
    """Normalize a merged accumulator into a :class:`Jpd`.

    Divides by the number of consecutive-frame terms and, by default,
    symmetrizes (the estimator's expectation is symmetric under partner
    exchange; averaging the two orderings halves the variance).
    """
    if partial.n_terms < 1:
        raise InsufficientDataError("cannot finalize an empty accumulator")
    planes = partial.sums / partial.n_terms
    valid = structural_validity(partial.mode, partial.band_radius,
                              partial.shape, partial.center)
    if symmetrize:
        planes = _symmetrize(planes, valid, partial.mode,
                             partial.band_radius, partial.center)
    planes = np.where(valid, planes, 0.0)
    k = partial.band_radius
    active = np.ones((2 * k + 1, 2 * k + 1), dtype=bool)
    return Jpd(partial.mode, k, planes, valid, active, partial.center,
               partial.n_terms + 1)


def accumulate_jpd(frames: np.ndarray, mode: str = "near",
                   band_radius: int = DEFAULT_BAND_RADIUS,
                   center: tuple[int, int] | None = None,
                   chunk_size: int = DEFAULT_CHUNK_SIZE,
                   workers: int | None = None,
                   symmetrize: bool = True) -> Jpd:
    """Estimate the banded JPD of a frame stack.

    The stack is processed in fixed chunks of ``chunk_size`` consecutive-frame
    terms (optionally on ``workers`` threads) and merged in chunk order as
    the chunks finish, so only one merged sum is held, and the result does
    not depend on the chunking or the thread count.
    """
    frames = _check_stack(frames)
    if chunk_size < 1:
        raise ConfigurationError("chunk_size must be >= 1")
    n = frames.shape[0]
    spans = [(i, min(i + chunk_size + 1, n)) for i in range(0, n - 1, chunk_size)]

    def run(span):
        return accumulate_partial(frames[span[0]:span[1]], mode, band_radius, center)

    if workers is not None and workers > 1 and len(spans) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            merged = merge_partials(pool.map(run, spans))
    else:
        merged = merge_partials(map(run, spans))
    return finalize_jpd(merged, symmetrize=symmetrize)


def apply_separation_policy(jpd: Jpd, invalid_separation) -> Jpd:
    """Invalidate entries whose pair separation r2 - r1 a camera cannot
    measure reliably.  ``invalid_separation(dy, dx)`` must accept arrays.

    Near-field planes have constant separation, so whole planes drop; in the
    far field the separation varies across a plane and entries drop
    individually.  The returned JPD is flagged pending until the caller
    interpolates or accepts the holes.
    """
    k = jpd.band_radius
    h, w = jpd.shape
    valid = jpd.valid.copy()
    for dy, dx, a, b in jpd.displacements():
        if jpd.mode == "near":
            if bool(np.asarray(invalid_separation(np.array(dy), np.array(dx)))):
                valid[a, b] = False
        else:
            sy = jpd.center[0] + dy - 2 * np.arange(h)[:, None]
            sx = jpd.center[1] + dx - 2 * np.arange(w)[None, :]
            bad = np.broadcast_to(invalid_separation(sy, sx), (h, w))
            valid[a, b] &= ~bad
    planes = np.where(valid, jpd.planes, 0.0)
    return replace(jpd, planes=planes, valid=valid, pending_invalid=True)


def _require_resolved(jpd: Jpd, what: str) -> None:
    if jpd.pending_invalid:
        raise StateError(
            f"{what} on a JPD with unresolved invalid entries; interpolate "
            "them or call with_invalid_excluded() first")


def sum_projection(jpd: Jpd) -> GridImage:
    """Project plane values onto the pair sum coordinate (r1 + r2).

    The sum coordinate lives on a grid twice as dense as the sensor; the
    returned image has pitch 0.5 and covers s in [0, 2M-2] per axis.  Plain
    sums over valid entries of active planes: total image mass equals the
    total retained JPD mass.
    """
    _require_resolved(jpd, "sum projection")
    h, w = jpd.shape
    sh, sw = h + h - 1, w + w - 1
    img = np.zeros((sh, sw))
    ys, xs = np.mgrid[0:h, 0:w]
    for dy, dx, a, b in jpd.displacements():
        if not jpd.active[a, b]:
            continue
        v = jpd.valid[a, b]
        if jpd.mode == "near":
            sy, sx = 2 * ys + dy, 2 * xs + dx
            ok = v & (sy >= 0) & (sy < sh) & (sx >= 0) & (sx < sw)
            np.add.at(img, (sy[ok], sx[ok]), jpd.planes[a, b][ok])
        else:
            sy, sx = jpd.center[0] + dy, jpd.center[1] + dx
            if 0 <= sy < sh and 0 <= sx < sw:
                img[sy, sx] += jpd.planes[a, b][v].sum()
    return GridImage(img, pitch=0.5, origin=(0.0, 0.0))


def minus_projection(jpd: Jpd) -> GridImage:
    """Project plane values onto the pair difference coordinate (r1 - r2).

    Near field: one value per displacement plane (the plane mass), a
    (2K+1)^2 image.  Far field: the difference coordinate sweeps the double
    field of view and carries the point-symmetric double image.
    """
    _require_resolved(jpd, "minus projection")
    h, w = jpd.shape
    k = jpd.band_radius
    if jpd.mode == "near":
        img = np.zeros((2 * k + 1, 2 * k + 1))
        for dy, dx, a, b in jpd.displacements():
            if jpd.active[a, b]:
                img[a, b] = jpd.planes[a, b][jpd.valid[a, b]].sum()
        return GridImage(img, pitch=0.5, origin=(-k / 2.0, -k / 2.0))
    sh, sw = h + h - 1, w + w - 1
    img = np.zeros((sh, sw))
    ys, xs = np.mgrid[0:h, 0:w]
    oy, ox = -(h - 1), -(w - 1)
    for dy, dx, a, b in jpd.displacements():
        if not jpd.active[a, b]:
            continue
        v = jpd.valid[a, b]
        sy = 2 * ys - jpd.center[0] - dy - oy
        sx = 2 * xs - jpd.center[1] - dx - ox
        ok = v & (sy >= 0) & (sy < sh) & (sx >= 0) & (sx < sw)
        np.add.at(img, (sy[ok], sx[ok]), jpd.planes[a, b][ok])
    return GridImage(img, pitch=0.5, origin=(oy / 2.0, ox / 2.0))


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
_SNAP_MAGIC = b"BJPD"
_SNAP_VERSION = 1
_SNAP_HEADER = struct.Struct("<4sHBBHHIiiBH5x")  # 32 bytes
_MODE_CODES = {"near": 0, "far": 1}
_CODE_MODES = {v: k for k, v in _MODE_CODES.items()}


def write_jpd_snapshot(path, jpd: Jpd) -> None:
    """Serialize active planes, their validity masks and the geometry.

    Layout: 32-byte header, then per active plane (lexicographic in
    displacement) a 2-byte record (dy, dx as i8), then the float64
    little-endian plane values, then the bit-packed validity masks.
    """
    k = jpd.band_radius
    h, w = jpd.shape
    recs = [(dy, dx, a, b) for dy, dx, a, b in jpd.displacements()
            if jpd.active[a, b]]
    header = _SNAP_HEADER.pack(
        _SNAP_MAGIC, _SNAP_VERSION, _MODE_CODES[jpd.mode], k, h, w,
        jpd.n_frames, jpd.center[0], jpd.center[1],
        1 if jpd.pending_invalid else 0, len(recs))
    with open(path, "wb") as fh:
        fh.write(header)
        for dy, dx, _, _ in recs:
            fh.write(struct.pack("<bb", dy, dx))
        for _, _, a, b in recs:
            fh.write(jpd.planes[a, b].astype("<f8", copy=False).tobytes())
        for _, _, a, b in recs:
            fh.write(np.packbits(jpd.valid[a, b]).tobytes())


def read_jpd_snapshot(path) -> Jpd:
    """Read a snapshot written by :func:`write_jpd_snapshot`.

    Planes absent from the file are restored as inactive and invalid.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _SNAP_HEADER.size:
        raise FileFormatError(f"{path}: too short for a JPD snapshot header")
    (magic, version, mode_code, k, h, w, n_frames, cy, cx, pending,
     n_recs) = _SNAP_HEADER.unpack_from(raw, 0)
    if magic != _SNAP_MAGIC:
        raise FileFormatError(f"{path}: bad magic {magic!r}")
    if version != _SNAP_VERSION:
        raise FileFormatError(f"{path}: unsupported version {version}")
    if mode_code not in _CODE_MODES:
        raise FileFormatError(f"{path}: unknown mode code {mode_code}")
    if h < 1 or w < 1:
        raise FileFormatError(f"{path}: bad frame shape {(h, w)}")
    plane_bytes = h * w * 8
    mask_bytes = (h * w + 7) // 8
    expected = _SNAP_HEADER.size + n_recs * (2 + plane_bytes + mask_bytes)
    if len(raw) != expected:
        raise FileFormatError(
            f"{path}: expected {expected} bytes, found {len(raw)}")
    off = _SNAP_HEADER.size
    recs = []
    for _ in range(n_recs):
        dy, dx = struct.unpack_from("<bb", raw, off)
        off += 2
        if abs(dy) > k or abs(dx) > k:
            raise FileFormatError(f"{path}: displacement ({dy}, {dx}) outside band")
        recs.append((dy, dx))
    planes = np.zeros((2 * k + 1, 2 * k + 1, h, w))
    valid = np.zeros((2 * k + 1, 2 * k + 1, h, w), dtype=bool)
    active = np.zeros((2 * k + 1, 2 * k + 1), dtype=bool)
    for dy, dx in recs:
        planes[dy + k, dx + k] = np.frombuffer(
            raw, dtype="<f8", count=h * w, offset=off).reshape(h, w)
        off += plane_bytes
    for dy, dx in recs:
        bits = np.frombuffer(raw, dtype=np.uint8, count=mask_bytes, offset=off)
        valid[dy + k, dx + k] = np.unpackbits(
            bits, count=h * w).astype(bool).reshape(h, w)
        active[dy + k, dx + k] = True
        off += mask_bytes
    return Jpd(_CODE_MODES[mode_code], k, planes, valid, active,
               (cy, cx), n_frames, bool(pending))
