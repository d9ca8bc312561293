"""Photon-pair frame simulation and analytic (closed-form) JPDs.

The simulator draws pair birth positions from a scene-derived density on the
oversampled grid, applies the pair correlation model and a camera profile,
and bins photons into sensor frames.  Each photon of a chunk is kept as its
flat (frame, y, x) index, in int32 wherever the chunk's indices fit; the
camera then bins and renders the chunk in blocks of at most RENDER_PIXELS
pixels (and at least one frame), which the simulator yields one by one, so
neither a whole-chunk counts array nor a whole-chunk frame array is made
and the memory of a block does not grow with the frame area.  The event
stage builds its arrays in place where the result keeps its bits: each
draw in its own buffer, and each photon one axis at a time, its y position
reduced to part of its flat index before its x position is made.  A chunk
then peaks at about 44 bytes per event.

Correlation model: the two photons of a pair land at ``x + xi_1`` and, in the
near-field geometry, ``x + xi_2`` (far field: ``C - x + xi_2`` with
``C = size - 1`` the pair sum-coordinate centre), the jitters drawn
independently as isotropic ``N(0, sigma^2 / 2)`` per photon.  The photon
separation then follows ``N(0, sigma^2)`` per axis while the pair centre
straddles the half-pixel grid symmetrically; a one-sided realization (photon
one exactly at ``x``) would shift every reconstructed image by a quarter
pixel.

Randomness is drawn per fixed-size frame chunk from
``SeedSequence((seed, stage, chunk))`` streams, so a stack is bit-identical
for a given seed no matter how the generation is batched.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import ClassVar, Iterable, Iterator

import numpy as np

from .errors import ConfigurationError, DegenerateDensityError
from .jpd import (DEFAULT_BAND_RADIUS, Jpd, _partners, check_mode,
                  half_grid_index, reflect)
from .scenes import Scene

SIM_CHUNK_FRAMES = 4096
# pixels binned and rendered at a time: 512 frames of 32 x 32, 8 of
# 256 x 256, and one frame of any larger size; the random streams stay per
# chunk
RENDER_PIXELS = 512 * 32 * 32
# EMCCD analog (float64) frames are made a piece of a render block at a
# time, of at most this many pixels and at least one frame, and their read
# noise is drawn at most this many values at a time
NOISE_PIXELS = 2 ** 16
# the largest mean number of pairs or photons per frame; numpy's Poisson
# sampler refuses means above about 9.2e18
MAX_RATE = 1e18
_STAGE_EVENTS = 0
_STAGE_CAMERA = 1


# ---------------------------------------------------------------------------
# camera profiles

def _render_blocks(counts, dtype, fill) -> Iterator[np.ndarray]:
    """The frames of *counts* in order, a block of at most RENDER_PIXELS
    pixels (and at least one frame) at a time, each a new array of *dtype*
    filled by ``fill(block_counts, out_block, start)``."""
    n, h, w = counts.shape
    step = max(1, RENDER_PIXELS // (h * w))
    for a in range(0, n, step):
        out = np.empty((min(step, n - a), h, w), dtype)
        fill(counts[a:a + step], out, a)
        yield out
        del out  # released before the next block is made


@dataclass(frozen=True)
class IdealCamera:
    """Noiseless photon counting, saturating at the u16 full scale 65535
    as the EMCCD digitizer does.  Only the self-product diagonal (both
    photons in one pixel) is unusable: the estimator cannot debias it."""

    name: ClassVar[str] = "ideal"

    def render(self, counts, rng: np.random.Generator) -> Iterator[np.ndarray]:
        """The frames of the photon *counts* of n frames of h x w pixels, as
        an iterator over blocks of frames in order: *counts* is anything
        with ``.shape == (n, h, w)`` whose ``counts[a:b]`` is the int32
        counts of frames a to b - 1, such as an ndarray, or the simulator's
        chunk source, which bins a block of frames when it is sliced.  A
        block holds at most RENDER_PIXELS pixels (and at least one frame),
        so only one block's counts and frames are held; *counts* is not
        written to."""
        # clipped in int32 and cast into the u16 block; np.clip's cast is
        # faster than np.minimum's
        return _render_blocks(counts, np.uint16, lambda c, out, a: np.clip(
            c, 0, 65535, out=out, casting="unsafe"))

    def invalid_pair_separation(self, dy, dx):
        return (np.asarray(dy) == 0) & (np.asarray(dx) == 0)


@dataclass(frozen=True)
class EmccdCamera:
    """Electron-multiplying CCD: per-frame scalar gain fluctuation, Gaussian
    read noise, optional vertical readout smear, u16 digitization.

    The gain fluctuation survives the accidental subtraction as a background
    proportional to the product of mean intensities; readout moves charge
    along columns, so all same-column separations (dx = 0) are flagged
    invalid regardless of the smear magnitude.
    """

    gain_mean: float = 200.0
    gain_cv: float = 0.0
    read_sigma: float = 8.0
    smear: float = 0.0
    name: ClassVar[str] = "emccd"

    def __post_init__(self):
        # written as range tests so that NaN fails them too
        if not 0 < self.gain_mean < math.inf:
            raise ConfigurationError("EMCCD gain_mean must be positive and finite")
        if not (0 <= self.gain_cv < math.inf and 0 <= self.read_sigma < math.inf
                and 0 <= self.smear < 1):
            raise ConfigurationError("EMCCD noise parameters out of range")

    def render(self, counts, rng: np.random.Generator) -> Iterator[np.ndarray]:
        """The blocks of frames of *counts*, read and yielded as
        :meth:`IdealCamera.render` reads and yields them."""
        # all n gains first, then the read noise NOISE_PIXELS values at a
        # time: consecutive normal draws are bit for bit one whole draw
        gains = rng.normal(self.gain_mean, self.gain_cv * self.gain_mean,
                           counts.shape[0])

        def fill(c, out, a):
            # the analog frames of a block, a piece of at most NOISE_PIXELS
            # pixels (and at least one whole frame, for the smear) at a time
            h, w = c.shape[1:]
            step = max(1, NOISE_PIXELS // (h * w))
            g = gains[a:a + len(c), None, None]
            for p in range(0, len(c), step):
                analog = c[p:p + step] * g[p:p + step]
                if self.smear > 0:
                    # charge leaks down the readout column: out[y] = in[y] + smear*out[y-1]
                    for y in range(1, h):
                        analog[:, y] += self.smear * analog[:, y - 1]
                flat = analog.reshape(-1)
                for i in range(0, flat.size, NOISE_PIXELS):
                    part = flat[i:i + NOISE_PIXELS]
                    part += rng.normal(0.0, self.read_sigma, part.size)
                np.clip(analog, 0, 65535, out=analog)
                out[p:p + step] = np.round(analog, out=analog)

        return _render_blocks(counts, np.uint16, fill)

    def invalid_pair_separation(self, dy, dx):
        dy = np.asarray(dy)
        dx = np.asarray(dx)
        return np.broadcast_to(dx == 0, np.broadcast_shapes(dy.shape, dx.shape))


@dataclass(frozen=True)
class SpadCamera:
    """Binary single-photon avalanche array: a pixel fires on >= 1 photon.
    Crosstalk contaminates the 8-neighbour ring, so all separations with
    |r2 - r1|_inf <= 1 are flagged invalid."""

    name: ClassVar[str] = "spad"

    def render(self, counts, rng: np.random.Generator) -> Iterator[np.ndarray]:
        """The blocks of frames of *counts*, read and yielded as
        :meth:`IdealCamera.render` reads and yields them."""
        return _render_blocks(counts, np.bool_, lambda c, out, a: np.greater_equal(
            c, 1, out=out))

    def invalid_pair_separation(self, dy, dx):
        return (np.abs(dy) <= 1) & (np.abs(dx) <= 1)


# the camera profiles a run can name
CAMERAS = {c.name: c for c in (IdealCamera, EmccdCamera, SpadCamera)}


def camera_by_name(name: str, **params):
    """Instantiate a camera profile from its config-file name."""
    cls = CAMERAS.get(name)
    if cls is None:
        raise ConfigurationError(f"unknown camera profile {name!r}")
    try:
        return cls(**params)
    except TypeError as exc:
        raise ConfigurationError(f"bad {name.upper()} parameter: {exc}") from exc


# ---------------------------------------------------------------------------
# pair densities beyond the plain geometric ones

def noon_density(scene: Scene, shift: float, contrast: float = 1.0) -> np.ndarray:
    """Two-photon interference density against a phase-shifted reference:
    |t|^4 [1 + v cos(2 theta - 2 alpha)]^2.  The doubled phase is what the
    photon pair accumulates; the squared bracket is the coincidence fringe."""
    fringe = 1.0 + contrast * np.cos(2.0 * scene.phase - 2.0 * shift)
    return scene.near_density() * fringe ** 2


def classical_fringe(scene: Scene, shift: float, contrast: float = 1.0) -> np.ndarray:
    """Single-photon interference intensity |t|^2 [1 + v cos(theta - alpha)]
    on the oversampled grid."""
    fringe = 1.0 + contrast * np.cos(scene.phase - shift)
    return scene.magnitude2 * fringe


def interference_rate(base_rate: float, pattern: np.ndarray,
                      reference: np.ndarray) -> float:
    """Event rate under an interference pattern.

    The simulator samples positions from a normalized density, so the
    shift-dependent total flux must enter through the rate: scale
    *base_rate* by the mass of *pattern* relative to *reference* (the bare
    object's density).  Without this, acquisitions at different reference
    shifts would be silently renormalized to equal flux and quantities that
    compare absolute signal across shifts, the four-step arctangent above
    all, would come out distorted.
    """
    total = float(np.asarray(pattern, dtype=np.float64).sum())
    base = float(np.asarray(reference, dtype=np.float64).sum())
    if base <= 0 or total < 0:
        raise DegenerateDensityError("interference rate needs positive masses")
    return base_rate * total / base


def noon_acquisition(scene: Scene, shift: float, contrast: float,
                     base_rate: float) -> tuple[np.ndarray, float]:
    """The pair density of one acquisition against a reference at phase
    *shift* (:func:`noon_density`), and the pair rate its flux gives
    *base_rate*, the bare object's rate (:func:`interference_rate`)."""
    density = noon_density(scene, shift, contrast)
    return density, interference_rate(base_rate, density, scene.near_density())


# ---------------------------------------------------------------------------
# frame simulation

def _normalized_density(scene: Scene, mode: str, density) -> np.ndarray:
    check_mode(mode)
    if density is None:
        density = scene.near_density() if mode == "near" else scene.far_density()
    density = np.asarray(density, dtype=np.float64)
    n = scene.size * scene.oversample
    if density.shape != (n, n):
        raise ConfigurationError(
            f"density shape {density.shape} does not match scene grid {(n, n)}")
    if np.any(density < 0) or not np.all(np.isfinite(density)):
        raise DegenerateDensityError("pair density must be finite and non-negative")
    total = density.sum()
    if total <= 0:
        raise DegenerateDensityError("pair density has no mass")
    return density.ravel() / total


def _seed_entropy(seed) -> tuple[int, ...]:
    """The entropy of a seed, a plain int or a tuple of ints (stream
    labels), each >= 0."""
    entries = seed if isinstance(seed, tuple) else (seed,)
    if not all(isinstance(s, (int, np.integer)) and s >= 0 for s in entries):
        raise ConfigurationError(
            f"seed entries must be integers >= 0, got {seed!r}")
    return tuple(map(int, entries))


class _ChunkCounts:
    """The photon counts of a chunk's *n* frames of *size* x *size* pixels,
    binned a slice of frames at a time (the cameras' ``counts``).  Each
    photon is kept as its flat (frame, row, column) index, in int32
    whenever every index of the chunk fits (n * size**2 < 2**31), else in
    int64."""

    def __init__(self, n: int, size: int):
        # flat photon indices, each array in frame order
        self.shape, self._photons = (n, size, size), []
        self._index = np.int32 if n * size * size < 2 ** 31 else np.int64

    def add(self, frame_of: np.ndarray, axes: Iterable[np.ndarray]) -> None:
        """Add one photon per entry of *frame_of* (sorted), at the position
        that *axes* gives one axis at a time: an array of y, then one of x.
        Each position array is consumed: written over before the next is
        asked for, so a caller may build the next in the same buffer."""
        size = self.shape[1]
        # (frame * size + row) * size + column, built in one buffer
        flat = frame_of.astype(self._index)
        ok = None
        for p in axes:
            # pixel floor(p + 0.5), in p's own buffer; positions off the
            # sensor, where the cast to an integer is undefined, are set to 0
            # first and dropped at the end
            p += 0.5
            on = p >= 0
            on &= p < size
            ok = on if ok is None else np.logical_and(ok, on, out=ok)
            del on
            np.trunc(p, out=p)
            np.copyto(p, 0.0, where=~ok)
            # truncated first, each float sum is an exact integer below
            # 2**53, so casting it back is exact
            flat *= size
            np.add(flat, p, out=flat, casting="unsafe")
        self._photons.append(flat[ok])

    def __getitem__(self, key: slice) -> np.ndarray:
        a, b, _ = key.indices(self.shape[0])
        counts = np.zeros((b - a, *self.shape[1:]), dtype=np.int32)
        pixels = counts[0].size
        for flat in self._photons:
            # the frames are sorted, so the slice's photons are contiguous
            lo, hi = np.searchsorted(flat, (a * pixels, b * pixels))
            # a 1-D index and a value of the counts' own dtype take numpy's
            # fast path for ufunc.at
            np.add.at(counts.reshape(-1), flat[lo:hi] - a * pixels, np.int32(1))
        return counts


def _sorted_search(cum: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``np.searchsorted(cum, u)``, searched in the order of the sorted
    draws (which keeps a large CDF in cache) and scattered back.  Equal
    draws get equal indices, so the sort need not be stable.  The unsorted
    draws are dropped once sorted, so a caller that passes them on holds
    one copy of them at a time, and the indices are scattered into the
    sorted draws' own buffer."""
    order = np.argsort(u)
    u = u[order]
    found = np.searchsorted(cum, u)
    index = u.view(found.dtype)
    index[order] = found
    return index


def _coordinate(rng: np.random.Generator, cell: np.ndarray,
                f: int) -> np.ndarray:
    """``-0.5 + (cell + u) / f`` for a uniform draw u per subcell index
    *cell*: a position drawn inside each subcell, in pixel units.  It is
    built in the draw's buffer, in an order that gives the same bits."""
    u = rng.random(cell.size)
    u += cell
    u /= f
    u += -0.5
    return u


def _render_chunk(scene: Scene, cum: np.ndarray, rate: float, n: int,
                  camera, entropy: tuple, chunk: int,
                  photons) -> Iterator[np.ndarray]:
    """The blocks of chunk number *chunk*, of *n* frames (see
    :func:`_simulate`), in order.  The event stage builds its arrays in
    place where it can and frees each once used, so the chunk's peak
    memory stays low."""
    rng_e = np.random.default_rng((*entropy, _STAGE_EVENTS, chunk))
    m, f = scene.size, scene.oversample
    frame_counts = rng_e.poisson(rate, n)
    tot = int(frame_counts.sum())
    # each event's subcell: its flat index, then its row, with the column
    # left in the index's buffer
    column = _sorted_search(cum, rng_e.random(tot))
    np.minimum(column, cum.size - 1, out=column)
    row = np.empty_like(column)
    np.divmod(column, m * f, out=(row, column))
    y = _coordinate(rng_e, row, f)
    del row
    x = _coordinate(rng_e, column, f)
    del column
    frame_of = np.repeat(np.arange(n, dtype=np.int32), frame_counts)
    counts = _ChunkCounts(n, m)
    photons(rng_e, y, x, lambda axes: counts.add(frame_of, axes))
    del y, x, frame_of
    yield from camera.render(
        counts, np.random.default_rng((*entropy, _STAGE_CAMERA, chunk)))


def _simulate(scene: Scene, p: np.ndarray, rate: float, n_frames: int,
              camera, seed, photons) -> Iterator[np.ndarray]:
    """The one checked entry of both simulators: an iterator over the
    stack's blocks of frames in order, each rendered as it is asked for.
    Each chunk of at most SIM_CHUNK_FRAMES frames is Poisson events per
    frame and event sites drawn from the normalized density *p*; then
    ``photons(rng, y, x, emit)`` draws any further randomness and calls
    ``emit(axes)`` per photon of an event, *axes* giving that photon's
    positions one axis at a time, y then x (an iterator, or a pair of
    arrays); emit consumes each array into the photons' flat indices
    before it asks for the next, so *photons* may build one photon's axes
    in one buffer, and its last photon in y and x themselves.  The camera
    then bins and renders the photons block by block.  The rate, the frame
    count and the seed are checked when this is called, before any chunk
    is rendered."""
    if not 0 < rate <= MAX_RATE or n_frames < 1:
        raise ConfigurationError(f"need 0 < rate <= {MAX_RATE:g} events per "
                                 f"frame and n_frames >= 1, got rate {rate!r} "
                                 f"and n_frames {n_frames!r}")
    entropy = _seed_entropy(seed)
    camera = camera if camera is not None else IdealCamera()
    cum = np.cumsum(p)
    # the chunk's temporaries go with _render_chunk's frame
    return itertools.chain.from_iterable(
        _render_chunk(scene, cum, rate, min(SIM_CHUNK_FRAMES, n_frames - start),
                      camera, entropy, chunk, photons)
        for chunk, start in enumerate(range(0, n_frames, SIM_CHUNK_FRAMES)))


def _stack(blocks: Iterator[np.ndarray], n_frames: int) -> np.ndarray:
    """The frames of *blocks* in one preallocated (n_frames, h, w) array."""
    out, start = None, 0
    for block in blocks:
        if out is None:
            out = np.empty((n_frames, *block.shape[1:]), dtype=block.dtype)
        out[start:start + len(block)] = block
        start += len(block)
    return out


def simulate_chunks(scene: Scene, mode: str = "near", sigma: float = 0.25,
                    pair_rate: float = 60.0, n_frames: int = 1000,
                    camera=None, seed: int | tuple = 0,
                    density: np.ndarray | None = None) -> Iterator[np.ndarray]:
    """The frames of :func:`simulate_frames`, as an iterator over blocks of
    frames in order, each rendered as it is asked for: a block holds at
    most RENDER_PIXELS pixels (and at least one frame) and never spans two
    SIM_CHUNK_FRAMES-frame chunks.  The parameters are checked when this is
    called, before any block is rendered."""
    if not 0 <= sigma < math.inf:
        raise ConfigurationError(f"need finite sigma >= 0, got {sigma!r}")

    def pair(rng, y, x, emit):
        # The jitter is the chunk's last event draw: photon one's y and x,
        # then photon two's (consecutive normal draws are bit for bit one
        # draw), each into one reused buffer, bit for bit as
        # rng.normal(0, scale) draws it.  Photon one is built axis by axis
        # in that buffer, photon two, the partner, in y and x themselves,
        # which nothing reads after it.
        scale = sigma / math.sqrt(2.0)
        jitter = np.empty_like(y)

        def draw():
            rng.standard_normal(out=jitter)
            return np.multiply(jitter, scale, out=jitter)

        emit(np.add(draw(), r, out=jitter) for r in (y, x))
        emit(np.add(reflect(mode, r, scene.size, out=r), draw(), out=r)
             for r in (y, x))

    return _simulate(scene, _normalized_density(scene, mode, density),
                     pair_rate, n_frames, camera, seed, pair)


def simulate_frames(scene: Scene, mode: str = "near", sigma: float = 0.25,
                    pair_rate: float = 60.0, n_frames: int = 1000,
                    camera=None, seed: int | tuple = 0,
                    density: np.ndarray | None = None) -> np.ndarray:
    """Simulate a camera frame stack of photon-pair detections.

    pair_rate is the Poisson mean of pairs per frame; *density* overrides the
    geometry's default pair density (used for interference thinning).
    Photons falling off the sensor are lost individually.
    """
    return _stack(simulate_chunks(scene, mode, sigma, pair_rate, n_frames,
                                  camera, seed, density), n_frames)


def simulate_intensity_frames(scene: Scene, intensity: np.ndarray,
                              photon_rate: float, n_frames: int,
                              camera=None, seed: int | tuple = 0) -> np.ndarray:
    """Simulate classical (single-photon) frames for an intensity pattern on
    the oversampled grid; photon_rate is the Poisson mean per frame."""
    chunks = _simulate(scene, _normalized_density(scene, "near", intensity),
                       photon_rate, n_frames, camera, seed,
                       lambda rng, y, x, emit: emit((y, x)))
    return _stack(chunks, n_frames)


# ---------------------------------------------------------------------------
# analytic JPDs

def _axis_capture(offsets: np.ndarray, sigma_photon: float) -> np.ndarray:
    """Probability that a photon born *offsets* away from a pixel centre is
    captured by that unit pixel, for Gaussian jitter sigma_photon.
    ``math.erf`` runs once per distinct offset: the offsets of a scene's
    subcells repeat across pixels."""
    z = 1.0 / (sigma_photon * math.sqrt(2.0))
    distinct, inverse = np.unique(offsets, return_inverse=True)

    def erf(x):
        return np.fromiter(map(math.erf, x.tolist()), float, x.size)

    capture = 0.5 * (erf((distinct + 0.5) * z) - erf((distinct - 0.5) * z))
    return capture[inverse].reshape(np.shape(offsets))


def _half_grid_split(scene: Scene, mode: str) -> list[tuple[int, np.ndarray]]:
    """Per-axis weight matrices W_d[j, r] of the half-pixel assignment of
    perfectly correlated pairs.

    A pair born at x is assigned to the half-pixel point q of its pair
    coordinate: the sum q = round(2x) in the near field, the difference
    q = C + round(2x - C) in the far field (the roundings differ at ties).
    Plane d = -1, 0, 1 gets weight 0.5, 1, 0.5 at every pixel r whose
    half-grid index (:func:`jpdkit.jpd.half_grid_index`) is q: even q goes
    whole to d = 0, odd q half each to d = -1 and d = +1.  Pixels off the
    sensor get no weight; entries whose partner is off the sensor are left
    to :meth:`jpdkit.jpd.Jpd.from_planes`.
    """
    m, far = scene.size, mode == "far"
    # round() is odd, so C + round(2x - C) is the reflection of round(C - 2x)
    two_x = 2.0 * scene.subcell_coordinates()
    q = reflect(mode, np.round(reflect(mode, two_x, m)), m)
    index = half_grid_index(mode, "difference" if far else "sum", 1, m)
    weight = np.array([0.5, 1.0, 0.5])[:, None, None]
    mats = np.where(index[:, None, :] == q[:, None], weight, 0.0)
    return list(zip(range(-1, 2), mats))


def analytic_jpd(scene: Scene, mode: str = "near",
                 band_radius: int = DEFAULT_BAND_RADIUS, sigma: float = 0.0,
                 pair_rate: float = 1.0,
                 density: np.ndarray | None = None) -> Jpd:
    """Closed-form expectation of the JPD estimator for a scene.

    sigma = 0 uses the half-pixel assignment of perfectly correlated pairs,
    under which the projection onto the pair coordinate (sum for near field,
    difference for far field) equals the half-pixel-sampled pair density
    exactly.  sigma > 0 evaluates the separable pixel-capture products
    implied by the Gaussian jitter model, summed over both photon orderings:
    the exact expectation of the frame-stack estimator at the given pair
    rate (the unmodeled self-product bias only touches entries every camera
    flags invalid anyway).

    Analytic JPDs model ideal lossless detection: every in-band entry whose
    partner pixel is on the sensor is valid.
    """
    if band_radius < 1:
        raise ConfigurationError("analytic construction needs band_radius >= 1")
    if not (0 <= sigma < math.inf and 0 <= pair_rate < math.inf):
        raise ConfigurationError(f"need finite sigma >= 0 and finite "
                                 f"pair_rate >= 0, got sigma {sigma!r} and "
                                 f"pair_rate {pair_rate!r}")
    m = scene.size
    n_sub = m * scene.oversample
    rho = pair_rate * _normalized_density(scene, mode, density).reshape(n_sub, n_sub)
    k = band_radius
    if sigma == 0:
        axis_mats = _half_grid_split(scene, mode)
        orderings = 1.0
    else:
        sigma_photon = sigma / math.sqrt(2.0)
        x = scene.subcell_coordinates()
        first = _axis_capture(np.arange(m) - x[:, None], sigma_photon)
        # the partner photon is born at the reflection of x and captured by
        # the partner pixel of plane d
        second = _axis_capture(_partners(mode, k, m)[:, None, :]
                               - reflect(mode, x, m)[:, None], sigma_photon)
        axis_mats = list(zip(range(-k, k + 1), first * second))
        # the estimator counts both photon orderings of every pair
        orderings = 2.0
    planes = np.zeros((2 * k + 1, 2 * k + 1, m, m))
    for dy, wy in axis_mats:
        for dx, wx in axis_mats:
            planes[dy + k, dx + k] = wy.T @ rho @ wx
    planes *= orderings
    return Jpd.from_planes(mode, planes, 0)
