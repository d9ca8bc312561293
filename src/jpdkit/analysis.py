"""Spectral and statistical diagnostics, plus brute-force references.

The central measurement is a fringe spectrum: the magnitude of the discrete
Fourier transform along one image axis, averaged over the perpendicular axis
and normalized to the zero-frequency amplitude.  Frequencies are reported in
cycles per camera pixel, so a native image resolves up to 0.5 and a
half-pixel-grid image up to 1.0.  A Hann window is applied by default;
without it, leakage from strong harmonics dominates the background near the
peaks and noise-floor comparisons become meaningless.

``dense_jpd_matrix`` is the literal, quadratic-memory implementation of the
coincidence estimator, kept as an independent reference for the banded code.
"""

from __future__ import annotations

import numbers

import numpy as np

from .errors import ConfigurationError, ProcessingError
from .frames import check_stack
from .images import GridImage


def spectrum_along_axis(image: GridImage, axis: int = 0,
                        window: str = "hann") -> tuple[np.ndarray, np.ndarray]:
    """Magnitude spectrum along *axis* (0 = y), averaged across the other
    axis, normalized to the zero-frequency bin.

    Returns (frequencies in cycles per camera pixel, relative amplitudes).
    This is the one check of a spectrum's input: the image must be a
    non-empty 2-D array of booleans, integers or reals, and the pitch a
    finite, positive number that is not a bool; anything else is a
    :class:`ConfigurationError`.
    """
    values = np.asarray(image.values)
    if values.ndim != 2 or values.size == 0 or values.dtype.kind not in "biuf":
        raise ConfigurationError(
            "spectrum needs a non-empty 2-D image of booleans, integers or "
            f"reals, got {values.dtype} of shape {values.shape}")
    if axis not in (0, 1):
        raise ConfigurationError("axis must be 0 (y) or 1 (x)")
    pitch = image.pitch
    if isinstance(pitch, bool) or not (isinstance(pitch, numbers.Real)
                                       and 0 < pitch < np.inf):
        raise ConfigurationError(f"pitch must be a finite number > 0, got {pitch!r}")
    work = np.asarray(values if axis == 0 else values.T, dtype=np.float64)
    n = work.shape[0]
    if window == "hann":
        work = work * np.hanning(n)[:, None]
    elif window != "none":
        raise ConfigurationError(f"unknown window {window!r}")
    amps = np.abs(np.fft.rfft(work, axis=0)).mean(axis=1)
    if not np.isfinite(amps[0]) or amps[0] <= 0:
        raise ProcessingError(
            "zero-frequency amplitude vanishes; spectrum cannot be normalized")
    freqs = np.fft.rfftfreq(n, d=pitch)
    return freqs, amps / amps[0]


def peak_amplitude(freqs: np.ndarray, amps: np.ndarray, frequency: float,
                   search_bins: int = 1) -> tuple[int, float]:
    """Largest amplitude within *search_bins* of the bin nearest *frequency*.
    Returns (bin index, amplitude)."""
    freqs = np.asarray(freqs)
    amps = np.asarray(amps)
    k = int(np.argmin(np.abs(freqs - frequency)))
    lo, hi = max(0, k - search_bins), min(len(amps), k + search_bins + 1)
    j = lo + int(np.argmax(amps[lo:hi]))
    return j, float(amps[j])


def local_noise_floor(amps: np.ndarray, around: int,
                      exclude: tuple[int, ...] = (),
                      half_width: int = 10, exclude_radius: int = 2,
                      dc_guard: int = 3) -> float:
    """Median amplitude near bin *around*, skipping the neighbourhoods of
    known peaks and the lowest (zero-order dominated) bins.

    The bins within *exclude_radius* of *around* and of every bin in
    *exclude* are dropped, as are bins below *dc_guard*.
    """
    amps = np.asarray(amps)
    banned = set()
    for center in (around, *exclude):
        banned.update(range(center - exclude_radius, center + exclude_radius + 1))
    lo = max(dc_guard, around - half_width)
    hi = min(len(amps), around + half_width + 1)
    keep = [amps[k] for k in range(lo, hi) if k not in banned]
    if not keep:
        raise ProcessingError("no bins left to estimate a noise floor from")
    return float(np.median(keep))


def strongest_peak(freqs: np.ndarray, amps: np.ndarray,
                   dc_guard: int = 3) -> tuple[int, float]:
    """Bin index and amplitude of the strongest component above the
    zero-order guard band."""
    amps = np.asarray(amps)
    if dc_guard >= len(amps):
        raise ProcessingError("guard band covers the whole spectrum")
    k = dc_guard + int(np.argmax(amps[dc_guard:]))
    return k, float(amps[k])


def stripe_metric(values: np.ndarray, axis: int = 0) -> float:
    """Relative imbalance between even- and odd-index lines along *axis*.

    Interleaved images built from unequally scaled displacement planes show
    a parity stripe; this is its magnitude relative to the image mean.
    """
    values = np.asarray(values, dtype=np.float64)
    if axis not in (0, 1):
        raise ConfigurationError("axis must be 0 (y) or 1 (x)")
    work = values if axis == 0 else values.T
    total = work.mean()
    if not np.isfinite(total) or total <= 0:
        raise ProcessingError("stripe metric needs a positive-mean image")
    even = work[0::2].mean()
    odd = work[1::2].mean()
    return float(abs(even - odd) / total)


# ---------------------------------------------------------------------------
# brute-force references

def dense_jpd_matrix(frames: np.ndarray, symmetrize: bool = True) -> np.ndarray:
    """Literal coincidence estimator over all pixel pairs.

    Returns the (H*W, H*W) matrix, averaged over consecutive-frame terms and
    optionally symmetrized.  Quadratic in pixel count; for cross-checking on
    small stacks only.  Refuses the stacks the accumulator refuses, with
    the same errors: it checks them by :func:`~jpdkit.frames.check_stack`
    for at least 2 frames, as the accumulator does.
    """
    frames = np.asarray(frames)
    check_stack(frames, 2)
    n = frames.shape[0]
    flat = frames.reshape(n, -1).astype(np.float64)
    acc = np.zeros((flat.shape[1], flat.shape[1]))
    for l in range(n - 1):
        acc += np.outer(flat[l], flat[l]) - np.outer(flat[l], flat[l + 1])
    acc /= (n - 1)
    if symmetrize:
        acc = 0.5 * (acc + acc.T)
    return acc


def banded_from_dense(dense: np.ndarray, mode: str, band_radius: int,
                      shape: tuple[int, int]) -> np.ndarray:
    """Gather the banded planes out of a dense pair matrix, entry by entry.

    Independent indexing path used to validate the banded accumulator;
    entries whose partner lies off the sensor are left at zero.
    """
    h, w = shape
    if dense.shape != (h * w, h * w):
        raise ConfigurationError("dense matrix does not match the frame shape")
    k = band_radius
    planes = np.zeros((2 * k + 1, 2 * k + 1, h, w))
    for dy in range(-k, k + 1):
        for dx in range(-k, k + 1):
            for y in range(h):
                for x in range(w):
                    if mode == "near":
                        y2, x2 = y + dy, x + dx
                    else:
                        y2, x2 = h - 1 - y + dy, w - 1 - x + dx
                    if 0 <= y2 < h and 0 <= x2 < w:
                        planes[dy + k, dx + k, y, x] = dense[
                            y * w + x, y2 * w + x2]
    return planes
