"""Phase imaging from four phase-shifted acquisition series.

Two interference regimes are supported.

Pair interference ("noon"): the coincidence rate against a reference with
phase shift alpha follows ``[1 + v cos(2 theta - 2 alpha)]^2`` because the
photon pair accumulates the object phase twice.  Acquiring at
``alpha in {0, pi/4, pi/2, 3*pi/4}`` places the doubled phase on quadrature
points, and the four-step arctangent returns ``wrap(2 theta)`` exactly, for
the squared fringe law as well as a linear one: the square's cross terms
cancel between shifts half a fringe apart.

Intensity interference ("classical"): single photons produce
``1 + v cos(theta - alpha)``; shifts ``{0, pi/2, pi, 3*pi/2}`` recover
``wrap(theta)``.

Phase maps from coincidence data are computed on the half-pixel grid of the
super-resolved image.  No plane filter or normalization is applied on the
way: all four shifts share the same plane scaling, which cancels in the
arctangent, whereas normalizing each shift separately would distort the
fringe ratios.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigurationError
from .frames import check_stack
from .images import GridImage
from .jpd import DEFAULT_CHUNK_SIZE
from .pipeline import reconstruct, super_resolve
from .scenes import Scene, block_mean
from .simulate import (analytic_jpd, classical_fringe, noon_acquisition,
                       noon_density, simulate_chunks)

PAIR_SHIFTS = (0.0, math.pi / 4, math.pi / 2, 3 * math.pi / 4)
INTENSITY_SHIFTS = (0.0, math.pi / 2, math.pi, 3 * math.pi / 2)


def wrap_phase(x: np.ndarray) -> np.ndarray:
    """Wrap angles to (-pi, pi], matching arctangent output."""
    return np.angle(np.exp(1j * np.asarray(x, dtype=np.float64)))


def four_step_phase(s0, s1, s2, s3) -> np.ndarray:
    """Quadrature recombination of four equally shifted acquisitions.

    With signals a + b cos(phi - k * pi/2), k = 0..3, returns wrap(phi);
    exact also when the fringe enters squared, since the extra harmonic is
    common mode between opposite shifts.
    """
    return np.arctan2(np.asarray(s1) - np.asarray(s3),
                      np.asarray(s0) - np.asarray(s2))


# ---------------------------------------------------------------------------
# pair-interference phase maps

def simulate_pair_phase_stacks(scene: Scene, contrast: float = 1.0,
                               sigma: float = 0.25, pair_rate: float = 60.0,
                               n_frames: int = 1000, camera=None,
                               seed: int = 0) -> list:
    """One frame stack per reference shift, each as the iterator over its
    blocks of frames that :func:`~jpdkit.simulate.simulate_chunks` returns,
    so a stack is rendered only as it is read and never held whole; each
    stack gets an independent deterministic random stream derived from
    (seed, shift index).

    The per-shift pair rate follows the transmitted flux of the
    interference pattern (*pair_rate* refers to the bare object)."""
    acquisitions = (noon_acquisition(scene, alpha, contrast, pair_rate)
                    for alpha in PAIR_SHIFTS)
    return [simulate_chunks(scene, mode="near", sigma=sigma, pair_rate=rate,
                            n_frames=n_frames, camera=camera, seed=(seed, i),
                            density=density)
            for i, (density, rate) in enumerate(acquisitions)]


def _phase_image(images) -> GridImage:
    """Four-step phase of four half-pixel images, on the first one's grid."""
    phase = four_step_phase(*(im.values for im in images))
    ref = images[0]
    return GridImage(phase, pitch=ref.pitch, origin=ref.origin, counts=ref.counts)


def pair_phase_map(stacks, camera=None, band_radius: int = 1,
                   chunk_size: int = DEFAULT_CHUNK_SIZE,
                   workers: int | None = None) -> GridImage:
    """Reconstruct wrap(2 theta) on the half-pixel grid from four stacks
    acquired at the pair-interference shifts, each through `reconstruct`,
    which takes an array, a frame file or an iterator of blocks, such as
    :func:`simulate_pair_phase_stacks` returns, and reads it one chunk at a
    time."""
    if len(stacks) != 4:
        raise ConfigurationError("four phase-shifted stacks are required")
    return _phase_image([reconstruct(
        frames, "near", camera, band_radius, threshold=None, normalize=False,
        chunk_size=chunk_size, workers=workers).image for frames in stacks])


def analytic_pair_phase_map(scene: Scene, contrast: float = 1.0,
                            sigma: float = 0.0,
                            band_radius: int = 1) -> GridImage:
    """Noise-free pair-interference phase map via the analytic JPDs."""
    return _phase_image([super_resolve(analytic_jpd(
        scene, mode="near", band_radius=band_radius, sigma=sigma,
        pair_rate=rate, density=density))
        for density, rate in (noon_acquisition(scene, alpha, contrast, 1.0)
                              for alpha in PAIR_SHIFTS)])


def reference_pair_phase(scene: Scene) -> GridImage:
    """Ground-truth wrap(2 theta) sampled at the half-pixel points.

    Samples the scene phase at one subcell inside each half-pixel window
    (windows that do not straddle a phase step are constant, the intended
    use; see the quarter-pixel checkerboard alignment)."""
    f = scene.oversample
    m = scene.size
    n_half = 2 * m - 1
    starts = (f * (2 * np.arange(n_half) + 1)) // 4
    sampled = scene.phase[np.ix_(starts, starts)]
    return GridImage(wrap_phase(2.0 * sampled), pitch=0.5, origin=(0.0, 0.0))


# ---------------------------------------------------------------------------
# intensity-interference phase maps

def intensity_phase_map(stacks) -> np.ndarray:
    """wrap(theta) per camera pixel from four intensity stacks acquired at
    the intensity-interference shifts; each stack is averaged over frames.
    Each stack must be a frame stack of at least one frame, as
    :func:`~jpdkit.frames.check_stack` checks it: one that is not is
    refused before any is averaged."""
    if len(stacks) != 4:
        raise ConfigurationError("four phase-shifted stacks are required")
    for stack in stacks:
        check_stack(np.asarray(stack), 1)
    means = [np.asarray(s, dtype=np.float64).mean(axis=0) for s in stacks]
    return four_step_phase(*means)


def analytic_intensity_phase_map(scene: Scene,
                                 contrast: float = 1.0) -> np.ndarray:
    """Noise-free intensity-interference phase map (pixel-integrated)."""
    images = [block_mean(classical_fringe(scene, alpha, contrast),
                         scene.oversample) for alpha in INTENSITY_SHIFTS]
    return four_step_phase(*images)


def reference_intensity_phase(scene: Scene) -> np.ndarray:
    """Ground-truth wrap(theta) sampled at pixel centres."""
    f = scene.oversample
    centers = np.arange(scene.size) * f + f // 2
    return wrap_phase(scene.phase[np.ix_(centers, centers)])


# ---------------------------------------------------------------------------
# phase sweep diagnostics

def double_phase_curve(scene: Scene, shifts: np.ndarray,
                       contrast: float = 1.0, kind: str = "pair") -> np.ndarray:
    """Total signal against reference shift: the pair-interference curve
    oscillates at twice the rate of the intensity curve."""
    shifts = np.asarray(shifts, dtype=np.float64)
    if kind == "pair":
        return np.array([noon_density(scene, a, contrast).sum() for a in shifts])
    if kind == "intensity":
        return np.array([classical_fringe(scene, a, contrast).sum() for a in shifts])
    raise ConfigurationError(f"kind must be 'pair' or 'intensity', got {kind!r}")


def dominant_period(shifts: np.ndarray, values: np.ndarray) -> float:
    """Period of the strongest non-constant Fourier component of a uniformly
    sampled sweep."""
    shifts = np.asarray(shifts, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if shifts.ndim != 1 or shifts.size < 3 or shifts.shape != values.shape:
        raise ConfigurationError("need matching 1-D sweeps of length >= 3")
    steps = np.diff(shifts)
    if not np.allclose(steps, steps[0], rtol=1e-9, atol=1e-12):
        raise ConfigurationError("period fit requires uniform shift spacing")
    coeffs = np.fft.rfft(values)
    k = 1 + int(np.argmax(np.abs(coeffs[1:])))
    span = steps[0] * shifts.size
    return span / k
