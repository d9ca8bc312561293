import numpy as np
import pytest

from jpdkit.analysis import (banded_from_dense, dense_jpd_matrix,
                             local_noise_floor, peak_amplitude,
                             spectrum_along_axis, stripe_metric,
                             strongest_peak)
from jpdkit.errors import (ConfigurationError, FrameShapeError,
                           InsufficientDataError, ProcessingError)
from jpdkit.images import GridImage
from jpdkit.jpd import accumulate_jpd


def cosine_image(n=64, cycles=8, pitch=1.0, amplitude=0.4):
    y = np.arange(n)
    rows = 1.0 + amplitude * np.cos(2 * np.pi * cycles * y / n)
    return GridImage(np.tile(rows[:, None], (1, 16)), pitch=pitch)


def test_spectrum_locates_single_tone():
    img = cosine_image(n=64, cycles=8, pitch=1.0)
    freqs, amps = spectrum_along_axis(img, axis=0, window="none")
    assert freqs[-1] == pytest.approx(0.5)
    k = int(np.argmin(np.abs(freqs - 8 / 64)))
    assert amps[k] == pytest.approx(0.2, abs=1e-12)   # half the contrast
    off = np.delete(amps, [0, k])
    assert off.max() < 1e-12


def test_spectrum_pitch_rescales_frequencies():
    img = cosine_image(n=64, cycles=8, pitch=0.5)
    freqs, _ = spectrum_along_axis(img, window="none")
    assert freqs[-1] == pytest.approx(1.0)
    assert freqs[8] == pytest.approx(8 / 64 / 0.5)


def test_spectrum_axis_and_window():
    img = cosine_image()
    f0, a0 = spectrum_along_axis(img, axis=0)
    transposed = GridImage(img.values.T, pitch=img.pitch)
    f1, a1 = spectrum_along_axis(transposed, axis=1)
    assert np.array_equal(f0, f1)
    assert np.allclose(a0, a1)
    # the Hann window spreads the tone into neighbouring bins
    _, windowed = spectrum_along_axis(img, window="hann")
    assert windowed[7] > 1e-3
    with pytest.raises(ConfigurationError):
        spectrum_along_axis(img, window="hamming")
    with pytest.raises(ConfigurationError):
        spectrum_along_axis(img, axis=2)
    with pytest.raises(ConfigurationError):
        spectrum_along_axis(GridImage(np.zeros(8)))
    with pytest.raises(ProcessingError, match="zero-frequency"):
        spectrum_along_axis(GridImage(np.zeros((8, 8))))


def test_spectrum_takes_only_non_empty_2d_real_images():
    # complex values would lose their imaginary part, dates would count
    # days and fields would read as zeros, so each is refused by kind
    for values in (np.ones((8, 8), dtype=complex), np.full((8, 8), "1"),
                   np.arange(64).astype("M8[D]").reshape(8, 8),
                   np.ones((8, 8), dtype=[("a", "<f8")]),
                   np.ones((8, 8), dtype=object), np.ones((0, 5)),
                   np.ones((5, 0)), np.ones(()), np.ones((2, 4, 4))):
        with pytest.raises(ConfigurationError, match="non-empty 2-D image"):
            spectrum_along_axis(GridImage(values))
    rows = cosine_image().values
    reference = spectrum_along_axis(GridImage(rows))
    for values in (rows > 1, (rows * 100).astype(np.int16),
                   (rows * 100).astype(np.uint8)):
        freqs, amps = spectrum_along_axis(GridImage(values))
        assert np.array_equal(freqs, reference[0]) and amps[0] == 1


def test_spectrum_rejects_non_positive_or_non_finite_pitch():
    for pitch in (0.0, -1.0, np.nan, np.inf, "0.5", None, True):
        with pytest.raises(ConfigurationError, match="pitch"):
            spectrum_along_axis(cosine_image(pitch=pitch))


def test_peak_amplitude_search_window():
    freqs = np.linspace(0, 0.5, 33)
    amps = np.zeros(33)
    amps[10] = 1.0
    amps[11] = 3.0
    k, a = peak_amplitude(freqs, amps, freqs[10], search_bins=1)
    assert (k, a) == (11, 3.0)
    k, a = peak_amplitude(freqs, amps, freqs[10], search_bins=0)
    assert (k, a) == (10, 1.0)


def test_local_noise_floor_excludes_peaks():
    amps = np.ones(40) * 0.1
    amps[:4] = 50.0          # zero-order leakage
    amps[20] = 5.0           # the peak under test
    amps[25] = 7.0           # a known other peak
    floor = local_noise_floor(amps, around=20, exclude=(25,))
    assert floor == pytest.approx(0.1)
    with pytest.raises(ProcessingError):
        local_noise_floor(amps, around=20, half_width=1)


def test_strongest_peak_guards_dc():
    amps = np.array([9.0, 8.0, 7.0, 0.1, 0.2, 1.5, 0.1])
    k, a = strongest_peak(np.linspace(0, 0.5, 7), amps)
    assert (k, a) == (5, 1.5)
    with pytest.raises(ProcessingError):
        strongest_peak(np.linspace(0, 0.5, 3), np.ones(3), dc_guard=5)


def test_stripe_metric():
    flat = np.ones((8, 6))
    assert stripe_metric(flat) == 0.0
    striped = np.ones((8, 6))
    striped[1::2] = 3.0
    assert stripe_metric(striped) == pytest.approx(1.0)   # |1 - 3| / 2
    assert stripe_metric(striped.T, axis=1) == pytest.approx(1.0)
    assert stripe_metric(striped, axis=1) == 0.0
    with pytest.raises(ConfigurationError):
        stripe_metric(striped, axis=2)
    with pytest.raises(ProcessingError):
        stripe_metric(np.zeros((4, 4)))


def test_dense_matrix_agrees_with_banded_accumulator():
    rng = np.random.default_rng(12)
    frames = rng.integers(0, 25, size=(15, 5, 6), dtype=np.uint16)
    for mode in ("near", "far"):
        for symmetrize in (True, False):
            jpd = accumulate_jpd(frames, mode=mode, band_radius=2,
                                 symmetrize=symmetrize)
            dense = dense_jpd_matrix(frames, symmetrize=symmetrize)
            planes = banded_from_dense(dense, mode, 2, (5, 6))
            assert np.array_equal(np.where(jpd.valid, planes, 0.0), jpd.planes)


def test_dense_matrix_literal_value():
    frames = np.array([[[1, 2]], [[4, 3]], [[2, 7]]])
    dense = dense_jpd_matrix(frames, symmetrize=False)
    # Gamma((0,0),(0,1)) computed by hand from the two frame pairs
    assert dense[0, 1] == pytest.approx(-8.5)
    assert dense[1, 0] == pytest.approx(0.0)
    sym = dense_jpd_matrix(frames, symmetrize=True)
    assert sym[0, 1] == sym[1, 0] == pytest.approx(-4.25)
    # the accumulator's refusals, with its errors
    with pytest.raises(InsufficientDataError):
        dense_jpd_matrix(frames[:1])
    with pytest.raises(FrameShapeError):
        dense_jpd_matrix(frames[0])
    with pytest.raises(FrameShapeError):
        dense_jpd_matrix(np.zeros((3, 0, 2)))
    with pytest.raises(ConfigurationError):
        banded_from_dense(dense, "near", 1, (2, 2))
