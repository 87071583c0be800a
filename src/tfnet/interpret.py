"""Frequency-domain interpretability: filter responses and band distance.

The first layer of a model is read as a bank of FIR filters.  Each
channel's frequency response (C-FR) is the FFT magnitude of its
zero-padded kernel on the non-negative half axis; the overall response
(O-FR) is the channel mean.  A channel's centre frequency is the argmax of
its C-FR, so one definition serves TFconv and ``Conv1d`` banks alike.
Band coverage scores the bank against declared information bands by band
distance: for each band, the distance from the band to the nearest channel
centre, 0 when a centre lies inside the band.

The module only computes, on arrays and datasets in memory; ``tfnet
freq-response`` (``tfnet.cli``) writes the results to files.
"""

from dataclasses import dataclass

import numpy as np

from tfnet.data import check_band
from tfnet.training import standardize


@dataclass(frozen=True)
class FrequencyResponse:
    """Per-channel and averaged filter magnitudes on [0, 0.5]."""

    freqs: np.ndarray  # (n_freqs,)
    cfr: np.ndarray    # (n_channels, n_freqs)
    ofr: np.ndarray    # (n_freqs,)


def channel_frequency_response(kernels: np.ndarray, n_fft: int = 1024) -> FrequencyResponse:
    """FFT magnitude of each channel's zero-padded kernel in a (C, K) bank.

    The two half-spectra are folded by pointwise maximum, so the result
    is invariant under kernel conjugation and real kernels are unchanged.
    """
    K = kernels.shape[1]
    if n_fft < K:
        raise ValueError(f"n_fft={n_fft} shorter than kernel length {K}")
    mag = np.abs(np.fft.fft(kernels, n_fft, axis=1))
    half = n_fft // 2 + 1
    mirror = mag[:, (-np.arange(half)) % n_fft]
    cfr = np.maximum(mag[:, :half], mirror)
    freqs = np.arange(half) / n_fft
    return FrequencyResponse(freqs=freqs, cfr=cfr, ofr=cfr.mean(axis=0))


def spectrum_freqs(length: int) -> np.ndarray:
    """Normalized frequency axis matching ``dataset_spectrum`` output."""
    return np.arange(length // 2 + 1) / length


def dataset_spectrum(dataset) -> np.ndarray:
    """Mean magnitude spectrum of a Dataset's per-sample standardized signals.

    Returns the non-negative half spectrum (length L//2 + 1).
    """
    if dataset.n_samples == 0:
        raise ValueError("cannot take the spectrum of an empty dataset")
    z = standardize(dataset.signals)
    return np.abs(np.fft.rfft(z, axis=1)).mean(axis=0)


@dataclass(frozen=True)
class BandDistance:
    """The channel whose centre frequency lies nearest a band, and how far it lies."""

    band: tuple[float, float]
    channel: int
    centre: float
    distance: float  # 0 when the centre lies inside the band


def band_coverage(resp: FrequencyResponse, bands) -> tuple[BandDistance, ...]:
    """Band distance of a filter bank's response, one record per band.

    A channel's centre is the frequency at the argmax of its C-FR row;
    ties go to the first frequency, and then to the first channel.
    """
    centres = resp.freqs[resp.cfr.argmax(axis=1)]
    results = []
    for band in bands:
        lo, hi = check_band(band)
        gaps = np.maximum(np.maximum(lo - centres, centres - hi), 0.0)
        c = int(gaps.argmin())
        results.append(BandDistance((lo, hi), c, float(centres[c]), float(gaps[c])))
    return tuple(results)
