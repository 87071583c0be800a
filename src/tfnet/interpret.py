"""Frequency-domain interpretability: filter responses and band coverage.

The first layer of a model is read as a bank of FIR filters.  Each
channel's frequency response (C-FR) is the FFT magnitude of its
zero-padded kernel on the non-negative half axis; the overall response
(O-FR) is the channel mean.  Band coverage scores the O-FR against
declared information bands: a band is hit when a local maximum at least
1.5x the O-FR median falls inside it.
"""

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from tfnet.data import check_band
from tfnet.training import standardize

THRESHOLD_FACTOR = 1.5  # a band peak must reach this multiple of the O-FR median


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
class BandPeak:
    band: tuple[float, float]
    peak_frequency: float
    peak_magnitude: float
    hit: bool


@dataclass(frozen=True)
class BandReport:
    bands: tuple[BandPeak, ...]
    ofr_median: float

    @property
    def threshold(self) -> float:
        return THRESHOLD_FACTOR * self.ofr_median

    @property
    def n_hits(self) -> int:
        return sum(1 for b in self.bands if b.hit)


def _local_maxima(values: np.ndarray) -> np.ndarray:
    """Indices of plateau-tolerant local maxima, endpoints included."""
    v = np.asarray(values)
    if v.size == 1:
        return np.array([0])
    ge_left = np.empty(v.size, dtype=bool)
    ge_right = np.empty(v.size, dtype=bool)
    ge_left[0] = True
    ge_left[1:] = v[1:] >= v[:-1]
    ge_right[-1] = True
    ge_right[:-1] = v[:-1] >= v[1:]
    return np.flatnonzero(ge_left & ge_right)


def band_coverage(ofr, freqs, bands) -> BandReport:
    """Score the O-FR against information bands.

    A band is hit when some local maximum inside it reaches
    ``THRESHOLD_FACTOR`` times the O-FR median (and is positive, so a
    flat zero response never scores).
    """
    ofr = np.asarray(ofr, dtype=np.float64)
    freqs = np.asarray(freqs, dtype=np.float64)
    if ofr.shape != freqs.shape or ofr.ndim != 1 or ofr.size == 0:
        raise ValueError("ofr and freqs must be equal-length non-empty 1D arrays")
    median = float(np.median(ofr))
    threshold = THRESHOLD_FACTOR * median
    maxima = _local_maxima(ofr)
    results = []
    for band in bands:
        lo, hi = check_band(band)
        in_band = np.flatnonzero((freqs >= lo) & (freqs <= hi))
        if in_band.size == 0:
            results.append(BandPeak((lo, hi), (lo + hi) / 2, 0.0, False))
            continue
        band_max = maxima[np.isin(maxima, in_band)]
        hit = bool(
            band_max.size
            and np.any((ofr[band_max] >= threshold) & (ofr[band_max] > 0.0))
        )
        peak_pool = band_max if band_max.size else in_band
        k = peak_pool[np.argmax(ofr[peak_pool])]
        results.append(BandPeak((lo, hi), float(freqs[k]), float(ofr[k]), hit))
    return BandReport(tuple(results), ofr_median=median)


def write_ofr_csv(path, freqs, values, column="ofr") -> None:
    """Two-column spectrum CSV: ``freq`` and ``column``."""
    with Path(path).open("w") as fh:
        fh.write(f"freq,{column}\n")
        for f, v in zip(freqs, values):
            fh.write(f"{repr(float(f))},{repr(float(v))}\n")


def write_cfr_csv(path, freqs, cfr) -> None:
    with Path(path).open("w") as fh:
        fh.write("channel,freq,magnitude\n")
        for c in range(cfr.shape[0]):
            for f, v in zip(freqs, cfr[c]):
                fh.write(f"{c},{repr(float(f))},{repr(float(v))}\n")


def write_band_report(path, report: BandReport) -> None:
    """Plain-text manifest of a band coverage report."""
    lines = [
        f"threshold_factor: {THRESHOLD_FACTOR}",
        f"ofr_median: {repr(report.ofr_median)}",
        f"threshold: {repr(report.threshold)}",
        f"hits: {report.n_hits}/{len(report.bands)}",
    ]
    for b in report.bands:
        lines.append(
            f"band [{b.band[0]}, {b.band[1]}]: peak_freq={repr(b.peak_frequency)} "
            f"peak_magnitude={repr(b.peak_magnitude)} hit={'yes' if b.hit else 'no'}"
        )
    Path(path).write_text("\n".join(lines) + "\n")
