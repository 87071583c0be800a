"""Frequency-response interpretability and band distance."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import csv_rows, run_freq_response
from tfnet.data import ClassSpec, Dataset, SynthSpec, synth_generate, synthbearing5
from tfnet.interpret import (
    FrequencyResponse,
    band_coverage,
    channel_frequency_response,
    dataset_spectrum,
    spectrum_freqs,
)
from tfnet.kernels import ALPHA_MAX, F_MAX, KernelFamily, evaluate_kernels, init_params
from tfnet.nn import Conv1d, TFconvLayer, assemble_model


class TestChannelFrequencyResponse:
    def test_overall_is_channel_mean(self):
        rng = np.random.default_rng(0)
        bank = rng.normal(size=(5, 9))
        fr = channel_frequency_response(bank, n_fft=64)
        np.testing.assert_allclose(fr.ofr, fr.cfr.mean(axis=0), atol=1e-12)

    def test_frequency_axis(self):
        fr = channel_frequency_response(np.ones((1, 3)), n_fft=16)
        assert fr.freqs.shape == (9,)
        assert fr.freqs[0] == 0.0 and fr.freqs[-1] == 0.5
        np.testing.assert_allclose(np.diff(fr.freqs), 1 / 16)

    def test_conjugation_invariant(self):
        rng = np.random.default_rng(1)
        bank = rng.normal(size=(3, 7)) + 1j * rng.normal(size=(3, 7))
        a = channel_frequency_response(bank, n_fft=64)
        b = channel_frequency_response(bank.conj(), n_fft=64)
        np.testing.assert_allclose(a.cfr, b.cfr, atol=1e-12)

    def test_real_kernels_keep_plain_magnitude(self):
        # a real kernel's spectrum is conjugate-symmetric, so folding the
        # two half-axes changes nothing
        rng = np.random.default_rng(2)
        bank = rng.normal(size=(2, 5))
        fr = channel_frequency_response(bank, n_fft=32)
        plain = np.abs(np.fft.fft(bank, 32, axis=1))[:, :17]
        np.testing.assert_allclose(fr.cfr, plain, atol=1e-12)

    def test_single_tap_kernel_is_flat(self):
        fr = channel_frequency_response(np.array([[2.0 + 0j]]), n_fft=16)
        np.testing.assert_allclose(fr.cfr, 2.0, atol=1e-12)

    def test_analytic_kernel_peaks_at_its_frequency(self):
        layer = TFconvLayer(KernelFamily.STTF, init_params(KernelFamily.STTF, 4))
        fr = channel_frequency_response(layer.kernels(), n_fft=512)
        np.testing.assert_array_equal(fr.cfr.argmax(axis=1), [32, 96, 160, 224])

    def test_conv_layer_kernels_are_input_summed(self):
        rng = np.random.default_rng(3)
        conv = Conv1d(2, 3, 5, rng)
        np.testing.assert_array_equal(conv.kernels(), conv.weight[:, 0] + conv.weight[:, 1])

    def test_delta_conv_kernel_is_flat(self):
        rng = np.random.default_rng(4)
        conv = Conv1d(1, 1, 5, rng)
        conv.weight[...] = 0.0
        conv.weight[0, 0, 2] = 1.0
        fr = channel_frequency_response(conv.kernels(), n_fft=64)
        np.testing.assert_allclose(fr.cfr, 1.0, atol=1e-12)

    def test_fft_length_must_cover_kernel(self):
        with pytest.raises(ValueError):
            channel_frequency_response(np.ones((1, 51)), n_fft=32)


class TestOverallFrequencyResponse:
    def test_mean(self):
        # single-tap kernels have flat responses |a|, so the O-FR is the
        # mean tap magnitude at every frequency
        fr = channel_frequency_response(np.array([[1.0], [-3.0]]), n_fft=8)
        np.testing.assert_allclose(fr.cfr, [[1.0] * 5, [3.0] * 5], atol=1e-12)
        np.testing.assert_allclose(fr.ofr, [2.0] * 5, atol=1e-12)


class TestModelFrequencyResponse:
    """``freq-response`` reads ``Model.layers[0]``, the model's first filter bank."""

    # sttf front layer: 8 channels x 51 taps; paper-cnn's first conv: 16 x 15
    @pytest.mark.parametrize("mode, shape", [("tfn-add", (8, 51)), ("backbone-only", (16, 15))])
    def test_first_layer_kernels_are_a_channel_bank(self, mode, shape):
        model = assemble_model(mode, n_classes=5, n_channels=8, seed=0)
        assert model.layers[0].kernels().shape == shape


class TestDatasetSpectrum:
    def test_tone_dominates_its_bin(self):
        t = np.arange(128)
        signals = np.sin(2 * np.pi * (16 / 128) * t)[None, :] * np.ones((3, 1))
        spectrum = dataset_spectrum(Dataset(signals, [0, 0, 0]))
        assert spectrum.argmax() == 16
        assert spectrum.shape == (65,)

    def test_bearing_spectrum_peaks_in_every_band(self, tiny_dataset):
        # the largest value over each band, widened by its own width on
        # both sides, lies inside the band
        spectrum = dataset_spectrum(tiny_dataset)
        freqs = spectrum_freqs(tiny_dataset.length)
        bands = tiny_dataset.meta["information_bands"]
        assert len(bands) == 4
        for lo, hi in bands:
            window = np.flatnonzero((freqs >= 2 * lo - hi) & (freqs <= 2 * hi - lo))
            peak = freqs[window[spectrum[window].argmax()]]
            assert lo <= peak <= hi

    def test_white_noise_spectrum_is_flat(self):
        spec = SynthSpec(classes=(ClassSpec("noise"),), information_bands=(),
                         samples_per_class=500, sample_length=128, noise_sigma=1.0)
        spectrum = dataset_spectrum(synth_generate(spec, seed=0))
        # standardization removes the per-sample mean, so skip the DC bin
        body = spectrum[1:]
        med = np.median(body)
        assert np.all(body > 0.8 * med) and np.all(body < 1.2 * med)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            dataset_spectrum(Dataset(np.zeros((0, 64)), []))

    def test_freq_axis_matches(self):
        freqs = spectrum_freqs(128)
        assert freqs.shape == (65,)
        assert freqs[-1] == 0.5


FREQS = np.arange(65) / 128


def bank(*peaks):
    """A response on ``FREQS`` whose channel c peaks at bin ``peaks[c]`` and nowhere else."""
    cfr = np.eye(FREQS.size)[list(peaks)]
    return FrequencyResponse(FREQS, cfr, cfr.mean(axis=0))


def kernel_bank(family, theta, n_fft=1024):
    """The response of the kernels that a (C, P) or (P,) ``theta`` of ``family`` generates."""
    return channel_frequency_response(evaluate_kernels(family, np.atleast_2d(theta)), n_fft)


# a (C, 2) chirplet theta: centre frequency and chirp rate per channel
CHIRPLET_THETA = st.lists(st.tuples(st.floats(0.0, F_MAX), st.floats(-ALPHA_MAX, ALPHA_MAX)),
                          min_size=1, max_size=8).map(np.array)
BAND = st.tuples(st.floats(0.0, 0.5), st.floats(0.0, 0.5)).map(sorted).filter(
    lambda band: band[0] < band[1]).map(tuple)


class TestBandCoverage:
    def test_centre_inside_band_is_distance_zero(self):
        # bin 32 is 0.25, bin 40 is 0.3125
        for band in [(0.2, 0.3), (0.25, 0.3), (0.2, 0.25)]:
            (entry,) = band_coverage(bank(40, 32), [band])
            assert (entry.band, entry.channel, entry.centre, entry.distance) == (band, 1, 0.25, 0.0)

    def test_centre_outside_band_is_the_gap(self):
        band_above, band_below = band_coverage(bank(32), [(0.3, 0.4), (0.1, 0.2)])
        assert band_above.distance == 0.3 - 0.25 and band_below.distance == 0.25 - 0.2
        assert band_above.centre == band_below.centre == 0.25

    def test_nearest_channel_wins(self):
        (entry,) = band_coverage(bank(8, 40, 60), [(0.28, 0.3)])
        assert (entry.channel, entry.centre, entry.distance) == (1, 0.3125, 0.3125 - 0.3)

    def test_ties_go_to_the_first_frequency_and_channel(self):
        # a flat row peaks at frequency 0; two equally near channels give the first
        cfr = np.ones((1, FREQS.size))
        (flat,) = band_coverage(FrequencyResponse(FREQS, cfr, cfr[0]), [(0.1, 0.2)])
        assert (flat.centre, flat.distance) == (0.0, 0.1)
        (tie,) = band_coverage(bank(16, 16), [(0.1, 0.2)])
        assert tie.channel == 0

    @settings(max_examples=100, deadline=None)
    @given(theta=CHIRPLET_THETA, bands=st.lists(BAND, min_size=1, max_size=4))
    def test_adding_bands_never_changes_another_entry(self, theta, bands):
        resp = kernel_bank(KernelFamily.CHIRPLET, theta, n_fft=128)
        report = band_coverage(resp, bands)
        assert report == tuple(band_coverage(resp, [band])[0] for band in bands)

    @settings(max_examples=200, deadline=None)
    @given(f=st.floats(0.0, F_MAX), alpha=st.floats(-ALPHA_MAX, ALPHA_MAX), sttf=st.booleans())
    def test_centre_is_theta_frequency_within_a_bin(self, f, alpha, sttf):
        family, theta = ((KernelFamily.STTF, [f]) if sttf
                         else (KernelFamily.CHIRPLET, [f, alpha]))
        (entry,) = band_coverage(kernel_bank(family, theta), [(0.0, 0.5)])
        assert abs(entry.centre - f) <= 1 / 1024

    @pytest.mark.parametrize("family, distances", [
        ("sttf", [0.00875, 0.00375, 0.00375, 0.0]),
        ("chirplet", [0.00875, 0.00375, 0.00375, 0.0]),
    ])
    def test_untrained_sttf_bank_distances(self, family, distances):
        model = assemble_model("tfn-add", family=family, n_channels=8)
        resp = channel_frequency_response(model.layers[0].kernels())
        report = band_coverage(resp, synthbearing5(1).information_bands)
        # exact up to the round-off of the decimal band edges
        np.testing.assert_allclose([b.distance for b in report], distances, rtol=1e-12)
        assert np.mean([b.distance for b in report]) == pytest.approx(0.0040625, rel=1e-12)

    @pytest.mark.parametrize("family", ["morlet", "laplace"])
    def test_untrained_wavelet_bank_distance(self, family):
        model = assemble_model("tfn-add", family=family, n_channels=8)
        resp = channel_frequency_response(model.layers[0].kernels())
        report = band_coverage(resp, synthbearing5(1).information_bands)
        assert round(float(np.mean([b.distance for b in report])), 4) == 0.0050

    def test_malformed_bands_rejected(self):
        message = r"^band \[.*\] is not a subinterval of \[0, 0.5\]$"
        for band in [(0.3, 0.2), (-0.1, 0.2), (0.4, 0.6)]:
            with pytest.raises(ValueError, match=message):
                band_coverage(bank(0), [band])


class TestCsvWriters:
    """``tfnet freq-response`` writes the responses and the band report of a model's bank."""

    MODEL = dict(mode="tfn-add", backbone="lenet-1d", n_channels=2, seed=0)

    def response(self, n_fft):
        model = assemble_model(**self.MODEL)
        return channel_frequency_response(model.layers[0].kernels(), n_fft)

    def test_ofr_round_trip(self, tmp_path):
        out = run_freq_response(assemble_model(**self.MODEL), tmp_path / "fr", "--set", "n_fft=64")
        header, rows = csv_rows(out / "ofr.csv")
        assert header == "freq,ofr"
        got = np.array(rows, dtype=float)
        resp = self.response(64)
        np.testing.assert_array_equal(got[:, 0], resp.freqs)
        np.testing.assert_array_equal(got[:, 1], resp.ofr)

    def test_cfr_layout(self, tmp_path):
        out = run_freq_response(assemble_model(**self.MODEL), tmp_path / "fr", "--set", "n_fft=64")
        header, rows = csv_rows(out / "cfr.csv")
        assert header == "channel,freq,magnitude"
        assert [r[0] for r in rows] == ["0"] * 33 + ["1"] * 33
        resp = self.response(64)
        np.testing.assert_array_equal([float(r[1]) for r in rows], np.tile(resp.freqs, 2))
        np.testing.assert_array_equal([float(r[2]) for r in rows], resp.cfr.ravel())

    def test_band_report_text(self, tmp_path, capsys):
        # the initial sttf centres are 0.125 and 0.375: one inside the first
        # band, the other 0.055 above the second and nearer it than 0.125
        out = run_freq_response(assemble_model(**self.MODEL), tmp_path / "fr",
                                "--set", "bands=0.1:0.15,0.2:0.32")
        gap = 0.375 - 0.32
        assert (out / "band_report.txt").read_text() == (
            f"mean_distance: {gap / 2!r}\n"
            "band [0.1, 0.15]: distance=0.0 channel=0 centre=0.125\n"
            f"band [0.2, 0.32]: distance={gap!r} channel=1 centre=0.375\n")
        assert capsys.readouterr().out == f"mean band distance: {gap / 2:.4f}\n"
