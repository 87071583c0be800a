"""Frequency-response interpretability and band coverage."""

import numpy as np
import pytest

from tfnet.data import ClassSpec, Dataset, SynthSpec, synth_generate
from tfnet.interpret import (
    THRESHOLD_FACTOR,
    band_coverage,
    channel_frequency_response,
    dataset_spectrum,
    spectrum_freqs,
    write_band_report,
    write_cfr_csv,
    write_ofr_csv,
)
from tfnet.kernels import KernelFamily, init_params
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
        spectrum = dataset_spectrum(tiny_dataset)
        freqs = spectrum_freqs(tiny_dataset.length)
        report = band_coverage(spectrum, freqs, tiny_dataset.meta["information_bands"])
        assert report.n_hits == 4

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


class TestBandCoverage:
    FREQS = np.arange(65) / 128

    def bump(self, center, width=0.02, height=10.0):
        return height * np.exp(-0.5 * ((self.FREQS - center) / width) ** 2)

    def test_clear_peak_hits_its_band(self):
        report = band_coverage(self.bump(0.25) + 1.0, self.FREQS,
                               [(0.2, 0.3), (0.4, 0.5)])
        assert [b.hit for b in report.bands] == [True, False]
        assert abs(report.bands[0].peak_frequency - 0.25) < 1 / 128

    def test_constant_response_never_hits(self):
        for level in (0.0, 1.0):
            report = band_coverage(np.full(65, level), self.FREQS, [(0.1, 0.3)])
            assert report.n_hits == 0

    def test_threshold_is_factor_times_median(self):
        ofr = self.bump(0.25) + 1.0
        report = band_coverage(ofr, self.FREQS, [(0.2, 0.3)])
        assert THRESHOLD_FACTOR == 1.5
        assert report.threshold == THRESHOLD_FACTOR * np.median(ofr)
        assert report.ofr_median == np.median(ofr)

    def test_sub_threshold_peak_misses(self):
        ofr = self.bump(0.25, height=0.4) + 1.0
        report = band_coverage(ofr, self.FREQS, [(0.2, 0.3)])
        assert report.n_hits == 0
        assert report.bands[0].peak_magnitude > 1.0

    def test_shoulder_inside_band_does_not_hit(self):
        # rising slope through the band, summit outside: large values but
        # no in-band local maximum
        ofr = self.bump(0.35, width=0.08)
        report = band_coverage(ofr, self.FREQS, [(0.15, 0.25)])
        assert report.n_hits == 0

    def test_plateau_counts_as_maximum(self):
        ofr = np.ones(65)
        ofr[20:25] = 5.0
        report = band_coverage(ofr, self.FREQS, [(self.FREQS[19], self.FREQS[26])])
        assert report.n_hits == 1

    def test_endpoint_peak_counts(self):
        ofr = 10.0 * np.exp(-20 * self.FREQS)
        report = band_coverage(ofr, self.FREQS, [(0.0, 0.05)])
        assert report.bands[0].hit
        assert report.bands[0].peak_frequency == 0.0

    def test_adding_bands_never_changes_existing_verdicts(self):
        ofr = self.bump(0.1) + self.bump(0.4, height=0.5) + 1.0
        first = band_coverage(ofr, self.FREQS, [(0.05, 0.15)])
        both = band_coverage(ofr, self.FREQS, [(0.05, 0.15), (0.35, 0.45)])
        assert both.bands[0] == first.bands[0]

    def test_band_between_grid_points_misses(self):
        report = band_coverage(np.ones(65) * 5, self.FREQS, [(0.2001, 0.2002)])
        assert not report.bands[0].hit
        assert report.bands[0].peak_magnitude == 0.0

    def test_malformed_bands_rejected(self):
        message = r"^band \[.*\] is not a subinterval of \[0, 0.5\]$"
        for band in [(0.3, 0.2), (-0.1, 0.2), (0.4, 0.6)]:
            with pytest.raises(ValueError, match=message):
                band_coverage(np.ones(65), self.FREQS, [band])

    def test_bad_arguments_rejected(self):
        with pytest.raises(ValueError):
            band_coverage(np.ones(64), self.FREQS, [(0.1, 0.2)])
        with pytest.raises(ValueError):
            band_coverage(np.ones(0), np.ones(0), [(0.1, 0.2)])


class TestCsvWriters:
    def test_ofr_round_trip(self, tmp_path):
        freqs = np.arange(5) / 8
        ofr = np.array([1.0, 2.5, 0.125, 4.0, 0.2])
        path = tmp_path / "ofr.csv"
        write_ofr_csv(path, freqs, ofr)
        lines = path.read_text().splitlines()
        assert lines[0] == "freq,ofr"
        got = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
        np.testing.assert_array_equal(got[:, 0], freqs)
        np.testing.assert_array_equal(got[:, 1], ofr)

    def test_cfr_layout(self, tmp_path):
        freqs = np.arange(3) / 4
        cfr = np.arange(6.0).reshape(2, 3)
        path = tmp_path / "cfr.csv"
        write_cfr_csv(path, freqs, cfr)
        lines = path.read_text().splitlines()
        assert lines[0] == "channel,freq,magnitude"
        assert len(lines) == 7
        assert lines[1].split(",")[0] == "0" and lines[-1].split(",")[0] == "1"

    def test_band_report_text(self, tmp_path):
        freqs = np.arange(65) / 128
        ofr = np.ones(65)
        ofr[32] = 10.0
        report = band_coverage(ofr, freqs, [(0.2, 0.3), (0.4, 0.5)])
        path = tmp_path / "bands.txt"
        write_band_report(path, report)
        text = path.read_text()
        assert "hits: 1/2" in text
        assert "hit=yes" in text and "hit=no" in text
        assert f"threshold: {repr(report.threshold)}" in text
