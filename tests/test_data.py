"""Synthetic dataset generation, splitting, persistence."""

import json

import numpy as np
import pytest

from tfnet.data import (
    AMTone,
    ClassSpec,
    Dataset,
    ImpulseTrain,
    SynthSpec,
    Tone,
    load_dataset,
    save_dataset,
    split,
    synth_generate,
    synthbearing5,
)

BANDS = ((0.04, 0.06), (0.07, 0.09), (0.16, 0.20), (0.28, 0.32))


def mean_power_spectrum(signals):
    L = signals.shape[-1]
    return (np.abs(np.fft.rfft(signals, axis=-1)) ** 2 / L).mean(axis=0)


class TestSynthSpecValidation:
    def test_default_bearing_spec(self):
        spec = synthbearing5()
        assert spec.n_classes == 5
        assert spec.class_names == (
            "normal", "modulated", "impulse-fast", "impulse-slow", "compound")
        assert spec.information_bands == BANDS
        assert spec.samples_per_class == 200
        assert spec.sample_length == 1024

    def test_no_classes_rejected(self):
        with pytest.raises(ValueError):
            SynthSpec(classes=(), information_bands=())

    @pytest.mark.parametrize("kwargs", [
        {"samples_per_class": 0},
        {"sample_length": 8},
        {"noise_sigma": -1.0},
        {"noise_sigma": float("nan")},  # once generated noise-free samples
        {"noise_sigma": float("inf")},  # once generated non-finite samples
    ])
    def test_scalar_fields_validated(self, kwargs):
        with pytest.raises(ValueError):
            SynthSpec(classes=(ClassSpec("a"),), information_bands=(), **kwargs)

    @pytest.mark.parametrize("bands", [
        ((0.3, 0.2),),                  # inverted
        ((0.4, 0.6),),                  # exceeds Nyquist
        ((0.1, 0.2), (0.15, 0.3)),      # overlap
    ])
    def test_bad_bands_rejected(self, bands):
        with pytest.raises(ValueError):
            SynthSpec(classes=(ClassSpec("a"),), information_bands=bands)

    def test_component_outside_all_bands_rejected(self):
        with pytest.raises(ValueError, match="no information band"):
            SynthSpec(
                classes=(ClassSpec("a", (Tone(0.25),)),),
                information_bands=((0.1, 0.2),),
            )

    def test_component_frequency_range_checked(self):
        with pytest.raises(ValueError):
            SynthSpec(classes=(ClassSpec("a", (Tone(0.7),)),), information_bands=())

    def test_impulse_period_must_fit_sample(self):
        with pytest.raises(ValueError, match="period"):
            SynthSpec(
                classes=(ClassSpec("a", (ImpulseTrain(64, 0.18, 0.02),)),),
                information_bands=((0.16, 0.20),),
                sample_length=64,
            )


class TestGeneration:
    def test_shapes_and_balance(self, tiny_dataset):
        assert tiny_dataset.samples.shape == (60, 1, 1024)
        assert tiny_dataset.labels.shape == (60,)
        np.testing.assert_array_equal(np.bincount(tiny_dataset.labels), [12] * 5)
        assert tiny_dataset.n_classes == 5

    def test_values_finite_and_varying(self, tiny_dataset):
        assert np.all(np.isfinite(tiny_dataset.samples))
        assert np.all(tiny_dataset.signals.std(axis=-1) > 0.5)

    def test_meta_manifest(self, tiny_dataset):
        meta = tiny_dataset.meta
        assert meta["name"] == "SynthBearing-5"
        assert len(meta["class_names"]) == 5
        assert [tuple(b) for b in meta["information_bands"]] == list(BANDS)
        assert meta["seed"] == 0
        assert meta["spec"]["samples_per_class"] == 12

    def test_deterministic_in_spec_and_seed(self, tiny_dataset):
        again = synth_generate(synthbearing5(samples_per_class=12), seed=0)
        np.testing.assert_array_equal(again.samples, tiny_dataset.samples)
        np.testing.assert_array_equal(again.labels, tiny_dataset.labels)

    def test_seed_changes_samples(self, tiny_dataset):
        other = synth_generate(synthbearing5(samples_per_class=12), seed=1)
        assert not np.array_equal(other.samples, tiny_dataset.samples)

    def test_per_sample_streams_survive_count_changes(self):
        # sample (class, i) must not depend on how many samples follow it
        big = synth_generate(synthbearing5(samples_per_class=6), seed=3)
        small = synth_generate(synthbearing5(samples_per_class=4), seed=3)
        for c in range(5):
            np.testing.assert_array_equal(
                big.signals[big.labels == c][:4],
                small.signals[small.labels == c],
            )

    def test_pure_tone_without_noise_hits_exact_bin(self):
        spec = SynthSpec(
            classes=(ClassSpec("tone", (Tone(32 / 256),)),),
            information_bands=((0.1, 0.15),),
            samples_per_class=3,
            sample_length=256,
            noise_sigma=0.0,
        )
        ds = synth_generate(spec, seed=0)
        for sig in ds.signals:
            spectrum = np.abs(np.fft.fft(sig))
            assert spectrum[: 256 // 2 + 1].argmax() == 32

    def test_am_tone_carries_sidebands(self):
        spec = SynthSpec(
            classes=(ClassSpec("am", (AMTone(0.125, 1 / 256),)),),
            information_bands=((0.1, 0.15),),
            samples_per_class=2,
            sample_length=1024,
            noise_sigma=0.0,
        )
        ds = synth_generate(spec, seed=0)
        spectrum = np.abs(np.fft.rfft(ds.signals[0]))
        carrier_bin = 128
        assert spectrum.argmax() == carrier_bin
        sidebands = spectrum[carrier_bin - 4] + spectrum[carrier_bin + 4]
        assert sidebands > 0.1 * spectrum[carrier_bin]


class TestSpectralContent:
    """Class-discriminating energy must sit inside the declared bands."""

    CLASS_BANDS = {0: (0,), 1: (1,), 2: (2,), 3: (3,), 4: (1, 2, 3)}

    def test_class_mean_peak_in_declared_band(self, tiny_dataset):
        freqs = np.fft.rfftfreq(tiny_dataset.length)
        for c, band_ids in self.CLASS_BANDS.items():
            power = mean_power_spectrum(tiny_dataset.signals[tiny_dataset.labels == c])
            f_peak = freqs[power[1:].argmax() + 1]
            assert any(BANDS[b][0] <= f_peak <= BANDS[b][1] for b in band_ids), (
                f"class {c} peaks at {f_peak}, outside its bands"
            )

    def test_impulse_class_energy_concentrated_in_band(self, tiny_dataset):
        power = mean_power_spectrum(tiny_dataset.signals[tiny_dataset.labels == 2])
        freqs = np.fft.rfftfreq(tiny_dataset.length)
        floor = np.median(power)
        excess = np.clip(power - floor, 0.0, None)
        in_band = (freqs >= 0.16) & (freqs <= 0.20)
        assert excess[in_band].sum() >= 0.6 * excess.sum()

    def test_noise_only_spectrum_is_flat(self):
        spec = SynthSpec(
            classes=(ClassSpec("noise"),),
            information_bands=(),
            samples_per_class=1000,
            sample_length=256,
            noise_sigma=1.0,
        )
        ds = synth_generate(spec, seed=0)
        power = mean_power_spectrum(ds.signals)
        med = np.median(power)
        assert np.all(power > 0.8 * med) and np.all(power < 1.2 * med)


class TestDatasetContainer:
    def test_2d_samples_promoted(self):
        ds = Dataset(np.zeros((4, 16)), np.zeros(4, dtype=int))
        assert ds.samples.shape == (4, 1, 16)
        assert ds.signals.shape == (4, 16)

    def test_signals_is_a_view(self):
        ds = Dataset(np.zeros((2, 1, 8)), np.zeros(2, dtype=int))
        ds.signals[0, 0] = 7.0
        assert ds.samples[0, 0, 0] == 7.0

    def test_n_classes_prefers_meta(self):
        ds = Dataset(np.zeros((2, 8)), [0, 0], meta={"class_names": ["a", "b", "c"]})
        assert ds.n_classes == 3
        assert Dataset(np.zeros((2, 8)), [0, 1]).n_classes == 2

    def test_label_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((3, 8)), np.zeros(2, dtype=int))

    def test_multi_channel_rejected(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((2, 3, 8)), np.zeros(2, dtype=int))


class TestSplit:
    def test_stratified_counts(self):
        labels = np.repeat(np.arange(5), 200)
        ds = Dataset(np.zeros((1000, 16)), labels,
                     meta={"class_names": list("abcde")})
        train, test = split(ds, train_frac=0.6, seed=0)
        assert train.n_samples == 600 and test.n_samples == 400
        np.testing.assert_array_equal(np.bincount(train.labels), [120] * 5)
        np.testing.assert_array_equal(np.bincount(test.labels), [80] * 5)

    def test_partition_is_exact(self, tiny_dataset, tiny_split):
        train, test = tiny_split
        assert train.n_samples + test.n_samples == tiny_dataset.n_samples
        merged = np.concatenate([train.signals, test.signals])
        # the split permutes but never duplicates or invents rows
        assert {tuple(r) for r in merged} == {tuple(r) for r in tiny_dataset.signals}

    def test_same_seed_same_split(self, tiny_dataset, tiny_split):
        train2, test2 = split(tiny_dataset, train_frac=0.5, seed=0)
        np.testing.assert_array_equal(train2.samples, tiny_split[0].samples)
        np.testing.assert_array_equal(test2.labels, tiny_split[1].labels)

    def test_seed_changes_membership(self, tiny_dataset, tiny_split):
        train2, _ = split(tiny_dataset, train_frac=0.5, seed=9)
        assert not np.array_equal(train2.samples, tiny_split[0].samples)

    def test_roles_recorded(self, tiny_split):
        train, test = tiny_split
        assert train.meta["split_role"] == "train"
        assert test.meta["split_role"] == "test"
        assert train.meta["split_seed"] == 0

    def test_two_samples_per_class_keeps_one_each(self):
        ds = Dataset(np.zeros((4, 16)), [0, 0, 1, 1])
        train, test = split(ds, train_frac=0.5, seed=0)
        np.testing.assert_array_equal(np.bincount(train.labels), [1, 1])
        np.testing.assert_array_equal(np.bincount(test.labels), [1, 1])

    def test_singleton_class_rejected(self):
        ds = Dataset(np.zeros((3, 16)), [0, 0, 1])
        with pytest.raises(ValueError):
            split(ds, train_frac=0.5)

    @pytest.mark.parametrize("frac", [0.0, 1.0, -0.1, 1.5])
    def test_degenerate_fraction_rejected(self, frac):
        ds = Dataset(np.zeros((4, 16)), [0, 0, 1, 1])
        with pytest.raises(ValueError):
            split(ds, train_frac=frac)


class TestPersistence:
    def test_directory_round_trip(self, tiny_dataset, tmp_path):
        save_dataset(tiny_dataset, tmp_path / "ds")
        loaded = load_dataset(tmp_path / "ds")
        np.testing.assert_array_equal(loaded.samples, tiny_dataset.samples)
        np.testing.assert_array_equal(loaded.labels, tiny_dataset.labels)
        assert loaded.meta["name"] == tiny_dataset.meta["name"]
        assert loaded.meta["class_names"] == tiny_dataset.meta["class_names"]

    def test_missing_manifest_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_dataset(tmp_path)

    def test_corrupt_manifest_rejected(self, tmp_path):
        (tmp_path / "meta.json").write_text("{not json")
        with pytest.raises(ValueError, match="JSON"):
            load_dataset(tmp_path)

    def test_manifest_without_count_names_file_and_key(self, tiny_dataset, tmp_path):
        save_dataset(tiny_dataset, tmp_path)
        meta = json.loads((tmp_path / "meta.json").read_text())
        del meta["count"]
        (tmp_path / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(ValueError, match=r"meta\.json: manifest has no 'count' entry"):
            load_dataset(tmp_path)

    @pytest.mark.parametrize("edit, message", [
        (lambda meta: [1, 2], "list indices must be integers"),
        (lambda meta: {**meta, "count": "twelve"}, "invalid literal for int"),
        (lambda meta: {**meta, "length": None}, r"int\(\) argument must be .* not 'NoneType'"),
        (lambda meta: {**meta, "count": -2, "length": -16}, "count -2 and length -16 must be"),
    ], ids=["not-an-object", "count-not-an-integer", "null-length", "negative-sizes"])
    def test_invalid_manifest_names_file(self, tiny_dataset, tmp_path, edit, message):
        save_dataset(tiny_dataset, tmp_path)
        meta = json.loads((tmp_path / "meta.json").read_text())
        (tmp_path / "meta.json").write_text(json.dumps(edit(meta)))
        with pytest.raises(ValueError, match=r"meta\.json: invalid manifest: " + message):
            load_dataset(tmp_path)

    def test_truncated_samples_rejected(self, tiny_dataset, tmp_path):
        save_dataset(tiny_dataset, tmp_path)
        raw = (tmp_path / "samples.f64le").read_bytes()
        (tmp_path / "samples.f64le").write_bytes(raw[:-8])
        with pytest.raises(ValueError, match="bytes"):
            load_dataset(tmp_path)

    def test_truncated_labels_rejected(self, tiny_dataset, tmp_path):
        save_dataset(tiny_dataset, tmp_path)
        (tmp_path / "labels.u32le").write_bytes(b"\x00" * 7)
        with pytest.raises(ValueError, match="bytes"):
            load_dataset(tmp_path)
