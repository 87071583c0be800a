"""Synthetic dataset generation, splitting, persistence."""

import hashlib
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (corrupt_dataset, edit_header, fails_naming, flip_bit, fuzz_header, resign,
                     signed_parts)
from tfnet.data import (
    DATASET_FILE,
    AMTone,
    ClassSpec,
    Dataset,
    ImpulseTrain,
    NonFiniteSignalError,
    SynthSpec,
    Tone,
    check_band,
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

    @pytest.mark.parametrize("band", [(0.3, 0.2), (-0.1, 0.2), (0.4, 0.6), (0.2, 0.2),
                                      (float("nan"), 0.2)])
    def test_band_rule_and_message_shared_with_the_spec(self, band):
        message = rf"^band \[{band[0]}, {band[1]}\] is not a subinterval of \[0, 0.5\]$"
        with pytest.raises(ValueError, match=message):
            check_band(band)
        with pytest.raises(ValueError, match=message):
            SynthSpec(classes=(ClassSpec("a"),), information_bands=(band,))

    def test_band_check_returns_floats(self):
        assert check_band((0, np.float32(0.5))) == (0.0, 0.5)
        assert all(type(v) is float for v in check_band([0, 1 / 4]))

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
        assert tiny_dataset.signals.shape == (60, 1024)
        assert tiny_dataset.labels.shape == (60,)
        np.testing.assert_array_equal(np.bincount(tiny_dataset.labels), [12] * 5)
        assert tiny_dataset.n_classes == 5

    def test_values_finite_and_varying(self, tiny_dataset):
        assert np.all(np.isfinite(tiny_dataset.signals))
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
        np.testing.assert_array_equal(again.signals, tiny_dataset.signals)
        np.testing.assert_array_equal(again.labels, tiny_dataset.labels)

    def test_seed_changes_samples(self, tiny_dataset):
        other = synth_generate(synthbearing5(samples_per_class=12), seed=1)
        assert not np.array_equal(other.signals, tiny_dataset.signals)

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
    def test_one_channel_axis_rejected(self):
        with pytest.raises(ValueError, match=r"\(count, length\), got shape \(4, 1, 16\)"):
            Dataset(np.zeros((4, 1, 16)), np.zeros(4, dtype=int))

    def test_signals_are_count_by_length(self):
        ds = Dataset(np.zeros((4, 16), dtype=np.float32), np.zeros(4, dtype=int))
        assert ds.signals.shape == (4, 16) and ds.signals.dtype == np.float64
        assert (ds.n_samples, ds.length) == (4, 16)

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
        np.testing.assert_array_equal(train2.signals, tiny_split[0].signals)
        np.testing.assert_array_equal(test2.labels, tiny_split[1].labels)

    def test_seed_changes_membership(self, tiny_dataset, tiny_split):
        train2, _ = split(tiny_dataset, train_frac=0.5, seed=9)
        assert not np.array_equal(train2.signals, tiny_split[0].signals)

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

    @pytest.mark.parametrize("labels, span", [([0, 0, 1, 1, 2, 2], "0..2"),
                                              ([0, 0, 1, 1, -1, -1], "-1..1")],
                             ids=["too-large", "negative"])
    def test_label_outside_the_classes_rejected(self, labels, span):
        """A label outside [0, n_classes) raises instead of its samples being dropped."""
        ds = Dataset(np.zeros((6, 16)), labels, {"class_names": ["a", "b"]})
        with pytest.raises(ValueError, match=re.escape(f"labels must lie in [0, 2), got {span}")):
            split(ds, train_frac=0.5)

    @pytest.mark.parametrize("frac", [0.0, 1.0, -0.1, 1.5])
    def test_degenerate_fraction_rejected(self, frac):
        ds = Dataset(np.zeros((4, 16)), [0, 0, 1, 1])
        with pytest.raises(ValueError):
            split(ds, train_frac=frac)


def saved(dataset, directory):
    """Save ``dataset`` into ``directory``; its file's path, bytes and signal-payload length."""
    save_dataset(dataset, directory)
    path = directory / DATASET_FILE
    return path, path.read_bytes(), dataset.signals.nbytes


class TestNonFiniteSignals:
    def test_load_names_the_file_and_the_sample(self, tiny_dataset, tmp_path):
        signals = tiny_dataset.signals.copy()
        signals[[9, 4], [0, 17]] = [np.inf, np.nan]
        save_dataset(Dataset(signals, tiny_dataset.labels, tiny_dataset.meta), tmp_path / "ds")
        with pytest.raises(NonFiniteSignalError) as info:
            load_dataset(tmp_path / "ds")
        assert str(info.value) == \
            f"{tmp_path / 'ds' / DATASET_FILE}: sample 4 holds a non-finite value"

    def test_generation_names_the_spec_and_the_sample(self):
        classes = (ClassSpec("a", (Tone(0.05),)), ClassSpec("b", (Tone(0.05, np.inf),)))
        spec = SynthSpec(classes=classes, samples_per_class=2, sample_length=64,
                         information_bands=((0.04, 0.06),))
        with pytest.raises(NonFiniteSignalError, match=r"^custom seed 3: sample 2 holds"):
            synth_generate(spec, 3)


class TestPersistence:
    def test_directory_round_trip(self, tiny_dataset, tmp_path):
        save_dataset(tiny_dataset, tmp_path / "ds")
        loaded = load_dataset(tmp_path / "ds")
        np.testing.assert_array_equal(loaded.signals, tiny_dataset.signals)
        np.testing.assert_array_equal(loaded.labels, tiny_dataset.labels)
        assert loaded.meta == tiny_dataset.meta
        # writable copies, not views of the file's bytes
        assert loaded.signals.flags.writeable and loaded.labels.flags.writeable

    def test_header_records_the_whole_spec(self, tmp_path):
        spec = SynthSpec(
            classes=(ClassSpec("tones", (Tone(0.05, 0.5), AMTone(0.08, 0.004, 1.0, 0.25))),
                     ClassSpec("impulses", (ImpulseTrain(16, 0.18, 0.02, amplitude=4.5),))),
            information_bands=((0.04, 0.09), (0.16, 0.20)),
            samples_per_class=2, sample_length=64, noise_sigma=0.5, name="three-kinds")
        _, raw, _ = saved(synth_generate(spec, seed=3), tmp_path)
        assert json.loads(signed_parts(raw)[0])["spec"] == {
            "name": "three-kinds",
            "samples_per_class": 2,
            "sample_length": 64,
            "noise_sigma": 0.5,
            "information_bands": [[0.04, 0.09], [0.16, 0.20]],
            "classes": [
                {"name": "tones", "components": [
                    {"type": "Tone", "freq": 0.05, "amplitude": 0.5},
                    {"type": "AMTone", "carrier": 0.08, "mod_freq": 0.004, "amplitude": 1.0,
                     "depth": 0.25},
                ]},
                {"name": "impulses", "components": [
                    {"type": "ImpulseTrain", "period": 16, "resonance": 0.18, "damping": 0.02,
                     "amplitude": 4.5},
                ]},
            ],
        }

    def test_layout_is_one_signed_file(self, tiny_dataset, tmp_path):
        path, raw, n_signal = saved(tiny_dataset, tmp_path)
        assert [p.name for p in tmp_path.iterdir()] == [DATASET_FILE]
        assert raw[:4] == b"TFD2"
        assert raw[4:36] == hashlib.sha256(raw[36:]).digest()
        header, payload = signed_parts(raw)
        # the magic is the version marker; the header is the manifest plus the sizes
        assert json.loads(header) == {**tiny_dataset.meta, "count": 60, "length": 1024}
        np.testing.assert_array_equal(
            np.frombuffer(payload[:n_signal], dtype="<f8").reshape(60, 1024), tiny_dataset.signals)
        np.testing.assert_array_equal(np.frombuffer(payload[n_signal:], dtype="<u4"),
                                      tiny_dataset.labels)

    def test_missing_manifest_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError,
                           match=rf"dataset {tmp_path / DATASET_FILE} not found"):
            load_dataset(tmp_path)

    def test_format_1_directory_does_not_load(self, tiny_dataset, tmp_path):
        (tmp_path / "meta.json").write_text(json.dumps({**tiny_dataset.meta, "count": 60,
                                                        "length": 1024}))
        (tmp_path / "samples.f64le").write_bytes(tiny_dataset.signals.astype("<f8").tobytes())
        (tmp_path / "labels.u32le").write_bytes(tiny_dataset.labels.astype("<u4").tobytes())
        with pytest.raises(FileNotFoundError, match=rf"{tmp_path / DATASET_FILE} not found"):
            load_dataset(tmp_path)

    def test_corrupt_manifest_rejected(self, tiny_dataset, tmp_path):
        path, _, _ = saved(tiny_dataset, tmp_path)
        resign(path, b"{not json")
        with pytest.raises(ValueError, match=r"dataset\.tfd: invalid JSON dataset header"):
            load_dataset(tmp_path)

    def test_manifest_without_count_names_file_and_key(self, tiny_dataset, tmp_path):
        path, _, _ = saved(tiny_dataset, tmp_path)
        edit_header(path, lambda header: header.pop("count"))
        with pytest.raises(ValueError, match=r"dataset\.tfd: dataset header has no 'count' entry"):
            load_dataset(tmp_path)

    @pytest.mark.parametrize("edit, message", [
        (lambda meta: [1, 2], "dataset header is not a JSON object"),
        (lambda meta: {**meta, "count": "twelve"},
         "invalid dataset header: invalid literal for int"),
        (lambda meta: {**meta, "length": None},
         r"invalid dataset header: int\(\) argument must be .* not 'NoneType'"),
        (lambda meta: {**meta, "count": -2, "length": -16},
         "invalid dataset header: count -2 and length -16 must be"),
        (lambda meta: {**meta, "count": float("inf")},
         "invalid dataset header: cannot convert float infinity to integer"),
    ], ids=["not-an-object", "count-not-an-integer", "null-length", "negative-sizes",
            "infinite-count"])
    def test_invalid_manifest_names_file(self, tiny_dataset, tmp_path, edit, message):
        path, raw, _ = saved(tiny_dataset, tmp_path)
        resign(path, edit(json.loads(signed_parts(raw)[0])))
        with pytest.raises(ValueError, match=r"dataset\.tfd: " + message):
            load_dataset(tmp_path)

    @pytest.mark.parametrize("key, value, message", [
        ("class_names", 5, r"class_names 5 is not a list of strings"),
        ("class_names", ["a", 1], r"class_names \['a', 1\] is not a list of strings"),
        ("information_bands", [[0.1]],
         r"information_bands \[\[0\.1\]\]: not enough values to unpack"),
        ("information_bands", "x",
         r"information_bands 'x': could not convert string to float: 'x'"),
        ("information_bands", [[0.3, 0.1]],
         r"information_bands \[\[0\.3, 0\.1\]\]: "
         r"band \[0\.3, 0\.1\] is not a subinterval of \[0, 0\.5\]"),
    ], ids=["class-names-not-a-list", "class-name-not-a-string", "band-without-upper-edge",
            "bands-not-a-list", "band-reversed"])
    def test_invalid_class_names_or_bands_name_file(self, tiny_dataset, tmp_path, key, value,
                                                     message):
        path, _, _ = saved(tiny_dataset, tmp_path)
        edit_header(path, lambda header: header.update({key: value}))
        with pytest.raises(ValueError, match=r"dataset\.tfd: invalid dataset header: " + message):
            load_dataset(tmp_path)

    def test_truncated_samples_rejected(self, tiny_dataset, tmp_path):
        path, raw, n_signal = saved(tiny_dataset, tmp_path)
        path.write_bytes(raw[:-8])
        with pytest.raises(ValueError, match=r"dataset\.tfd: checksum mismatch"):
            load_dataset(tmp_path)
        header, payload = signed_parts(raw)
        resign(path, header, payload[: n_signal - 8] + payload[n_signal:])
        with pytest.raises(ValueError, match=rf"dataset\.tfd: payload holds {len(payload) - 8} "
                                             r"bytes, 60x1024 float64 signals and 60 u32 labels "
                                             rf"need {len(payload)}"):
            load_dataset(tmp_path)

    def test_truncated_labels_rejected(self, tiny_dataset, tmp_path):
        path, raw, n_signal = saved(tiny_dataset, tmp_path)
        header, payload = signed_parts(raw)
        resign(path, header, payload[:n_signal] + b"\x00" * 7)
        with pytest.raises(ValueError, match=r"dataset\.tfd: payload holds \d+ bytes"):
            load_dataset(tmp_path)


@pytest.mark.parametrize("cases", [
    ["signal-bit"], ["label-bit"], ["band"], ["class-name"],
    ["signal-bit", "band"],  # one signal bit flipped and band 3 edited to [0.17, 0.2]
], ids="+".join)
def test_unsigned_edit_fails_the_checksum(tiny_dataset, tmp_path, cases):
    path, raw, _ = saved(tiny_dataset, tmp_path)
    for case in cases:
        raw = corrupt_dataset(raw, case)
    path.write_bytes(raw)
    with pytest.raises(ValueError, match=rf"^{path}: checksum mismatch: the dataset is corrupt"):
        load_dataset(tmp_path)


@pytest.fixture(scope="module")
def fuzz_dataset(tmp_path_factory, tiny_dataset):
    """A three-sample dataset with the full SynthBearing-5 manifest, and its length up to the
    payload."""
    small = Dataset(tiny_dataset.signals[::20, :16], tiny_dataset.labels[::20], tiny_dataset.meta)
    path, raw, _ = saved(small, tmp_path_factory.mktemp("fuzz"))
    return path, raw, 40 + len(signed_parts(raw)[0])


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_bit_flip_or_truncation_fails_naming_the_file(fuzz_dataset, data):
    path, raw, prefix = fuzz_dataset
    if data.draw(st.booleans()):
        corrupt = raw[: data.draw(st.integers(0, len(raw) - 1))]
    else:
        # half the flips are drawn from the magic, digest and header
        at = data.draw(st.one_of(st.integers(0, prefix - 1), st.integers(0, len(raw) - 1)))
        corrupt = flip_bit(raw, at, data.draw(st.integers(0, 7)))
    assert fails_naming(path, corrupt, lambda: load_dataset(path.parent))


def test_every_bit_flip_before_the_payload_fails_naming_the_file(fuzz_dataset):
    path, raw, prefix = fuzz_dataset
    loaded = [(at, bit) for at in range(prefix) for bit in range(8)
              if not fails_naming(path, flip_bit(raw, at, bit), lambda: load_dataset(path.parent))]
    assert loaded == []


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_edited_header_value_loads_or_fails_naming_the_file(fuzz_dataset, data):
    # each edit is re-signed, so it reaches the manifest checks, not the checksum
    path, raw, _ = fuzz_dataset
    path.write_bytes(raw)
    header = json.loads(signed_parts(raw)[0])
    fuzz_header(data, header)
    resign(path, header)
    try:
        load_dataset(path.parent)
    except ValueError as exc:
        assert str(path) in str(exc)
