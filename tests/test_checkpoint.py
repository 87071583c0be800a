"""Checkpoint format, and the CSV files that ``tfnet train`` and ``freq-response`` write."""

import hashlib
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (csv_rows, edit_header, fails_naming, flip_bit, fuzz_header, resign,
                     run_freq_response, save_with_no_classes, signed_parts)
from tfnet.checkpoint import MAGIC, _tfconv_entry, load_model, save_model
from tfnet.cli import EXIT_OK, _train_run, main
from tfnet.data import Dataset, save_dataset
from tfnet.kernels import KernelFamily, init_params
from tfnet.nn import BatchNorm1d, assemble_model
from tfnet.training import TrainConfig, train


def small_signals(n=12, length=256, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, length))
    y = rng.integers(0, 5, size=n)
    return x, y


def params_of(model):
    return [p.copy() for p in model.parameters()]


class TestSaveLoadRoundTrip:
    def test_magic_prefix(self, tmp_path):
        model = assemble_model("backbone-only", n_classes=5, seed=0)
        path = tmp_path / "m.tfn"
        save_model(model, path)
        assert path.read_bytes()[:4] == MAGIC == b"TFN2"

    def test_layout_is_digest_header_and_flat_payload(self, tmp_path):
        model = assemble_model("tfn-add", backbone="lenet-1d", n_channels=2, seed=0)
        path = tmp_path / "m.tfn"
        save_model(model, path)
        raw = path.read_bytes()
        assert raw[4:36] == hashlib.sha256(raw[36:]).digest()
        header, values = signed_parts(raw)
        assert "version" not in json.loads(header)  # the magic is the version marker
        arrays = [getattr(layer, attr).ravel() for layer in model.walk_layers()
                  for attr, _ in layer.state]
        np.testing.assert_array_equal(np.frombuffer(values, dtype="<f8"), np.concatenate(arrays))

    @pytest.mark.parametrize("mode,family,backbone", [
        pytest.param("backbone-only", None, "paper-cnn", id="backbone-only-None"),
        pytest.param("tfn-add", "sttf", "paper-cnn", id="tfn-add-sttf"),
        pytest.param("tfn-replace", "chirplet", "paper-cnn", id="tfn-replace-chirplet"),
        pytest.param("wkn-add", "morlet", "paper-cnn", id="wkn-add-morlet"),
        pytest.param("random-tfn", "random", "paper-cnn", id="random-tfn-random"),
        pytest.param("tfn-replace", "morlet", "resnet-1d", id="tfn-replace-morlet-resnet-1d"),
    ])
    def test_parameters_survive_round_trip(self, tmp_path, mode, family, backbone):
        kwargs = {"family": family} if family else {}
        model = assemble_model(mode, backbone=backbone, n_classes=5, seed=3, **kwargs)
        path = tmp_path / "m.tfn"
        save_model(model, path)
        blocks = json.loads(signed_parts(path.read_bytes())[0])["blocks"]
        if backbone == "resnet-1d":
            # sublayer j of the residual block at top-level index i is "i.res<j>.<kind>"
            assert blocks[blocks.index("8.batchnorm1d.running_var") + 1] == "10.res0.conv1d.weight"
            assert blocks[blocks.index("12.conv1d.weight") - 1] == "11.res4.batchnorm1d.running_var"
        loaded = load_model(path)
        assert loaded.mode == model.mode
        assert loaded.backbone == model.backbone
        assert loaded.n_classes == model.n_classes
        assert loaded.dtype == model.dtype
        for a, b in zip(params_of(model), params_of(loaded)):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("mode, family, channels, n_classes, dtype, tfconv", [
        ("backbone-only", "sttf", 4, 5, "float64", None),
        ("backbone-only", "sttf", 4, 3, "float32", None),
        ("tfn-add", "sttf", 8, 5, "float64", ("sttf", 8, 51, True)),
        ("tfn-add", "morlet", 6, 4, "float32", ("morlet", 6, 301, True)),
        ("tfn-replace", "laplace", 3, 3, "float32", ("laplace", 3, 151, True)),
        ("tfn-replace", "chirplet", 4, 5, "float64", ("chirplet", 4, 51, True)),
        ("wkn-add", "morlet", 4, 4, "float64", ("morlet", 4, 301, False)),
        ("wkn-replace", "laplace", 5, 5, "float32", ("laplace", 5, 151, False)),
        ("random-tfn", "random", 2, 2, "float32", ("random", 2, 51, True)),
    ])
    def test_header_records_what_the_layers_fix(self, tmp_path, mode, family, channels,
                                                n_classes, dtype, tfconv):
        # n_classes and dtype come from the final Dense and tfconv from the
        # front layer; the literals are what checkpoints already on disk hold
        model = assemble_model(mode, family=family, n_channels=channels, n_classes=n_classes,
                               dtype=np.dtype(dtype))
        save_model(model, tmp_path / "m.tfn")
        header = json.loads(signed_parts((tmp_path / "m.tfn").read_bytes())[0])
        if tfconv is not None:
            keys = ("family", "n_channels", "kernel_length", "modulus")
            tfconv = dict(zip(keys, tfconv), eps_modulus=1e-12)
        assert (header["tfconv"], header["n_classes"], header["dtype"]) == (
            tfconv, n_classes, dtype)
        loaded = load_model(tmp_path / "m.tfn")
        assert (_tfconv_entry(loaded), loaded.n_classes, loaded.dtype.name) == (
            tfconv, n_classes, dtype)

    # Name and block kind of each layer with checkpoint blocks.  Reordering
    # parameter-free layers (MaxPool ahead of ReLU) must keep these names, or
    # checkpoints on disk stop loading.  A conv that feeds a batch norm saves
    # its weight alone and lenet-1d's (``conv1d+bias``) their bias too, so a
    # paper-cnn or resnet-1d checkpoint saved while their convs had a bias is
    # refused (``test_file_with_a_bias_on_a_conv_that_feeds_a_norm_fails``).
    SAVED_LAYERS = {
        ("backbone-only", "paper-cnn"): "0.conv1d 1.batchnorm1d 3.conv1d 4.batchnorm1d 7.conv1d "
                                        "8.batchnorm1d 10.conv1d 11.batchnorm1d 15.dense "
                                        "16.dense 17.dense 18.dense",
        ("tfn-add", "paper-cnn"): "0.tfconvlayer 1.conv1d 2.batchnorm1d 4.conv1d 5.batchnorm1d "
                                  "8.conv1d 9.batchnorm1d 11.conv1d 12.batchnorm1d 16.dense "
                                  "17.dense 18.dense 19.dense",
        ("tfn-replace", "paper-cnn"): "0.tfconvlayer 1.batchnorm1d 3.conv1d 4.batchnorm1d "
                                      "7.conv1d 8.batchnorm1d 10.conv1d 11.batchnorm1d "
                                      "15.dense 16.dense 17.dense 18.dense",
        ("backbone-only", "resnet-1d"): "0.conv1d 1.batchnorm1d 3.conv1d 4.batchnorm1d 7.conv1d "
                                        "8.batchnorm1d 10.res0.conv1d 10.res1.batchnorm1d "
                                        "10.res3.conv1d 10.res4.batchnorm1d 11.res0.conv1d "
                                        "11.res1.batchnorm1d 11.res3.conv1d 11.res4.batchnorm1d "
                                        "12.conv1d 13.batchnorm1d 17.dense 18.dense 19.dense "
                                        "20.dense",
        ("backbone-only", "lenet-1d"): "0.conv1d+bias 3.conv1d+bias 8.dense 9.dense 10.dense",
        ("tfn-add", "lenet-1d"): "0.tfconvlayer 1.conv1d+bias 4.conv1d+bias 9.dense 10.dense "
                                 "11.dense",
        ("tfn-replace", "lenet-1d"): "0.tfconvlayer 3.conv1d+bias 8.dense 9.dense 10.dense",
    }
    BLOCK_SUFFIXES = {
        "tfconvlayer": ("theta",),
        "conv1d": ("weight",),
        "conv1d+bias": ("weight", "bias"),
        "dense": ("weight", "bias"),
        "batchnorm1d": ("gamma", "beta", "running_mean", "running_var"),
    }

    @pytest.mark.parametrize("mode, backbone", list(SAVED_LAYERS),
                             ids=[f"{m}-{b}" for m, b in SAVED_LAYERS])
    def test_block_names_match_saved_checkpoints(self, tmp_path, mode, backbone):
        model = assemble_model(mode, backbone=backbone, n_classes=5, seed=3)
        path = tmp_path / "m.tfn"
        save_model(model, path)
        want = [f"{layer.removesuffix('+bias')}.{suffix}"
                for layer in self.SAVED_LAYERS[mode, backbone].split()
                for suffix in self.BLOCK_SUFFIXES[layer.split(".")[-1]]]
        assert json.loads(signed_parts(path.read_bytes())[0])["blocks"] == want

    def test_trained_model_evaluates_identically(self, tmp_path):
        x, y = small_signals()
        model = assemble_model("tfn-add", n_classes=5, seed=1)
        train(model, x, y, config=TrainConfig(epochs=2, batch_size=6, seed=1))
        path = tmp_path / "m.tfn"
        save_model(model, path)
        loaded = load_model(path)
        np.testing.assert_array_equal(
            model.forward(x, training=False), loaded.forward(x, training=False))

    def test_batchnorm_running_stats_preserved(self, tmp_path):
        x, y = small_signals(seed=2)
        model = assemble_model("backbone-only", n_classes=5, seed=2)
        train(model, x, y, config=TrainConfig(epochs=2, batch_size=6, seed=2))
        bn = next(l for l in model.layers if isinstance(l, BatchNorm1d))
        assert not np.allclose(bn.running_mean, 0.0)
        save_model(model, tmp_path / "m.tfn")
        loaded = load_model(tmp_path / "m.tfn")
        bn2 = next(l for l in loaded.layers if isinstance(l, BatchNorm1d))
        np.testing.assert_array_equal(bn.running_mean, bn2.running_mean)
        np.testing.assert_array_equal(bn.running_var, bn2.running_var)

    def test_float32_model_round_trips(self, tmp_path):
        model = assemble_model("tfn-add", n_classes=5, seed=4, dtype=np.float32)
        save_model(model, tmp_path / "m.tfn")
        loaded = load_model(tmp_path / "m.tfn")
        assert loaded.dtype == np.dtype(np.float32)
        # kernel control parameters stay double precision
        assert loaded.tfconv.theta.dtype == np.float64
        np.testing.assert_array_equal(
            loaded.tfconv.theta, model.tfconv.theta)

    def test_random_kernel_grid_rebuilt(self, tmp_path):
        model = assemble_model("random-tfn", n_classes=5, seed=5)
        save_model(model, tmp_path / "m.tfn")
        loaded = load_model(tmp_path / "m.tfn")
        assert loaded.tfconv.kernels().shape == (8, 51)
        np.testing.assert_array_equal(loaded.tfconv.kernels(), model.tfconv.kernels())
        np.testing.assert_array_equal(
            loaded.tfconv.theta, model.tfconv.theta)


class TestLoadValidation:
    """Each edit of a header or payload is re-signed, so that it reaches its own check."""

    def checkpoint_bytes(self, tmp_path, mode="tfn-add", **kwargs):
        model = assemble_model(mode, n_classes=5, seed=0, **kwargs)
        path = tmp_path / "m.tfn"
        save_model(model, path)
        return path, path.read_bytes()

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_model(tmp_path / "absent.tfn")

    def test_bad_magic(self, tmp_path):
        path, raw = self.checkpoint_bytes(tmp_path)
        path.write_bytes(b"NOPE" + raw[4:])
        with pytest.raises(ValueError, match="magic"):
            load_model(path)

    def test_unsupported_version(self, tmp_path):
        # version 1 files do not load; the magic alone decides, before the digest
        path, raw = self.checkpoint_bytes(tmp_path)
        path.write_bytes(b"TFN1" + raw[4:])
        with pytest.raises(ValueError, match=r"m\.tfn: bad magic b'TFN1', expected b'TFN2': "
                                             r"not a checkpoint of format version 2"):
            load_model(path)

    @pytest.mark.parametrize("part", ["digest", "payload"])
    def test_flipped_bit_fails_the_checksum(self, tmp_path, part):
        path, raw = self.checkpoint_bytes(tmp_path)
        at = 4 if part == "digest" else len(raw) - 3
        path.write_bytes(raw[:at] + bytes([raw[at] ^ 0x10]) + raw[at + 1 :])
        with pytest.raises(ValueError, match=r"m\.tfn: checksum mismatch"):
            load_model(path)

    def test_truncated_stream(self, tmp_path):
        path, raw = self.checkpoint_bytes(tmp_path)
        path.write_bytes(raw[:-10])
        with pytest.raises(ValueError, match=r"m\.tfn: checksum mismatch: .* truncated"):
            load_model(path)
        header, values = signed_parts(raw)
        resign(path, header, values[:-8])
        with pytest.raises(ValueError, match=rf"m\.tfn: parameter payload holds {len(values) - 8} "
                                             rf"bytes, the model needs {len(values)}"):
            load_model(path)

    def test_trailing_bytes(self, tmp_path):
        path, raw = self.checkpoint_bytes(tmp_path)
        path.write_bytes(raw + b"\x00")
        with pytest.raises(ValueError, match=r"m\.tfn: checksum mismatch"):
            load_model(path)
        header, values = signed_parts(raw)
        resign(path, header, values + b"\x00")
        with pytest.raises(ValueError, match=rf"m\.tfn: parameter payload holds {len(values) + 1} "
                                             rf"bytes, the model needs {len(values)}"):
            load_model(path)

    def test_unexpected_block_name(self, tmp_path):
        path, raw = self.checkpoint_bytes(tmp_path)
        header = signed_parts(raw)[0]
        assert header.count(b"theta") == 1
        resign(path, header.replace(b"theta", b"thetb"))
        with pytest.raises(ValueError, match=r"m\.tfn: invalid checkpoint header: 'blocks' entry "
                                             r"\['0\.tfconvlayer\.thetb', .* does not match"):
            load_model(path)

    def test_shape_mismatch(self, tmp_path):
        # shrinking the declared channel count makes the rebuilt model
        # expect smaller theta and first-conv blocks than the payload carries
        path, raw = self.checkpoint_bytes(tmp_path)
        header, values = signed_parts(raw)
        assert header.count(b'"n_channels": 8') == 1
        resign(path, header.replace(b'"n_channels": 8', b'"n_channels": 4'))
        with pytest.raises(ValueError, match=rf"m\.tfn: parameter payload holds {len(values)} "
                                             r"bytes, the model needs \d+"):
            load_model(path)

    @pytest.mark.parametrize("key", ["n_classes", "tfconv.n_channels"])
    def test_count_beyond_the_payload_fails_before_building(self, tmp_path, key):
        # every class and every channel adds at least one payload value
        path, _ = self.checkpoint_bytes(tmp_path)
        *parents, last = key.split(".")

        def edit(header):
            for name in parents:
                header = header[name]
            header[last] = 10**7

        edit_header(path, edit)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=rf"m\.tfn: invalid checkpoint header: "
                                                 rf"'{last}' 10000000 exceeds the payload's "
                                                 r"\d+ values"):
                load_model(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    @pytest.mark.parametrize("key, kwargs", [
        ("mode", {}),
        # save_model writes both; without them a float32 model would load as
        # float64 and a backbone-only one with no tfconv entry at all
        ("dtype", {"dtype": np.float32}),
        ("tfconv", {"mode": "backbone-only"}),
    ], ids=["mode", "dtype", "tfconv"])
    def test_header_without_entry_names_file_and_key(self, tmp_path, key, kwargs):
        path, _ = self.checkpoint_bytes(tmp_path, **kwargs)
        edit_header(path, lambda header: header.pop(key))
        with pytest.raises(ValueError, match=rf"m\.tfn: checkpoint header has no '{key}' entry"):
            load_model(path)

    @pytest.mark.parametrize("payload, message", [
        (b"{not json", "invalid JSON checkpoint header"),
        (b'{"mode": "\xff"}', "invalid JSON checkpoint header"),  # not UTF-8
        (b'["mode", "tfn-add"]', "checkpoint header is not a JSON object"),
    ], ids=["not-json", "not-utf8", "not-an-object"])
    def test_corrupt_header_names_file(self, tmp_path, payload, message):
        path, _ = self.checkpoint_bytes(tmp_path)
        resign(path, payload)
        with pytest.raises(ValueError, match=r"m\.tfn: " + message):
            load_model(path)

    @pytest.mark.parametrize("key, value, message", [
        ("n_classes", "x", "invalid literal for int"),
        ("n_classes", np.inf, "cannot convert float infinity to integer"),
        ("tfconv.n_channels", -np.inf, "cannot convert float infinity to integer"),
        ("tfconv", ["sttf"], "list indices"),
        ("tfconv.family", "bogus", "'bogus' is not a valid KernelFamily"),
        ("blocks", 3, "'blocks' entry 3 does not match the rebuilt model's"),
        ("dtype", "int32", "dtype must be float32 or float64, got int32"),
        # np.dtype reads null as float64 and takes aliases; the header names exactly one
        ("dtype", None, "dtype must be float32 or float64, got None"),
        ("dtype", "double", "dtype must be float32 or float64, got double"),
        ("dtype", "f4", "dtype must be float32 or float64, got f4"),
        # the rebuilt model fixes every tfconv entry; an edited one must not load
        ("tfconv.eps_modulus", 1e-6, "'tfconv' entry .* does not match mode 'tfn-add'"),
        ("tfconv.kernel_length", 31, "'tfconv' entry .* does not match mode 'tfn-add'"),
        ("tfconv.modulus", False, "'tfconv' entry .* does not match mode 'tfn-add'"),
        ("tfconv", None, "'tfconv' entry None does not match mode 'tfn-add'"),
    ], ids=["n_classes-not-int", "n_classes-infinite", "n_channels-infinite", "tfconv-a-list",
            "unknown-family", "blocks-an-int", "integer-dtype", "null-dtype",
            "dtype-alias-double", "dtype-alias-f4", "edited-eps",
            "edited-kernel-length", "edited-modulus", "tfn-add-without-tfconv"])
    def test_header_value_of_wrong_type_names_file(self, tmp_path, key, value, message):
        path, _ = self.checkpoint_bytes(tmp_path)

        def edit(header):
            *parents, last = key.split(".")
            for name in parents:
                header = header[name]
            header[last] = value

        edit_header(path, edit)
        with pytest.raises(ValueError, match=r"m\.tfn: invalid checkpoint header: .*" + message):
            load_model(path)

    def test_no_classes_names_file(self, tmp_path):
        path = tmp_path / "m.tfn"
        save_with_no_classes(assemble_model("tfn-add", n_classes=5), path)
        with pytest.raises(ValueError, match=r"m\.tfn: invalid checkpoint header: "
                                             r"n_classes must be >= 1, got 0$"):
            load_model(path)

    def test_theta_outside_its_box_names_file(self, tmp_path):
        model = assemble_model("tfn-add", backbone="lenet-1d", n_channels=2)
        model.tfconv.theta[0, 0] = 0.7
        path = tmp_path / "m.tfn"
        save_model(model, path)
        with pytest.raises(ValueError, match=r"m\.tfn: f out of \[0\.0, 0\.49"):
            load_model(path)

    def test_missing_block_detected(self, tmp_path):
        path, _ = self.checkpoint_bytes(tmp_path)
        edit_header(path, lambda header: header["blocks"].pop())
        with pytest.raises(ValueError, match=r"m\.tfn: invalid checkpoint header: 'blocks' entry "
                                             r".* does not match the rebuilt model's"):
            load_model(path)

    def test_file_with_a_bias_on_a_conv_that_feeds_a_norm_fails(self, tmp_path):
        # a paper-cnn checkpoint saved while its convs had a bias: the block
        # right after the stem conv's weight
        path, raw = self.checkpoint_bytes(tmp_path)
        header, values = signed_parts(raw)
        header = json.loads(header)
        blocks = header["blocks"]
        blocks.insert(blocks.index("1.conv1d.weight") + 1, "1.conv1d.bias")
        front, stem = assemble_model("tfn-add", n_classes=5).layers[:2]
        at = 8 * (front.theta.size + stem.weight.size)
        resign(path, header, values[:at] + bytes(8 * stem.out_channels) + values[at:])
        with pytest.raises(ValueError, match=r"m\.tfn: invalid checkpoint header: 'blocks' entry "
                                             r".*'1\.conv1d\.bias'.* does not match"):
            load_model(path)

    def test_value_beyond_float32_names_file(self, tmp_path):
        # the top exponent bit of the conv weight's first float64 value,
        # just past the 8x1 theta block: finite in the file, beyond the
        # float32 model's range
        path, raw = self.checkpoint_bytes(tmp_path, backbone="lenet-1d", dtype=np.float32)
        header, values = signed_parts(raw)
        at = 8 * 8 + 7
        resign(path, header, values[:at] + bytes([values[at] ^ 0x40]) + values[at + 1 :])
        with pytest.raises(ValueError, match=r"m\.tfn: block '1\.conv1d\.weight' holds values "
                                             r"beyond float32 range"):
            load_model(path)


def lenet_checkpoint(directory, dtype):
    model = assemble_model("tfn-add", backbone="lenet-1d", n_channels=2, n_classes=3,
                           dtype=np.dtype(dtype))
    save_model(model, directory / "m.tfn")
    return directory / "m.tfn", (directory / "m.tfn").read_bytes()


@pytest.fixture(scope="module")
def fuzz_checkpoints(tmp_path_factory):
    """Small float64 and float32 checkpoints, each with its length up to the payload."""
    out = {}
    for dtype in ("float64", "float32"):
        path, raw = lenet_checkpoint(tmp_path_factory.mktemp(dtype), dtype)
        out[dtype] = path.with_name("fuzzed.tfn"), raw, 40 + len(signed_parts(raw)[0])
    return out


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_bit_flip_or_truncation_fails_naming_the_file(fuzz_checkpoints, data):
    path, raw, prefix = fuzz_checkpoints[data.draw(st.sampled_from(["float64", "float32"]))]
    if data.draw(st.booleans()):
        corrupt = raw[: data.draw(st.integers(0, len(raw) - 1))]
    else:
        # the magic, digest and header are a small share of the bytes, so
        # half the flips are drawn from them
        at = data.draw(st.one_of(st.integers(0, prefix - 1), st.integers(0, len(raw) - 1)))
        corrupt = flip_bit(raw, at, data.draw(st.integers(0, 7)))
    assert fails_naming(path, corrupt, lambda: load_model(path))


def test_every_bit_flip_before_the_payload_fails_naming_the_file(tmp_path):
    path, raw = lenet_checkpoint(tmp_path, "float64")
    fuzzed = path.with_name("fuzzed.tfn")
    prefix = 40 + len(signed_parts(raw)[0])
    loaded = [(at, bit) for at in range(prefix) for bit in range(8)
              if not fails_naming(fuzzed, flip_bit(raw, at, bit), lambda: load_model(fuzzed))]
    assert loaded == []


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_edited_header_value_loads_or_fails_naming_the_file(fuzz_checkpoints, data):
    # each edit is re-signed, so it reaches the header checks, not the checksum
    path, raw, _ = fuzz_checkpoints[data.draw(st.sampled_from(["float64", "float32"]))]
    path.write_bytes(raw)
    header = json.loads(signed_parts(raw)[0])
    fuzz_header(data, header)
    resign(path, header)
    try:
        load_model(path)
    except ValueError as exc:
        assert str(path) in str(exc)


class TestHistoryCsv:
    """``tfnet train`` and each ``ablate`` cell write their history through ``_train_run``."""

    def test_round_trip_is_exact(self, tmp_path):
        x, y = small_signals(n=12, length=128)
        train_ds, test_ds = Dataset(x[:8], y[:8]), Dataset(x[8:], y[8:])
        model = assemble_model("tfn-add", backbone="lenet-1d", n_channels=2, seed=0)
        out = tmp_path / "run"
        hist = _train_run(out, model, TrainConfig(epochs=3, batch_size=4, seed=0),
                          train_ds, test_ds)
        header, rows = csv_rows(out / "history.csv")
        assert header == "epoch,train_loss,train_acc,test_acc"
        assert len(rows) == 3
        assert [int(r[0]) for r in rows] == [1, 2, 3]
        assert [float(r[1]) for r in rows] == hist.train_loss
        assert [float(r[2]) for r in rows] == hist.train_acc
        assert [float(r[3]) for r in rows] == hist.test_acc


@pytest.fixture(scope="module")
def split_dir(tmp_path_factory, tiny_split):
    """``tiny_split`` saved as a gen-data directory."""
    out = tmp_path_factory.mktemp("split")
    for side, ds in zip(("train", "test"), tiny_split):
        save_dataset(ds, out / side)
    return out


def train_trajectory(out, split_dir, *settings):
    """Header and rows of ``theta_trajectory.csv`` from a one-epoch, two-channel ``tfnet train``."""
    code = main(["train", "--out", str(out), "--seed", "0", "--set", f"dataset={split_dir}",
                 "--set", "backbone=lenet-1d", "--set", "epochs=1", "--set", "batch_size=10",
                 "--set", "channels=2", *settings])
    assert code == EXIT_OK
    return csv_rows(out / "theta_trajectory.csv")


class TestThetaTrajectoryCsv:
    """``tfnet train`` writes a TFconv model's kernel parameters per epoch, 0 the initial state."""

    def test_row_layout(self, tmp_path, split_dir):
        header, rows = train_trajectory(tmp_path / "run", split_dir)
        assert header == "epoch,channel,param,value"
        assert [r[:3] for r in rows] == [["0", "0", "f"], ["0", "1", "f"],
                                         ["1", "0", "f"], ["1", "1", "f"]]
        values = np.array([float(r[3]) for r in rows]).reshape(2, 2)
        np.testing.assert_array_equal(values[0], init_params(KernelFamily.STTF, 2, seed=0)[:, 0])
        trained = load_model(tmp_path / "run" / "model.tfn").tfconv.theta[:, 0]
        np.testing.assert_array_equal(values[1], trained)
        assert not np.array_equal(values[0], values[1])

    def test_chirplet_names_both_parameters(self, tmp_path, split_dir):
        _, rows = train_trajectory(tmp_path / "run", split_dir, "--set", "family=chirplet")
        assert [r[2] for r in rows if r[:2] == ["0", "0"]] == ["f", "alpha"]

    def test_random_taps_named_individually(self, tmp_path, split_dir):
        _, rows = train_trajectory(tmp_path / "run", split_dir, "--set", "mode=random-tfn")
        names = [r[2] for r in rows if r[:2] == ["0", "0"]]  # 51 taps -> re/im pairs
        assert names == [f"w_re_{i}" for i in range(51)] + [f"w_im_{i}" for i in range(51)]


class TestKernelTapsCsv:
    """``tfnet freq-response`` writes a TFconv model's complex kernel taps."""

    def test_short_grid_layout(self, tmp_path):
        model = assemble_model("tfn-add", backbone="lenet-1d", n_channels=2, seed=0)
        out = run_freq_response(model, tmp_path / "fr")
        header, rows = csv_rows(out / "kernel_taps.csv")
        assert header == "channel,n,real,imag"
        assert len(rows) == 2 * 51
        first = rows[0]
        assert first[0] == "0" and first[1] == "-25"
        got = complex(float(first[2]), float(first[3]))
        assert got == complex(model.tfconv.kernels()[0, 0])

    def test_long_grid_row_count(self, tmp_path):
        model = assemble_model("tfn-add", backbone="lenet-1d", family="morlet", n_channels=1)
        out = run_freq_response(model, tmp_path / "fr")
        assert len((out / "kernel_taps.csv").read_text().splitlines()) == 1 + 301
