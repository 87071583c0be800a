"""Checkpoint format and CSV artifact writers."""

import json
import struct

import numpy as np
import pytest

from tfnet.checkpoint import (
    MAGIC,
    load_model,
    save_model,
    write_history_csv,
    write_kernel_taps_csv,
    write_theta_trajectory_csv,
)
from tfnet.kernels import KernelFamily, init_params
from tfnet.nn import BatchNorm1d, TFconvLayer, assemble_model
from tfnet.training import TrainConfig, TrainHistory, train


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
        assert path.read_bytes()[:4] == MAGIC == b"TFN1"

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
        raw = path.read_bytes()
        (hlen,) = struct.unpack("<I", raw[4:8])
        blocks = json.loads(raw[8 : 8 + hlen])["blocks"]
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

    # Top-level index and kind of each layer with checkpoint blocks, as saved
    # by earlier versions.  Reordering parameter-free layers (MaxPool ahead of
    # ReLU) must keep these names, or older checkpoints stop loading.
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
        ("backbone-only", "lenet-1d"): "0.conv1d 3.conv1d 8.dense 9.dense 10.dense",
        ("tfn-add", "lenet-1d"): "0.tfconvlayer 1.conv1d 4.conv1d 9.dense 10.dense 11.dense",
        ("tfn-replace", "lenet-1d"): "0.tfconvlayer 3.conv1d 8.dense 9.dense 10.dense",
    }
    BLOCK_SUFFIXES = {
        "tfconvlayer": ("theta",),
        "conv1d": ("weight", "bias"),
        "dense": ("weight", "bias"),
        "batchnorm1d": ("gamma", "beta", "running_mean", "running_var"),
    }

    @pytest.mark.parametrize("mode, backbone", list(SAVED_LAYERS),
                             ids=[f"{m}-{b}" for m, b in SAVED_LAYERS])
    def test_block_names_match_saved_checkpoints(self, tmp_path, mode, backbone):
        model = assemble_model(mode, backbone=backbone, n_classes=5, seed=3)
        path = tmp_path / "m.tfn"
        save_model(model, path)
        raw = path.read_bytes()
        (hlen,) = struct.unpack("<I", raw[4:8])
        want = [f"{layer}.{suffix}" for layer in self.SAVED_LAYERS[mode, backbone].split()
                for suffix in self.BLOCK_SUFFIXES[layer.split(".")[1]]]
        assert json.loads(raw[8 : 8 + hlen])["blocks"] == want

    def test_trained_model_evaluates_identically(self, tmp_path):
        x, y = small_signals()
        model = assemble_model("tfn-add", n_classes=5, seed=1)
        train(model, x, y, config=TrainConfig(epochs=2, batch_size=6, seed=1))
        path = tmp_path / "m.tfn"
        save_model(model, path)
        loaded = load_model(path)
        xb = x[:, None, :]
        np.testing.assert_array_equal(
            model.forward(xb, training=False), loaded.forward(xb, training=False))

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
        assert loaded.tfconv_config["kernel_length"] == 51
        np.testing.assert_array_equal(loaded.tfconv.kernels(), model.tfconv.kernels())
        np.testing.assert_array_equal(
            loaded.tfconv.theta, model.tfconv.theta)


class TestLoadValidation:
    def checkpoint_bytes(self, tmp_path, **kwargs):
        model = assemble_model("tfn-add", n_classes=5, seed=0, **kwargs)
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
        path, raw = self.checkpoint_bytes(tmp_path)
        assert raw.count(b'"version": 1') == 1
        path.write_bytes(raw.replace(b'"version": 1', b'"version": 2'))
        with pytest.raises(ValueError, match="version"):
            load_model(path)

    def test_truncated_stream(self, tmp_path):
        path, raw = self.checkpoint_bytes(tmp_path)
        path.write_bytes(raw[:-10])
        with pytest.raises(ValueError, match="truncated"):
            load_model(path)

    def test_trailing_bytes(self, tmp_path):
        path, raw = self.checkpoint_bytes(tmp_path)
        path.write_bytes(raw + b"\x00")
        with pytest.raises(ValueError, match="trailing"):
            load_model(path)

    def test_unexpected_block_name(self, tmp_path):
        path, raw = self.checkpoint_bytes(tmp_path)
        assert b"theta" in raw
        path.write_bytes(raw.replace(b"theta", b"thetb"))
        with pytest.raises(ValueError, match="unexpected parameter block"):
            load_model(path)

    def test_shape_mismatch(self, tmp_path):
        # shrinking the declared channel count makes the rebuilt model
        # expect a smaller theta block than the stream carries
        path, raw = self.checkpoint_bytes(tmp_path)
        assert raw.count(b'"n_channels": 8') == 1
        path.write_bytes(raw.replace(b'"n_channels": 8', b'"n_channels": 4'))
        with pytest.raises(ValueError, match="shape"):
            load_model(path)

    def test_header_without_mode_names_file_and_key(self, tmp_path):
        path, raw = self.checkpoint_bytes(tmp_path)
        hlen = struct.unpack("<I", raw[4:8])[0]
        header = json.loads(raw[8 : 8 + hlen])
        del header["mode"]
        payload = json.dumps(header, sort_keys=True).encode()
        path.write_bytes(MAGIC + struct.pack("<I", len(payload)) + payload + raw[8 + hlen :])
        with pytest.raises(ValueError, match=r"m\.tfn: checkpoint header has no 'mode' entry"):
            load_model(path)

    @pytest.mark.parametrize("payload, message", [
        (b"{not json", "invalid JSON checkpoint header"),
        (b'{"mode": "\xff"}', "invalid JSON checkpoint header"),  # not UTF-8
        (b'["mode", "tfn-add"]', "checkpoint header is not a JSON object"),
    ], ids=["not-json", "not-utf8", "not-an-object"])
    def test_corrupt_header_names_file(self, tmp_path, payload, message):
        path, raw = self.checkpoint_bytes(tmp_path)
        hlen = struct.unpack("<I", raw[4:8])[0]
        path.write_bytes(MAGIC + struct.pack("<I", len(payload)) + payload + raw[8 + hlen :])
        with pytest.raises(ValueError, match=r"m\.tfn: " + message):
            load_model(path)

    @pytest.mark.parametrize("key, value, message", [
        ("n_classes", "x", "invalid literal for int"),
        ("tfconv", ["sttf"], "list indices"),
        ("tfconv.family", "bogus", "'bogus' is not a valid KernelFamily"),
        ("blocks", 3, "'blocks' must be a list, got int"),
        ("dtype", "int32", "dtype must be float32 or float64, got int32"),
        # the rebuilt model fixes every tfconv entry; an edited one must not load
        ("tfconv.eps_modulus", 1e-6, "'tfconv' entry .* does not match mode 'tfn-add'"),
        ("tfconv.kernel_length", 31, "'tfconv' entry .* does not match mode 'tfn-add'"),
        ("tfconv.modulus", False, "'tfconv' entry .* does not match mode 'tfn-add'"),
        ("tfconv", None, "'tfconv' entry None does not match mode 'tfn-add'"),
    ], ids=["n_classes-not-int", "tfconv-a-list", "unknown-family", "blocks-an-int",
            "integer-dtype", "edited-eps", "edited-kernel-length", "edited-modulus",
            "tfn-add-without-tfconv"])
    def test_header_value_of_wrong_type_names_file(self, tmp_path, key, value, message):
        path, raw = self.checkpoint_bytes(tmp_path)
        hlen = struct.unpack("<I", raw[4:8])[0]
        header = json.loads(raw[8 : 8 + hlen])
        *parents, last = key.split(".")
        entry = header
        for name in parents:
            entry = entry[name]
        entry[last] = value
        payload = json.dumps(header, sort_keys=True).encode()
        path.write_bytes(MAGIC + struct.pack("<I", len(payload)) + payload + raw[8 + hlen :])
        with pytest.raises(ValueError, match=r"m\.tfn: invalid checkpoint header: .*" + message):
            load_model(path)

    def test_theta_outside_its_box_names_file(self, tmp_path):
        model = assemble_model("tfn-add", backbone="lenet-1d", n_channels=2)
        model.tfconv.theta[0, 0] = 0.7
        path = tmp_path / "m.tfn"
        save_model(model, path)
        with pytest.raises(ValueError, match=r"m\.tfn: f out of \[0\.0, 0\.49"):
            load_model(path)

    def test_missing_block_detected(self, tmp_path):
        path, raw = self.checkpoint_bytes(tmp_path)
        hlen = struct.unpack("<I", raw[4:8])[0]
        header = json.loads(raw[8 : 8 + hlen])
        header["blocks"] = header["blocks"][:-1]
        payload = json.dumps(header, sort_keys=True).encode()
        path.write_bytes(MAGIC + struct.pack("<I", len(payload)) + payload + raw[8 + hlen :])
        with pytest.raises(ValueError, match="missing|trailing"):
            load_model(path)


class TestHistoryCsv:
    def test_round_trip_is_exact(self, tmp_path):
        hist = TrainHistory(
            train_loss=[1.5, 0.25, 0.1 + 1e-16],
            train_acc=[0.5, 0.75, 1.0],
            test_acc=[0.4, 0.7, 0.95],
        )
        path = tmp_path / "history.csv"
        write_history_csv(path, hist)
        lines = path.read_text().splitlines()
        assert lines[0] == "epoch,train_loss,train_acc,test_acc"
        assert len(lines) == 4
        rows = [line.split(",") for line in lines[1:]]
        assert [int(r[0]) for r in rows] == [1, 2, 3]
        assert [float(r[1]) for r in rows] == hist.train_loss
        assert [float(r[2]) for r in rows] == hist.train_acc
        assert [float(r[3]) for r in rows] == hist.test_acc

    def test_empty_history(self, tmp_path):
        path = tmp_path / "history.csv"
        write_history_csv(path, TrainHistory())
        assert path.read_text() == "epoch,train_loss,train_acc,test_acc\n"


class TestThetaTrajectoryCsv:
    def test_row_layout(self, tmp_path):
        hist = TrainHistory(theta_snapshots=[
            np.array([[0.1], [0.2]]),
            np.array([[0.15], [0.25]]),
        ])
        path = tmp_path / "theta.csv"
        write_theta_trajectory_csv(path, hist, "sttf")
        lines = path.read_text().splitlines()
        assert lines[0] == "epoch,channel,param,value"
        assert len(lines) == 1 + 2 * 2 * 1
        assert lines[1] == "0,0,f,0.1"
        assert lines[-1] == "1,1,f,0.25"

    def test_chirplet_names_both_parameters(self, tmp_path):
        hist = TrainHistory(theta_snapshots=[np.array([[0.1, 0.001]])])
        path = tmp_path / "theta.csv"
        write_theta_trajectory_csv(path, hist, KernelFamily.CHIRPLET)
        lines = path.read_text().splitlines()
        assert [ln.split(",")[2] for ln in lines[1:]] == ["f", "alpha"]

    def test_random_taps_named_individually(self, tmp_path):
        theta = np.zeros((1, 102))  # 51 taps -> re/im pairs
        hist = TrainHistory(theta_snapshots=[theta])
        path = tmp_path / "theta.csv"
        write_theta_trajectory_csv(path, hist, "random")
        names = [ln.split(",")[2] for ln in path.read_text().splitlines()[1:]]
        assert names == [f"w_re_{i}" for i in range(51)] + [f"w_im_{i}" for i in range(51)]

    def test_empty_snapshots_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_theta_trajectory_csv(tmp_path / "t.csv", TrainHistory(), "sttf")


class TestKernelTapsCsv:
    def test_short_grid_layout(self, tmp_path):
        layer = TFconvLayer(KernelFamily.STTF, init_params(KernelFamily.STTF, 2))
        path = tmp_path / "taps.csv"
        write_kernel_taps_csv(path, layer)
        lines = path.read_text().splitlines()
        assert lines[0] == "channel,n,real,imag"
        assert len(lines) == 1 + 2 * 51
        first = lines[1].split(",")
        assert first[0] == "0" and first[1] == "-25"
        kernels = layer.kernels()
        got = complex(float(first[2]), float(first[3]))
        assert got == complex(kernels[0, 0])

    def test_long_grid_row_count(self, tmp_path):
        layer = TFconvLayer(KernelFamily.MORLET, init_params(KernelFamily.MORLET, 1))
        path = tmp_path / "taps.csv"
        write_kernel_taps_csv(path, layer)
        assert len(path.read_text().splitlines()) == 1 + 301
