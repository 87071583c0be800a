"""End-to-end command-line workflows on small synthetic datasets."""

import json
import os
import re
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from helpers import (any_two_cpus, corrupt_dataset, csv_rows, edit_header,
                     save_with_no_classes, signed_parts, tree_digest)
from tfnet import cli, core_math, training
from tfnet.checkpoint import save_model
from tfnet.cli import EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, main
from tfnet.data import DATASET_FILE, Dataset, load_dataset, save_dataset, split
from tfnet.nn import assemble_model

GEN_ARGS = ["--set", "samples_per_class=6", "--set", "sample_length=128"]
TRAIN_ARGS = ["--set", "epochs=2", "--set", "batch_size=4", "--set", "channels=2"]


def read_json(path):
    return json.loads(path.read_text())


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli-data") / "ds"
    assert main(["gen-data", "--out", str(out), "--seed", "0", *GEN_ARGS]) == EXIT_OK
    return out


@pytest.fixture(scope="module")
def trained_dir(tmp_path_factory, data_dir):
    out = tmp_path_factory.mktemp("cli-train") / "run"
    code = main(["train", "--out", str(out), "--seed", "0",
                 "--set", f"dataset={data_dir}", *TRAIN_ARGS])
    assert code == EXIT_OK
    return out


@pytest.fixture(scope="module")
def backbone_dir(tmp_path_factory, data_dir):
    out = tmp_path_factory.mktemp("cli-train") / "backbone"
    code = main(["train", "--out", str(out), "--seed", "0",
                 "--set", f"dataset={data_dir}", "--set", "mode=backbone-only", *TRAIN_ARGS])
    assert code == EXIT_OK
    return out


class TestWriters:
    """Every CSV and JSON artifact goes through ``_write_csv`` and ``_write_json``."""

    def test_numpy_scalars_write_as_python_numbers(self, tmp_path):
        scalars = [np.float64(0.1), np.float32(0.1), np.int64(3), np.float64(1e-300)]
        plain = [float(np.float64(0.1)), float(np.float32(0.1)), 3, 1e-300]
        cli._write_csv(tmp_path / "numpy.csv", "a,b,c,d", [scalars])
        cli._write_csv(tmp_path / "plain.csv", "a,b,c,d", [plain])
        text = (tmp_path / "numpy.csv").read_text()
        assert text == (tmp_path / "plain.csv").read_text()
        assert text == "a,b,c,d\n0.1,0.10000000149011612,3,1e-300\n"

    def test_floats_round_trip_exactly(self, tmp_path):
        values = np.random.default_rng(0).normal(size=(4, 3)) * 10.0 ** np.arange(-150, 150, 100)
        cli._write_csv(tmp_path / "v.csv", "x,y,z", values)
        header, rows = csv_rows(tmp_path / "v.csv")
        assert header == "x,y,z"
        np.testing.assert_array_equal(np.array(rows, dtype=float), values)

    def test_no_header_and_strings_as_they_are(self, tmp_path):
        cli._write_csv(tmp_path / "c.csv", None, [["tfn-add", 2], ["-", 0.5]])
        assert (tmp_path / "c.csv").read_text() == "tfn-add,2\n-,0.5\n"

    def test_json_is_indented_sorted_and_ends_in_a_newline(self, tmp_path):
        cli._write_json(tmp_path / "m.json", {"b": 0.1, "a": [1, 2]})
        assert (tmp_path / "m.json").read_text() == \
            '{\n  "a": [\n    1,\n    2\n  ],\n  "b": 0.1\n}\n'


class TestGenData:
    def test_outputs(self, data_dir):
        manifest = read_json(data_dir / "manifest.json")
        # per class: round(0.6 * 6) = 4 train, 2 test
        assert manifest["train_count"] == 20 and manifest["test_count"] == 10
        assert len(manifest["classes"]) == 5
        assert len(manifest["information_bands"]) == 4
        for side, count in (("train", 20), ("test", 10)):
            assert [p.name for p in (data_dir / side).iterdir()] == [DATASET_FILE]
            header, payload = signed_parts((data_dir / side / DATASET_FILE).read_bytes())
            assert json.loads(header)["count"] == count
            assert len(payload) == count * 128 * 8 + count * 4

    def test_echo_lists_resolved_keys(self, data_dir):
        echo = (data_dir / "config.echo").read_text()
        assert "samples_per_class = 6" in echo
        assert "train_frac = 0.6" in echo
        assert "out =" not in echo and "force =" not in echo

    def test_force_rerun_is_byte_identical(self, data_dir, tmp_path):
        before = {p.name: p.read_bytes()
                  for p in data_dir.rglob("*") if p.is_file()}
        assert main(["gen-data", "--out", str(data_dir), "--seed", "0",
                     "--force", *GEN_ARGS]) == EXIT_OK
        after = {p.name: p.read_bytes()
                 for p in data_dir.rglob("*") if p.is_file()}
        assert before == after

    def test_refuses_nonempty_out_without_force(self, data_dir):
        assert main(["gen-data", "--out", str(data_dir), "--seed", "0",
                     *GEN_ARGS]) == EXIT_CONFIG

    def test_missing_out_is_config_error(self):
        assert main(["gen-data", "--seed", "0", *GEN_ARGS]) == EXIT_CONFIG

    def test_bands_excluding_components_rejected(self, tmp_path):
        code = main(["gen-data", "--out", str(tmp_path / "x"), *GEN_ARGS,
                     "--set", "bands=0.1:0.2"])
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("override", [
        "train_frac=1.5",
        "samples_per_class=1",
        "sample_length=50",     # impulse period no longer fits
        "bands=0.3:0.2",
        "nonsense_key=1",
    ])
    def test_invalid_settings_rejected(self, tmp_path, override):
        code = main(["gen-data", "--out", str(tmp_path / "x"),
                     "--set", override])
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("setting, message", [
        ("samples_per_class=0", "samples_per_class: must be >= 2"),
        ("samples_per_class=1", "samples_per_class: must be >= 2"),
        ("samples_per_class=-3", "samples_per_class: must be >= 2"),
        ("train_frac=1.5", "train_frac: must lie strictly between 0 and 1"),
    ], ids=["samples_per_class=0", "samples_per_class=1", "samples_per_class=-3",
            "train_frac=1.5"])
    def test_bad_count_or_fraction_writes_nothing(self, tmp_path, capsys, setting, message):
        code = main(["gen-data", "--out", str(tmp_path / "x"), "--set", setting])
        assert code == EXIT_CONFIG
        assert f"config error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("frac", ["0", "1", "-0.1", "nan"])
    def test_fraction_message_is_the_splits_under_the_key(self, tmp_path, capsys, frac):
        with pytest.raises(ValueError) as refused:
            split(Dataset(np.zeros((4, 16)), [0, 0, 1, 1]), train_frac=float(frac))
        code = main(["gen-data", "--out", str(tmp_path / "x"), "--set", f"train_frac={frac}"])
        assert code == EXIT_CONFIG
        assert f"config error: train_frac: {refused.value}\n" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_bad_band_message_names_the_key(self, tmp_path, capsys):
        code = main(["gen-data", "--out", str(tmp_path / "x"), "--set", "bands=0.3:0.2"])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "bands: band [0.3, 0.2] is not a subinterval of [0, 0.5]" in err

    @pytest.mark.parametrize("sigma", ["nan", "inf"])
    def test_non_finite_noise_rejected(self, tmp_path, capsys, sigma):
        code = main(["gen-data", "--out", str(tmp_path / "x"), *GEN_ARGS,
                     "--set", f"noise_sigma={sigma}"])
        assert code == EXIT_CONFIG
        assert "noise_sigma must be finite" in capsys.readouterr().err
        assert not (tmp_path / "x" / "train").exists()


class TestTrain:
    def test_artifacts(self, trained_dir):
        assert (trained_dir / "model.tfn").read_bytes()[:4] == b"TFN2"
        history = (trained_dir / "history.csv").read_text().splitlines()
        assert history[0] == "epoch,train_loss,train_acc,test_acc"
        assert len(history) == 3  # two epochs
        metrics = read_json(trained_dir / "metrics.json")
        assert set(metrics) == {"final_test_acc", "final_train_acc", "final_train_loss"}
        assert 0.0 <= metrics["final_test_acc"] <= 1.0

    def test_theta_trajectory_for_tfn_mode(self, trained_dir):
        lines = (trained_dir / "theta_trajectory.csv").read_text().splitlines()
        assert lines[0] == "epoch,channel,param,value"
        # initial state + 2 epochs, 2 channels, 1 parameter each
        assert len(lines) == 1 + 3 * 2 * 1

    def test_backbone_mode_has_no_trajectory(self, backbone_dir):
        assert not (backbone_dir / "theta_trajectory.csv").exists()

    def test_rerun_is_byte_identical(self, tmp_path, data_dir, trained_dir):
        out = tmp_path / "again"
        code = main(["train", "--out", str(out), "--seed", "0",
                     "--set", f"dataset={data_dir}", *TRAIN_ARGS])
        assert code == EXIT_OK
        for name in ("model.tfn", "history.csv", "metrics.json", "theta_trajectory.csv"):
            assert (out / name).read_bytes() == (trained_dir / name).read_bytes()

    def test_forced_rerun_leaves_only_the_new_runs_files(self, tmp_path, data_dir, trained_dir,
                                                         backbone_dir):
        out = tmp_path / "run"
        shutil.copytree(trained_dir, out)  # a tfn-add run, with a theta trajectory
        code = main(["train", "--out", str(out), "--seed", "0", "--force",
                     "--set", f"dataset={data_dir}", "--set", "mode=backbone-only", *TRAIN_ARGS])
        assert code == EXIT_OK
        assert tree_digest(out) == tree_digest(backbone_dir)

    def test_set_overrides_epochs(self, tmp_path, data_dir):
        out = tmp_path / "run"
        code = main(["train", "--out", str(out), "--seed", "1",
                     "--set", f"dataset={data_dir}", *TRAIN_ARGS,
                     "--set", "epochs=3"])
        assert code == EXIT_OK
        assert len((out / "history.csv").read_text().splitlines()) == 4

    def test_float32_training(self, tmp_path, data_dir):
        out = tmp_path / "run"
        code = main(["train", "--out", str(out), "--seed", "0",
                     "--set", f"dataset={data_dir}", "--set", "dtype=float32",
                     *TRAIN_ARGS])
        assert code == EXIT_OK

    def test_too_few_classes_rejected(self, tmp_path, data_dir, capsys):
        # the class count is the dataset's: a manifest naming 3 classes
        # under labels that reach 4 fails as a configuration error
        copy = tmp_path / "ds"
        shutil.copytree(data_dir, copy)
        edit_header(copy / "train" / DATASET_FILE,
                    lambda meta: meta.update(class_names=meta["class_names"][:3]))
        code = main(["train", "--out", str(tmp_path / "x"), "--seed", "0",
                     "--set", f"dataset={copy}", *TRAIN_ARGS])
        assert code == EXIT_CONFIG
        assert "labels must lie in [0, 3)" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["backbone-only", "tfn-add"])
    def test_non_finite_train_signal_is_a_dataset_error_that_writes_nothing(
            self, tmp_path, data_dir, capsys, mode):
        copy = tmp_path / "ds"
        shutil.copytree(data_dir, copy)
        ds = load_dataset(copy / "train")
        ds.signals[3, 5] = np.nan
        save_dataset(ds, copy / "train")
        code = main(["train", "--out", str(tmp_path / "run"), "--seed", "0",
                     "--set", f"dataset={copy}", "--set", f"mode={mode}", *TRAIN_ARGS])
        assert code == EXIT_CONFIG
        bad = copy / "train" / DATASET_FILE
        assert capsys.readouterr().err == \
            f"config error: dataset: {bad}: sample 3 holds a non-finite value\n"
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("mode", ["backbone-only", "tfn-add"])
    def test_infinite_learning_rate_rejected(self, tmp_path, data_dir, capsys, mode):
        code = main(["train", "--out", str(tmp_path / "x"), "--seed", "0",
                     "--set", f"dataset={data_dir}", "--set", f"mode={mode}", *TRAIN_ARGS,
                     "--set", "lr=inf"])
        assert code == EXIT_CONFIG
        assert "initial_lr must be positive and finite" in capsys.readouterr().err
        assert not (tmp_path / "x" / "metrics.json").exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow on the way to NaN
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_divergent_training_is_a_runtime_failure_that_writes_nothing(
            self, tmp_path, data_dir, capsys, dtype):
        code = main(["train", "--out", str(tmp_path / "run"), "--seed", "0",
                     "--set", f"dataset={data_dir}", "--set", "mode=backbone-only", *TRAIN_ARGS,
                     "--set", f"dtype={dtype}", "--set", "lr=1e200"])
        assert code == EXIT_RUNTIME
        assert re.fullmatch(r"error: training diverged: .* at epoch=\d+, step=\d+, layer=\S+\n",
                            capsys.readouterr().err)
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("setting", ["epochs=0", "lr_decay=1.5"])
    def test_out_of_range_training_setting_rejected(self, tmp_path, data_dir, capsys, setting):
        code = main(["train", "--out", str(tmp_path / "x"), "--seed", "0",
                     "--set", f"dataset={data_dir}", *TRAIN_ARGS, "--set", setting])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: ")
        assert not (tmp_path / "x" / "model.tfn").exists()

    def test_missing_dataset_rejected(self, tmp_path):
        code = main(["train", "--out", str(tmp_path / "x"),
                     "--set", f"dataset={tmp_path / 'absent'}", *TRAIN_ARGS])
        assert code == EXIT_CONFIG

    def test_plain_directory_is_not_a_dataset(self, tmp_path):
        (tmp_path / "junk").mkdir()
        code = main(["train", "--out", str(tmp_path / "x"),
                     "--set", f"dataset={tmp_path / 'junk'}", *TRAIN_ARGS])
        assert code == EXIT_CONFIG

    def test_unknown_mode_rejected(self, tmp_path, data_dir):
        code = main(["train", "--out", str(tmp_path / "x"),
                     "--set", f"dataset={data_dir}", "--set", "mode=banana",
                     *TRAIN_ARGS])
        assert code == EXIT_CONFIG

    def test_config_echo_reproduces_run(self, tmp_path, data_dir, trained_dir):
        out = tmp_path / "replay"
        code = main(["train", "--config", str(trained_dir / "config.echo"),
                     "--out", str(out)])
        assert code == EXIT_OK
        assert (out / "metrics.json").read_bytes() == \
            (trained_dir / "metrics.json").read_bytes()


class TestEval:
    def test_confusion_and_metrics(self, tmp_path, data_dir, trained_dir):
        out = tmp_path / "eval"
        code = main(["eval", "--out", str(out),
                     "--set", f"checkpoint={trained_dir / 'model.tfn'}",
                     "--set", f"dataset={data_dir}"])
        assert code == EXIT_OK
        confusion = np.loadtxt(out / "confusion.csv", delimiter=",", dtype=int)
        assert confusion.shape == (5, 5)
        assert confusion.sum() == 10  # evaluates the test side
        metrics = read_json(out / "metrics.json")
        assert metrics["count"] == 10
        assert 0.0 <= metrics["accuracy"] <= 1.0

    def test_runs_without_output_directory(self, data_dir, trained_dir, capsys):
        code = main(["eval",
                     "--set", f"checkpoint={trained_dir / 'model.tfn'}",
                     "--set", f"dataset={data_dir / 'train'}"])
        assert code == EXIT_OK
        assert "accuracy:" in capsys.readouterr().out

    def test_missing_checkpoint_rejected(self, tmp_path, data_dir):
        code = main(["eval", "--set", f"checkpoint={tmp_path / 'no.tfn'}",
                     "--set", f"dataset={data_dir}"])
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("value", [np.nan, -np.inf])
    def test_non_finite_signal_is_a_dataset_error_naming_the_sample(
            self, tmp_path, data_dir, trained_dir, capsys, value):
        ds = load_dataset(data_dir / "test")
        ds.signals[7, 3] = value
        save_dataset(ds, tmp_path / "bad")
        code = main(["eval", "--out", str(tmp_path / "eval"),
                     "--set", f"checkpoint={trained_dir / 'model.tfn'}",
                     "--set", f"dataset={tmp_path / 'bad'}"])
        assert code == EXIT_CONFIG
        bad = tmp_path / "bad" / DATASET_FILE
        assert capsys.readouterr().err == \
            f"config error: dataset: {bad}: sample 7 holds a non-finite value\n"
        assert not (tmp_path / "eval").exists()

    def test_too_few_model_classes_rejected(self, tmp_path, data_dir, capsys):
        ckpt = tmp_path / "three.tfn"
        save_model(assemble_model("backbone-only", backbone="lenet-1d", n_classes=3), ckpt)
        code = main(["eval", "--set", f"checkpoint={ckpt}", "--set", f"dataset={data_dir}"])
        assert code == EXIT_CONFIG
        assert "labels must lie in [0, 3)" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["eval", "freq-response"])
def test_theta_outside_its_box_blames_the_checkpoint(tmp_path, data_dir, capsys, command):
    model = assemble_model("tfn-add", backbone="lenet-1d", n_channels=2)
    model.tfconv.theta[0, 0] = 0.7
    ckpt = tmp_path / "bad.tfn"
    save_model(model, ckpt)
    code = main([command, "--out", str(tmp_path / "out"), "--set", f"checkpoint={ckpt}",
                 "--set", f"dataset={data_dir}"])
    assert code == EXIT_RUNTIME
    assert f"error: {ckpt}: f out of [0.0, 0.49" in capsys.readouterr().err


@pytest.mark.parametrize("case, message", [
    ("payload-bit-flip", "checksum mismatch"),
    # a version-1 file fails on its magic alone, whatever follows it
    ("format-version-1", "bad magic b'TFN1', expected b'TFN2'"),
    # the file, not the dataset's labels, is at fault
    ("no-classes", "invalid checkpoint header: n_classes must be >= 1, got 0"),
], ids=["payload-bit-flip", "format-version-1", "no-classes"])
def test_corrupt_checkpoint_blames_the_checkpoint(tmp_path, data_dir, capsys, case, message):
    ckpt = tmp_path / "bad.tfn"
    model = assemble_model("tfn-add", backbone="lenet-1d", n_channels=2)
    if case == "no-classes":
        save_with_no_classes(model, ckpt)
    else:
        save_model(model, ckpt)
        raw = bytearray(ckpt.read_bytes())
        if case == "payload-bit-flip":
            raw[-3] ^= 0x10
        else:
            raw[:4] = b"TFN1"
        ckpt.write_bytes(raw)
    code = main(["eval", "--set", f"checkpoint={ckpt}", "--set", f"dataset={data_dir}"])
    assert code == EXIT_RUNTIME
    assert f"error: {ckpt}: {message}" in capsys.readouterr().err


# one manifest edit per case; an invalid count is the reference for the exit code
MANIFEST_EDITS = {
    "count-not-an-integer": ("count", "twelve"),
    "class-names-not-a-list": ("class_names", 5),
    "band-without-upper-edge": ("information_bands", [[0.1]]),
    "bands-not-a-list": ("information_bands", "x"),
    "band-reversed": ("information_bands", [[0.3, 0.1]]),
}


class TestManifestErrors:
    @pytest.mark.parametrize("command", ["train", "freq-response"])
    @pytest.mark.parametrize("key, value", MANIFEST_EDITS.values(), ids=MANIFEST_EDITS)
    def test_bad_manifest_fails_naming_it(self, tmp_path, data_dir, trained_dir, capsys,
                                          command, key, value):
        copy = tmp_path / "ds"
        shutil.copytree(data_dir, copy)
        for side in ("train", "test"):
            edit_header(copy / side / DATASET_FILE, lambda meta: meta.update({key: value}))
        if command == "train":
            args = ["train", "--seed", "0", *TRAIN_ARGS]
        else:
            args = ["freq-response", "--set", f"checkpoint={trained_dir / 'model.tfn'}"]
        code = main([*args, "--out", str(tmp_path / "out"), "--set", f"dataset={copy}"])
        assert code == EXIT_RUNTIME
        # train reads train/ first; freq-response reads the test side
        side = "train" if command == "train" else "test"
        err = capsys.readouterr().err
        assert err.startswith(f"error: {copy / side / DATASET_FILE}: invalid dataset header: ")


@pytest.mark.parametrize("command", ["train", "eval"])
@pytest.mark.parametrize("case", ["signal-bit", "label-bit", "band", "class-name", "truncated"])
def test_corrupt_dataset_blames_the_dataset(tmp_path, data_dir, trained_dir, capsys, command,
                                            case):
    # each edit is left unsigned, so the digest catches it
    copy = tmp_path / "ds"
    shutil.copytree(data_dir, copy)
    side = "train" if command == "train" else "test"
    path = copy / side / DATASET_FILE
    path.write_bytes(corrupt_dataset(path.read_bytes(), case))
    if command == "train":
        args = ["train", "--out", str(tmp_path / "out"), "--seed", "0", *TRAIN_ARGS]
    else:
        args = ["eval", "--set", f"checkpoint={trained_dir / 'model.tfn'}"]
    code = main([*args, "--set", f"dataset={copy}"])
    assert code == EXIT_RUNTIME
    assert capsys.readouterr().err.startswith(f"error: {path}: checksum mismatch: ")


@pytest.mark.parametrize("command, message", [
    ("train", "does not contain train/ and test/ dataset directories"),
    ("eval", "is not a dataset directory"),
], ids=["train", "eval"])
def test_format_1_dataset_directory_is_not_a_dataset(tmp_path, trained_dir, capsys, command,
                                                      message):
    # the files a format-1 gen-data directory held; no dataset.tfd
    for side in ("train", "test"):
        (tmp_path / "ds" / side).mkdir(parents=True)
        for name in ("meta.json", "samples.f64le", "labels.u32le"):
            (tmp_path / "ds" / side / name).write_bytes(b"{}")
    if command == "train":
        args = ["train", "--out", str(tmp_path / "out"), "--seed", "0", *TRAIN_ARGS]
    else:
        args = ["eval", "--set", f"checkpoint={trained_dir / 'model.tfn'}"]
    assert main([*args, "--set", f"dataset={tmp_path / 'ds'}"]) == EXIT_CONFIG
    assert f"config error: dataset: {tmp_path / 'ds'} {message}" in capsys.readouterr().err


class TestFreqResponse:
    def test_response_without_dataset(self, tmp_path, trained_dir):
        out = tmp_path / "fr"
        code = main(["freq-response", "--out", str(out),
                     "--set", f"checkpoint={trained_dir / 'model.tfn'}"])
        assert code == EXIT_OK
        assert (out / "cfr.csv").exists() and (out / "ofr.csv").exists()
        assert not (out / "band_report.txt").exists()
        ofr_lines = (out / "ofr.csv").read_text().splitlines()
        assert len(ofr_lines) == 1 + 513  # 1024-point FFT half spectrum

    def test_band_report_uses_dataset_bands(self, tmp_path, data_dir, trained_dir):
        out = tmp_path / "fr"
        code = main(["freq-response", "--out", str(out),
                     "--set", f"checkpoint={trained_dir / 'model.tfn'}",
                     "--set", f"dataset={data_dir}"])
        assert code == EXIT_OK
        assert (out / "dataset_spectrum.csv").exists()
        lines = (out / "band_report.txt").read_text().splitlines()
        assert lines[0].startswith("mean_distance: ")
        assert [ln.split("]")[0] for ln in lines[1:]] == [
            "band [0.04, 0.06", "band [0.07, 0.09", "band [0.16, 0.2", "band [0.28, 0.32"]

    def test_explicit_bands_override(self, tmp_path, trained_dir):
        out = tmp_path / "fr"
        code = main(["freq-response", "--out", str(out),
                     "--set", f"checkpoint={trained_dir / 'model.tfn'}",
                     "--set", "bands=0.1:0.2"])
        assert code == EXIT_OK
        assert (out / "band_report.txt").read_text().count("band [") == 1

    def test_short_fft_rejected(self, tmp_path, trained_dir):
        code = main(["freq-response", "--out", str(tmp_path / "fr"),
                     "--set", f"checkpoint={trained_dir / 'model.tfn'}",
                     "--set", "n_fft=32"])
        assert code == EXIT_CONFIG

    def test_malformed_bands_rejected(self, tmp_path, trained_dir):
        code = main(["freq-response", "--out", str(tmp_path / "fr"),
                     "--set", f"checkpoint={trained_dir / 'model.tfn'}",
                     "--set", "bands=0.2-0.3"])
        assert code == EXIT_CONFIG

    def test_kernel_taps_and_cfr(self, tmp_path, trained_dir):
        out = tmp_path / "fr"
        code = main(["freq-response", "--out", str(out),
                     "--set", f"checkpoint={trained_dir / 'model.tfn'}",
                     "--set", "n_fft=256"])
        assert code == EXIT_OK
        taps = (out / "kernel_taps.csv").read_text().splitlines()
        assert taps[0] == "channel,n,real,imag"
        assert len(taps) == 1 + 2 * 51  # two channels, 51 taps
        assert len((out / "cfr.csv").read_text().splitlines()) == 1 + 2 * 129

    def test_backbone_checkpoint_reads_stem_conv(self, tmp_path, backbone_dir):
        out = tmp_path / "fr"
        code = main(["freq-response", "--out", str(out),
                     "--set", f"checkpoint={backbone_dir / 'model.tfn'}"])
        assert code == EXIT_OK
        # paper-cnn's stem Conv1d has 16 output channels
        assert len((out / "cfr.csv").read_text().splitlines()) == 1 + 16 * 513
        assert not (out / "kernel_taps.csv").exists()

    def test_force_rerun_is_byte_identical(self, tmp_path, data_dir, trained_dir):
        out = tmp_path / "fr"
        args = ["freq-response", "--out", str(out), "--force",
                "--set", f"checkpoint={trained_dir / 'model.tfn'}",
                "--set", f"dataset={data_dir}"]
        assert main(args) == EXIT_OK
        first = {f.name: f.read_bytes() for f in out.iterdir()}
        assert {"cfr.csv", "ofr.csv", "kernel_taps.csv", "dataset_spectrum.csv",
                "band_report.txt", "config.echo"} == set(first)
        assert main(args) == EXIT_OK
        assert {f.name: f.read_bytes() for f in out.iterdir()} == first

    def test_forced_rerun_leaves_only_the_new_runs_files(self, tmp_path, data_dir, trained_dir,
                                                         backbone_dir):
        full = ["--set", f"checkpoint={trained_dir / 'model.tfn'}", "--set", f"dataset={data_dir}"]
        bare = ["--set", f"checkpoint={backbone_dir / 'model.tfn'}"]
        assert main(["freq-response", "--out", str(tmp_path / "fresh"), *bare]) == EXIT_OK
        out = tmp_path / "fr"
        assert main(["freq-response", "--out", str(out), *full]) == EXIT_OK
        assert (out / "band_report.txt").exists()
        assert main(["freq-response", "--out", str(out), "--force", *bare]) == EXIT_OK
        assert tree_digest(out) == tree_digest(tmp_path / "fresh")


ABLATE_ARGS = ["--set", "epochs=1", "--set", "batch_size=4", "--set", "channels=2"]


def run_ablate(out, data_dir, extra=()):
    return main(["ablate", "--out", str(out), "--seed", "0,1",
                 "--set", f"dataset={data_dir}", *ABLATE_ARGS, *extra])


@pytest.fixture(scope="module")
def ablate_dir(tmp_path_factory, data_dir):
    """An ablate run with its cells one by one."""
    out = tmp_path_factory.mktemp("cli-ablate") / "ablate"
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(core_math, "cpu_pair", lambda: None)
        assert run_ablate(out, data_dir) == EXIT_OK
    return out


class TestAblate:
    def test_grid_layout(self, ablate_dir):
        out = ablate_dir
        lines = (out / "results.csv").read_text().splitlines()
        assert lines[0] == "model,kernel,mean_acc,variance"
        rows = [ln.split(",") for ln in lines[1:]]
        assert [r[0] for r in rows] == [
            "backbone-only", "tfn-add", "tfn-replace", "wkn-add", "wkn-replace", "random-tfn"]
        assert [r[1] for r in rows] == ["-", "sttf", "sttf", "sttf", "sttf", "-"]
        for r in rows:
            assert 0.0 <= float(r[2]) <= 1.0
        cells = sorted(p.name for p in (out / "cells").iterdir())
        assert len(cells) == 12
        assert {"backbone-only-none-s0", "wkn-replace-sttf-s1", "random-tfn-none-s1"} <= set(cells)
        assert set(p.name for p in out.iterdir()) == {"results.csv", "config.echo", "cells"}
        for cell in cells:
            files = {p.name for p in (out / "cells" / cell).iterdir()}
            # every mode but backbone-only has a TFconv front layer
            tfconv = set() if cell.startswith("backbone-only") else {"theta_trajectory.csv"}
            assert files == {"model.tfn", "history.csv", "metrics.json"} | tfconv, cell

    @pytest.mark.parametrize("mode, family, seed", [
        ("tfn-add", "sttf", 1), ("backbone-only", None, 0), ("random-tfn", None, 1)])
    def test_cell_holds_the_train_run_of_its_mode_family_and_seed(
            self, tmp_path, data_dir, ablate_dir, mode, family, seed):
        run = tmp_path / "run"
        code = main(["train", "--out", str(run), "--seed", str(seed),
                     "--set", f"dataset={data_dir}", "--set", f"mode={mode}",
                     "--set", f"family={family or 'sttf'}", *ABLATE_ARGS])
        assert code == EXIT_OK
        want = tree_digest(run)
        del want["config.echo"]
        assert tree_digest(ablate_dir / "cells" / f"{mode}-{family or 'none'}-s{seed}") == want

    def test_two_families_widen_grid(self, tmp_path, data_dir):
        out = tmp_path / "ablate"
        code = run_ablate(out, data_dir, ("--set", "families=sttf,morlet"))
        assert code == EXIT_OK
        lines = (out / "results.csv").read_text().splitlines()
        assert len(lines) == 1 + 1 + 4 * 2 + 1  # backbone, 4 modes x 2 families, random-tfn

    def test_thread_pool_matches_serial(self, tmp_path, data_dir, ablate_dir, monkeypatch):
        monkeypatch.setattr(core_math, "cpu_pair", any_two_cpus)  # two cells at once
        threaded = tmp_path / "threaded"
        assert run_ablate(threaded, data_dir) == EXIT_OK
        # every cell's files as well as results.csv
        assert tree_digest(threaded) == tree_digest(ablate_dir)

    def test_two_cpus_hand_the_helper_the_second_half_of_the_grid(self, tmp_path, data_dir,
                                                                   monkeypatch):
        """One task reaches the helper, the grid's second half of the 12 cells; every cell
        trains on the main thread or on the helper, whose own splits stay serial."""
        helper, tasks, cell_threads, real_train = core_math._HELPER, [], set(), cli.train

        class Recording:
            def submit(self, fn, *args):
                tasks.append(args[-1])  # run_halves hands the helper (cpu, fn, part)
                return helper.submit(fn, *args)

        def train(*args, **kwargs):
            cell_threads.add(threading.current_thread().name)
            return real_train(*args, **kwargs)

        monkeypatch.setattr(core_math, "cpu_pair", any_two_cpus)
        monkeypatch.setattr(core_math, "_HELPER", Recording())
        monkeypatch.setattr(cli, "train", train)
        assert run_ablate(tmp_path / "x", data_dir) == EXIT_OK
        assert tasks == [slice(6, 12)]
        assert {name.split("_")[0] for name in cell_threads} == {
            threading.main_thread().name, "tfnet-helper"}

    def test_forced_rerun_removes_the_cells_its_grid_does_not_write(self, tmp_path, data_dir,
                                                                     ablate_dir):
        out = tmp_path / "ablate"
        shutil.copytree(ablate_dir, out)
        stale = out / "cells" / "tfn-add-sttf-s1"
        (stale / "notes.txt").write_text("kept\n")  # not a file tfnet writes
        code = main(["ablate", "--out", str(out), "--seed", "0", "--force",
                     "--set", f"dataset={data_dir}", *ABLATE_ARGS])
        assert code == EXIT_OK
        cells = sorted(p.name for p in (out / "cells").iterdir())
        assert [name for name in cells if name.endswith("-s1")] == ["tfn-add-sttf-s1"]
        assert [p.name for p in stale.iterdir()] == ["notes.txt"]
        assert len(cells) == 1 + len([n for n in tree_digest(ablate_dir) if n.endswith(
            "-s0/metrics.json")])
        for cell in cells:
            if cell.endswith("-s0"):
                assert tree_digest(out / "cells" / cell) == tree_digest(
                    ablate_dir / "cells" / cell)

    @pytest.mark.parametrize("mode, here", [("tfn-replace", True), ("wkn-replace", False)],
                             ids=["caller-half", "helper-half"])
    def test_failed_cell_drops_only_its_group(self, tmp_path, data_dir, ablate_dir, monkeypatch,
                                              capsys, mode, here):
        """With two CPUs, whichever half of the grid the failing group lies in."""
        real_train, failed_here = cli.train, set()

        def train(model, *args, **kwargs):
            if model.mode == mode:
                failed_here.add(threading.current_thread() is threading.main_thread())
                raise RuntimeError("injected cell failure")
            return real_train(model, *args, **kwargs)

        monkeypatch.setattr(core_math, "cpu_pair", any_two_cpus)
        monkeypatch.setattr(cli, "train", train)
        failed = tmp_path / "failed"
        assert run_ablate(failed, data_dir) == EXIT_RUNTIME
        assert f"ablation cell {mode}-sttf-s0 failed" in capsys.readouterr().err
        assert failed_here == {here}
        want = [ln for ln in (ablate_dir / "results.csv").read_text().splitlines()
                if not ln.startswith(f"{mode},")]
        assert len(want) == 1 + 5
        assert (failed / "results.csv").read_text().splitlines() == want

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow on the way to NaN
    def test_divergent_cell_fails_naming_its_label(self, tmp_path, data_dir, capsys):
        out = tmp_path / "x"
        assert run_ablate(out, data_dir, ("--set", "lr=1e200")) == EXIT_RUNTIME
        assert re.match(r"error: ablation cell backbone-only-none-s0 failed \(training diverged: "
                        r".* at epoch=1, step=\d+, layer=\S+\)", capsys.readouterr().err)
        assert list((out / "cells").iterdir()) == []

    def test_plain_directory_is_rejected_before_any_cell(self, tmp_path):
        (tmp_path / "junk").mkdir()
        out = tmp_path / "x"
        assert run_ablate(out, tmp_path / "junk") == EXIT_CONFIG
        assert not (out / "results.csv").exists() and not (out / "cells").exists()

    @pytest.mark.parametrize("setting", ["channels=0", "lr=inf", "epochs=0"])
    def test_setting_train_rejects_fails_before_any_cell(self, tmp_path, data_dir, monkeypatch,
                                                         setting):
        def train(*args, **kwargs):
            raise AssertionError("a cell ran")

        monkeypatch.setattr(cli, "train", train)
        out = tmp_path / "x"
        assert run_ablate(out, data_dir, ("--set", setting)) == EXIT_CONFIG
        assert not (out / "results.csv").exists() and not (out / "cells").exists()

    def test_random_family_not_ablatable(self, tmp_path, data_dir):
        code = run_ablate(tmp_path / "x", data_dir,
                               ("--set", "families=random"))
        assert code == EXIT_CONFIG


class TestArgumentPlumbing:
    def test_config_file_with_comments(self, tmp_path, data_dir):
        cfg = tmp_path / "train.cfg"
        cfg.write_text(
            "# training setup\n"
            f"dataset = {data_dir}\n"
            "epochs = 2\nbatch_size = 4\nchannels = 2\n\nseed = 0\n"
        )
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == EXIT_OK

    def test_malformed_config_line(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("this is not a key value pair\n")
        assert main(["train", "--config", str(cfg)]) == EXIT_CONFIG

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["train", "--config", str(tmp_path / "no.cfg")]) == EXIT_CONFIG
        assert capsys.readouterr().err == \
            f"config error: config file {tmp_path / 'no.cfg'} not found\n"

    def test_config_name_too_long_for_the_os_names_it(self, tmp_path, capsys):
        cfg = tmp_path / ("a" * 300)  # past the 255-byte limit of a file name
        assert main(["train", "--config", str(cfg)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"config error: config file {cfg}: ")

    def test_bad_set_syntax(self, tmp_path):
        assert main(["gen-data", "--out", str(tmp_path / "x"),
                     "--set", "epochs"]) == EXIT_CONFIG

    @pytest.mark.parametrize("command, key, other", [
        ("train", "dataset", None),
        ("eval", "checkpoint", "dataset"),
        ("eval", "dataset", "checkpoint"),
        ("freq-response", "checkpoint", None),
        ("ablate", "dataset", None),
    ])
    def test_required_path_set_empty_names_key(self, tmp_path, data_dir, trained_dir, capsys,
                                               command, key, other):
        paths = {"dataset": data_dir, "checkpoint": trained_dir / "model.tfn"}
        args = [command, "--out", str(tmp_path / "x"), "--set", f"{key}="]
        if other is not None:
            args += ["--set", f"{other}={paths[other]}"]
        assert main(args) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == f"config error: {key}: a path is required, got an empty value\n"

    @pytest.mark.parametrize("key, other", [("checkpoint", "dataset"), ("dataset", "checkpoint")])
    def test_path_too_long_for_the_os_names_key(self, tmp_path, data_dir, trained_dir, capsys,
                                                key, other):
        paths = {"dataset": data_dir, "checkpoint": trained_dir / "model.tfn"}
        long_name = "a" * 300  # past the 255-byte limit of a file name
        assert main(["eval", "--set", f"{key}={long_name}",
                     "--set", f"{other}={paths[other]}"]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"config error: {key}: path {long_name}: ")

    def test_optional_path_set_empty_is_skipped(self, tmp_path, trained_dir):
        out = tmp_path / "fr"
        code = main(["freq-response", "--out", str(out), "--set", "dataset=",
                     "--set", f"checkpoint={trained_dir / 'model.tfn'}"])
        assert code == EXIT_OK
        assert not (out / "dataset_spectrum.csv").exists()

    def test_unknown_key_names_offender(self, tmp_path, capsys):
        code = main(["gen-data", "--out", str(tmp_path / "x"),
                     "--set", "bogus=1"])
        assert code == EXIT_CONFIG
        assert "bogus" in capsys.readouterr().err


# every config error message, exact; "{tmp}" is the test's tmp_path, "{data}" a gen-data run
# and "{ckpt}" a trained checkpoint
CONFIG_ERRORS = {
    "int": (["gen-data", "--out", "{tmp}/x", "--set", "samples_per_class=x"],
            "samples_per_class: expected an integer, got 'x'"),
    "float": (["gen-data", "--out", "{tmp}/x", "--set", "noise_sigma=x"],
              "noise_sigma: expected a number, got 'x'"),
    "bool": (["gen-data", "--out", "{tmp}/x", "--set", "force=maybe"],
             "force: expected a boolean, got 'maybe'"),
    "seeds-not-integers": (["gen-data", "--out", "{tmp}/x", "--seed", "0,a"],
                           "seed: expected comma-separated integers, got '0,a'"),
    "no-seed": (["gen-data", "--out", "{tmp}/x", "--seed", ","],
                "seed: at least one seed is required"),
    "two-seeds": (["gen-data", "--out", "{tmp}/x", "--seed", "0,1"],
                  "seed: this command expects a single seed, got 2"),
    "band-without-colon": (["gen-data", "--out", "{tmp}/x", "--set", "bands=0.2-0.3"],
                           "bands: band '0.2-0.3' must be 'lo:hi'"),
    "band-not-numeric": (["gen-data", "--out", "{tmp}/x", "--set", "bands=0.1:0.2, 0.1:x"],
                         "bands: band '0.1:x' is not numeric"),
    "invalid-value": (["train", "--out", "{tmp}/x", "--set", "dataset={data}",
                       "--set", "mode=banana"],
                      "mode: invalid value 'banana'; choose from backbone-only, tfn-add, "
                      "tfn-replace, wkn-add, wkn-replace, random-tfn"),
    "repeated-seed": (["ablate", "--out", "{tmp}/x", "--set", "dataset={data}", "--seed", "0,0"],
                      "seed: entry '0' is repeated"),
    "repeated-family": (["ablate", "--out", "{tmp}/x", "--set", "dataset={data}",
                         "--set", "families=sttf,morlet,sttf"],
                        "families: entry 'sttf' is repeated"),
    "repeated-band": (["freq-response", "--out", "{tmp}/x", "--set", "checkpoint={ckpt}",
                       "--set", "bands=0.04:0.06,0.1:0.2,0.04:0.06"],
                      "bands: entry '0.04:0.06' is repeated"),
    "invalid-entry": (["ablate", "--out", "{tmp}/x", "--set", "dataset={data}",
                       "--set", "families=sttf,random"],
                      "families: invalid entry 'random'; choose from sttf, chirplet, morlet, "
                      "laplace"),
    "path-absent": (["train", "--out", "{tmp}/x", "--set", "dataset={tmp}/absent"],
                    "dataset: path {tmp}/absent does not exist"),
    "missing-key": (["train", "--out", "{tmp}/x"],
                    "train: missing required config key 'dataset'"),
    "unknown-key": (["gen-data", "--out", "{tmp}/x", "--set", "bogus=1"],
                    "unknown config key 'bogus' for command gen-data"),
    "out-not-empty": (["gen-data", "--out", "{data}"],
                      "output directory {data} is not empty (use --force)"),
    "out-missing": (["gen-data"], "missing output directory (set 'out' or pass --out)"),
}


@pytest.mark.parametrize("args, message", CONFIG_ERRORS.values(), ids=CONFIG_ERRORS)
def test_config_error_message(tmp_path, data_dir, trained_dir, capsys, args, message):
    fill = {"tmp": tmp_path, "data": data_dir, "ckpt": trained_dir / "model.tfn"}
    assert main([a.format(**fill) for a in args]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: {message.format(**fill)}\n"


@pytest.mark.parametrize("case", [case for case, (args, _) in CONFIG_ERRORS.items()
                                  if any("{tmp}" in a for a in args)])
def test_config_error_writes_nothing(tmp_path, data_dir, trained_dir, case):
    fill = {"tmp": tmp_path, "data": data_dir, "ckpt": trained_dir / "model.tfn"}
    assert main([a.format(**fill) for a in CONFIG_ERRORS[case][0]]) == EXIT_CONFIG
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["eval", "freq-response"])
@pytest.mark.parametrize("problem", ["unknown-key", "out-not-empty"])
def test_out_and_keys_are_checked_before_the_checkpoint_loads(
        tmp_path, data_dir, trained_dir, monkeypatch, capsys, command, problem):
    out = tmp_path / "out"
    args = [command, "--out", str(out), "--set", f"checkpoint={trained_dir / 'model.tfn'}",
            "--set", f"dataset={data_dir}"]
    if problem == "unknown-key":
        args += ["--set", "bogus=1"]
    else:
        out.mkdir()
        (out / "keep.txt").write_text("x")
    loads = []
    monkeypatch.setattr(cli, "load_model", lambda path: loads.append(path))
    assert main(args) == EXIT_CONFIG
    assert loads == []
    assert capsys.readouterr().err.startswith(
        "config error: unknown config key 'bogus'" if problem == "unknown-key"
        else f"config error: output directory {out} is not empty")


@pytest.mark.parametrize("command", ["gen-data", "train", "ablate"])
def test_negative_seed_names_seed(tmp_path, data_dir, capsys, command):
    args = [command, "--out", str(tmp_path / "x"), "--seed=-1"]
    if command != "gen-data":
        args += ["--set", f"dataset={data_dir}"]
    assert main(args) == EXIT_CONFIG
    assert capsys.readouterr().err == \
        "config error: seed: expected non-negative integers, got '-1'\n"
    assert not (tmp_path / "x").exists()


class TestUnreadableInputs:
    def test_config_directory_names_it(self, tmp_path, capsys):
        assert main(["train", "--config", str(tmp_path)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"config error: config file {tmp_path}: ")

    def test_config_not_utf8_names_it(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"epochs = \xff\n")
        assert main(["train", "--config", str(cfg)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"config error: config file {cfg}: ")

    def test_out_is_a_file(self, tmp_path, capsys):
        (tmp_path / "f").write_text("")
        assert main(["gen-data", "--out", str(tmp_path / "f"), *GEN_ARGS]) == EXIT_CONFIG
        assert capsys.readouterr().err == \
            f"config error: out: {tmp_path / 'f'} is not a directory\n"

    def test_out_too_long_for_the_os_names_it(self, tmp_path, capsys):
        out = tmp_path / ("a" * 300)  # past the 255-byte limit of a file name
        assert main(["gen-data", "--out", str(out), "--seed", "0", *GEN_ARGS]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: out: {out}: File name too long\n"
        assert list(tmp_path.iterdir()) == []

    def test_out_too_long_below_a_new_directory_names_it(self, tmp_path, capsys):
        # the missing parent hides the long name from exists(); mkdir meets it
        out = tmp_path / "new" / ("a" * 300)
        assert main(["gen-data", "--out", str(out), "--seed", "0", *GEN_ARGS]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: out: {out}: File name too long\n"
        assert not (tmp_path / "new").exists()

    def test_gen_data_out_below_a_file_names_the_file(self, tmp_path, capsys):
        (tmp_path / "f").write_text("")
        args = ["gen-data", "--out", str(tmp_path / "f" / "sub"), "--seed", "0", *GEN_ARGS]
        assert main(args) == EXIT_CONFIG
        assert capsys.readouterr().err == \
            f"config error: out: {tmp_path / 'f'} is not a directory\n"
        assert sorted(tmp_path.iterdir()) == [tmp_path / "f"]

    def test_eval_out_below_a_file_names_the_file(self, tmp_path, data_dir, trained_dir, capsys):
        (tmp_path / "f").write_text("")
        args = ["eval", "--out", str(tmp_path / "f" / "a" / "b"),
                "--set", f"checkpoint={trained_dir / 'model.tfn'}", "--set", f"dataset={data_dir}"]
        assert main(args) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err == f"config error: out: {tmp_path / 'f'} is not a directory\n"
        assert captured.out == ""
        assert sorted(tmp_path.iterdir()) == [tmp_path / "f"]


# runs made here; gen-data and train replay the data_dir and trained_dir fixtures
REPLAY_RUNS = {
    "eval": ["eval", "--set", "checkpoint={ckpt}", "--set", "dataset={data}"],
    "freq-response": ["freq-response", "--set", "checkpoint={ckpt}", "--set", "dataset={data}",
                      "--set", "bands=0.1:0.2"],
    "ablate": ["ablate", "--seed", "0", "--set", "dataset={data}", "--set", "epochs=1",
               "--set", "batch_size=4", "--set", "channels=2", "--set", "backbone=lenet-1d"],
}


@pytest.mark.parametrize("command", ["gen-data", "train", "eval", "freq-response", "ablate"])
def test_config_echo_replay_echoes_the_same(tmp_path, data_dir, trained_dir, command):
    fill = {"data": data_dir, "ckpt": trained_dir / "model.tfn"}
    run = {"gen-data": data_dir, "train": trained_dir}.get(command, tmp_path / "run")
    if command in REPLAY_RUNS:
        args = [a.format(**fill) for a in REPLAY_RUNS[command]]
        assert main([*args, "--out", str(run)]) == EXIT_OK
    replay = tmp_path / "replay"
    assert main([command, "--config", str(run / "config.echo"), "--out", str(replay)]) == EXIT_OK
    assert (replay / "config.echo").read_bytes() == (run / "config.echo").read_bytes()


# gen-data, a float64 paper-cnn train, a float32 lenet-1d train and a one-family, one-seed
# ablate grid, at a size where the float64 weight-gradient GEMMs get other bits at 1 and 2
# OpenBLAS threads, so the files differ if the setting reaches numpy's BLAS
BLAS_SEQUENCE = """
import sys
from tfnet.cli import main
common = ["--set", "dataset=data", "--set", "epochs=1", "--set", "batch_size=8",
          "--set", "channels=2"]
for argv in (["gen-data", "--out", "data", "--seed", "0", "--set", "samples_per_class=6"],
             ["train", "--out", "f64", "--seed", "0", *common],
             ["train", "--out", "f32", "--seed", "0", *common, "--set", "dtype=float32",
              "--set", "backbone=lenet-1d"],
             ["ablate", "--out", "ablate", "--seed", "0", *common]):
    if main(argv) != 0:
        sys.exit(f"{argv[0]} failed")
"""


def test_artifacts_do_not_depend_on_the_blas_setting(tmp_path):
    """The same runs, in processes at ``OPENBLAS_NUM_THREADS`` 1, 2 and unset, write equal bytes."""
    src = str(Path(cli.__file__).parents[1])
    runs = {}
    for setting in ("1", "2", None):
        env = dict(os.environ, PYTHONPATH=src)
        env.pop("OPENBLAS_NUM_THREADS", None)
        if setting is not None:
            env["OPENBLAS_NUM_THREADS"] = setting
        cwd = tmp_path / f"blas-{setting or 'unset'}"
        cwd.mkdir()
        runs[cwd] = subprocess.Popen([sys.executable, "-c", BLAS_SEQUENCE], cwd=cwd, env=env,
                                     stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    for cwd, child in runs.items():
        _, err = child.communicate(timeout=300)
        assert child.returncode == 0, f"{cwd.name}: {err}"
    first, *others = [tree_digest(cwd) for cwd in runs]
    assert {"f64/model.tfn", "f32/model.tfn", "ablate/results.csv"} <= first.keys()
    assert len([name for name in first if name.endswith("model.tfn")]) == 2 + 6
    assert all(other == first for other in others)
