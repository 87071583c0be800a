"""End-to-end command-line workflows on small synthetic datasets."""

import json
import shutil

import numpy as np
import pytest

from helpers import CHECKPOINT_CORRUPTIONS, corrupt_first_block
from tfnet import cli
from tfnet.checkpoint import save_model
from tfnet.cli import EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, main
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


class TestGenData:
    def test_outputs(self, data_dir):
        manifest = read_json(data_dir / "manifest.json")
        # per class: round(0.6 * 6) = 4 train, 2 test
        assert manifest["train_count"] == 20 and manifest["test_count"] == 10
        assert len(manifest["classes"]) == 5
        assert len(manifest["information_bands"]) == 4
        for side, count in (("train", 20), ("test", 10)):
            meta = read_json(data_dir / side / "meta.json")
            assert meta["count"] == count
            raw = (data_dir / side / "samples.f64le").read_bytes()
            assert len(raw) == count * 128 * 8

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
        assert (trained_dir / "model.tfn").read_bytes()[:4] == b"TFN1"
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
        meta = read_json(copy / "train" / "meta.json")
        meta["class_names"] = meta["class_names"][:3]
        (copy / "train" / "meta.json").write_text(json.dumps(meta))
        code = main(["train", "--out", str(tmp_path / "x"), "--seed", "0",
                     "--set", f"dataset={copy}", *TRAIN_ARGS])
        assert code == EXIT_CONFIG
        assert "labels must lie in [0, 3)" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["backbone-only", "tfn-add"])
    def test_infinite_learning_rate_rejected(self, tmp_path, data_dir, capsys, mode):
        code = main(["train", "--out", str(tmp_path / "x"), "--seed", "0",
                     "--set", f"dataset={data_dir}", "--set", f"mode={mode}", *TRAIN_ARGS,
                     "--set", "lr=inf"])
        assert code == EXIT_CONFIG
        assert "initial_lr must be positive and finite" in capsys.readouterr().err
        assert not (tmp_path / "x" / "metrics.json").exists()

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


@pytest.mark.parametrize("case", CHECKPOINT_CORRUPTIONS)
def test_corrupt_checkpoint_block_blames_the_checkpoint(tmp_path, data_dir, capsys, case):
    ckpt = tmp_path / "bad.tfn"
    save_model(assemble_model("tfn-add", backbone="lenet-1d", n_channels=2), ckpt)
    ckpt.write_bytes(corrupt_first_block(ckpt.read_bytes(), case))
    code = main(["eval", "--set", f"checkpoint={ckpt}", "--set", f"dataset={data_dir}"])
    assert code == EXIT_RUNTIME
    assert f"error: {ckpt}: " in capsys.readouterr().err


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
            meta = read_json(copy / side / "meta.json")
            meta[key] = value
            (copy / side / "meta.json").write_text(json.dumps(meta))
        if command == "train":
            args = ["train", "--seed", "0", *TRAIN_ARGS]
        else:
            args = ["freq-response", "--set", f"checkpoint={trained_dir / 'model.tfn'}"]
        code = main([*args, "--out", str(tmp_path / "out"), "--set", f"dataset={copy}"])
        assert code == EXIT_RUNTIME
        # train reads train/ first; freq-response reads the test side
        side = "train" if command == "train" else "test"
        err = capsys.readouterr().err
        assert err.startswith(f"error: {copy / side / 'meta.json'}: invalid manifest: ")


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
        report = (out / "band_report.txt").read_text()
        assert "hits:" in report and report.count("band [") == 4

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


class TestAblate:
    def run_ablate(self, out, data_dir, extra=()):
        return main(["ablate", "--out", str(out), "--seed", "0,1",
                     "--set", f"dataset={data_dir}", "--set", "epochs=1",
                     "--set", "batch_size=4", "--set", "channels=2", *extra])

    def test_grid_layout(self, tmp_path, data_dir):
        out = tmp_path / "ablate"
        assert self.run_ablate(out, data_dir) == EXIT_OK
        lines = (out / "results.csv").read_text().splitlines()
        assert lines[0] == "model,kernel,mean_acc,variance"
        rows = [ln.split(",") for ln in lines[1:]]
        assert [r[0] for r in rows] == [
            "backbone-only", "tfn-add", "tfn-replace", "wkn-add", "wkn-replace"]
        assert rows[0][1] == "-"
        assert all(r[1] == "sttf" for r in rows[1:])
        for r in rows:
            assert 0.0 <= float(r[2]) <= 1.0
        cells = sorted(p.name for p in (out / "cells").iterdir())
        assert len(cells) == 10
        assert "backbone-only-none-s0" in cells and "wkn-replace-sttf-s1" in cells
        assert (out / "cells" / "tfn-add-sttf-s1" / "history.csv").exists()

    def test_two_families_widen_grid(self, tmp_path, data_dir):
        out = tmp_path / "ablate"
        code = self.run_ablate(out, data_dir, ("--set", "families=sttf,morlet"))
        assert code == EXIT_OK
        lines = (out / "results.csv").read_text().splitlines()
        assert len(lines) == 1 + 1 + 4 * 2  # backbone + 4 modes x 2 families

    def test_thread_pool_matches_serial(self, tmp_path, data_dir, monkeypatch):
        serial = tmp_path / "serial"
        assert self.run_ablate(serial, data_dir) == EXIT_OK
        monkeypatch.setenv("TFN_THREADS", "2")
        threaded = tmp_path / "threaded"
        assert self.run_ablate(threaded, data_dir) == EXIT_OK
        assert (serial / "results.csv").read_text() == \
            (threaded / "results.csv").read_text()

    def test_failed_cell_drops_only_its_group(self, tmp_path, data_dir, monkeypatch, capsys):
        clean = tmp_path / "clean"
        assert self.run_ablate(clean, data_dir) == EXIT_OK
        real_train = cli.train

        def train(model, *args, **kwargs):
            if model.mode == "tfn-replace":
                raise RuntimeError("injected cell failure")
            return real_train(model, *args, **kwargs)

        monkeypatch.setattr(cli, "train", train)
        failed = tmp_path / "failed"
        assert self.run_ablate(failed, data_dir) == EXIT_RUNTIME
        assert "ablation cell tfn-replace-sttf-s0 failed" in capsys.readouterr().err
        want = [ln for ln in (clean / "results.csv").read_text().splitlines()
                if not ln.startswith("tfn-replace,")]
        assert len(want) == 1 + 4
        assert (failed / "results.csv").read_text().splitlines() == want

    def test_plain_directory_is_rejected_before_any_cell(self, tmp_path):
        (tmp_path / "junk").mkdir()
        out = tmp_path / "x"
        assert self.run_ablate(out, tmp_path / "junk") == EXIT_CONFIG
        assert not (out / "results.csv").exists() and not (out / "cells").exists()

    @pytest.mark.parametrize("setting", ["channels=0", "lr=inf", "epochs=0"])
    def test_setting_train_rejects_fails_before_any_cell(self, tmp_path, data_dir, monkeypatch,
                                                         setting):
        def train(*args, **kwargs):
            raise AssertionError("a cell ran")

        monkeypatch.setattr(cli, "train", train)
        out = tmp_path / "x"
        assert self.run_ablate(out, data_dir, ("--set", setting)) == EXIT_CONFIG
        assert not (out / "results.csv").exists() and not (out / "cells").exists()

    def test_random_family_not_ablatable(self, tmp_path, data_dir):
        code = self.run_ablate(tmp_path / "x", data_dir,
                               ("--set", "families=random"))
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("value", ["zero", "0"])
    def test_bad_thread_env_rejected(self, tmp_path, data_dir, monkeypatch, value):
        monkeypatch.setenv("TFN_THREADS", value)
        assert self.run_ablate(tmp_path / "x", data_dir) == EXIT_CONFIG


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

    def test_missing_config_file(self, tmp_path):
        assert main(["train", "--config", str(tmp_path / "no.cfg")]) == EXIT_CONFIG

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
