"""Optimizer, training loop, evaluation."""

import dataclasses
import os
import threading

import numpy as np
import pytest

from helpers import any_two_cpus, training_steps
from tfnet.checkpoint import save_model
from tfnet.kernels import KernelFamily, check_theta, init_params
from tfnet import core_math, nn, training
from tfnet.nn import (AdaptiveAvgPool, Conv1d, Dense, Flatten, Model, ReLU, TFconvLayer,
                      assemble_model, fold_batchnorm)
from tfnet.training import Adam, TrainConfig, evaluate, standardize, train


def micro_backbone(seed=0, n_classes=3, dtype=np.float64):
    rng = np.random.default_rng(seed)
    layers = [
        Conv1d(1, 4, 5, rng, dtype=dtype),
        ReLU(),
        AdaptiveAvgPool(4),
        Flatten(),
        Dense(16, n_classes, rng, dtype=dtype),
    ]
    return Model(layers, mode="backbone-only", backbone="micro")


def micro_tfn(seed=0, n_classes=3):
    rng = np.random.default_rng(seed)
    layers = [
        TFconvLayer(KernelFamily.STTF, init_params(KernelFamily.STTF, 2, seed=seed)),
        Conv1d(2, 4, 3, rng),
        ReLU(),
        AdaptiveAvgPool(4),
        Flatten(),
        Dense(16, n_classes, rng),
    ]
    return Model(layers, mode="tfn-add", backbone="micro")


def tone_problem(n_per_class=12, length=128, seed=0):
    """Three pure tones at well-separated frequencies, trivially separable."""
    rng = np.random.default_rng(seed)
    freqs = [0.05, 0.2, 0.4]
    xs, ys = [], []
    for label, f in enumerate(freqs):
        t = np.arange(length)
        for _ in range(n_per_class):
            phase = rng.uniform(0, 2 * np.pi)
            xs.append(np.sin(2 * np.pi * f * t + phase) + 0.05 * rng.normal(size=length))
            ys.append(label)
    return np.asarray(xs), np.asarray(ys)


class TestTrainConfig:
    def test_defaults(self):
        cfg = TrainConfig()
        assert cfg.epochs == 50 and cfg.batch_size == 64
        assert cfg.initial_lr == 1e-3 and cfg.lr_decay == 0.96
        assert (cfg.seed, cfg.dtype) == (0, "float64")
        assert len(dataclasses.fields(TrainConfig)) == 6
        assert (Adam.beta1, Adam.beta2, Adam.eps) == (0.9, 0.999, 1e-8)

    @pytest.mark.parametrize("kwargs", [
        {"epochs": 0},
        {"batch_size": 1},
        {"initial_lr": 0.0},
        {"initial_lr": float("inf")},
        {"initial_lr": float("nan")},
        {"lr_decay": float("nan")},
        {"lr_decay": 0.0},
        {"lr_decay": 1.5},
        {"dtype": "float16"},
    ])
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs)


class TestStandardize:
    def test_zero_mean_unit_variance_per_sample(self):
        x = np.random.default_rng(0).normal(loc=3.0, scale=7.0, size=(5, 200))
        z = standardize(x)
        np.testing.assert_allclose(z.mean(axis=-1), 0.0, atol=1e-12)
        np.testing.assert_allclose(z.std(axis=-1), 1.0, atol=1e-6)

    def test_constant_signal_stays_finite(self):
        z = standardize(np.full((1, 64), 4.2))
        assert np.all(np.isfinite(z))
        np.testing.assert_allclose(z, 0.0, atol=1e-12)

    def test_dtype_control(self):
        z = standardize(np.zeros((1, 8)), dtype=np.float32)
        assert z.dtype == np.float32


class TestAdam:
    def test_first_step_is_signed_learning_rate(self):
        # with bias correction the first update is lr * g/(|g| + eps*corr)
        p = np.array([1.0, -2.0, 3.0])
        opt = Adam([p])
        g = np.array([0.5, -0.1, 2.0])
        opt.step([g], lr=1e-2)
        np.testing.assert_allclose(p, [1.0 - 1e-2, -2.0 + 1e-2, 3.0 - 1e-2], atol=1e-8)

    def test_zero_gradient_keeps_parameter(self):
        p = np.array([1.0])
        opt = Adam([p])
        opt.step([np.array([0.0])], lr=0.1)
        np.testing.assert_array_equal(p, [1.0])

    def test_updates_in_place(self):
        p = np.ones(3)
        ref = p
        Adam([p]).step([np.ones(3)], lr=0.01)
        assert ref is p and not np.array_equal(p, np.ones(3))

    def test_mismatched_lists_rejected(self):
        opt = Adam([np.zeros(2)])
        with pytest.raises(ValueError):
            opt.step([np.zeros(2), np.zeros(2)], lr=0.1)

    def test_matches_reference_formula_over_steps(self):
        rng = np.random.default_rng(1)
        p = rng.normal(size=4)
        p_ref = p.copy()
        opt = Adam([p])
        m = np.zeros(4)
        v = np.zeros(4)
        for t in range(1, 6):
            g = rng.normal(size=4)
            opt.step([g], lr=1e-3)
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            mhat = m / (1 - 0.9**t)
            vhat = v / (1 - 0.999**t)
            p_ref -= 1e-3 * mhat / (np.sqrt(vhat) + 1e-8)
            np.testing.assert_allclose(p, p_ref, atol=1e-12)


class TestTrainLoop:
    def test_learns_separable_tones(self):
        x, y = tone_problem()
        model = micro_backbone(seed=0)
        cfg = TrainConfig(epochs=40, batch_size=12, seed=0, initial_lr=3e-2)
        hist = train(model, x, y, x, y, cfg)
        assert hist.train_acc[-1] == 1.0
        assert hist.test_acc[-1] == 1.0
        assert hist.train_loss[-1] < 0.1

    def test_history_bookkeeping(self, monkeypatch):
        x, y = tone_problem(n_per_class=4)
        model = micro_tfn(seed=1)
        cfg = TrainConfig(epochs=3, batch_size=6, seed=1)
        lrs, step = [], Adam.step

        def recording(opt, grads, lr):
            lrs.append(lr)
            step(opt, grads, lr)

        monkeypatch.setattr(Adam, "step", recording)
        hist = train(model, x, y, x, y, cfg)
        assert len(hist.train_loss) == len(hist.train_acc) == len(hist.test_acc) == 3
        # 12 samples in batches of 6: two steps per epoch at that epoch's rate
        np.testing.assert_allclose(lrs, np.repeat([1e-3, 1e-3 * 0.96, 1e-3 * 0.96**2], 2))
        # initial state plus one snapshot per epoch
        assert len(hist.theta_snapshots) == 4
        assert hist.final_test_acc == hist.test_acc[-1]

    def test_no_test_set_no_test_history(self):
        x, y = tone_problem(n_per_class=3)
        hist = train(micro_backbone(seed=2), x, y, config=TrainConfig(epochs=2, batch_size=4))
        assert hist.test_acc == []
        with pytest.raises(ValueError):
            _ = hist.final_test_acc

    def test_no_backward_state_kept_after_training(self):
        # without a test set no inference forward runs after the last step
        x, y = tone_problem(n_per_class=3)
        model = micro_tfn(seed=2)
        train(model, x, y, config=TrainConfig(epochs=1, batch_size=4))
        with pytest.raises(RuntimeError, match="dense: backward needs forward"):
            model.backward(np.zeros((4, 3)))
        with pytest.raises(RuntimeError, match="tfconvlayer: backward needs forward"):
            model.tfconv.backward(np.zeros((4, 2, 128)))

    def test_backbone_history_has_no_theta(self):
        x, y = tone_problem(n_per_class=3)
        hist = train(micro_backbone(seed=3), x, y, config=TrainConfig(epochs=2, batch_size=4))
        assert hist.theta_snapshots == []

    def test_deterministic_per_seed(self):
        x, y = tone_problem(n_per_class=4)
        results = []
        for _ in range(2):
            model = micro_tfn(seed=4)
            hist = train(model, x, y, x, y, TrainConfig(epochs=3, batch_size=6, seed=4))
            results.append((hist, [p.copy() for p in model.parameters()]))
        (h1, p1), (h2, p2) = results
        assert h1.train_loss == h2.train_loss
        assert h1.test_acc == h2.test_acc
        for a, b in zip(p1, p2):
            np.testing.assert_array_equal(a, b)

    def test_seed_changes_trajectory(self):
        x, y = tone_problem(n_per_class=4)
        losses = []
        for seed in (0, 1):
            model = micro_backbone(seed=5)
            hist = train(model, x, y, config=TrainConfig(epochs=2, batch_size=6, seed=seed))
            losses.append(tuple(hist.train_loss))
        assert losses[0] != losses[1]

    def test_dataset_smaller_than_batch_trains_whole(self):
        x, y = tone_problem(n_per_class=2, seed=6)
        hist = train(micro_backbone(seed=6), x, y, config=TrainConfig(epochs=2, batch_size=64))
        assert len(hist.train_loss) == 2

    def test_kernel_constraints_hold_after_training(self):
        x, y = tone_problem(n_per_class=4)
        model = micro_tfn(seed=7)
        train(model, x, y, config=TrainConfig(epochs=5, batch_size=6, seed=7,
                                              initial_lr=5e-2))
        check_theta(model.tfconv.family, model.tfconv.theta)

    def test_kernel_parameters_actually_move(self):
        x, y = tone_problem(n_per_class=4)
        model = micro_tfn(seed=8)
        before = model.tfconv.theta.copy()
        train(model, x, y, config=TrainConfig(epochs=3, batch_size=6, seed=8))
        assert not np.array_equal(before, model.tfconv.theta)

    def test_dtype_mismatch_rejected(self):
        x, y = tone_problem(n_per_class=2)
        model = micro_backbone(seed=9)  # float64 weights
        with pytest.raises(ValueError):
            train(model, x, y, config=TrainConfig(epochs=1, dtype="float32"))
        assert model.dtype == np.float64

    def test_float32_training_runs(self):
        x, y = tone_problem(n_per_class=4)
        model = micro_backbone(seed=10, dtype=np.float32)
        hist = train(model, x.astype(np.float32), y,
                     config=TrainConfig(epochs=2, batch_size=6, dtype="float32"))
        assert np.isfinite(hist.train_loss).all()

    def test_bad_labels_rejected(self):
        x, y = tone_problem(n_per_class=2)
        with pytest.raises(ValueError):
            train(micro_backbone(seed=11), x, y + 10, config=TrainConfig(epochs=1))
        # a bad test label fails up front, before any step changes the model
        model = micro_backbone(seed=11)
        before = [p.copy() for p in model.parameters()]
        with pytest.raises(ValueError, match="labels must lie in"):
            train(model, x, y, x, np.where(y == 2, -1, y), config=TrainConfig(epochs=1))
        for p, p0 in zip(model.parameters(), before):
            np.testing.assert_array_equal(p, p0)

    @pytest.mark.parametrize("given", ["signals", "labels"])
    def test_half_a_test_set_rejected(self, given):
        x, y = tone_problem(n_per_class=2)
        model = micro_backbone(seed=11)
        before = [p.copy() for p in model.parameters()]
        test = (x, None) if given == "signals" else (None, y)
        with pytest.raises(ValueError, match="must be given together"):
            train(model, x, y, *test, config=TrainConfig(epochs=1))
        for p, p0 in zip(model.parameters(), before):
            np.testing.assert_array_equal(p, p0)

    @pytest.mark.parametrize("make", [micro_backbone, micro_tfn], ids=["backbone", "tfn"])
    def test_one_channel_axis_rejected(self, make):
        x, y = tone_problem(n_per_class=2)
        model = make(seed=11)
        before = [p.copy() for p in model.parameters()]
        with pytest.raises(ValueError, match=r"\(B, L\) signals, got shape \(6, 1, 128\)"):
            train(model, x[:, None, :], y, config=TrainConfig(epochs=1))
        for p, p0 in zip(model.parameters(), before):
            np.testing.assert_array_equal(p, p0)

    def test_non_finite_weight_fails_before_any_update(self):
        x, y = tone_problem(n_per_class=4)
        model = micro_tfn(seed=12)
        conv = model.layers[1]
        assert isinstance(conv, Conv1d)
        conv.weight[2, 1, 0] = np.nan
        before = [p.copy() for p in model.parameters()]
        with pytest.raises(FloatingPointError,
                           match=r"non-finite gradient at epoch=1, step=1, layer=0\.tfconvlayer$"):
            train(model, x, y, x, y, TrainConfig(epochs=2, batch_size=6))
        for p, p0 in zip(model.parameters(), before):
            np.testing.assert_array_equal(p, p0)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the update overflows float32
    def test_non_finite_parameters_after_the_last_step_fail(self):
        x, y = tone_problem(n_per_class=2)
        model = micro_backbone(seed=12, dtype=np.float32)
        cfg = TrainConfig(epochs=1, batch_size=6, initial_lr=1e200, dtype="float32")
        with pytest.raises(FloatingPointError,
                           match=r"a non-finite parameter at epoch=1, step=1, layer=0\.conv1d$"):
            train(model, x, y, config=cfg)

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError):
            train(micro_backbone(), np.zeros((1, 64)), np.zeros(1, dtype=int),
                  config=TrainConfig(epochs=1))

    def test_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            train(micro_backbone(), np.zeros((4, 64)), np.zeros(3, dtype=int),
                  config=TrainConfig(epochs=1))


class TestSplitTraining:
    """A training step split over two pinned threads has the serial step's bits."""

    @pytest.mark.parametrize("groups", ["default", "one-sample"])
    @pytest.mark.parametrize("mode, backbone, dtype, batch", [
        ("tfn-add", "paper-cnn", np.float64, 4),
        ("tfn-add", "resnet-1d", np.float64, 3),  # Residual, same padding
        ("tfn-replace", "lenet-1d", np.float32, 4),
        ("wkn-add", "lenet-1d", np.float64, 2),  # no modulus
        ("random-tfn", "lenet-1d", np.float64, 3),
        ("backbone-only", "paper-cnn", np.float64, 5),  # odd group counts
    ])
    def test_split_and_serial_steps_are_bit_equal(self, monkeypatch, mode, backbone, dtype, batch,
                                                  groups):
        if groups == "one-sample":  # a group per sample: every split runs, odd batches unevenly
            monkeypatch.setattr(core_math, "_GROUP_BYTES", 0)
            monkeypatch.setattr(nn, "_SMALL_GEMM", 0)
        x = np.random.default_rng(61).normal(size=(batch, 256)).astype(dtype)
        y = np.arange(batch) % 3
        runs = {}
        for name, pair in (("reference", None), ("serial", None), ("split", any_two_cpus())):
            monkeypatch.setattr(core_math, "cpu_pair", lambda pair=pair: pair)
            model = assemble_model(mode, backbone, n_classes=3, n_channels=3, seed=7, dtype=dtype)
            runs[name] = training_steps(model, x, y, 3, out_of_place=name == "reference")
        assert runs["serial"] == runs["reference"]
        assert runs["split"] == runs["reference"]

    def test_one_front_channel_is_not_overwritten(self):
        """A one-channel TFconv output transposes to a view; the norm after it must not write it."""
        x = np.random.default_rng(62).normal(size=(4, 128))
        y = np.arange(4) % 3
        runs = [training_steps(assemble_model("tfn-replace", "paper-cnn", n_classes=3,
                                              n_channels=1, seed=3), x, y, 2, out_of_place=flag)
                for flag in (False, True)]
        assert runs[0] == runs[1]

    def test_training_keeps_one_helper_thread(self, monkeypatch):
        monkeypatch.setattr(core_math, "cpu_pair", any_two_cpus)
        x, y = tone_problem(n_per_class=4)
        train(micro_tfn(), x, y, x, y, config=TrainConfig(epochs=2, batch_size=6))
        assert len([t for t in threading.enumerate() if t.name.startswith("tfnet")]) <= 1


class TestEvaluate:
    def test_confusion_matrix_layout(self):
        x, y = tone_problem(n_per_class=6)
        model = micro_backbone(seed=12)
        train(model, x, y, config=TrainConfig(epochs=15, batch_size=9, seed=12,
                                              initial_lr=3e-2))
        acc, confusion = evaluate(model, x, y)
        assert confusion.shape == (3, 3)
        assert confusion.sum() == len(y)
        assert acc == np.trace(confusion) / len(y)
        # rows are true labels: each row sums to the per-class count
        np.testing.assert_array_equal(confusion.sum(axis=1), [6, 6, 6])

    @pytest.mark.parametrize("pays", [True, False], ids=["helper", "serial"])
    @pytest.mark.parametrize("build", [micro_backbone, micro_tfn], ids=["backbone", "tfn"])
    @pytest.mark.parametrize("batch, sizes", [
        (100, [15]),
        (15, [15]),  # N == EVAL_BATCH: still one piece
        (14, [8, 7]),  # N == EVAL_BATCH + 1
        (5, [5, 5, 5]),
        (2, [2, 2, 2, 2, 2, 2, 2, 1]),
        (1, [1] * 15),
    ])
    def test_batching_does_not_change_result(self, monkeypatch, build, batch, sizes, pays):
        """The pieces split the 15 samples by N alone; the helper runs the later half if it pays."""
        x, y = tone_problem(n_per_class=5)
        model = build(seed=13)
        want = np.zeros((3, 3), dtype=np.int64)
        np.add.at(want, (y, fold_batchnorm(model).forward(standardize(x)).argmax(axis=1)), 1)
        assert np.count_nonzero(want.sum(axis=0)) > 1  # the model tells some samples apart
        starts = list(np.cumsum([0] + sizes[:-1]))
        caller, pieces = threading.current_thread(), {}

        def recording(piece, dtype):
            first = int(np.flatnonzero((x == piece[0]).all(axis=1))[0])
            pieces[starts.index(first)] = (len(piece), threading.current_thread() is caller)
            return standardize(piece, dtype)

        monkeypatch.setattr(training, "standardize", recording)
        monkeypatch.setattr(training, "EVAL_BATCH", batch)
        monkeypatch.setattr(core_math, "cpu_pair", lambda: any_two_cpus() if pays else None)
        acc, confusion = evaluate(model, x, y)
        np.testing.assert_array_equal(confusion, want)
        assert acc == np.trace(want) / len(y)
        assert [pieces[k][0] for k in range(len(sizes))] == sizes
        here = -(-len(sizes) // 2) if pays else len(sizes)  # pieces run on this thread
        assert [pieces[k][1] for k in range(len(sizes))] == [k < here for k in range(len(sizes))]

    @pytest.mark.parametrize("row, here", [(2, True), (12, False)], ids=["piece-0", "piece-1"])
    def test_a_piece_error_surfaces_unchanged(self, monkeypatch, row, here):
        """A non-finite signal fails the same way in this thread's piece and in the helper's."""
        x, y = tone_problem(n_per_class=5)
        x[row, 3] = np.nan
        caller, failed_here = threading.current_thread(), []

        def recording(piece, dtype):
            if not np.isfinite(piece).all():
                failed_here.append(threading.current_thread() is caller)
            return standardize(piece, dtype)

        monkeypatch.setattr(training, "standardize", recording)
        monkeypatch.setattr(training, "EVAL_BATCH", 10)  # pieces 0-7 and 8-14
        monkeypatch.setattr(core_math, "cpu_pair", any_two_cpus)
        with pytest.raises(ValueError) as info:
            evaluate(micro_tfn(), x, y)
        assert type(info.value) is ValueError
        assert str(info.value) == "TFconv input contains non-finite values"
        assert failed_here == [here]

    def test_each_thread_runs_pinned_to_its_cpu(self, monkeypatch):
        """The caller's pieces run on the first CPU and the helper's on the second;
        the caller gets its own CPU set back when the call returns."""
        cpus = any_two_cpus()
        if cpus[0] == cpus[1]:
            pytest.skip("this process may run on one CPU only")
        x, y = tone_problem(n_per_class=5)
        caller, masks = threading.current_thread(), {}

        def recording(piece, dtype):
            masks.setdefault(threading.current_thread() is caller, set()).update(
                os.sched_getaffinity(0))
            return standardize(piece, dtype)

        monkeypatch.setattr(training, "standardize", recording)
        monkeypatch.setattr(training, "EVAL_BATCH", 5)
        monkeypatch.setattr(core_math, "cpu_pair", lambda: cpus)
        before = os.sched_getaffinity(0)
        evaluate(micro_backbone(seed=13), x, y)
        assert masks == {True: {cpus[0]}, False: {cpus[1]}}
        assert os.sched_getaffinity(0) == before

    def test_caller_cpus_come_back_after_an_error(self, monkeypatch):
        cpus = any_two_cpus()
        x, y = tone_problem(n_per_class=5)
        x[2, 3] = np.nan  # piece 0, the caller's
        monkeypatch.setattr(training, "EVAL_BATCH", 5)
        monkeypatch.setattr(core_math, "cpu_pair", lambda: cpus)
        before = os.sched_getaffinity(0)
        with pytest.raises(ValueError, match="non-finite"):
            evaluate(micro_tfn(), x, y)
        assert os.sched_getaffinity(0) == before

    def test_folds_once_per_call(self, monkeypatch):
        x, y = tone_problem(n_per_class=5)
        calls = []
        monkeypatch.setattr(training, "fold_batchnorm",
                            lambda m: calls.append(m) or fold_batchnorm(m))
        monkeypatch.setattr(training, "EVAL_BATCH", 4)
        model = micro_backbone(seed=13)
        evaluate(model, x, y)
        assert calls == [model]

    @pytest.mark.parametrize("mode, backbone", [("backbone-only", "paper-cnn"),
                                                ("tfn-add", "resnet-1d")])
    def test_leaves_the_trained_model_untouched(self, tmp_path, mode, backbone):
        """``evaluate`` runs a BN-folded copy; the trained model keeps names, arrays and bytes."""
        x, y = tone_problem(n_per_class=4)
        model = assemble_model(mode, backbone, n_classes=3, n_channels=2, seed=5)
        train(model, x, y, config=TrainConfig(epochs=1, batch_size=6, seed=5))
        layers = list(model.walk_layers())
        before = [(layer.name, [getattr(layer, attr).copy() for attr, _ in layer.state])
                  for layer in layers]
        bank = model.layers[0].kernels().copy()
        save_model(model, tmp_path / "before.tfn")
        evaluate(model, x, y)
        assert list(model.walk_layers()) == layers
        for layer, (name, arrays) in zip(layers, before):
            assert layer.name == name
            for (attr, _), array in zip(layer.state, arrays):
                np.testing.assert_array_equal(getattr(layer, attr), array)
        save_model(model, tmp_path / "after.tfn")
        assert (tmp_path / "after.tfn").read_bytes() == (tmp_path / "before.tfn").read_bytes()
        np.testing.assert_array_equal(model.layers[0].kernels(), bank)
        if mode == "backbone-only":
            # the stem conv's bank, which folding its batch norm would change
            assert not np.array_equal(bank, fold_batchnorm(model).layers[0].kernels())

    def test_one_channel_axis_rejected(self):
        x, y = tone_problem(n_per_class=2)
        with pytest.raises(ValueError, match=r"\(B, L\) signals, got shape \(6, 1, 128\)"):
            evaluate(micro_tfn(), x[:, None, :], y)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            evaluate(micro_backbone(), np.zeros((0, 64)), np.zeros(0, dtype=int))

    def test_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            evaluate(micro_backbone(), np.zeros((3, 64)), np.zeros(2, dtype=int))

    @pytest.mark.parametrize("bad", [-1, 3])
    def test_out_of_range_label_rejected(self, bad):
        # -1 once counted as the last class and n_classes raised IndexError
        x, y = tone_problem(n_per_class=2)
        y[0] = bad
        with pytest.raises(ValueError, match=r"labels must lie in \[0, 3\)"):
            evaluate(micro_backbone(n_classes=3), x, y)
