"""Optimizer, training loop, evaluation."""

import dataclasses

import numpy as np
import pytest

from tfnet.kernels import KernelFamily, check_theta, init_params
from tfnet import training
from tfnet.nn import AdaptiveAvgPool, Conv1d, Dense, Flatten, Model, ReLU, TFconvLayer
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

    def test_history_bookkeeping(self):
        x, y = tone_problem(n_per_class=4)
        model = micro_tfn(seed=1)
        cfg = TrainConfig(epochs=3, batch_size=6, seed=1)
        hist = train(model, x, y, x, y, cfg)
        assert len(hist.train_loss) == len(hist.train_acc) == len(hist.test_acc) == 3
        np.testing.assert_allclose(hist.lr, [1e-3, 1e-3 * 0.96, 1e-3 * 0.96**2])
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

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError):
            train(micro_backbone(), np.zeros((1, 64)), np.zeros(1, dtype=int),
                  config=TrainConfig(epochs=1))

    def test_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            train(micro_backbone(), np.zeros((4, 64)), np.zeros(3, dtype=int),
                  config=TrainConfig(epochs=1))


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

    def test_batching_does_not_change_result(self, monkeypatch):
        x, y = tone_problem(n_per_class=5)
        model = micro_backbone(seed=13)
        monkeypatch.setattr(training, "EVAL_BATCH", 4)
        acc1, c1 = evaluate(model, x, y)
        monkeypatch.setattr(training, "EVAL_BATCH", 100)
        acc2, c2 = evaluate(model, x, y)
        assert acc1 == acc2
        np.testing.assert_array_equal(c1, c2)

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
