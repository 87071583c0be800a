"""Layers, backbones and the model container.

Layer tests drive the channels-last (batch, length, channels) arrays the
layers use internally; model tests go through the channels-first public
boundary.
"""

import copy
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from helpers import (adaptive_avg_pool_direct, adjoint_gap_with_bound, any_two_cpus,
                     central_difference, check_model_gradients, conv1d_direct,
                     conv1d_grads_full_batch_im2col, conv1d_input_grad_per_tap,
                     conv1d_weight_grad_in_groups, forward_out_of_place, maxpool_input_grad_where,
                     relative_error, softmax_cross_entropy_with_bound, training_steps)
from tfnet import core_math, nn
from tfnet.kernels import KernelFamily, init_params
from tfnet.nn import (
    BACKBONES,
    EPS_MODULUS,
    MODES,
    AdaptiveAvgPool,
    BatchNorm1d,
    Conv1d,
    Dense,
    Flatten,
    MaxPool,
    Model,
    ReLU,
    Residual,
    TFconvLayer,
    assemble_model,
    softmax_cross_entropy,
)


def rng_(seed=0):
    return np.random.default_rng(seed)


class TestConv1d:
    def test_valid_output_length(self):
        conv = Conv1d(2, 3, 5, rng_())
        out = conv.forward(rng_(1).normal(size=(4, 20, 2)))
        assert out.shape == (4, 16, 3)

    def test_same_padding_preserves_length(self):
        conv = Conv1d(1, 2, 7, rng_(), padding="same")
        out = conv.forward(rng_(2).normal(size=(3, 25, 1)))
        assert out.shape == (3, 25, 2)

    def test_matches_loop_oracle(self):
        conv = Conv1d(2, 3, 4, rng_(3))
        x = rng_(4).normal(size=(1, 10, 2))
        out = conv.forward(x)
        for o in range(3):
            for t in range(7):
                want = conv.bias[o]
                for m in range(4):
                    for c in range(2):
                        want += x[0, t + m, c] * conv.weight[o, c, m]
                assert abs(out[0, t, o] - want) < 1e-12

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Conv1d(3, 2, 3, rng_()).forward(np.zeros((1, 8, 2)))

    def test_input_shorter_than_kernel_rejected(self):
        with pytest.raises(ValueError):
            Conv1d(1, 1, 9, rng_()).forward(np.zeros((1, 5, 1)))

    def test_init_bound(self):
        conv = Conv1d(4, 8, 5, rng_(5))
        assert np.max(np.abs(conv.weight)) <= np.sqrt(6.0 / 20)
        np.testing.assert_array_equal(conv.bias, 0.0)

    def test_gradients_match_finite_differences(self):
        conv = Conv1d(2, 3, 3, rng_(6), padding="same")
        x = rng_(7).normal(size=(2, 12, 2))
        w = rng_(8).normal(size=(2, 12, 3))

        def loss():
            return float(np.sum(w * conv.forward(x, training=True)))

        loss()
        gx = conv.backward(w)
        for arr, grads in ((conv.weight, conv.wgrad), (conv.bias, conv.bgrad), (x, gx)):
            for flat in rng_(9).choice(arr.size, size=min(12, arr.size), replace=False):
                index = np.unravel_index(int(flat), arr.shape)
                numeric = central_difference(loss, arr, index)
                assert relative_error(float(grads[index]), numeric) < 1e-6


class TestConv1dBySample:
    """Both passes run a few samples per GEMM and keep the full-batch GEMM's bits."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("in_channels", [1, 2, 8])
    @pytest.mark.parametrize("padding", ["valid", "same"])
    @pytest.mark.parametrize("batch", [1, 3])
    def test_inference_forward_equals_training_forward(self, dtype, in_channels, padding, batch):
        conv = Conv1d(in_channels, 6, 5, rng_(50), padding=padding, dtype=dtype)
        conv.bias[:] = rng_(51).normal(size=6)
        x = rng_(52).normal(size=(batch, 300, in_channels)).astype(dtype)
        inference = conv.forward(x)
        training = conv.forward(x, training=True)
        assert inference.dtype == training.dtype == dtype
        np.testing.assert_array_equal(inference, training)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_forward_equals_full_batch_gemm(self, dtype):
        # one sample's GEMM here is below nn._SMALL_GEMM and the batch's above it
        conv = Conv1d(8, 6, 5, rng_(65), dtype=dtype)
        conv.bias[:] = rng_(66).normal(size=6)
        x = rng_(67).normal(size=(32, 1024, 8)).astype(dtype)
        cols = np.lib.stride_tricks.sliding_window_view(x, (5, 8), axis=(1, 2))
        want = np.ascontiguousarray(cols).reshape(32 * 1020, 40) @ conv._w2()
        want += conv.bias
        for training in (False, True):
            np.testing.assert_array_equal(conv.forward(x, training=training),
                                          want.reshape(32, 1020, 6))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("in_channels, out_channels, length, batch, split", [
        (2, 64, 2700, 3, False), (8, 32, 1400, 3, False),
        (64, 128, 502, 2, True), (16, 32, 1010, 5, True),
    ], ids=["2-64-2700", "8-32-1400", "64-128-502-B2", "16-32-1010-B5"])
    @pytest.mark.parametrize("padding", ["valid", "same"])
    def test_input_gradient_equals_per_tap_col2im(self, dtype, in_channels, out_channels,
                                                  length, batch, split, padding):
        # every group's GEMMs are above nn._SMALL_GEMM, where BLAS keeps one
        # summation order whatever the row count; the split cases run
        # one-sample groups (B2) and two groups, the last taking the remainder (B5)
        conv = Conv1d(in_channels, out_channels, 3, rng_(53), padding=padding, dtype=dtype)
        x = rng_(54).normal(size=(batch, length, in_channels)).astype(dtype)
        grad = rng_(55).normal(size=conv.forward(x, training=True).shape).astype(dtype)
        L_out = grad.shape[1]
        assert grad.size * in_channels > nn._SMALL_GEMM
        assert (len(nn._sample_groups(batch, L_out * in_channels * out_channels)) > 1) == split
        gx = conv.backward(grad)
        np.testing.assert_array_equal(gx, conv1d_input_grad_per_tap(conv.weight, grad, padding))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("in_channels, out_channels", [(1, 6), (2, 3), (2, 32), (8, 16)])
    def test_small_input_gradient_matches_per_tap_col2im(self, dtype, in_channels, out_channels):
        # the whole batch is one group below nn._SMALL_GEMM, so the input
        # gradient runs the reference's own GEMMs
        conv = Conv1d(in_channels, out_channels, 3, rng_(56), padding="same", dtype=dtype)
        x = rng_(57).normal(size=(3, 40, in_channels)).astype(dtype)
        grad = rng_(58).normal(size=conv.forward(x, training=True).shape).astype(dtype)
        assert nn._sample_groups(3, 40 * in_channels * out_channels) == [(0, 3)]
        gx = conv.backward(grad)
        np.testing.assert_array_equal(gx, conv1d_input_grad_per_tap(conv.weight, grad, "same"))

    def test_float32_gradient_stays_float32(self):
        conv = Conv1d(4, 8, 3, rng_(59), dtype=np.float32)
        x = rng_(60).normal(size=(2, 30, 4)).astype(np.float32)
        out = conv.forward(x, training=True)
        assert out.dtype == np.float32
        assert conv.backward(np.ones_like(out)).dtype == np.float32
        assert conv.wgrad.dtype == conv.bgrad.dtype == np.float32

    def test_inference_forward_builds_no_full_column_matrix(self):
        conv = Conv1d(8, 16, 15, rng_(61))
        x = rng_(62).normal(size=(16, 1024, 8))
        conv.forward(x)  # any first-call allocation happens here
        tracemalloc.start()
        try:
            out = conv.forward(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        columns = np.empty((16 * out.shape[1], 15 * 8)).nbytes
        assert peak < columns


class TestSampleGroups:
    """``nn._sample_groups``, the split that all three ``Conv1d`` passes use."""

    @given(st.integers(1, 5000), st.integers(1, 3 * nn._SMALL_GEMM))
    @settings(max_examples=300, deadline=None)
    def test_ranges_tile_the_batch_in_the_fewest_samples_above_small_gemm(self, n, work):
        groups = nn._sample_groups(n, work)
        # the ranges tile [0, n) in order
        assert groups[0][0] == 0 and groups[-1][1] == n
        assert all(lo < hi for lo, hi in groups)
        assert all(a[1] == b[0] for a, b in zip(groups, groups[1:]))
        # each range's GEMM exceeds _SMALL_GEMM unless it is the only range
        if len(groups) > 1:
            assert all((hi - lo) * work > nn._SMALL_GEMM for lo, hi in groups)
        # every range but the last has the smallest such size, and the last
        # takes the remainder, so there are as many ranges as fit
        fewest = nn._SMALL_GEMM // work + 1
        assert (fewest - 1) * work <= nn._SMALL_GEMM < fewest * work
        assert all(hi - lo == fewest for lo, hi in groups[:-1])
        assert len(groups) == max(1, n // fewest)


class TestConv1dKeepsItsInput:
    """A training forward keeps the padded input; backward rebuilds im2col rows a group at a time."""

    @pytest.mark.parametrize("backbone", BACKBONES)
    def test_training_forward_keeps_no_more_than_its_padded_input(self, backbone, monkeypatch):
        model = assemble_model("backbone-only", backbone, n_classes=5, seed=0)
        convs = [layer for layer in model.walk_layers() if isinstance(layer, Conv1d)]
        padded = {}
        for conv in convs:
            def record(x, training=False, conv=conv, real=conv.forward):
                pad = conv.kernel_size - 1 if conv.padding == "same" else 0
                padded[conv] = x.nbytes // x.shape[1] * (x.shape[1] + pad)
                return real(x, training=training)
            monkeypatch.setattr(conv, "forward", record)
        model.forward(rng_(70).normal(size=(4, 512)), training=True)
        assert len(padded) == len(convs)
        for conv in convs:
            assert conv._cache.nbytes <= padded[conv], conv.name

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("padding", ["valid", "same"])
    @pytest.mark.parametrize("batch, split", [(6, True), (1, False)], ids=["groups", "one-group"])
    def test_gradients_equal_full_batch_im2col(self, dtype, padding, batch, split):
        # every GEMM here is above nn._SMALL_GEMM, where BLAS keeps one
        # summation order whatever the row count
        conv = Conv1d(8, 16, 3, rng_(71), padding=padding, dtype=dtype)
        x = rng_(72).normal(size=(batch, 1400, 8)).astype(dtype)
        out = conv.forward(x, training=True)
        B, L_out, O = out.shape
        assert (len(nn._sample_groups(B, L_out * 3 * 8 * O)) > 1) == split
        grad = rng_(73).normal(size=out.shape).astype(dtype)
        gx = conv.backward(grad)
        # bias and input gradients keep the full-batch bits; the weight
        # gradient sums the groups' GEMMs in batch order, which is the
        # full-batch GEMM itself when one group covers the batch
        wgrad, *want = conv1d_grads_full_batch_im2col(conv, x, grad)
        grouped = conv1d_weight_grad_in_groups(conv, x, grad)
        if not split:
            np.testing.assert_array_equal(grouped, wgrad)
        for got, expected in zip((conv.wgrad, conv.bgrad, gx), [grouped, *want]):
            assert got.dtype == dtype
            np.testing.assert_array_equal(got, expected)

    def test_weight_gradient_builds_no_full_batch_column_matrix(self):
        # the paper-cnn 64->128 conv at B=64, L=1024
        conv = Conv1d(64, 128, 3, rng_(74))
        x = rng_(75).normal(size=(64, 502, 64))
        out = conv.forward(x, training=True)
        grad = rng_(76).normal(size=out.shape)
        tracemalloc.start()
        try:
            conv.param_backward(grad)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        columns = np.empty((64 * out.shape[1], 3 * 64)).nbytes
        assert peak < columns / 2


class TestOverwrites:
    """BN and ReLU write into their input, in training and at inference; ``Model`` and
    ``Residual`` copy what they read again, so no caller's array changes."""

    @pytest.mark.parametrize("training", [True, False], ids=["training", "inference"])
    @pytest.mark.parametrize("make", [lambda: BatchNorm1d(3), ReLU], ids=["batchnorm1d", "relu"])
    def test_forward_writes_into_its_input(self, make, training):
        x = rng_(74).normal(size=(2, 8, 3))
        x0, reference = x.copy(), make()
        want = reference.forward(x0.copy(), training=training)
        layer = make()
        out = layer.forward(x, training=training)
        np.testing.assert_array_equal(out, want)
        if isinstance(layer, BatchNorm1d) and training:
            assert not np.may_share_memory(out, x)
            assert layer._cache[0] is x  # the normalized input its backward reads
            np.testing.assert_array_equal(x, reference._cache[0])
            mean, var = x0.mean(axis=(0, 1)), x0.var(axis=(0, 1))
            np.testing.assert_allclose(x, (x0 - mean) / np.sqrt(var + layer.eps), rtol=1e-12,
                                       atol=1e-12)
        else:
            assert out is x

    def test_relu_backward_writes_its_gradient(self):
        layer = ReLU()
        layer.forward(np.array([[[-1.0], [2.0]]]), training=True)
        grad = np.array([[[3.0], [4.0]]])
        assert layer.backward(grad) is grad
        np.testing.assert_array_equal(grad, [[[0.0], [4.0]]])

    def test_residual_hands_its_branch_a_gradient_of_its_own(self):
        """A branch that ends in ReLU writes into the gradient it gets; the skip reads ``grad``."""
        block = Residual([BatchNorm1d(2), ReLU()])
        reference = copy.deepcopy(block)
        for sub in reference.sublayers:
            sub.backward = lambda grad, f=sub.backward: f(grad.copy())
        x = rng_(78).normal(size=(3, 6, 2))
        grad = rng_(79).normal(size=(3, 6, 2))
        grad0 = grad.copy()
        block.forward(x.copy(), training=True)
        reference.forward(x.copy(), training=True)
        np.testing.assert_array_equal(block.backward(grad), reference.backward(grad0.copy()))
        np.testing.assert_array_equal(grad, grad0)

    @pytest.mark.parametrize("training", [True, False], ids=["training", "inference"])
    def test_walker_overwrites_only_its_own_arrays(self, training):
        # the first layer gets (a view of) the caller's array, the rest the walker's
        rng = rng_(77)
        layers = [ReLU(), BatchNorm1d(1), ReLU(), Flatten(), Dense(16, 3, rng)]
        model = Model(layers, mode="backbone-only", backbone="micro")
        model.layers[1].running_mean[:] = 0.25
        x = rng.normal(size=(2, 16))
        x0 = x.copy()
        if not training:
            logits = model.forward(x)
            np.testing.assert_array_equal(x, x0)
            np.testing.assert_array_equal(logits, forward_out_of_place(model, x0))
            return
        reference = copy.deepcopy(model)
        y = np.array([0, 2])
        logits = model.forward(x, training=True)
        np.testing.assert_array_equal(x, x0)
        _, grad = softmax_cross_entropy(logits, y)
        grad0 = grad.copy()
        model.backward(grad)
        np.testing.assert_array_equal(grad, grad0)
        assert training_steps(model, x0, y, 2) == training_steps(reference, x0, y, 2,
                                                                  out_of_place=True)
        np.testing.assert_array_equal(x, x0)

    @pytest.mark.parametrize("mode, backbone, dtype", [
        ("backbone-only", "paper-cnn", np.float64),
        ("tfn-add", "paper-cnn", np.float32),
        ("tfn-replace", "lenet-1d", np.float32),
        ("backbone-only", "resnet-1d", np.float64),
    ])
    def test_model_forward_keeps_its_argument(self, mode, backbone, dtype):
        model = assemble_model(mode, backbone=backbone, n_channels=4, dtype=dtype)
        x = rng_(75).normal(size=(3, 512)).astype(dtype)
        x0 = x.copy()
        logits = model.forward(x, training=False)
        np.testing.assert_array_equal(x, x0)
        np.testing.assert_array_equal(logits, forward_out_of_place(model, x0))

    def test_residual_keeps_its_skip_input(self):
        block = Residual([ReLU(), BatchNorm1d(2), ReLU()])
        block.sublayers[1].running_mean[:] = [0.5, -0.5]
        x = rng_(76).normal(size=(2, 6, 2))
        x0 = x.copy()
        out = block.forward(x)
        np.testing.assert_array_equal(x, x0)
        branch = np.maximum(block.sublayers[1].forward(np.maximum(x0, 0.0)), 0.0)
        np.testing.assert_array_equal(out, branch + x0)


class TestBatchNorm:
    def test_training_normalizes_batch(self):
        bn = BatchNorm1d(3)
        x = rng_(10).normal(loc=2.0, scale=4.0, size=(8, 16, 3))
        out = bn.forward(x, training=True)
        assert np.max(np.abs(out.mean(axis=(0, 1)))) < 1e-10
        np.testing.assert_allclose(out.std(axis=(0, 1)), 1.0, atol=1e-3)

    def test_running_stats_track_batches(self):
        bn = BatchNorm1d(2)
        x = rng_(11).normal(loc=5.0, size=(16, 8, 2))
        bn.forward(x.copy(), training=True)
        want_mean = 0.1 * x.mean(axis=(0, 1))
        np.testing.assert_allclose(bn.running_mean, want_mean, rtol=1e-10)

    def test_eval_uses_running_stats(self):
        bn = BatchNorm1d(2)
        bn.running_mean[:] = [1.0, -1.0]
        bn.running_var[:] = [4.0, 0.25]
        x = np.ones((1, 4, 2))
        out = bn.forward(x, training=False)
        want = (1.0 - bn.running_mean) / np.sqrt(bn.running_var + bn.eps)
        np.testing.assert_allclose(out[0, 0], want, rtol=1e-10)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_training_statistics_match_long_double(self, monkeypatch, dtype):
        """Mean, biased variance, running statistics and gamma/beta gradients, split over two CPUs.

        Each channel sum adds per-sample sums over L in batch order, so a
        term meets at most n = L + B roundings (its product, L - 1 additions
        in its sample, B into the total) and the sum is off by at most
        gamma_n times the sum of its terms' absolute values.  With a =
        sum|x| / M and q = sum x^2 / M: mean = fl(sum / M) is off by
        gamma_{n+1} * a.  var = fl(fl(sq / M) - fl(mean^2)): fl(sq / M) is
        off by gamma_{n+1} * q, fl(mean^2) by gamma_{n+1} * a * (2 +
        gamma_{n+1}) * a + u * (1 + gamma_{n+1})^2 * a^2, the subtraction by u
        times the sum of both, so with a^2 <= q all of it is within E =
        3 * gamma_{n+2} * q.  From r = 0, the running mean fl(m * mean) is off
        by m * gamma_{n+2} * a; from r = 1, the running variance fl(1 + fl(m
        * fl(var - 1))) by m * E + gamma_3 * (1 + m * (|var| + 1 + E)), m
        the momentum in ``dtype``.  The long-double oracle's own sums add
        gamma_{M+2}(long double) of each scale.
        """
        monkeypatch.setattr(core_math, "cpu_pair", any_two_cpus)
        B, L, C = 5, 40, 3  # an odd batch: uneven halves
        M, n = B * L, L + B
        ld = np.longdouble
        x = rng_(101).normal(loc=2.0, scale=3.0, size=(B, L, C)).astype(dtype)
        w = rng_(102).normal(size=(B, L, C)).astype(dtype)
        observed = BatchNorm1d(C, dtype=dtype)  # momentum 1 from zero: the statistics themselves
        observed.momentum = 1.0
        observed.running_var[:] = 0.0
        observed.forward(x.copy(), training=True)
        bn = BatchNorm1d(C, dtype=dtype)
        bn.forward(x.copy(), training=True)
        xhat = np.asarray(bn._cache[0], dtype=ld)  # the backward writes its gradient there
        bn.backward(w.copy())

        def gam(k, kind=dtype):
            return ld(helpers.gamma(k, kind))

        x_ld, w_ld = np.asarray(x, dtype=ld), np.asarray(w, dtype=ld)
        mean = x_ld.mean(axis=(0, 1))
        a = np.abs(x_ld).mean(axis=(0, 1))
        q = np.square(x_ld).mean(axis=(0, 1))
        var = q - mean * mean
        oracle = gam(M + 2, ld)
        var_err = 3 * gam(n + 2) * q + 3 * oracle * q
        m = ld(np.asarray(bn.momentum, dtype=dtype))
        checks = [
            (observed.running_mean, mean, (gam(n + 1) + oracle) * a),
            (observed.running_var, var, var_err),
            (bn.running_mean, m * mean, m * (gam(n + 2) + oracle) * a),
            (bn.running_var, 1 + m * (var - 1),
             m * var_err + gam(3) * (1 + m * (np.abs(var) + 1 + var_err))),
            (bn.ggrad, (w_ld * xhat).sum(axis=(0, 1)),
             (gam(n) + oracle) * np.abs(w_ld * xhat).sum(axis=(0, 1))),
            (bn.bgrad, w_ld.sum(axis=(0, 1)), (gam(n) + oracle) * np.abs(w_ld).sum(axis=(0, 1))),
        ]
        for got, want, bound in checks:
            assert got.dtype == dtype
            assert np.all(np.abs(np.asarray(got, dtype=ld) - want) <= bound)

    def test_single_sample_training_rejected(self):
        with pytest.raises(ValueError):
            BatchNorm1d(2).forward(np.zeros((1, 8, 2)), training=True)

    def test_gradients_match_finite_differences(self):
        bn = BatchNorm1d(2)
        bn.gamma[:] = [1.3, 0.7]
        bn.beta[:] = [0.2, -0.1]
        x = rng_(12).normal(size=(4, 6, 2))
        w = rng_(13).normal(size=(4, 6, 2))

        def loss():
            return float(np.sum(w * bn.forward(x.copy(), training=True)))

        loss()
        gx = bn.backward(w)
        for arr, grads in ((bn.gamma, bn.ggrad), (bn.beta, bn.bgrad), (x, gx)):
            for flat in range(min(arr.size, 10)):
                index = np.unravel_index(flat, arr.shape)
                numeric = central_difference(loss, arr, index)
                assert relative_error(float(grads[index]), numeric) < 1e-5


class TestPoolingAndActivation:
    def test_relu(self):
        layer = ReLU()
        x = np.array([[[-1.0, 0.0], [2.0, -3.0]]])
        np.testing.assert_array_equal(layer.forward(x, training=True), [[[0.0, 0.0], [2.0, 0.0]]])
        g = np.ones_like(x)
        np.testing.assert_array_equal(layer.backward(g), [[[0.0, 0.0], [1.0, 0.0]]])

    def test_maxpool_width_two(self):
        layer = MaxPool()
        x = np.array([[[1.0], [3.0], [2.0], [2.0], [5.0]]])
        out = layer.forward(x)
        np.testing.assert_array_equal(out[:, :, 0], [[3.0, 2.0]])  # remainder dropped

    def test_maxpool_tie_routes_to_earlier_slot(self):
        layer = MaxPool()
        x = np.array([[[4.0], [4.0]]])
        layer.forward(x, training=True)
        gx = layer.backward(np.array([[[1.0]]]))
        np.testing.assert_array_equal(gx[:, :, 0], [[1.0, 0.0]])

    def test_maxpool_backward_routes_to_argmax(self):
        layer = MaxPool()
        x = rng_(15).normal(size=(3, 10, 2))
        out = layer.forward(x, training=True)
        g = rng_(16).normal(size=out.shape)
        gx = layer.backward(g)
        assert gx.shape == x.shape
        np.testing.assert_allclose(gx.sum(axis=1), g.sum(axis=1), rtol=1e-12)
        assert np.count_nonzero(gx) == g.size

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("length", [10, 11], ids=["even", "odd"])
    def test_maxpool_backward_equals_where_routing(self, dtype, length):
        """Value-equal to ``np.where`` routing into a zeroed array, ties included.

        A slot that lost its pair gets ``grad * 0``, a zero with the sign of
        ``grad``, where ``np.where`` writes +0.  ``array_equal`` counts the
        two zeros as equal; a zero's sign changes no parameter update.
        """
        layer = MaxPool()
        x = rng_(50).normal(size=(4, length, 8)).round(1).astype(dtype)
        left, right = x[:, 0 : length - 1 : 2], x[:, 1:length:2]
        assert np.any(left == right)  # ties go to the left slot
        out = layer.forward(x, training=True)
        g = rng_(51).normal(size=out.shape).astype(dtype)
        gx = layer.backward(g)
        assert gx.dtype == dtype
        np.testing.assert_array_equal(gx, maxpool_input_grad_where(right > left, g, length))
        if length % 2:
            assert np.all(gx[:, -1] == 0.0)  # the dropped sample

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("length", [10, 11], ids=["even", "odd"])
    def test_pooling_before_relu_changes_no_value(self, dtype, length):
        """``MaxPool, ReLU`` gives the outputs and input gradients of ``ReLU, MaxPool``."""
        rng = rng_(52)
        x = rng.integers(-2, 3, size=(4, length, 8)).astype(dtype)
        left, right = x[:, 0 : length - 1 : 2], x[:, 1:length:2]
        assert np.any((left == right) & (left > 0))  # positive ties
        assert np.any((left == 0) & (right == 0))  # zero ties
        assert np.any((left < 0) & (right < 0))  # pairs ReLU clears
        g = rng.normal(size=(4, length // 2, 8)).astype(dtype)

        def run(layers):
            out = x
            for layer in layers:
                out = layer.forward(out, training=True)
            gx = g
            for layer in reversed(layers):
                gx = layer.backward(gx)
            return out, gx

        relu_first = run([ReLU(), MaxPool()])
        pool_first = run([MaxPool(), ReLU()])
        for a, b in zip(relu_first, pool_first):
            assert a.dtype == b.dtype == dtype
            np.testing.assert_array_equal(a, b)

    def test_adaptive_pool_divisible(self):
        layer = AdaptiveAvgPool(4)
        x = rng_(17).normal(size=(2, 16, 3))
        out = layer.forward(x)
        np.testing.assert_allclose(out, x.reshape(2, 4, 4, 3).mean(axis=2))

    def test_adaptive_pool_indivisible_covers_input(self):
        layer = AdaptiveAvgPool(4)
        x = rng_(18).normal(size=(1, 10, 1))
        out = layer.forward(x)
        assert out.shape == (1, 4, 1)
        # each bin is the mean of its slice
        starts, ends = layer._edges(10)
        for i, (s, e) in enumerate(zip(starts, ends)):
            assert out[0, i, 0] == pytest.approx(x[0, s:e, 0].mean())

    def test_adaptive_pool_gradient(self):
        layer = AdaptiveAvgPool(3)
        x = rng_(19).normal(size=(2, 11, 2))
        w = rng_(20).normal(size=(2, 3, 2))

        def loss():
            return float(np.sum(w * layer.forward(x, training=True)))

        loss()
        gx = layer.backward(w)
        for flat in rng_(21).choice(x.size, size=10, replace=False):
            index = np.unravel_index(int(flat), x.shape)
            numeric = central_difference(loss, x, index)
            assert relative_error(float(gx[index]), numeric) < 1e-6

    def test_pool_too_short_rejected(self):
        with pytest.raises(ValueError):
            AdaptiveAvgPool(8).forward(np.zeros((1, 4, 1)))


class TestDenseAndFlatten:
    def test_dense_affine(self):
        layer = Dense(3, 2, rng_(22))
        x = rng_(23).normal(size=(4, 3))
        np.testing.assert_allclose(layer.forward(x), x @ layer.weight.T + layer.bias)

    def test_dense_shape_rejected(self):
        with pytest.raises(ValueError):
            Dense(3, 2, rng_()).forward(np.zeros((4, 5)))

    def test_dense_gradients(self):
        layer = Dense(4, 3, rng_(24))
        x = rng_(25).normal(size=(5, 4))
        w = rng_(26).normal(size=(5, 3))

        def loss():
            return float(np.sum(w * layer.forward(x, training=True)))

        loss()
        gx = layer.backward(w)
        np.testing.assert_allclose(layer.wgrad, w.T @ x, rtol=1e-12)
        np.testing.assert_allclose(layer.bgrad, w.sum(axis=0), rtol=1e-12)
        np.testing.assert_allclose(gx, w @ layer.weight, rtol=1e-12)

    def test_flatten_round_trip(self):
        layer = Flatten()
        x = rng_(27).normal(size=(3, 4, 5))
        out = layer.forward(x, training=True)
        assert out.shape == (3, 20)
        np.testing.assert_array_equal(layer.backward(out), x)


class TestExactAdjoints:
    """Dot-product tests <A v, w> == <v, A^T w>: A a long-double direct loop, A^T a backward.

    Each bound is ``adjoint_gap_with_bound``'s, from eps and the sum of the
    terms' absolute values; ``chain`` is the most float64 roundings one term
    of a backward's output meets.
    """

    @pytest.mark.parametrize("padding", ["valid", "same"])
    @pytest.mark.parametrize("shape, split", [((2, 50, 2, 3, 5), False),
                                              ((4, 2100, 8, 32, 3), True)],
                             ids=["one-group", "groups"])
    def test_conv1d_input_and_weight(self, padding, shape, split):
        B, L, C, O, K = shape
        conv = Conv1d(C, O, K, rng_(80), padding=padding)
        conv.bias[:] = rng_(81).normal(size=O)
        x = rng_(82).normal(size=(B, L, C))
        v_weight = rng_(83).normal(size=conv.weight.shape)
        w = rng_(84).normal(size=conv.forward(x, training=True).shape)
        L_out = w.shape[1]
        assert (len(nn._sample_groups(B, L_out * C * O)) > 1) == split
        gx = conv.backward(w)
        n_terms = B * L_out * O * K * C
        # each input-gradient entry sums K*O products; each weight-gradient entry B*L_out
        gap, bound = adjoint_gap_with_bound(
            lambda v: conv1d_direct(v, conv.weight, padding),
            lambda v: conv1d_direct(v, np.abs(conv.weight), padding),
            x, w, gx, chain=K * O, n_terms=n_terms)
        assert gap <= bound
        gap, bound = adjoint_gap_with_bound(
            lambda v: conv1d_direct(x, v, padding),
            lambda v: conv1d_direct(np.abs(x), v, padding),
            v_weight, w, conv.wgrad, chain=B * L_out, n_terms=n_terms)
        assert gap <= bound

    def test_dense_input_and_weight(self):
        B, I, O = 6, 40, 7
        layer = Dense(I, O, rng_(85))
        x = rng_(86).normal(size=(B, I))
        v_weight = rng_(87).normal(size=(O, I))
        w = rng_(88).normal(size=(B, O))
        layer.forward(x, training=True)
        gx = layer.backward(w)
        weight = np.asarray(layer.weight, dtype=np.longdouble)
        gap, bound = adjoint_gap_with_bound(lambda v: v @ weight.T, lambda v: v @ np.abs(weight).T,
                                            x, w, gx, chain=O, n_terms=B * I * O)
        assert gap <= bound
        x_ld = np.asarray(x, dtype=np.longdouble)
        gap, bound = adjoint_gap_with_bound(lambda v: x_ld @ v.T, lambda v: np.abs(x_ld) @ v.T,
                                            v_weight, w, layer.wgrad, chain=B, n_terms=B * I * O)
        assert gap <= bound

    def test_adaptive_avg_pool_with_unequal_bins(self):
        pool = AdaptiveAvgPool(4)
        x = rng_(89).normal(size=(3, 11, 2))
        edges = list(zip(*pool._edges(11)))
        assert len({e - s for s, e in edges}) > 1 and edges[0][1] > edges[1][0]
        w = rng_(90).normal(size=pool.forward(x, training=True).shape)
        gx = pool.backward(w)
        n_terms = 3 * 2 * sum(e - s for s, e in edges)
        # a division and an addition per covering bin
        gap, bound = adjoint_gap_with_bound(lambda v: adaptive_avg_pool_direct(v, edges),
                                            lambda v: adaptive_avg_pool_direct(v, edges),
                                            x, w, gx, chain=pool.bins, n_terms=n_terms)
        assert gap <= bound

    def test_batchnorm_training_input_gamma_and_beta(self):
        B, L, C = 4, 12, 3
        M = B * L
        bn = BatchNorm1d(C)
        bn.gamma[:] = rng_(93).normal(size=C)
        bn.beta[:] = rng_(94).normal(size=C)
        x = rng_(95).normal(loc=2.0, scale=3.0, size=(B, L, C))
        w = rng_(96).normal(size=(B, L, C))
        bn.forward(x, training=True)
        xhat, istd, _ = (np.asarray(a, dtype=np.longdouble) for a in bn._cache)
        gx = bn.backward(w)
        gamma = np.asarray(bn.gamma, dtype=np.longdouble)

        def jvp(v):
            # J v = gamma*istd*(v - mean(v) - xhat*mean(v*xhat)) at the forward's own statistics
            return gamma * istd * (v - v.mean(axis=(0, 1)) - xhat * (v * xhat).mean(axis=(0, 1)))

        def jvp_abs(v):
            # |J_ij| <= |gamma|*istd*(delta_ij + 1/M + |xhat_i||xhat_j|/M), per channel
            ax = np.abs(xhat)
            scale = np.abs(gamma) * istd
            return scale * (v + v.mean(axis=(0, 1)) + ax * (v * ax).mean(axis=(0, 1)))

        # the longest path through backward: a product summed over M, the
        # division by -M, the product with xhat, two additions, and gamma*istd
        # rounded and multiplied in: M + 6 roundings
        gap, bound = adjoint_gap_with_bound(jvp, jvp_abs, rng_(97).normal(size=x.shape), w, gx,
                                            chain=M + 6, n_terms=C * M * M)
        assert gap <= bound
        # d out / d gamma scales xhat and d out / d beta is a broadcast; each gradient sums M terms
        gap, bound = adjoint_gap_with_bound(lambda v: v * xhat, lambda v: v * np.abs(xhat),
                                            rng_(98).normal(size=C), w, bn.ggrad,
                                            chain=M, n_terms=C * M)
        assert gap <= bound
        gap, bound = adjoint_gap_with_bound(lambda v: np.broadcast_to(v, (B, L, C)),
                                            lambda v: np.broadcast_to(v, (B, L, C)),
                                            rng_(99).normal(size=C), w, bn.bgrad,
                                            chain=M, n_terms=C * M)
        assert gap <= bound

    @pytest.mark.parametrize("shape, split", [((2, 50, 3), False), ((4, 2100, 16), True)],
                             ids=["one-group", "groups"])
    def test_residual_of_two_convs(self, monkeypatch, shape, split):
        """A v = v + conv2(conv1(v)): the branch is linear, its biases zero.

        Each output entry of a conv's input gradient sums K*C products, so
        a term meets at most K*C roundings there, as in
        ``test_conv1d_input_and_weight``.  A term of the block's input
        gradient, w_j * W2 * W1, meets them in conv2's backward, then its
        product with W1 and the additions of conv1's sum, K*C more, then the
        skip's addition of ``grad``: chain = 2*K*C + 1.  Each output entry
        sums one skip term and (K*C)^2 branch terms.
        """
        monkeypatch.setattr(core_math, "cpu_pair", any_two_cpus)
        B, L, C = shape
        K = 3
        block = Residual([Conv1d(C, C, K, rng_(111), padding="same"),
                          Conv1d(C, C, K, rng_(112), padding="same")])
        first, second = (conv.weight for conv in block.sublayers)
        assert (len(nn._sample_groups(B, L * C * C)) > 1) == split
        w = rng_(113).normal(size=(B, L, C))
        block.forward(rng_(114).normal(size=(B, L, C)), training=True)
        gx = block.backward(w)

        def apply(v, a=first, b=second):
            return v + conv1d_direct(conv1d_direct(v, a, "same"), b, "same")

        gap, bound = adjoint_gap_with_bound(
            apply, lambda v: apply(v, np.abs(first), np.abs(second)),
            rng_(115).normal(size=(B, L, C)), w, gx,
            chain=2 * K * C + 1, n_terms=B * L * C * (1 + (K * C) ** 2))
        assert gap <= bound

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_batchnorm_inference_is_its_affine_map(self, dtype):
        """<BN(x), w> == <x, scale*w> + <shift, sum w>, scale and shift exact in long double.

        This is the map ``fold_batchnorm`` merges into the conv before it.
        The forward rounds rv + eps, its square root, the reciprocal and
        gamma*istd (scale, 4 roundings, the square root halving its
        argument's), then scale*x (5), scale*running_mean and the
        subtraction from beta (6 for that term, 1 for beta) and the final
        addition (7): every term of an output meets at most 7 roundings of
        ``dtype``, so the forward's inner product with ``w`` moves by at most
        gamma_7 * <|scale x| + |scale m| + |beta|, |w|>.
        """
        B, L, C = 3, 10, 4
        bn = BatchNorm1d(C, dtype=dtype)
        r = rng_(100)
        for arr in (bn.gamma, bn.beta, bn.running_mean):
            arr[:] = r.normal(size=C)
        bn.running_var[:] = r.uniform(0.1, 4.0, size=C)
        x = r.normal(size=(B, L, C)).astype(dtype)
        w = r.normal(size=(B, L, C))
        got = bn.forward(x.copy(), training=False)
        assert got.dtype == dtype
        ld = np.longdouble
        gamma, beta, mean, var = (np.asarray(a, dtype=ld) for a in
                                  (bn.gamma, bn.beta, bn.running_mean, bn.running_var))
        scale = gamma / np.sqrt(var + ld(np.asarray(bn.eps, dtype=dtype)))
        shift = beta - scale * mean
        x_ld, w_ld = np.asarray(x, dtype=ld), np.asarray(w, dtype=ld)
        lhs = np.sum(np.asarray(got, dtype=ld) * w_ld)
        rhs = np.sum(x_ld * (scale * w_ld)) + np.sum(shift * w_ld.sum(axis=(0, 1)))
        total = np.sum((np.abs(scale * x_ld) + np.abs(scale * mean) + np.abs(beta)) * np.abs(w_ld))
        n_terms = 3 * B * L * C
        bound = (helpers.gamma(7, dtype) + 2 * helpers.gamma(n_terms + 2, ld)) * total
        assert abs(lhs - rhs) <= bound

    def test_flatten(self):
        layer = Flatten()
        x = rng_(91).normal(size=(3, 4, 5))
        w = rng_(92).normal(size=(3, 20))
        layer.forward(x, training=True)
        gx = layer.backward(w)
        gap, bound = adjoint_gap_with_bound(lambda v: v.reshape(3, 20), lambda v: v.reshape(3, 20),
                                            x, w, gx, chain=0, n_terms=x.size)
        assert gap <= bound


class TestResidual:
    def test_identity_skip(self):
        block = Residual([ReLU()])
        x = np.array([[[-2.0], [3.0]]])
        np.testing.assert_array_equal(block.forward(x), [[[-2.0], [6.0]]])

    def test_shape_change_rejected(self):
        block = Residual([MaxPool()])
        with pytest.raises(ValueError):
            block.forward(np.zeros((1, 8, 1)))

    def test_gradients_flow_both_paths(self):
        block = Residual([Conv1d(2, 2, 3, rng_(28), padding="same"), ReLU()])
        x = rng_(29).normal(size=(2, 10, 2))
        w = rng_(30).normal(size=(2, 10, 2))

        def loss():
            return float(np.sum(w * block.forward(x, training=True)))

        loss()
        gx = block.backward(w)
        for flat in rng_(31).choice(x.size, size=8, replace=False):
            index = np.unravel_index(int(flat), x.shape)
            numeric = central_difference(loss, x, index)
            assert relative_error(float(gx[index]), numeric) < 1e-6
        conv = block.sublayers[0]
        numeric = central_difference(loss, conv.weight, (0, 0, 0))
        assert relative_error(float(conv.wgrad[0, 0, 0]), numeric) < 1e-6


class TestSoftmaxCrossEntropy:
    def test_uniform_logits_give_log_n(self):
        loss, _ = softmax_cross_entropy(np.zeros((4, 5)), np.array([0, 1, 2, 3]))
        assert loss == pytest.approx(np.log(5.0), abs=1e-12)

    def test_gradient_rows_sum_to_zero(self):
        logits = rng_(32).normal(size=(6, 5))
        _, grad = softmax_cross_entropy(logits, np.array([0, 1, 2, 3, 4, 0]))
        np.testing.assert_allclose(grad.sum(axis=1), 0.0, atol=1e-12)

    def test_gradient_matches_finite_differences(self):
        logits = rng_(33).normal(size=(3, 4))
        labels = np.array([1, 3, 0])
        _, grad = softmax_cross_entropy(logits, labels)

        def loss():
            return softmax_cross_entropy(logits, labels)[0]

        for i in range(3):
            for j in range(4):
                numeric = central_difference(loss, logits, (i, j))
                assert relative_error(float(grad[i, j]), numeric) < 1e-6

    def test_label_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            softmax_cross_entropy(np.zeros((2, 3)), np.array([0, 3]))

    def test_float32_logits_keep_float32_gradient(self):
        _, grad = softmax_cross_entropy(np.zeros((2, 3), dtype=np.float32), np.array([0, 1]))
        assert grad.dtype == np.float32

    @pytest.mark.parametrize("scale", [1.0, 30.0])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_matches_long_double_closed_form(self, dtype, scale):
        rng = rng_(36)
        logits = (scale * rng.normal(size=(16, 5))).astype(dtype)
        labels = rng.integers(0, 5, size=16)
        loss, grad = softmax_cross_entropy(logits, labels)
        want, loss_bound, want_grad, grad_bound = softmax_cross_entropy_with_bound(logits, labels)
        assert grad.dtype == dtype
        assert abs(loss - want) <= loss_bound
        assert np.all(np.abs(grad - want_grad) <= grad_bound)

    def test_large_logit_gap_gives_finite_loss(self):
        # -log(softmax) once underflowed to log(0) = inf past a gap of ~745
        logits = np.array([[0.0, 1000.0]])
        loss, grad = softmax_cross_entropy(logits, np.array([0]))
        assert loss == pytest.approx(1000.0, rel=1e-12)
        ez = np.exp(logits - logits.max())
        want = ez / ez.sum()
        want[0, 0] -= 1.0
        np.testing.assert_array_equal(grad, want)


class TestModelContainer:
    @pytest.mark.parametrize("mode", ["backbone-only", "tfn-add"])
    def test_one_channel_axis_rejected(self, mode):
        model = assemble_model(mode, backbone="lenet-1d", n_channels=2)
        with pytest.raises(ValueError, match=r"\(B, L\) signals, got shape \(2, 1, 64\)"):
            model.forward(np.zeros((2, 1, 64)))

    @pytest.mark.parametrize("shape", [(0, 1024), (3, 0)], ids=["no-samples", "no-length"])
    @pytest.mark.parametrize("mode", ["backbone-only", "tfn-add"])
    def test_empty_batch_rejected(self, mode, shape):
        model = assemble_model(mode, backbone="paper-cnn", n_channels=2)
        for training in (False, True):
            with pytest.raises(ValueError, match=re.escape(f"signals, got shape {shape}")):
                model.forward(np.zeros(shape), training=training)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("mode", ["backbone-only", "tfn-add"])
    def test_non_finite_input_rejected_before_any_layer(self, mode, value):
        model = assemble_model(mode, backbone="lenet-1d", n_channels=2)
        ran = []
        for layer in model.layers:
            layer.forward = lambda *args, layer=layer, **kwargs: ran.append(layer)
        x = np.zeros((2, 64))
        x[1, 5] = value
        for training in (False, True):
            with pytest.raises(ValueError, match="^model input contains non-finite values$"):
                model.forward(x, training=training)
        assert ran == []

    def test_layers_fix_class_count_dtype_and_kernel_config(self):
        model = assemble_model("wkn-add", backbone="lenet-1d", family="morlet", n_classes=3,
                               n_channels=2, dtype=np.float32)
        assert (model.n_classes, model.dtype) == (3, np.float32)
        assert model.tfconv_config == {"family": "morlet", "n_channels": 2, "kernel_length": 301,
                                       "eps_modulus": EPS_MODULUS, "modulus": False}
        for name in ("n_classes", "dtype", "tfconv_config"):
            with pytest.raises(AttributeError):
                setattr(model, name, None)
        assert assemble_model("backbone-only", "lenet-1d", n_classes=4).tfconv_config is None

    def test_forward_shape_all_backbones(self):
        x = rng_(34).normal(size=(2, 1024))
        for name in BACKBONES:
            model = assemble_model("backbone-only", name, n_classes=5, seed=0)
            assert model.forward(x).shape == (2, 5), name

    def test_seeded_weights_reproducible(self):
        a = assemble_model("backbone-only", "paper-cnn", 5, seed=1)
        b = assemble_model("backbone-only", "paper-cnn", 5, seed=1)
        c = assemble_model("backbone-only", "paper-cnn", 5, seed=2)
        for pa, pb in zip(a.parameters(), b.parameters()):
            np.testing.assert_array_equal(pa, pb)
        assert any(not np.array_equal(pa, pc)
                   for pa, pc in zip(a.parameters(), c.parameters()))

    def test_micro_model_end_to_end_gradients(self):
        rng = rng_(35)
        layers = [
            Conv1d(1, 3, 5, rng),
            BatchNorm1d(3),
            ReLU(),
            MaxPool(),
            Conv1d(3, 4, 3, rng),
            ReLU(),
            AdaptiveAvgPool(2),
            Flatten(),
            Dense(8, 5, rng),
        ]
        model = Model(layers, mode="backbone-only", backbone="micro")
        x = rng.normal(size=(4, 32))
        y = np.array([0, 2, 4, 1])
        check_model_gradients(model, x, y, rel_tol=1e-4,
                              max_entries_per_param=10, rng=rng_(36))

    def test_front_layer_model_gradients(self):
        rng = rng_(37)
        front = TFconvLayer(KernelFamily.STTF, init_params(KernelFamily.STTF, 2))
        layers = [front, Conv1d(2, 3, 3, rng), ReLU(), AdaptiveAvgPool(2),
                  Flatten(), Dense(6, 4, rng)]
        model = Model(layers, mode="tfn-add", backbone="micro")
        x = rng.normal(size=(3, 40))
        y = np.array([0, 1, 3])
        check_model_gradients(model, x, y, rel_tol=1e-4,
                              max_entries_per_param=8, rng=rng_(38))

    def test_residual_model_gradients_overwrite_stale_ones(self):
        rng = rng_(41)
        layers = [Conv1d(1, 2, 3, rng), Residual([Conv1d(2, 2, 3, rng, padding="same"), ReLU()]),
                  AdaptiveAvgPool(2), Flatten(), Dense(4, 3, rng)]
        model = Model(layers, mode="backbone-only", backbone="micro")
        x = rng.normal(size=(3, 20))
        y = np.array([0, 1, 2])
        # leave stale gradients in every layer, residual sublayers included
        model.backward(softmax_cross_entropy(model.forward(x, training=True), y)[1])
        check_model_gradients(model, x, y, rel_tol=1e-4, rng=rng_(42))


    @pytest.mark.parametrize("backbone", ["lenet-1d", "paper-cnn"])
    def test_first_conv_accumulates_only_parameter_gradients(self, backbone, monkeypatch):
        model = assemble_model("backbone-only", backbone, n_classes=5, seed=0)
        x = rng_(43).normal(size=(4, 256))
        _, grad = softmax_cross_entropy(model.forward(x, training=True), np.array([0, 1, 2, 3]))
        # every layer's full backward, the first conv's input gradient included
        g = grad
        for layer in reversed(model.layers):
            g = layer.backward(g)
        assert g.shape == (4, 256, 1)
        want = [a.copy() for a in model.gradients()]

        model.forward(x, training=True)  # a backward consumes its forward's state
        first = model.layers[0]

        def no_input_gradient(grad):
            raise AssertionError("the first conv computed an input gradient")

        monkeypatch.setattr(first, "backward", no_input_gradient)
        assert model.backward(grad) is None
        for got, expected in zip(model.gradients(), want):
            np.testing.assert_array_equal(got, expected)


    @pytest.mark.parametrize("mode, backbone", [("tfn-add", "lenet-1d"),
                                                ("backbone-only", "resnet-1d")])
    def test_two_backward_passes_give_the_gradients_of_one(self, mode, backbone):
        model = assemble_model(mode, backbone=backbone, n_channels=2)
        held = model.gradients()
        x = rng_(45).normal(size=(2, 128))
        _, grad = softmax_cross_entropy(model.forward(x, training=True), np.array([0, 1]))
        model.backward(grad)
        once = [g.copy() for g in held]
        model.forward(x, training=True)
        model.backward(grad)
        for array, got, want in zip(held, model.gradients(), once, strict=True):
            assert got is array  # set in place, so an optimizer's list stays live
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("mode, backbone", [("tfn-add", "lenet-1d"),
                                                ("tfn-replace", "paper-cnn"),
                                                ("backbone-only", "resnet-1d")])
    def test_backward_consumes_every_layers_state(self, mode, backbone):
        model = assemble_model(mode, backbone=backbone, n_channels=2)
        logits = model.forward(rng_(46).normal(size=(2, 128)), training=True)
        _, grad = softmax_cross_entropy(logits, np.array([0, 1]))
        model.backward(grad)
        assert [layer.name for layer in model.walk_layers() if layer._cache is not None] == []
        last = len(model.layers) - 1
        with pytest.raises(RuntimeError, match=rf"^{last}\.dense: backward needs forward"):
            model.backward(grad)

    def test_front_tfconv_step_goes_through_its_backward(self):
        # per-layer tracing wraps each layer's ``backward`` on the instance
        model = assemble_model("tfn-add", backbone="lenet-1d", n_channels=2)
        x = rng_(44).normal(size=(2, 64))
        _, grad = softmax_cross_entropy(model.forward(x, training=True), np.array([0, 1]))
        front = model.tfconv
        seen = []
        real = front.backward
        front.backward = lambda g: seen.append(g.shape) or real(g)
        model.backward(grad)
        assert seen == [(2, 2, 64)]
        assert np.any(front.grad_theta != 0)


class TestAssembly:
    def test_mode_catalog(self):
        assert MODES == ("backbone-only", "tfn-add", "tfn-replace",
                         "wkn-add", "wkn-replace", "random-tfn")
        assert BACKBONES == ("paper-cnn", "lenet-1d", "resnet-1d")

    def test_add_mode_prepends_front_layer(self):
        model = assemble_model("tfn-add", n_channels=8, seed=0)
        assert isinstance(model.layers[0], TFconvLayer)
        assert model.layers[0].modulus
        assert isinstance(model.layers[1], Conv1d)
        assert model.layers[1].in_channels == 8

    def test_replace_mode_swaps_first_conv_keeps_bn(self):
        model = assemble_model("tfn-replace", n_channels=8, seed=0)
        assert isinstance(model.layers[0], TFconvLayer)
        assert isinstance(model.layers[1], BatchNorm1d)
        assert model.layers[1].channels == 8
        convs = [l for l in model.layers if isinstance(l, Conv1d)]
        assert convs[0].kernel_size == 3  # the 15-tap stem conv is gone

    def test_backbone_only_has_no_front_layer(self):
        model = assemble_model("backbone-only")
        assert model.tfconv is None
        assert isinstance(model.layers[0], Conv1d)

    def test_wkn_modes_drop_modulus(self):
        for mode in ("wkn-add", "wkn-replace"):
            model = assemble_model(mode, family="morlet", n_channels=4)
            assert model.tfconv is not None and not model.tfconv.modulus

    def test_random_mode_forces_random_family(self):
        model = assemble_model("random-tfn", family="sttf", n_channels=4)
        assert model.tfconv.family is KernelFamily.RANDOM

    def test_random_family_outside_random_mode_rejected(self):
        with pytest.raises(ValueError):
            assemble_model("tfn-add", family="random")

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            assemble_model("tfn-prepend")

    def test_all_front_modes_run_forward(self):
        x = rng_(39).normal(size=(2, 1024))
        for mode in MODES:
            model = assemble_model(mode, n_channels=4, seed=0)
            out = model.forward(x)
            assert out.shape == (2, 5), mode
            assert np.all(np.isfinite(out)), mode

    def test_float32_assembly(self):
        model = assemble_model("tfn-add", n_channels=4, dtype=np.float32)
        x = rng_(40).normal(size=(2, 256)).astype(np.float32)
        assert model.forward(x).dtype == np.float32
        # kernel control parameters stay float64 regardless
        assert model.tfconv.theta.dtype == np.float64

    def test_forward_hook_sees_each_layer_channels_last(self):
        model = assemble_model("tfn-add", n_channels=8)
        trace = []
        out = model.forward(np.zeros((1, 1024)),
                            hook=lambda layer, a: trace.append((layer, layer.name, a.shape)))
        assert [layer for layer, _, _ in trace] == model.layers
        assert trace[0][1:] == ("0.tfconvlayer", (1, 1024, 8))
        assert trace[-1][2] == (1, 5) == out.shape


def random_inference_stats(model, seed):
    """Give every batch norm random statistics and affine terms, every conv a random bias."""
    r = rng_(seed)
    for layer in model.walk_layers():
        if isinstance(layer, BatchNorm1d):
            for arr in (layer.gamma, layer.beta, layer.running_mean):
                arr[:] = r.normal(size=layer.channels)
            layer.running_var[:] = r.uniform(0.1, 4.0, size=layer.channels)
        elif isinstance(layer, Conv1d):
            layer.bias[:] = r.normal(scale=0.1, size=layer.out_channels)
    return model


class TestFoldBatchNorm:
    """``fold_batchnorm``: each Conv1d -> BatchNorm1d pair becomes one Conv1d at inference."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("padding", ["valid", "same"])
    def test_folded_pair_matches_long_double_conv_then_norm(self, dtype, padding):
        """The folded conv against conv -> norm(training=False) in long double.

        The folded weight W*scale meets 4 roundings of ``dtype`` (rv + eps,
        its square root and the division make scale, then the product), the
        dot product K*C and the bias addition 1: K*C + 5 per product term.
        The bias (b - m)*scale + beta meets 7 (the subtraction, scale, the
        product, beta's addition and the conv's), fewer than K*C + 5.  So
        each output is within gamma_{K*C+5} * (scale * (|W| * |x|) +
        scale*|b - m| + |beta|) of the exact pair; the long-double
        reference adds gamma_{K*C+7}(long double) of the same.
        """
        C, O, K = 6, 5, 3
        conv = Conv1d(C, O, K, rng_(101), padding=padding, dtype=dtype)
        norm = BatchNorm1d(O, dtype=dtype)
        random_inference_stats(Model([conv, norm], "backbone-only", "pair"), 102)
        weight, bias = conv.weight.copy(), conv.bias.copy()
        folded = nn.fold_batchnorm(Model([conv, norm], "backbone-only", "pair")).layers
        assert len(folded) == 1 and isinstance(folded[0], Conv1d)
        np.testing.assert_array_equal(conv.weight, weight)
        np.testing.assert_array_equal(conv.bias, bias)
        x = rng_(103).normal(size=(3, 40, C)).astype(dtype)
        got = folded[0].forward(x)
        assert got.dtype == dtype

        ld = np.longdouble
        gamma, beta, mean, var = (np.asarray(a, dtype=ld) for a in
                                  (norm.gamma, norm.beta, norm.running_mean, norm.running_var))
        scale = gamma / np.sqrt(var + ld(np.asarray(norm.eps, dtype=dtype)))
        b = np.asarray(conv.bias, dtype=ld)
        want = (conv1d_direct(x, conv.weight, padding) + b - mean) * scale + beta
        magnitude = (np.abs(scale) * (conv1d_direct(np.abs(x), np.abs(conv.weight), padding)
                                      + np.abs(b - mean)) + np.abs(beta))
        bound = (helpers.gamma(K * C + 5, dtype) + helpers.gamma(K * C + 7, ld)) * magnitude
        assert np.all(np.abs(np.asarray(got, dtype=ld) - want) <= bound)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("mode", ["backbone-only", "tfn-add", "tfn-replace"])
    @pytest.mark.parametrize("backbone", BACKBONES)
    def test_logits_within_derived_bound_and_argmax_agrees(self, backbone, mode, dtype):
        """Folded logits within ``helpers.fold_deviation_bound`` of the unfolded ones.

        That bound is first order: twice the sum, over the folded stack's
        layers, of each layer's rounding bound from eps(dtype) weighted by
        the logit's gradient with respect to that layer's output.
        """
        model = random_inference_stats(assemble_model(mode, backbone, n_channels=4, seed=3,
                                                      dtype=dtype), 104)
        x = rng_(105).normal(size=(3, 128))
        want = model.forward(x)
        folded = nn.fold_batchnorm(model)
        got = folded.forward(x)
        assert got.dtype == want.dtype
        bound = helpers.fold_deviation_bound(model, folded, x)
        assert np.all(np.abs(got - want) <= bound)
        np.testing.assert_array_equal(got.argmax(axis=1), want.argmax(axis=1))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("mode", ["backbone-only", "tfn-add", "tfn-replace"])
    def test_model_without_a_pair_gives_bit_identical_logits(self, mode, dtype):
        model = assemble_model(mode, "lenet-1d", n_channels=4, seed=3, dtype=dtype)
        folded = nn.fold_batchnorm(model)
        assert [type(a) for a in folded.walk_layers()] == [type(a) for a in model.walk_layers()]
        x = rng_(106).normal(size=(3, 256))
        np.testing.assert_array_equal(folded.forward(x), model.forward(x))

    @pytest.mark.parametrize("backbone", ["paper-cnn", "resnet-1d"])
    @pytest.mark.parametrize("mode", ["backbone-only", "tfn-add", "tfn-replace", "wkn-replace"])
    def test_only_the_norm_after_a_front_layer_stays(self, backbone, mode):
        model = assemble_model(mode, backbone, n_channels=4)
        folded = nn.fold_batchnorm(model)
        kept = [a for a in folded.walk_layers() if isinstance(a, BatchNorm1d)]
        if mode.endswith("-replace"):
            assert kept == [folded.layers[1]] and isinstance(folded.layers[0], TFconvLayer)
        else:
            assert kept == []
        n_convs = sum(isinstance(a, Conv1d) for a in model.walk_layers())
        assert sum(isinstance(a, Conv1d) for a in folded.walk_layers()) == n_convs

    def test_ignores_methods_set_on_the_layers(self):
        """A per-instance wrapper, as a profiler sets, calls the unfolded layer; no copy keeps it."""
        model = random_inference_stats(assemble_model("tfn-add", "resnet-1d", n_channels=4), 109)
        x = rng_(110).normal(size=(2, 128))
        want = nn.fold_batchnorm(model).forward(x)
        calls = []
        for layer in model.walk_layers():
            layer.forward = (lambda x, training=False, f=layer.forward:
                             calls.append(f) or f(x, training=training))
        folded = nn.fold_batchnorm(model)
        np.testing.assert_array_equal(folded.forward(x), want)
        assert calls == []
        assert all("forward" in vars(layer) for layer in model.walk_layers())


class TestInferenceKeepsNothing:
    """``forward(training=False)`` keeps no backward state; ``backward`` then raises."""

    @pytest.mark.parametrize("make, shape", [
        (lambda: Conv1d(2, 3, 3, rng_(41)), (2, 8, 2)),
        (lambda: BatchNorm1d(2), (2, 8, 2)),
        (lambda: ReLU(), (2, 8, 2)),
        (lambda: MaxPool(), (2, 8, 2)),
        (lambda: AdaptiveAvgPool(2), (2, 8, 2)),
        (lambda: Flatten(), (2, 8, 2)),
        (lambda: Dense(4, 3, rng_(41)), (2, 4)),
        (lambda: TFconvLayer(KernelFamily.STTF, init_params(KernelFamily.STTF, 2)), (2, 32)),
    ], ids=["conv1d", "batchnorm1d", "relu", "maxpool2", "adaptiveavgpool", "flatten",
            "dense", "tfconv"])
    def test_backward_needs_training_forward(self, make, shape):
        layer = make()
        x = rng_(42).normal(size=shape)
        grad = np.ones_like(make().forward(x, training=True))
        needs = r"backward needs forward\(training=True\) first"
        with pytest.raises(RuntimeError, match=needs):
            layer.backward(grad)  # no forward yet
        layer.forward(x, training=False)
        with pytest.raises(RuntimeError, match=needs):
            layer.backward(grad)
        layer.forward(x, training=True)
        layer.forward(x, training=False)  # drops the training forward's state
        with pytest.raises(RuntimeError, match=needs):
            layer.backward(grad)
        layer.forward(x, training=True)
        if isinstance(layer, TFconvLayer):  # the front layer stops at its parameters
            assert layer.backward(grad) is None
        else:
            assert layer.backward(grad).size == x.size

    def test_error_names_the_layer(self):
        model = assemble_model("tfn-add", backbone="lenet-1d", n_channels=2)
        x = rng_(43).normal(size=(2, 64))
        out = model.forward(x, training=False)
        with pytest.raises(RuntimeError, match=r"^11\.dense: backward needs forward"):
            model.backward(np.ones_like(out))
        with pytest.raises(RuntimeError, match=r"^0\.tfconvlayer: backward needs forward"):
            model.tfconv.backward(np.ones((2, 2, 64)))

    @pytest.mark.parametrize("mode, backbone, family", [
        ("tfn-add", "paper-cnn", "sttf"),
        ("tfn-replace", "resnet-1d", "morlet"),
    ])
    def test_inference_forward_holds_no_memory(self, mode, backbone, family):
        model = assemble_model(mode, backbone=backbone, family=family)
        x = rng_(44).normal(size=(4, 256))
        model.forward(x, training=False)  # any first-call allocation happens here

        def bytes_held_after(training):
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                out = model.forward(x, training=training)
                del out
                return tracemalloc.get_traced_memory()[0] - before
            finally:
                tracemalloc.stop()

        assert bytes_held_after(training=False) < 64 * 1024
        assert bytes_held_after(training=True) > 1024 * 1024
