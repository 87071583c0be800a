"""Time-frequency layer: forward oracle, backward exact and finite-difference checks."""

import tracemalloc
from collections import Counter

import numpy as np
import pytest
import scipy.fft

from helpers import (central_difference, cross_correlate_same, reference_tft, relative_error,
                     tfconv_modulus_with_bound, tfconv_theta_gradient_with_bound,
                     whole_batch_tfconv, whole_batch_theta_gradient)
from tfnet import core_math, kernels, nn
from tfnet.core_math import batch_conv_full_slice, batch_correlate_same
from tfnet.kernels import (KernelFamily, default_grid, evaluate_kernels, init_params,
                           kernel_param_grad)
from tfnet.nn import EPS_MODULUS, TFconvLayer

FAMILIES = [KernelFamily.STTF, KernelFamily.CHIRPLET, KernelFamily.MORLET,
            KernelFamily.LAPLACE, KernelFamily.RANDOM]


def make_layer(family, n_channels=3, seed=0, **kwargs):
    return TFconvLayer(family, init_params(family, n_channels, seed=seed), **kwargs)


class TestForward:
    def test_output_shape_and_one_channel_axis_rejected(self):
        layer = make_layer(KernelFamily.STTF, n_channels=4)
        x = np.random.default_rng(0).normal(size=(2, 64))
        assert layer.forward(x).shape == (2, 4, 64)
        with pytest.raises(ValueError, match=r"\(B, L\) input, got shape \(2, 1, 64\)"):
            layer.forward(x[:, None, :])

    @pytest.mark.parametrize("family", FAMILIES)
    def test_matches_reference_transform(self, family):
        rng = np.random.default_rng(7)
        layer = make_layer(family, n_channels=3)
        x = rng.normal(size=(4, 200))
        out = layer.forward(x)
        for b in range(4):
            ref = reference_tft(x[b], family, layer.theta)
            want = np.sqrt(np.abs(ref) ** 2 + EPS_MODULUS)
            assert np.max(np.abs(out[b] - want)) < 1e-9

    def test_zero_input_gives_epsilon_floor(self):
        layer = make_layer(KernelFamily.STTF)
        out = layer.forward(np.zeros((1, 32)))
        np.testing.assert_allclose(out, np.sqrt(EPS_MODULUS), rtol=1e-12)

    def test_output_positive(self):
        layer = make_layer(KernelFamily.MORLET)
        x = np.random.default_rng(1).normal(size=(2, 500))
        assert np.all(layer.forward(x) > 0)

    def test_modulus_invariant_to_signal_sign(self):
        # |corr(-x)| == |corr(x)|
        layer = make_layer(KernelFamily.STTF)
        x = np.random.default_rng(2).normal(size=(1, 128))
        np.testing.assert_allclose(layer.forward(x), layer.forward(-x), rtol=1e-10)

    def test_scale_equivariance(self):
        # eps under the sqrt is negligible at O(1) outputs
        layer = make_layer(KernelFamily.STTF)
        x = np.random.default_rng(3).normal(size=(1, 128))
        np.testing.assert_allclose(layer.forward(3.0 * x), 3.0 * layer.forward(x), rtol=1e-6)

    def test_float32_input_gives_float32_output(self):
        layer = make_layer(KernelFamily.STTF)
        x = np.random.default_rng(4).normal(size=(2, 64)).astype(np.float32)
        out = layer.forward(x)
        assert out.dtype == np.float32
        want = layer.forward(x.astype(np.float64))
        assert np.max(np.abs(out - want)) < 1e-4

    def test_multi_channel_input_rejected(self):
        layer = make_layer(KernelFamily.STTF)
        with pytest.raises(ValueError):
            layer.forward(np.zeros((2, 3, 64)))

    def test_without_modulus_keeps_real_correlation(self):
        layer = make_layer(KernelFamily.MORLET, modulus=False)
        x = np.random.default_rng(5).normal(size=(2, 120))
        out = layer.forward(x)
        bank = evaluate_kernels(layer.family, layer.theta)
        for b in range(2):
            for c in range(len(layer.theta)):
                want = cross_correlate_same(x[b], bank[c].real, default_grid(layer.family))
                assert np.max(np.abs(out[b, c] - want)) < 1e-10
        assert np.any(out < 0)  # no modulus applied


class TestBackward:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_theta_gradient_matches_finite_difference(self, family):
        rng = np.random.default_rng(11)
        layer = make_layer(family, n_channels=2)
        x = rng.normal(size=(3, 80))
        w = rng.normal(size=(3, 2, 80))  # random linear readout

        def loss():
            return float(np.sum(w * layer.forward(x, training=True)))

        loss()
        layer.backward(w)
        theta = layer.theta
        flat = np.arange(theta.size)
        if theta.size > 24:
            flat = rng.choice(theta.size, size=24, replace=False)
        for i in flat:
            index = np.unravel_index(int(i), theta.shape)
            numeric = central_difference(loss, theta, index, h=1e-6)
            assert relative_error(float(layer.grad_theta[index]), numeric) < 1e-4

    @pytest.mark.parametrize("modulus", [True, False])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_theta_gradient_matches_exact_direct_path(self, family, modulus):
        rng = np.random.default_rng(15)
        layer = make_layer(family, n_channels=2, modulus=modulus)
        x = rng.normal(size=(2, 60))
        w = rng.normal(size=(2, 2, 60))
        layer.forward(x, training=True)
        layer.backward(w)
        # d(corr)/d(theta) from the direct (non-FFT) path, chained through
        # the modulus by hand; without it the output is Re(corr) alone
        want = np.zeros_like(layer.theta)
        grid = default_grid(family)
        for c, (theta, k) in enumerate(zip(layer.theta, layer.kernels())):
            for b in range(x.shape[0]):
                corr = cross_correlate_same(x[b], k, grid)
                ghr, ghi = w[b, c], 0.0
                if modulus:
                    h = np.sqrt(corr.real**2 + corr.imag**2 + EPS_MODULUS)
                    ghr, ghi = w[b, c] * corr.real / h, w[b, c] * corr.imag / h
                for p, dpsi in enumerate(kernel_param_grad(layer.family, theta[None], k[None])[0]):
                    d = cross_correlate_same(x[b], dpsi, grid)
                    want[c, p] += np.sum(ghr * d.real + ghi * d.imag)
        # FFT round-off is absolute, so the bound is on the largest entry's
        # scale; a parameter the output does not depend on (an imaginary tap
        # of random/modulus=False) must get an exact zero
        assert np.max(np.abs(layer.grad_theta - want)) <= 1e-10 * np.max(np.abs(want))
        np.testing.assert_array_equal(layer.grad_theta[want == 0], 0.0)

    def test_gradient_without_modulus(self):
        rng = np.random.default_rng(13)
        layer = make_layer(KernelFamily.STTF, n_channels=2, modulus=False)
        x = rng.normal(size=(2, 50))
        w = rng.normal(size=(2, 2, 50))

        def loss():
            return float(np.sum(w * layer.forward(x, training=True)))

        loss()
        assert layer.backward(w) is None  # the front layer stops at its parameters
        numeric = central_difference(loss, layer.theta, (0, 0), h=1e-6)
        assert relative_error(float(layer.grad_theta[0, 0]), numeric) < 1e-4

    @pytest.mark.parametrize("modulus, want", [(True, np.complex64), (False, np.float32)])
    def test_float32_backward_stays_single_precision(self, monkeypatch, modulus, want):
        # a complex128 assembly would stay correct but double the FFT cost
        seen = []

        def recording(grad, Xf, grid, modulus=None):
            taps = batch_conv_full_slice(grad, Xf, grid, modulus)
            seen.append([a.dtype for a in (grad, Xf, *(modulus or ()), taps)])
            return taps

        monkeypatch.setattr(nn, "batch_conv_full_slice", recording)
        layer = make_layer(KernelFamily.MORLET, n_channels=2, modulus=modulus)
        x = np.random.default_rng(16).normal(size=(2, 64)).astype(np.float32)
        out = layer.forward(x, training=True)
        layer.backward(np.ones_like(out))
        kept = [np.complex64, np.float32] if modulus else []
        assert seen == [[np.float32, np.complex64, *kept, want]]

    def test_two_backward_passes_give_the_gradient_of_one(self):
        rng = np.random.default_rng(14)
        layer = make_layer(KernelFamily.STTF)
        x = rng.normal(size=(1, 40))
        g = rng.normal(size=(1, 3, 40))
        held = layer.grad_theta
        layer.forward(x, training=True)
        layer.backward(g)
        once = layer.grad_theta.copy()
        layer.forward(x, training=True)
        layer.backward(g)
        assert layer.grad_theta is held  # set in place, so an optimizer's list stays live
        np.testing.assert_array_equal(layer.grad_theta, once)

    def test_backward_before_forward_rejected(self):
        layer = make_layer(KernelFamily.STTF)
        with pytest.raises(RuntimeError):
            layer.backward(np.zeros((1, 3, 8)))

    def test_grad_shape_mismatch_rejected(self):
        layer = make_layer(KernelFamily.STTF)
        layer.forward(np.zeros((1, 16)) + 1.0, training=True)
        with pytest.raises(ValueError):
            layer.backward(np.zeros((1, 3, 99)))


class TestSpectralPath:
    """The FFT path at the lengths the benchmark workloads use, against the direct path."""

    # family, signal length, compute dtype, FFT length the 5-smooth rule picks
    SETTINGS = [(KernelFamily.STTF, 1024, np.float64, 1080),
                (KernelFamily.MORLET, 4096, np.float32, 4500)]
    IDS = ["sttf-1024-float64", "morlet-4096-float32"]

    @staticmethod
    def setting(family, length, dtype, n):
        layer = make_layer(family, n_channels=2)
        rng = np.random.default_rng(21)
        x = rng.normal(size=(2, length)).astype(dtype)
        w = rng.normal(size=(2, 2, length)).astype(dtype)
        *_, spectrum = batch_correlate_same(x, layer.kernels().astype(np.result_type(dtype, 1j)),
                                            default_grid(family))
        assert spectrum.shape == (2, n)
        return layer, x, w

    @pytest.mark.parametrize("family, length, dtype, n", SETTINGS, ids=IDS)
    def test_forward_within_derived_bound(self, family, length, dtype, n):
        layer, x, _ = self.setting(family, length, dtype, n)
        want, bound = tfconv_modulus_with_bound(layer, x, n)
        out = layer.forward(x)
        assert out.dtype == dtype
        assert np.all(np.abs(out - want) <= bound)

    @pytest.mark.parametrize("family, length, dtype, n", SETTINGS, ids=IDS)
    def test_theta_gradient_within_derived_bound(self, family, length, dtype, n):
        layer, x, w = self.setting(family, length, dtype, n)
        want, bound = tfconv_theta_gradient_with_bound(layer, x, w, n)
        layer.forward(x, training=True)
        layer.backward(w)
        assert np.all(np.abs(layer.grad_theta - want) <= bound)

    @pytest.mark.parametrize("length", [1024, 4096])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("family", [KernelFamily.STTF, KernelFamily.CHIRPLET,
                                        KernelFamily.MORLET, KernelFamily.LAPLACE])
    def test_impulse_response_peaks_at_the_impulse(self, family, dtype, length):
        # every kernel's modulus peaks at its grid index 0 (the middle tap of
        # a centred grid, the first of laplace's one-sided one), so each
        # row's impulse, near either end or inside, is where its output peaks
        at = [7, length // 2 + 37, length - 8]
        x = np.zeros((3, length), dtype)
        x[[0, 1, 2], at] = 1.0
        out = make_layer(family, n_channels=3).forward(x)
        np.testing.assert_array_equal(out.argmax(axis=-1), np.array(at)[:, None].repeat(3, 1))

    def test_training_step_transforms_the_signal_batch_once(self, monkeypatch):
        shapes = []
        fft = scipy.fft.fft

        def counting(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return fft(a, *args, **kwargs)

        monkeypatch.setattr(core_math.scipy.fft, "fft", counting)
        layer = make_layer(KernelFamily.MORLET, n_channels=2)
        x = np.random.default_rng(22).normal(size=(3, 200))
        out = layer.forward(x, training=True)
        layer.backward(np.ones_like(out))
        # the signal batch, the kernel bank and the upstream gradient
        assert shapes == [(3, 200), (2, 301), (3, 2, 200)]


class TestSampleGroups:
    """Forward and backward run a few samples at a time, bit for bit the whole-batch formula."""

    @pytest.mark.parametrize("modulus", [True, False], ids=["modulus", "real"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("groups", ["one-sample", "one-group", "group-plus-one", "several"])
    def test_equals_the_whole_batch_formula(self, groups, dtype, modulus):
        # the paper shape, sttf K=51 at L=1024 (n=1080), C=8: 15 samples per
        # group in float32 and 7 in float64
        C, L, n = 8, 1024, 1080
        per = core_math._GROUP_BYTES // (C * n * np.dtype(np.result_type(dtype, 1j)).itemsize)
        assert per == {np.float32: 15, np.float64: 7}[dtype]
        B = {"one-sample": 1, "one-group": per, "group-plus-one": per + 1, "several": 3 * per + 2}
        layer = make_layer(KernelFamily.STTF, n_channels=C, modulus=modulus)
        rng = np.random.default_rng(23)
        x = rng.normal(size=(B[groups], L)).astype(dtype)
        w = rng.normal(size=(B[groups], C, L)).astype(dtype)
        h, corr, Xf = whole_batch_tfconv(layer, x)
        out = layer.forward(x, training=True)
        kept_spectrum, kept_corr, _, kept_bank = layer._cache
        assert out.dtype == dtype
        np.testing.assert_array_equal(out, h)
        np.testing.assert_array_equal(kept_spectrum, Xf)
        np.testing.assert_array_equal(kept_bank, layer.kernels())  # complex128 at either dtype
        assert kept_bank.dtype == np.complex128
        if modulus:
            np.testing.assert_array_equal(kept_corr, corr)
        else:
            assert kept_corr is None  # the real part's gradient needs no correlation
        layer.backward(w)
        np.testing.assert_array_equal(layer.grad_theta,
                                      whole_batch_theta_gradient(layer, w, Xf, corr, h))
        np.testing.assert_array_equal(layer.forward(x), h)

    def test_inference_forward_holds_no_batch_sized_complex_array(self):
        # the train-tfconv shape: morlet K=301 at L=4096 (n=4500), float32
        layer = make_layer(KernelFamily.MORLET, n_channels=8)
        x = np.random.default_rng(24).normal(size=(64, 4096)).astype(np.float32)
        layer.forward(x)  # any first-call allocation happens here
        tracemalloc.start()
        try:
            layer.forward(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < np.empty((64, 8, 4500), np.complex64).nbytes

    @pytest.mark.parametrize("modulus", [True, False], ids=["modulus", "real"])
    def test_backward_holds_no_batch_sized_complex_array(self, modulus):
        # the train-tfconv shape: morlet K=301 at L=4096 (n=4500), float32
        layer = make_layer(KernelFamily.MORLET, n_channels=8, modulus=modulus)
        x = np.random.default_rng(25).normal(size=(64, 4096)).astype(np.float32)
        w = np.random.default_rng(26).normal(size=(64, 8, 4096)).astype(np.float32)
        layer.forward(x, training=True)
        layer.backward(w)  # any first-call allocation happens here
        layer.forward(x, training=True)
        tracemalloc.start()
        try:
            layer.backward(w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < np.empty((64, 8, 4500), np.complex64).nbytes


class TestLayerProtocol:
    # each trainable leaf's (array, gradient) attributes, spelled out apart from
    # ``Layer.state``; a conv that feeds a batch norm has no bias
    OWN = {TFconvLayer: (("theta", "grad_theta"),),
           nn.Conv1d: (("weight", "wgrad"), ("bias", "bgrad")),
           nn.BatchNorm1d: (("gamma", "ggrad"), ("beta", "bgrad")),
           nn.Dense: (("weight", "wgrad"), ("bias", "bgrad"))}

    @pytest.mark.parametrize("backbone", nn.BACKBONES)
    def test_parameters_and_gradients_are_the_layers_own_arrays(self, backbone):
        model = nn.assemble_model("tfn-add", backbone, family=KernelFamily.CHIRPLET)
        own = [(getattr(layer, a), getattr(layer, g)) for layer in model.walk_layers()
               for a, g in self.OWN.get(type(layer), ()) if getattr(layer, a) is not None]
        params, grads = model.parameters(), model.gradients()
        assert params[0] is model.tfconv.theta and grads[0] is model.tfconv.grad_theta
        assert len(params) == len(grads) == len(own)
        for p, g, (p_own, g_own) in zip(params, grads, own):
            assert p is p_own and g is g_own
        # a training step sets them in place, so ``training.Adam`` binds them once
        x = np.random.default_rng(0).normal(size=(2, 1024))
        model.backward(nn.softmax_cross_entropy(model.forward(x, training=True), [0, 1])[1])
        model.project_params()
        for before, after in zip(params + grads, model.parameters() + model.gradients()):
            assert before is after

    def test_project_params_clamps_in_place(self):
        model = nn.assemble_model("tfn-add", "lenet-1d", family=KernelFamily.STTF)
        theta = model.tfconv.theta
        theta[0, 0] = 0.9
        model.project_params()
        assert model.tfconv.theta is theta
        assert theta[0, 0] == pytest.approx(0.5 - 1e-6)
        nn.assemble_model("backbone-only", "lenet-1d").project_params()  # no front layer: no-op

    @pytest.mark.parametrize("mode, family", [("tfn-add", f) for f in FAMILIES[:4]]
                             + [("wkn-add", "morlet"), ("random-tfn", "sttf")])
    def test_a_step_evaluates_and_checks_the_bank_once(self, monkeypatch, mode, family):
        # the backward takes the bank its forward kept, so it evaluates none
        model = nn.assemble_model(mode, "lenet-1d", n_classes=3, family=family, n_channels=2)
        calls = Counter()
        for name in ("evaluate_kernels", "check_theta"):
            def counted(*args, _fn=getattr(kernels, name), _name=name):
                calls[_name] += 1
                return _fn(*args)
            for module in (nn, kernels):  # where the layer and evaluate_kernels look them up
                monkeypatch.setattr(module, name, counted)
        x = np.random.default_rng(0).normal(size=(2, 128))
        model.backward(nn.softmax_cross_entropy(model.forward(x, training=True), [0, 2])[1])
        assert calls == {"evaluate_kernels": 1, "check_theta": 1}
        calls.clear()
        model.forward(x)
        assert calls == {"evaluate_kernels": 1, "check_theta": 1}


class TestReferenceTransform:
    def test_single_row_per_parameter_set(self):
        x = np.random.default_rng(20).normal(size=100)
        out = reference_tft(x, KernelFamily.STTF, [[0.1], [0.2], [0.3]])
        assert out.shape == (3, 100)

    def test_pure_tone_energy_peaks_at_matching_channel(self):
        t = np.arange(400)
        x = np.sin(2 * np.pi * 0.2 * t)
        thetas = [[0.05], [0.2], [0.35]]
        energy = np.abs(reference_tft(x, KernelFamily.STTF, thetas)).sum(axis=1)
        assert energy.argmax() == 1
