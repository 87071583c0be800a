"""Time-frequency layer: forward oracle, backward exact and finite-difference checks."""

import numpy as np
import pytest

from helpers import (
    central_difference,
    cross_correlate_same,
    difference_resolution,
    reference_tft,
    relative_error,
)
from tfnet.kernels import KernelFamily, evaluate_kernels, init_params, kernel_param_grad
from tfnet.tfconv import TFconvLayer

FAMILIES = [KernelFamily.STTF, KernelFamily.CHIRPLET, KernelFamily.MORLET,
            KernelFamily.LAPLACE, KernelFamily.RANDOM]


def make_layer(family, n_channels=3, seed=0, **kwargs):
    return TFconvLayer(init_params(family, n_channels, seed=seed), **kwargs)


class TestForward:
    def test_output_shape_2d_and_3d_input(self):
        layer = make_layer(KernelFamily.STTF, n_channels=4)
        x = np.random.default_rng(0).normal(size=(2, 64))
        assert layer.forward(x).shape == (2, 4, 64)
        assert layer.forward(x[:, None, :]).shape == (2, 4, 64)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_matches_reference_transform(self, family):
        rng = np.random.default_rng(7)
        layer = make_layer(family, n_channels=3)
        x = rng.normal(size=(4, 200))
        out = layer.forward(x)
        for b in range(4):
            ref = reference_tft(x[b], family, layer.kernel_params.theta,
                                layer.kernel_params.grid)
            want = np.sqrt(np.abs(ref) ** 2 + layer.eps_modulus)
            assert np.max(np.abs(out[b] - want)) < 1e-9

    def test_zero_input_gives_epsilon_floor(self):
        layer = make_layer(KernelFamily.STTF)
        out = layer.forward(np.zeros((1, 32)))
        np.testing.assert_allclose(out, np.sqrt(layer.eps_modulus), rtol=1e-12)

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

    def test_non_finite_input_rejected(self):
        layer = make_layer(KernelFamily.STTF)
        x = np.zeros((1, 32))
        x[0, 5] = np.nan
        with pytest.raises(ValueError):
            layer.forward(x)

    def test_without_modulus_keeps_real_correlation(self):
        layer = make_layer(KernelFamily.MORLET, modulus=False)
        x = np.random.default_rng(5).normal(size=(2, 120))
        out = layer.forward(x)
        bank = evaluate_kernels(layer.kernel_params)
        for b in range(2):
            for c in range(layer.kernel_params.n_channels):
                want = cross_correlate_same(x[b], bank[c].real)
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
        layer.zero_grad()
        layer.backward(w)
        theta = layer.kernel_params.theta
        flat = np.arange(theta.size)
        if theta.size > 24:
            flat = rng.choice(theta.size, size=24, replace=False)
        for i in flat:
            index = np.unravel_index(int(i), theta.shape)
            numeric = central_difference(loss, theta, index, h=1e-6)
            assert relative_error(float(layer.grad_theta[index]), numeric) < 1e-4

    @pytest.mark.parametrize("family", [KernelFamily.STTF, KernelFamily.LAPLACE,
                                        KernelFamily.RANDOM])
    def test_input_gradient_matches_finite_difference(self, family):
        rng = np.random.default_rng(12)
        layer = make_layer(family, n_channels=2)
        x = rng.normal(size=(2, 60))
        w = rng.normal(size=(2, 2, 60))

        def loss():
            return float(np.sum(w * layer.forward(x, training=True)))

        loss()
        layer.zero_grad()
        grad_x = layer.backward(w)
        assert grad_x.shape == (2, 1, 60)
        # The one-sided laplace grid (0..150) reaches the last ~20 samples
        # only through its far tail, so their gradients are ~1e-7..1e-5:
        # 1e-4 of that is below what a float64 difference resolves.  Such
        # entries are checked to the resolution (absolute), and
        # test_input_gradient_matches_exact_jacobian checks them relatively.
        floor = difference_resolution(w * layer.forward(x), h=1e-6) / 1e-4
        for flat in rng.choice(x.size, size=20, replace=False):
            index = np.unravel_index(int(flat), x.shape)
            numeric = central_difference(loss, x, index, h=1e-6)
            got = float(grad_x[index[0], 0, index[1]])
            assert relative_error(got, numeric, floor=floor) < 1e-4

    @pytest.mark.parametrize("family", FAMILIES)
    def test_input_gradient_matches_exact_jacobian(self, family):
        rng = np.random.default_rng(12)
        layer = make_layer(family, n_channels=2)
        x = rng.normal(size=(2, 60))
        w = rng.normal(size=(2, 2, 60))
        layer.forward(x, training=True)
        grad_x = layer.backward(w)[:, 0, :]
        # d(corr_c[l])/d(x[j]) from the direct (non-FFT) path, one column
        # per unit input, chained through the modulus by hand
        eye = np.eye(x.shape[1])
        want = np.zeros_like(x)
        for c, k in enumerate(layer.kernels()):
            jac = np.stack([cross_correlate_same(e, k) for e in eye], axis=1)  # (l, j)
            corr = x @ jac.T
            h = np.sqrt(corr.real**2 + corr.imag**2 + layer.eps_modulus)
            want += (w[:, c] * corr.real / h) @ jac.real + (w[:, c] * corr.imag / h) @ jac.imag
        for index in np.ndindex(x.shape):
            assert relative_error(float(grad_x[index]), float(want[index])) < 1e-4, index

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
        kp = layer.kernel_params
        want = np.zeros_like(kp.theta)
        for c, (theta, k) in enumerate(zip(kp.theta, layer.kernels())):
            for b in range(x.shape[0]):
                corr = cross_correlate_same(x[b], k)
                ghr, ghi = w[b, c], 0.0
                if modulus:
                    h = np.sqrt(corr.real**2 + corr.imag**2 + layer.eps_modulus)
                    ghr, ghi = w[b, c] * corr.real / h, w[b, c] * corr.imag / h
                for p, dpsi in enumerate(kernel_param_grad(kp.family, theta, kp.grid)):
                    d = cross_correlate_same(x[b], dpsi)
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
        layer.zero_grad()
        grad_x = layer.backward(w)
        numeric = central_difference(loss, layer.kernel_params.theta, (0, 0), h=1e-6)
        assert relative_error(float(layer.grad_theta[0, 0]), numeric) < 1e-4
        index = (1, 17)
        numeric_x = central_difference(loss, x, index, h=1e-6)
        assert relative_error(float(grad_x[1, 0, 17]), numeric_x) < 1e-4

    def test_gradients_accumulate_until_cleared(self):
        rng = np.random.default_rng(14)
        layer = make_layer(KernelFamily.STTF)
        x = rng.normal(size=(1, 40))
        g = rng.normal(size=(1, 3, 40))
        layer.forward(x, training=True)
        layer.backward(g)
        once = layer.grad_theta.copy()
        layer.forward(x, training=True)
        layer.backward(g)
        np.testing.assert_allclose(layer.grad_theta, 2.0 * once, rtol=1e-12)
        layer.zero_grad()
        np.testing.assert_array_equal(layer.grad_theta, 0.0)

    def test_backward_before_forward_rejected(self):
        layer = make_layer(KernelFamily.STTF)
        with pytest.raises(RuntimeError):
            layer.backward(np.zeros((1, 3, 8)))

    def test_grad_shape_mismatch_rejected(self):
        layer = make_layer(KernelFamily.STTF)
        layer.forward(np.zeros((1, 16)) + 1.0, training=True)
        with pytest.raises(ValueError):
            layer.backward(np.zeros((1, 3, 99)))


class TestLayerProtocol:
    def test_params_and_grads_are_live_views(self):
        layer = make_layer(KernelFamily.CHIRPLET)
        assert layer.params[0] is layer.kernel_params.theta
        assert layer.grads[0] is layer.grad_theta

    def test_project_params_clamps_in_place(self):
        layer = make_layer(KernelFamily.STTF)
        layer.kernel_params.theta[0, 0] = 0.9
        layer.project_params()
        assert layer.kernel_params.theta[0, 0] == pytest.approx(0.5 - 1e-6)

    def test_even_grid_rejected(self):
        from tfnet.kernels import KernelGrid, KernelParams
        params = KernelParams(KernelFamily.RANDOM, np.zeros((1, 8)),
                              grid=KernelGrid(np.arange(-2, 2)))
        with pytest.raises(ValueError):
            TFconvLayer(params)

    def test_bad_epsilon_rejected(self):
        with pytest.raises(ValueError):
            TFconvLayer(init_params(KernelFamily.STTF, 2), eps_modulus=0.0)


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
