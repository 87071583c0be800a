"""Kernel families: closed forms, analytic derivatives, constraint boxes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tfnet.kernels import (
    ALPHA_MAX,
    ENVELOPE_SIGMA,
    F_MAX,
    MOTHER_FREQ,
    S_MAX,
    S_MIN,
    KernelFamily,
    check_theta,
    clamp_params,
    default_grid,
    evaluate_kernels,
    init_params,
    kernel_param_grad,
    param_names,
)

FAMILIES = list(KernelFamily)
PARAMETRIC = [KernelFamily.STTF, KernelFamily.CHIRPLET, KernelFamily.MORLET, KernelFamily.LAPLACE]


def mid_theta(family):
    """A strictly interior parameter vector for derivative checks."""
    return {
        KernelFamily.STTF: [0.23],
        KernelFamily.CHIRPLET: [0.23, 0.0017],
        KernelFamily.MORLET: [2.3],
        KernelFamily.LAPLACE: [1.7],
    }[family]


class TestGridsAndShapes:
    def test_default_grid_lengths(self):
        assert len(default_grid(KernelFamily.STTF)) == 51
        assert len(default_grid(KernelFamily.CHIRPLET)) == 51
        assert len(default_grid(KernelFamily.RANDOM)) == 51
        assert len(default_grid(KernelFamily.MORLET)) == 301
        assert len(default_grid(KernelFamily.LAPLACE)) == 151

    def test_grid_endpoints(self):
        assert default_grid(KernelFamily.STTF)[0] == -25
        assert default_grid(KernelFamily.STTF)[-1] == 25
        assert default_grid(KernelFamily.MORLET)[0] == -150
        assert default_grid(KernelFamily.LAPLACE)[0] == 0
        assert default_grid(KernelFamily.LAPLACE)[-1] == 150

    @pytest.mark.parametrize("family", PARAMETRIC)
    def test_kernel_length_matches_grid(self, family):
        psi = evaluate_kernels(family, [mid_theta(family)])[0]
        assert psi.shape == (len(default_grid(family)),)
        assert psi.dtype == np.complex128

    def test_param_names(self):
        assert param_names(KernelFamily.STTF) == ("f",)
        assert param_names(KernelFamily.CHIRPLET) == ("f", "alpha")
        assert param_names(KernelFamily.MORLET) == ("s",)
        names = param_names(KernelFamily.RANDOM)
        assert names == tuple(f"w_re_{i}" for i in range(51)) + tuple(f"w_im_{i}" for i in range(51))


class TestClosedForms:
    def test_sttf_matches_formula(self):
        n = np.arange(-25, 26, dtype=float)
        f = 0.31
        want = np.exp(-0.5 * (n / 10.0) ** 2) * np.exp(2j * np.pi * f * n)
        got = evaluate_kernels(KernelFamily.STTF, [[f]])[0]
        # The phase reaches |2*pi*f*n| ~ 49 rad, where one float64 ulp is
        # ~7e-15, so any float64 evaluation order is off from the true kernel
        # by a few ulp of the largest phase (program and formula alike).  A
        # bound of 4 such ulp (~4.3e-14) still rejects f off by 1e-12 relative.
        phase = 2 * np.pi * f * n
        assert np.max(np.abs(got - want)) < 4 * np.finfo(float).eps * np.max(np.abs(phase))

    def test_sttf_zero_frequency_is_real_gaussian(self):
        psi = evaluate_kernels(KernelFamily.STTF, [[0.0]])[0]
        assert np.allclose(psi.imag, 0.0)
        assert psi.real.argmax() == 25  # centered
        assert np.all(psi.real > 0)

    def test_chirplet_matches_formula(self):
        n = np.arange(-25, 26, dtype=float)
        f, alpha = 0.12, 0.004
        want = np.exp(-0.5 * (n / 10.0) ** 2) * np.exp(2j * np.pi * (0.5 * alpha * n**2 + f * n))
        got = evaluate_kernels(KernelFamily.CHIRPLET, [[f, alpha]])[0]
        assert np.max(np.abs(got - want)) < 1e-15

    def test_chirplet_zero_rate_equals_sttf_bitwise(self):
        for f in (0.0, 0.1, 0.23, 0.499):
            sttf = evaluate_kernels(KernelFamily.STTF, [[f]])[0]
            chirp = evaluate_kernels(KernelFamily.CHIRPLET, [[f, 0.0]])[0]
            np.testing.assert_array_equal(sttf, chirp)

    def test_morlet_unit_scale_is_mother(self):
        n = np.arange(-150, 151, dtype=float)
        want = np.exp(-0.5 * (n / ENVELOPE_SIGMA) ** 2) * np.exp(2j * np.pi * MOTHER_FREQ * n)
        got = evaluate_kernels(KernelFamily.MORLET, [[1.0]])[0]
        assert np.max(np.abs(got - want)) < 1e-15

    @pytest.mark.parametrize("s", [0.5, 1.0, 2.0, 5.0])
    def test_morlet_center_frequency_scales_inversely(self, s):
        psi = evaluate_kernels(KernelFamily.MORLET, [[s]])[0]
        n_fft = 4096
        mag = np.abs(np.fft.fft(psi, n_fft))
        peak = mag[: n_fft // 2 + 1].argmax() / n_fft
        assert abs(peak - MOTHER_FREQ / s) < 2.0 / n_fft

    def test_laplace_support_is_one_sided(self):
        psi = evaluate_kernels(KernelFamily.LAPLACE, [[1.0]])[0]
        assert psi.shape == (151,)
        assert abs(psi[0]) == pytest.approx(1.0)  # mother at m=0
        assert abs(psi[-1]) < 1e-15  # envelope has died off

    def test_wavelet_amplitude_normalization(self):
        # 1/sqrt(s) prefactor: tap at n=0 has magnitude s**-0.5
        for fam in (KernelFamily.MORLET, KernelFamily.LAPLACE):
            for s in (0.5, 2.0, 8.0):
                psi = evaluate_kernels(fam, [[s]])[0]
                center = 150 if fam is KernelFamily.MORLET else 0
                assert abs(psi[center]) == pytest.approx(s**-0.5, rel=1e-12)

    def test_random_taps_pass_through(self):
        raw = np.arange(102, dtype=float)
        psi = evaluate_kernels(KernelFamily.RANDOM, [raw])[0]
        np.testing.assert_array_equal(psi.real, raw[:51])
        np.testing.assert_array_equal(psi.imag, raw[51:])

    def test_random_wrong_tap_count_rejected(self):
        with pytest.raises(ValueError):
            evaluate_kernels(KernelFamily.RANDOM, [np.zeros(51)])


class TestConstraints:
    def test_frequency_box(self):
        with pytest.raises(ValueError, match=r"^f out of \["):
            evaluate_kernels(KernelFamily.STTF, [[0.5]])
        with pytest.raises(ValueError, match=r"^f out of \["):
            evaluate_kernels(KernelFamily.STTF, [[-0.01]])
        # above the box clamp_params projects onto
        with pytest.raises(ValueError, match=r"^f out of \["):
            evaluate_kernels(KernelFamily.STTF, [[0.5 - 1e-7]])
        evaluate_kernels(KernelFamily.STTF, [[F_MAX]])  # boundary is legal

    @pytest.mark.parametrize("family", PARAMETRIC)
    def test_clamped_extremes_evaluate(self, family):
        P = len(param_names(family))
        theta = np.array([[-1e3] * P, [1e3] * P])
        clamp_params(family, theta)
        evaluate_kernels(family, theta)

    def test_chirp_rate_box(self):
        with pytest.raises(ValueError, match=r"^alpha out of \["):
            evaluate_kernels(KernelFamily.CHIRPLET, [[0.1, ALPHA_MAX * 1.01]])
        evaluate_kernels(KernelFamily.CHIRPLET, [[0.1, -ALPHA_MAX]])

    def test_scale_box(self):
        for fam in (KernelFamily.MORLET, KernelFamily.LAPLACE):
            with pytest.raises(ValueError, match=r"^s out of \["):
                evaluate_kernels(fam, [[S_MIN * 0.99]])
            with pytest.raises(ValueError, match=r"^s out of \["):
                evaluate_kernels(fam, [[S_MAX * 1.01]])
            evaluate_kernels(fam, [[S_MIN]])
            evaluate_kernels(fam, [[S_MAX]])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="kernel parameters must be finite"):
            evaluate_kernels(KernelFamily.STTF, [[np.nan]])

    def test_clamp_projects_to_box(self):
        theta = np.array([[0.7, -0.02], [-0.3, 0.001], [0.2, 0.9]])
        clamp_params(KernelFamily.CHIRPLET, theta)
        np.testing.assert_allclose(theta, [[F_MAX, -ALPHA_MAX], [0.0, 0.001], [0.2, ALPHA_MAX]])

    def test_clamp_is_identity_inside_box(self):
        theta = np.array([[0.1], [0.49]])
        clamped = theta.copy()
        clamp_params(KernelFamily.STTF, clamped)
        np.testing.assert_array_equal(clamped, theta)

    @given(st.lists(st.floats(-5, 5, allow_nan=False), min_size=2, max_size=2))
    @settings(max_examples=50, deadline=None)
    def test_clamp_idempotent(self, row):
        once = np.array([row])
        clamp_params(KernelFamily.CHIRPLET, once)
        twice = once.copy()
        clamp_params(KernelFamily.CHIRPLET, twice)
        np.testing.assert_array_equal(once, twice)

    def test_scale_clamp_idempotent(self):
        once = np.array([[0.01], [99.0], [3.0]])
        clamp_params(KernelFamily.MORLET, once)
        twice = once.copy()
        clamp_params(KernelFamily.MORLET, twice)
        np.testing.assert_array_equal(once, twice)
        assert once[0, 0] == S_MIN and once[1, 0] == S_MAX and once[2, 0] == 3.0


class TestAnalyticGradients:
    @pytest.mark.parametrize("family", PARAMETRIC)
    def test_matches_central_difference(self, family):
        theta = np.array([mid_theta(family)])
        grad = kernel_param_grad(family, theta, evaluate_kernels(family, theta))
        assert grad.shape == (1, theta.shape[1], len(default_grid(family)))
        h = 1e-7
        for p in range(theta.shape[1]):
            tp, tm = theta.copy(), theta.copy()
            tp[0, p] += h
            tm[0, p] -= h
            numeric = (evaluate_kernels(family, tp)[0] - evaluate_kernels(family, tm)[0]) / (2 * h)
            scale = max(np.max(np.abs(numeric)), 1.0)
            assert np.max(np.abs(grad[0, p] - numeric)) / scale < 1e-6

    def test_random_gradient_is_tap_identity(self):
        theta = np.zeros((1, 102))
        bank = evaluate_kernels(KernelFamily.RANDOM, theta)
        grad = kernel_param_grad(KernelFamily.RANDOM, theta, bank)[0]
        assert grad.shape == (102, 51)
        np.testing.assert_array_equal(grad[:51].real, np.eye(51))
        np.testing.assert_array_equal(grad[51:].imag, np.eye(51))


class TestInitialization:
    def test_sttf_grid_frequencies(self):
        theta = init_params(KernelFamily.STTF, 8)
        want = [0.03125, 0.09375, 0.15625, 0.21875, 0.28125, 0.34375, 0.40625, 0.46875]
        np.testing.assert_allclose(theta[:, 0], want, atol=1e-15)

    def test_chirplet_starts_with_zero_rate(self):
        theta = init_params(KernelFamily.CHIRPLET, 4)
        np.testing.assert_allclose(theta[:, 0], [0.0625, 0.1875, 0.3125, 0.4375])
        np.testing.assert_array_equal(theta[:, 1], 0.0)

    @pytest.mark.parametrize("family", [KernelFamily.MORLET, KernelFamily.LAPLACE])
    def test_wavelet_scales_tile_frequency_band(self, family):
        C = 8
        theta = init_params(family, C)
        centers = (np.arange(C) + 0.5) / C
        want = MOTHER_FREQ / (0.02 + 0.48 * centers)
        np.testing.assert_allclose(theta[:, 0], want, rtol=1e-12)
        assert np.all(theta[:, 0] >= S_MIN) and np.all(theta[:, 0] <= S_MAX)

    def test_random_init_is_seeded_and_bounded(self):
        a = init_params(KernelFamily.RANDOM, 4, seed=3)
        b = init_params(KernelFamily.RANDOM, 4, seed=3)
        c = init_params(KernelFamily.RANDOM, 4, seed=4)
        assert a.shape == (4, 102)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)
        assert np.max(np.abs(a)) <= np.sqrt(6.0 / 51)

    def test_init_inside_constraint_box(self):
        for family in PARAMETRIC:
            theta = init_params(family, 32)
            clamped = theta.copy()
            clamp_params(family, clamped)
            np.testing.assert_array_equal(clamped, theta)

    def test_bad_channel_count_rejected(self):
        with pytest.raises(ValueError):
            init_params(KernelFamily.STTF, 0)


# three channels with distinct rows, so a bank that applies one row's
# parameters to every channel fails
DISTINCT_ROWS = {
    KernelFamily.STTF: [[0.05], [0.23], [0.41]],
    KernelFamily.CHIRPLET: [[0.05, -0.003], [0.23, 0.0017], [0.41, 0.004]],
    KernelFamily.MORLET: [[0.6], [2.3], [7.5]],
    KernelFamily.LAPLACE: [[0.5], [1.7], [9.0]],
}


# the box corners: s at both ends, |alpha| at its limit, f at and near 0 and F_MAX
CORNER_ROWS = {
    KernelFamily.STTF: [[0.0], [1e-6], [F_MAX - 1e-6], [F_MAX]],
    KernelFamily.CHIRPLET: [[f, a] for f in (0.0, 1e-6, F_MAX) for a in (-ALPHA_MAX, ALPHA_MAX)],
    KernelFamily.MORLET: [[S_MIN], [S_MAX]],
    KernelFamily.LAPLACE: [[S_MIN], [S_MAX]],
}


def product_rule_grad(family, row):
    """Long-double (P, K) d(psi)/d(theta) of one parameter row, and each entry's float64 bound.

    The kernel is taken as written with its float64 constants (pi, sigma,
    f0), in extended precision, and differentiated by the product rule:
    d/ds of s^(-1/2) M(n/s) with M(m) = exp(E) exp(j phi), E = -(m/sigma)^2/2
    and phi = 2 pi f0 m, and d/df, d/dalpha of env(n) exp(j phi), phi =
    2 pi (alpha n^2 / 2 + f n).  Counting each float64 step of
    ``evaluate_kernels`` and ``kernel_param_grad`` as one rounding of u and
    each exp, cos and sin as 4u (2 ulp), the float64 bank carries a relative
    error of (3|E| + 3 Phi + 8) u for the chirplet (Phi = 2 pi (|alpha n^2 /
    2| + |f n|), the phase before its terms can cancel) and (5|E| + 3|phi| +
    11) u for the wavelets (m = n/s rounds once more); the chirplet's factor
    and product add 2u.  The wavelet factor n^2/(sigma^2 s^3) - 1/(2s) - 2
    pi j f0 n/s^2 rounds its terms by at most 5u and the product by 3u, on
    |psi| times the sum of the terms' moduli, at most sqrt(2) times the sum
    of the product rule's two terms' moduli.  u is the float64 unit roundoff
    plus the long double's, for the reference's own rounding.
    """
    ld = np.longdouble
    u = (np.finfo(np.float64).eps + np.finfo(ld).eps) / 2
    n = default_grid(family).astype(ld)
    two_pi = 2 * ld(np.pi)
    if family in (KernelFamily.MORLET, KernelFamily.LAPLACE):
        s = ld(row[0])
        m = n / s
        E = -((m / ld(ENVELOPE_SIGMA)) ** 2) / 2
        phi = two_pi * ld(MOTHER_FREQ) * m
        M = np.exp(E) * (np.cos(phi) + 1j * np.sin(phi))
        dM = (-m / ld(ENVELOPE_SIGMA) ** 2 + 1j * two_pi * ld(MOTHER_FREQ)) * M
        # d/ds s^(-1/2) M(n/s) = -s^(-3/2) M(n/s) / 2 + s^(-1/2) M'(n/s) (-n/s^2)
        terms = (-M / (2 * s * np.sqrt(s)), -dM * n / (s**2 * np.sqrt(s)))
        scale = np.sqrt(2) * (np.abs(terms[0]) + np.abs(terms[1]))
        return (terms[0] + terms[1])[None], ((5 * abs(E) + 3 * abs(phi) + 19) * u * scale)[None]
    f, alpha = ld(row[0]), ld(row[1]) if family is KernelFamily.CHIRPLET else ld(0)
    E = -((n / ld(ENVELOPE_SIGMA)) ** 2) / 2
    phi = two_pi * (alpha * n**2 / 2 + f * n)
    Phi = two_pi * (abs(alpha * n**2 / 2) + abs(f * n))
    psi = np.exp(E) * (np.cos(phi) + 1j * np.sin(phi))
    # d/df and d/dalpha of exp(j phi): j dphi/dtheta exp(j phi)
    grad = np.stack([1j * two_pi * n * psi, 1j * two_pi / 2 * n**2 * psi])[: len(row)]
    return grad, (3 * abs(E) + 3 * Phi + 10) * u * np.abs(grad)


class TestKernelParams:
    """A bank is a (family, theta) pair; every function broadcasts over theta's rows."""

    def test_wrong_param_count_rejected(self):
        with pytest.raises(ValueError, match="chirplet expects 2 parameters per channel"):
            check_theta(KernelFamily.CHIRPLET, np.zeros((3, 1)))
        with pytest.raises(ValueError, match="random expects 102 parameters per channel"):
            evaluate_kernels(KernelFamily.RANDOM, np.zeros((2, 51)))
        with pytest.raises(ValueError, match=r"shape \(1,\)"):  # one row, but not (C, P)
            check_theta(KernelFamily.STTF, np.array([0.2]))

    def test_evaluate_kernels_stacks_channels(self):
        theta = init_params(KernelFamily.STTF, 5)
        bank = evaluate_kernels(KernelFamily.STTF, theta)
        assert bank.shape == (5, 51)
        for c in range(5):
            np.testing.assert_array_equal(
                bank[c], evaluate_kernels(KernelFamily.STTF, theta[c : c + 1])[0]
            )

    @pytest.mark.parametrize("family", PARAMETRIC)
    def test_distinct_rows_evaluate_row_by_row(self, family):
        theta = np.array(DISTINCT_ROWS[family])
        bank = evaluate_kernels(family, theta)
        grad = kernel_param_grad(family, theta, bank)
        K = len(default_grid(family))
        assert bank.shape == (3, K) and grad.shape == (3, theta.shape[1], K)
        for c in range(3):
            np.testing.assert_array_equal(bank[c], evaluate_kernels(family, theta[c : c + 1])[0])
            row_grad = kernel_param_grad(family, theta[c : c + 1], bank[c : c + 1])[0]
            np.testing.assert_array_equal(grad[c], row_grad)
        assert not np.array_equal(bank[1], bank[0]) and not np.array_equal(bank[2], bank[0])

    @pytest.mark.parametrize("family", PARAMETRIC)
    def test_grad_matches_per_row_central_difference(self, family):
        theta = np.array(DISTINCT_ROWS[family])
        grad = kernel_param_grad(family, theta, evaluate_kernels(family, theta))
        h = 1e-7
        for c in range(theta.shape[0]):
            for p in range(theta.shape[1]):
                tp, tm = theta.copy(), theta.copy()
                tp[c, p] += h
                tm[c, p] -= h
                diff = evaluate_kernels(family, tp) - evaluate_kernels(family, tm)
                # moving row c leaves every other row's kernel untouched
                np.testing.assert_array_equal(np.delete(diff, c, axis=0), 0.0)
                numeric = diff[c] / (2 * h)
                scale = max(np.max(np.abs(numeric)), 1.0)
                assert np.max(np.abs(grad[c, p] - numeric)) / scale < 1e-6

    @pytest.mark.parametrize("family", PARAMETRIC)
    def test_grad_matches_the_long_double_product_rule(self, family):
        # an exact oracle, independent of the bank-times-factor form; the
        # largest exponent and phase, at s = 0.4 and n = 150, are -703 and 471
        theta = np.array(DISTINCT_ROWS[family] + CORNER_ROWS[family])
        grad = kernel_param_grad(family, theta, evaluate_kernels(family, theta))
        for c, row in enumerate(theta):
            want, bound = product_rule_grad(family, row)
            assert np.all(np.abs(grad[c] - want) <= bound), row
