"""Numerical primitives against slow, obviously-correct oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import cross_correlate_same, cross_correlate_valid
from tfnet.core_math import batch_conv_full_slice, batch_correlate_same, same_pad_widths


def centred(K):
    """Tap indices of a centred K-tap kernel, the grid ``same_pad_widths(K)`` pads for."""
    return np.arange(K) - (K - 1) // 2


def naive_correlate_valid(x, k):
    """Loop oracle: out[t] = sum_m x[t+m] k[m]."""
    n = len(x) - len(k) + 1
    out = np.empty(n, dtype=np.result_type(x, k))
    for t in range(n):
        acc = 0.0
        for m, km in enumerate(k):
            acc += x[t + m] * km
        out[t] = acc
    return out


class TestCrossCorrelateValid:
    def test_matches_loop_oracle_real(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=40)
        k = rng.normal(size=7)
        assert np.max(np.abs(cross_correlate_valid(x, k) - naive_correlate_valid(x, k))) < 1e-12

    def test_matches_loop_oracle_complex_kernel(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=33)
        k = rng.normal(size=9) + 1j * rng.normal(size=9)
        got = cross_correlate_valid(x, k)
        want = naive_correlate_valid(x, k)
        assert np.max(np.abs(got - want)) < 1e-12

    def test_no_kernel_flip(self):
        # correlation with an impulse at position m shifts left by m
        x = np.arange(10.0)
        k = np.array([0.0, 0.0, 1.0])
        np.testing.assert_array_equal(cross_correlate_valid(x, k), x[2:])

    def test_output_length(self):
        assert cross_correlate_valid(np.zeros(20), np.zeros(5)).shape == (16,)

    def test_kernel_longer_than_signal_rejected(self):
        with pytest.raises(ValueError):
            cross_correlate_valid(np.zeros(3), np.zeros(5))

    @given(st.integers(5, 40), st.integers(1, 5), st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_linearity_in_signal(self, n, ksize, seed):
        rng = np.random.default_rng(seed)
        x1, x2 = rng.normal(size=n), rng.normal(size=n)
        k = rng.normal(size=min(ksize, n))
        lhs = cross_correlate_valid(x1 + 2.0 * x2, k)
        rhs = cross_correlate_valid(x1, k) + 2.0 * cross_correlate_valid(x2, k)
        assert np.allclose(lhs, rhs, atol=1e-10)


class TestSamePadding:
    @pytest.mark.parametrize("klen,expected", [(1, (0, 0)), (3, (1, 1)), (5, (2, 2)), (4, (1, 2))])
    def test_pad_widths(self, klen, expected):
        assert same_pad_widths(klen) == expected

    def test_length_preserved(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=30)
        for klen in (1, 3, 7, 11):
            assert cross_correlate_same(x, rng.normal(size=klen)).shape == x.shape

    def test_identity_kernel(self):
        x = np.random.default_rng(4).normal(size=25)
        np.testing.assert_allclose(cross_correlate_same(x, np.array([1.0])), x)

    def test_centered_impulse_is_identity(self):
        x = np.random.default_rng(5).normal(size=25)
        k = np.zeros(7)
        k[3] = 1.0
        np.testing.assert_allclose(cross_correlate_same(x, k), x, atol=1e-15)

    def test_matches_explicit_zero_pad(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=21)
        k = rng.normal(size=9)
        left, right = same_pad_widths(9)
        padded = np.concatenate([np.zeros(left), x, np.zeros(right)])
        np.testing.assert_allclose(cross_correlate_same(x, k),
                                   cross_correlate_valid(padded, k), atol=1e-12)


class TestBatchCorrelateSame:
    def test_matches_direct_path_complex(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(4, 64))
        kernels = rng.normal(size=(3, 11)) + 1j * rng.normal(size=(3, 11))
        out, _ = batch_correlate_same(x, kernels, centred(11))
        assert out.shape == (4, 3, 64)
        for b in range(4):
            for c in range(3):
                want = cross_correlate_same(x[b], kernels[c])
                assert np.max(np.abs(out[b, c] - want)) < 1e-12

    @pytest.mark.parametrize("grid", [np.arange(0, 9), np.arange(-8, 1), np.arange(-2, 7)],
                             ids=["one-sided", "trailing", "off-centre"])
    def test_grid_sets_the_alignment(self, grid):
        # output l reads x[l + grid[k]] through tap k: an impulse at 20
        # through a one-hot tap at grid index n lands at output 20 - n
        rng = np.random.default_rng(10)
        x = rng.normal(size=(2, 40))
        kernels = rng.normal(size=(2, 9)) + 1j * rng.normal(size=(2, 9))
        out, _ = batch_correlate_same(x, kernels, grid)
        for b in range(2):
            for c in range(2):
                want = cross_correlate_same(x[b], kernels[c], grid)
                assert np.max(np.abs(out[b, c] - want)) < 1e-12
        impulse = np.zeros((1, 40))
        impulse[0, 20] = 1.0
        for k, n in enumerate(grid):
            one_hot = np.zeros((1, 9), complex)
            one_hot[0, k] = 1.0
            assert np.argmax(np.abs(batch_correlate_same(impulse, one_hot, grid)[0][0, 0])) == 20 - n

    def test_matches_direct_path_real(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(2, 40))
        kernels = rng.normal(size=(2, 7))
        out, _ = batch_correlate_same(x, kernels, centred(7))
        for b in range(2):
            for c in range(2):
                want = cross_correlate_same(x[b], kernels[c])
                assert np.allclose(out[b, c].real, want, atol=1e-12)

    def test_single_precision_stays_single(self):
        x = np.zeros((2, 32), dtype=np.float32)
        kernels = np.ones((1, 5), dtype=np.complex64)
        out, Xf = batch_correlate_same(x, kernels, centred(5))
        assert out.dtype == Xf.dtype == np.complex64

    @pytest.mark.parametrize("grid", [np.arange(-1, 2), np.arange(1, 5), np.arange(-4, 0)],
                             ids=["too-short", "after-index-0", "before-index-0"])
    def test_grid_without_index_0_or_of_other_length_rejected(self, grid):
        with pytest.raises(ValueError, match="does not hold tap index 0 of a 4-tap kernel"):
            batch_correlate_same(np.zeros((1, 16)), np.zeros((1, 4)), grid)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            batch_correlate_same(np.zeros(16), np.zeros((1, 3)), centred(3))


class TestBatchConvFullSlice:
    def test_adjoint_of_batch_correlate(self):
        # on the kernel side, <Re corr(x, d), gr> + <Im corr(x, d), gi> ==
        # Re sum(taps * d), the identity the modulus-layer backward leans on,
        # for a centred and a one-sided grid
        rng = np.random.default_rng(9)
        B, C, L, K = 3, 2, 50, 9
        x = rng.normal(size=(B, L))
        rng.normal(size=(2, C, K))  # the kernel bank's draws: gr, gi and delta stay fixed
        gr = rng.normal(size=(B, C, L))
        gi = rng.normal(size=(B, C, L))
        delta = rng.normal(size=(C, K)) + 1j * rng.normal(size=(C, K))
        for grid in (centred(K), np.arange(K)):
            fwd, Xf = batch_correlate_same(x, delta, grid)
            taps = batch_conv_full_slice(gr - 1j * gi, Xf, grid)
            lhs = np.sum(fwd.real * gr) + np.sum(fwd.imag * gi)
            assert np.isclose(lhs, np.sum(taps * delta).real, rtol=1e-10)

    def test_channel_mismatch_rejected(self):
        # a spectrum whose batch size or FFT length (15 for L=10, K=5)
        # disagrees with the gradient's
        for spectrum_shape in [(2, 15), (1, 14)]:
            with pytest.raises(ValueError, match=r"spectrum shape .* != \(1, 15\)"):
                batch_conv_full_slice(np.zeros((1, 2, 10)), np.zeros(spectrum_shape, complex),
                                      centred(5))
