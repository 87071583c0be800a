"""Numerical primitives against slow, obviously-correct oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import cross_correlate_same, cross_correlate_valid
from tfnet.core_math import batch_conv_full_slice, batch_correlate_same, same_pad_widths


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
        out = batch_correlate_same(x, kernels)
        assert out.shape == (4, 3, 64)
        for b in range(4):
            for c in range(3):
                want = cross_correlate_same(x[b], kernels[c])
                assert np.max(np.abs(out[b, c] - want)) < 1e-12

    def test_matches_direct_path_real(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(2, 40))
        kernels = rng.normal(size=(2, 7))
        out = batch_correlate_same(x, kernels)
        assert not np.iscomplexobj(out)
        for b in range(2):
            for c in range(2):
                assert np.allclose(out[b, c], cross_correlate_same(x[b], kernels[c]), atol=1e-12)

    def test_single_precision_stays_single(self):
        x = np.zeros((2, 32), dtype=np.float32)
        kernels = np.ones((1, 5), dtype=np.complex64)
        assert batch_correlate_same(x, kernels).dtype == np.complex64

    def test_even_kernel_rejected(self):
        with pytest.raises(ValueError):
            batch_correlate_same(np.zeros((1, 16)), np.zeros((1, 4)))

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            batch_correlate_same(np.zeros(16), np.zeros((1, 3)))


class TestBatchConvFullSlice:
    def test_adjoint_of_batch_correlate(self):
        # on the kernel side, <Re corr(x, d), gr> + <Im corr(x, d), gi> ==
        # Re sum(taps * d), the identity the modulus-layer backward leans on
        rng = np.random.default_rng(9)
        B, C, L, K = 3, 2, 50, 9
        x = rng.normal(size=(B, L))
        rng.normal(size=(2, C, K))  # the kernel bank's draws: gr, gi and delta stay fixed
        gr = rng.normal(size=(B, C, L))
        gi = rng.normal(size=(B, C, L))
        taps = batch_conv_full_slice(gr - 1j * gi, x, K)
        delta = rng.normal(size=(C, K)) + 1j * rng.normal(size=(C, K))
        fwd = batch_correlate_same(x, delta)
        lhs = np.sum(fwd.real * gr) + np.sum(fwd.imag * gi)
        assert np.isclose(lhs, np.sum(taps * delta).real, rtol=1e-10)

    def test_channel_mismatch_rejected(self):
        # a signal whose batch size or length disagrees with the gradient's
        for x_shape in [(2, 10), (1, 9)]:
            with pytest.raises(ValueError):
                batch_conv_full_slice(np.zeros((1, 2, 10)), np.zeros(x_shape), 5)
