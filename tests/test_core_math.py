"""Numerical primitives against slow, obviously-correct oracles; the split over two CPUs."""

import os
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import any_two_cpus, blas_threads, cross_correlate_same, cross_correlate_valid
from tfnet import core_math
from tfnet.core_math import (batch_conv_full_slice, batch_correlate_same, ordered_sum, run_halves,
                             same_pad_widths)


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
        _, out, _ = batch_correlate_same(x, kernels, centred(11), keep=True)
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
        _, out, _ = batch_correlate_same(x, kernels, grid, keep=True)
        for b in range(2):
            for c in range(2):
                want = cross_correlate_same(x[b], kernels[c], grid)
                assert np.max(np.abs(out[b, c] - want)) < 1e-12
        impulse = np.zeros((1, 40))
        impulse[0, 20] = 1.0
        for k, n in enumerate(grid):
            one_hot = np.zeros((1, 9), complex)
            one_hot[0, k] = 1.0
            modulus, _, _ = batch_correlate_same(impulse, one_hot, grid, eps_modulus=0.0)
            assert np.argmax(modulus[0, 0]) == 20 - n

    def test_matches_direct_path_real(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(2, 40))
        kernels = rng.normal(size=(2, 7))
        out, _, _ = batch_correlate_same(x, kernels, centred(7))
        for b in range(2):
            for c in range(2):
                want = cross_correlate_same(x[b], kernels[c])
                assert np.allclose(out[b, c], want, atol=1e-12)

    def test_single_precision_stays_single(self):
        x = np.zeros((2, 32), dtype=np.float32)
        kernels = np.ones((1, 5), dtype=np.complex64)
        for eps_modulus in (None, 1e-12):
            out, corr, Xf = batch_correlate_same(x, kernels, centred(5), eps_modulus, keep=True)
            assert out.dtype == np.float32
            assert corr.dtype == Xf.dtype == np.complex64

    @pytest.mark.parametrize("grid", [np.arange(-1, 2), np.arange(1, 5), np.arange(-4, 0)],
                             ids=["too-short", "after-index-0", "before-index-0"])
    def test_grid_without_index_0_or_of_other_length_rejected(self, grid):
        with pytest.raises(ValueError, match="does not hold tap index 0 of a 4-tap kernel"):
            batch_correlate_same(np.zeros((1, 16)), np.zeros((1, 4)), grid)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            batch_correlate_same(np.zeros(16), np.zeros((1, 3)), centred(3))

    @pytest.mark.parametrize("B, C", [(0, 2), (3, 0)], ids=["no-samples", "no-channels"])
    def test_empty_batch_or_bank_gives_empty_outputs(self, B, C):
        out, corr, Xf = batch_correlate_same(np.zeros((B, 16)), np.zeros((C, 3), complex),
                                             centred(3), 1e-12, keep=True)
        assert out.shape == corr.shape == (B, C, 16)
        assert Xf.shape == (B, 18)


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
            _, fwd, Xf = batch_correlate_same(x, delta, grid, keep=True)
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


def tfnet_threads():
    return [t for t in threading.enumerate() if t.name.startswith("tfnet")]


class TestCpuPair:
    @pytest.mark.parametrize("cpus, pays", [({0, 1}, (0, 1)), ({5, 3, 2}, (2, 3)), ({1}, None)])
    def test_the_pair_is_the_two_lowest_cpus(self, monkeypatch, cpus, pays):
        monkeypatch.setattr(core_math.os, "sched_getaffinity", lambda pid: cpus)
        assert core_math.cpu_pair() == pays

    def test_a_worker_thread_gets_the_pair_and_a_pinned_thread_none(self, monkeypatch):
        """Any thread with two free CPUs gets them; one pinned to a CPU, as each thread of a
        ``run_halves`` split is, gets None, so a split inside a split runs serially."""
        cpus = sorted(os.sched_getaffinity(0))
        if len(cpus) < 2:
            pytest.skip("this process may run on one CPU only")
        monkeypatch.setattr(core_math, "_BLAS_ONE_THREAD", True)
        got = []

        def worker():
            got.append(core_math.cpu_pair())
            os.sched_setaffinity(0, {cpus[1]})  # this thread's CPUs only
            got.append(core_math.cpu_pair())

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert got == [(cpus[0], cpus[1]), None]
        assert os.sched_getaffinity(0) == set(cpus)

    def test_blas_with_threads_of_its_own_keeps_the_helper_idle(self, monkeypatch):
        monkeypatch.setattr(core_math, "_BLAS_ONE_THREAD", False)
        monkeypatch.setattr(core_math.os, "sched_getaffinity", lambda pid: {0, 1})
        assert core_math.cpu_pair() is None

    def test_import_sets_numpy_blas_to_one_thread(self):
        """numpy's OpenBLAS runs one thread once tfnet is imported, whatever the environment."""
        threads = blas_threads()
        if threads is None:
            pytest.skip("numpy is not built with OpenBLAS")
        assert core_math._BLAS_ONE_THREAD
        assert threads == 1


class TestRunHalves:
    def record(self):
        calls = []

        def fn(part):
            calls.append((part, threading.current_thread(), os.sched_getaffinity(0)))
            return part.stop - part.start

        return calls, fn

    @pytest.mark.parametrize("n, halves", [(0, (0, 0)), (1, (1, 0)), (2, (1, 1)), (5, (3, 2))])
    def test_serial_runs_both_halves_here_in_order(self, monkeypatch, n, halves):
        monkeypatch.setattr(core_math, "cpu_pair", lambda: None)
        calls, fn = self.record()
        assert run_halves(fn, n) == halves
        h = halves[0]
        assert [c[0] for c in calls] == [slice(0, h), slice(h, n)]
        assert all(c[1] is threading.current_thread() for c in calls)

    @pytest.mark.parametrize("n", [2, 3, 64])
    def test_each_half_runs_pinned_to_its_cpu(self, monkeypatch, n):
        cpus = any_two_cpus()
        monkeypatch.setattr(core_math, "cpu_pair", lambda: cpus)
        calls, fn = self.record()
        before = os.sched_getaffinity(0)
        assert run_halves(fn, n) == (-(-n // 2), n // 2)
        assert os.sched_getaffinity(0) == before
        here, there = sorted(calls, key=lambda c: c[0].start)
        assert here[:2] == (slice(0, -(-n // 2)), threading.current_thread())
        assert there[0] == slice(-(-n // 2), n)
        assert there[1].name.startswith("tfnet")
        assert (here[2], there[2]) == ({cpus[0]}, {cpus[1]})

    def test_one_item_runs_here_unpinned(self, monkeypatch):
        monkeypatch.setattr(core_math, "cpu_pair", any_two_cpus)
        calls, fn = self.record()
        before = os.sched_getaffinity(0)
        run_halves(fn, 1)
        assert [c[1:] for c in calls] == [(threading.current_thread(), before)] * 2

    @pytest.mark.parametrize("failing", ["first", "second", "both"])
    def test_an_error_is_raised_once_both_halves_return(self, monkeypatch, failing):
        cpus = any_two_cpus()
        monkeypatch.setattr(core_math, "cpu_pair", lambda: cpus)
        done = []

        def fn(part):
            half = "first" if part.start == 0 else "second"
            if failing in (half, "both"):
                raise ValueError(half)
            time.sleep(0.05)  # the failing half returns well before this one
            done.append(half)

        before = os.sched_getaffinity(0)
        with pytest.raises(ValueError) as info:
            run_halves(fn, 4)
        assert str(info.value) == ("second" if failing == "second" else "first")
        assert done == {"first": ["second"], "second": ["first"], "both": []}[failing]
        assert os.sched_getaffinity(0) == before
        assert run_halves(lambda part: part.start, 4) == (0, 2)  # the helper is free again

    def test_a_split_inside_a_split_runs_serially(self, monkeypatch):
        monkeypatch.setattr(core_math, "cpu_pair", any_two_cpus)  # even on the helper thread
        inner = []

        def fn(part):
            calls, record = self.record()
            run_halves(record, 4)
            inner.append({c[1] for c in calls} == {threading.current_thread()})
            return part.start

        assert run_halves(fn, 4) == (0, 2)
        assert inner == [True, True]

    def test_concurrent_callers_share_the_helper_one_split_at_a_time(self, monkeypatch):
        """More callers than cores, switching often: every split returns its own halves, and
        the helper never runs two halves at once."""
        monkeypatch.setattr(core_math, "cpu_pair", any_two_cpus)  # on every thread
        lock, busy, most, results = threading.Lock(), [0], [0], []

        def fn(part):
            on_helper = threading.current_thread().name.startswith("tfnet")
            if on_helper:
                with lock:
                    busy[0] += 1
                    most[0] = max(most[0], busy[0])
            total = sum(range(part.start, part.stop))
            if on_helper:
                with lock:
                    busy[0] -= 1
            return total

        def caller(n):
            results.extend(run_halves(fn, n) == (sum(range(-(-n // 2))), sum(range(-(-n // 2), n)))
                           for _ in range(200))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=caller, args=(n,)) for n in (2, 3, 8, 9)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results == [True] * 800
        assert most[0] == 1

    def test_one_helper_thread_at_most(self, monkeypatch):
        monkeypatch.setattr(core_math, "cpu_pair", any_two_cpus)
        for n in range(2, 12):
            run_halves(lambda part: None, n)
        assert len(tfnet_threads()) <= 1


class TestOrderedSum:
    @pytest.mark.parametrize("pair", [True, False], ids=["pair", "serial"])
    @pytest.mark.parametrize("n", [1, 2, 5, 8])
    def test_bits_of_the_left_to_right_sum(self, monkeypatch, pair, n):
        monkeypatch.setattr(core_math, "cpu_pair", lambda: any_two_cpus() if pair else None)
        rng = np.random.default_rng(31)
        # magnitudes far apart, so another order of the additions changes the last bits
        terms = [rng.normal(size=(3, 4)) * 10.0 ** rng.integers(-8, 8) for _ in range(n)]
        want = 0
        for term in terms:
            want = want + term
        got = ordered_sum(np.zeros((3, 4)), lambda part: iter(terms[part]), n)
        assert got.tobytes() == want.tobytes()
        assert np.sum(terms[::-1], axis=0).tobytes() != want.tobytes() or n < 3
