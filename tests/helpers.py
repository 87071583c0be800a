"""Shared test utilities: direct-path oracles, finite differences, gradient checks, CLI runs,
signed-file edits, output-tree digests, CPUs to pin the split's two threads to, numpy's
BLAS thread count."""

import copy
import ctypes
import hashlib
import json
import os
import struct
from pathlib import Path

import numpy as np
import scipy.fft
from hypothesis import strategies as st

from tfnet.checkpoint import save_model
from tfnet.cli import EXIT_OK, main
from tfnet.core_math import same_pad_widths
from tfnet.kernels import KernelFamily, default_grid, evaluate_kernels, kernel_param_grad
from tfnet.nn import (EPS_MODULUS, AdaptiveAvgPool, BatchNorm1d, Conv1d, Dense, Flatten, MaxPool,
                      Model, ReLU, Residual, TFconvLayer, _sample_groups, softmax_cross_entropy)
from tfnet.training import Adam


def any_two_cpus():
    """Two CPUs this thread may run on, for a forced ``core_math.cpu_pair``;
    the same CPU twice where it may run on one only."""
    cpus = sorted(os.sched_getaffinity(0))
    return cpus[0], cpus[-1]


def blas_threads():
    """The thread count numpy's OpenBLAS reports, or None where numpy links no OpenBLAS."""
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
    except (AttributeError, OSError):
        return None
    names = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
             "openblas_get_num_threads")
    getter = next((getattr(lib, name) for name in names if hasattr(lib, name)), None)
    if getter is None:
        return None
    getter.argtypes, getter.restype = [], ctypes.c_int
    return getter()


def _as_1d(x, name: str) -> np.ndarray:
    a = np.asarray(x)
    if a.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {a.shape}")
    return a


def cross_correlate_valid(x, k) -> np.ndarray:
    """Sliding inner product, out[t] = sum_m x[t+m] * k[m].

    Output length is ``len(x) - len(k) + 1``; the kernel is not flipped and
    not conjugated (fold any conjugation into ``k`` beforehand).
    """
    xa = _as_1d(x, "x")
    ka = _as_1d(k, "k")
    if ka.size == 0:
        raise ValueError("cross_correlate_valid: empty kernel")
    if xa.size < ka.size:
        raise ValueError(
            f"cross_correlate_valid: kernel (len {ka.size}) longer than signal (len {xa.size})"
        )
    windows = np.lib.stride_tricks.sliding_window_view(xa, ka.size)
    return windows @ ka


def cross_correlate_same(x, k, grid=None) -> np.ndarray:
    """Length-preserving correlation: zero-pad, then valid correlation.

    ``grid`` holds the kernel's integer tap indices, and output l reads
    x[l + grid[m]] through tap m: the pads are -grid[0] zeros on the left
    and grid[-1] on the right.  Without a grid the kernel is centred,
    floor((K-1)/2) zeros on the left and ceil((K-1)/2) on the right.
    """
    xa = _as_1d(x, "x")
    ka = _as_1d(k, "k")
    if xa.size == 0:
        raise ValueError("cross_correlate_same: empty signal")
    left, right = same_pad_widths(ka.size) if grid is None else (-grid[0], grid[-1])
    padded = np.concatenate(
        [np.zeros(left, dtype=xa.dtype), xa, np.zeros(right, dtype=xa.dtype)]
    )
    return cross_correlate_valid(padded, ka)


def reference_tft(x: np.ndarray, family: KernelFamily, thetas) -> np.ndarray:
    """Direct time-frequency transform of one signal, row per parameter set.

    Row i is the length-preserving correlation of ``x`` with the kernel
    generated from ``thetas[i]``, aligned by the family's grid; its modulus
    is the time-frequency spectrum.  Uses the direct sliding-window path,
    independent of the FFT-based layer forward, so the two can check each
    other.
    """
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    grid = default_grid(family)
    rows = [cross_correlate_same(x, psi, grid)
            for psi in evaluate_kernels(family, np.atleast_2d(thetas))]
    return np.stack(rows)


def fft_roundoff(n: int, dtype) -> float:
    """Normwise relative error bound of one length-``n`` FFT computed in ``dtype``.

    ceil(log2 n) * eta with eta = mu + gamma_4 * (sqrt(2) + mu) (Higham,
    *Accuracy and Stability of Numerical Algorithms*, 2nd ed., Thm 24.2),
    taking the twiddle factors' error mu as the unit roundoff u = eps/2 and
    a mixed-radix length as ceil(log2 n) radix-2 stages.
    """
    u = np.finfo(dtype).eps / 2
    gamma4 = 4 * u / (1 - 4 * u)
    return float(np.ceil(np.log2(n)) * (u + gamma4 * (np.sqrt(2) + u)))


def correlation_roundoff(a: np.ndarray, b: np.ndarray, n: int, dtype) -> tuple[float, float]:
    """(bound, norm): the round-off of a length-``n`` FFT correlation of 1-D ``a`` with ``b``.

    ``norm`` is the 2-norm of the exact full correlation and ``bound`` a
    first-order bound on the 2-norm of the computed one's error over all n
    lags, so also on any single output.  With rho = ``fft_roundoff(n,
    dtype)``, u = eps/2 and A, B the length-n spectra: the FFT of ``a`` is
    the exact transform of an input moved by rho*||a||, which moves the
    output by at most rho*||a||*max|B| (Parseval), and likewise for ``b``;
    rounding ``b`` to ``dtype`` (the kernel bank of a float32 layer) adds
    u*||b||*max|A|; the complex products (sqrt(2)*gamma_2, Higham Lemma
    3.5), the inverse FFT and its 1/n scaling add (rho + (2*sqrt(2) + 1)*u)
    times ``norm``.  This is the ``eps * ||x|| * ||k||`` scale that
    ``core_math`` documents, with the spectra's peaks in place of a constant.
    """
    u = np.finfo(dtype).eps / 2
    rho = fft_roundoff(n, dtype)
    A, B = np.fft.fft(a, n), np.fft.fft(b, n)
    norm = float(np.linalg.norm(A * B) / np.sqrt(n))
    peak_a, peak_b = np.abs(A).max(), np.abs(B).max()
    bound = (rho * np.linalg.norm(a) * peak_b + (rho + u) * np.linalg.norm(b) * peak_a
             + (rho + (2 * np.sqrt(2) + 1) * u) * norm)
    return float(bound), norm


def direct_roundoff(x: np.ndarray, k: np.ndarray) -> float:
    """Bound on the 2-norm of the round-off of float64 ``cross_correlate_same(x, k)``.

    Each output is a sum of K complex products, off by at most
    gamma_{K+2} * sum |x||k|; over all outputs, (K+2)*u*||x|| * ||k||_1 (Young).
    """
    u = np.finfo(np.float64).eps / 2
    return float((len(k) + 2) * u * np.linalg.norm(x) * np.abs(k).sum())


def tfconv_modulus_with_bound(layer, x: np.ndarray, n: int):
    """Direct-path (B, C, L) modulus of ``layer`` on ``x`` and a (B, C, 1) bound on its FFT forward.

    ``x`` is in the layer's compute dtype and ``n`` is its FFT length.  The
    modulus is 1-Lipschitz in the correlation, so the correlation's bound
    carries over; computing sqrt(re^2 + im^2 + eps) adds 3u relative on each
    side (the oracle's in float64), on h <= ||x|| * ||k|| + sqrt(eps).
    """
    dtype = np.dtype(x.dtype)
    u, u64 = np.finfo(dtype).eps / 2, np.finfo(np.float64).eps / 2
    x64 = x.astype(np.float64)
    bank = layer.kernels()
    want = np.stack([np.sqrt(np.abs(reference_tft(row, layer.family, layer.theta)) ** 2
                             + EPS_MODULUS) for row in x64])
    bound = np.empty(want.shape[:2] + (1,))
    for b, row in enumerate(x64):
        for c, k in enumerate(bank):
            h_max = np.linalg.norm(row) * np.linalg.norm(k) + np.sqrt(EPS_MODULUS)
            bound[b, c] = (correlation_roundoff(row, k, n, dtype)[0] + direct_roundoff(row, k)
                           + 3 * (u + u64) * h_max)
    return want, bound


def whole_batch_tfconv(layer: TFconvLayer, x: np.ndarray):
    """(h, corr, Xf): ``layer``'s forward on ``x`` with the whole batch transformed at once.

    One (B, C, n) product of the signal and kernel spectra, one IFFT of it
    and a contiguous copy of its (B, C, L) slice, then the modulus (or the
    real part) over the whole batch: the formula the grouped forward must
    equal bit for bit, since every row is transformed by itself.
    """
    kern = layer.kernels().astype(np.result_type(x.dtype, 1j))
    grid = default_grid(layer.family)
    L, K = x.shape[1], len(grid)
    n = scipy.fft.next_fast_len(L + K - 1, real=True)
    Xf = scipy.fft.fft(x, n)
    Kf = scipy.fft.fft(np.ascontiguousarray(kern[:, ::-1]), n)
    start = K - 1 + int(grid[0])
    full = scipy.fft.ifft(Xf[:, None, :] * Kf[None, :, :], axis=-1)
    corr = np.ascontiguousarray(full[:, :, start : start + L])
    if not layer.modulus:
        return np.ascontiguousarray(corr.real), corr, Xf
    h = np.square(corr.real)
    h += np.square(corr.imag)
    h += EPS_MODULUS
    return np.sqrt(h, out=h), corr, Xf


def whole_batch_theta_gradient(layer: TFconvLayer, grad, Xf, corr, h) -> np.ndarray:
    """``layer``'s theta gradient of the (B, C, L) ``grad`` with the whole batch at once.

    From the forward's (Xf, corr, h): one (B, C, L) g = conj(corr) * grad /
    h (or ``grad`` without the modulus), one FFT of it, its product with
    conj(Xf) and the sum over the batch axis, then the taps and the
    einsum with d(psi)/d(theta): the formula the grouped backward must
    equal bit for bit, since every row is transformed by itself and added
    in batch order.
    """
    grid = default_grid(layer.family)
    K = len(grid)
    n = Xf.shape[1]
    if layer.modulus:
        g = np.conjugate(corr)
        g *= grad / h
    else:
        g = grad
    Gf = scipy.fft.fft(g, n)
    Gf *= np.conjugate(Xf)[:, None, :]
    taps = scipy.fft.ifft(Gf.sum(axis=0), axis=-1)[:, (int(-grid[0]) - np.arange(K)) % n]
    if not np.iscomplexobj(g):
        taps = taps.real
    return np.einsum("cpk,ck->cp", kernel_param_grad(layer.family, layer.theta), taps).real


def tfconv_theta_gradient_with_bound(layer, x: np.ndarray, w: np.ndarray, n: int):
    """Direct-path theta gradient of sum(w * h) for a modulus ``layer``, and its FFT bound.

    ``x`` is the (B, L) input and ``w`` the (B, C, L) upstream gradient,
    both in the layer's compute dtype; ``n`` is its FFT length.  The oracle
    chains the direct-path correlations z = corr(x, k) and d = corr(x, dpsi)
    through the modulus in float64: grad[c, p] = sum_{b,l} w * Re(conj(z) *
    d) / h, with g = conj(z) * w / h.  The (C, P) bound on |FFT gradient -
    oracle| is first order in u and sums, over b:

    - the error of g times |d|.  z is off by e, with |e_l| and ||e|| both
      at most tau (the forward's ``correlation_roundoff`` plus the oracle's
      ``direct_roundoff``); z / h moves by at most e_l / (h_l - e_l), and
      never by more than 2, so by Cauchy-Schwarz the sum is at most tau *
      ||w d / (h - tau)|| over samples with h > 1.5 tau, plus 2 |w d| over
      the rest; computing g rounds it by 6u relative;
    - the oracle's error in d, ||w|| * ``direct_roundoff(x, dpsi)``;
    - the tap gradient's FFT correlation of g with x, whose error vector
      over the taps meets dpsi in a dot product, so ||dpsi|| times its
      ``correlation_roundoff``, plus (B-1)*u*||g (*) x|| for the sum over
      the batch and K*u*||g (*) x|| for the float64 sum over taps;
    - the oracle's float64 sums, (log2(B*L) + 3)*u * sum |w d|.
    """
    dtype = np.dtype(x.dtype)
    u, u64 = np.finfo(dtype).eps / 2, np.finfo(np.float64).eps / 2
    x64, w64 = x.astype(np.float64), w.astype(np.float64)
    B, L = x64.shape
    bank = layer.kernels()
    grid = default_grid(layer.family)
    dpsi = kernel_param_grad(layer.family, layer.theta)  # (C, P, K)
    C, P, K = dpsi.shape
    want = np.zeros((C, P))
    bound = np.zeros((C, P))
    for c in range(C):
        for b in range(B):
            z = cross_correlate_same(x64[b], bank[c], grid)
            h = np.sqrt(z.real**2 + z.imag**2 + EPS_MODULUS)
            g = np.conj(z) * w64[b, c] / h
            tau = correlation_roundoff(x64[b], bank[c], n, dtype)[0] + direct_roundoff(x64[b], bank[c])
            taps_err, taps_norm = correlation_roundoff(x64[b], g, n, dtype)
            far = h > 1.5 * tau
            for p in range(P):
                d = cross_correlate_same(x64[b], dpsi[c, p], grid)
                wd = np.abs(w64[b, c] * d)
                want[c, p] += np.sum(w64[b, c] * (z.real * d.real + z.imag * d.imag) / h)
                bound[c, p] += (tau * np.linalg.norm(wd[far] / (h[far] - tau))
                                + 2 * np.sum(wd[~far]) + 6 * u * np.sum(wd)
                                + np.linalg.norm(w64[b, c]) * direct_roundoff(x64[b], dpsi[c, p])
                                + np.linalg.norm(dpsi[c, p]) * (taps_err + (B - 1 + K) * u * taps_norm)
                                + (np.log2(B * L) + 3) * u64 * np.sum(wd))
    return want, bound


def conv1d_input_grad_per_tap(weight: np.ndarray, grad: np.ndarray, padding: str = "valid"):
    """Input gradient of a stride-1 ``Conv1d``, one full-batch GEMM per tap.

    ``weight`` is (out, in, taps) and ``grad`` the (B, L_out, out) upstream
    gradient.  For each tap m the (B*L_out, in) product ``grad @ weight[:, :, m]``
    is built and added into rows m..m+L_out of every sample, then same
    padding is cropped off.  The reference for ``Conv1d.backward``'s input
    gradient, which works a group of samples at a time.
    """
    B, L_out, O = grad.shape
    _, C, K = weight.shape
    L_pad = L_out + K - 1
    g2 = np.ascontiguousarray(grad).reshape(B * L_out, O)
    w_taps = np.ascontiguousarray(weight.transpose(2, 0, 1))  # (K, O, C)
    gx = np.zeros((B, L_pad, C), dtype=weight.dtype)
    for m in range(K):
        gx[:, m : m + L_out, :] += (g2 @ w_taps[m]).reshape(B, L_out, C)
    if padding == "same":
        left, right = same_pad_widths(K)
        gx = gx[:, left : L_pad - right, :]
    return gx


def _padded_im2col(conv, x: np.ndarray) -> np.ndarray:
    """The (B*L_out, taps*in) matrix of every sample's windows of ``x``, built row by row."""
    K = conv.kernel_size
    if conv.padding == "same":
        x = np.pad(x, ((0, 0), same_pad_widths(K), (0, 0)))
    B, L_pad, C = x.shape
    L_out = L_pad - K + 1
    cols = np.empty((B * L_out, K * C), dtype=x.dtype)
    for b in range(B):
        for t in range(L_out):
            cols[b * L_out + t] = x[b, t : t + K].reshape(-1)
    return cols


def conv1d_grads_full_batch_im2col(conv, x: np.ndarray, grad: np.ndarray):
    """(weight, bias, input) gradients of ``conv`` from one full-batch im2col matrix.

    ``x`` is the (B, L, in) input and ``grad`` the (B, L_out, out) upstream
    gradient.  The (B*L_out, taps*in) matrix of every sample's windows is
    built at once, the way a training forward once kept it, and the weight
    gradient is its one GEMM with ``grad``; the input gradient is
    ``conv1d_input_grad_per_tap``.  The reference for ``Conv1d``'s bias and
    input gradients, and for its weight gradient when one sample group
    covers the batch.
    """
    O = conv.out_channels
    g2 = np.ascontiguousarray(grad).reshape(-1, O)
    wgrad = (g2.T @ _padded_im2col(conv, x)).reshape(O, conv.kernel_size, -1).transpose(0, 2, 1)
    return wgrad, g2.sum(axis=0), conv1d_input_grad_per_tap(conv.weight, grad, conv.padding)


def conv1d_weight_grad_in_groups(conv, x: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """``conv``'s weight gradient as a batch-order sum of one GEMM per sample group.

    The groups are the forward GEMM's ``nn._sample_groups``; each group's
    rows of ``_padded_im2col`` make one GEMM with its rows of ``grad``, and
    the products are added first to last.  The reference for
    ``Conv1d``'s weight gradient, which sums the batch in this order.
    """
    B, L_out, O = grad.shape
    K, C = conv.kernel_size, conv.in_channels
    cols = _padded_im2col(conv, x)
    g2 = np.ascontiguousarray(grad).reshape(B * L_out, O)
    total = 0
    for lo, hi in _sample_groups(B, L_out * K * C * O):
        total = total + g2[lo * L_out : hi * L_out].T @ cols[lo * L_out : hi * L_out]
    return total.reshape(O, K, C).transpose(0, 2, 1)


def gamma(n: int, dtype) -> float:
    """Higham's gamma_n = n*u / (1 - n*u), u = eps/2 the unit roundoff of ``dtype``.

    A sum of rounded products in which no term meets more than n roundings
    (its product and its additions, in any order) is off by at most gamma_n
    times the sum of the terms' absolute values (Higham, *Accuracy and
    Stability of Numerical Algorithms*, 2nd ed., Lemma 3.1 and eq. 3.5).
    """
    u = float(np.finfo(dtype).eps) / 2
    return n * u / (1 - n * u)


def conv1d_direct(x: np.ndarray, weight: np.ndarray, padding: str = "valid") -> np.ndarray:
    """Long-double stride-1 ``Conv1d`` without bias: one shifted product per tap.

    ``x`` is (B, L, in), ``weight`` (out, in, taps); the result is (B, L_out, out).
    """
    x = np.asarray(x, dtype=np.longdouble)
    weight = np.asarray(weight, dtype=np.longdouble)
    K = weight.shape[2]
    if padding == "same":
        x = np.pad(x, ((0, 0), same_pad_widths(K), (0, 0)))
    L_out = x.shape[1] - K + 1
    out = np.zeros((x.shape[0], L_out, weight.shape[0]), dtype=np.longdouble)
    for m in range(K):
        out += np.einsum("blc,oc->blo", x[:, m : m + L_out], weight[:, :, m])
    return out


def adaptive_avg_pool_direct(x: np.ndarray, edges) -> np.ndarray:
    """Long-double ``AdaptiveAvgPool`` of a (B, L, C) array over (start, end) bins."""
    x = np.asarray(x, dtype=np.longdouble)
    return np.stack([x[:, s:e].sum(axis=1) / (e - s) for s, e in edges], axis=1)


def adjoint_gap_with_bound(apply, apply_abs, v, w, transposed, chain: int, n_terms: int):
    """(gap, bound) of the dot-product test <A v, w> == <v, A^T w>.

    ``apply`` maps a long-double ``v`` to A v, and ``apply_abs`` to |A| v
    (every coefficient of A replaced by its absolute value), both in long
    double; ``transposed`` is A^T w as a layer's float64 backward computed
    it.  S = <|A| |v|, |w|> is the sum of the absolute values of the
    ``n_terms`` products v_i A_ji w_j.  No entry of ``transposed`` meets more
    than ``chain`` float64 roundings per term, so <v, A^T w> moves by at
    most gamma_chain(float64) * S; each side's long-double sum meets at most
    n_terms + 2 roundings per term.  ``bound`` is the sum of the three.
    """
    ld = np.longdouble
    v, w = np.asarray(v, dtype=ld), np.asarray(w, dtype=ld)
    lhs = np.sum(apply(v) * w)
    rhs = np.sum(v * np.asarray(transposed, dtype=ld))
    total = np.sum(apply_abs(np.abs(v)) * np.abs(w))
    bound = (gamma(chain, np.float64) + 2 * gamma(n_terms + 2, ld)) * total
    return float(abs(lhs - rhs)), float(bound)


def _abs_conv(conv: Conv1d, v: np.ndarray) -> np.ndarray:
    """float64 |W| correlated with ``v``, in ``conv``'s geometry, bias left out."""
    absolute = copy.copy(conv)
    absolute.weight = np.abs(conv.weight).astype(np.float64)
    absolute.bias = np.zeros(conv.out_channels)
    return absolute.forward(v)


def _fold_sites(layers, unfolded, a, dtype):
    """Run the folded ``layers`` forward, keeping backward state; list each output's rounding bound.

    ``unfolded`` maps a folded conv to the (conv, norm) pair it replaced.
    Each entry is (layer, bound, inner): ``bound`` is a first-order bound,
    at the computed input, on how far either stack's output of that layer
    (the unfolded one's output of the layers it stands for) is from the
    exact output on the same input; ``inner`` lists a residual branch.  A
    sum of n rounded terms is off by ``gamma(n)`` times the sum of their
    absolute values.  Unfolded, a pair's product term meets the conv's
    K*C + 1 roundings, then the norm's scale (rv + eps, its square root,
    the reciprocal, gamma*istd: 4), the product with it and the final
    addition: K*C + 7.  Folded, the weight W*scale meets 4, the dot product
    K*C and the bias addition 1: K*C + 5.  The shift and the folded bias
    terms meet at most 7.  So both are within gamma_{K*C+7} times
    scale*(|W| * |a| + |b| + |m|) + |beta|.  A lone conv meets K*C + 1, a
    Dense in + 1, an AdaptiveAvgPool bin its width + 1 (the sum and the
    division), a residual sum 1; ReLU, MaxPool and Flatten round nothing.
    The front layer and the norm after it compute the same bits in both
    stacks, so they get ``None``: no gradient is taken past them.
    """
    sites = []
    for layer in layers:
        mag = np.abs(np.asarray(a, dtype=np.float64))
        inner = None
        if isinstance(layer, (TFconvLayer, BatchNorm1d)):
            out, bound = layer.forward(a), None
            if isinstance(layer, TFconvLayer):
                out = np.ascontiguousarray(out.transpose(0, 2, 1))
        elif isinstance(layer, Residual):
            inner, branch = _fold_sites(layer.sublayers, unfolded, a, dtype)
            out = branch + a
            bound = gamma(1, dtype) * (np.abs(branch) + mag)
        else:
            if isinstance(layer, Conv1d):
                n = layer.kernel_size * layer.in_channels
                conv, norm = unfolded.get(layer, (layer, None))
                terms = _abs_conv(conv, mag) + np.abs(conv.bias)
                if norm is None:
                    bound = gamma(n + 1, dtype) * terms
                else:
                    scale = np.abs(norm.gamma.astype(np.float64)) / np.sqrt(
                        norm.running_var.astype(np.float64) + norm.eps)
                    bound = gamma(n + 7, dtype) * (scale * (terms + np.abs(norm.running_mean))
                                                   + np.abs(norm.beta))
            elif isinstance(layer, Dense):
                bound = gamma(layer.in_features + 1, dtype) * (
                    mag @ np.abs(layer.weight.T) + np.abs(layer.bias))
            elif isinstance(layer, AdaptiveAvgPool):
                starts, ends = layer._edges(a.shape[1])
                width = max(hi - lo for lo, hi in zip(starts, ends))
                bound = gamma(width + 1, dtype) * layer.forward(mag)
            elif isinstance(layer, (ReLU, MaxPool, Flatten)):
                bound = 0.0
            else:
                raise TypeError(f"no rounding rule for {type(layer).__name__}")
            out = layer.forward(a, training=True)
        sites.append((layer, bound, inner))
        a = out
    return sites, a


def _weighted_bounds(sites, g, total):
    """Add <|g|, bound> per sample for each site, back to front; return the input gradient."""
    for layer, bound, inner in reversed(sites):
        if bound is None:
            return g
        total += np.sum(np.abs(g) * bound, axis=tuple(range(1, g.ndim)))
        g = _weighted_bounds(inner, g, total) + g if inner is not None else layer.backward(g)
    return g


def fold_deviation_bound(model: Model, folded: Model, x: np.ndarray) -> np.ndarray:
    """(B, n_classes) first-order bound on |folded - unfolded| inference logits of (B, L) ``x``.

    Both stacks compute the same exact function.  To first order each
    logit's error is the sum over layers of the logit's gradient with
    respect to that layer's output times the layer's rounding error, so
    the two stacks' logits differ by at most twice the sum over the folded
    stack's layers of <|d logit / d output|, bound> (``_fold_sites``).  The
    gradients are the folded stack's backward, one class at a time, each
    after its own training forward, since a backward consumes the state its
    forward kept; at inference a sample's logits depend on that sample
    alone.  The backward overwrites the gradient arrays of ``model`` that
    ``folded`` shares.
    """
    leaves = list(model.walk_layers())
    convs = [(layer, leaves[i + 1]) for i, layer in enumerate(leaves) if isinstance(layer, Conv1d)]
    # folding keeps every conv in order and gives a folded one a new weight array
    unfolded = {f: (conv, norm) for f, (conv, norm) in zip(
        [layer for layer in folded.walk_layers() if isinstance(layer, Conv1d)], convs)
        if f.weight is not conv.weight}
    a = np.asarray(x, dtype=model.dtype)
    if model.tfconv is None:
        a = a[:, :, None]
    bound = np.zeros((a.shape[0], model.n_classes))
    for k in range(model.n_classes):
        sites, logits = _fold_sites(folded.layers, unfolded, a, model.dtype)
        g = np.zeros_like(logits)
        g[:, k] = 1.0
        _weighted_bounds(sites, g, bound[:, k])
    return 2 * bound


def forward_out_of_place(model: Model, x: np.ndarray) -> np.ndarray:
    """Inference logits of ``model`` with no layer allowed to overwrite its input.

    Every leaf layer's ``forward`` is wrapped to get a copy of its input
    for the duration of the call, so no layer writes an array another
    reads.  The reference for ``Model.forward``, whose inference layers may
    write into their input.
    """
    layers = list(model.walk_layers())
    for layer in layers:
        layer.forward = (lambda x, training=False, f=layer.forward:
                         f(x.copy(), training=training))
    try:
        return model.forward(x, training=False)
    finally:
        for layer in layers:
            vars(layer).pop("forward", None)


def training_steps(model: Model, x: np.ndarray, y: np.ndarray, steps: int,
                   out_of_place: bool = False) -> list[bytes]:
    """The bytes of each step's loss, gradients and updated parameters over ``steps`` Adam steps.

    Every step trains on the same (B, L) batch ``x`` with labels ``y``.  With
    ``out_of_place`` each leaf layer's forward is passed a copy of its input
    and its backward a copy of its gradient, so no layer writes an array
    another reads: the reference for the walker's writes into its own arrays.
    """
    layers = list(model.walk_layers()) if out_of_place else []
    for layer in layers:
        layer.forward = (lambda x, training=False, f=layer.forward:
                         f(x.copy(), training=training))
        layer.backward = lambda grad, f=layer.backward: f(grad.copy())
    opt, record = Adam(model.parameters()), []
    try:
        for _ in range(steps):
            loss, grad = softmax_cross_entropy(model.forward(x, training=True), y)
            model.backward(grad)
            opt.step(model.gradients(), 1e-3)
            model.project_params()
            record.append(np.float64(loss).tobytes() + b"".join(
                a.tobytes() for a in model.gradients() + model.parameters()))
    finally:
        for layer in layers:
            vars(layer).pop("forward", None)
            vars(layer).pop("backward", None)
    return record


def maxpool_input_grad_where(choice: np.ndarray, grad: np.ndarray, length: int) -> np.ndarray:
    """Input gradient of pair max pooling, routed with ``np.where`` into a zeroed array.

    ``choice`` is the (B, L_out, C) mask of pairs whose right slot won and
    ``grad`` the upstream gradient; ``length`` is the input length, whose odd
    trailing sample gets 0.  The reference for ``MaxPool.backward``, which
    routes by multiplying.
    """
    B, L_out, C = grad.shape
    gx = np.zeros((B, length, C), dtype=grad.dtype)
    gx[:, 0 : 2 * L_out : 2, :] = np.where(choice, 0.0, grad)
    gx[:, 1 : 2 * L_out : 2, :] = np.where(choice, grad, 0.0)
    return gx


def softmax_cross_entropy_with_bound(logits: np.ndarray, labels: np.ndarray):
    """(loss, loss_bound, grad, grad_bound): ``softmax_cross_entropy``'s closed form in long double.

    With z = l - max(l) per row, E = exp(z), T = sum E and P = E / T: loss =
    mean(log T - z[label]) and grad = (P - onehot) / B.  The bounds are first
    order in the unit roundoff u of float64, in which the function computes
    (float32 logits convert exactly), with exp and log within 1 ulp (2u
    relative), the tolerance numpy's validation tests hold float64 exp and
    log to:

    - z rounds by u|z|, so each E by eps = 2u + u|z|, and T, a sum of C
      positive terms, by tau = sum(eps E) / T + gamma_{C-1};
    - P = E / T by (eps + tau + u) P; P - onehot and the division by B add
      u|P - onehot| each; a float32 gradient then rounds by u32 |grad|; the
      division and the cast, which can land below the normal range, add half
      the output dtype's smallest subnormal each;
    - log T by tau + 2u log T (T >= 1: the row's largest term is exp(0)),
      z[label] by u|z|, and their difference r >= 0 by u r; the sum of B
      such rows adds gamma_{B-1} sum r, and the division by B u loss.

    The long double reference's own error is the same expression at its u.
    Logits whose exponentials leave the normal float64 range are rejected,
    since an underflowed term's error is absolute.
    """
    ld = np.longdouble
    labels = np.asarray(labels)
    z = np.asarray(logits, dtype=ld)
    z = z - z.max(axis=1, keepdims=True)
    if np.any(z < np.log(np.finfo(np.float64).tiny)):
        raise ValueError("an exponential underflows float64; the bound does not cover it")
    B, C = z.shape
    E = np.exp(z)
    T = E.sum(axis=1, keepdims=True)
    P = E / T
    onehot = np.zeros_like(P)
    onehot[np.arange(B), labels] = 1
    z_label = z[np.arange(B), labels]
    r = np.log(T[:, 0]) - z_label
    loss, grad = r.sum() / B, (P - onehot) / B

    def bound(dtype):
        u = ld(np.finfo(dtype).eps) / 2
        eps = 2 * u + u * np.abs(z)
        tau = (eps * E).sum(axis=1, keepdims=True) / T + gamma(C - 1, dtype)
        grad_bound = ((eps + tau + u) * P + 2 * u * np.abs(P - onehot)) / B
        loss_bound = ((tau[:, 0] + 2 * u * np.log(T[:, 0]) + u * np.abs(z_label) + u * r).sum() / B
                      + (gamma(B - 1, dtype) + u) * loss)
        return loss_bound, grad_bound

    loss64, grad64 = bound(np.float64)
    loss_ld, grad_ld = bound(ld)
    out = np.finfo(np.asarray(logits).dtype)
    grad_bound = grad64 + grad_ld + ld(out.smallest_subnormal)
    if out.dtype != np.float64:
        grad_bound += ld(out.eps) / 2 * np.abs(grad)
    return loss, loss64 + loss_ld, grad, grad_bound


def central_difference(fn, arr: np.ndarray, index, h: float = 1e-6) -> float:
    """Central finite difference of scalar ``fn`` wrt one entry of ``arr``.

    Mutates ``arr`` in place and restores it, so ``fn`` can close over the
    live parameter array of a layer.
    """
    old = arr[index]
    arr[index] = old + h
    f_plus = fn()
    arr[index] = old - h
    f_minus = fn()
    arr[index] = old
    return (f_plus - f_minus) / (2.0 * h)


def relative_error(got: float, want: float, floor: float = 1e-8) -> float:
    return abs(got - want) / max(abs(got), abs(want), floor)


def model_loss_fn(model: Model, x: np.ndarray, y: np.ndarray, training: bool = True):
    """Closure computing the scalar training loss for gradient checks."""

    def fn() -> float:
        logits = model.forward(x, training=training)
        loss, _ = softmax_cross_entropy(logits, y)
        return float(loss)

    return fn


def check_model_gradients(model: Model, x: np.ndarray, y: np.ndarray,
                          rel_tol: float = 1e-4, h: float = 1e-6,
                          max_entries_per_param: int | None = None,
                          rng: np.random.Generator | None = None) -> float:
    """Backprop gradients vs central differences for every parameter entry.

    Returns the worst relative error seen.  Large parameter tensors can be
    subsampled (``max_entries_per_param``) to keep runtime bounded; the
    sampled index set is drawn from ``rng``.
    """
    logits = model.forward(x, training=True)
    _, grad_logits = softmax_cross_entropy(logits, y)
    model.backward(grad_logits)
    analytic = [g.copy() for g in model.gradients()]
    fn = model_loss_fn(model, x, y)
    worst = 0.0
    for p, g in zip(model.parameters(), analytic):
        flat_indices = np.arange(p.size)
        if max_entries_per_param is not None and p.size > max_entries_per_param:
            flat_indices = rng.choice(p.size, size=max_entries_per_param, replace=False)
        for flat in flat_indices:
            index = np.unravel_index(int(flat), p.shape)
            numeric = central_difference(fn, p, index, h)
            err = relative_error(float(g[index]), numeric)
            worst = max(worst, err)
            assert err <= rel_tol, (
                f"gradient mismatch at param shape {p.shape} index {index}: "
                f"analytic {g[index]:.10g}, numeric {numeric:.10g}, rel err {err:.3g}"
            )
    return worst


def signed_parts(raw: bytes) -> tuple[bytes, bytes]:
    """(JSON header, payload) of signed-file bytes ``raw``, past its magic and digest."""
    (hlen,) = struct.unpack("<I", raw[36:40])
    return raw[40 : 40 + hlen], raw[40 + hlen :]


def resign(path, header, payload=None) -> None:
    """Rewrite the signed file at ``path`` with ``header`` and a digest that matches.

    The file keeps its magic, so this serves checkpoints and datasets alike.
    ``header`` is raw bytes, or a JSON value dumped as ``write_signed`` dumps it;
    ``payload`` replaces the payload, which is kept by default.  An edited
    file that is re-signed gets past the digest to the check after it.
    """
    raw = Path(path).read_bytes()
    if not isinstance(header, bytes):
        header = json.dumps(header, sort_keys=True).encode()
    if payload is None:
        payload = signed_parts(raw)[1]
    body = struct.pack("<I", len(header)) + header + payload
    Path(path).write_bytes(raw[:4] + hashlib.sha256(body).digest() + body)


def edit_header(path, edit) -> None:
    """Apply ``edit`` to the JSON header dict of the signed file at ``path`` and re-sign it."""
    header = json.loads(signed_parts(Path(path).read_bytes())[0])
    edit(header)
    resign(path, header)


def flip_bit(raw: bytes, at: int, bit: int = 0) -> bytes:
    return raw[:at] + bytes([raw[at] ^ 1 << bit]) + raw[at + 1 :]


def corrupt_dataset(raw: bytes, case: str) -> bytes:
    """Dataset-file bytes ``raw`` with one edit that is not re-signed: a flipped signal or
    label bit, an edited information band or class name, or the last byte cut off."""
    header, payload = signed_parts(raw)
    if case == "signal-bit":
        return raw[: -len(payload)] + flip_bit(payload, 8 * 7 + 2, 3)
    if case == "label-bit":
        return flip_bit(raw, len(raw) - 4)
    if case == "truncated":
        return raw[:-1]
    old, new = {"band": (b"[0.16, 0.2]", b"[0.17, 0.2]"),
                "class-name": (b'"impulse-fast"', b'"impulse-slow"')}[case]
    assert old in header
    return raw[:40] + header.replace(old, new) + payload


def fails_naming(path, raw: bytes, load) -> bool:
    """Whether ``load()`` raises a ValueError naming ``path`` once ``raw`` is written there."""
    Path(path).write_bytes(raw)
    try:
        load()
    except ValueError as exc:
        return str(path) in str(exc)
    return False


# Numbers and texts stay small: a header's class or channel count, up to the
# payload's value count, sizes the model that the checkpoint loader builds
# before it checks the payload's length, and ``int("999999")`` is a count too.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 64) | st.floats(-64, 64)
    | st.sampled_from([np.inf, -np.inf, np.nan]) | st.text("ab_-.", max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text("ab_-.", max_size=6),
                                                                inner, max_size=3),
    max_leaves=6)


def fuzz_header(data, header: dict) -> None:
    """Replace or delete one entry of ``header``, at any depth, as hypothesis ``data`` draws."""
    node = header
    while True:
        key = data.draw(st.sampled_from(list(node) if isinstance(node, dict)
                                        else range(len(node))))
        child = node[key]
        if isinstance(child, (dict, list)) and child and data.draw(st.booleans()):
            node = child
        elif isinstance(node, dict) and data.draw(st.booleans()):
            del node[key]
            return
        else:
            node[key] = data.draw(JSON_VALUES)
            return


def csv_rows(path) -> tuple[str, list[list[str]]]:
    """The header line and the comma-split rows of the CSV file at ``path``."""
    header, *lines = Path(path).read_text().splitlines()
    return header, [line.split(",") for line in lines]


def tree_digest(root) -> dict[str, str]:
    """``{path relative to root: sha256 hex digest}`` for every file below ``root``."""
    root = Path(root)
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def run_freq_response(model: Model, out: Path, *settings) -> Path:
    """Save ``model`` next to ``out`` and run ``tfnet freq-response`` on it into ``out``."""
    ckpt = out.with_name(out.name + ".tfn")
    save_model(model, ckpt)
    code = main(["freq-response", "--out", str(out), "--set", f"checkpoint={ckpt}", *settings])
    assert code == EXIT_OK
    return out
