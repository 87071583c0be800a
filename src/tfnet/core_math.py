"""Deterministic numerical primitives: FFT-based sliding-inner-product correlation.

All "convolutions" in this package are cross-correlations (no kernel flip),
the deep-learning convention.  Kernels may be complex; signals are real.
Everything here is a pure function of its inputs and safe to call from any
number of threads.
"""

import numpy as np
import scipy.fft


def same_pad_widths(kernel_len: int) -> tuple[int, int]:
    """(left, right) zero-pad widths that keep correlation length-preserving."""
    return (kernel_len - 1) // 2, kernel_len - 1 - (kernel_len - 1) // 2


def batch_correlate_same(x: np.ndarray, kernels: np.ndarray) -> np.ndarray:
    """FFT-based length-preserving correlation of a batch against a kernel bank.

    Parameters
    ----------
    x : (B, L) real array
    kernels : (C, K) real or complex array, K odd

    Returns
    -------
    (B, C, L) array; complex iff ``kernels`` is complex.  Matches the
    direct-path oracle ``cross_correlate_same(x[b], kernels[c])`` in
    ``tests/helpers.py`` up to FFT round-off, which is absolute: every
    output of row (b, c) is off by up to a small multiple of
    ``eps * ||x[b]|| * ||kernels[c]||`` (2-norms), whatever its own size.
    Outputs far below that scale, such as those that only a kernel's tail
    reaches, have no relative accuracy.
    """
    x = np.asarray(x)
    kernels = np.asarray(kernels)
    if x.ndim != 2 or kernels.ndim != 2:
        raise ValueError("batch_correlate_same expects x:(B,L), kernels:(C,K)")
    B, L = x.shape
    C, K = kernels.shape
    if K % 2 == 0:
        raise ValueError("batch_correlate_same: kernel length must be odd")
    left, _right = same_pad_widths(K)
    n = scipy.fft.next_fast_len(L + K - 1)
    # correlation == full convolution with the reversed kernel; scipy.fft
    # keeps single-precision inputs single-precision
    Xf = scipy.fft.fft(x, n)
    Kf = scipy.fft.fft(np.ascontiguousarray(kernels[:, ::-1]), n)
    full = scipy.fft.ifft(Xf[:, None, :] * Kf[None, :, :], axis=-1)
    start = K - 1 - left
    out = full[:, :, start : start + L]
    if not (np.iscomplexobj(x) or np.iscomplexobj(kernels)):
        return np.ascontiguousarray(out.real)
    return np.ascontiguousarray(out)


def batch_conv_full_slice(g: np.ndarray, x: np.ndarray, kernels: np.ndarray):
    """Adjoint of :func:`batch_correlate_same` in both the signal and the kernels.

    From one FFT of the (B, C, L) upstream gradient ``g`` (real or complex),
    with ``x`` the real (B, L) signal and ``kernels`` the (C, K) bank, returns
    ``(grad_x, taps)``: ``grad_x`` (B, L, complex; the caller takes the real
    part it needs) is sum_c full_convolution(g[:, c], kernels[c]) sliced to
    length L from floor((K-1)/2); ``taps`` (C, K, real iff ``g`` is) is
    taps[c, k] = sum_{b,l} g[b, c, l] * x_pad[b, l + k] with ``x_pad`` padded
    as in the forward, read from IFFT(sum_b G * conj(X)) at lags
    (left - k) mod n.  FFT round-off is absolute, as in the forward: about
    ``eps * sum_c ||g[b, c]|| * ||kernels[c]||`` for ``grad_x[b]`` and ``eps *
    sum_b ||g[b, c]|| * ||x[b]||`` for ``taps[c]``.  The name predates
    ``taps``; the benchmark's per-layer trace looks it up by name.
    """
    g = np.asarray(g)
    x = np.asarray(x)
    kernels = np.asarray(kernels)
    B, C, L = g.shape
    K = kernels.shape[1]
    if kernels.shape[0] != C:
        raise ValueError("batch_conv_full_slice: channel mismatch")
    if x.shape != (B, L):
        raise ValueError(f"batch_conv_full_slice: x shape {x.shape} != {(B, L)}")
    left, _right = same_pad_widths(K)
    n = scipy.fft.next_fast_len(L + K - 1)
    Gf = scipy.fft.fft(g, n)
    Kf = scipy.fft.fft(kernels, n)
    full = scipy.fft.ifft(np.einsum("bcn,cn->bn", Gf, Kf), axis=-1)
    Xf = scipy.fft.fft(x, n)
    cross = scipy.fft.ifft(np.einsum("bcn,bn->cn", Gf, Xf.conj()), axis=-1)
    taps = cross[:, (left - np.arange(K)) % n]
    return full[:, left : left + L], (taps if np.iscomplexobj(g) else taps.real)
