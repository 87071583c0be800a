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


def batch_conv_full_slice(g: np.ndarray, kernels: np.ndarray, out_len: int) -> np.ndarray:
    """Adjoint of :func:`batch_correlate_same` with respect to the signal.

    Computes sum_c full_convolution(g[:, c], kernels[c]) and returns the
    length-``out_len`` slice starting at floor((K-1)/2).  ``g`` may be
    complex; the caller takes the real part it needs.  As in
    :func:`batch_correlate_same`, the FFT round-off is absolute, on the scale
    of ``eps * ||g[b, c]|| * ||kernels[c]||`` summed over channels, not
    relative to each output.
    """
    g = np.asarray(g)
    kernels = np.asarray(kernels)
    B, C, L = g.shape
    Ck, K = kernels.shape
    if Ck != C:
        raise ValueError("batch_conv_full_slice: channel mismatch")
    left, _right = same_pad_widths(K)
    n = scipy.fft.next_fast_len(L + K - 1)
    Gf = scipy.fft.fft(g, n)
    Kf = scipy.fft.fft(kernels, n)
    summed = np.einsum("bcn,cn->bn", Gf, Kf)
    full = scipy.fft.ifft(summed, axis=-1)
    return np.ascontiguousarray(full[:, left : left + out_len])
