"""Deterministic numerical primitives: FFT-based sliding-inner-product correlation.

All "convolutions" in this package are cross-correlations (no kernel flip),
the deep-learning convention.  Kernels may be complex; signals are real.
Everything here is a pure function of its inputs and safe to call from any
number of threads.

A kernel's integer ``grid`` of tap indices sets its alignment: output l
reads x[l + grid[k]] through tap k, the signal zero outside [0, L).  So the
signal is padded with -grid[0] zeros on the left and grid[-1] on the right;
a centred grid gives the ``same_pad_widths`` of its length, and a one-sided
grid (0..K-1) none on the left.

Both functions transform at n = ``next_fast_len(L + K - 1, real=True)``,
the shortest 5-smooth length holding the full correlation (1080 for L=1024,
K=51; 4500 for L=4096, K=301).  The forward, grouped by samples, returns
the signal batch's (B, n) spectrum too; the adjoint takes it instead of x.
"""

import numpy as np
import scipy.fft


def same_pad_widths(kernel_len: int) -> tuple[int, int]:
    """(left, right) zero-pad widths that keep correlation length-preserving."""
    return (kernel_len - 1) // 2, kernel_len - 1 - (kernel_len - 1) // 2


def _left_pad(grid, kernel_len: int) -> int:
    """Zeros padded ahead of the signal for a ``kernel_len``-tap kernel on ``grid``."""
    left = -int(grid[0])
    if len(grid) != kernel_len or not 0 <= left < kernel_len:
        raise ValueError(f"a grid of {len(grid)} taps from index {int(grid[0])} does not "
                         f"hold tap index 0 of a {kernel_len}-tap kernel")
    return left


# The forward multiplies, inverse-transforms and reduces a group of samples at
# a time, each group's (S, C, n) complex block within this many bytes (3
# samples at L=4096, K=301, C=8 in complex64; 7 at L=1024, K=51, C=8 in
# complex128), so only ``keep`` holds a batch-sized complex array.  Each row
# is transformed by itself, so the grouping changes no bit of the result.
# The whole batch's product, IFFT and slice copy (57.6, 57.6 and 52.4 MB at
# B=200, L=4096, C=8, complex64) each exceeded glibc's largest mmap
# threshold, so every call mapped and faulted them in afresh.  In groups,
# on a 2-core x86-64 host with one BLAS thread (perfbench, 12 alternating
# pairs), train-tfconv's evaluation ran 1122 -> 1540 samples/s (medians)
# and its peak RSS fell from 269 to 200 MiB, with the training step flat.
_GROUP_BYTES = 1 << 20


def batch_correlate_same(x: np.ndarray, kernels: np.ndarray, grid: np.ndarray,
                         eps_modulus: float | None = None,
                         keep: bool = False) -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
    """FFT-based length-preserving correlation of a batch against a kernel bank.

    Parameters
    ----------
    x : (B, L) real array
    kernels : (C, K) complex array
    grid : (K,) consecutive integer tap indices, from at most 0 to at least 0
    eps_modulus : ``out`` is sqrt(|corr|**2 + eps_modulus), or Re(corr) if ``None``
    keep : whether to return the complex ``corr`` too

    Returns
    -------
    ``(out, corr, Xf)``: the (B, C, L) real output and complex correlation
    (``None`` unless ``keep``), and the (B, n) spectrum of ``x`` that
    :func:`batch_conv_full_slice` takes.  ``corr`` matches the direct-path
    oracle ``cross_correlate_same(x[b], kernels[c], grid)`` in
    ``tests/helpers.py`` up to FFT round-off, which is absolute: every output
    of row (b, c) is off by up to a small multiple of ``eps * ||x[b]|| *
    ||kernels[c]||`` (2-norms), whatever its own size.  Outputs far below
    that scale, such as those that only a kernel's tail reaches, have no
    relative accuracy.
    """
    if x.ndim != 2 or kernels.ndim != 2:
        raise ValueError("batch_correlate_same expects x:(B,L), kernels:(C,K)")
    B, L = x.shape
    C, K = kernels.shape
    left = _left_pad(grid, K)
    n = scipy.fft.next_fast_len(L + K - 1, real=True)
    # correlation == full convolution with the reversed kernel; scipy.fft
    # keeps single-precision inputs single-precision
    Xf = scipy.fft.fft(x, n)
    Kf = scipy.fft.fft(np.ascontiguousarray(kernels[:, ::-1]), n)
    dtype = np.result_type(Xf, Kf)
    out = np.empty((B, C, L), np.finfo(dtype).dtype)
    corr = np.empty((B, C, L), dtype) if keep else None
    start = K - 1 - left
    step = max(1, _GROUP_BYTES // max(1, C * n * dtype.itemsize))
    for lo in range(0, B, step):
        block = scipy.fft.ifft(Xf[lo : lo + step, None, :] * Kf, axis=-1)[:, :, start : start + L]
        rows = out[lo : lo + step]
        if keep:
            corr[lo : lo + step] = block
        if eps_modulus is None:
            rows[...] = block.real
        else:
            np.sqrt(np.square(block.real) + np.square(block.imag) + eps_modulus, out=rows)
    return out, corr, Xf


def batch_conv_full_slice(g: np.ndarray, Xf: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Adjoint of :func:`batch_correlate_same` in its kernels: the per-tap gradient.

    For the (B, C, L) upstream gradient ``g`` (real or complex) and the
    (B, n) spectrum ``Xf`` of the real signal batch ``x`` that
    :func:`batch_correlate_same` returned, and the kernels' ``grid``, returns
    the (C, K) array ``taps`` (real iff ``g`` is), taps[c, k] = sum_{b,l}
    g[b, c, l] * x_pad[b, l + k] with ``x_pad`` padded as in the forward, read from
    IFFT(sum_b G * conj(X)) at lags (left - k) mod n.  FFT round-off is
    absolute, as in the forward: about ``eps * sum_b ||g[b, c]|| * ||x[b]||``
    for ``taps[c]``.  There is no signal-side half: the layer that calls
    this is always the model's front layer, whose input gradient nothing
    reads.  The name predates that; the benchmark's per-layer trace looks
    the function up by it.
    """
    B, C, L = g.shape
    kernel_len = len(grid)
    n = scipy.fft.next_fast_len(L + kernel_len - 1, real=True)
    if Xf.shape != (B, n):
        raise ValueError(f"batch_conv_full_slice: spectrum shape {Xf.shape} != {(B, n)}")
    left = _left_pad(grid, kernel_len)
    Gf = scipy.fft.fft(g, n)
    Gf *= np.conjugate(Xf)[:, None, :]
    cross = scipy.fft.ifft(Gf.sum(axis=0), axis=-1)
    taps = cross[:, (left - np.arange(kernel_len)) % n]
    return taps if np.iscomplexobj(g) else taps.real
