"""Deterministic numerical primitives: FFT-based sliding-inner-product correlation,
and the one way tfnet splits work over two CPUs.

All "convolutions" in this package are cross-correlations (no kernel flip),
the deep-learning convention.  Kernels may be complex; signals are real.
The two correlation functions are pure functions of their inputs and safe to
call from any number of threads.

``run_halves`` runs a pass that is independent per sample (or per group of
samples) as two contiguous halves: the first on the calling thread, the
second at the same time on one process-wide helper thread, each pinned to
its CPU from ``cpu_pair()`` for the call.  Where ``cpu_pair()`` names no
two CPUs, the caller runs both halves, first half first.  ``ordered_sum``
adds per-group terms in batch order across the split, so a split changes no
bit of any result.

Importing this module, as every tfnet module that runs a model does, sets
numpy's OpenBLAS to one thread for the whole process: tfnet's two threads
are its only parallelism, and no result depends on ``OPENBLAS_NUM_THREADS``,
whose thread count moved OpenBLAS's GEMM sums and every trained model's bits.

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

import ctypes
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np
import scipy.fft


def _new_helper():
    """Give this process its helper thread, which runs the second half of every split.

    A forked child needs its own: it inherits the record of the parent's
    thread but not the thread, so its next split would wait forever.
    """
    global _HELPER, _HELPER_HELD
    # one thread for the whole process, held by one split at a time, so a
    # split inside a split, or beside one, runs serially
    _HELPER = ThreadPoolExecutor(1, thread_name_prefix="tfnet-helper")
    _HELPER_HELD = threading.Lock()


_new_helper()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_new_helper)


def _one_blas_thread():
    """Set numpy's OpenBLAS to one thread; whether a setter was found."""
    try:  # numpy's BLAS symbols resolve through the extension module that links it
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
    except (AttributeError, OSError):
        return False
    names = ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_",
             "openblas_set_num_threads")
    setter = next((getattr(lib, name) for name in names if hasattr(lib, name)), None)
    if setter is not None:
        setter.argtypes, setter.restype = [ctypes.c_int], None
        setter(1)
    return setter is not None


_BLAS_ONE_THREAD = _one_blas_thread()


def cpu_pair():
    """Two CPUs for a second thread of tfnet work, or None where one does not pay.

    ``run_halves`` runs its second half there: the batch-sized passes of a
    training step (``Conv1d``, ``BatchNorm1d``'s channel sums and elementwise
    passes, ``ReLU``, ``MaxPool``, ``AdaptiveAvgPool``, TFconv's correlation
    and its adjoint), ``training.evaluate``'s pieces and ``cli.cmd_ablate``'s
    cells.  It names none where BLAS keeps its own threads or where this
    thread may run on one CPU only, as each thread of a split does: so an
    ``ablate`` cell trains serially while two cells keep the cores busy.
    The two threads run pinned: an unpinned helper shared the caller's CPU
    for several calls, which then took as long as one alone.
    """
    if not _BLAS_ONE_THREAD or not hasattr(os, "sched_setaffinity"):
        return None
    cpus = sorted(os.sched_getaffinity(0))
    return (cpus[0], cpus[1]) if len(cpus) > 1 else None


def _pinned(cpu, fn, part):
    os.sched_setaffinity(0, {cpu})
    return fn(part)


def run_halves(fn, n):
    """``(fn(slice(0, h)), fn(slice(h, n)))``, h = ceil(n / 2), the halves at once where they pay.

    Where ``cpu_pair()`` names two CPUs, neither half is empty and no other
    split holds the helper thread (a split inside ``fn`` runs serially),
    this thread runs the first half pinned to the first CPU while the helper
    runs the second pinned to the second, and this thread gets its own CPU
    set back when the call returns.  Otherwise this thread runs both, the
    first half first.  ``fn`` must not write what the other half
    reads.  An error in either half is raised once both halves have
    returned, the first half's if both fail.  The first half starts at 0;
    a second half that is not empty never does.
    """
    h = (n + 1) // 2
    first, second = slice(0, h), slice(h, n)
    cpus = cpu_pair() if h < n else None
    if cpus is None or not _HELPER_HELD.acquire(blocking=False):
        return fn(first), fn(second)
    here, there = cpus
    mask = os.sched_getaffinity(0)
    try:
        os.sched_setaffinity(0, {here})
        future = _HELPER.submit(_pinned, there, fn, second)
        try:
            mine = fn(first)
        finally:
            wait([future])
        return mine, future.result()
    finally:
        os.sched_setaffinity(0, mask)
        _HELPER_HELD.release()


def ordered_sum(total, terms, n):
    """Add every array of ``terms(slice(0, n))`` into ``total`` in order, split by ``run_halves``.

    ``terms(part)`` yields the terms of groups ``part`` in order.  The
    caller's half adds its terms as they come; the helper's half keeps its
    terms, which the caller then adds in order, so ``total`` gets the bits of
    the serial left-to-right sum.
    """
    def add_or_keep(part):
        if part.start:
            return list(terms(part))
        for term in terms(part):
            np.add(total, term, out=total)
        return ()

    _, kept = run_halves(add_or_keep, n)
    for term in kept:
        total += term
    return total


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
# a time, and the adjoint forms, transforms and accumulates its gradient
# rows a group at a time, each group's (S, C, n) complex block within this
# many bytes (3 samples at L=4096, K=301, C=8 in complex64; 7 at L=1024,
# K=51, C=8 in complex128), so only the forward's ``keep`` and the adjoint
# helper half's kept rows (half a batch of (C, n) rows) hold batch-sized
# complex arrays.  Each row is transformed by itself and the adjoint adds
# its rows in batch order, so neither the grouping nor the split over
# ``run_halves`` changes a bit of either result.
# The whole batch's product, IFFT and slice copy (57.6, 57.6 and 52.4 MB at
# B=200, L=4096, C=8, complex64) each exceeded glibc's largest mmap
# threshold, so every call mapped and faulted them in afresh.  In groups,
# on a 2-core x86-64 host with one BLAS thread (perfbench, 12 alternating
# pairs), train-tfconv's evaluation ran 1122 -> 1540 samples/s (medians)
# and its peak RSS fell from 269 to 200 MiB, with the training step flat.
# The grouped adjoint's tracemalloc peak at train-tfconv is 2.8 MiB, against
# 35.8 MiB for the whole batch's g, g / h and spectrum product.
_GROUP_BYTES = 1 << 20


def _group_size(channels: int, n: int, dtype) -> int:
    """Samples per group, so that a group's (S, C, n) block of ``dtype`` fits ``_GROUP_BYTES``."""
    return max(1, _GROUP_BYTES // max(1, channels * n * np.dtype(dtype).itemsize))


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
    step = _group_size(C, n, dtype)
    starts = range(0, B, step)

    def correlate(part):
        for lo in starts[part]:
            block = scipy.fft.ifft(Xf[lo : lo + step, None, :] * Kf,
                                   axis=-1)[:, :, start : start + L]
            rows = out[lo : lo + step]
            if keep:
                corr[lo : lo + step] = block
            if eps_modulus is None:
                rows[...] = block.real
            else:
                np.sqrt(np.square(block.real) + np.square(block.imag) + eps_modulus, out=rows)

    run_halves(correlate, len(starts))
    return out, corr, Xf


def batch_conv_full_slice(grad: np.ndarray, Xf: np.ndarray, grid: np.ndarray,
                          modulus: tuple[np.ndarray, np.ndarray] | None = None) -> np.ndarray:
    """Adjoint of :func:`batch_correlate_same` in its kernels: the per-tap gradient.

    For the (B, C, L) upstream gradient ``grad`` (real or complex), the
    (B, n) spectrum ``Xf`` of the real signal batch ``x`` that
    :func:`batch_correlate_same` returned, and the kernels' ``grid``, returns
    the (C, K) array ``taps`` (real iff g is), taps[c, k] = sum_{b,l}
    g[b, c, l] * x_pad[b, l + k] with ``x_pad`` padded as in the forward, read
    from IFFT(sum_b G * conj(X)) at lags (left - k) mod n.  g is ``grad``, or
    with ``modulus = (corr, h)``, the forward's kept correlation and output,
    conj(corr) * grad / h, so that Re{g * z} == grad * (Re(corr) Re(z) +
    Im(corr) Im(z)) / h.  g, G and the product are formed one group of
    samples at a time, the groups split over ``run_halves``, and each row
    added into one (C, n) sum in batch order (``ordered_sum``): the
    whole-batch sum bit for bit.  FFT round-off is absolute, as
    in the forward: about ``eps * sum_b ||g[b, c]|| * ||x[b]||`` for
    ``taps[c]``.  There is no signal-side half: the layer that calls this is
    always the model's front layer, whose input gradient nothing reads.  The
    name predates that; the benchmark's per-layer trace looks the function
    up by it.
    """
    B, C, L = grad.shape
    kernel_len = len(grid)
    n = scipy.fft.next_fast_len(L + kernel_len - 1, real=True)
    if Xf.shape != (B, n):
        raise ValueError(f"batch_conv_full_slice: spectrum shape {Xf.shape} != {(B, n)}")
    left = _left_pad(grid, kernel_len)
    dtype = np.result_type(Xf, grad)
    step = _group_size(C, n, dtype)
    starts = range(0, B, step)

    def rows(part):
        for lo in starts[part]:
            g = grad[lo : lo + step]
            if modulus is not None:
                corr, h = modulus
                g = np.conjugate(corr[lo : lo + step])
                g *= grad[lo : lo + step] / h[lo : lo + step]
            Gf = scipy.fft.fft(g, n)
            Gf *= np.conjugate(Xf[lo : lo + step])[:, None, :]
            yield from Gf

    total = ordered_sum(np.zeros((C, n), dtype), rows, len(starts))
    cross = scipy.fft.ifft(total, axis=-1)
    taps = cross[:, (left - np.arange(kernel_len)) % n]
    return taps if modulus is not None or np.iscomplexobj(grad) else taps.real
