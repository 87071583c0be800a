"""Minimal trainable 1D CNN engine with hand-written backprop.

The layer set is fixed (the time-frequency layer ``TFconvLayer``, Conv1d,
BatchNorm1d, ReLU, MaxPool, AdaptiveAvgPool, Flatten, Dense, Residual) and
each layer implements its own backward pass, so no general autodiff is
needed.  Every layer is a ``Layer``.  Three backbones of different depths
are provided, and ``assemble_model`` combines a backbone with a
time-frequency front layer, whose kernel bank is a kernel family and a
(C, P) parameter array, in the add/replace/real-only ablation variants.

``forward(x, training=True)`` is a training forward: each layer keeps what
its ``backward`` reads, and the backward consumes it, so a layer's state is
released as soon as its backward returns and a second backward without a
new forward raises.  ``training=False`` is inference: no layer keeps
anything, and ``backward`` after it raises.  A forward may write into its
input (``BatchNorm1d`` its normalized input, ``ReLU`` its output), as a
backward into its gradient (``ReLU``); ``Model`` and ``Residual`` copy what
they read again, in both directions.

Every batch-sized pass of a training step runs as two contiguous halves
through ``core_math.run_halves``, the second on a helper thread where
``cpu_pair()`` names two CPUs: ``Conv1d``'s forward GEMMs, weight gradient
and input gradient (by sample group), ``BatchNorm1d``'s channel sums and
elementwise passes, ``ReLU``, ``MaxPool``, ``AdaptiveAvgPool`` and TFconv's
correlation and adjoint.  Sums over the batch add per-sample (or
per-group) terms in batch order across the halves, so every output and
gradient has the bits of the serial pass.  Only the ``Dense`` layers and
lenet-1d's conv bias gradients stay whole-batch on the caller.

A model's input is a (batch, length) signal batch and its output is
(batch, classes) logits.  Inside, the convolutional stack runs
channels-last, (batch, length, channels), which keeps the im2col buffers
and every elementwise pass contiguous.  ``Conv1d`` runs its forward and
weight-gradient and input-gradient GEMMs a few samples at a time, as
``TFconvLayer`` runs its FFTs, and keeps only its padded input for
training, so no pass builds a full-batch im2col matrix.  A model's front
layer, TFconv or a bare backbone's stem ``Conv1d``, takes the raw (batch,
length) signal; its backward sets its parameter gradients and returns no
input gradient.  ``Model.forward`` and ``Model.backward`` are the one loop
over a model's layers each, and transpose the channels-first output of a
time-frequency front layer once.  ``Model.walk_layers`` expands residual
blocks into leaf layers for whatever reads a model's arrays; ``Model.__init__``
and ``fold_batchnorm`` walk ``Residual.sublayers`` themselves.  All
arithmetic is float64 unless a model is built with an explicit float32 switch.

The backbones pool before ReLU: relu(max(a, b)) = max(relu a, relu b), and
the gradient reaches the same slot either way, so ReLU runs on half the
samples with every output and gradient value unchanged.

Inference (``training.evaluate``) runs ``fold_batchnorm(model)``: there a
batch norm is a fixed per-channel affine map, which the ``Conv1d`` before it
absorbs, saving the norm's two passes over its activations.  Training,
checkpoints and the kernel banks read the unfolded model.
"""

import copy

import numpy as np

from tfnet.core_math import (batch_conv_full_slice, batch_correlate_same, ordered_sum, run_halves,
                             same_pad_widths)
from tfnet.data import check_labels
from tfnet.kernels import (KernelFamily, check_theta, clamp_params, default_grid,
                           evaluate_kernels, init_params, kernel_param_grad)
from tfnet.seeding import derive_rng

MODES = ("backbone-only", "tfn-add", "tfn-replace", "wkn-add", "wkn-replace", "random-tfn")
BACKBONES = ("paper-cnn", "lenet-1d", "resnet-1d")


class Layer:
    """Base layer: no arrays, identity bookkeeping.

    ``state`` alone names the arrays a layer holds, as (array attribute,
    gradient attribute or ``None``) pairs; ``Model.parameters`` reads them, and a
    checkpoint stores each as ``<layer.name>.<attribute>``.  A backward sets
    its gradients in place, so the arrays keep their identity.

    A subclass's ``forward`` sets ``_cache`` to what its ``backward`` needs
    when ``training`` is true and to ``None`` otherwise; ``backward`` takes
    it through ``_saved``, which clears it, and raises unless a training
    forward came since the last backward.  A backward may write into the
    arrays it took, and drops them when it returns.

    A forward may write into its input ``x``, in training and at inference,
    as a backward into its ``grad``; a caller that reads either again passes
    a copy, as ``Model`` and ``Residual`` do.  A layer fed a model's raw
    (B, L) signal is its front layer, whose ``backward`` returns ``None``.
    """

    name = ""
    state: tuple[tuple[str, str | None], ...] = ()
    _cache = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _saved(self):
        cache, self._cache = self._cache, None
        if cache is None:
            raise RuntimeError(
                f"{self.name or type(self).__name__}: backward needs forward(training=True) first")
        return cache


# On AVX-512 hosts OpenBLAS runs a GEMM with M*N*K <= 100**3 through
# small-matrix kernels whose sums depend on the matrix size, so a GEMM split
# into pieces that small would change the last bits of its rows.  Conv1d
# splits its GEMMs only into pieces above that size.
_SMALL_GEMM = 100**3


def _sample_groups(n_samples, work_per_sample):
    """[lo, hi) sample ranges, each the fewest samples whose GEMM exceeds ``_SMALL_GEMM``.

    The last range also takes the remainder; one range covers the whole
    batch when the whole batch's GEMM is no larger than that.
    """
    per = min(n_samples, _SMALL_GEMM // work_per_sample + 1)
    edges = [i * per for i in range(n_samples // per)] + [n_samples]
    return list(zip(edges[:-1], edges[1:]))


def _column_groups(x, taps, groups):
    """(lo, hi, cols) for each (lo, hi) sample group of the (B, L, C) array ``x``.

    ``cols`` is the ((hi - lo) * L_out, taps * C) im2col matrix (Chellapilla
    et al., 2006) of samples lo..hi-1, copied into one buffer that every
    group of this call reuses.
    """
    B, L, C = x.shape
    L_out = L - taps + 1
    win = np.lib.stride_tricks.sliding_window_view(x, (taps, C), axis=(1, 2))[:, :, 0]
    buffer = np.empty((max((hi - lo for lo, hi in groups), default=0) * L_out, taps * C),
                      dtype=x.dtype)
    for lo, hi in groups:
        cols = buffer[: (hi - lo) * L_out]
        cols.reshape(hi - lo, L_out, taps, C)[...] = win[lo:hi]
        yield lo, hi, cols


class Conv1d(Layer):
    """Stride-1 cross-correlation, valid padding by default.

    The forward copies one group of samples' im2col rows into one reused
    buffer per half (``_column_groups``) and runs one GEMM per group, in
    training and inference alike, so no full-batch matrix is built.  A
    training forward keeps only its (padded) input.  The weight gradient
    rebuilds the same groups' rows from that input, a strided copy
    recomputed instead of a matrix stored from forward to backward (Chen et
    al., 2016), and adds each group's GEMM into one (out, taps*in) sum in
    batch order (``ordered_sum``).  The input gradient is the per-tap col2im
    run over ``_sample_groups(B, L_out*in*out)``, one GEMM per group and
    tap, and is exactly that formula whenever one group covers the batch.
    All three split their groups over ``run_halves``.  Splitting a GEMM by
    rows changes no dot product as long as every piece stays above
    ``_SMALL_GEMM``, so the forward and the input gradient keep the
    full-batch GEMM's bits; the weight gradient sums the batch in a
    different order, which moves its last bits.  Activations are (batch,
    length, channels); the stored weight is (out, in, taps).  A (batch,
    length) signal is one channel, and the backward of a conv fed one sets
    only the parameter gradients and returns ``None``.

    ``bias=False`` leaves ``bias`` ``None`` and only the weight in ``state``;
    the backbones build each conv that feeds a ``BatchNorm1d`` so, since the
    norm's mean subtraction cancels a bias (Ioffe and Szegedy, 2015, sec. 3.2).
    """

    state = (("weight", "wgrad"), ("bias", "bgrad"))

    def __init__(self, in_channels, out_channels, kernel_size, rng, padding="valid",
                 dtype=np.float64, bias=True):
        if padding not in ("valid", "same"):
            raise ValueError(f"unknown padding {padding!r}")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.padding = padding
        bound = np.sqrt(6.0 / (in_channels * kernel_size))
        self.weight = rng.uniform(-bound, bound, (out_channels, in_channels, kernel_size)).astype(dtype)
        self.bias = np.zeros(out_channels, dtype=dtype) if bias else None
        self.wgrad = np.zeros_like(self.weight)
        self.bgrad = np.zeros_like(self.bias) if bias else None
        self.state = Conv1d.state if bias else Conv1d.state[:1]

    def kernels(self) -> np.ndarray:
        """Input-channel-summed kernel bank, shape (out, taps)."""
        return self.weight.sum(axis=1)

    def _w2(self):
        """(taps*in, out) GEMM operand matching the im2col column order."""
        K = self.kernel_size
        return np.ascontiguousarray(self.weight.transpose(2, 1, 0)).reshape(
            K * self.in_channels, self.out_channels)

    def forward(self, x, training=False):
        raw = x.ndim == 2  # a model's (B, L) signal: one channel, and no input gradient
        x = x[:, :, None] if raw else x
        B, L, C = x.shape
        if C != self.in_channels:
            raise ValueError(f"Conv1d expects {self.in_channels} input channels, got {C}")
        if self.padding == "same":
            x = np.pad(x, ((0, 0), same_pad_widths(self.kernel_size), (0, 0)))
        K, O = self.kernel_size, self.out_channels
        L_out = x.shape[1] - K + 1
        if L_out < 1:
            raise ValueError(f"input length {L} shorter than kernel {K}")
        w2 = self._w2()
        out = np.empty((B * L_out, O), dtype=np.result_type(x, w2))
        groups = _sample_groups(B, L_out * K * C * O)

        def gemms(part):
            for lo, hi, cols in _column_groups(x, K, groups[part]):
                rows = out[lo * L_out : hi * L_out]
                np.matmul(cols, w2, out=rows)
                if self.bias is not None:
                    rows += self.bias

        run_halves(gemms, len(groups))
        self._cache = (x, raw) if training else None
        return out.reshape(B, L_out, O)

    def backward(self, grad):
        x, raw = self._saved()
        B, L_out, O = grad.shape
        K, C = self.kernel_size, self.in_channels
        g2 = np.ascontiguousarray(grad).reshape(-1, O)
        if self.bgrad is not None:
            self.bgrad[...] = g2.sum(axis=0)
        groups = _sample_groups(B, L_out * K * C * O)

        def products(part):
            for lo, hi, cols in _column_groups(x, K, groups[part]):
                yield g2[lo * L_out : hi * L_out].T @ cols

        total = ordered_sum(np.zeros((O, K * C), np.result_type(g2, x)), products, len(groups))
        self.wgrad[...] = total.reshape(O, K, C).transpose(0, 2, 1)
        if raw:
            return None
        L_pad = x.shape[1]
        del x  # the kept input goes before the input gradient is allocated
        gx = np.zeros((B, L_pad, C), dtype=self.weight.dtype)
        w_taps = np.ascontiguousarray(self.weight.transpose(2, 0, 1))  # (K, O, C)
        groups = _sample_groups(B, L_out * C * O)

        def col2im(part):
            mine = groups[part]
            product = np.empty((max((hi - lo for lo, hi in mine), default=0) * L_out, C),
                               dtype=gx.dtype)
            for lo, hi in mine:
                g = grad[lo:hi].reshape(-1, O)
                rows = product[: len(g)]
                for m in range(K):
                    np.matmul(g, w_taps[m], out=rows)
                    gx[lo:hi, m : m + L_out] += rows.reshape(hi - lo, L_out, C)

        run_halves(col2im, len(groups))
        if self.padding == "same":
            left, right = same_pad_widths(K)
            gx = gx[:, left : L_pad - right, :]
        return gx


def _channel_sums(a, b):
    """The (B, L, C) arrays' per-channel sums of ``a`` and of ``a * b``, as one (2, C) array.

    Each sample's two sums over its L rows are one (2, C) term, and the terms
    add in batch order (``ordered_sum``), the samples split over
    ``run_halves``.  The grouping depends on the shape alone, so a split
    changes no bit; every term of a sum meets at most L + B roundings.
    """
    B, _, C = a.shape
    dtype = np.result_type(a, b)

    def terms(part):
        rows = np.empty((part.stop - part.start, 2, C), dtype)
        a[part].sum(axis=1, out=rows[:, 0])
        np.einsum("blc,blc->bc", a[part], b[part], out=rows[:, 1])
        return rows

    return ordered_sum(np.zeros((2, C), dtype), terms, B)


class BatchNorm1d(Layer):
    """Channel-wise normalization over (batch, time) with learnable affine.

    A training forward and the backward run every pass over the batch
    through ``run_halves``: the channel sums (``_channel_sums``: the sum and
    sum of squares, then the gradient's sum and its sum against ``xhat``)
    and the elementwise normalization and chain.  The sums add per-sample
    terms in batch order, so each is off by at most gamma_{L+B} times the
    sum of its terms' absolute values (Higham, 1993), against
    gamma_{BL-1} for the whole batch's row-by-row sum.
    """

    eps = 1e-5        # added to the variance under the square root
    momentum = 0.1    # weight of the latest batch in the running statistics
    state = (("gamma", "ggrad"), ("beta", "bgrad"),
             ("running_mean", None), ("running_var", None))

    def __init__(self, channels, dtype=np.float64):
        self.channels = channels
        self.gamma = np.ones(channels, dtype=dtype)
        self.beta = np.zeros(channels, dtype=dtype)
        self.ggrad = np.zeros_like(self.gamma)
        self.bgrad = np.zeros_like(self.beta)
        self.running_mean = np.zeros(channels, dtype=dtype)
        self.running_var = np.ones(channels, dtype=dtype)

    def forward(self, x, training=False):
        B, L, C = x.shape
        if C != self.channels:
            raise ValueError(f"BatchNorm1d expects {self.channels} channels, got {C}")
        M = B * L
        if training:
            if B < 2:
                raise ValueError("BatchNorm1d training mode needs batch size >= 2")
            # single-pass second moment; clip guards float32 cancellation
            total, sq = _channel_sums(x, x)
            mean = total / M
            var = np.maximum(sq / M - mean * mean, 0.0)
            self.running_mean += self.momentum * (mean - self.running_mean)
            self.running_var += self.momentum * (var - self.running_var)
            istd = 1.0 / np.sqrt(var + self.eps)
            out = np.empty(x.shape, np.result_type(self.gamma, x))

            def normalize(part):
                xhat = x[part]  # normalized in place: the backward's xhat
                xhat -= mean
                xhat *= istd
                np.multiply(self.gamma, xhat, out=out[part])
                out[part] += self.beta

            run_halves(normalize, B)
            self._cache = (x, istd, M)
            return out
        self._cache = None
        istd = 1.0 / np.sqrt(self.running_var + self.eps)
        scale = self.gamma * istd
        x *= scale
        x += self.beta - scale * self.running_mean
        return x

    def backward(self, grad):
        xhat, istd, M = self._saved()
        sg, sgx = _channel_sums(grad, xhat)
        self.ggrad[...] = sgx
        self.bgrad[...] = sg
        slope, shift, scale = sgx / -M, sg / M, self.gamma * istd

        def chain(part):
            gx = xhat[part]  # the forward's state is not read again
            gx *= slope
            gx += grad[part]
            gx -= shift
            gx *= scale

        run_halves(chain, len(xhat))
        return xhat


class ReLU(Layer):
    """max(x, 0); a training forward keeps the mask x > 0, which its backward multiplies in."""

    def forward(self, x, training=False):
        mask = np.empty(x.shape, bool) if training else None

        def rectify(part):
            if mask is not None:
                np.greater(x[part], 0.0, out=mask[part])
            np.maximum(x[part], 0.0, out=x[part])

        run_halves(rectify, len(x))
        self._cache = mask
        return x

    def backward(self, grad):
        mask = self._saved()

        def gate(part):
            grad[part] *= mask[part]

        run_halves(gate, len(grad))
        return grad


class MaxPool(Layer):
    """Max over non-overlapping pairs of samples; an odd trailing sample is dropped.

    The forward and the backward run per sample, split over ``run_halves``,
    so a split changes no bit.  The backward routes by multiplying with the
    mask, several times faster than ``np.where``; a slot that lost gets
    ``grad * 0``, signed like ``grad``.
    """

    def forward(self, x, training=False):
        B, L, C = x.shape
        L_out = L // 2
        out = np.empty((B, L_out, C), x.dtype)
        # right slot won; strict, so ties keep the earlier slot, like argmax
        choice = np.empty((B, L_out, C), bool) if training else None

        def pool(part):
            m0 = x[part, 0 : 2 * L_out : 2]
            m1 = x[part, 1 : 2 * L_out : 2]
            if choice is not None:
                np.greater(m1, m0, out=choice[part])
            np.maximum(m0, m1, out=out[part])

        run_halves(pool, B)
        self._cache = (x.shape, choice) if training else None
        return out

    def backward(self, grad):
        (B, L, C), choice = self._saved()
        L_out = L // 2
        gx = np.empty((B, L, C), dtype=grad.dtype)
        pairs = gx[:, : 2 * L_out].reshape(B, L_out, 2, C)

        def route(part):
            np.multiply(grad[part], ~choice[part], out=pairs[part, :, 0])
            np.multiply(grad[part], choice[part], out=pairs[part, :, 1])
            if L % 2:
                gx[part, -1] = 0.0

        run_halves(route, B)
        return gx


class AdaptiveAvgPool(Layer):
    """Averages the length axis into a fixed number of bins.

    Bin i covers [floor(i*L/n), ceil((i+1)*L/n)); bins are equal when L is
    divisible by n.  The forward and the backward, its zero fill included,
    run per sample, split over ``run_halves``, so a split changes no bit.
    """

    def __init__(self, bins=4):
        self.bins = bins

    def _edges(self, L):
        n = self.bins
        starts = [int(np.floor(i * L / n)) for i in range(n)]
        ends = [int(np.ceil((i + 1) * L / n)) for i in range(n)]
        return starts, ends

    def forward(self, x, training=False):
        B, L, C = x.shape
        if L < self.bins:
            raise ValueError(f"cannot pool length {L} into {self.bins} bins")
        edges = list(enumerate(zip(*self._edges(L))))
        out = np.empty((B, self.bins, C), dtype=x.dtype)

        def average(part):
            for i, (s, e) in edges:
                x[part, s:e].mean(axis=1, out=out[part, i])

        run_halves(average, B)
        self._cache = x.shape if training else None
        return out

    def backward(self, grad):
        B, L, C = self._saved()
        edges = list(enumerate(zip(*self._edges(L))))
        gx = np.empty((B, L, C), dtype=grad.dtype)

        def spread(part):
            gx[part] = 0.0
            for i, (s, e) in edges:
                gx[part, s:e] += grad[part, i : i + 1] / (e - s)

        run_halves(spread, B)
        return gx


class Flatten(Layer):
    def forward(self, x, training=False):
        self._cache = x.shape if training else None
        return np.ascontiguousarray(x).reshape(x.shape[0], -1)

    def backward(self, grad):
        return grad.reshape(self._saved())


class Dense(Layer):
    state = (("weight", "wgrad"), ("bias", "bgrad"))

    def __init__(self, in_features, out_features, rng, dtype=np.float64):
        self.in_features = in_features
        self.out_features = out_features
        bound = np.sqrt(6.0 / in_features)
        self.weight = rng.uniform(-bound, bound, (out_features, in_features)).astype(dtype)
        self.bias = np.zeros(out_features, dtype=dtype)
        self.wgrad = np.zeros_like(self.weight)
        self.bgrad = np.zeros_like(self.bias)

    def forward(self, x, training=False):
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ValueError(f"Dense expects (B, {self.in_features}), got {x.shape}")
        self._cache = x if training else None
        return x @ self.weight.T + self.bias

    def backward(self, grad):
        self.wgrad[...] = grad.T @ self._saved()
        self.bgrad[...] = grad.sum(axis=0)
        return grad @ self.weight


class Residual(Layer):
    """Identity-skip block: out = f(x) + x (f must preserve shape)."""

    def __init__(self, sublayers):
        self.sublayers = list(sublayers)

    def forward(self, x, training=False):
        out = x.copy()  # the branch may write into its input; the skip reads ``x``
        for layer in self.sublayers:
            out = layer.forward(out, training=training)
        if out.shape != x.shape:
            raise ValueError("residual branch changed shape; identity skip impossible")
        return out + x

    def backward(self, grad):
        g = grad.copy()  # the branch may write into its gradient; the skip reads ``grad``
        for layer in reversed(self.sublayers):
            g = layer.backward(g)
        g += grad
        return g


EPS_MODULUS = 1e-12  # keeps the TFconv modulus differentiable at zero


class TFconvLayer(Layer):
    """Time-frequency convolutional layer: complex correlation, then modulus.

    The layer correlates its 1-channel input with the real and imaginary
    parts of a bank of kernel-function-generated complex kernels and
    outputs the pointwise modulus:

        h_real[k] = Re(psi_k) (*) x
        h_img[k]  = Im(psi_k) (*) x
        h[k]      = sqrt(h_real^2 + h_img^2 + EPS_MODULUS)

    where (*) is length-preserving cross-correlation, aligned by the
    family's grid: output l reads x[l + n] through the tap at grid index n,
    so the centred families pad both sides alike and the one-sided laplace
    grid pads only the right.  The kernel bank is the pair ``(family,
    theta)``: the family fixes the kernel function and its grid, and
    ``theta``, a (C, P) float64 array, holds each channel's P control
    parameters, the layer's only trainable weights.  The forward transforms
    the batch once, then correlates a cache-sized group of samples at a
    time; a training forward keeps the input's spectrum, not the input, its
    kernel bank and with the modulus the complex correlation.  The backward
    consumes them a cache-sized group of samples at a time: it chains the
    upstream gradient through the modulus, g = conj(corr) * grad / h, and
    adds the FFT of g times the kept conjugate spectrum into one batch sum,
    the gradient with respect to the taps; the kept bank's (C, P, K)
    derivatives d(psi)/d(theta) map that onto the parameters the same way
    for every family, so a step evaluates the bank once.  The layer is
    always a model's front layer, so the backward stops at its parameters:
    there is no input gradient.  ``modulus=False`` keeps only the
    real-kernel correlation with no modulus, approximating wavelet-kernel
    comparison layers.
    """

    state = (("theta", "grad_theta"),)

    def __init__(self, family: KernelFamily, theta, modulus: bool = True):
        self.family = KernelFamily(family)
        self.theta = np.asarray(theta, dtype=np.float64)
        check_theta(self.family, self.theta)
        self.modulus = bool(modulus)
        self.grad_theta = np.zeros_like(self.theta)

    def kernels(self) -> np.ndarray:
        """Current complex kernel bank, shape (C, K)."""
        return evaluate_kernels(self.family, self.theta)

    def forward(self, x, training=False):
        """(B, L) input -> (B, C, L) feature map.

        A training forward keeps the input's (B, n) spectrum, the output, the
        complex128 kernel bank and with the modulus the complex correlation.
        """
        x = np.asarray(x)
        # float32 input (a float32 model's) runs the whole layer in single precision
        x = x.astype(np.float32 if x.dtype == np.float32 else np.float64, copy=False)
        if x.ndim != 2:
            raise ValueError(f"TFconv expects (B, L) input, got shape {x.shape}")
        bank = self.kernels()
        kern = bank.astype(np.complex64) if x.dtype == np.float32 else bank
        h, corr, Xf = batch_correlate_same(x, kern, default_grid(self.family),
                                           EPS_MODULUS if self.modulus else None,
                                           keep=training and self.modulus)
        self._cache = (Xf, corr, h, bank) if training else None
        return h

    def backward(self, grad):
        """Set ``grad_theta`` to the gradient of the upstream (B, C, L) ``grad``.

        The control-parameter gradient is summed over batch and time: the
        gradient with respect to the taps, then ``grad_theta[c, p] = Re sum_k
        dpsi[c, p, k] * taps[c, k]`` through d(psi)/d(theta), the same for
        every family.  Returns nothing: no gradient reaches the input.
        """
        Xf, corr, h, bank = self._saved()
        grad = np.asarray(grad, dtype=h.dtype)
        if grad.shape != h.shape:
            raise ValueError(f"grad shape {grad.shape} != forward output shape {h.shape}")
        # complex64 throughout for a float32 forward
        taps = batch_conv_full_slice(grad, Xf, default_grid(self.family),
                                     (corr, h) if self.modulus else None)
        dpsi = kernel_param_grad(self.family, self.theta, bank)
        self.grad_theta[...] = np.einsum("cpk,ck->cp", dpsi, taps).real


class Model:
    """Ordered layer stack with its assembly recipe (mode and backbone).

    ``layers[0]`` is the model's first filter bank: the TFconv front layer
    (also ``tfconv``) or the backbone's first ``Conv1d``.  It takes the raw
    (batch, length) signal, and its backward returns no input gradient.  The
    final ``Dense`` fixes ``n_classes`` and ``dtype``, and the front layer
    the kernel bank; none can be set apart from the layers.

    A layer may write into its input, as a backward into its gradient, so
    ``forward`` and ``backward`` each copy the caller's array.
    """

    def __init__(self, layers, mode, backbone):
        self.layers = list(layers)
        self.mode = mode
        self.backbone = backbone
        for i, layer in enumerate(self.layers):
            layer.name = f"{i}.{type(layer).__name__.lower()}"
            if isinstance(layer, Residual):
                for j, sub in enumerate(layer.sublayers):
                    sub.name = f"{i}.res{j}.{type(sub).__name__.lower()}"

    @property
    def n_classes(self) -> int:
        return self.layers[-1].out_features

    @property
    def dtype(self) -> np.dtype:
        return self.layers[-1].weight.dtype

    @property
    def tfconv(self) -> TFconvLayer | None:
        first = self.layers[0]
        return first if isinstance(first, TFconvLayer) else None

    def walk_layers(self):
        """Leaf layers in order, each residual block replaced by its sublayers."""
        for layer in self.layers:
            if isinstance(layer, Residual):
                yield from layer.sublayers
            else:
                yield layer

    def forward(self, x, training=False):
        """(B, L) signals -> (B, n_classes) logits; a non-finite signal raises ``ValueError``."""
        x = np.array(x, dtype=self.dtype)  # a layer may write into its input, never the caller's
        if x.ndim != 2 or x.size == 0:
            raise ValueError(f"model expects non-empty (B, L) signals, got shape {x.shape}")
        if not np.isfinite(x).all():
            raise ValueError("model input contains non-finite values")
        front = self.tfconv
        # ``x`` stays referenced through the walk: freed after the front layer, it let glibc
        # raise its mmap threshold, which cost train-tfconv 6 MiB of peak RSS (2-vCPU host)
        out = x
        for layer in self.layers:
            out = layer.forward(out, training=training)
            if layer is front:  # a copy even for one channel: a training front keeps its output
                out = out.transpose(0, 2, 1).copy()
        return out

    def backward(self, grad):
        """Set each layer's parameter gradients from the logits' ``grad`` through its ``backward``.

        Returns nothing: the front layer computes no input gradient, which no caller reads.
        """
        g = np.array(grad)  # a layer may write into its gradient, never into the caller's
        front = self.tfconv
        for layer in reversed(self.layers):
            if layer is front:
                g = g.transpose(0, 2, 1)
            g = layer.backward(g)

    def project_params(self):
        if self.tfconv is not None:
            clamp_params(self.tfconv.family, self.tfconv.theta)

    def parameters(self):
        return [getattr(layer, a) for layer in self.walk_layers() for a, g in layer.state if g]

    def gradients(self):
        return [getattr(layer, g) for layer in self.walk_layers() for _a, g in layer.state if g]


def fold_batchnorm(model: Model) -> Model:
    """An inference copy of ``model``, each ``BatchNorm1d`` merged into the ``Conv1d`` before it.

    The norm's map x*scale + (beta - scale*running_mean), scale =
    gamma/sqrt(running_var + eps) (Ioffe and Szegedy, 2015, sec. 3.1), gives
    the conv weight W*scale and bias (b - running_mean)*scale + beta, b = 0
    for a bias-less conv (Jacob et al., 2018, sec. 3.2), in residual blocks
    too.  A norm after the TFconv front layer stays: the modulus is not
    linear.  The copy holds shallow copies, so ``model`` keeps its arrays.
    """
    return Model(_fold_layers(model.layers), model.mode, model.backbone)


def _fold_layers(layers):
    out = []
    for layer in layers:
        if isinstance(layer, BatchNorm1d) and out and isinstance(out[-1], Conv1d):
            conv = out[-1]
            scale = layer.gamma / np.sqrt(layer.running_var + layer.eps)
            conv.weight = conv.weight * scale[:, None, None]
            bias = 0 if conv.bias is None else conv.bias  # 0 - m is exact: beta - m*scale
            conv.bias = (bias - layer.running_mean) * scale + layer.beta
            continue
        layer = copy.copy(layer)
        # a method set on the instance (a profiler's wrapper, say) would run the unfolded layer
        for name in [name for name, value in vars(layer).items() if callable(value)]:
            delattr(layer, name)
        if isinstance(layer, Residual):
            layer.sublayers = _fold_layers(layer.sublayers)
        out.append(layer)
    return out


def softmax_cross_entropy(logits, labels):
    """Mean cross-entropy over the batch and its gradient w.r.t. logits."""
    logits = np.asarray(logits)
    labels = np.asarray(labels)
    B, n_classes = logits.shape
    if labels.shape != (B,):
        raise ValueError(f"labels shape {labels.shape} does not match batch {B}")
    check_labels(labels, n_classes)
    # softmax in float64 so the loss keeps full precision for float32 models
    z = logits.astype(np.float64) - logits.max(axis=1, keepdims=True).astype(np.float64)
    ez = np.exp(z)
    total = ez.sum(axis=1, keepdims=True)
    p = ez / total
    # log-sum-exp: -log(p[label]) would take the log of an underflowed 0
    loss = float((np.log(total[:, 0]) - z[np.arange(B), labels]).sum() / B)
    grad = p
    grad[np.arange(B), labels] -= 1.0
    return loss, (grad / B).astype(logits.dtype)


def _stem(rng, in_channels, first_out, dtype):
    """The three-conv front of paper-cnn and resnet-1d."""
    c1 = first_out if first_out is not None else 16
    return [
        Conv1d(in_channels, c1, 15, rng, dtype=dtype, bias=False),
        BatchNorm1d(c1, dtype=dtype),
        ReLU(),
        Conv1d(c1, 32, 3, rng, dtype=dtype, bias=False),
        BatchNorm1d(32, dtype=dtype),
        MaxPool(),
        ReLU(),
        Conv1d(32, 64, 3, rng, dtype=dtype, bias=False),
        BatchNorm1d(64, dtype=dtype),
        ReLU(),
    ]


def _head(rng, n_classes, dtype):
    """The last conv and dense classifier of paper-cnn and resnet-1d."""
    return [
        Conv1d(64, 128, 3, rng, dtype=dtype, bias=False),
        BatchNorm1d(128, dtype=dtype),
        ReLU(),
        AdaptiveAvgPool(4),
        Flatten(),
        Dense(512, 512, rng, dtype=dtype),
        Dense(512, 256, rng, dtype=dtype),
        Dense(256, 64, rng, dtype=dtype),
        Dense(64, n_classes, rng, dtype=dtype),
    ]


def _paper_cnn(rng, in_channels, n_classes, first_out, dtype):
    return _stem(rng, in_channels, first_out, dtype) + _head(rng, n_classes, dtype)


def _lenet_1d(rng, in_channels, n_classes, first_out, dtype):
    # Classic two-conv stack; pooled to 4 bins before flattening so the
    # dense head stays small for long inputs.
    c1 = first_out if first_out is not None else 6
    return [
        Conv1d(in_channels, c1, 5, rng, dtype=dtype),
        MaxPool(),
        ReLU(),
        Conv1d(c1, 16, 5, rng, dtype=dtype),
        MaxPool(),
        ReLU(),
        AdaptiveAvgPool(4),
        Flatten(),
        Dense(64, 120, rng, dtype=dtype),
        Dense(120, 84, rng, dtype=dtype),
        Dense(84, n_classes, rng, dtype=dtype),
    ]


def _resnet_1d(rng, in_channels, n_classes, first_out, dtype):
    """paper-cnn with two residual blocks before its head; the second's last ``beta`` stays.

    Its exact gradient is zero: a per-channel constant passes the head's valid conv as a
    constant, which the head's norm removes.  It stays: a ``BatchNorm1d`` keeps its affine pair.
    """

    def res_block():
        return Residual([
            Conv1d(64, 64, 3, rng, padding="same", dtype=dtype, bias=False),
            BatchNorm1d(64, dtype=dtype),
            ReLU(),
            Conv1d(64, 64, 3, rng, padding="same", dtype=dtype, bias=False),
            BatchNorm1d(64, dtype=dtype),
        ])

    # operands build left to right, so the weights draw from rng in layer order
    return (_stem(rng, in_channels, first_out, dtype) + [res_block(), res_block()]
            + _head(rng, n_classes, dtype))


_BUILDERS = {"paper-cnn": _paper_cnn, "lenet-1d": _lenet_1d, "resnet-1d": _resnet_1d}


def assemble_model(
    mode,
    backbone="paper-cnn",
    n_classes=5,
    family=KernelFamily.STTF,
    n_channels=8,
    seed=0,
    dtype=np.float64,
) -> Model:
    """Combine a backbone with a time-frequency front layer.

    Modes: ``backbone-only`` (unchanged backbone), ``tfn-add`` /
    ``wkn-add`` (front layer prepended), ``tfn-replace`` / ``wkn-replace``
    (first conv of the backbone swapped out, its batch norm kept), and
    ``random-tfn`` (prepended layer with raw trainable taps).  The wkn
    variants keep only the real kernel and skip the modulus.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; choose from {MODES}")
    if n_classes < 1:
        raise ValueError(f"n_classes must be >= 1, got {n_classes}")
    family = KernelFamily(family)
    if mode == "random-tfn":
        family = KernelFamily.RANDOM
    elif family is KernelFamily.RANDOM:
        raise ValueError("random kernels are only legal in mode 'random-tfn'")

    front, in_channels, first_out = [], 1, None
    if mode != "backbone-only":
        modulus = mode not in ("wkn-add", "wkn-replace")
        front = [TFconvLayer(family, init_params(family, n_channels, seed=seed), modulus=modulus)]
        if mode.endswith("-replace"):
            first_out = n_channels
        else:
            in_channels = n_channels
    if backbone not in _BUILDERS:
        raise ValueError(f"unknown backbone {backbone!r}; choose from {BACKBONES}")
    rng = derive_rng(seed, f"backbone-init.{backbone}")
    layers = _BUILDERS[backbone](rng, in_channels, n_classes, first_out, dtype)
    if mode.endswith("-replace"):
        layers = layers[1:]  # the stem conv gives way to the front layer; its BN stays
    return Model(front + layers, mode=mode, backbone=backbone)
