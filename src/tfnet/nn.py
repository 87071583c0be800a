"""Minimal trainable 1D CNN engine with hand-written backprop.

The layer set is fixed (the time-frequency layer ``TFconvLayer``, Conv1d,
BatchNorm1d, ReLU, MaxPool, AdaptiveAvgPool, Flatten, Dense, Residual) and
each layer implements its own backward pass, so no general autodiff is
needed.  Every layer is a ``Layer``.  Three backbones of different depths
are provided, and ``assemble_model`` combines a backbone with a
time-frequency front layer, whose kernel bank is a kernel family and a
(C, P) parameter array, in the add/replace/real-only ablation variants.

``forward(x, training=True)`` is a training forward: each layer keeps what
its ``backward`` reads until the next forward.  ``training=False`` is
inference: no layer keeps anything, and ``backward`` after it raises.  With
``overwrite=True`` an inference forward may write its output into ``x``;
``Model.forward`` and ``Residual`` pass it only for arrays nothing else reads.

A model's input is a (batch, length) signal batch and its output is
(batch, classes) logits.  Inside, the convolutional stack runs
channels-last, (batch, length, channels), which keeps the im2col buffers
and every elementwise pass contiguous.  ``Conv1d`` runs its forward and
input-gradient GEMMs a few samples at a time, as ``TFconvLayer`` runs its
inverse FFTs, and keeps only its padded input for training; its weight
gradient, which sums over the batch, rebuilds the full-batch im2col matrix
for its one GEMM and drops it, so backward holds one such matrix at a
time.  A model's first layer computes only its parameter gradients
(``param_backward``).
``Model.forward`` is the one loop over a model's layers: it feeds a bare
backbone's stem ``Conv1d`` the one-channel view (batch, length, 1),
transposes the channels-first output of a time-frequency front layer once,
and can hand each layer's output to a hook.  ``Model.walk_layers`` is the
one place residual blocks are expanded into leaf layers.  All arithmetic is
float64 unless a model is built with an explicit float32 switch.

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

from tfnet.core_math import batch_conv_full_slice, batch_correlate_same, same_pad_widths
from tfnet.kernels import (KernelFamily, check_theta, clamp_params, default_grid,
                           evaluate_kernels, init_params, kernel_param_grad)
from tfnet.seeding import derive_rng

MODES = ("backbone-only", "tfn-add", "tfn-replace", "wkn-add", "wkn-replace", "random-tfn")
BACKBONES = ("paper-cnn", "lenet-1d", "resnet-1d")


class Layer:
    """Base layer: no arrays, identity bookkeeping.

    ``state`` names each array a layer holds as an (array attribute, gradient
    attribute or ``None``) pair; ``params`` and ``grads`` derive from it, and a
    checkpoint stores each named array as ``<layer.name>.<attribute>``.  A
    backward sets its gradients in place, so the arrays keep their identity.

    A subclass's ``forward`` sets ``_cache`` to what its ``backward`` needs
    when ``training`` is true and to ``None`` otherwise; ``backward`` reads
    it through ``_saved``, which raises unless a training forward came first.

    An inference forward called with ``overwrite=True`` may overwrite its
    input ``x`` with its output (``BatchNorm1d`` and ``ReLU`` do); pass it
    only for an array no caller reads again.  The default never writes ``x``.
    """

    name = ""
    state: tuple[tuple[str, str | None], ...] = ()
    _cache = None

    @property
    def params(self) -> list[np.ndarray]:
        return [getattr(self, attr) for attr, grad in self.state if grad is not None]

    @property
    def grads(self) -> list[np.ndarray]:
        return [getattr(self, grad) for _attr, grad in self.state if grad is not None]

    def forward(self, x: np.ndarray, training: bool = False,
                overwrite: bool = False) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def param_backward(self, grad: np.ndarray) -> None:
        """Set parameter gradients only, as the first layer of a model."""
        self.backward(grad)

    def _saved(self):
        if self._cache is None:
            raise RuntimeError(
                f"{self.name or type(self).__name__}: backward needs forward(training=True) first")
        return self._cache


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


def _windows(x, taps):
    """(B, L_out, taps, C) im2col view of a (B, L, C) array; reshaping it copies."""
    return np.lib.stride_tricks.sliding_window_view(x, (taps, x.shape[2]), axis=(1, 2))[:, :, 0]


class Conv1d(Layer):
    """Stride-1 cross-correlation, valid padding by default.

    The forward copies one group of samples' im2col rows (Chellapilla et
    al., 2006) into one reused buffer and runs one GEMM per group, in
    training and inference alike, so no full-batch matrix is built.  A
    training forward keeps only its (padded) input.  The weight gradient
    sums over the batch, so ``param_backward`` rebuilds the full-batch
    (B*L_out, taps*in) matrix from that input, runs the one GEMM and drops
    the matrix: a strided copy recomputed instead of a matrix stored from
    forward to backward (Chen et al., 2016).  The input gradient adds each
    tap's product for one group of samples into a contiguous block of its
    rows.  Splitting a GEMM by rows changes no dot product as long as every
    piece stays above ``_SMALL_GEMM``, so both passes keep the full-batch
    GEMM's bits.  Activations are (batch, length, channels); the stored
    weight is (out, in, taps).
    """

    state = (("weight", "wgrad"), ("bias", "bgrad"))

    def __init__(self, in_channels, out_channels, kernel_size, rng, padding="valid",
                 dtype=np.float64):
        if padding not in ("valid", "same"):
            raise ValueError(f"unknown padding {padding!r}")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.padding = padding
        bound = np.sqrt(6.0 / (in_channels * kernel_size))
        self.weight = rng.uniform(-bound, bound, (out_channels, in_channels, kernel_size)).astype(dtype)
        self.bias = np.zeros(out_channels, dtype=dtype)
        self.wgrad = np.zeros_like(self.weight)
        self.bgrad = np.zeros_like(self.bias)

    def kernels(self) -> np.ndarray:
        """Input-channel-summed kernel bank, shape (out, taps)."""
        return self.weight.sum(axis=1)

    def _w2(self):
        """(taps*in, out) GEMM operand matching the im2col column order."""
        K = self.kernel_size
        return np.ascontiguousarray(self.weight.transpose(2, 1, 0)).reshape(
            K * self.in_channels, self.out_channels)

    def forward(self, x, training=False, overwrite=False):
        B, L, C = x.shape
        if C != self.in_channels:
            raise ValueError(f"Conv1d expects {self.in_channels} input channels, got {C}")
        if self.padding == "same":
            x = np.pad(x, ((0, 0), same_pad_widths(self.kernel_size), (0, 0)))
        K, O = self.kernel_size, self.out_channels
        L_out = x.shape[1] - K + 1
        if L_out < 1:
            raise ValueError(f"input length {L} shorter than kernel {K}")
        win = _windows(x, K)
        w2 = self._w2()
        groups = _sample_groups(B, L_out * K * C * O)
        cols = np.empty((max(hi - lo for lo, hi in groups) * L_out, K * C), dtype=x.dtype)
        out = np.empty((B * L_out, O), dtype=np.result_type(x, w2))
        for lo, hi in groups:
            piece = cols[: (hi - lo) * L_out]
            piece.reshape(hi - lo, L_out, K, C)[...] = win[lo:hi]
            np.matmul(piece, w2, out=out[lo * L_out : hi * L_out])
        out += self.bias
        self._cache = x if training else None
        return out.reshape(B, L_out, O)

    def param_backward(self, grad):
        """Set the weight and bias gradients; no input gradient is computed.

        The full-batch im2col matrix is rebuilt from the kept input for the
        one weight-gradient GEMM and dropped when it returns.
        """
        x = self._saved()
        B, L_pad, C = x.shape
        K, O = self.kernel_size, self.out_channels
        cols = _windows(x, K).reshape(B * (L_pad - K + 1), K * C)
        g2 = np.ascontiguousarray(grad).reshape(-1, O)
        self.bgrad[...] = g2.sum(axis=0)
        self.wgrad[...] = (g2.T @ cols).reshape(O, K, C).transpose(0, 2, 1)

    def backward(self, grad):
        L_pad = self._saved().shape[1]
        self.param_backward(grad)
        B, L_out, O = grad.shape
        C, K = self.in_channels, self.kernel_size
        dtype = self.weight.dtype
        groups = _sample_groups(B, L_pad * C * O)
        widest = max(hi - lo for lo, hi in groups)
        # Sample lo+j's upstream rows start at row j*L_pad of its group's GEMM,
        # zeros filling the gaps, so each tap's product lands on one contiguous
        # block of gx rows; the product buffer holds one group's rows.
        gx = np.zeros((B * L_pad, C), dtype=dtype)
        spread = np.zeros((widest * L_pad, O), dtype=dtype)
        product = np.empty(((widest - 1) * L_pad + L_out, C), dtype=dtype)
        w_taps = np.ascontiguousarray(self.weight.transpose(2, 0, 1))  # (K, O, C)
        for lo, hi in groups:
            top, n = lo * L_pad, (hi - lo - 1) * L_pad + L_out
            if hi - lo == 1:
                g = grad[lo]
            else:
                spread[: (hi - lo) * L_pad].reshape(hi - lo, L_pad, O)[:, :L_out] = grad[lo:hi]
                g = spread[:n]
            for m in range(K):
                np.matmul(g, w_taps[m], out=product[:n])
                gx[top + m : top + m + n] += product[:n]
        gx = gx.reshape(B, L_pad, C)
        if self.padding == "same":
            left, right = same_pad_widths(K)
            gx = gx[:, left : L_pad - right, :]
        return gx


class BatchNorm1d(Layer):
    """Channel-wise normalization over (batch, time) with learnable affine."""

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

    def forward(self, x, training=False, overwrite=False):
        B, L, C = x.shape
        if C != self.channels:
            raise ValueError(f"BatchNorm1d expects {self.channels} channels, got {C}")
        M = B * L
        if training:
            if B < 2:
                raise ValueError("BatchNorm1d training mode needs batch size >= 2")
            mean = x.sum(axis=(0, 1)) / M
            # single-pass second moment; clip guards float32 cancellation
            sq = np.einsum("blc,blc->c", x, x)
            var = np.maximum(sq / M - mean * mean, 0.0)
            self.running_mean += self.momentum * (mean - self.running_mean)
            self.running_var += self.momentum * (var - self.running_var)
            istd = 1.0 / np.sqrt(var + self.eps)
            xhat = np.subtract(x, mean)
            xhat *= istd
            self._cache = (xhat, istd, M)
            out = np.multiply(self.gamma, xhat)
            out += self.beta
            return out
        self._cache = None
        istd = 1.0 / np.sqrt(self.running_var + self.eps)
        scale = self.gamma * istd
        out = np.multiply(scale, x, out=x if overwrite else None)
        out += self.beta - scale * self.running_mean
        return out

    def backward(self, grad):
        xhat, istd, M = self._saved()
        sg = grad.sum(axis=(0, 1))
        sgx = np.einsum("blc,blc->c", grad, xhat)
        self.ggrad[...] = sgx
        self.bgrad[...] = sg
        gx = xhat * (sgx / -M)
        gx += grad
        gx -= sg / M
        gx *= self.gamma * istd
        return gx


class ReLU(Layer):
    def forward(self, x, training=False, overwrite=False):
        self._cache = x > 0.0 if training else None
        return np.maximum(x, 0.0, out=x if overwrite and not training else None)

    def backward(self, grad):
        return grad * self._saved()


class MaxPool(Layer):
    """Max over non-overlapping pairs of samples; an odd trailing sample is dropped.

    The backward routes by multiplying with the mask, several times faster
    than ``np.where``; a slot that lost gets ``grad * 0``, signed like ``grad``.
    """

    def forward(self, x, training=False, overwrite=False):
        L_out = x.shape[1] // 2
        m0 = x[:, 0 : 2 * L_out : 2, :]
        m1 = x[:, 1 : 2 * L_out : 2, :]
        # right slot won; strict, so ties keep the earlier slot, like argmax
        self._cache = (x.shape, m1 > m0) if training else None
        return np.maximum(m0, m1)

    def backward(self, grad):
        (B, L, C), choice = self._saved()
        L_out = L // 2
        gx = np.empty((B, L, C), dtype=grad.dtype)
        pairs = gx[:, : 2 * L_out].reshape(B, L_out, 2, C)
        np.multiply(grad, ~choice, out=pairs[:, :, 0])
        np.multiply(grad, choice, out=pairs[:, :, 1])
        if L % 2:
            gx[:, -1] = 0.0
        return gx


class AdaptiveAvgPool(Layer):
    """Averages the length axis into a fixed number of bins.

    Bin i covers [floor(i*L/n), ceil((i+1)*L/n)); bins are equal when L is
    divisible by n.
    """

    def __init__(self, bins=4):
        self.bins = bins

    def _edges(self, L):
        n = self.bins
        starts = [int(np.floor(i * L / n)) for i in range(n)]
        ends = [int(np.ceil((i + 1) * L / n)) for i in range(n)]
        return starts, ends

    def forward(self, x, training=False, overwrite=False):
        B, L, C = x.shape
        if L < self.bins:
            raise ValueError(f"cannot pool length {L} into {self.bins} bins")
        starts, ends = self._edges(L)
        out = np.empty((B, self.bins, C), dtype=x.dtype)
        for i, (s, e) in enumerate(zip(starts, ends)):
            out[:, i, :] = x[:, s:e, :].mean(axis=1)
        self._cache = x.shape if training else None
        return out

    def backward(self, grad):
        B, L, C = self._saved()
        starts, ends = self._edges(L)
        gx = np.zeros((B, L, C), dtype=grad.dtype)
        for i, (s, e) in enumerate(zip(starts, ends)):
            gx[:, s:e, :] += grad[:, i : i + 1, :] / (e - s)
        return gx


class Flatten(Layer):
    def forward(self, x, training=False, overwrite=False):
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

    def forward(self, x, training=False, overwrite=False):
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

    def forward(self, x, training=False, overwrite=False):
        out = x
        for layer in self.sublayers:
            # the skip input is read again below, so only the branch's own arrays are overwritten
            out = layer.forward(out, training=training, overwrite=out is not x)
        if out.shape != x.shape:
            raise ValueError("residual branch changed shape; identity skip impossible")
        return out + x

    def backward(self, grad):
        g = grad
        for layer in reversed(self.sublayers):
            g = layer.backward(g)
        return g + grad


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
    time; a training forward keeps the input's spectrum, not the input, and
    with the modulus the complex correlation.  The backward chains the
    upstream gradient through the modulus in one complex multiply, g =
    conj(corr) * grad / h; one FFT of g times the kept conjugate spectrum,
    summed over the batch, gives the gradient with respect to the taps; and
    the (C, P, K) analytic kernel derivatives d(psi)/d(theta) map that onto
    the parameters, the same way for every kernel family.  The layer is
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

    def project_params(self):
        """Clamp the control parameters onto their boxes after an optimizer step."""
        clamp_params(self.family, self.theta)

    def kernels(self) -> np.ndarray:
        """Current complex kernel bank, shape (C, K)."""
        return evaluate_kernels(self.family, self.theta)

    def forward(self, x, training=False, overwrite=False):
        """(B, L) input -> (B, C, L) feature map.

        A training forward keeps the input's (B, n) spectrum, the output and,
        with the modulus, the complex correlation for ``backward``.
        """
        x = np.asarray(x)
        # float32 input (a float32 model's) runs the whole layer in single precision
        x = x.astype(np.float32 if x.dtype == np.float32 else np.float64, copy=False)
        if x.ndim != 2:
            raise ValueError(f"TFconv expects (B, L) input, got shape {x.shape}")
        if not np.all(np.isfinite(x)):
            raise ValueError("TFconv input contains non-finite values")
        kern = self.kernels()
        if x.dtype == np.float32:
            kern = kern.astype(np.complex64)
        h, corr, Xf = batch_correlate_same(x, kern, default_grid(self.family),
                                           EPS_MODULUS if self.modulus else None,
                                           keep=training and self.modulus)
        self._cache = (Xf, corr, h) if training else None
        return h

    def backward(self, grad):
        """Set ``grad_theta`` to the gradient of the upstream (B, C, L) ``grad``.

        The control-parameter gradient is summed over batch and time: the
        gradient with respect to the taps, then ``grad_theta[c, p] = Re sum_k
        dpsi[c, p, k] * taps[c, k]`` through d(psi)/d(theta), the same for
        every family.  Returns nothing: no gradient reaches the input.
        """
        Xf, corr, h = self._saved()
        grad = np.asarray(grad, dtype=h.dtype)
        if grad.shape != h.shape:
            raise ValueError(f"grad shape {grad.shape} != forward output shape {h.shape}")
        if self.modulus:
            # g = conj(corr) * grad / h, so that Re{g * z} == grad * (Re(corr)
            # Re(z) + Im(corr) Im(z)) / h; complex64 for a float32 forward
            g = np.conjugate(corr)
            g *= grad / h
        else:
            g = grad
        taps = batch_conv_full_slice(g, Xf, default_grid(self.family))
        dpsi = kernel_param_grad(self.family, self.theta)
        self.grad_theta[...] = np.einsum("cpk,ck->cp", dpsi, taps).real


class Model:
    """Ordered layer stack with its assembly recipe (mode and backbone).

    ``layers[0]`` is the model's first filter bank: the TFconv front layer
    (also ``tfconv``) or the backbone's first ``Conv1d``.  The final
    ``Dense`` fixes ``n_classes`` and ``dtype``, and the front layer fixes
    ``tfconv_config``; none of the three can be set apart from the layers.

    ``forward(x, hook=fn)`` calls ``fn(layer, out)`` after each top-level
    layer with the channels-last array the walker holds; the front layer's
    output is transposed before the hook sees it, as (batch, length, channels).

    ``forward`` never writes ``x``, but at inference a later layer may
    overwrite the array the layer before it returned, so a hook that keeps
    an array must copy it.
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

    @property
    def tfconv_config(self) -> dict | None:
        """The front layer's kernel configuration, as a checkpoint header records it."""
        front = self.tfconv
        if front is None:
            return None
        return {
            "family": front.family.value,
            "n_channels": front.theta.shape[0],
            "kernel_length": len(default_grid(front.family)),
            "eps_modulus": EPS_MODULUS,
            "modulus": front.modulus,
        }

    def walk_layers(self):
        """Leaf layers in order, each residual block replaced by its sublayers."""
        for layer in self.layers:
            if isinstance(layer, Residual):
                yield from layer.sublayers
            else:
                yield layer

    def forward(self, x, training=False, hook=None):
        """(B, L) signals -> (B, n_classes) logits."""
        x = np.asarray(x, dtype=self.dtype)
        if x.ndim != 2 or x.size == 0:
            raise ValueError(f"model expects non-empty (B, L) signals, got shape {x.shape}")
        front = self.tfconv
        out = x if front is not None else x[:, :, None]
        for layer in self.layers:
            # any array but the caller's (or a view of it) is the walker's to overwrite
            out = layer.forward(out, training=training,
                                overwrite=not np.may_share_memory(out, x))
            if layer is front:
                out = np.ascontiguousarray(out.transpose(0, 2, 1))
            if hook is not None:
                hook(layer, out)
        return out

    def backward(self, grad):
        """Set every layer's parameter gradients from the logits' ``grad``.

        Returns nothing.  The first layer, a TFconv front layer or the
        backbone's first ``Conv1d``, runs only ``param_backward``: no caller
        reads a gradient with respect to the model's input, so none is
        computed.
        """
        g = np.asarray(grad)
        first, *rest = self.layers
        for layer in reversed(rest):
            g = layer.backward(g)
        if first is self.tfconv:
            g = g.transpose(0, 2, 1)
        first.param_backward(g)

    def project_params(self):
        if self.tfconv is not None:
            self.tfconv.project_params()

    def parameters(self):
        return [p for layer in self.walk_layers() for p in layer.params]

    def gradients(self):
        return [g for layer in self.walk_layers() for g in layer.grads]


def fold_batchnorm(model: Model) -> Model:
    """An inference copy of ``model``, each ``BatchNorm1d`` merged into the ``Conv1d`` before it.

    The norm's map x*scale + (beta - scale*running_mean), scale =
    gamma/sqrt(running_var + eps) (Ioffe and Szegedy, 2015, sec. 3.1), gives
    the conv weight W*scale and bias (b - running_mean)*scale + beta (Jacob
    et al., 2018, sec. 3.2), inside residual blocks too.  A norm after the
    TFconv front layer stays: the modulus is not linear.  The copy holds
    shallow copies of the layers, so ``model`` keeps its arrays and names.
    """
    return Model(_fold_layers(model.layers), model.mode, model.backbone)


def _fold_layers(layers):
    out = []
    for layer in layers:
        if isinstance(layer, BatchNorm1d) and out and isinstance(out[-1], Conv1d):
            conv = out[-1]
            scale = layer.gamma / np.sqrt(layer.running_var + layer.eps)
            conv.weight = conv.weight * scale[:, None, None]
            conv.bias = (conv.bias - layer.running_mean) * scale + layer.beta
            continue
        layer = copy.copy(layer)
        # a method set on the instance (a profiler's wrapper, say) would run the unfolded layer
        for name in [name for name, value in vars(layer).items() if callable(value)]:
            delattr(layer, name)
        if isinstance(layer, Residual):
            layer.sublayers = _fold_layers(layer.sublayers)
        out.append(layer)
    return out


def check_labels(labels, n_classes):
    """Raise ``ValueError`` unless every label lies in [0, n_classes)."""
    labels = np.asarray(labels)
    if np.any(labels < 0) or np.any(labels >= n_classes):
        raise ValueError(
            f"labels must lie in [0, {n_classes}), got {labels.min()}..{labels.max()}")


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
        Conv1d(in_channels, c1, 15, rng, dtype=dtype),
        BatchNorm1d(c1, dtype=dtype),
        ReLU(),
        Conv1d(c1, 32, 3, rng, dtype=dtype),
        BatchNorm1d(32, dtype=dtype),
        MaxPool(),
        ReLU(),
        Conv1d(32, 64, 3, rng, dtype=dtype),
        BatchNorm1d(64, dtype=dtype),
        ReLU(),
    ]


def _head(rng, n_classes, dtype):
    """The last conv and dense classifier of paper-cnn and resnet-1d."""
    return [
        Conv1d(64, 128, 3, rng, dtype=dtype),
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
    def res_block():
        return Residual([
            Conv1d(64, 64, 3, rng, padding="same", dtype=dtype),
            BatchNorm1d(64, dtype=dtype),
            ReLU(),
            Conv1d(64, 64, 3, rng, padding="same", dtype=dtype),
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
