"""Shared test utilities: direct-path oracles, finite differences, gradient checks."""

import numpy as np

from tfnet.core_math import same_pad_widths
from tfnet.kernels import KernelFamily, evaluate_kernels
from tfnet.nn import Model, softmax_cross_entropy


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


def cross_correlate_same(x, k) -> np.ndarray:
    """Length-preserving correlation: zero-pad, then valid correlation.

    Pads floor((K-1)/2) zeros on the left and ceil((K-1)/2) on the right.
    """
    xa = _as_1d(x, "x")
    ka = _as_1d(k, "k")
    if xa.size == 0:
        raise ValueError("cross_correlate_same: empty signal")
    left, right = same_pad_widths(ka.size)
    padded = np.concatenate(
        [np.zeros(left, dtype=xa.dtype), xa, np.zeros(right, dtype=xa.dtype)]
    )
    return cross_correlate_valid(padded, ka)


def reference_tft(x: np.ndarray, family: KernelFamily, thetas) -> np.ndarray:
    """Direct time-frequency transform of one signal, row per parameter set.

    Row i is the length-preserving correlation of ``x`` with the kernel
    generated from ``thetas[i]``; its modulus is the time-frequency
    spectrum.  Uses the direct sliding-window path, independent of the
    FFT-based layer forward, so the two can check each other.
    """
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    rows = [cross_correlate_same(x, psi) for psi in evaluate_kernels(family, np.atleast_2d(thetas))]
    return np.stack(rows)


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


def conv1d_grads_full_batch_im2col(conv, x: np.ndarray, grad: np.ndarray):
    """(weight, bias, input) gradients of ``conv`` from one full-batch im2col matrix.

    ``x`` is the (B, L, in) input and ``grad`` the (B, L_out, out) upstream
    gradient.  The (B*L_out, taps*in) matrix of every sample's windows is
    built at once, the way a training forward once kept it, and the weight
    gradient is its one GEMM with ``grad``; the input gradient is
    ``conv1d_input_grad_per_tap``.  The reference for ``Conv1d``, which
    keeps only its padded input and rebuilds the matrix in backward.
    """
    K, O = conv.kernel_size, conv.out_channels
    if conv.padding == "same":
        x = np.pad(x, ((0, 0), same_pad_widths(K), (0, 0)))
    B, L_pad, C = x.shape
    L_out = L_pad - K + 1
    cols = np.empty((B * L_out, K * C), dtype=x.dtype)
    for b in range(B):
        for t in range(L_out):
            cols[b * L_out + t] = x[b, t : t + K].reshape(-1)
    g2 = np.ascontiguousarray(grad).reshape(B * L_out, O)
    wgrad = (g2.T @ cols).reshape(O, K, C).transpose(0, 2, 1)
    return wgrad, g2.sum(axis=0), conv1d_input_grad_per_tap(conv.weight, grad, conv.padding)


def forward_out_of_place(model: Model, x: np.ndarray) -> np.ndarray:
    """Inference logits of ``model`` with no layer allowed to overwrite its input.

    Every leaf layer's ``forward`` is wrapped to pass ``overwrite=False``
    for the duration of the call, so each layer writes a new array.  The
    reference for ``Model.forward``, whose inference layers may write into
    the arrays the walker owns.
    """
    layers = list(model.walk_layers())
    for layer in layers:
        layer.forward = (lambda x, training=False, overwrite=False, f=layer.forward:
                         f(x, training=training))
    try:
        return model.forward(x, training=False)
    finally:
        for layer in layers:
            vars(layer).pop("forward", None)


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
    model.zero_grad()
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
