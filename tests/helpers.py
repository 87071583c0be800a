"""Shared test utilities: direct-path oracles, finite differences, gradient checks."""

import struct

import numpy as np

from tfnet.core_math import same_pad_widths
from tfnet.kernels import KernelFamily, evaluate_kernels, kernel_param_grad
from tfnet.nn import EPS_MODULUS, Model, softmax_cross_entropy


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
    dpsi = kernel_param_grad(layer.family, layer.theta)  # (C, P, K)
    C, P, K = dpsi.shape
    want = np.zeros((C, P))
    bound = np.zeros((C, P))
    for c in range(C):
        for b in range(B):
            z = cross_correlate_same(x64[b], bank[c])
            h = np.sqrt(z.real**2 + z.imag**2 + EPS_MODULUS)
            g = np.conj(z) * w64[b, c] / h
            tau = correlation_roundoff(x64[b], bank[c], n, dtype)[0] + direct_roundoff(x64[b], bank[c])
            taps_err, taps_norm = correlation_roundoff(x64[b], g, n, dtype)
            far = h > 1.5 * tau
            for p in range(P):
                d = cross_correlate_same(x64[b], dpsi[c, p])
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


def checkpoint_block_offsets(raw: bytes) -> list[tuple[int, int, int]]:
    """(start, rank offset, data offset) of every block of checkpoint bytes ``raw``."""
    (hlen,) = struct.unpack("<I", raw[4:8])
    pos, blocks = 8 + hlen, []
    while pos < len(raw):
        (nlen,) = struct.unpack("<H", raw[pos : pos + 2])
        rank_at = pos + 2 + nlen
        data_at = rank_at + 1 + 4 * raw[rank_at]
        shape = struct.unpack(f"<{raw[rank_at]}I", raw[rank_at + 1 : data_at])
        blocks.append((pos, rank_at, data_at))
        pos = data_at + 8 * int(np.prod(shape))
    return blocks


CHECKPOINT_CORRUPTIONS = ("name-not-utf8", "rank-4-dims-max")


def corrupt_first_block(raw: bytes, case: str) -> bytes:
    """Checkpoint bytes ``raw`` with the first block corrupted as ``case`` names.

    ``name-not-utf8`` flips bit 7 of the block name's first byte;
    ``rank-4-dims-max`` declares rank 4 with every dimension 0xFFFFFFFF, a
    product that wraps.  The loader once read past both unchecked.
    """
    start, rank_at, _ = checkpoint_block_offsets(raw)[0]
    if case == "name-not-utf8":
        return raw[: start + 2] + bytes([raw[start + 2] ^ 0x80]) + raw[start + 3 :]
    if case == "rank-4-dims-max":
        return raw[:rank_at] + b"\x04" + b"\xff" * 16 + raw[rank_at + 1 + 4 * raw[rank_at] :]
    raise ValueError(f"unknown corruption {case!r}")
