"""Time-frequency convolutional layer.

The layer correlates its 1-channel input with the real and imaginary parts
of a bank of kernel-function-generated complex kernels (length-preserving
zero padding) and outputs the pointwise modulus:

    h_real[k] = Re(psi_k) (*) x
    h_img[k]  = Im(psi_k) (*) x
    h[k]      = sqrt(h_real^2 + h_img^2 + eps)

where (*) is cross-correlation.  The trainable weights are the kernel
control parameters, not the taps; the backward pass chains the upstream
gradient through the modulus and the analytic kernel derivatives back to
those parameters.  A small eps inside the square root keeps the modulus
differentiable at zero.

The ``modulus=False`` variant keeps only the real-kernel correlation with
no modulus, approximating wavelet-kernel comparison layers.
"""

from dataclasses import dataclass

import numpy as np

from tfnet.core_math import batch_conv_full_slice, batch_correlate_same, same_pad_widths
from tfnet.kernels import (
    KernelFamily,
    KernelParams,
    clamp_params,
    evaluate_kernels,
    kernel_param_grad,
)


@dataclass
class TFconvCache:
    """Stored activations for the backward pass."""

    x: np.ndarray        # (B, L) input
    h_real: np.ndarray   # (B, C, L)
    h_img: np.ndarray    # (B, C, L)
    h: np.ndarray        # (B, C, L) modulus output
    kern: np.ndarray     # (C, K) kernel bank, complex64 for float32 input


class TFconvLayer:
    """Constrained complex-correlation layer with modulus output.

    Implements the layer protocol used by the model container: ``forward``
    / ``backward``, ``params`` / ``grads`` lists, and ``project_params``
    for post-step constraint projection.
    """

    name = ""

    def __init__(
        self,
        params: KernelParams,
        eps_modulus: float = 1e-12,
        modulus: bool = True,
    ):
        if eps_modulus <= 0:
            raise ValueError("eps_modulus must be positive")
        if len(params.grid) % 2 == 0:
            raise ValueError("kernel length must be odd")
        self.kernel_params = params
        self.eps_modulus = float(eps_modulus)
        self.modulus = bool(modulus)
        self.grad_theta = np.zeros_like(params.theta)
        self._cache: TFconvCache | None = None

    # -- layer protocol -------------------------------------------------
    @property
    def n_channels(self) -> int:
        return self.kernel_params.n_channels

    @property
    def params(self) -> list[np.ndarray]:
        return [self.kernel_params.theta]

    @property
    def grads(self) -> list[np.ndarray]:
        return [self.grad_theta]

    def project_params(self):
        self.kernel_params.theta[...] = clamp_params(self.kernel_params).theta

    def kernels(self) -> np.ndarray:
        """Current complex kernel bank, shape (C, K)."""
        return evaluate_kernels(self.kernel_params)

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        """(B, 1, L) or (B, L) input -> (B, C, L) feature map.

        Only a training forward keeps the input, the correlation maps and the
        kernel bank for ``backward``; an inference forward keeps nothing.
        """
        out_dtype = np.asarray(x).dtype
        if out_dtype.kind != "f":
            out_dtype = np.dtype(np.float64)
        # float32 models run the whole layer in single precision
        compute = np.float32 if out_dtype == np.float32 else np.float64
        x = np.asarray(x, dtype=compute)
        if x.ndim == 3:
            if x.shape[1] != 1:
                raise ValueError(f"TFconv expects a single input channel, got {x.shape[1]}")
            x = x[:, 0, :]
        if x.ndim != 2:
            raise ValueError(f"TFconv expects (B, L) or (B, 1, L) input, got shape {x.shape}")
        if not np.all(np.isfinite(x)):
            raise ValueError("TFconv input contains non-finite values")
        kern = self.kernels()
        if compute is np.float32:
            kern = kern.astype(np.complex64)
        corr = batch_correlate_same(x, kern)
        h_real = np.ascontiguousarray(corr.real)
        h_img = np.ascontiguousarray(corr.imag)
        if self.modulus:
            h = np.sqrt(h_real**2 + h_img**2 + self.eps_modulus)
            out = h
        else:
            h = h_real
            out = h_real
        self._cache = TFconvCache(x, h_real, h_img, h, kern) if training else None
        return out.astype(out_dtype, copy=False)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        """Upstream (B, C, L) gradient -> input gradient (B, 1, L).

        Accumulates the control-parameter gradient (summed over batch and
        time) into ``grad_theta``.
        """
        cache = self._cache
        if cache is None:
            raise RuntimeError(
                f"{self.name or type(self).__name__}: backward needs forward(training=True) first")
        grad_dtype = np.asarray(grad_out).dtype
        if grad_dtype.kind != "f":
            grad_dtype = np.dtype(np.float64)
        compute = cache.x.dtype.type
        grad_out = np.asarray(grad_out, dtype=compute)
        if grad_out.shape != cache.h.shape:
            raise ValueError(
                f"grad_out shape {grad_out.shape} != forward output shape {cache.h.shape}"
            )
        if self.modulus:
            ghr = grad_out * (cache.h_real / cache.h)
            ghi = grad_out * (cache.h_img / cache.h)
        else:
            ghr = grad_out
            ghi = None

        fam = self.kernel_params.family
        theta = self.kernel_params.theta
        grid = self.kernel_params.grid
        C = self.n_channels
        B, L = cache.x.shape
        K = len(grid)

        if fam is KernelFamily.RANDOM:
            self.grad_theta += self._random_tap_grads(cache.x, ghr, ghi, K, L)
        else:
            P = theta.shape[1]
            dpsi = np.concatenate(
                [kernel_param_grad(fam, theta[c], grid) for c in range(C)]
            )  # (C*P, K)
            if compute is np.float32:
                dpsi = dpsi.astype(np.complex64)
            d_corr = batch_correlate_same(cache.x, dpsi).reshape(B, C, P, L)
            gt = np.einsum("bcl,bcpl->cp", ghr, d_corr.real)
            if ghi is not None:
                gt += np.einsum("bcl,bcpl->cp", ghi, d_corr.imag)
            self.grad_theta += gt

        kern = cache.kern
        if ghi is None:
            grad_x = batch_conv_full_slice(ghr + 0j, kern.real + 0j, L).real
        else:
            # Re{(ghr - j*ghi) * psi} summed over channels recovers
            # ghr (*) Re(psi)-adjoint + ghi (*) Im(psi)-adjoint in one pass.
            grad_x = batch_conv_full_slice(ghr - 1j * ghi, kern, L).real
        return np.ascontiguousarray(grad_x.astype(grad_dtype, copy=False))[:, None, :]

    def _random_tap_grads(self, x, ghr, ghi, K, L):
        B = x.shape[0]
        C = ghr.shape[1]
        left, right = same_pad_widths(K)
        xp = np.pad(x, ((0, 0), (left, right)))
        windows = np.ascontiguousarray(
            np.lib.stride_tricks.sliding_window_view(xp, K, axis=1)
        ).reshape(B * L, K)
        # grad[c, k] = sum_{b,l} gh[b, c, l] * x_pad[b, l + k], as one GEMM
        g_re = np.ascontiguousarray(ghr.transpose(1, 0, 2)).reshape(C, B * L) @ windows
        if ghi is None:
            g_im = np.zeros_like(g_re)
        else:
            g_im = np.ascontiguousarray(ghi.transpose(1, 0, 2)).reshape(C, B * L) @ windows
        return np.concatenate([g_re, g_im], axis=1)

    def zero_grad(self):
        self.grad_theta[...] = 0.0
