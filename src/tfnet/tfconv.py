"""Time-frequency convolutional layer.

The layer correlates its 1-channel input with the real and imaginary parts
of a bank of kernel-function-generated complex kernels (length-preserving
zero padding) and outputs the pointwise modulus:

    h_real[k] = Re(psi_k) (*) x
    h_img[k]  = Im(psi_k) (*) x
    h[k]      = sqrt(h_real^2 + h_img^2 + eps)

where (*) is cross-correlation.  The trainable weights are the kernel
control parameters, not the taps.  The backward pass chains the upstream
gradient through the modulus, takes one FFT of it to get both the input
gradient and the gradient with respect to the taps, and then maps the tap
gradient onto the parameters through the analytic kernel derivatives
d(psi)/d(theta), the same way for every kernel family.  A small eps inside
the square root keeps the modulus differentiable at zero.

The ``modulus=False`` variant keeps only the real-kernel correlation with
no modulus, approximating wavelet-kernel comparison layers.
"""

from dataclasses import dataclass

import numpy as np

from tfnet.core_math import batch_conv_full_slice, batch_correlate_same
from tfnet.kernels import KernelParams, clamp_params, evaluate_kernels, kernel_param_grad


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
        time) into ``grad_theta``: the gradient with respect to the taps, then
        ``grad_theta[c, p] = Re sum_k dpsi[c, p, k] * taps[c, k]`` through
        d(psi)/d(theta), the same for every family.
        """
        cache = self._cache
        if cache is None:
            raise RuntimeError(
                f"{self.name or type(self).__name__}: backward needs forward(training=True) first")
        grad_dtype = np.asarray(grad_out).dtype
        if grad_dtype.kind != "f":
            grad_dtype = np.dtype(np.float64)
        grad_out = np.asarray(grad_out, dtype=cache.x.dtype)
        if grad_out.shape != cache.h.shape:
            raise ValueError(
                f"grad_out shape {grad_out.shape} != forward output shape {cache.h.shape}"
            )
        if self.modulus:
            ghr = grad_out * (cache.h_real / cache.h)
            ghi = grad_out * (cache.h_img / cache.h)
            # Re{(ghr - j*ghi) * z} == ghr*Re(z) + ghi*Im(z)
            grad_x, taps = batch_conv_full_slice(ghr - 1j * ghi, cache.x, cache.kern)
        else:
            grad_x, taps = batch_conv_full_slice(grad_out, cache.x, cache.kern.real)
        kp = self.kernel_params
        dpsi = np.stack([kernel_param_grad(kp.family, t, kp.grid) for t in kp.theta])  # (C, P, K)
        self.grad_theta += np.einsum("cpk,ck->cp", dpsi, taps).real
        return np.ascontiguousarray(grad_x.real.astype(grad_dtype, copy=False))[:, None, :]

    def zero_grad(self):
        self.grad_theta[...] = 0.0
