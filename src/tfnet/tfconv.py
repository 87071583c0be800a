"""Time-frequency convolutional layer.

The layer correlates its 1-channel input with the real and imaginary parts
of a bank of kernel-function-generated complex kernels (length-preserving
zero padding) and outputs the pointwise modulus:

    h_real[k] = Re(psi_k) (*) x
    h_img[k]  = Im(psi_k) (*) x
    h[k]      = sqrt(h_real^2 + h_img^2 + eps)

where (*) is cross-correlation.  The trainable weights are the kernel
control parameters, not the taps.  The backward pass chains the upstream
gradient through the modulus, takes one FFT of it to get the gradient with
respect to the taps, and then maps the tap gradient onto the parameters
through the analytic kernel derivatives d(psi)/d(theta), the same way for
every kernel family.  The layer is always a model's front layer, so the
backward stops at its parameters: there is no input gradient.  A small eps
inside the square root keeps the modulus differentiable at zero.

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
    h_real: np.ndarray   # (B, C, L), a view of the complex correlation
    h_img: np.ndarray    # (B, C, L), a view of the complex correlation
    h: np.ndarray        # (B, C, L) modulus output


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

    def forward(self, x: np.ndarray, training: bool = False,
                overwrite: bool = False) -> np.ndarray:
        """(B, 1, L) or (B, L) input -> (B, C, L) feature map.

        Only a training forward keeps the input and the correlation maps for
        ``backward``; an inference forward keeps nothing.
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
        h_real, h_img = corr.real, corr.imag
        if self.modulus:
            # sqrt(h_real**2 + h_img**2 + eps) in one full-size buffer
            h = np.square(h_real)
            h += np.square(h_img)
            h += self.eps_modulus
            np.sqrt(h, out=h)
        else:
            h = h_real
        self._cache = TFconvCache(x, h_real, h_img, h) if training else None
        return np.ascontiguousarray(h, dtype=out_dtype)

    def backward(self, grad_out: np.ndarray) -> None:
        """Accumulate the gradient of the upstream (B, C, L) ``grad_out`` into ``grad_theta``.

        The control-parameter gradient is summed over batch and time: the
        gradient with respect to the taps, then ``grad_theta[c, p] = Re sum_k
        dpsi[c, p, k] * taps[c, k]`` through d(psi)/d(theta), the same for
        every family.  The layer is always a model's front layer, so nothing
        reads a gradient with respect to its input and none is computed.
        """
        cache = self._cache
        if cache is None:
            raise RuntimeError(
                f"{self.name or type(self).__name__}: backward needs forward(training=True) first")
        grad_out = np.asarray(grad_out, dtype=cache.x.dtype)
        if grad_out.shape != cache.h.shape:
            raise ValueError(
                f"grad_out shape {grad_out.shape} != forward output shape {cache.h.shape}"
            )
        kp = self.kernel_params
        if self.modulus:
            # g = ghr - j*ghi, so that Re{g * z} == ghr*Re(z) + ghi*Im(z); both
            # halves are written in place, complex64 for a float32 forward
            g = np.empty(grad_out.shape, np.result_type(grad_out, np.complex64))
            np.multiply(grad_out, cache.h_real / cache.h, out=g.real)
            np.multiply(grad_out, cache.h_img / cache.h, out=g.imag)
            np.negative(g.imag, out=g.imag)
        else:
            g = grad_out
        taps = batch_conv_full_slice(g, cache.x, len(kp.grid))
        dpsi = np.stack([kernel_param_grad(kp.family, t, kp.grid) for t in kp.theta])  # (C, P, K)
        self.grad_theta += np.einsum("cpk,ck->cp", dpsi, taps).real

    def param_backward(self, grad_out: np.ndarray) -> None:
        """What a model runs on its first layer: ``backward``, which stops at the parameters."""
        self.backward(grad_out)

    def zero_grad(self):
        self.grad_theta[...] = 0.0
