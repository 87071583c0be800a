"""Kernel-function families for the time-frequency convolutional layer.

A kernel bank is a pair ``(family, theta)``.  The family fixes the kernel
function and the one integer grid ``default_grid`` gives it, so the family
alone fixes the kernel length.  ``theta`` is a (C, P) float64 array: one
row of P control parameters (center frequency f, chirp rate alpha, or
wavelet scale s) per channel, named by ``param_names``.  These are the only
trainable weights of the layer, each confined to the hard box ``BOXES``
gives it: f (normalized frequency) in [0, 0.5 - 1e-6], alpha in
[-0.005, 0.005], s in [0.4, 10].  ``evaluate_kernels`` gives the (C, K)
bank, ``kernel_param_grad`` the (C, P, K) derivatives of a given bank;
``clamp_params`` projects theta onto the boxes in place.  Each takes a
``KernelFamily``; ``nn.assemble_model`` and ``nn.TFconvLayer`` parse names.

Families
--------
sttf       Gaussian envelope (sigma=10) times exp(j*2*pi*f*n), n in -25..25.
chirplet   sttf with an extra linear frequency-modulation term alpha;
           alpha=0 reduces to sttf exactly.
morlet     scaled mother window (1/sqrt(s)) * Psi(n/s) on n in -150..150,
           Psi(m) = exp(-(m/10)^2/2) * exp(j*2*pi*0.2*m); center frequency
           0.2/s.
laplace    same mother window and scaling as morlet but on the one-sided
           grid n in 0..150 (asymmetry comes from the one-sided support),
           so a half-Gaussian envelope.  WaveletKernelNet (Li et al.,
           arXiv:1911.07925), which TFN compares against, defines its
           Laplace wavelet as an exponentially damped sinusoid instead;
           the shape here is kept as it is.
random     unconstrained raw taps, P = 2K (real taps, then imaginary taps)
           on n in -25..25, trained like plain convolution weights; only
           legal in the random-kernel ablation.

The complex-exponential sign is positive for every family; for real inputs
the modulus feature map is invariant under kernel conjugation, so the
choice is observationally neutral and keeps chirplet(alpha=0) == sttf.
"""

from enum import Enum

import numpy as np

from tfnet.seeding import derive_rng

F_MAX = 0.5 - 1e-6
ALPHA_MAX = 0.005
S_MIN, S_MAX = 0.4, 10.0
ENVELOPE_SIGMA = 10.0
MOTHER_FREQ = 0.2


class KernelFamily(str, Enum):
    STTF = "sttf"
    CHIRPLET = "chirplet"
    MORLET = "morlet"
    LAPLACE = "laplace"
    RANDOM = "random"


# (name, lo, hi) per theta column: the one table that evaluation checks and
# projection clamps against; random taps have no box
BOXES = {
    KernelFamily.STTF: (("f", 0.0, F_MAX),),
    KernelFamily.CHIRPLET: (("f", 0.0, F_MAX), ("alpha", -ALPHA_MAX, ALPHA_MAX)),
    KernelFamily.MORLET: (("s", S_MIN, S_MAX),),
    KernelFamily.LAPLACE: (("s", S_MIN, S_MAX),),
}


def default_grid(family: KernelFamily) -> np.ndarray:
    """Integer sample indices of the family's kernels, the one grid it is evaluated on."""
    if family is KernelFamily.MORLET:
        return np.arange(-150, 151)
    if family is KernelFamily.LAPLACE:
        return np.arange(0, 151)
    return np.arange(-25, 26)


def param_names(family: KernelFamily) -> tuple[str, ...]:
    if family is KernelFamily.RANDOM:
        K = len(default_grid(family))
        return tuple(f"w_re_{i}" for i in range(K)) + tuple(f"w_im_{i}" for i in range(K))
    return tuple(name for name, _, _ in BOXES[family])


def check_theta(family: KernelFamily, theta: np.ndarray):
    """Raise unless ``theta`` is a (C, P) array of finite values inside their ``BOXES`` boxes.

    P is the family's parameter count, ``len(param_names(family))``; a wrong
    shape, a non-finite value and a value outside its box raise ``ValueError``.
    """
    P = len(param_names(family))
    if theta.ndim != 2 or theta.shape[1] != P:
        raise ValueError(f"{family.value} expects {P} parameters per channel, "
                         f"got a theta of shape {theta.shape}")
    if not np.all(np.isfinite(theta)):
        raise ValueError("kernel parameters must be finite")
    for j, (name, lo, hi) in enumerate(BOXES.get(family, ())):
        v = theta[:, j]
        if np.any(v < lo) or np.any(v > hi):
            raise ValueError(f"{name} out of [{lo}, {hi}]: {v}")


def _mother(m: np.ndarray) -> np.ndarray:
    return np.exp(-0.5 * (m / ENVELOPE_SIGMA) ** 2) * np.exp(2j * np.pi * MOTHER_FREQ * m)


def evaluate_kernels(family: KernelFamily, theta) -> np.ndarray:
    """Complex kernel bank, shape (C, K), of a (C, P) parameter array."""
    theta = np.asarray(theta, dtype=np.float64)
    check_theta(family, theta)
    n = default_grid(family).astype(np.float64)
    if family is KernelFamily.RANDOM:
        return theta[:, : n.size] + 1j * theta[:, n.size :]
    if family in (KernelFamily.MORLET, KernelFamily.LAPLACE):
        s = theta[:, :1]
        return _mother(n / s) / np.sqrt(s)
    env = np.exp(-0.5 * (n / ENVELOPE_SIGMA) ** 2)
    # sttf is the chirplet at rate 0; adding the zero chirp term leaves f*n bitwise
    f = theta[:, :1]
    alpha = theta[:, 1:] if family is KernelFamily.CHIRPLET else 0.0
    return env * np.exp(2j * np.pi * (0.5 * alpha * n**2 + f * n))


def kernel_param_grad(family: KernelFamily, theta: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """Analytic d(psi)/d(theta), (C, P, K) complex, of ``theta``'s given bank ``psi``, unchecked.

    That bank times a factor of the grid n: 2*pi*j*n for f, pi*j*n^2 for alpha,
    n^2/(sigma^2*s^3) - 1/(2s) - 2*pi*j*f0*n/s^2 for s; random taps give [I; jI].
    """
    n = default_grid(family).astype(np.float64)
    if family is KernelFamily.RANDOM:
        eye = np.eye(n.size)
        return np.repeat(np.concatenate([eye, 1j * eye])[None], len(theta), axis=0)
    if family in (KernelFamily.MORLET, KernelFamily.LAPLACE):
        s = theta[:, :1]
        factor = n**2 / (ENVELOPE_SIGMA**2 * s**3) - 0.5 / s - 2j * np.pi * MOTHER_FREQ * n / s**2
        return (factor * psi)[:, None, :]
    # d/df and d/dalpha of the chirplet; sttf keeps the first
    return np.stack([2j * np.pi * n * psi, 1j * np.pi * n**2 * psi], axis=1)[:, : theta.shape[1]]


def clamp_params(family: KernelFamily, theta: np.ndarray):
    """Project every column of a (C, P) parameter array onto its closed box, in place."""
    for j, (_, lo, hi) in enumerate(BOXES.get(family, ())):
        np.clip(theta[:, j], lo, hi, out=theta[:, j])


def init_params(family: KernelFamily, n_channels: int, seed: int = 0) -> np.ndarray:
    """(n_channels, P) parameters whose focusing frequencies tile the usable band.

    sttf/chirplet channels get center frequencies at the midpoints of
    n_channels equal slices of [0, 0.5]; wavelet channels get scales whose
    center frequencies 0.2/s tile [0.02, 0.5] the same way; random channels
    draw i.i.d. uniform taps in +-sqrt(6/K).
    """
    if n_channels < 1:
        raise ValueError(f"n_channels must be >= 1, got {n_channels}")
    centers = (np.arange(n_channels) + 0.5) / n_channels
    if family is KernelFamily.STTF:
        return (0.5 * centers)[:, None]
    if family is KernelFamily.CHIRPLET:
        return np.stack([0.5 * centers, np.zeros(n_channels)], axis=1)
    if family in (KernelFamily.MORLET, KernelFamily.LAPLACE):
        freqs = 0.02 + (0.5 - 0.02) * centers
        return (MOTHER_FREQ / freqs)[:, None]
    K = len(default_grid(family))
    bound = np.sqrt(6.0 / K)
    return derive_rng(seed, "kernel-init").uniform(-bound, bound, size=(n_channels, 2 * K))
