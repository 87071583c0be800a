"""Kernel-function families for the time-frequency convolutional layer.

Each family generates a complex discrete kernel from a handful of control
parameters (center frequency f, chirp rate alpha, or wavelet scale s) on
the one integer grid ``default_grid`` gives the family, so the family alone
fixes the kernel length.  The control parameters are the only trainable
weights of the layer, each confined to the hard box ``BOXES`` gives it: f
(normalized frequency) in [0, 0.5 - 1e-6], alpha in [-0.005, 0.005], s in
[0.4, 10].

Families
--------
sttf       Gaussian envelope (sigma=10) times exp(j*2*pi*f*n), n in -25..25.
chirplet   sttf with an extra linear frequency-modulation term alpha;
           alpha=0 reduces to sttf exactly.
morlet     scaled mother window (1/sqrt(s)) * Psi(n/s) on n in -150..150,
           Psi(m) = exp(-(m/10)^2/2) * exp(j*2*pi*0.2*m); center frequency
           0.2/s.
laplace    same mother window and scaling as morlet but on the one-sided
           grid n in 0..150 (asymmetry comes from the one-sided support).
random     unconstrained raw taps (real and imaginary) on n in -25..25,
           trained like plain convolution weights; only legal in the
           random-kernel ablation.

The complex-exponential sign is positive for every family; for real inputs
the modulus feature map is invariant under kernel conjugation, so the
choice is observationally neutral and keeps chirplet(alpha=0) == sttf.
"""

from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from tfnet.seeding import derive_rng

F_MAX = 0.5 - 1e-6
ALPHA_MAX = 0.005
S_MIN, S_MAX = 0.4, 10.0
ENVELOPE_SIGMA = 10.0
MOTHER_FREQ = 0.2


class ConstraintError(ValueError):
    """A kernel control parameter lies outside its hard box."""


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
    family = KernelFamily(family)
    if family is KernelFamily.MORLET:
        return np.arange(-150, 151)
    if family is KernelFamily.LAPLACE:
        return np.arange(0, 151)
    return np.arange(-25, 26)


@dataclass
class KernelParams:
    """Per-channel control parameters for one kernel family.

    ``theta`` has shape (n_channels, P): P=1 for sttf (f) and the wavelets
    (s), P=2 for chirplet (f, alpha), P=2K for random (real taps then
    imaginary taps).
    """

    family: KernelFamily
    theta: np.ndarray

    def __post_init__(self):
        self.family = KernelFamily(self.family)
        self.theta = np.atleast_2d(np.asarray(self.theta, dtype=np.float64))
        if not np.all(np.isfinite(self.theta)):
            raise ConstraintError("kernel parameters must be finite")
        expected = n_params(self.family)
        if self.theta.shape[1] != expected:
            raise ValueError(
                f"{self.family.value} expects {expected} parameters per channel, "
                f"got {self.theta.shape[1]}"
            )

    @property
    def n_channels(self) -> int:
        return self.theta.shape[0]


def n_params(family: KernelFamily) -> int:
    return len(param_names(family))


def param_names(family: KernelFamily) -> tuple[str, ...]:
    if family is KernelFamily.RANDOM:
        K = len(default_grid(family))
        return tuple(f"w_re_{i}" for i in range(K)) + tuple(f"w_im_{i}" for i in range(K))
    return tuple(name for name, _, _ in BOXES[family])


def check_theta(family: KernelFamily, theta: np.ndarray):
    """Raise ``ConstraintError`` unless every parameter is finite and inside its ``BOXES`` box."""
    if not np.all(np.isfinite(theta)):
        raise ConstraintError("kernel parameters must be finite")
    for j, (name, lo, hi) in enumerate(BOXES.get(family, ())):
        v = theta[..., j]
        if np.any(v < lo) or np.any(v > hi):
            raise ConstraintError(f"{name} out of [{lo}, {hi}]: {v}")


def _mother(m: np.ndarray) -> np.ndarray:
    return np.exp(-0.5 * (m / ENVELOPE_SIGMA) ** 2) * np.exp(2j * np.pi * MOTHER_FREQ * m)


def _mother_deriv(m: np.ndarray) -> np.ndarray:
    return (-m / ENVELOPE_SIGMA**2 + 2j * np.pi * MOTHER_FREQ) * _mother(m)


def evaluate_kernel(family: KernelFamily, theta) -> np.ndarray:
    """Complex kernel taps for one channel's parameters."""
    family = KernelFamily(family)
    n = default_grid(family).astype(np.float64)
    theta = np.asarray(theta, dtype=np.float64).reshape(-1)
    check_theta(family, theta)
    env = np.exp(-0.5 * (n / ENVELOPE_SIGMA) ** 2)
    if family is KernelFamily.STTF:
        (f,) = theta
        # phase grouped as (f*n) so a zero-rate chirplet reproduces this bitwise
        return env * np.exp(2j * np.pi * (f * n))
    if family is KernelFamily.CHIRPLET:
        f, alpha = theta
        return env * np.exp(2j * np.pi * (0.5 * alpha * n**2 + f * n))
    if family in (KernelFamily.MORLET, KernelFamily.LAPLACE):
        (s,) = theta
        return _mother(n / s) / np.sqrt(s)
    if family is KernelFamily.RANDOM:
        K = n.size
        if theta.size != 2 * K:
            raise ValueError("random kernel expects 2*K raw taps")
        return theta[:K] + 1j * theta[K:]
    raise ValueError(f"unknown family {family!r}")


def kernel_param_grad(family: KernelFamily, theta) -> np.ndarray:
    """Analytic d(kernel)/d(theta_p), shape (P, K) complex."""
    family = KernelFamily(family)
    n = default_grid(family).astype(np.float64)
    theta = np.asarray(theta, dtype=np.float64).reshape(-1)
    psi = evaluate_kernel(family, theta)
    if family is KernelFamily.STTF:
        return (2j * np.pi * n * psi)[None, :]
    if family is KernelFamily.CHIRPLET:
        return np.stack([2j * np.pi * n * psi, 1j * np.pi * n**2 * psi])
    if family in (KernelFamily.MORLET, KernelFamily.LAPLACE):
        (s,) = theta
        d = -psi / (2.0 * s) - (n / s**2) * _mother_deriv(n / s) / np.sqrt(s)
        return d[None, :]
    if family is KernelFamily.RANDOM:
        eye = np.eye(n.size)
        return np.concatenate([eye, 1j * eye]).astype(np.complex128)
    raise ValueError(f"unknown family {family!r}")


def evaluate_kernels(params: KernelParams) -> np.ndarray:
    """Kernel bank for all channels, shape (n_channels, K) complex."""
    return np.stack(
        [evaluate_kernel(params.family, params.theta[c]) for c in range(params.n_channels)]
    )


def clamp_params(params: KernelParams) -> KernelParams:
    """Project every control parameter onto its closed box (total, idempotent)."""
    theta = params.theta.copy()
    for j, (_, lo, hi) in enumerate(BOXES.get(params.family, ())):
        theta[:, j] = np.clip(theta[:, j], lo, hi)
    return replace(params, theta=theta)


def init_params(
    family: KernelFamily,
    n_channels: int,
    seed: int = 0,
) -> KernelParams:
    """Per-channel parameters whose focusing frequencies tile the usable band.

    sttf/chirplet channels get center frequencies at the midpoints of
    n_channels equal slices of [0, 0.5]; wavelet channels get scales whose
    center frequencies 0.2/s tile [0.02, 0.5] the same way; random channels
    draw i.i.d. uniform taps in +-sqrt(6/K).
    """
    family = KernelFamily(family)
    if n_channels < 1:
        raise ValueError(f"n_channels must be >= 1, got {n_channels}")
    centers = (np.arange(n_channels) + 0.5) / n_channels
    if family is KernelFamily.STTF:
        theta = (0.5 * centers)[:, None]
    elif family is KernelFamily.CHIRPLET:
        theta = np.stack([0.5 * centers, np.zeros(n_channels)], axis=1)
    elif family in (KernelFamily.MORLET, KernelFamily.LAPLACE):
        freqs = 0.02 + (0.5 - 0.02) * centers
        theta = (MOTHER_FREQ / freqs)[:, None]
    elif family is KernelFamily.RANDOM:
        K = len(default_grid(family))
        bound = np.sqrt(6.0 / K)
        rng = derive_rng(seed, "kernel-init")
        theta = rng.uniform(-bound, bound, size=(n_channels, 2 * K))
    else:
        raise ValueError(f"unknown family {family!r}")
    return KernelParams(family=family, theta=theta)
