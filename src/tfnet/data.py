"""Synthetic fault-signal generation and dataset handling.

The synthetic generator produces labeled one-channel signals from a small
vocabulary of components (steady tones, amplitude-modulated tones, damped
impulse trains) plus Gaussian noise.  Each class recipe places its
discriminative energy inside declared information bands, which downstream
interpretability checks score against.  Each component class gives the one
frequency the bands must hold (``freq``) and draws its sample from the
sample's random stream (``render``).

In memory a dataset is a (count, length) float64 signal matrix, one row
per sample, with its labels and manifest.  On disk it is a directory that
holds one signed file, ``dataset.tfd`` (a format-1 directory of
``meta.json``, ``samples.f64le`` and ``labels.u32le`` does not load).

A signed file, a dataset or a model checkpoint, is a 4-byte magic (the one
version marker), the sha256 of everything after it, a u32 header length,
a JSON header and a payload, all little-endian.  A dataset's magic is
``TFD2``, its header the manifest plus ``count`` and ``length``, and its
payload the signal matrix as ``<f8``, then the labels as ``<u4``.
"""

import hashlib
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from tfnet.seeding import derive_rng


@dataclass(frozen=True)
class Tone:
    """Constant-amplitude sinusoid with per-sample random phase."""

    freq: float
    amplitude: float = 1.0

    def render(self, n, rng):
        phase = rng.uniform(0.0, 2.0 * np.pi)
        return self.amplitude * np.sin(2.0 * np.pi * self.freq * n + phase)


@dataclass(frozen=True)
class AMTone:
    """Sinusoidal carrier with slow sinusoidal amplitude modulation."""

    carrier: float
    mod_freq: float
    amplitude: float = 1.0
    depth: float = 0.5

    @property
    def freq(self):
        return self.carrier

    def render(self, n, rng):
        phase_c = rng.uniform(0.0, 2.0 * np.pi)
        phase_m = rng.uniform(0.0, 2.0 * np.pi)
        envelope = 1.0 + self.depth * np.sin(2.0 * np.pi * self.mod_freq * n + phase_m)
        return self.amplitude * envelope * np.sin(2.0 * np.pi * self.carrier * n + phase_c)


@dataclass(frozen=True)
class ImpulseTrain:
    """Periodic impulses convolved with a damped cosine resonance.

    Each sample draws a random integer start offset in [0, period), the
    train's initial phase.
    """

    period: int
    resonance: float
    damping: float
    amplitude: float = 3.0

    @property
    def freq(self):
        return self.resonance

    def render(self, n, rng):
        offset = int(rng.integers(0, self.period))
        comb = np.zeros(n.size)
        comb[offset :: self.period] = self.amplitude
        resonance = np.exp(-self.damping * n) * np.cos(2.0 * np.pi * self.resonance * n)
        return np.convolve(comb, resonance)[: n.size]


def check_band(band) -> tuple[float, float]:
    """``band`` as a float pair; ``ValueError`` unless 0 <= lo < hi <= 0.5."""
    lo, hi = (float(v) for v in band)
    if not (0.0 <= lo < hi <= 0.5):
        raise ValueError(f"band [{lo}, {hi}] is not a subinterval of [0, 0.5]")
    return lo, hi


@dataclass(frozen=True)
class ClassSpec:
    name: str
    components: tuple = ()


@dataclass(frozen=True)
class SynthSpec:
    """Recipe for a labeled synthetic dataset.

    Invariants: every component frequency lies in (0, 0.5); information
    bands are disjoint subintervals of [0, 0.5]; every tone/carrier/
    resonance frequency falls inside some declared band.
    """

    classes: tuple[ClassSpec, ...]
    information_bands: tuple[tuple[float, float], ...]
    samples_per_class: int = 200
    sample_length: int = 1024
    noise_sigma: float = 1.0
    name: str = "custom"

    def __post_init__(self):
        if len(self.classes) == 0:
            raise ValueError("spec needs at least one class")
        if self.samples_per_class < 1:
            raise ValueError("samples_per_class must be >= 1")
        if self.sample_length < 16:
            raise ValueError("sample_length must be >= 16")
        if not 0 <= self.noise_sigma < np.inf:
            raise ValueError(f"noise_sigma must be finite and >= 0, got {self.noise_sigma}")
        bands = [check_band(b) for b in self.information_bands]
        for (lo1, hi1), (lo2, hi2) in zip(sorted(bands), sorted(bands)[1:]):
            if lo2 < hi1:
                raise ValueError("information bands must be disjoint")
        for cls in self.classes:
            for comp in cls.components:
                f = comp.freq
                if not (0.0 < f < 0.5):
                    raise ValueError(f"class {cls.name!r}: frequency {f} outside (0, 0.5)")
                if bands and not any(lo <= f <= hi for lo, hi in bands):
                    raise ValueError(
                        f"class {cls.name!r}: frequency {f} lies in no information band"
                    )
                if isinstance(comp, ImpulseTrain):
                    if comp.period < 2 or comp.period >= self.sample_length:
                        raise ValueError(
                            f"class {cls.name!r}: impulse period {comp.period} out of range"
                        )

    @property
    def n_classes(self) -> int:
        return len(self.classes)

    @property
    def class_names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.classes)


def synthbearing5(samples_per_class: int = 200) -> SynthSpec:
    """Default five-class bearing-like spec ("SynthBearing-5").

    Classes: a weak steady tone (healthy baseline), an amplitude-modulated
    tone, two damped impulse trains with distinct resonances, and a compound
    class carrying both resonances plus the tone.
    """
    return SynthSpec(
        classes=(
            ClassSpec("normal", (Tone(0.05, 0.5),)),
            ClassSpec("modulated", (AMTone(0.08, 0.004, 1.0),)),
            ClassSpec("impulse-fast", (ImpulseTrain(64, 0.18, 0.02, amplitude=4.5),)),
            ClassSpec("impulse-slow", (ImpulseTrain(100, 0.30, 0.02, amplitude=4.5),)),
            ClassSpec(
                "compound",
                (
                    ImpulseTrain(64, 0.18, 0.02, amplitude=1.2),
                    ImpulseTrain(100, 0.30, 0.02, amplitude=4.5),
                    Tone(0.08, 0.1),
                ),
            ),
        ),
        information_bands=((0.04, 0.06), (0.07, 0.09), (0.16, 0.20), (0.28, 0.32)),
        samples_per_class=samples_per_class,
        noise_sigma=1.0,
        name="SynthBearing-5",
    )


class NonFiniteSignalError(ValueError):
    """A signal holds a NaN or an infinity: the data's fault, not the file's or the program's."""


def _check_finite(signals: np.ndarray, source) -> None:
    """Raise ``NonFiniteSignalError`` naming ``source`` and the first sample that is not finite."""
    bad = np.flatnonzero(~np.isfinite(signals).all(axis=1))
    if bad.size:
        raise NonFiniteSignalError(f"{source}: sample {bad[0]} holds a non-finite value")


@dataclass
class Dataset:
    """Labeled (count, length) float64 signal matrix with a manifest dict."""

    signals: np.ndarray
    labels: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.signals = np.asarray(self.signals, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.signals.ndim != 2:
            raise ValueError(f"signals must be (count, length), got shape {self.signals.shape}")
        if self.labels.shape != (self.signals.shape[0],):
            raise ValueError("labels length does not match sample count")

    @property
    def n_samples(self) -> int:
        return self.signals.shape[0]

    @property
    def length(self) -> int:
        return self.signals.shape[1]

    @property
    def n_classes(self) -> int:
        names = self.meta.get("class_names")
        if names:
            return len(names)
        return int(self.labels.max()) + 1 if self.labels.size else 0


def synth_generate(spec: SynthSpec, seed: int = 0) -> Dataset:
    """Generate the labeled dataset described by ``spec``.

    Deterministic in (spec, seed): sample (c, i) draws from its own
    derived stream, so per-class counts can change without reshuffling
    other samples.
    """
    L = spec.sample_length
    n = np.arange(L, dtype=np.float64)
    count = spec.n_classes * spec.samples_per_class
    signals = np.empty((count, L), dtype=np.float64)
    labels = np.empty(count, dtype=np.int64)
    row = 0
    for c, cls in enumerate(spec.classes):
        for i in range(spec.samples_per_class):
            rng = derive_rng(seed, "synth", c, i)
            x = np.zeros(L)
            for comp in cls.components:
                x += comp.render(n, rng)
            if spec.noise_sigma > 0:
                x += rng.normal(0.0, spec.noise_sigma, L)
            signals[row] = x
            labels[row] = c
            row += 1
    meta = {
        "name": spec.name,
        "class_names": list(spec.class_names),
        "sample_rate": 1.0,
        "information_bands": [list(b) for b in spec.information_bands],
        "seed": seed,
        "spec": _spec_manifest(spec),
    }
    _check_finite(signals, f"{spec.name} seed {seed}")
    return Dataset(signals, labels, meta)


def _spec_manifest(spec: SynthSpec) -> dict:
    # the JSON round trip turns tuples into the lists that load_dataset reads back
    manifest = json.loads(json.dumps(asdict(spec)))
    for cls, entry in zip(spec.classes, manifest["classes"]):
        for comp, comp_entry in zip(cls.components, entry["components"]):
            comp_entry["type"] = type(comp).__name__
    return manifest


def check_labels(labels, n_classes):
    """Raise ``ValueError`` unless every label lies in [0, n_classes)."""
    labels = np.asarray(labels)
    if np.any(labels < 0) or np.any(labels >= n_classes):
        raise ValueError(
            f"labels must lie in [0, {n_classes}), got {labels.min()}..{labels.max()}")


def split(dataset: Dataset, train_frac: float = 0.6, seed: int = 0):
    """Stratified train/test split; rounds per-class train counts to nearest.

    Every class keeps at least one sample on each side, so classes with
    fewer than two samples are rejected, as is a label outside the classes.
    """
    if not 0.0 < train_frac < 1.0:
        raise ValueError("train_frac must lie strictly between 0 and 1")
    labels = dataset.labels
    check_labels(labels, dataset.n_classes)
    train_idx = []
    test_idx = []
    for c in range(dataset.n_classes):
        idx = np.flatnonzero(labels == c)
        if idx.size < 2:
            raise ValueError(f"class {c} has {idx.size} samples; need >= 2 to split")
        perm = idx[derive_rng(seed, "split", c).permutation(idx.size)]
        n_train = int(np.floor(train_frac * idx.size + 0.5))
        n_train = min(max(n_train, 1), idx.size - 1)
        train_idx.append(perm[:n_train])
        test_idx.append(perm[n_train:])
    train_idx = np.concatenate(train_idx)
    test_idx = np.concatenate(test_idx)

    def _subset(indices, role):
        meta = dict(dataset.meta)
        meta["split_role"] = role
        meta["split_seed"] = seed
        return Dataset(dataset.signals[indices].copy(), labels[indices].copy(), meta)

    return _subset(train_idx, "train"), _subset(test_idx, "test")


DATASET_FILE = "dataset.tfd"
DATASET_MAGIC = b"TFD2"


def write_signed(path, magic: bytes, header: dict, payload_chunks) -> None:
    text = json.dumps(header, sort_keys=True).encode()
    body = b"".join([len(text).to_bytes(4, "little"), text, *payload_chunks])
    Path(path).write_bytes(magic + hashlib.sha256(body).digest() + body)


def read_signed(path, magic: bytes, what: str) -> tuple[dict, memoryview]:
    """(header, payload view) of a signed file; errors name the file and call it ``what``."""
    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(f"{what} {p} not found")
    # the file is read whole; slices of the view copy nothing
    raw = memoryview(p.read_bytes())
    found, digest, body = bytes(raw[:4]), raw[4:36], raw[36:]
    if found != magic:
        # the magic's last character is the format version
        raise ValueError(f"{p}: bad magic {found!r}, expected {magic!r}: "
                         f"not a {what} of format version {magic[3:].decode()}")
    if hashlib.sha256(body).digest() != digest:
        raise ValueError(f"{p}: checksum mismatch: the {what} is corrupt or truncated")
    hlen = int.from_bytes(body[:4], "little")
    try:
        header = json.loads(bytes(body[4 : 4 + hlen]))
    except ValueError as exc:  # bad JSON, or bytes that are not UTF-8
        raise ValueError(f"{p}: invalid JSON {what} header: {exc}") from exc
    if type(header) is not dict:
        raise ValueError(f"{p}: {what} header is not a JSON object")
    return header, body[4 + hlen :]


def save_dataset(dataset: Dataset, directory) -> None:
    d = Path(directory)
    d.mkdir(parents=True, exist_ok=True)
    header = {**dataset.meta, "count": dataset.n_samples, "length": dataset.length}
    write_signed(d / DATASET_FILE, DATASET_MAGIC, header,
                 [np.ascontiguousarray(dataset.signals, dtype="<f8").tobytes(),
                  dataset.labels.astype("<u4").tobytes()])


def load_dataset(directory) -> Dataset:
    p = Path(directory) / DATASET_FILE
    meta, payload = read_signed(p, DATASET_MAGIC, "dataset")
    try:
        count, length = int(meta.pop("count")), int(meta.pop("length"))
        if count < 0 or length < 0:
            raise ValueError(f"count {count} and length {length} must be non-negative")
        names, bands = meta.get("class_names", []), meta.get("information_bands", [])
        if not (isinstance(names, list) and all(isinstance(name, str) for name in names)):
            raise ValueError(f"class_names {names!r} is not a list of strings")
        try:
            for band in bands if isinstance(bands, list) else [bands]:
                check_band(band)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"information_bands {bands!r}: {exc}") from None
    except KeyError as exc:
        raise ValueError(f"{p}: dataset header has no {exc.args[0]!r} entry") from None
    except (OverflowError, TypeError, ValueError) as exc:  # int(inf) overflows
        raise ValueError(f"{p}: invalid dataset header: {exc}") from None
    n_signal = 8 * count * length
    need = n_signal + 4 * count
    if len(payload) != need:
        raise ValueError(f"{p}: payload holds {len(payload)} bytes, {count}x{length} float64 "
                         f"signals and {count} u32 labels need {need}")
    # astype copies, so the arrays are writable and outlive the file's bytes
    signals = np.frombuffer(payload[:n_signal], dtype="<f8").astype(np.float64)
    labels = np.frombuffer(payload[n_signal:], dtype="<u4").astype(np.int64)
    signals = signals.reshape(count, length)
    _check_finite(signals, p)
    return Dataset(signals, labels, meta)
