"""Model checkpoints and training-history files.

Checkpoint layout: magic ``TFN1``, a little-endian u32 JSON header length,
the JSON header (assembly recipe: mode, backbone, class count, kernel
config, dtype), then named shape-tagged parameter blocks as little-endian
float64.  Batch norm running statistics are stored alongside learnable
parameters so a loaded model evaluates identically.
"""

import json
import struct
from pathlib import Path

import numpy as np

from tfnet.kernels import KernelFamily, check_theta, default_grid, param_names
from tfnet.nn import BatchNorm1d, Model, TFconvLayer, assemble_model
from tfnet.training import TrainHistory

MAGIC = b"TFN1"
FORMAT_VERSION = 1


def _named_blocks(model: Model):
    """(name, array) pairs covering parameters and BN running stats."""
    for layer in model.walk_layers():
        if isinstance(layer, TFconvLayer):
            yield f"{layer.name}.theta", layer.theta
        elif isinstance(layer, BatchNorm1d):
            yield f"{layer.name}.gamma", layer.gamma
            yield f"{layer.name}.beta", layer.beta
            yield f"{layer.name}.running_mean", layer.running_mean
            yield f"{layer.name}.running_var", layer.running_var
        elif layer.params:
            labels = ("weight", "bias")
            for label, arr in zip(labels, layer.params):
                yield f"{layer.name}.{label}", arr


def save_model(model: Model, path) -> None:
    header = {
        "version": FORMAT_VERSION,
        "mode": model.mode,
        "backbone": model.backbone,
        "n_classes": model.n_classes,
        "dtype": model.dtype.name,
        "tfconv": model.tfconv_config,
    }
    blocks = list(_named_blocks(model))
    header["blocks"] = [name for name, _ in blocks]
    payload = json.dumps(header, sort_keys=True).encode()
    with Path(path).open("wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(payload)))
        fh.write(payload)
        for name, arr in blocks:
            nb = name.encode()
            fh.write(struct.pack("<H", len(nb)))
            fh.write(nb)
            fh.write(struct.pack("<B", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def _read_exact(fh, n, path, what):
    raw = fh.read(n)
    if len(raw) != n:
        raise ValueError(f"{path}: truncated checkpoint while reading {what}")
    return raw


def load_model(path) -> Model:
    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(f"checkpoint {p} not found")
    with p.open("rb") as fh:
        if fh.read(4) != MAGIC:
            raise ValueError(f"{p}: not a model checkpoint (bad magic)")
        (hlen,) = struct.unpack("<I", _read_exact(fh, 4, p, "header length"))
        raw_header = _read_exact(fh, hlen, p, "header")
        try:
            header = json.loads(raw_header)
        except ValueError as exc:  # bad JSON, or bytes that are not UTF-8
            raise ValueError(f"{p}: invalid JSON checkpoint header: {exc}") from exc
        if not isinstance(header, dict):
            raise ValueError(f"{p}: checkpoint header is not a JSON object")
        if header.get("version") != FORMAT_VERSION:
            raise ValueError(f"{p}: unsupported checkpoint version {header.get('version')}")
        try:
            model = _rebuild(header)
            block_names = header["blocks"]
            if not isinstance(block_names, list):
                raise TypeError(f"'blocks' must be a list, got {type(block_names).__name__}")
        except KeyError as exc:
            raise ValueError(f"{p}: checkpoint header has no {exc.args[0]!r} entry") from None
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{p}: invalid checkpoint header: {exc}") from None
        expected = dict(_named_blocks(model))
        seen = []
        for _ in block_names:
            (nlen,) = struct.unpack("<H", _read_exact(fh, 2, p, "block name length"))
            name = _read_exact(fh, nlen, p, "block name").decode()
            (ndim,) = struct.unpack("<B", _read_exact(fh, 1, p, "block rank"))
            shape = struct.unpack(f"<{ndim}I", _read_exact(fh, 4 * ndim, p, "block shape"))
            count = int(np.prod(shape)) if ndim else 1
            raw = _read_exact(fh, count * 8, p, f"block {name}")
            if name not in expected:
                raise ValueError(f"{p}: unexpected parameter block {name!r}")
            target = expected[name]
            if tuple(shape) != target.shape:
                raise ValueError(
                    f"{p}: block {name!r} has shape {tuple(shape)}, model expects {target.shape}"
                )
            values = np.frombuffer(raw, dtype="<f8").reshape(shape)
            target[...] = values.astype(target.dtype)
            seen.append(name)
        missing = set(expected) - set(seen)
        if missing:
            raise ValueError(f"{p}: missing parameter blocks {sorted(missing)}")
        if fh.read(1):
            raise ValueError(f"{p}: trailing bytes after final block")
    if model.tfconv is not None:
        try:
            check_theta(model.tfconv.family, model.tfconv.theta)
        except ValueError as exc:
            raise ValueError(f"{p}: {exc}") from None
    return model


def _rebuild(header: dict) -> Model:
    """The model the header describes; its ``tfconv`` entry must be the one that model writes."""
    dtype = np.dtype(header.get("dtype", "float64"))
    if dtype not in (np.float32, np.float64):
        raise ValueError(f"dtype must be float32 or float64, got {dtype.name}")
    tf = header.get("tfconv")
    front = {} if tf is None else {"family": tf["family"], "n_channels": int(tf["n_channels"])}
    model = assemble_model(header["mode"], backbone=header["backbone"],
                           n_classes=int(header["n_classes"]), dtype=dtype, **front)
    if tf != model.tfconv_config:
        raise ValueError(f"'tfconv' entry {tf} does not match mode {model.mode!r}, "
                         f"which writes {model.tfconv_config}")
    return model


def write_history_csv(path, history: TrainHistory) -> None:
    """CSV with one row per epoch: epoch, train_loss, train_acc, test_acc."""
    with Path(path).open("w") as fh:
        fh.write("epoch,train_loss,train_acc,test_acc\n")
        rows = zip(history.train_loss, history.train_acc, history.test_acc)
        for epoch, (loss, tr, te) in enumerate(rows, start=1):
            fh.write(f"{epoch},{repr(loss)},{repr(tr)},{repr(te)}\n")


def write_theta_trajectory_csv(path, history: TrainHistory, family) -> None:
    """Kernel control parameters per epoch (epoch 0 is the initial state)."""
    family = KernelFamily(family)
    if not history.theta_snapshots:
        raise ValueError("history carries no kernel parameter snapshots")
    C, P = history.theta_snapshots[0].shape
    names = param_names(family)
    if len(names) != P:
        raise ValueError(f"{P} parameters but {len(names)} names for family {family.value}")
    with Path(path).open("w") as fh:
        fh.write("epoch,channel,param,value\n")
        for epoch, theta in enumerate(history.theta_snapshots):
            for c in range(C):
                for j, name in enumerate(names):
                    fh.write(f"{epoch},{c},{name},{repr(float(theta[c, j]))}\n")


def write_kernel_taps_csv(path, layer: TFconvLayer) -> None:
    """Complex kernel taps: channel, index, real, imag."""
    kernels = layer.kernels()
    grid = default_grid(layer.family)
    with Path(path).open("w") as fh:
        fh.write("channel,n,real,imag\n")
        for c in range(kernels.shape[0]):
            for n, v in zip(grid, kernels[c]):
                fh.write(f"{c},{int(n)},{repr(float(v.real))},{repr(float(v.imag))}\n")
