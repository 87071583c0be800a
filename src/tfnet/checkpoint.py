"""Model checkpoints: one file holds a model's recipe and every array it keeps.

A checkpoint is a signed file (``tfnet.data.write_signed``) with the magic
``TFN2``.  Its header is the assembly recipe (mode, backbone, class count,
kernel config, dtype, block names); its payload is every array that a
layer's ``state`` names, as little-endian float64 values back to back.  A
block is named ``<layer.name>.<attribute>`` (such as
``4.batchnorm1d.running_var``), and the model the header rebuilds fixes its
shape.  Batch norm running statistics are stored alongside learnable
parameters so a loaded model evaluates identically.  This module alone
builds the header's ``tfconv`` entry, to write it and to check it on load.

A ``TFN1`` file (format version 1, with per-block framing) does not load,
nor a paper-cnn or resnet-1d file saved while their convs had a bias.
After the checks every signed file gets (magic, digest, header JSON), the
loader checks the header's class and channel counts against the payload's
value count (each class and each channel adds at least one value, so no
count builds a model larger than its file), the header against the model
it rebuilds and the payload's length against that model's arrays; a
malformed file raises ``ValueError`` naming the file.
"""

from pathlib import Path

import numpy as np

from tfnet.data import read_signed, write_signed
from tfnet.kernels import check_theta, default_grid
from tfnet.nn import EPS_MODULUS, Model, assemble_model

MAGIC = b"TFN2"


def _named_blocks(model: Model):
    """(``<layer.name>.<attribute>``, array) for every array a layer's ``state`` names."""
    for layer in model.walk_layers():
        for attr, _grad in layer.state:
            yield f"{layer.name}.{attr}", getattr(layer, attr)


def _tfconv_entry(model: Model) -> dict | None:
    """The header's ``tfconv`` entry: the front layer's kernel configuration, or ``None``."""
    front = model.tfconv
    if front is None:
        return None
    return {
        "family": front.family.value,
        "n_channels": front.theta.shape[0],
        "kernel_length": len(default_grid(front.family)),
        "eps_modulus": EPS_MODULUS,
        "modulus": front.modulus,
    }


def save_model(model: Model, path) -> None:
    blocks = list(_named_blocks(model))
    header = {
        "mode": model.mode,
        "backbone": model.backbone,
        "n_classes": model.n_classes,
        "dtype": model.dtype.name,
        "tfconv": _tfconv_entry(model),
        "blocks": [name for name, _ in blocks],
    }
    write_signed(path, MAGIC, header,
                 (np.ascontiguousarray(arr, dtype="<f8").tobytes() for _, arr in blocks))


def load_model(path) -> Model:
    p = Path(path)
    header, values = read_signed(p, MAGIC, "checkpoint")
    try:
        model = _rebuild(header, len(values) // 8)
        blocks = dict(_named_blocks(model))
        if header["blocks"] != list(blocks):
            raise ValueError(f"'blocks' entry {header['blocks']!r} does not match "
                             f"the rebuilt model's {list(blocks)}")
    except KeyError as exc:
        raise ValueError(f"{p}: checkpoint header has no {exc.args[0]!r} entry") from None
    except (OverflowError, TypeError, ValueError) as exc:  # int(inf) overflows
        raise ValueError(f"{p}: invalid checkpoint header: {exc}") from None
    need = 8 * sum(target.size for target in blocks.values())
    if len(values) != need:
        raise ValueError(f"{p}: parameter payload holds {len(values)} bytes, "
                         f"the model needs {need}")
    values = np.frombuffer(values, dtype="<f8")
    for name, target in blocks.items():
        try:
            with np.errstate(over="raise"):
                target[...] = values[: target.size].reshape(target.shape)
        except FloatingPointError:
            raise ValueError(
                f"{p}: block {name!r} holds values beyond {target.dtype} range") from None
        values = values[target.size :]
    if model.tfconv is not None:
        try:
            check_theta(model.tfconv.family, model.tfconv.theta)
        except ValueError as exc:
            raise ValueError(f"{p}: {exc}") from None
    return model


def _rebuild(header: dict, n_values: int) -> Model:
    """The model the header describes; its ``tfconv`` entry must be the one that model writes.

    A class or channel count above ``n_values``, the payload's value count,
    is refused before any array is built.
    """
    if header["dtype"] not in ("float32", "float64"):  # no aliases, and no null for float64
        raise ValueError(f"dtype must be float32 or float64, got {header['dtype']}")
    tf = header["tfconv"]
    front = {} if tf is None else {"family": tf["family"], "n_channels": int(tf["n_channels"])}
    n_classes = int(header["n_classes"])
    for key, count in (("n_classes", n_classes), ("n_channels", front.get("n_channels", 0))):
        if count > n_values:
            raise ValueError(f"{key!r} {count} exceeds the payload's {n_values} values")
    model = assemble_model(header["mode"], backbone=header["backbone"],
                           n_classes=n_classes, dtype=np.dtype(header["dtype"]), **front)
    if tf != _tfconv_entry(model):
        raise ValueError(f"'tfconv' entry {tf} does not match mode {model.mode!r}, "
                         f"which writes {_tfconv_entry(model)}")
    return model

