"""Model checkpoints: one file holds a model's recipe and every array it keeps.

Checkpoint layout: the magic ``TFN2``, the 32-byte sha256 digest of
everything after it, a little-endian u32 JSON header length, the JSON
header (assembly recipe: mode, backbone, class count, kernel config, dtype,
block names), then every array that a layer's ``state`` names, as
little-endian float64 values back to back.  A block is named
``<layer.name>.<attribute>`` (such as ``4.batchnorm1d.running_var``), and
the model the header rebuilds fixes its shape.  Batch norm running
statistics are stored alongside learnable parameters so a loaded model
evaluates identically.

The magic is the format's one version marker: a ``TFN1`` file (format
version 1, with per-block framing) does not load.  The loader checks the
magic, then the digest, then the header against the model it rebuilds and
the payload's length against that model's arrays; a malformed file raises
``ValueError`` naming the file.
"""

import hashlib
import json
import struct
from pathlib import Path

import numpy as np

from tfnet.kernels import check_theta
from tfnet.nn import Model, assemble_model

MAGIC = b"TFN2"


def _named_blocks(model: Model):
    """(``<layer.name>.<attribute>``, array) for every array a layer's ``state`` names."""
    for layer in model.walk_layers():
        for attr, _grad in layer.state:
            yield f"{layer.name}.{attr}", getattr(layer, attr)


def save_model(model: Model, path) -> None:
    blocks = list(_named_blocks(model))
    header = {
        "mode": model.mode,
        "backbone": model.backbone,
        "n_classes": model.n_classes,
        "dtype": model.dtype.name,
        "tfconv": model.tfconv_config,
        "blocks": [name for name, _ in blocks],
    }
    payload = json.dumps(header, sort_keys=True).encode()
    body = b"".join([struct.pack("<I", len(payload)), payload,
                     *(np.ascontiguousarray(arr, dtype="<f8").tobytes() for _, arr in blocks)])
    Path(path).write_bytes(MAGIC + hashlib.sha256(body).digest() + body)


def load_model(path) -> Model:
    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(f"checkpoint {p} not found")
    # a checkpoint is a few MiB at most; slices of the view copy nothing
    raw = memoryview(p.read_bytes())
    magic, digest, body = bytes(raw[:4]), raw[4:36], raw[36:]
    if magic != MAGIC:
        raise ValueError(f"{p}: bad magic {magic!r}, expected {MAGIC!r}: "
                         "not a checkpoint of format version 2")
    if hashlib.sha256(body).digest() != digest:
        raise ValueError(f"{p}: checksum mismatch: the checkpoint is corrupt or truncated")
    hlen = int.from_bytes(body[:4], "little")
    try:
        header = json.loads(bytes(body[4 : 4 + hlen]))
    except ValueError as exc:  # bad JSON, or bytes that are not UTF-8
        raise ValueError(f"{p}: invalid JSON checkpoint header: {exc}") from exc
    if type(header) is not dict:
        raise ValueError(f"{p}: checkpoint header is not a JSON object")
    try:
        model = _rebuild(header)
        blocks = dict(_named_blocks(model))
        if header["blocks"] != list(blocks):
            raise ValueError(f"'blocks' entry {header['blocks']!r} does not match "
                             f"the rebuilt model's {list(blocks)}")
    except KeyError as exc:
        raise ValueError(f"{p}: checkpoint header has no {exc.args[0]!r} entry") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{p}: invalid checkpoint header: {exc}") from None
    values = body[4 + hlen :]
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

