"""Binary checkpoint format shared by every training stage.

Layout: magic "VRECCKPT1", a 4-byte little-endian header length, a canonical
UTF-8 JSON header (model config, verifier-bank structure, and one
{name, shape, offset} entry per parameter in sorted name order), then the
parameters' float64 values concatenated little-endian in that order. A
model's parameters are laid out in its value vector in the same order, so
the body of a model checkpoint is the backbone's value vector followed by
the bank's. Canonical JSON plus sorted order makes save -> load -> save
byte-identical. Loading copies each stored parameter into the model's
vector in place.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from .backbone import Backbone, ModelConfig
from .numerics import Tensor
from .verifiers import VerifierBank, make_bank

__all__ = ["MAGIC", "load_checkpoint", "load_model", "save_checkpoint", "save_model"]

MAGIC = b"VRECCKPT1"


def _canonical(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")


def save_checkpoint(path: str | Path, params: dict[str, Tensor | np.ndarray],
                    config: dict | None = None, verifiers: dict | None = None) -> None:
    names = sorted(params)
    entries = []
    offset = 0
    blobs = []
    for name in names:
        data = params[name].data if isinstance(params[name], Tensor) else np.asarray(params[name])
        blob = np.ascontiguousarray(data, dtype="<f8").tobytes()
        entries.append({"name": name, "shape": list(data.shape), "offset": offset})
        blobs.append(blob)
        offset += len(blob)
    header = _canonical({"config": config, "verifiers": verifiers, "params": entries})
    with Path(path).open("wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(header)))
        fh.write(header)
        for blob in blobs:
            fh.write(blob)


def load_checkpoint(path: str | Path) -> tuple[dict[str, np.ndarray], dict | None, dict | None]:
    raw = Path(path).read_bytes()
    if raw[:len(MAGIC)] != MAGIC:
        raise ValueError(f"{path}: not a checkpoint (bad magic)")
    body_start = len(MAGIC) + 4
    if len(raw) < body_start:
        raise ValueError(f"{path}: truncated checkpoint ({len(raw)} bytes, no header length)")
    blob_start = body_start + struct.unpack("<I", raw[len(MAGIC):body_start])[0]
    if len(raw) < blob_start:
        raise ValueError(f"{path}: truncated checkpoint ({len(raw)} bytes, "
                         f"header ends at {blob_start})")
    try:
        header = json.loads(raw[body_start:blob_start].decode("utf-8"))
        counts = [int(np.prod(entry["shape"])) for entry in header["params"]]
        end = blob_start + max((e["offset"] + 8 * n for e, n in zip(header["params"], counts)),
                               default=0)
    except (ValueError, KeyError, TypeError) as e:  # undecodable, malformed or incomplete
        raise ValueError(f"{path}: corrupt checkpoint header ({type(e).__name__}: {e})") from None
    if len(raw) < end:
        raise ValueError(f"{path}: truncated checkpoint ({len(raw)} bytes, "
                         f"parameters end at {end})")
    params: dict[str, np.ndarray] = {}
    for entry, count in zip(header["params"], counts):
        arr = np.frombuffer(raw, dtype="<f8", count=count, offset=blob_start + entry["offset"])
        params[entry["name"]] = arr.reshape(entry["shape"]).astype(np.float64)
    return params, header.get("config"), header.get("verifiers")


def _bank_meta(bank: VerifierBank | None) -> dict | None:
    if bank is None:
        return None
    return {
        "n": bank.n,
        "epsilon": bank.epsilon,
        "uniform_router": bank.uniform_router,
        "dimensions": [
            {"dimension": v.dimension, "d_i": v.d_i,
             "hidden_shapes": [list(w.shape) for w, _ in v.hidden]}
            for v in bank.verifiers
        ],
    }


def save_model(path: str | Path, backbone: Backbone, bank: VerifierBank | None = None) -> None:
    params: dict[str, Tensor] = {f"backbone.{k}": v for k, v in backbone.params().items()}
    if bank is not None:
        params.update({f"bank.{k}": v for k, v in bank.params().items()})
    cfg = backbone.cfg
    config = {"d_m": cfg.d_m, "layers": cfg.layers, "heads": cfg.heads,
              "n_items": cfg.n_items, "max_positions": cfg.max_positions,
              "m": cfg.m, "seed": cfg.seed}
    save_checkpoint(path, params, config=config, verifiers=_bank_meta(bank))


def _fill(path: str | Path, stored: dict[str, np.ndarray], prefix: str,
          params: dict[str, Tensor]) -> None:
    """Copy ``stored[prefix + name]`` into each model parameter's values in
    place, checking its shape; the stored entries are consumed."""
    for name, tensor in params.items():
        key = prefix + name
        data = stored.pop(key, None)
        if data is None:
            raise ValueError(f"{path}: parameter {key} missing")
        if data.shape != tensor.shape:
            raise ValueError(f"{path}: parameter {key} has shape {data.shape}, "
                             f"expected {tensor.shape}")
        tensor.data[...] = data


def load_model(path: str | Path) -> tuple[Backbone, VerifierBank | None]:
    """The backbone and bank a checkpoint's header describes, with its values.

    Raises ``ValueError`` naming the path and the parameter when a stored
    parameter is missing, unexpected or of another shape than the model's.
    """
    params, config, verifiers = load_checkpoint(path)
    if config is None:
        raise ValueError(f"{path}: checkpoint has no model config")
    backbone = Backbone(ModelConfig(**config))
    _fill(path, params, "backbone.", backbone.params())

    bank = None
    if verifiers is not None:
        dims = [(d["dimension"], d["d_i"]) for d in verifiers["dimensions"]]
        shapes = verifiers["dimensions"][0]["hidden_shapes"]
        depth = len(shapes) + 1
        width = shapes[0][1] if shapes else 0
        bank = make_bank(dims, d_m=backbone.cfg.d_m, hidden_width=width, hidden_depth=depth)
        bank.epsilon = verifiers.get("epsilon", bank.epsilon)
        bank.uniform_router = verifiers.get("uniform_router", False)
        _fill(path, params, "bank.", bank.params())
    if params:
        raise ValueError(f"{path}: unexpected parameter {min(params)} "
                         f"for the model its header describes")
    return backbone, bank
