"""Binary checkpoint format shared by every training stage.

Layout: magic "VRECCKPT1", a 4-byte little-endian header length, a canonical
UTF-8 JSON header (model config, verifier-bank structure with one entry per
verifier, and the models' ``numerics.parameter_layout`` as {name, shape,
offset} entries, offsets in body bytes, a bank's entries being its stacks),
then the body: the backbone's value vector and the bank's, float64
little-endian. Save -> load -> save is byte-identical, and loading refuses a
header other than the one saving the models it describes writes.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from .backbone import Backbone, ModelConfig
from .numerics import parameter_layout
from .verifiers import EPSILON, VerifierBank

__all__ = ["MAGIC", "load_model", "save_model"]

MAGIC = b"VRECCKPT1"


def _canonical(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")


def _bank_meta(bank: VerifierBank | None) -> dict | None:
    return None if bank is None else {
        "n": bank.n, "epsilon": EPSILON, "uniform_router": bool(bank.uniform_router),
        "dimensions": [{"dimension": name, "d_i": d_i,
                        "hidden_shapes": [list(w.shape[1:]) for w, _ in bank.trunk]}
                       for name, d_i in bank.dimensions]}


def _header(backbone: Backbone, bank: VerifierBank | None) -> tuple[dict, list]:
    """The header ``save_model`` writes for these models, and the models in
    body order. Raises ``ValueError`` naming a parameter whose ``.data`` is
    not a view of its model's value vector, which would be saved stale."""
    models = [backbone] if bank is None else [backbone, bank]
    entries, base = [], 0
    for prefix, model in zip(("backbone.", "bank."), models):
        for name, t, start in parameter_layout(model.params()):
            if t.data.base is not model.values:
                raise ValueError(f"parameter {prefix}{name} is detached from its model's values")
            entries.append({"name": prefix + name, "shape": t.shape, "offset": base + 8 * start})
        base += 8 * model.values.size
    return {"config": dict(vars(backbone.cfg)), "verifiers": _bank_meta(bank),
            "params": entries}, models


def save_model(path: str | Path, backbone: Backbone, bank: VerifierBank | None = None) -> None:
    """Write the header, then each model's value vector."""
    header, models = _header(backbone, bank)
    text = _canonical(header)
    with Path(path).open("wb") as fh:
        fh.write(MAGIC + struct.pack("<I", len(text)) + text)
        for model in models:
            fh.write(model.values.astype("<f8", copy=False).tobytes())


def _build(path: str | Path, config, verifiers) -> tuple[Backbone, VerifierBank | None]:
    """The models a header's ``config`` and ``verifiers`` describe."""
    try:
        backbone = Backbone(ModelConfig(**config))
        if verifiers is None:
            return backbone, None
        shapes = verifiers["dimensions"][0]["hidden_shapes"]
        bank = VerifierBank([(d["dimension"], d["d_i"]) for d in verifiers["dimensions"]],
                            d_m=backbone.cfg.d_m, hidden_width=shapes[0][1] if shapes else 0,
                            hidden_depth=len(shapes) + 1)
        bank.uniform_router = verifiers["uniform_router"]
        return backbone, bank
    except (LookupError, TypeError, ValueError) as e:
        raise ValueError(f"{path}: header config and verifiers describe no model "
                         f"({type(e).__name__}: {e})") from None


def _difference(stored: dict, table: list[tuple], expected: dict) -> str:
    """The first way a stored header, with its parameter table as (name,
    shape, offset) rows, differs from the header of the models it describes:
    its sections, then a parameter name missing or unexpected (a file of
    another layout), then a shape or offset."""
    for section in ("config", "verifiers"):
        if _canonical(stored.get(section)) != _canonical(expected[section]):
            return f"header {section} {stored.get(section)} is not the model's {expected[section]}"
    names = [name for name, _, _ in table]
    wanted = [want["name"] for want in expected["params"]]
    for name in wanted:
        if name not in names:
            return f"parameter {name} missing"
    for name in names:
        if name not in wanted:
            return f"unexpected parameter {name} for the model its header describes"
    for want in expected["params"]:
        got = next((shape, offset) for name, shape, offset in table if name == want["name"])
        for field, value in zip(("shape", "offset"), got):
            if value != want[field]:
                return f"parameter {want['name']} has {field} {value}, expected {want[field]}"
    return "header is not the one saving its models writes (a parameter repeated or out of " \
        "body order, or JSON in another form)"


def load_model(path: str | Path) -> tuple[Backbone, VerifierBank | None]:
    """The backbone and bank a checkpoint's header describes, with its values.
    Raises ``ValueError`` naming the path and what differs when the header
    is not the one ``save_model`` writes for them or the body is not
    exactly their value vectors."""
    raw = Path(path).read_bytes()
    if raw[:len(MAGIC)] != MAGIC:
        raise ValueError(f"{path}: not a checkpoint (bad magic)")
    header_start = len(MAGIC) + 4
    if len(raw) < header_start:
        raise ValueError(f"{path}: truncated checkpoint ({len(raw)} bytes, no header length)")
    at = header_start + struct.unpack("<I", raw[len(MAGIC):header_start])[0]
    if len(raw) < at:
        raise ValueError(f"{path}: truncated checkpoint ({len(raw)} bytes, header ends at {at})")
    try:
        stored = json.loads(raw[header_start:at].decode("utf-8"))
        table = [(e["name"], tuple(e["shape"]), e["offset"]) for e in stored["params"]]
    except (ValueError, KeyError, TypeError) as e:  # undecodable, malformed or incomplete
        raise ValueError(f"{path}: corrupt checkpoint header ({type(e).__name__}: {e})") from None
    backbone, bank = _build(path, stored.get("config"), stored.get("verifiers"))
    expected, models = _header(backbone, bank)
    if raw[header_start:at] != _canonical(expected):
        raise ValueError(f"{path}: {_difference(stored, table, expected)}")
    end = at + sum(8 * model.values.size for model in models)
    if len(raw) != end:
        raise ValueError(f"{path}: {'truncated checkpoint' if len(raw) < end else 'trailing bytes'}"
                         f" ({len(raw)} bytes, parameters end at {end})")
    for model in models:
        model.values[:] = np.frombuffer(raw, dtype="<f8", count=model.values.size, offset=at)
        at += 8 * model.values.size
    return backbone, bank
