"""Checkpoint format tests: byte identity, validation, model reconstruction."""

import json
import struct
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import encode_chain, write_checkpoint
from vrec import numerics
from vrec.backbone import Backbone, KVCache, ModelConfig
from vrec.checkpoint import MAGIC, load_model, save_model
from vrec.numerics import Rng
from vrec.reasoning import run_reasoning
from vrec.training import Adam
from vrec.verifiers import make_bank


@st.composite
def model_pairs(draw):
    """A backbone, with or without a bank, whose values include draws of
    every float class (NaN, infinities, signed zeros, subnormals). A bank's
    class counts may repeat apart, so a head stack's members need not be
    neighbours, and may sum to 9 or more."""
    heads = draw(st.sampled_from([1, 2]))
    d_m = heads * draw(st.integers(1, 3))
    backbone = Backbone(ModelConfig(
        d_m=d_m, layers=draw(st.integers(1, 3)), heads=heads, n_items=draw(st.integers(1, 6)),
        max_positions=draw(st.integers(1, 10)), m=draw(st.integers(0, 3)),
        seed=draw(st.integers(0, 2**64 - 1))))
    bank = None
    if draw(st.booleans()):
        dims = [(f"d{i}", draw(st.integers(2, 12))) for i in range(draw(st.integers(1, 4)))]
        bank = make_bank(dims, d_m=d_m, seed=draw(st.integers(0, 99)),
                         hidden_width=draw(st.integers(0, 4)), hidden_depth=draw(st.integers(1, 3)))
        bank.uniform_router = draw(st.booleans())
    for model in (backbone, bank) if bank else (backbone,):
        for value in draw(st.lists(st.floats(width=64), max_size=4)):
            model.values[draw(st.integers(0, model.values.size - 1))] = value
    return backbone, bank


@settings(max_examples=40, deadline=None)
@given(pair=model_pairs())
def test_roundtrip_over_model_shapes(pair):
    backbone, bank = pair
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "a.ckpt", Path(tmp) / "b.ckpt"
        save_model(first, backbone, bank)
        loaded = load_model(first)
        save_model(second, *loaded)
        assert first.read_bytes() == second.read_bytes()
    assert loaded[0].cfg == backbone.cfg and (loaded[1] is None) == (bank is None)
    for model, copy in zip((backbone, bank), loaded):
        if model is None:
            continue
        assert copy.values.tobytes() == model.values.tobytes()  # bit-equal, NaN too
        for t in copy.params().values():
            assert t.data.base is copy.values and t.grad is None


def test_model_parameters_created_untracked(tmp_path):
    bb = Backbone(ModelConfig(d_m=8, layers=1, heads=2, n_items=6, max_positions=8, m=1))
    bank = make_bank([("a", 3)], d_m=8, hidden_width=4, hidden_depth=2)
    save_model(tmp_path / "m.ckpt", bb, bank)
    loaded_bb, loaded_bank = load_model(tmp_path / "m.ckpt")
    assert numerics._tape is None
    for model in (bb, bank, loaded_bb, loaded_bank):
        assert all(p.grad is None for p in model.params().values())


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "not.ckpt"
    path.write_bytes(b"GARBAGE89" + b"\x00" * 16)
    with pytest.raises(ValueError, match="bad magic"):
        load_model(path)


def test_magic_literal_leads_file(tmp_path):
    path = tmp_path / "m.ckpt"
    save_model(path, Backbone(ModelConfig(d_m=4, layers=1, heads=1, n_items=3, max_positions=4)))
    assert path.read_bytes()[: len(MAGIC)] == MAGIC


def test_model_roundtrip_reproduces_reasoning(tmp_path):
    cfg = ModelConfig(d_m=16, layers=2, heads=2, n_items=12, max_positions=24, m=2, seed=9)
    bb = Backbone(cfg)
    bank = make_bank([("a", 3), ("b", 5)], d_m=16, seed=9)
    path = tmp_path / "model.ckpt"
    save_model(path, bb, bank)
    bb2, bank2 = load_model(path)

    assert bb2.cfg == cfg
    for k in bb.params():
        assert np.array_equal(bb.params()[k].data, bb2.params()[k].data)
    assert bank2.dimensions == [("a", 3), ("b", 5)]
    for k in bank.params():
        assert np.array_equal(bank.params()[k].data, bank2.params()[k].data)

    history = [0, 3, 7, 1]
    trace_a, hidden_a = run_reasoning(bb, bank, history, 2)
    trace_b, hidden_b = run_reasoning(bb2, bank2, history, 2)
    assert np.array_equal(hidden_a.data, hidden_b.data)
    for (_, adj_a, _), (_, adj_b, _) in zip(trace_a.steps, trace_b.steps):
        assert np.array_equal(adj_a.data, adj_b.data)


def _prepared(bb, bank) -> list[tuple[np.ndarray, np.ndarray]]:
    """Each array the models' hot paths compute with in place of a
    parameter's ``.data`` (gains and biases as rows), with the value vector
    it must be a view of."""
    rows = [a for _, arrays in bb._blocks for a in arrays] + list(bb._final_arrays)
    biases = [bank.router_bias, *bank.trunk_biases, *bank.head_biases.values()]
    return [(a, bb.values) for a in rows] + [(a, bank.values) for a in biases]


HISTORY = [0, 3, 7, 1, 5]


def _served(bb, bank) -> bytes:
    trace, last = run_reasoning(bb, bank, HISTORY, 3)
    return last.data.tobytes() + b"".join(v.packed.data.tobytes() for v in trace.verdicts)


def test_prepared_arrays_follow_the_values_vector(tmp_path):
    # the row views are made once, with the model, and stay views of its
    # values through an optimizer step, a load and a write of the whole
    # vector: a model so written serves what one loaded from its checkpoint
    # does, and encodes what the chain of ops on its tensors does
    cfg = ModelConfig(d_m=8, layers=2, heads=2, n_items=12, max_positions=16, m=3, seed=5)
    dims = [("a", 2), ("b", 3), ("c", 3)]
    bb, bank = Backbone(cfg), make_bank(dims, d_m=8, seed=5, hidden_depth=2)
    assert len(_prepared(bb, bank)) == 2 * 15 + 2 + 1 + 1 + 2
    opt = Adam([bb, bank], lr=0.05)
    for i, grads in enumerate(opt.grads):
        grads[:] = Rng(i).normal(grads.shape)
    opt.step()
    path = tmp_path / "model.ckpt"
    save_model(path, bb, bank)
    written = Backbone(replace(cfg, seed=6)), make_bank(dims, d_m=8, seed=6, hidden_depth=2)
    for model, source in zip(written, (bb, bank)):
        model.values[:] = source.values
    for models in ((bb, bank), load_model(path), written):
        for array, values in _prepared(*models):
            assert np.shares_memory(array, values)
        assert (models[0].encode(HISTORY, cache=KVCache()).data.tobytes()
                == encode_chain(models[0], HISTORY).data.tobytes())
    assert _served(*written) == _served(*load_model(path)) == _served(bb, bank)


def test_model_roundtrip_preserves_mlp_shapes(tmp_path):
    bb = Backbone(ModelConfig(d_m=8, layers=1, heads=1, n_items=6, max_positions=16, m=1, seed=0))
    bank = make_bank([("a", 4)], d_m=8, seed=0, hidden_width=10, hidden_depth=3)
    path = tmp_path / "mlp.ckpt"
    save_model(path, bb, bank)
    _, bank2 = load_model(path)
    shapes = [w.data.shape for w, _ in bank2.trunk]
    assert shapes == [(1, 8, 10), (1, 10, 8)]
    for k in bank.params():
        assert np.array_equal(bank.params()[k].data, bank2.params()[k].data)


def test_model_roundtrip_preserves_uniform_router(tmp_path):
    bb = Backbone(ModelConfig(d_m=8, layers=1, heads=1, n_items=6, max_positions=16, m=1, seed=0))
    bank = make_bank([("a", 2)], d_m=8, seed=0)
    bank.uniform_router = True
    path = tmp_path / "u.ckpt"
    save_model(path, bb, bank)
    _, bank2 = load_model(path)
    assert bank2.uniform_router is True


def test_model_without_bank(tmp_path):
    bb = Backbone(ModelConfig(d_m=8, layers=1, heads=1, n_items=6, max_positions=16, m=0, seed=3))
    path = tmp_path / "nb.ckpt"
    save_model(path, bb)
    bb2, bank2 = load_model(path)
    assert bank2 is None
    assert np.array_equal(bb.params()["tok_emb"].data, bb2.params()["tok_emb"].data)


@pytest.mark.parametrize("model,name", [("backbone", "ln_f.gain"), ("bank", "router.a")])
def test_save_refuses_detached_parameter(tmp_path, model, name):
    bb = Backbone(ModelConfig(d_m=8, layers=1, heads=1, n_items=6, max_positions=16, m=1))
    bank = make_bank([("a", 2)], d_m=8)
    t = {"backbone": bb, "bank": bank}[model].params()[name]
    t.data = t.data.copy()  # rebound: the model's value vector no longer holds it
    path = tmp_path / "stale.ckpt"
    with pytest.raises(ValueError, match=f"parameter {model}.{name} is detached"):
        save_model(path, bb, bank)
    assert not path.exists()


def _saved_model_bytes() -> bytes:
    bb = Backbone(ModelConfig(d_m=8, layers=1, heads=1, n_items=6, max_positions=16, m=1, seed=0))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "full.ckpt"
        save_model(path, bb, make_bank([("a", 2)], d_m=8, seed=0))
        return path.read_bytes()


SAVED = _saved_model_bytes()
HEADER_START = len(MAGIC) + 4
BODY_START = HEADER_START + struct.unpack("<I", SAVED[len(MAGIC):HEADER_START])[0]


def _rewritten(path: Path, edit) -> Path:
    """SAVED with ``edit`` applied to {"header": parsed header, "body": bytearray}."""
    parts = {"header": json.loads(SAVED[HEADER_START:BODY_START]),
             "body": bytearray(SAVED[BODY_START:])}
    edit(parts)
    write_checkpoint(path, parts["header"], bytes(parts["body"]))
    return path


def test_helper_rewrites_saved_bytes(tmp_path):
    assert _rewritten(tmp_path / "same.ckpt", lambda parts: None).read_bytes() == SAVED


@settings(max_examples=60, deadline=None)
@given(cut=st.integers(min_value=0, max_value=len(SAVED) - 1))
@example(cut=len(MAGIC) + 2)  # inside the header length
@example(cut=30)  # inside the JSON header
@example(cut=len(SAVED) - 1)  # one byte short of the last parameter
def test_every_strict_prefix_names_the_path(cut):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cut.ckpt"
        path.write_bytes(SAVED[:cut])
        with pytest.raises(ValueError) as err:
            load_model(path)
    assert str(path) in str(err.value)


@pytest.mark.parametrize("corrupt", [
    lambda b: b[:HEADER_START + 1] + b"!" + b[HEADER_START + 2:],  # JSON syntax
    lambda b: b[:HEADER_START + 1] + b"\xff" + b[HEADER_START + 2:],  # not UTF-8
    lambda b: b.replace(b'"params"', b'"qarams"', 1),  # no parameter table
    lambda b: b.replace(b'"offset"', b'"offsat"', 1),  # an entry without an offset
], ids=["json", "utf8", "no_params", "no_offset"])
def test_corrupt_header_names_the_path(tmp_path, corrupt):
    path = tmp_path / "bad.ckpt"
    data = corrupt(SAVED)
    assert len(data) == len(SAVED) and data != SAVED
    path.write_bytes(data)
    with pytest.raises(ValueError, match="corrupt checkpoint header") as err:
        load_model(path)
    assert str(path) in str(err.value)


def test_config_missing_rejected(tmp_path):
    path = _rewritten(tmp_path / "raw.ckpt", lambda parts: parts["header"].update(config=None))
    with pytest.raises(ValueError, match="config") as err:
        load_model(path)
    assert str(path) in str(err.value)


def _entry(parts, name):
    return next(e for e in parts["header"]["params"] if e["name"] == name)


def _per_verifier_layout(parts):
    """SAVED's parameter table in the layout of a bank that stored one
    parameter set per verifier: its one verifier's ``w_last`` and
    ``b_last`` in place of the ``heads.2`` stacks, over the same body bytes."""
    table = [e for e in parts["header"]["params"] if not e["name"].startswith("bank.")]
    start = _entry(parts, "bank.heads.2.b")["offset"]
    for name, shape in (("router.a", [1, 8]), ("router.bias", [1]),
                        ("verifiers.0.b_last", [2]), ("verifiers.0.w_last", [8, 2])):
        table.append({"name": "bank." + name, "shape": shape, "offset": start})
        start += 8 * int(np.prod(shape))
    parts["header"]["params"] = table


def _without_classes(parts):
    """SAVED as a bank whose one verifier has no classes would be saved:
    d_i 0, empty head stacks and no head values in the body."""
    parts["header"]["verifiers"]["dimensions"][0]["d_i"] = 0
    head = [_entry(parts, f"bank.heads.2.{x}") for x in "bw"]
    start, cut = head[0]["offset"], sum(8 * int(np.prod(e["shape"])) for e in head)
    del parts["body"][start:start + cut]
    for e in head:
        e.update(name=e["name"].replace(".2.", ".0."), shape=e["shape"][:-1] + [0], offset=start)
    for e in parts["header"]["params"]:
        if e["name"].startswith("bank.router."):
            e["offset"] -= cut


def _with_key_bias(parts):
    """SAVED as a backbone whose blocks had a key bias was saved: a
    ``blocks.0.attn.bk`` of d_m zeros in body order, before ``attn.bo``."""
    params, bo = parts["header"]["params"], _entry(parts, "backbone.blocks.0.attn.bo")
    start = bo["offset"]
    for e in params:
        if e["offset"] >= start:
            e["offset"] += 8 * 8
    params.insert(params.index(bo), {"name": "backbone.blocks.0.attn.bk", "shape": [8],
                                     "offset": start})
    parts["body"][start:start] = bytes(8 * 8)


@pytest.mark.parametrize("edit,message", [
    (lambda p: p["header"]["params"].remove(_entry(p, "backbone.ln_f.bias")),
     "parameter backbone.ln_f.bias missing"),
    (lambda p: _entry(p, "backbone.pos_emb").update(shape=[4, 8]),
     r"parameter backbone.pos_emb has shape \(4, 8\), expected \(16, 8\)"),
    (lambda p: (p["header"]["params"].append(
        {"name": "bank.heads.3.w", "shape": [1, 8, 3], "offset": len(p["body"])}),
        p["body"].extend(bytes(8 * 24))),
     "unexpected parameter bank.heads.3.w"),
    (_per_verifier_layout, "parameter bank.heads.2.b missing"),
    (lambda p: _entry(p, "backbone.blocks.0.attn.bq").update(offset=-8),
     r"parameter backbone.blocks.0.attn.bq has offset -8, expected \d+"),
    (lambda p: _entry(p, "backbone.ln_f.gain").update(
        offset=_entry(p, "backbone.ln_f.bias")["offset"]),
     r"parameter backbone.ln_f.gain has offset \d+, expected \d+"),
    (lambda p: p["header"]["params"].reverse(), "out of body order"),
    (lambda p: p["header"]["params"].append(_entry(p, "bank.router.a")), "a parameter repeated"),
    (lambda p: p["body"].extend(bytes(8)), r"trailing bytes \(\d+ bytes, parameters end at \d+\)"),
    (_with_key_bias, "unexpected parameter backbone.blocks.0.attn.bk"),
], ids=["missing", "wrong_shape", "unexpected", "per_verifier_layout", "negative_offset",
        "overlapping_offset", "out_of_order", "repeated", "trailing_bytes", "key_bias_layout"])
def test_parameters_must_match_the_header_model(tmp_path, edit, message):
    path = _rewritten(tmp_path / "edited.ckpt", edit)
    with pytest.raises(ValueError, match=message) as err:
        load_model(path)
    assert str(path) in str(err.value)


@pytest.mark.parametrize("edit,message", [
    (lambda h: h["config"].update(dropout=0.1), "unexpected keyword argument 'dropout'"),
    (lambda h: h["config"].pop("seed"), "header config .* is not the model's .*'seed': 0"),
    (lambda h: h["config"].update(heads=3), "not divisible by heads"),
    (lambda h: h["verifiers"].update(dimensions=[]), "describe no model"),
    (lambda h: h.update(verifiers=[h["verifiers"]]), "describe no model"),
    (lambda h: h.update(verifiers="bank"), "describe no model"),
    (lambda h: h["verifiers"].update(epsilon=1e-5),
     "header verifiers .*'epsilon': 1e-05.* is not the model's .*'epsilon': 1e-06"),
    (lambda h: h["verifiers"].update(uniform_router=1),
     "header verifiers .*'uniform_router': 1.* is not the model's .*'uniform_router': True"),
    (lambda h: h["verifiers"].update(n=2), "header verifiers .*'n': 2.* is not the model's"),
], ids=["unknown_config_key", "missing_config_key", "bad_config_value", "no_dimensions",
        "verifiers_list", "verifiers_string", "epsilon", "uniform_router_int", "wrong_n"])
def test_header_must_describe_the_model(tmp_path, edit, message):
    path = _rewritten(tmp_path / "edited.ckpt", lambda parts: edit(parts["header"]))
    with pytest.raises(ValueError, match=message) as err:
        load_model(path)
    assert str(path) in str(err.value)


def test_bank_without_classes_refused(tmp_path):
    # a bank of no classes would load, then fail on its first step
    path = _rewritten(tmp_path / "no_classes.ckpt", _without_classes)
    with pytest.raises(ValueError, match="describe no model .*d_i must be an integer >= 2, "
                                         "got 0") as err:
        load_model(path)
    assert str(path) in str(err.value)


def test_header_in_another_json_form_refused(tmp_path):
    header = json.dumps(json.loads(SAVED[HEADER_START:BODY_START]), indent=1).encode("utf-8")
    path = tmp_path / "spaced.ckpt"
    path.write_bytes(MAGIC + struct.pack("<I", len(header)) + header + SAVED[BODY_START:])
    with pytest.raises(ValueError, match="JSON in another form") as err:
        load_model(path)
    assert str(path) in str(err.value)
