"""Checkpoint format tests: byte identity, validation, model reconstruction."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vrec.backbone import Backbone, ModelConfig
from vrec.checkpoint import MAGIC, load_checkpoint, load_model, save_checkpoint, save_model
from vrec.numerics import Rng, Tensor
from vrec.reasoning import run_reasoning
from vrec.verifiers import make_bank


def test_roundtrip_values_and_bytes(tmp_path):
    rng = Rng(5)
    params = {"b": Tensor(rng.normal((3, 4))), "a": Tensor(rng.normal((7,))),
              "c.nested": Tensor(np.array(2.5))}
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(p1, params, config={"k": 1}, verifiers=None)
    loaded, config, verifiers = load_checkpoint(p1)
    assert config == {"k": 1} and verifiers is None
    assert set(loaded) == set(params)
    for k in params:
        assert np.array_equal(loaded[k], params[k].data)
        assert loaded[k].shape == params[k].data.shape
    save_checkpoint(p2, loaded, config={"k": 1}, verifiers=None)
    assert p1.read_bytes() == p2.read_bytes()


def test_model_parameters_created_untracked(tmp_path):
    bb = Backbone(ModelConfig(d_m=8, layers=1, heads=2, n_items=6, max_positions=8, m=1))
    bank = make_bank([("a", 3)], d_m=8, hidden_width=4, hidden_depth=2)
    save_model(tmp_path / "m.ckpt", bb, bank)
    loaded_bb, loaded_bank = load_model(tmp_path / "m.ckpt")
    for model in (bb, bank, loaded_bb, loaded_bank):
        assert not any(p.requires_grad for p in model.params().values())


def test_bytes_independent_of_dict_order(tmp_path):
    arrs = {"x": np.arange(6.0).reshape(2, 3), "y": np.ones(2)}
    p1, p2 = tmp_path / "fwd.ckpt", tmp_path / "rev.ckpt"
    save_checkpoint(p1, dict(sorted(arrs.items())))
    save_checkpoint(p2, dict(sorted(arrs.items(), reverse=True)))
    assert p1.read_bytes() == p2.read_bytes()


def test_non_contiguous_array(tmp_path):
    arr = np.arange(12.0).reshape(3, 4).T  # transposed view, not C-contiguous
    path = tmp_path / "t.ckpt"
    save_checkpoint(path, {"w": arr})
    loaded, _, _ = load_checkpoint(path)
    assert np.array_equal(loaded["w"], arr)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "not.ckpt"
    path.write_bytes(b"GARBAGE89" + b"\x00" * 16)
    with pytest.raises(ValueError, match="bad magic"):
        load_checkpoint(path)


def test_magic_literal_leads_file(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, {"w": np.zeros(1)})
    assert path.read_bytes()[: len(MAGIC)] == MAGIC


def test_model_roundtrip_reproduces_reasoning(tmp_path):
    cfg = ModelConfig(d_m=16, layers=2, heads=2, n_items=12, max_positions=24, m=2, seed=9)
    bb = Backbone(cfg)
    bank = make_bank([("a", 3), ("b", 5)], d_m=16, seed=9)
    bank.epsilon = 1e-5
    path = tmp_path / "model.ckpt"
    save_model(path, bb, bank)
    bb2, bank2 = load_model(path)

    assert bb2.cfg == cfg
    for k in bb.params():
        assert np.array_equal(bb.params()[k].data, bb2.params()[k].data)
    assert bank2.epsilon == 1e-5
    assert [v.dimension for v in bank2.verifiers] == ["a", "b"]
    assert [v.d_i for v in bank2.verifiers] == [3, 5]
    for k in bank.params():
        assert np.array_equal(bank.params()[k].data, bank2.params()[k].data)

    history = [0, 3, 7, 1]
    trace_a, hidden_a = run_reasoning(bb, bank, history, 2)
    trace_b, hidden_b = run_reasoning(bb2, bank2, history, 2)
    assert np.array_equal(hidden_a.data, hidden_b.data)
    for (_, adj_a, _), (_, adj_b, _) in zip(trace_a.steps, trace_b.steps):
        assert np.array_equal(adj_a.data, adj_b.data)


def test_model_roundtrip_preserves_mlp_shapes(tmp_path):
    bb = Backbone(ModelConfig(d_m=8, layers=1, heads=1, n_items=6, max_positions=16, m=1, seed=0))
    bank = make_bank([("a", 4)], d_m=8, seed=0, hidden_width=10, hidden_depth=3)
    path = tmp_path / "mlp.ckpt"
    save_model(path, bb, bank)
    _, bank2 = load_model(path)
    shapes = [w.data.shape for w, _ in bank2.verifiers[0].hidden]
    assert shapes == [(8, 10), (10, 8)]
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


def test_config_missing_rejected(tmp_path):
    path = tmp_path / "raw.ckpt"
    save_checkpoint(path, {"w": np.zeros(2)})
    with pytest.raises(ValueError, match="config"):
        load_model(path)


def _saved_model_bytes() -> bytes:
    bb = Backbone(ModelConfig(d_m=8, layers=1, heads=1, n_items=6, max_positions=16, m=1, seed=0))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "full.ckpt"
        save_model(path, bb, make_bank([("a", 2)], d_m=8, seed=0))
        return path.read_bytes()


SAVED = _saved_model_bytes()


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


HEADER_START = len(MAGIC) + 4


@pytest.mark.parametrize("corrupt", [
    lambda b: b[:HEADER_START + 1] + b"!" + b[HEADER_START + 2:],  # JSON syntax
    lambda b: b[:HEADER_START + 1] + b"\xff" + b[HEADER_START + 2:],  # not UTF-8
    lambda b: b.replace(b'"params"', b'"qarams"', 1),  # no parameter table
], ids=["json", "utf8", "no_params"])
def test_corrupt_header_names_the_path(tmp_path, corrupt):
    path = tmp_path / "bad.ckpt"
    data = corrupt(SAVED)
    assert len(data) == len(SAVED) and data != SAVED
    path.write_bytes(data)
    with pytest.raises(ValueError, match="corrupt checkpoint header") as err:
        load_model(path)
    assert str(path) in str(err.value)


@pytest.mark.parametrize("edit,message", [
    (lambda p: p.pop("backbone.ln_f.bias"), "parameter backbone.ln_f.bias missing"),
    (lambda p: p.update({"backbone.pos_emb": np.zeros((4, 8))}),
     r"parameter backbone.pos_emb has shape \(4, 8\), expected \(16, 8\)"),
    (lambda p: p.update({"bank.verifiers.1.w_last": np.zeros((8, 2))}),
     "unexpected parameter bank.verifiers.1.w_last"),
], ids=["missing", "wrong_shape", "unexpected"])
def test_parameters_must_match_the_header_model(tmp_path, edit, message):
    good = tmp_path / "good.ckpt"
    good.write_bytes(SAVED)
    params, config, verifiers = load_checkpoint(good)
    edit(params)
    path = tmp_path / "edited.ckpt"
    save_checkpoint(path, params, config=config, verifiers=verifiers)
    with pytest.raises(ValueError, match=message) as err:
        load_model(path)
    assert str(path) in str(err.value)
