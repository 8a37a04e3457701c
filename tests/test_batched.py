"""Batched reasoning and stage losses against the same samples run one at a time.

A batch pads its histories on the right and masks the padded keys, so each
row's math is that of its sample alone up to the grouping of sums. A single
request is the batch of one and the oracle: its bits are pinned here, and
every batched value must match it to 1e-12."""

import hashlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracles import kernel_pin
from vrec.backbone import Backbone, ModelConfig
from vrec.numerics import Tensor, concat, tracking
from vrec.reasoning import CHUNK, recommend, run_reasoning
from vrec.training import (TrainHyper, VerifierData, monotonicity_loss, reasoning_losses,
                           recommendation_loss, verifier_loss, verifier_stats)
from vrec.verifiers import make_bank, verify_and_adjust

TOL = 1e-12


# -- one request: its bits and its Tensor count ------------------------------

# sha256 prefixes of every trace row, verdict and final state of the
# requests in _single_request_digest, per OpenBLAS kernel
# (oracles.kernel_pin). They were the bits of the path that served one
# history before it became the batch of one until the top block computed
# only each history's last row: a one-row product rounds unlike that row of
# a matrix product, so they were re-pinned then
PINNED = {
    "SkylakeX": {(False, 1): "47847e893d8e1c9ee903cd7c65b7648a",
                 (True, 1): "d6f409e791a064c4bd4ab020ccfcce58",
                 (True, 3): "f5e6e036fd1588f6b33bf3730da4175f"},
    "Haswell": {(False, 1): "2cade46820a7a3648dae92631b86b0a9",
                (True, 1): "4ac020d4a19ba9dbc8e42ac23d1f8460",
                (True, 3): "c871d25c03a9cfbca68ec1cbf496f9bc"},
}


def _single_request_digest(with_bank: bool, depth: int) -> str:
    bb = Backbone(ModelConfig(d_m=12, layers=2, heads=3, n_items=15, max_positions=20, m=4,
                              seed=7))
    bank = make_bank([("a", 4), ("b", 3), ("c", 5)], d_m=12, seed=8,
                     hidden_depth=depth) if with_bank else None
    h = hashlib.sha256()
    for history in ([5], [0, 3, 5, 9, 2], [7, 1, 4, 4, 0, 11, 2, 8, 6, 3, 14, 13]):
        for m in (0, 1, 4):
            trace, hidden = run_reasoning(bb, bank, history, m)
            for raw, adj, verdict in trace.steps:
                h.update(raw.data.tobytes())
                h.update(adj.data.tobytes())
                if verdict is not None:
                    h.update(verdict.packed.data.tobytes())
            h.update(hidden.data[-1].tobytes())
    return h.hexdigest()[:32]


@pytest.mark.parametrize("with_bank,depth", [(False, 1), (True, 1), (True, 3)])
def test_single_request_bits_unchanged(with_bank, depth):
    assert _single_request_digest(with_bank, depth) == kernel_pin(PINNED)[with_bank, depth]


def _served_tensors(monkeypatch, m: int, with_bank: bool, batch=None) -> int:
    """Tensors built by one request, the batch of one at the serving
    benchmark's shapes, or by serving and ranking ``batch`` (histories),
    counted here rather than by a hook in the library."""
    bb = Backbone(ModelConfig(d_m=24, layers=1, heads=2, n_items=96, max_positions=32, m=m,
                              seed=1))
    bank = make_bank([("a", 6), ("b", 6), ("c", 6)], d_m=24, seed=1) if with_bank else None
    made = []
    init = Tensor.__init__

    def counting(self, *args, **kwargs):
        made.append(1)
        init(self, *args, **kwargs)
    monkeypatch.setattr(Tensor, "__init__", counting)
    if batch is None:
        _, hidden = run_reasoning(bb, bank, list(range(1, 11)), m)
        recommend(bb, hidden)
    else:
        _, hidden = run_reasoning(bb, bank, batch, m)
        bb.rank_items(hidden)
    return len(made)


def test_deep_request_tensor_bound(monkeypatch):
    # m=8 with three verifiers built 223 Tensors when each block was a chain
    # of ops and each bank step looped over its verifiers, 63 with one node
    # per block and per bank step but position and view nodes around them,
    # and 28 while the history's last row was sliced out of every row
    assert _served_tensors(monkeypatch, 8, True) == 27


@pytest.mark.parametrize("m,with_bank,tensors", [(2, True, 9), (0, False, 3)])
def test_single_request_tensor_count(monkeypatch, m, with_bank, tensors):
    # the history's pass: the token lookup, one node per block (the first
    # adds the position rows, the top computes only the last row past its
    # keys and values) and the final norm; each latent step: the bank step,
    # one node per block (the first reads r* from the packed verdict) and
    # the final norm. The chains of ops before built 73 and 23, the blocks
    # with position and view nodes around them 21 and 7, and the blocks with
    # a slice of the last row after the final norm 10 and 4
    assert _served_tensors(monkeypatch, m, with_bank) == tensors


def test_padded_batch_tensor_count(monkeypatch):
    # histories of unequal length: the token lookup, one node per block (the
    # first adds each row's position by id, the top computes each history's
    # last row past its keys and values) and the final norm; each latent
    # step: the bank step, one node per block and the final norm. With a
    # position gather node in each of the m + 1 calls it was 13, and with a
    # gather of each history's last row after the final norm 10
    histories = [list(range(1, 11)), [4, 5, 6], list(range(20, 27))]
    assert _served_tensors(monkeypatch, 2, True, histories) == 9


# -- batched rows and stage losses against batches of one ---------------------


@st.composite
def setups(draw):
    layers = draw(st.integers(1, 2))
    heads = draw(st.integers(1, 3))
    d_m = heads * draw(st.sampled_from([2, 4]))
    m = draw(st.integers(0, 4))
    max_positions = 12
    longest = max_positions - m
    middle = draw(st.lists(st.integers(1, longest), min_size=0, max_size=3))
    lengths = draw(st.permutations([1, longest] + middle))
    n_items = 9
    tokens = draw(st.lists(st.integers(0, n_items - 1), min_size=sum(lengths),
                           max_size=sum(lengths)))
    starts = np.cumsum([0] + lengths)
    histories = [tokens[a:b] for a, b in zip(starts, starts[1:])]
    targets = draw(st.lists(st.integers(0, n_items - 1), min_size=len(lengths),
                            max_size=len(lengths)))
    verifiers = draw(st.sampled_from([0, 1, 2, 3]))
    dims = [(f"v{i}", draw(st.integers(2, 4))) for i in range(verifiers)]
    return dict(cfg=ModelConfig(d_m=d_m, layers=layers, heads=heads, n_items=n_items,
                                max_positions=max_positions, m=m, seed=draw(st.integers(0, 99))),
                histories=histories, targets=np.array(targets), dims=dims,
                depth=draw(st.sampled_from([1, 3])), uniform=draw(st.booleans()),
                negatives=draw(st.lists(st.booleans(), min_size=len(lengths),
                                        max_size=len(lengths))))


def _close(got, want) -> bool:
    """Equal to TOL, relative to the largest entry of ``want`` where that
    exceeds 1 (layer norm over d_m=2 features makes gradients of ~40)."""
    want = np.asarray(want)
    return np.abs(np.asarray(got) - want).max() <= TOL * max(1.0, np.abs(want).max())


def _losses_and_grads(build, params) -> tuple[dict, list]:
    """The loss values of ``build()`` and the gradients of its total."""
    with tracking(params):
        losses = build()
        losses["total"].backward()
    grads = [p.grad.copy() for p in params]
    return {k: v.item() for k, v in losses.items()}, grads


def _per_sample_mean(losses: list[dict]) -> dict:
    """The per-sample losses summed one by one and scaled: the stage loss of
    a minibatch before batching."""
    out = {}
    for key in losses[0]:
        acc = losses[0][key]
        for loss in losses[1:]:
            acc = acc + loss[key]
        out[key] = acc * (1.0 / len(losses))
    return out


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(setups())
def test_batched_rows_and_losses_match_batches_of_one(s):
    rng = np.random.default_rng(s["cfg"].seed)
    bb = Backbone(s["cfg"])
    m, histories, targets = s["cfg"].m, s["histories"], s["targets"]
    bank = None
    if s["dims"]:
        bank = make_bank(s["dims"], d_m=s["cfg"].d_m, seed=s["cfg"].seed,
                         hidden_depth=s["depth"])
        bank.uniform_router = s["uniform"]
    # away from the near-uniform attention and predictions of a fresh model
    for t in list(bb.params().values()) + (list(bank.params().values()) if bank else []):
        t.data += rng.normal(0.0, 0.3, t.shape)

    # rows: final states, trace rows and verdict fields
    trace, final = run_reasoning(bb, bank, histories, m)
    assert final.shape == (len(histories), s["cfg"].d_m) and len(trace.steps) == m
    for b, history in enumerate(histories):
        one, hidden = run_reasoning(bb, bank, history, m)
        assert _close(final.data[b], hidden.data[-1])
        for (raw, adj, verdict), (raw1, adj1, verdict1) in zip(trace.steps, one.steps):
            assert _close(raw.data[b], raw1.data) and _close(adj.data[b], adj1.data)
            if bank is not None:
                assert _close(verdict.packed.data[b], verdict1.packed.data)
                assert verdict.j_star[b] == verdict1.j_star[0]

    hyper = TrainHyper(alpha=0.7, beta=0.6, gamma=0.4)
    # stage 0: recommendation loss without a bank
    params = list(bb.params().values())
    batched = _losses_and_grads(
        lambda: reasoning_losses(bb, None, histories, targets, hyper), params)

    def stage0_per_sample():
        losses = []
        for history, target in zip(histories, targets):
            _, hidden = run_reasoning(bb, None, history, m)
            losses.append({"L_r": recommendation_loss(bb, hidden, np.array([target]))})
        out = _per_sample_mean(losses)
        return {"L_r": out["L_r"], "total": out["L_r"]}
    single = _losses_and_grads(stage0_per_sample, params)
    _assert_match(batched, single)

    if bank is None:
        return
    n_items, n = s["cfg"].n_items, bank.n
    classes = rng.integers(0, 2, (n_items, n))

    # stage 1: verifier loss over collected steps, negatives mixed in
    if m > 0:
        r_steps = np.stack([r.data for r in trace.adjusted()], axis=1)
        labels = np.where(np.array(s["negatives"])[:, None], -1, classes[targets])
        bank_params = list(bank.params().values())
        rows = Tensor(r_steps.reshape(-1, s["cfg"].d_m))  # trace after trace
        owner = np.repeat(np.arange(len(r_steps)), m)
        batched = _losses_and_grads(
            lambda: {"total": verifier_loss(bank, rows, owner, labels, hyper.alpha)}, bank_params)

        def stage1_per_sample():
            return _per_sample_mean([
                {"total": verifier_loss(bank, Tensor(steps), np.zeros(m, dtype=int), lab[None],
                                        hyper.alpha)}
                for steps, lab in zip(r_steps, labels)])
        _assert_match(batched, _losses_and_grads(stage1_per_sample, bank_params))

    # stage 2: joint losses through the reason-verify loop
    params = list(bb.params().values()) + list(bank.params().values())
    batched = _losses_and_grads(
        lambda: reasoning_losses(bb, bank, histories, targets, hyper, classes), params)

    def stage2_per_sample():
        losses = []
        for history, target in zip(histories, targets):
            one, hidden = run_reasoning(bb, bank, history, m)
            loss = {"L_r": recommendation_loss(bb, hidden, np.array([target])),
                    "L_v": Tensor(0.0), "L_m": Tensor(0.0)}
            if m > 0:
                loss["L_v"] = verifier_loss(bank, concat(one.adjusted()), np.zeros(m, dtype=int),
                                            classes[target][None], hyper.alpha)
                loss["L_m"] = monotonicity_loss(concat([v.f for _, _, v in one.steps]))
            losses.append(loss)
        out = _per_sample_mean(losses)
        out["total"] = out["L_r"] + hyper.beta * out["L_v"] + hyper.gamma * out["L_m"]
        return out
    _assert_match(batched, _losses_and_grads(stage2_per_sample, params))


def _assert_match(batched, single):
    (losses, grads), (ref_losses, ref_grads) = batched, single
    assert losses.keys() == ref_losses.keys()
    for key in losses:
        assert _close(losses[key], ref_losses[key]), key
    for got, want in zip(grads, ref_grads):
        assert _close(got, want)


# -- verifier statistics ---------------------------------------------------------


def test_verifier_stats_bits_match_per_trace_scoring():
    # stage 1's per-epoch stats scored trace by trace, as before chunking
    rng = np.random.default_rng(3)
    bank = make_bank([("a", 4), ("b", 3), ("c", 5)], d_m=8, seed=2, hidden_depth=3)
    for t in bank.params().values():
        t.data += rng.normal(0.0, 0.5, t.shape)
    n, m = 50, 3
    assert n * m > 2 * CHUNK  # several chunks, the last one short
    labels = np.stack([rng.integers(0, 4, n), rng.integers(0, 3, n), rng.integers(0, 5, n)], 1)
    labels[rng.random(n) < 0.4] = -1
    data = VerifierData(r_steps=rng.normal(size=(n, m, 8)), labels=labels)

    matches, neg_entropies = [], []
    for r_steps, labels, positive in zip(data.r_steps, data.labels, data.positive):
        verdict = verify_and_adjust(bank, Tensor(r_steps))
        if positive:
            matches.append((np.array(verdict.j_star) == labels).ravel())
        else:
            neg_entropies.append(verdict.f.data.ravel())
    oracle = (float(np.mean(np.concatenate(matches))),
              float(np.mean(np.concatenate(neg_entropies))))
    assert verifier_stats(bank, data) == oracle
