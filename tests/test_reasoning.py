"""Reason-verify loop tests: stepping, the KV cache, recommendation, homogeneity."""

import json

import numpy as np
import pytest

import vrec.reasoning
from oracles import ChainCache, confidences, encode_chain, grad_check, greedy_recommend
from vrec.backbone import Backbone, ModelConfig
from vrec.numerics import Rng, Tensor, concat, tracking
from vrec.reasoning import (
    ReasoningTrace,
    export_traces,
    homogeneity,
    recommend,
    run_reasoning,
)
from vrec.training import (TrainHyper, monotonicity_loss, reasoning_losses,
                           recommendation_loss, verifier_loss)
from vrec.verifiers import make_bank, verify_and_adjust


def small_backbone(m=2, seed=0):
    return Backbone(ModelConfig(d_m=16, layers=2, heads=2, n_items=12,
                                max_positions=20, m=m, seed=seed))


def test_m0_empty_trace_equals_plain_backbone():
    bb = small_backbone()
    trace, hidden = run_reasoning(bb, None, [0, 3, 5], 0)
    assert trace.steps == [] and trace.m == 0
    plain = bb.encode([0, 3, 5])
    assert np.array_equal(hidden.data, plain.data[-1:])
    assert recommend(bb, hidden).tolist() == bb.rank_items(plain)[2].tolist()


def test_no_bank_adjusted_equals_raw():
    bb = small_backbone()
    trace, _ = run_reasoning(bb, None, [1, 4], 3)
    assert len(trace.steps) == 3
    for raw, adj, verdict in trace.steps:
        assert verdict is None
        assert adj is raw


def test_bank_absent_independent_of_verifier_state():
    bb = small_backbone()
    _, h1 = run_reasoning(bb, None, [2, 6, 9], 2)
    make_bank([("a", 4)], d_m=16, seed=99)  # unrelated bank must not matter
    _, h2 = run_reasoning(bb, None, [2, 6, 9], 2)
    assert np.array_equal(h1.data, h2.data)


def test_confident_bank_injects_prototype_columns():
    bb = small_backbone()
    bank = make_bank([("sharp", 3)], d_m=16, seed=1)
    bank.verifiers[0].b_last.data[:] = [40.0, 0.0, 0.0]
    trace, _ = run_reasoning(bb, bank, [0, 5], 2)
    for raw, adj, verdict in trace.steps:
        assert confidences(verdict)[0].item() == 1.0
        col = bank.verifiers[0].w_last.data[:, verdict.j_star[0][0]]
        assert np.array_equal(adj.data[0], col)


def test_trace_determinism():
    bb = small_backbone()
    bank = make_bank([("a", 4), ("b", 3)], d_m=16, seed=2)
    t1, h1 = run_reasoning(bb, bank, [3, 7, 1], 3)
    t2, h2 = run_reasoning(bb, bank, [3, 7, 1], 3)
    assert np.array_equal(h1.data, h2.data)
    for (r1, a1, v1), (r2, a2, v2) in zip(t1.steps, t2.steps):
        assert np.array_equal(r1.data, r2.data)
        assert np.array_equal(a1.data, a2.data)
        assert v1.j_star == v2.j_star


def test_steps_feed_forward():
    # verified and unverified runs diverge after the first adjusted step
    bb = small_backbone()
    bank = make_bank([("a", 4)], d_m=16, seed=3)
    bank.verifiers[0].b_last.data[:] = [25.0, 0.0, 0.0, 0.0]
    t_plain, h_plain = run_reasoning(bb, None, [0, 5], 2)
    t_bank, h_bank = run_reasoning(bb, bank, [0, 5], 2)
    assert np.array_equal(t_plain.steps[0][0].data, t_bank.steps[0][0].data)
    assert not np.array_equal(t_plain.steps[1][0].data, t_bank.steps[1][0].data)
    assert not np.array_equal(h_plain.data, h_bank.data)


def test_sequence_budget_enforced():
    bb = Backbone(ModelConfig(d_m=16, layers=1, heads=2, n_items=12,
                              max_positions=5, m=0, seed=0))
    with pytest.raises(ValueError, match="max_positions"):
        run_reasoning(bb, None, [0, 1, 2, 3], 2)


def counting_encode(monkeypatch):
    """Wrap Backbone.encode; returns the list of positions each call computed."""
    counts = []
    real = Backbone.encode

    def encode(self, history, injected=None, cache=None):
        counts.append(len(history) + len(injected or ()))
        return real(self, history, injected, cache)
    monkeypatch.setattr(Backbone, "encode", encode)
    return counts


def test_over_long_sequence_rejected_before_encoding(monkeypatch):
    bb = Backbone(ModelConfig(d_m=16, layers=1, heads=2, n_items=12,
                              max_positions=6, m=3, seed=0))
    counts = counting_encode(monkeypatch)
    with pytest.raises(ValueError, match="sequence length 7 exceeds max_positions 6"):
        run_reasoning(bb, make_bank([("a", 4)], d_m=16, seed=0), [0, 1, 2, 3], 3)
    assert counts == []


def reencode_reasoning(bb, bank, history, m):
    """The loop the KV cache replaced: every step re-encodes the whole prefix."""
    L = len(history)
    steps, latents = [], []
    for t in range(m):
        r_t = bb.encode(history, latents)[L + t - 1:L + t]
        verdict = verify_and_adjust(bank, r_t) if bank is not None else None
        r_adj = r_t if verdict is None else verdict.r_star
        steps.append((r_t, r_adj, verdict))
        latents.append(r_adj)
    return steps, bb.encode(history, latents)[-1:]


@pytest.mark.parametrize("with_bank", [False, True], ids=["plain", "bank"])
@pytest.mark.parametrize("m", [0, 1, 3, 8])
@pytest.mark.parametrize("layers,heads", [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3)])
def test_cached_reasoning_matches_full_reencode(layers, heads, m, with_bank):
    bb = Backbone(ModelConfig(d_m=12, layers=layers, heads=heads, n_items=12,
                              max_positions=18, m=m, seed=10 * layers + heads))
    bank = make_bank([("a", 4), ("b", 3)], d_m=12, seed=m) if with_bank else None
    for history in ([5], [0, 3, 5, 9, 2], [7, 1, 4, 4, 0, 11, 2, 8, 6, 3]):
        trace, hidden = run_reasoning(bb, bank, history, m)
        ref_steps, ref_hidden = reencode_reasoning(bb, bank, history, m)
        assert hidden.shape == ref_hidden.shape == (1, 12)
        assert np.abs(hidden.data - ref_hidden.data).max() <= 1e-12
        assert len(trace.steps) == len(ref_steps) == m
        for (raw, adj, verdict), (ref_raw, ref_adj, ref_verdict) in zip(trace.steps, ref_steps):
            assert np.abs(raw.data - ref_raw.data).max() <= 1e-12
            assert np.abs(adj.data - ref_adj.data).max() <= 1e-12
            if with_bank:
                assert verdict.j_star == ref_verdict.j_star
        assert recommend(bb, hidden).tolist() == recommend(bb, ref_hidden).tolist()


def test_each_position_encoded_once(monkeypatch):
    bb = small_backbone(m=8)
    bank = make_bank([("a", 4), ("b", 3)], d_m=16, seed=4)
    counts = counting_encode(monkeypatch)
    for history in ([3], [0, 5, 9, 2, 7, 1]):
        for m in (0, 1, 3, 8):
            counts.clear()
            _, hidden = run_reasoning(bb, bank, history, m)
            assert sum(counts) == len(history) + m and hidden.shape == (1, 16)
            assert counts == [len(history)] + [1] * m


def test_grad_check_through_cached_rollout():
    # the gradient-fidelity acceptance setup, one latent step deeper
    bb = Backbone(ModelConfig(d_m=8, layers=1, heads=2, n_items=6, max_positions=16,
                              m=3, seed=5))
    bank = make_bank([("a", 4), ("b", 4)], d_m=8, seed=5)
    history, labels = [0, 3, 5, 1], np.array([[1, 3]])

    def loss(reasoning=run_reasoning):
        trace, hidden = reasoning(bb, bank, history, 3)
        rows, f = concat(trace.adjusted()), concat([v.f for _, _, v in trace.steps])
        return (recommendation_loss(bb, hidden, [2])
                + 0.5 * verifier_loss(bank, rows, np.zeros(3, dtype=int), labels)
                + 0.5 * monotonicity_loss(f))

    def reencoded(*args):
        steps, hidden = reencode_reasoning(*args)
        return ReasoningTrace([s[0] for s in steps], [s[2] for s in steps]), hidden

    # keep the check point off the confidence clamp at f=1
    trace, _ = run_reasoning(bb, bank, history, 3)
    assert min(float(f.data) for _, _, v in trace.steps for f in v.f[0]) > 1.05
    params = list(bb.params().values()) + list(bank.params().values())
    grads = []
    for reasoning in (run_reasoning, reencoded):
        with tracking(params):
            loss(reasoning).backward()
        grads.append([p.grad.copy() for p in params])
        for p in params:
            p.zero_grad()
    assert max(np.abs(a - b).max() for a, b in zip(*grads)) <= 1e-12
    assert grad_check(loss, params, h=3e-5) < 1e-5
    assert not any(p.requires_grad for p in params)


def test_greedy_matches_rank_one():
    bb = small_backbone()
    _, hidden = run_reasoning(bb, None, [4, 8], 2)
    assert greedy_recommend(bb, hidden) == recommend(bb, hidden, 1)[0]
    assert greedy_recommend(bb, hidden) == recommend(bb, hidden)[0]


def fake_trace(vectors):
    return ReasoningTrace([Tensor(v[None]) for v in vectors], [None] * len(vectors))


def test_homogeneity_identical_vectors():
    v = Rng(4).normal((16,))
    traces = [fake_trace([v]) for _ in range(4)]
    h, proj = homogeneity(traces, 0)
    assert h == pytest.approx(1.0, abs=1e-12)
    assert proj.shape == (4, 2)


def test_homogeneity_orthogonal_vectors():
    a = np.zeros(16)
    b = np.zeros(16)
    a[0] = 1.0
    b[1] = 1.0
    h, _ = homogeneity([fake_trace([a]), fake_trace([b])], 0)
    assert h == pytest.approx(0.0, abs=1e-12)


def test_homogeneity_matches_brute_force():
    rng = Rng(5)
    vecs = [rng.normal((16,)) for _ in range(8)]
    h, _ = homogeneity([fake_trace([v]) for v in vecs], 0)
    sims = []
    for i in range(8):
        for j in range(i + 1, 8):
            sims.append(vecs[i] @ vecs[j] / (np.linalg.norm(vecs[i]) * np.linalg.norm(vecs[j])))
    assert h == pytest.approx(np.mean(sims), abs=1e-12)


def test_homogeneity_needs_two_traces():
    with pytest.raises(ValueError, match="at least 2"):
        homogeneity([fake_trace([np.ones(4)])], 0)


def test_export_traces_jsonl(tmp_path):
    bb = small_backbone()
    bank = make_bank([("a", 4), ("b", 3)], d_m=16, seed=6)
    traces = [run_reasoning(bb, bank, h, 2)[0] for h in ([0, 3], [5, 1, 7])]
    path = tmp_path / "traces.jsonl"
    export_traces(traces, path)
    lines = [json.loads(l) for l in path.read_text(encoding="utf-8").splitlines()]
    assert len(lines) == 2
    for line in lines:
        assert line["m"] == 2 and len(line["steps"]) == 2
        for step in line["steps"]:
            assert len(step["f"]) == 2 and len(step["w"]) == 2 and len(step["classes"]) == 2
            assert "r" not in step

    export_traces(traces, path, include_vectors=True)
    first = json.loads(path.read_text(encoding="utf-8").splitlines()[0])
    assert len(first["steps"][0]["r"]) == 16
    assert len(first["steps"][0]["r_star"]) == 16


@pytest.mark.parametrize("m", [0, 1, 4])
@pytest.mark.parametrize("layers", [1, 2, 3])
def test_stage_losses_match_the_oracle_chain_bit_for_bit(monkeypatch, layers, m):
    # stage 2's losses through fused blocks and the fused bank step, against
    # the same batch with every block as its chain of ops: values and the
    # gradient of every parameter of both models keep their bits
    bb = Backbone(ModelConfig(d_m=12, layers=layers, heads=3, n_items=12, max_positions=20,
                              m=m, seed=layers))
    bank = make_bank([("a", 3), ("b", 9), ("c", 3)], d_m=12, seed=m, hidden_depth=2)
    rng = Rng(layers, m)
    params = list(bb.params().values()) + list(bank.params().values())
    for t in params:
        t.data[...] = rng.normal(t.shape, std=0.5)
    histories = [[1, 4, 2, 8, 6, 0, 3], [3, 5, 11], [7, 7, 1, 9, 2]]
    targets = np.array([2, 9, 4])
    classes = rng.integers(0, 3, (12, 3))
    hyper = TrainHyper(beta=0.5, gamma=0.3)
    results = []
    for chain in (False, True):
        if chain:
            monkeypatch.setattr(Backbone, "encode", encode_chain)
            monkeypatch.setattr(vrec.reasoning, "KVCache", ChainCache)
        with tracking(params):
            losses = reasoning_losses(bb, bank, histories, targets, hyper, classes)
            losses["total"].backward()
        results.append(([v.data.tobytes() for v in losses.values()],
                        bb.grads.tobytes(), bank.grads.tobytes()))
        bb.grads.fill(0.0)
        bank.grads.fill(0.0)
    assert results[0] == results[1]
