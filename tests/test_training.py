"""Training-stage tests: optimizer, losses, dataset collection, fine-tuning."""

import csv

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import grad_check, greedy_recommend, probabilities
from vrec.backbone import Backbone, ModelConfig
from vrec.checkpoint import load_model, save_model
from vrec.datasets import Sample, SynthConfig, chronological_split, generate_synthetic
from vrec.labeling import build_labeling
from vrec.numerics import Rng, Tensor, parameter_vectors
from vrec.reasoning import run_reasoning
from vrec.training import (
    Adam,
    TrainHyper,
    VerifierData,
    _fit,
    collect_verifier_dataset,
    finetune,
    monotonicity_loss,
    pretrain_backbone,
    pretrain_verifiers,
    recommendation_loss,
    verifier_loss,
)
from vrec.verifiers import make_bank, verify_and_adjust


def small_model(**kw):
    base = dict(d_m=24, layers=2, heads=2, n_items=24, max_positions=32, m=2, seed=42)
    base.update(kw)
    return ModelConfig(**base)


@pytest.fixture(scope="module")
def corpus():
    synth = SynthConfig(n_users=30, n_items=24, n_groups=4, stickiness=0.9,
                        seq_len_range=(8, 14), seed=42)
    items, logs, planted = generate_synthetic(synth)
    split = chronological_split(logs)
    labelings = [
        build_labeling("cf", items, samples=split.train, n_users=split.n_users,
                       d_i=4, seed=42),
        build_labeling("title", items, d_i=4, seed=42),
    ]
    return items, split, labelings


# -- optimizer -----------------------------------------------------------


class Bare:
    """Bare tensors as one model, with the value and gradient vectors that
    Backbone and VerifierBank have."""

    def __init__(self, params):
        self._params = params
        self.values, self.grads = parameter_vectors(params)

    def params(self):
        return self._params


def test_parameters_stay_views_of_their_model_vectors(corpus, tmp_path):
    _, split, _ = corpus

    def check(model):
        params = model.params()
        for t in params.values():
            assert np.shares_memory(t.data, model.values)
            assert np.shares_memory(t.grad, model.grads)
        # laid out in sorted name order, each parameter once
        flat = np.concatenate([params[k].data.ravel() for k in sorted(params)])
        assert np.array_equal(flat, model.values) and model.grads.size == flat.size

    bb = Backbone(small_model(d_m=8, layers=1))
    bank = make_bank([("a", 3), ("b", 4)], d_m=8, hidden_depth=2)
    check(bb)
    check(bank)
    save_model(tmp_path / "m.ckpt", bb, bank)
    bb, bank = load_model(tmp_path / "m.ckpt")
    check(bb)
    check(bank)
    r, coef = Tensor(Rng(1).normal((2, 8))), Rng(2).normal((2, 8))
    grad_check(lambda: (verify_and_adjust(bank, r).r_star * coef).sum(),
               list(bank.params().values()))
    check(bank)
    assert not bank.grads.any()
    pretrain_backbone(bb, split.train[:16], TrainHyper(epochs=1, batch=8))
    check(bb)
    assert bb.grads.any()


def test_adam_lr_zero_keeps_params_bit_identical():
    p = {"w": Tensor(Rng(0).normal((4, 3)), requires_grad=True)}
    before = p["w"].data.copy()
    opt = Adam([Bare(p)], lr=0.0)
    (p["w"] * p["w"]).sum().backward()
    opt.step()
    assert np.array_equal(p["w"].data, before)


def test_adam_descends_quadratic():
    p = {"w": Tensor(np.array([3.0, -2.0]), requires_grad=True)}
    opt = Adam([Bare(p)], lr=0.1)
    for _ in range(200):
        opt.zero_grad()
        (p["w"] * p["w"]).sum().backward()
        opt.step()
    assert np.abs(p["w"].data).max() < 0.05


def test_adam_skips_gradless_params():
    p = {"w": Tensor(np.ones(3), requires_grad=True),
         "frozen": Tensor(np.ones(3), requires_grad=True)}
    opt = Adam([Bare(p)], lr=0.5)
    (p["w"].sum()).backward()
    opt.step()
    assert np.array_equal(p["frozen"].data, np.ones(3))
    assert not np.array_equal(p["w"].data, np.ones(3))


# -- losses --------------------------------------------------------------


def test_recommendation_loss_certain_prediction():
    bb = Backbone(small_model(n_items=6, d_m=8, heads=2, layers=1))
    emb = bb.params()["tok_emb"]
    hidden = bb.encode([0, 1])
    h_last = hidden.data[-1]
    emb.data[3] = 50.0 * h_last / np.linalg.norm(h_last) ** 2  # scores[3] = 50
    hidden = bb.encode([0, 1])
    assert greedy_recommend(bb, hidden[-1:]) == 3
    assert recommendation_loss(bb, hidden[-1:], [3]).item() < 1e-6


def test_recommendation_loss_two_way_tie():
    bb = Backbone(small_model(n_items=6, d_m=8, heads=2, layers=1))
    emb = bb.params()["tok_emb"]
    emb.data[:] = 0.0
    hidden = bb.encode([0, 1])
    h_last = hidden.data[-1]
    emb.data[2] = 40.0 * h_last / np.linalg.norm(h_last) ** 2
    emb.data[4] = emb.data[2]  # two items tie at probability ~0.5 each
    hidden = bb.encode([0, 1])
    loss = recommendation_loss(bb, hidden[-1:], [2])
    assert loss.item() == pytest.approx(np.log(2), abs=1e-6)


def test_batch_loss_is_mean(corpus):
    # one log-softmax over the minibatch's scores, mixed history lengths
    _, split, _ = corpus
    bb = Backbone(small_model())
    samples = [s for s in split.train if len(s.history) in (1, 3, 10)][:6]
    assert len({len(s.history) for s in samples}) > 1
    losses = []
    for s in samples:
        _, hidden = run_reasoning(bb, None, s.history, 2)
        losses.append(recommendation_loss(bb, hidden, [s.target]).item())
    _, final = run_reasoning(bb, None, [s.history for s in samples], 2)
    batched = recommendation_loss(bb, final, np.array([s.target for s in samples]))
    assert batched.item() == pytest.approx(np.mean(losses), abs=1e-12)


def test_monotonicity_loss_examples():
    assert monotonicity_loss(Tensor([[0.7], [0.4]])).item() == 0.0
    assert monotonicity_loss(Tensor([[0.4], [0.9]])).item() == pytest.approx(0.5, abs=1e-15)
    assert monotonicity_loss(Tensor([[0.3, 0.2]])).item() == 0.0  # single step


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.floats(min_value=0.0, max_value=3.0), min_size=2, max_size=2),
                min_size=1, max_size=6))
@example([[0.0, 0.0], [0.0, 5e-324]])  # an increase whose mean hinge underflows to 0
def test_monotonicity_loss_property(f_rows):
    # the mean of the hinge terms, against numpy's own; "zero iff
    # non-increasing" cannot hold in float64, where a mean can underflow
    arr = np.array(f_rows)
    val = monotonicity_loss(Tensor(arr)).item()
    hinge = np.maximum(arr[1:] - arr[:-1], 0.0)
    assert val >= 0.0
    assert val == pytest.approx(hinge.mean() if hinge.size else 0.0, rel=1e-12, abs=1e-300)
    if np.all(arr[1:] <= arr[:-1]):
        assert val == 0.0


def test_verifier_loss_reference_values():
    bank = make_bank([("a", 4)], d_m=8, seed=0)
    v = bank.verifiers[0]
    v.w_last.data[:] = 0.0
    v.b_last.data[:] = 0.0  # uniform prediction
    bank.router.a.data[:] = 0.0
    r, owner = Tensor(np.ones((1, 8))), np.zeros(1, dtype=int)
    pos = verifier_loss(bank, r, owner, np.array([[2]]), alpha=1.0)
    assert pos.item() == pytest.approx(np.log(4), abs=1e-12)
    neg = verifier_loss(bank, r, owner, np.array([[-1]]), alpha=1.0)
    assert neg.item() == pytest.approx(-np.log(4), abs=1e-12)

    v.b_last.data[:] = [0.0, 0.0, 60.0, 0.0]  # certain correct prediction
    assert verifier_loss(bank, r, owner, np.array([[2]])).item() < 1e-9


def test_verifier_loss_adds_terms_step_by_step():
    # one fused step over the stacked rows gives the bits of summing the
    # per-step, per-dimension terms one by one and scaling by 1/count
    bank = make_bank([("a", 4), ("b", 3), ("c", 5)], d_m=8, seed=3)
    for t in bank.params().values():
        t.data[...] = Rng(4).normal(t.shape)
    rows, labels = Rng(5).normal((4, 8)), np.array([1, 2, 0])
    pos = neg = 0.0
    for row in rows:
        verdict = verify_and_adjust(bank, Tensor(row[None]))
        for i, p in enumerate(probabilities(verdict)):
            pos += -np.log(p.data[0, labels[i]])
            neg += verdict.f.data[0, i] * -0.7
    owner = np.zeros(4, dtype=int)  # one trace of four steps
    assert verifier_loss(bank, Tensor(rows), owner, labels[None]).item() == pos * (1.0 / 12)
    assert verifier_loss(bank, Tensor(rows), owner, np.full((1, 3), -1), alpha=0.7).item() \
        == neg * (1.0 / 12)


def test_collect_refuses_labeling_missing_items(corpus):
    # a labeling of 4 items on a 6-item model would record target 5 as a miss
    items, split, _ = corpus
    bb = Backbone(small_model(n_items=6, d_m=8, layers=1))
    short = build_labeling("title", items[:4], d_i=2, seed=0)
    samples = [Sample(user=0, history=[0, 1], target=5)]
    with pytest.raises(ValueError, match="'title' covers 4 items, but the model has 6"):
        collect_verifier_dataset(bb, samples, [short], m=2)
    full = build_labeling("title", items[:6], d_i=2, seed=0)
    full.labels[2] = 2  # a class outside 0..d_i-1, set after construction
    with pytest.raises(ValueError, match="'title' has classes outside 0..1"):
        collect_verifier_dataset(bb, samples, [full], m=2)


def test_finetune_refuses_labeling_missing_items(corpus):
    items, _, _ = corpus
    bb = Backbone(small_model(n_items=6, d_m=8, layers=1))
    short = build_labeling("title", items[:4], d_i=2, seed=0)
    bank = make_bank([("title", 2)], d_m=8, seed=0)
    before = [p.data.copy() for p in list(bb.params().values()) + list(bank.params().values())]
    samples = [Sample(user=0, history=[0, 1], target=5)]
    with pytest.raises(ValueError, match="'title' covers 4 items, but the model has 6"):
        finetune(bb, bank, samples, [short], TrainHyper(epochs=1))
    after = [p.data for p in list(bb.params().values()) + list(bank.params().values())]
    assert all(np.array_equal(a, b) for a, b in zip(before, after))


def test_verifier_loss_empty_trace():
    bank = make_bank([("a", 3)], d_m=8, seed=0)
    with pytest.raises(ValueError, match="non-empty"):
        verifier_loss(bank, Tensor(np.zeros((0, 8))), np.zeros(0, dtype=int), np.array([[0]]))


# -- stage 0 -------------------------------------------------------------


def test_pretrain_loss_strictly_decreases(corpus):
    _, split, _ = corpus
    bb = Backbone(small_model())
    losses = pretrain_backbone(bb, split.train, TrainHyper(lr=3e-3, epochs=3, batch=16, seed=42))
    assert all(b < a for a, b in zip(losses, losses[1:]))


def test_pretrain_deterministic(corpus):
    _, split, _ = corpus
    h = TrainHyper(lr=3e-3, epochs=1, batch=16, seed=42)
    a, b = Backbone(small_model()), Backbone(small_model())
    pretrain_backbone(a, split.train[:40], h)
    pretrain_backbone(b, split.train[:40], h)
    for k in a.params():
        assert np.array_equal(a.params()[k].data, b.params()[k].data)


def test_pretrain_m0_plain_next_item(corpus):
    _, split, _ = corpus
    bb = Backbone(small_model(m=0))
    losses = pretrain_backbone(bb, split.train[:30], TrainHyper(lr=3e-3, epochs=2, batch=16, seed=1))
    assert losses[1] < losses[0]


def test_pretrain_nan_failure_names_epoch(corpus):
    _, split, _ = corpus
    bb = Backbone(small_model())
    bb.params()["tok_emb"].data[0, 0] = np.nan
    with pytest.raises(FloatingPointError, match="epoch 0"):
        pretrain_backbone(bb, split.train[:8], TrainHyper(epochs=1, batch=8, seed=0))


def test_fit_restores_tracking_after_non_finite_loss():
    was_tracked = Tensor(np.ones(2), requires_grad=True)
    untracked = Tensor(np.ones(2))

    def batch_losses(idx):
        assert was_tracked.requires_grad and untracked.requires_grad
        return {"total": (was_tracked * np.nan).sum() + untracked.sum()}

    with pytest.raises(FloatingPointError, match="probe: loss became nan at epoch 0"):
        _fit("probe", [Bare({"a": was_tracked, "b": untracked})], 4,
             TrainHyper(epochs=1, batch=2), 99, batch_losses, None)
    assert was_tracked.requires_grad and not untracked.requires_grad


def test_stages_leave_nothing_tracked(corpus):
    _, split, labelings = corpus
    bb = Backbone(small_model())
    bank = make_bank([(l.dimension, l.d_i) for l in labelings], d_m=24, seed=0)
    hyper = TrainHyper(epochs=1, batch=8, seed=0)
    pretrain_backbone(bb, split.train[:8], hyper)
    dataset = collect_verifier_dataset(bb, split.train[:8], labelings, m=2)
    pretrain_verifiers(bank, dataset, hyper)
    finetune(bb, bank, split.train[:8], labelings, hyper, valid_samples=split.valid[:4])
    params = list(bb.params().values()) + list(bank.params().values())
    assert not any(p.requires_grad for p in params)
    trace, hidden = run_reasoning(bb, bank, split.test[0].history, 2)
    outputs = [hidden] + [t for raw, adj, v in trace.steps
                          for t in [raw, adj, v.w, *probabilities(v), *v.f]]
    assert all(t._vjp is None and t._children == () for t in outputs)
    assert recommendation_loss(bb, hidden, [0])._vjp is None


def test_stages_without_samples_raise(corpus):
    _, _, labelings = corpus
    bb = Backbone(small_model())
    bank = make_bank([(l.dimension, l.d_i) for l in labelings], d_m=24, seed=0)
    with pytest.raises(ValueError, match="pretrain_backbone: no samples to fit"):
        pretrain_backbone(bb, [], TrainHyper(epochs=1))
    with pytest.raises(ValueError, match="finetune: no samples to fit"):
        finetune(bb, bank, [], labelings, TrainHyper(epochs=1))
    assert pretrain_backbone(bb, [], TrainHyper(epochs=0)) == []


def test_training_log_csv(tmp_path, corpus):
    _, split, _ = corpus
    bb = Backbone(small_model())
    path = tmp_path / "log.csv"
    pretrain_backbone(bb, split.train[:20], TrainHyper(epochs=2, batch=10, seed=0), log_path=path)
    text = path.read_bytes().decode("utf-8")
    assert "\r" not in text
    lines = text.splitlines()
    assert lines[0] == "epoch,L_r,L_v,L_m,total,val_recall@5,wall_seconds"
    assert len(lines) == 3


# -- stage 1 -------------------------------------------------------------


def test_collect_all_positive_when_targets_match_greedy(corpus):
    items, split, labelings = corpus
    bb = Backbone(small_model())
    samples = []
    for s in split.train[:12]:
        _, hidden = run_reasoning(bb, None, s.history, 2)
        samples.append(Sample(user=s.user, history=s.history,
                              target=greedy_recommend(bb, hidden)))
    ds = collect_verifier_dataset(bb, samples, labelings, m=2)
    assert ds.positive.all()
    for labels, s in zip(ds.labels, samples):
        expected = [lab.labels[s.target] for lab in labelings]
        assert labels.tolist() == expected


def test_collect_all_negative_when_targets_never_match(corpus):
    items, split, labelings = corpus
    bb = Backbone(small_model())
    samples = []
    for s in split.train[:12]:
        _, hidden = run_reasoning(bb, None, s.history, 2)
        samples.append(Sample(user=s.user, history=s.history,
                              target=(greedy_recommend(bb, hidden) + 1) % 24))
    ds = collect_verifier_dataset(bb, samples, labelings, m=2)
    assert (ds.labels == -1).all()


def test_collect_partition_matches_replay(corpus):
    items, split, labelings = corpus
    bb = Backbone(small_model())
    pretrain_backbone(bb, split.train, TrainHyper(lr=3e-3, epochs=1, batch=16, seed=42))
    ds = collect_verifier_dataset(bb, split.train, labelings, m=2)
    for positive, s in zip(ds.positive, split.train):
        _, hidden = run_reasoning(bb, None, s.history, 2)
        hit = greedy_recommend(bb, hidden) == s.target
        assert positive == hit


def test_collect_stores_adjusted_steps(corpus):
    _, split, labelings = corpus
    bb = Backbone(small_model())
    ds = collect_verifier_dataset(bb, split.train[:4], labelings, m=3)
    for r_steps, s in zip(ds.r_steps, split.train[:4]):
        trace, _ = run_reasoning(bb, None, s.history, 3)
        assert r_steps.shape == (3, 24)
        # collected in one padded batch: equal to the request's steps up to
        # the grouping of sums
        assert np.abs(r_steps - np.stack([r.data[0] for r in trace.adjusted()])).max() <= 1e-12


def test_pretrain_verifiers_fits_planted_structure(corpus):
    _, split, labelings = corpus
    bb = Backbone(small_model())
    pretrain_backbone(bb, split.train, TrainHyper(lr=3e-3, epochs=3, batch=16, seed=42))
    ds = collect_verifier_dataset(bb, split.train, labelings, m=2)
    assert ds.positive.sum() > 0
    bank = make_bank([(l.dimension, l.d_i) for l in labelings], d_m=24, seed=42)
    history = pretrain_verifiers(bank, ds, TrainHyper(lr=3e-3, epochs=5, batch=16, seed=42))
    acc, neg_h = history[-1]
    assert acc >= 0.95
    assert neg_h >= 0.8 * np.log(4)


def test_pretrain_verifiers_deterministic(corpus):
    _, split, labelings = corpus
    bb = Backbone(small_model())
    ds = collect_verifier_dataset(bb, split.train[:40], labelings, m=2)
    banks = []
    for _ in range(2):
        bank = make_bank([(l.dimension, l.d_i) for l in labelings], d_m=24, seed=7)
        pretrain_verifiers(bank, ds, TrainHyper(lr=3e-3, epochs=2, batch=16, seed=7))
        banks.append(bank)
    for k in banks[0].params():
        assert np.array_equal(banks[0].params()[k].data, banks[1].params()[k].data)


def test_pretrain_verifiers_empty_dataset():
    bank = make_bank([("a", 3)], d_m=8, seed=0)
    with pytest.raises(ValueError, match="empty"):
        pretrain_verifiers(bank, VerifierData(r_steps=np.zeros((0, 2, 8)),
                                              labels=np.zeros((0, 1), dtype=np.int64)),
                           TrainHyper())


def test_pretrain_verifiers_without_latent_steps():
    bank = make_bank([("a", 3)], d_m=8, seed=0)
    before = {k: v.data.copy() for k, v in bank.params().items()}
    ds = VerifierData(r_steps=np.zeros((2, 0, 8)), labels=np.array([[-1], [1]]))
    assert pretrain_verifiers(bank, ds, TrainHyper(epochs=2)) == []
    for k, v in bank.params().items():
        assert np.array_equal(v.data, before[k])


# -- stage 2 -------------------------------------------------------------


def test_finetune_total_recomposes(corpus):
    _, split, labelings = corpus
    bb = Backbone(small_model())
    bank = make_bank([(l.dimension, l.d_i) for l in labelings], d_m=24, seed=42)
    hyper = TrainHyper(lr=1e-3, epochs=2, batch=16, beta=0.7, gamma=0.3, seed=42)
    rows = finetune(bb, bank, split.train[:48], labelings, hyper)
    for row in rows:
        recomposed = row["L_r"] + hyper.beta * row["L_v"] + hyper.gamma * row["L_m"]
        assert abs(recomposed - row["total"]) < 1e-10


def test_finetune_beta_gamma_zero_tracks_l_r(corpus):
    _, split, labelings = corpus
    bb = Backbone(small_model())
    bank = make_bank([(l.dimension, l.d_i) for l in labelings], d_m=24, seed=42)
    rows = finetune(bb, bank, split.train[:32], labelings,
                    TrainHyper(lr=1e-3, epochs=1, batch=16, beta=0.0, gamma=0.0, seed=0))
    assert rows[0]["total"] == pytest.approx(rows[0]["L_r"], abs=1e-15)


def test_finetune_logs_validation_recall(tmp_path, corpus):
    _, split, labelings = corpus
    bb = Backbone(small_model())
    bank = make_bank([(l.dimension, l.d_i) for l in labelings], d_m=24, seed=42)
    path = tmp_path / "ft.csv"
    rows = finetune(bb, bank, split.train[:32], labelings,
                    TrainHyper(lr=1e-3, epochs=1, batch=16, seed=0),
                    valid_samples=split.valid, log_path=path)
    assert 0.0 <= rows[0]["val_recall@5"] <= 1.0
    header = path.read_text(encoding="utf-8").splitlines()[0]
    assert header.split(",")[5] == "val_recall@5"


def test_finetune_deterministic(corpus):
    _, split, labelings = corpus
    results = []
    for _ in range(2):
        bb = Backbone(small_model())
        bank = make_bank([(l.dimension, l.d_i) for l in labelings], d_m=24, seed=3)
        finetune(bb, bank, split.train[:32], labelings,
                 TrainHyper(lr=1e-3, epochs=1, batch=16, seed=3))
        results.append((bb, bank))
    (a_bb, a_bank), (b_bb, b_bank) = results
    for k in a_bb.params():
        assert np.array_equal(a_bb.params()[k].data, b_bb.params()[k].data)
    for k in a_bank.params():
        assert np.array_equal(a_bank.params()[k].data, b_bank.params()[k].data)


def test_hyper_validation():
    with pytest.raises(ValueError, match="non-negative"):
        TrainHyper(beta=-0.1)


# -- logs ----------------------------------------------------------------


def read_log(path):
    with path.open(encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def test_stage_logs_match_returned_history(tmp_path, corpus):
    _, split, labelings = corpus
    bb = Backbone(small_model())
    hyper = TrainHyper(lr=3e-3, epochs=2, batch=8, seed=5)

    losses = pretrain_backbone(bb, split.train[:16], hyper, log_path=tmp_path / "s0.csv")
    rows = read_log(tmp_path / "s0.csv")
    assert [float(r["L_r"]) for r in rows] == losses
    assert [float(r["total"]) for r in rows] == losses
    assert all(r["L_v"] == r["L_m"] == "0.0" and r["val_recall@5"] == "" for r in rows)

    ds = collect_verifier_dataset(bb, split.train[:16], labelings, m=2)
    bank = make_bank([(l.dimension, l.d_i) for l in labelings], d_m=24, seed=5)
    history = pretrain_verifiers(bank, ds, hyper, log_path=tmp_path / "s1.csv")
    rows = read_log(tmp_path / "s1.csv")
    assert len(rows) == len(history) == 2
    for r in rows:
        assert r["L_r"] == r["L_m"] == r["val_recall@5"] == ""
        assert r["L_v"] == r["total"] != ""

    history = finetune(bb, bank, split.train[:16], labelings, hyper,
                       valid_samples=split.valid[:4], log_path=tmp_path / "s2.csv")
    rows = read_log(tmp_path / "s2.csv")
    assert len(rows) == len(history) == 2
    for r, h in zip(rows, history):
        for key in ("epoch", "L_r", "L_v", "L_m", "total", "val_recall@5"):
            assert r[key] != "" and float(r[key]) == h[key], key
    for r in read_log(tmp_path / "s0.csv") + read_log(tmp_path / "s1.csv") + rows:
        assert float(r["wall_seconds"]) >= 0.0
