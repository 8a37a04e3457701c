"""Verifier mixture tests: routing, prediction, entropy, guidance, adjustment,
and the fused bank step against the per-verifier chain it replaced."""

import numpy as np
import pytest

from oracles import (confidence, confidences, entropy, gelu, grad_check, guidance, matvec,
                     per_verifier_views, probabilities, softmax, verifier_weights)
from vrec.numerics import Rng, Tensor, tracking
from vrec.verifiers import EPSILON, VerifierBank, make_bank, verify_and_adjust


def bank_of(dims, d_m=8, seed=0, **kw):
    return make_bank(dims, d_m=d_m, seed=seed, **kw)


def test_bank_sizes_on_mixed_class_counts():
    bank = bank_of([("a", 4), ("b", 3), ("c", 4), ("d", 2)], d_m=10, hidden_depth=2)
    assert (bank.n, bank.d_m, bank.n_classes) == (len(bank.sizes), bank.router.a.shape[1],
                                                  sum(bank.sizes)) == (4, 10, 13)


def one_verifier_bank(w_last: np.ndarray, b_last: np.ndarray) -> VerifierBank:
    """A linear verifier with this (d_m, d_i) head, under a zero router."""
    bank = VerifierBank([("hand", len(b_last))], d_m=len(w_last))
    w, b = bank.heads[len(b_last)]
    w.data[0], b.data[0] = w_last, b_last
    return bank


def oracle_step(bank: VerifierBank, r: Tensor) -> dict:
    """One representation through the bank as a chain of elementary ops: the
    per-verifier route, predict, entropy, confidence, guidance and averaged
    interpolation that ``verify_and_adjust`` fuses into one node."""
    if bank.uniform_router:
        w = Tensor(np.full(bank.n, 1.0 / bank.n))
    else:
        w = softmax(matvec(bank.router.a, r) + bank.router.bias)
    out = {"w": w, "p": [], "f": [], "c": [], "j_star": [], "g": []}
    acc = None
    for i in range(bank.n):
        hidden, w_last, b_last = verifier_weights(bank, i)
        h = w[i] * r
        for wt, b in hidden:
            h = gelu(matvec(h, wt) + b)
        p = softmax(matvec(h, w_last) + b_last)
        f = entropy(p)
        c = confidence(f, eps=EPSILON)
        j_star = int(np.argmax(p.data))
        g = w_last[:, j_star]
        for key, value in zip(("p", "f", "c", "j_star", "g"), (p, f, c, j_star, g)):
            out[key].append(value)
        term = (-c + 1.0) * r + c * g
        acc = term if acc is None else acc + term
    out["r_star"] = acc * (1.0 / bank.n)
    return out


def test_route_zero_logits_uniform():
    bank = bank_of([("a", 3), ("b", 3), ("c", 3)])
    bank.router.a.data[:] = 0.0
    bank.router.bias.data[:] = 0.0
    w = verify_and_adjust(bank, Tensor(np.ones((1, 8)))).w[0]
    assert np.allclose(w.data, [1 / 3, 1 / 3, 1 / 3], atol=1e-15)


def test_route_single_verifier():
    bank = bank_of([("a", 4)])
    w = verify_and_adjust(bank, Tensor(Rng(1).normal((1, 8)))).w[0]
    assert w.data.shape == (1,) and w.data[0] == pytest.approx(1.0, abs=1e-15)


def test_route_sums_to_one():
    bank = bank_of([("a", 2), ("b", 5)])
    for seed in range(5):
        w = verify_and_adjust(bank, Tensor(Rng(seed).normal((1, 8)))).w[0]
        assert abs(w.data.sum() - 1.0) < 1e-12
        assert np.all(w.data > 0)


def test_route_uniform_router_flag():
    bank = bank_of([("a", 2), ("b", 2)])
    bank.uniform_router = True
    w = verify_and_adjust(bank, Tensor(Rng(2).normal((1, 8)))).w[0]
    assert np.array_equal(w.data, [0.5, 0.5])


def test_predict_zero_weights_uniform():
    bank = bank_of([("a", 4)])
    for t in bank.heads[4]:
        t.data[:] = 0.0
    p = probabilities(verify_and_adjust(bank, Tensor(np.ones((1, 8)))))[0][0]
    assert np.allclose(p.data, 0.25, atol=1e-15)


def test_predict_hand_2x2():
    bank = one_verifier_bank(np.array([[2.0, 0.0], [1.0, 5.0]]), np.zeros(2))
    # a one-verifier router weighs it exactly 1, so the head sees r itself
    p = probabilities(verify_and_adjust(bank, Tensor(np.array([[1.0, 0.0]]))))[0][0]
    # logits = [2, 0]; softmax by hand
    assert p.data == pytest.approx([0.8807970779778823, 0.11920292202211755], abs=1e-15)
    assert abs(p.data.sum() - 1.0) < 1e-12


def test_entropy_reference_values():
    assert entropy(Tensor(np.full(20, 0.05))).item() == pytest.approx(2.995732273553991, abs=1e-12)
    one_hot = np.zeros(6)
    one_hot[2] = 1.0
    assert entropy(Tensor(one_hot)).item() == 0.0
    assert entropy(Tensor([0.5, 0.5])).item() == pytest.approx(0.6931471805599453, abs=1e-15)


def test_guidance_argmax_column():
    # r = 0 leaves the logits at b_last, so p = [0.2, 0.7, 0.1]
    w_last = Rng(3).normal((8, 3))
    verdict = verify_and_adjust(one_verifier_bank(w_last, np.log([0.2, 0.7, 0.1])),
                                Tensor(np.zeros((1, 8))))
    assert probabilities(verdict)[0].data[0] == pytest.approx([0.2, 0.7, 0.1], abs=1e-15)
    assert verdict.j_star[0] == [1]
    assert np.array_equal(guidance(verdict)[0].data[0], w_last[:, 1])


def test_guidance_tie_lowest_index():
    w_last = Rng(4).normal((8, 2))
    verdict = verify_and_adjust(one_verifier_bank(w_last, np.zeros(2)), Tensor(np.zeros((1, 8))))
    assert np.array_equal(probabilities(verdict)[0].data[0], [0.5, 0.5])
    assert verdict.j_star[0] == [0]
    assert np.array_equal(guidance(verdict)[0].data[0], w_last[:, 0])


def test_confidence_cases():
    assert confidence(Tensor(2.0)).item() == 0.5
    assert confidence(Tensor(1.0)).item() == 1.0
    assert confidence(Tensor(0.0)).item() == 1.0


def peaked_bank(d_m=8, d_i=2):
    """Single-verifier bank whose prediction is near one-hot (f << 1, c = 1)."""
    bank = bank_of([("sharp", d_i)], d_m=d_m)
    b_last = bank.heads[d_i][1].data[0]
    b_last[:] = 0.0
    b_last[0] = 30.0
    return bank


def test_adjust_full_replacement_when_confident():
    bank = peaked_bank()
    r = Tensor(Rng(5).normal((1, 8)))
    verdict = verify_and_adjust(bank, r)
    assert confidences(verdict)[0, 0].item() == 1.0
    assert np.array_equal(verdict.r_star.data[0], bank.heads[2][0].data[0, :, 0])


def test_adjust_hand_expansion_two_verifiers():
    bank = bank_of([("a", 4), ("b", 5)], seed=7)
    r = Tensor(Rng(6).normal((1, 8)))
    verdict = verify_and_adjust(bank, r)
    terms = []
    for i in range(2):
        c = confidences(verdict)[0, i].item()
        terms.append((1 - c) * r.data[0] + c * guidance(verdict)[i].data[0])
    hand = (terms[0] + terms[1]) / 2
    assert np.abs(hand - verdict.r_star.data[0]).max() < 1e-12


def test_adjust_guidance_bitwise_columns():
    bank = bank_of([("a", 3), ("b", 4)], seed=8)
    verdict = verify_and_adjust(bank, Tensor(Rng(7).normal((1, 8))))
    for i in range(bank.n):
        w_last = verifier_weights(bank, i)[1].data
        assert np.array_equal(guidance(verdict)[i].data[0], w_last[:, verdict.j_star[0][i]])


def test_adjust_invariants_random_instances():
    rng = Rng(9)
    for trial in range(50):
        n = 1 + trial % 3
        bank = bank_of([(f"d{i}", 2 + (trial + i) % 4) for i in range(n)], seed=trial)
        r = Tensor(rng.normal((1, 8), std=1.0 + trial % 5))
        verdict = verify_and_adjust(bank, r)
        assert abs(verdict.w.data.sum() - 1.0) < 1e-12 and np.all(verdict.w.data > 0)
        for i, d_i in enumerate(bank.sizes):
            f = verdict.f[0, i].item()
            assert 0.0 <= f <= np.log(d_i) + 1e-12
            assert 0.0 < confidences(verdict)[0, i].item() <= 1.0
        norm_bound = max(np.linalg.norm(r.data),
                         max(np.linalg.norm(g.data) for g in guidance(verdict)))
        assert np.linalg.norm(verdict.r_star.data) <= norm_bound + 1e-9


def test_confidence_non_increasing_in_f():
    values = [confidence(Tensor(f)).item() for f in np.linspace(0.0, 5.0, 60)]
    assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))


def test_verify_and_adjust_differentiable():
    bank = bank_of([("a", 4), ("b", 4)], seed=11)
    r = Tensor(Rng(12).normal((1, 8)))
    target = Tensor(Rng(13).normal((1, 8)))

    def loss():
        verdict = verify_and_adjust(bank, r)
        diff = verdict.r_star - target
        return (diff * diff).sum()

    params = [r, bank.router.a, *bank.heads[4]]
    assert grad_check(loss, params) < 1e-5


def test_bank_validation():
    with pytest.raises(ValueError, match="at least one"):
        VerifierBank([], d_m=8)
    for width, depth in ((0, 0), (-1, 3)):
        with pytest.raises(ValueError, match="depth >= 1 and width >= 0"):
            make_bank([("a", 3)], d_m=8, hidden_width=width, hidden_depth=depth)


@pytest.mark.parametrize("d_i", [0, 1])
def test_bank_refuses_fewer_than_two_classes(d_i):
    # a bank of one class or none would build, then fail on its first step
    with pytest.raises(ValueError, match=f"d_i must be an integer >= 2, got {d_i}"):
        make_bank([("a", 3), ("b", d_i)], d_m=8)


def test_mlp_verifier_shapes():
    bank = bank_of([("deep", 4)], d_m=8, hidden_width=16, hidden_depth=3)
    assert [(w.shape, b.shape) for w, b in bank.trunk] == [((1, 8, 16), (1, 16)),
                                                           ((1, 16, 8), (1, 8))]
    assert [(w.shape, b.shape) for w, b in bank.heads.values()] == [((1, 8, 4), (1, 4))]
    p = probabilities(verify_and_adjust(bank, Tensor(Rng(14).normal((1, 8)))))[0]
    assert abs(p.data.sum() - 1.0) < 1e-12


def randomized_bank(n: int, depth: int, uniform: bool, seed: int) -> VerifierBank:
    """A bank whose parameters are drawn at unit scale, so predictions range
    from near-uniform (f > 1, c < 1) to peaked (c = 1). Class counts run
    from 2 to 12, past the 8 terms from which numpy's pairwise sum regroups
    them; a bank of four has two verifiers of one count and one of another."""
    bank = bank_of([(f"d{i}", 2 + (seed + 5 * (i % 3)) % 11) for i in range(n)], d_m=6, seed=seed,
                   hidden_width=5 if depth > 1 else 0, hidden_depth=depth)
    rng = Rng(seed, 1)
    for view in per_verifier_views(bank).values():
        view[...] = rng.normal(view.shape, std=0.8)
    bank.uniform_router = uniform
    return bank


@pytest.mark.parametrize("rows", [1, 2, 3, 4])
@pytest.mark.parametrize("uniform", [False, True], ids=["learned", "uniform"])
@pytest.mark.parametrize("depth", [1, 3])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_fused_step_matches_oracle_chain(n, depth, uniform, rows):
    bank = randomized_bank(n, depth, uniform, seed=10 * n + depth + rows)
    r = Tensor(Rng(n, rows).normal((rows, 6), std=1.5))
    tracked = list(bank.params().values()) + [r]
    # a scalar that depends on every output: r*, w, p, f and c
    rng = Rng(n + depth, rows)
    coef_r, coef_w, coef_f, coef_c = (rng.normal((rows, k)) for k in (6, n, n, n))
    coef_p = [rng.normal((rows, d_i)) for d_i in bank.sizes]

    with tracking(tracked):
        verdict = verify_and_adjust(bank, r)
        loss = ((verdict.r_star * coef_r).sum() + (verdict.w * coef_w).sum()
                + (verdict.f * coef_f).sum() + (confidences(verdict) * coef_c).sum())
        for p, k in zip(probabilities(verdict), coef_p):
            loss = loss + (p * k).sum()
        loss.backward()
    fused_grads = [t.grad.copy() for t in tracked]

    with tracking(tracked):
        ref_loss = None
        for b in range(rows):
            ref = oracle_step(bank, r[b])
            # every value has the chain's bits, whatever rows share the batch
            assert verdict.j_star[b] == ref["j_star"]
            assert np.array_equal(verdict.r_star.data[b], ref["r_star"].data)
            assert np.array_equal(verdict.w.data[b], ref["w"].data)
            term = (ref["r_star"] * coef_r[b]).sum() + (ref["w"] * coef_w[b]).sum()
            for i in range(n):
                assert np.array_equal(probabilities(verdict)[i].data[b], ref["p"][i].data)
                assert verdict.f.data[b, i] == ref["f"][i].item()
                assert confidences(verdict).data[b, i] == ref["c"][i].item()
                term = (term + (ref["p"][i] * coef_p[i][b]).sum()
                        + ref["f"][i] * coef_f[b, i] + ref["c"][i] * coef_c[b, i])
            ref_loss = term if ref_loss is None else ref_loss + term
        ref_loss.backward()
    for got, want in zip(fused_grads, (t.grad for t in tracked)):
        assert np.abs(got - want).max() <= 1e-12


@pytest.mark.parametrize("uniform", [False, True], ids=["learned", "uniform"])
@pytest.mark.parametrize("depth", [1, 3])
def test_fused_step_single_row_guidance(depth, uniform):
    for seed in range(6):
        bank = randomized_bank(1 + seed % 4, depth, uniform, seed)
        r = Tensor(Rng(seed, 2).normal(6, std=1.5))
        verdict, ref = verify_and_adjust(bank, Tensor(r.data[None])), oracle_step(bank, r)
        assert verdict.r_star.shape == (1, 6) and verdict.f.shape == (1, bank.n)
        assert np.array_equal(verdict.r_star.data[0], ref["r_star"].data)
        assert verdict.j_star[0] == ref["j_star"]
        for i in range(bank.n):
            col = np.ascontiguousarray(verifier_weights(bank, i)[1].data[:, verdict.j_star[0][i]])
            assert guidance(verdict)[i].data[0].tobytes() == col.tobytes()


def count_tensors(monkeypatch) -> list:
    made = []
    init = Tensor.__init__

    def counting(self, *args, **kwargs):
        made.append(1)
        init(self, *args, **kwargs)
    monkeypatch.setattr(Tensor, "__init__", counting)
    return made


def test_served_step_builds_at_most_five_tensors(monkeypatch):
    bank = bank_of([("a", 4), ("b", 3), ("c", 5)], hidden_width=6, hidden_depth=3)
    r = Tensor(Rng(15).normal((1, 8)))
    made = count_tensors(monkeypatch)
    verify_and_adjust(bank, r).r_star
    assert 0 < len(made) <= 5
