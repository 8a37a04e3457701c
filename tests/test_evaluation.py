"""Metric, pipeline, ablation, scaling, sweep, and timing tests."""

import csv
import json
import threading
import time
from dataclasses import replace

import numpy as np
import pytest

import vrec.pipeline
from vrec import evaluation as evaluation_module
from vrec.backbone import Backbone, KVCache, ModelConfig
from vrec.config import RunConfig
from vrec.datasets import SynthConfig, chronological_split, generate_synthetic
from vrec.evaluation import (
    MIN_TIMED_REQUESTS,
    REFERENCE_OVERHEAD_PCT,
    WARMUP_REQUESTS,
    config_fingerprint,
    evaluate,
    ndcg_at_k,
    recall_at_k,
    timing_overhead,
    write_metrics_csv,
)
from vrec.labeling import build_labeling, class_table
from vrec.pipeline import SWEEPS, ablate, run_pipeline, step_scalability, sweep
from vrec.reasoning import run_reasoning
from vrec.training import TrainHyper, collect_verifier_dataset
from vrec.verifiers import make_bank

MICRO_SYNTH = SynthConfig(n_users=8, n_items=12, n_groups=3, stickiness=0.9,
                          seq_len_range=(12, 16), seed=1)
MICRO_MODEL = ModelConfig(d_m=8, layers=1, heads=1, n_items=12, max_positions=16,
                          m=1, seed=1)
MICRO_HYPER = TrainHyper(lr=1e-3, epochs=1, batch=8, seed=1)
MICRO_DIMS = [("category", 3)]
MICRO_RUN = RunConfig(seed=1, synth=MICRO_SYNTH, hyper=MICRO_HYPER, dimensions=MICRO_DIMS,
                      model={"d_m": 8, "layers": 1, "heads": 1, "max_positions": 16, "m": 1})


# -- metric definitions ----------------------------------------------------


def test_recall_examples():
    assert recall_at_k([3, 1, 2], target=1, k=1) == 0.0
    assert recall_at_k([3, 1, 2], target=1, k=2) == 1.0
    assert recall_at_k([3, 1, 2], target=9, k=3) == 0.0


def test_ndcg_examples():
    assert ndcg_at_k([7, 1, 2], target=7, k=5) == 1.0
    assert ndcg_at_k([7, 1, 2], target=1, k=5) == pytest.approx(1.0 / np.log2(3), abs=1e-15)
    assert ndcg_at_k([7, 1, 2], target=2, k=5) == pytest.approx(0.5, abs=1e-15)
    assert ndcg_at_k([7, 1, 2], target=2, k=2) == 0.0


def test_metric_batch_mean():
    ranked_lists = [[0, 1, 2], [1, 0, 2], [2, 1, 0], [2, 0, 1]]
    hits = [recall_at_k(r, target=0, k=1) for r in ranked_lists]
    assert np.mean(hits) == 0.25


# -- evaluate --------------------------------------------------------------


def test_evaluate_matches_direct_ranking():
    items, logs, _ = generate_synthetic(MICRO_SYNTH)
    split = chronological_split(logs)
    bb = Backbone(MICRO_MODEL)
    report = evaluate(bb, None, split.test, m=0, ks=(1, 5))

    emb = bb.params()["tok_emb"].data
    exp_recall = {1: 0.0, 5: 0.0}
    exp_ndcg = {1: 0.0, 5: 0.0}
    for s in split.test:
        hidden = bb.encode(s.history, cache=KVCache())
        scores = emb[: MICRO_MODEL.n_items] @ hidden.data[-1]
        order = np.lexsort((np.arange(len(scores)), -scores))
        for k in (1, 5):
            top = order[:k].tolist()
            exp_recall[k] += float(s.target in top)
            if s.target in top:
                exp_ndcg[k] += 1.0 / np.log2(top.index(s.target) + 2)
    n = len(split.test)
    for k in (1, 5):
        assert report.recall[k] == pytest.approx(exp_recall[k] / n, abs=1e-12)
        assert report.ndcg[k] == pytest.approx(exp_ndcg[k] / n, abs=1e-12)
    assert report.n_samples == n


def test_evaluate_deterministic():
    _, logs, _ = generate_synthetic(MICRO_SYNTH)
    split = chronological_split(logs)
    bb = Backbone(MICRO_MODEL)
    bank = make_bank([("a", 3)], d_m=8, seed=1)
    a = evaluate(bb, bank, split.test, m=1)
    b = evaluate(bb, bank, split.test, m=1)
    assert a.recall == b.recall and a.ndcg == b.ndcg
    assert a.fingerprint == b.fingerprint


def test_evaluate_empty_samples():
    # a report of 0.0 over no samples reads as a model that never hits
    bb = Backbone(MICRO_MODEL)
    with pytest.raises(ValueError, match="evaluate: no samples to rank"):
        evaluate(bb, None, [], m=0)


def test_fingerprint_order_independent():
    assert config_fingerprint({"a": 1, "b": 2}) == config_fingerprint({"b": 2, "a": 1})
    assert config_fingerprint({"a": 1}) != config_fingerprint({"a": 2})


# -- CSV writer ------------------------------------------------------------


def test_metrics_csv_exact_bytes(tmp_path):
    path = tmp_path / "m.csv"
    write_metrics_csv(path, [{"variant": "full", "recall@5": 0.5, "n_samples": 8},
                             {"variant": "ablated", "recall@5": 1 / 3}],
                      ["variant", "recall@5", "n_samples"])
    raw = path.read_bytes()
    assert raw == b"variant,recall@5,n_samples\nfull,0.5,8\nablated,0.3333333333333333,\n"


# -- pipeline --------------------------------------------------------------


def test_run_pipeline_writes_artifacts(tmp_path):
    out = tmp_path / "run"
    result = run_pipeline(replace(MICRO_RUN, out=out))
    for name in ("stage0.ckpt", "stage1.ckpt", "final.ckpt", "stage0_log.csv",
                 "stage1_log.csv", "stage2_log.csv", "metrics.csv", "report.json"):
        assert (out / name).exists(), name
    assert result.bank is not None
    assert result.report.n_samples == len(result.split.test)

    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert report["fingerprint"] == result.report.fingerprint
    assert report["recall"]["5"] == result.report.recall[5]

    with (out / "metrics.csv").open(encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["variant"] == "final"
    assert float(rows[0]["recall@5"]) == result.report.recall[5]


def test_run_pipeline_refuses_empty_test_split_before_stage0(tmp_path, monkeypatch):
    trained = []
    monkeypatch.setattr(vrec.pipeline, "pretrain_backbone", lambda *a, **k: trained.append(a))
    short = replace(MICRO_RUN, synth=replace(MICRO_SYNTH, seq_len_range=(3, 10)))
    with pytest.raises(ValueError, match="the test split is empty: no log has 11 interactions"):
        run_pipeline(short)
    assert not trained


def test_run_pipeline_refuses_category_d_i_other_than_the_corpus_before_stage0(
        tmp_path, monkeypatch):
    # an ingested corpus's categories are counted only when it loads, so
    # RunConfig accepts d_i=5 and run_pipeline refuses it for the corpus's
    # 3 categories, after loading and before stage 0 trains
    items, interactions = tmp_path / "items.jsonl", tmp_path / "interactions.jsonl"
    items.write_text("".join(json.dumps({"id": i, "title": f"item {i}", "category": "abc"[i % 3]})
                             + "\n" for i in range(12)), encoding="utf-8")
    interactions.write_text("".join(json.dumps({"user": u, "items": [(u + 5 * t) % 12 for t in
                                                                     range(14)],
                                                "timestamps": list(range(14))}) + "\n"
                                    for u in range(8)), encoding="utf-8")
    cfg = replace(MICRO_RUN, synth=None, items_path=items, interactions_path=interactions,
                  dimensions=[("category", 5)])
    trained = []
    monkeypatch.setattr(vrec.pipeline, "pretrain_backbone", lambda *a, **k: trained.append(a))
    with pytest.raises(ValueError, match="'category': d_i=5, but the corpus has 3 categories"):
        run_pipeline(cfg)
    assert not trained


def test_d_i_sweep_leaves_the_category_count():
    # 20 items: an unset cf d_i is labeling.DEFAULT_CLASS_COUNT, which 12 could not hold
    edited = SWEEPS["d_i"](replace(MICRO_RUN, synth=replace(MICRO_SYNTH, n_items=20),
                                   dimensions=[("category", 3), ("title", 3), ("cf", None)]), 5)
    assert edited.dimensions == [("category", 3), ("title", 5), ("cf", 5)]


def test_run_pipeline_without_bank(tmp_path):
    out = tmp_path / "nb"
    result = run_pipeline(replace(MICRO_RUN, dimensions=[], out=out))
    assert result.bank is None
    assert not (out / "stage1.ckpt").exists()
    assert (out / "final.ckpt").exists()


def test_labeling_of_other_items_refused_before_collection():
    # a model of 14 items over a 12-item corpus: its labelings miss items 12, 13
    items, logs, _ = generate_synthetic(MICRO_SYNTH)
    labelings = [build_labeling("category", items)]
    message = "'category' covers 12 items, but the model has 14"
    with pytest.raises(ValueError, match=message):
        class_table(labelings, 14)
    backbone = Backbone(replace(MICRO_MODEL, n_items=14))
    with pytest.raises(ValueError, match=message):
        collect_verifier_dataset(backbone, chronological_split(logs).train, labelings, m=1)


# -- ablation --------------------------------------------------------------


def test_ablate_unknown_variant():
    with pytest.raises(ValueError, match="unknown ablation variant"):
        ablate(MICRO_RUN, variants=["bogus"])


def test_ablate_single_dimension_not_configured():
    with pytest.raises(ValueError, match="not configured"):
        ablate(MICRO_RUN, variants=["single-cf"])


def test_ablate_default_is_full(tmp_path):
    rows = ablate(replace(MICRO_RUN, out=tmp_path))
    assert [r["variant"] for r in rows] == ["full"]
    assert (tmp_path / "ablation.csv").exists()


def test_ablate_rows_per_variant(tmp_path):
    rows = ablate(replace(MICRO_RUN, out=tmp_path), variants=["full", "no-verifier"])
    assert [r["variant"] for r in rows] == ["full", "no-verifier"]
    for row in rows:
        assert 0.0 <= row["recall@5"] <= 1.0
        assert 0.0 <= row["ndcg@10"] <= 1.0
    lines = (tmp_path / "ablation.csv").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 3


# a run on which each variant below changes the row
VARIANT_HYPER = replace(MICRO_HYPER, lr=1e-2, epochs=2)
VARIANT_RUN = replace(MICRO_RUN, model={**MICRO_RUN.model, "d_m": 16, "heads": 2, "m": 2},
                      hyper=VARIANT_HYPER, dimensions=[("category", 3), ("title", 3)])


@pytest.mark.parametrize("variant, explicit", [
    ("no-monotonicity", {"hyper": replace(VARIANT_HYPER, gamma=0.0)}),
    ("no-router", {"uniform_router": True}),
    ("no-pretrain", {"stage1_epochs": 0}),
    ("single-title", {"dimensions": [("title", 3)]}),
])
def test_variant_is_its_explicit_run(variant, explicit):
    [row] = ablate(VARIANT_RUN, variants=[variant])
    report = run_pipeline(replace(VARIANT_RUN, **explicit)).report
    assert row == {"variant": variant, "recall@5": report.recall[5], "ndcg@5": report.ndcg[5],
                   "recall@10": report.recall[10], "ndcg@10": report.ndcg[10],
                   "n_samples": report.n_samples}


# -- scaling and sweeps ------------------------------------------------------


def test_step_scalability_m_zero(tmp_path):
    rows = step_scalability(replace(MICRO_RUN, out=tmp_path), steps=[0])
    assert rows[0]["m"] == 0
    assert 0.0 <= rows[0]["recall@5"] <= 1.0
    assert (tmp_path / "steps.csv").exists()


STUDY_METRICS = ("recall@5", "ndcg@5", "recall@10", "ndcg@10", "n_samples")


def _metrics(row: dict) -> tuple:
    return tuple(row[key] for key in STUDY_METRICS)


def test_step_scalability_matches_m_sweep():
    steps = step_scalability(MICRO_RUN, [0, 1])
    swept = sweep(MICRO_RUN, "m", [0, 1])
    for row, swept_row in zip(steps, swept):
        assert row["m"] == swept_row["value"]
        assert _metrics(row) == _metrics(swept_row)


def test_step_scan_runs_the_config_it_is_given():
    # a model seed and a corpus seed other than the master seed: at every m
    # the step-scan row is the m sweep's row and the report of the run itself
    cfg = replace(MICRO_RUN, synth=replace(MICRO_SYNTH, seed=11),
                  model={**MICRO_RUN.model, "seed": 3})
    steps = [0, 1, 2]
    for m, row, swept_row in zip(steps, step_scalability(cfg, steps), sweep(cfg, "m", steps)):
        report = run_pipeline(cfg.with_m(m)).report
        assert row["m"] == m
        assert _metrics(row) == _metrics(swept_row) == (
            report.recall[5], report.ndcg[5], report.recall[10], report.ndcg[10],
            report.n_samples)


def test_sweep_unknown_param():
    with pytest.raises(ValueError, match="unknown sweep parameter"):
        sweep(MICRO_RUN, "dropout", [0.1])


def test_sweep_single_value(tmp_path):
    rows = sweep(replace(MICRO_RUN, out=tmp_path), "beta", [0.0])
    assert rows[0]["param"] == "beta"
    assert rows[0]["value"] == 0.0
    assert 0.0 <= rows[0]["recall@5"] <= 1.0
    assert (tmp_path / "sweep_beta.csv").exists()


# -- timing ------------------------------------------------------------------


def test_timing_overhead_smoke(tmp_path):
    _, logs, _ = generate_synthetic(MICRO_SYNTH)
    split = chronological_split(logs)
    bb = Backbone(MICRO_MODEL)
    bank = make_bank([("a", 3)], d_m=8, seed=1)
    result = timing_overhead(bb, bank, split.test, steps=[1], out_dir=tmp_path)
    row = result["rows"][0]
    assert row["m"] == 1
    assert row["t_without_s"] > 0 and row["t_with_s"] > 0
    assert np.isfinite(row["overhead_pct"])
    assert result["reference_overhead_pct"] == REFERENCE_OVERHEAD_PCT
    assert (tmp_path / "bench.json").exists()
    assert (tmp_path / "bench.csv").exists()


def test_timing_identical_conditions_near_zero():
    # with m=0 verification never runs, so both conditions time the same code
    _, logs, _ = generate_synthetic(MICRO_SYNTH)
    split = chronological_split(logs)
    bb = Backbone(MICRO_MODEL)
    bank = make_bank([("a", 3)], d_m=8, seed=1)
    result = timing_overhead(bb, bank, split.test, steps=[0])
    assert abs(result["rows"][0]["overhead_pct"]) < 75.0


def test_evaluate_refuses_duplicate_ks():
    # duplicates used to add every hit once per copy: recall@5 read 2.0
    _, logs, _ = generate_synthetic(MICRO_SYNTH)
    samples = chronological_split(logs).test
    bb = Backbone(MICRO_MODEL)
    with pytest.raises(ValueError, match="duplicate ks"):
        evaluate(bb, None, samples, m=0, ks=(5, 5))
    report = evaluate(bb, None, samples, m=0, ks=(5,))
    assert 0.0 <= report.recall[5] <= 1.0 and 0.0 <= report.ndcg[5] <= 1.0


def test_timing_overhead_times_whole_requests_alternately(monkeypatch):
    _, logs, _ = generate_synthetic(MICRO_SYNTH)
    samples = chronological_split(logs).test[:3]
    bb = Backbone(MICRO_MODEL)
    bank = make_bank([("a", 3)], d_m=8, seed=1)
    calls = []
    real_run, real_recommend = evaluation_module.run_reasoning, evaluation_module.recommend

    def run(backbone, cond_bank, history, m):
        calls.append("with" if cond_bank is bank else "without")
        return real_run(backbone, cond_bank, history, m)

    def recommend(backbone, hidden):
        calls.append("recommend")
        return real_recommend(backbone, hidden)

    reads = []
    real_clock = time.perf_counter

    def clock():
        reads.append(len(calls))
        return real_clock()

    monkeypatch.setattr(evaluation_module, "run_reasoning", run)
    monkeypatch.setattr(evaluation_module, "recommend", recommend)
    monkeypatch.setattr(time, "perf_counter", clock)
    timing_overhead(bb, bank, samples, steps=[1])
    assert (WARMUP_REQUESTS, MIN_TIMED_REQUESTS) == (10, 100)
    assert calls[1::2] == ["recommend"] * (len(calls) // 2)
    served = calls[0::2]
    # 10 untimed requests per condition, then 3 samples repeated to a pool of
    # 102, each served in both conditions, which goes first alternating
    assert served[:20] == ["without"] * 10 + ["with"] * 10
    assert served[20:] == ["without", "with", "with", "without"] * 51
    # the clock brackets each of the 204 timed requests, and only those
    assert reads == [n for i in range(20, 224) for n in (2 * i, 2 * i + 2)]


def test_timing_overhead_rejects_empty_samples():
    bb = Backbone(MICRO_MODEL)
    bank = make_bank([("a", 3)], d_m=8, seed=1)
    outcome = {}

    def call():
        try:
            timing_overhead(bb, bank, [], steps=[1])
        except ValueError as e:
            outcome["error"] = str(e)

    worker = threading.Thread(target=call, daemon=True)  # a hang must not stall the suite
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive(), "timing_overhead did not return on an empty sample list"
    assert "at least one sample" in outcome["error"]
