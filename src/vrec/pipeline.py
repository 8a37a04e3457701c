"""The three-stage pipeline, one function per stage, and the ablations, sweeps
and step scans built on it.

A run is a ``RunConfig``: the one a config file loads, or one built in code.
Each stage takes it and, given ``cfg.out``, writes its artifacts there. An
ablation variant, a sweep value or a step count is an edit of a ``RunConfig``
made with ``dataclasses.replace``, which checks it. A study builds all its
runs, so every one is checked before the first one starts, then runs them
in one loop, ``_study``."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .backbone import Backbone
from .checkpoint import save_model
from .config import DIMENSION_NAMES, RunConfig
from .datasets import Item, Split, chronological_split, generate_synthetic, ingest
from .evaluation import MetricsReport, evaluate, write_metrics_csv
from .labeling import GroupLabeling, build_labeling, save_labeling
from .training import (TrainHyper, VerifierData, collect_verifier_dataset, finetune,
                       pretrain_backbone, pretrain_verifiers)
from .verifiers import VerifierBank, make_bank

__all__ = ["PipelineResult", "SWEEPS", "VARIANTS", "VERIFIER_DATA", "ablate",
           "build_labelings", "load_corpus", "load_verifier_data", "run_collection",
           "run_eval", "run_pipeline", "run_stage0", "run_stage1", "run_stage2",
           "step_scalability", "sweep"]

VERIFIER_DATA = "verifier_data.npz"


def _out(cfg: RunConfig, name: str) -> Path | None:
    return cfg.out / name if cfg.out else None


def _with_epochs(hyper: TrainHyper, epochs: int | None) -> TrainHyper:
    return hyper if epochs is None else replace(hyper, epochs=epochs)


# -- stages ------------------------------------------------------------------


def load_corpus(cfg: RunConfig, out_dir: str | Path | None = None) -> tuple[list[Item], Split]:
    """The synthetic corpus, or the ingested one when ``cfg.synth`` is None,
    split. Given ``out_dir``, a synthetic corpus is written there as JSON lines."""
    if cfg.synth is None:
        items, logs = ingest(cfg.items_path, cfg.interactions_path)
    else:
        items, logs, planted = generate_synthetic(cfg.synth)
        if out_dir:
            out_dir = Path(out_dir)
            with (out_dir / "items.jsonl").open("w", encoding="utf-8", newline="\n") as fh:
                for it in items:
                    fh.write(json.dumps({"id": it.id, "title": it.title,
                                         "category": it.category}) + "\n")
            with (out_dir / "interactions.jsonl").open("w", encoding="utf-8", newline="\n") as fh:
                for log in logs:
                    fh.write(json.dumps({"user": log.user, "items": log.items,
                                         "timestamps": log.timestamps}) + "\n")
            save_labeling(planted, out_dir / "planted_labels.jsonl")
    return items, chronological_split(logs)


def build_labelings(cfg: RunConfig, items: list[Item], split: Split,
                    out_dir: str | Path | None = None) -> list[GroupLabeling]:
    """One labeling per configured (dimension, d_i); given ``out_dir``,
    written there as labeling_<dimension>.jsonl."""
    labelings = [build_labeling(name, items, samples=split.train, n_users=split.n_users,
                                d_i=d_i, seed=cfg.data_seed())
                 for name, d_i in cfg.dimensions]
    if out_dir:
        for lab in labelings:
            save_labeling(lab, Path(out_dir) / f"labeling_{lab.dimension}.jsonl")
    return labelings


def run_stage0(backbone: Backbone, split: Split, cfg: RunConfig) -> list[float]:
    """Stage 0: recommendation-only training of ``backbone`` in place."""
    losses = pretrain_backbone(backbone, split.train, _with_epochs(cfg.hyper, cfg.stage0_epochs),
                               log_path=_out(cfg, "stage0_log.csv"))
    if cfg.out:
        save_model(cfg.out / "stage0.ckpt", backbone)
    return losses


def _labeling_arrays(labelings: list[GroupLabeling]) -> dict[str, np.ndarray]:
    return {"dimensions": np.array([lab.dimension for lab in labelings]),
            "d_i": np.array([lab.d_i for lab in labelings], dtype=np.int64),
            "item_labels": np.array([lab.labels for lab in labelings], dtype=np.int64)}


def _values_digest(backbone: Backbone) -> str:
    return hashlib.sha256(backbone.values.tobytes()).hexdigest()


def run_collection(backbone: Backbone, split: Split, labelings: list[GroupLabeling],
                   cfg: RunConfig) -> VerifierData:
    """Stage 1 data: greedy-decoded train traces, saved with their labelings
    and the sha256 of the backbone's values."""
    dataset = collect_verifier_dataset(backbone, split.train, labelings, m=backbone.cfg.m)
    if cfg.out:
        np.savez(cfg.out / VERIFIER_DATA, r_steps=dataset.r_steps, labels=dataset.labels,
                 backbone_sha256=_values_digest(backbone), **_labeling_arrays(labelings))
    return dataset


def load_verifier_data(path: str | Path, labelings: list[GroupLabeling],
                       backbone: Backbone) -> VerifierData:
    """Read verifier data, refusing data of other labelings or of another backbone."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"{path} not found; run collect-verifier-data first")
    with np.load(path) as data:
        stored = {key: data[key] for key in data.files}
    expected = _labeling_arrays(labelings)
    if any(key not in stored or not np.array_equal(stored[key], value)
           for key, value in expected.items()):
        raise ValueError(f"{path} is stale: it was collected under other labelings "
                         "than the configured dimensions")
    if str(stored.get("backbone_sha256")) != _values_digest(backbone):
        raise ValueError(f"{path} is stale: it was collected from another stage-0 backbone "
                         "than stage0.ckpt; run collect-verifier-data again")
    r_steps, labels = stored.get("r_steps"), stored.get("labels")
    if r_steps is None or labels is None:
        raise ValueError(f"{path}: no r_steps or no labels array")
    if r_steps.shape[1:] != (backbone.cfg.m, backbone.cfg.d_m):
        raise ValueError(f"{path} is stale: r_steps has shape {r_steps.shape}, but "
                         f"stage0.ckpt has m={backbone.cfg.m}, d_m={backbone.cfg.d_m}")
    if labels.shape != (len(r_steps), len(labelings)) or labels.dtype.kind not in "iu":
        raise ValueError(f"{path}: labels are {labels.dtype} of shape {labels.shape}, expected "
                         f"integers of shape {(len(r_steps), len(labelings))}, a row per trace")
    bad = np.flatnonzero(((labels < 0) | (labels >= expected["d_i"])).any(axis=1)
                         & (labels != -1).any(axis=1))  # neither all -1 nor all classes
    if bad.size:
        raise ValueError(f"{path}: labels row {bad[0]} is {labels[bad[0]].tolist()}; a row is "
                         f"all -1 (a miss) or one class below d_i {expected['d_i'].tolist()} each")
    return VerifierData(r_steps=r_steps, labels=labels)


def run_stage1(backbone: Backbone, dataset: VerifierData, labelings: list[GroupLabeling],
               cfg: RunConfig) -> tuple[VerifierBank, list[tuple[float, float]]]:
    """Stage 1: a fresh verifier bank fitted on ``dataset`` with the backbone
    frozen, and its per-epoch (accuracy, negative entropy)."""
    bank = make_bank([(lab.dimension, lab.d_i) for lab in labelings], d_m=backbone.cfg.d_m,
                     seed=cfg.hyper.seed, hidden_width=cfg.bank_width,
                     hidden_depth=cfg.bank_depth)
    bank.uniform_router = cfg.uniform_router
    history = pretrain_verifiers(bank, dataset, _with_epochs(cfg.hyper, cfg.stage1_epochs),
                                 log_path=_out(cfg, "stage1_log.csv"))
    if cfg.out:
        save_model(cfg.out / "stage1.ckpt", backbone, bank)
    return bank, history


def run_stage2(backbone: Backbone, bank: VerifierBank | None, split: Split,
               labelings: list[GroupLabeling], cfg: RunConfig) -> list:
    """Stage 2: joint fine-tuning, or without a bank the equal-compute baseline:
    recommendation-only training for the same epochs."""
    log_path = _out(cfg, "stage2_log.csv")
    if bank is None:
        history = pretrain_backbone(backbone, split.train, cfg.hyper, log_path=log_path)
    else:
        history = finetune(backbone, bank, split.train, labelings, cfg.hyper,
                           valid_samples=split.valid, log_path=log_path)
    if cfg.out:
        save_model(cfg.out / "final.ckpt", backbone, bank)
    return history


def _write_rows(out_dir: str | Path | None, name: str, rows: list[dict]) -> None:
    """CSV whose columns are the keys of the first row, in order."""
    if out_dir:
        Path(out_dir).mkdir(parents=True, exist_ok=True)
        write_metrics_csv(Path(out_dir) / name, rows, list(rows[0]) if rows else [])


def _report_row(lead: dict, report: MetricsReport, ks: tuple[int, ...]) -> dict:
    row = dict(lead)
    for k in ks:
        row[f"recall@{k}"] = report.recall[k]
        row[f"ndcg@{k}"] = report.ndcg[k]
    row["n_samples"] = report.n_samples
    return row


def run_eval(backbone: Backbone, bank: VerifierBank | None, split: Split, cfg: RunConfig,
             m: int | None = None) -> MetricsReport:
    """Evaluate the test split at ``cfg.eval_ks`` with ``m`` steps (None: the backbone's)."""
    report = evaluate(backbone, bank, split.test, m=m, ks=cfg.eval_ks)
    if cfg.out:
        _write_rows(cfg.out, "metrics.csv",
                    [_report_row({"variant": "final"}, report, cfg.eval_ks)])
        (cfg.out / "report.json").write_text(json.dumps(report.to_dict(), indent=2) + "\n",
                                             encoding="utf-8")
    return report


# -- the whole pipeline --------------------------------------------------------


@dataclass
class PipelineResult:
    backbone: Backbone
    bank: VerifierBank | None
    report: MetricsReport
    split: Split
    labelings: list[GroupLabeling] = field(default_factory=list)


def run_pipeline(cfg: RunConfig) -> PipelineResult:
    """All stages end to end. Without ``cfg.dimensions`` it is the
    equal-compute baseline: no labeling and no verifier stage."""
    if cfg.out:
        cfg.out.mkdir(parents=True, exist_ok=True)
    items, split = load_corpus(cfg, out_dir=cfg.out)
    if not split.test:  # 8:1:1 holds out a test point from 11 interactions on
        raise ValueError("the test split is empty: no log has 11 interactions, so every "
                         "stage would train and evaluate would rank nothing")
    labelings = build_labelings(cfg, items, split, out_dir=cfg.out)
    backbone = Backbone(cfg.model_config(len(items)))
    run_stage0(backbone, split, cfg)
    bank = None
    if labelings:
        dataset = run_collection(backbone, split, labelings, cfg)
        bank, _ = run_stage1(backbone, dataset, labelings, cfg)
    run_stage2(backbone, bank, split, labelings, cfg)
    report = run_eval(backbone, bank, split, cfg)
    return PipelineResult(backbone=backbone, bank=bank, report=report,
                          split=split, labelings=labelings)


# -- studies -------------------------------------------------------------------


def _single(name: str):
    def edit(cfg: RunConfig) -> RunConfig:
        dims = [d for d in cfg.dimensions if d[0] == name]
        if not dims:
            raise ValueError(f"variant 'single-{name}': dimension {name!r} not configured")
        return replace(cfg, dimensions=dims)
    return edit


# each ablation variant as an edit of one run
VARIANTS = {
    "full": lambda cfg: cfg,
    "no-verifier": lambda cfg: replace(cfg, dimensions=[]),
    "no-monotonicity": lambda cfg: replace(cfg, hyper=replace(cfg.hyper, gamma=0.0)),
    "no-router": lambda cfg: replace(cfg, uniform_router=True),
    "no-pretrain": lambda cfg: replace(cfg, stage1_epochs=0),
    **{f"single-{name}": _single(name) for name in DIMENSION_NAMES},
}


def _hyper(key: str):
    return lambda cfg, value: replace(cfg, hyper=replace(cfg.hyper, **{key: float(value)}))


def _whole(param: str, value) -> int:
    if value != int(value):
        raise ValueError(f"sweep parameter {param!r} takes whole numbers, got {value}")
    return int(value)


# each sweep parameter as an edit of one run by one value; width only shows
# from depth 3 on, since a depth-2 verifier's one hidden layer maps d_m to d_m
SWEEPS = {
    "beta": _hyper("beta"), "gamma": _hyper("gamma"), "alpha": _hyper("alpha"),
    "d_i": lambda cfg, value: replace(cfg, dimensions=[  # a category's classes are the corpus's
        (name, d_i if name == "category" else _whole("d_i", value))
        for name, d_i in cfg.dimensions]),
    "verifier-width": lambda cfg, value: replace(
        cfg, bank_width=_whole("verifier-width", value), bank_depth=max(cfg.bank_depth, 3)),
    "verifier-depth": lambda cfg, value: replace(cfg, bank_depth=_whole("verifier-depth", value)),
    "m": lambda cfg, value: cfg.with_m(_whole("m", value)),
}


def _lookup(table: dict, name: str, kind: str):
    if name not in table:
        raise ValueError(f"unknown {kind} {name!r}; known: {', '.join(table)}")
    return table[name]


def _study(cfg: RunConfig, name: str, leads: list[dict], runs: list[RunConfig]) -> list[dict]:
    """Run each of ``runs`` end to end, writing nothing, in order. Each run's
    row is its lead columns, then recall@k and ndcg@k for k in (5, 10), then
    n_samples; the rows are written to ``name`` under ``cfg.out`` when it is set."""
    rows = [_report_row(lead, run_pipeline(replace(run, out=None, eval_ks=(5, 10))).report,
                        (5, 10))
            for lead, run in zip(leads, runs)]
    _write_rows(cfg.out, name, rows)
    return rows


def ablate(cfg: RunConfig, variants: list[str] | None = None) -> list[dict]:
    """Each variant of ``cfg`` (default: full), a row led by its name, in ablation.csv."""
    variants = list(variants) if variants else ["full"]
    runs = [_lookup(VARIANTS, v, "ablation variant")(cfg) for v in variants]
    return _study(cfg, "ablation.csv", [{"variant": v} for v in variants], runs)


def step_scalability(cfg: RunConfig, steps: list[int]) -> list[dict]:
    """The ``m`` sweep of ``cfg``, a row led by m, in steps.csv: at every m the
    run of ``sweep(cfg, "m", steps)``, every seed of ``cfg`` kept. At m=0 the
    bank stays and stage 1 fits nothing."""
    runs = [SWEEPS["m"](cfg, m) for m in steps]
    return _study(cfg, "steps.csv", [{"m": m} for m in steps], runs)


def sweep(cfg: RunConfig, param: str, values: list) -> list[dict]:
    """``cfg`` at each value of ``param``, a row led by both, in sweep_<param>.csv."""
    edit = _lookup(SWEEPS, param, "sweep parameter")
    runs = [edit(cfg, value) for value in values]
    return _study(cfg, f"sweep_{param}.csv", [{"param": param, "value": v} for v in values], runs)
