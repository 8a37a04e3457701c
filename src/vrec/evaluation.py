"""Ranking metrics, full-ranking evaluation, and verification timing
overhead: per m, ``WARMUP_REQUESTS`` untimed requests, then at least
``MIN_TIMED_REQUESTS`` timed ones, in each condition."""

from __future__ import annotations

import csv
import hashlib
import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .backbone import Backbone
from .datasets import Sample
from .reasoning import CHUNK, recommend, run_reasoning
from .verifiers import VerifierBank

__all__ = [
    "MetricsReport",
    "config_fingerprint",
    "evaluate",
    "ndcg_at_k",
    "recall_at_k",
    "timing_overhead",
    "write_metrics_csv",
]

# average verification overhead reported by the reference efficiency table;
# not reproducible at this scale, carried as metadata only
REFERENCE_OVERHEAD_PCT = 0.59
WARMUP_REQUESTS = 10
MIN_TIMED_REQUESTS = 100


def recall_at_k(ranked, target: int, k: int) -> float:
    """1.0 if the target appears in the first k ranked items, else 0.0."""
    return 1.0 if target in list(ranked)[:k] else 0.0


def ndcg_at_k(ranked, target: int, k: int) -> float:
    """Single-target NDCG: 1/log2(rank+1) for 1-based rank <= k, else 0."""
    ranked = list(ranked)[:k]
    if target not in ranked:
        return 0.0
    rank = ranked.index(target) + 1
    return float(1.0 / np.log2(rank + 1))


@dataclass
class MetricsReport:
    recall: dict[int, float]
    ndcg: dict[int, float]
    n_samples: int
    fingerprint: str
    wall_seconds: float

    def to_dict(self) -> dict:
        return {
            "recall": {str(k): v for k, v in self.recall.items()},
            "ndcg": {str(k): v for k, v in self.ndcg.items()},
            "n_samples": self.n_samples,
            "fingerprint": self.fingerprint,
            "wall_seconds": self.wall_seconds,
        }


def config_fingerprint(parts: dict) -> str:
    return hashlib.sha256(
        json.dumps(parts, sort_keys=True, separators=(",", ":")).encode()).hexdigest()[:16]


def evaluate(backbone: Backbone, bank: VerifierBank | None, samples: list[Sample],
             m: int | None = None, ks: tuple[int, ...] = (5, 10)) -> MetricsReport:
    """Full-ranking evaluation over samples, reasoning over ``CHUNK`` of them
    at a time; deterministic apart from wall time."""
    if len(set(ks)) != len(ks):  # each hit would count once per copy
        raise ValueError(f"evaluate: duplicate ks in {ks}")
    if not samples:  # a mean over no samples would read as a model that never hits
        raise ValueError("evaluate: no samples to rank")
    m = backbone.cfg.m if m is None else m
    t0 = time.monotonic()
    recalls = {k: 0.0 for k in ks}
    ndcgs = {k: 0.0 for k in ks}
    for start in range(0, len(samples), CHUNK):
        chunk = samples[start:start + CHUNK]
        _, final = run_reasoning(backbone, bank, [s.history for s in chunk], m)
        for s, ranked in zip(chunk, backbone.rank_items(final)):
            for k in ks:
                recalls[k] += recall_at_k(ranked, s.target, k)
                ndcgs[k] += ndcg_at_k(ranked, s.target, k)
    n = len(samples)
    fp = config_fingerprint({"m": m, "n_items": backbone.cfg.n_items,
                             "bank": bank.n if bank else 0, "ks": list(ks)})
    return MetricsReport(recall={k: v / n for k, v in recalls.items()},
                         ndcg={k: v / n for k, v in ndcgs.items()},
                         n_samples=len(samples), fingerprint=fp,
                         wall_seconds=round(time.monotonic() - t0, 3))


def write_metrics_csv(path: str | Path, rows: list[dict], columns: list[str]) -> None:
    """Deterministic CSV: fixed column order, repr-stable floats, LF endings."""
    with Path(path).open("w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(row.get(c, "")) for c in columns])


def _fmt(value) -> str:
    if isinstance(value, float):  # np.float64 included; repr(float) is stable
        return repr(float(value))
    return str(value)


def timing_overhead(backbone: Backbone, bank: VerifierBank, samples: list[Sample],
                    steps: list[int], out_dir: str | Path | None = None) -> dict:
    """Median per-request inference time with and without verification, per m.

    A request is ``run_reasoning`` plus ``recommend``, what serving one
    costs. The samples, repeated to at least ``MIN_TIMED_REQUESTS``, are
    each timed in both conditions after ``WARMUP_REQUESTS`` untimed ones.
    The conditions alternate sample by sample, and which goes first
    alternates too, so a change of host speed during the run falls on
    both alike. overhead% = (t_with - t_without) / t_without. The
    reference average from the source efficiency table is attached as
    metadata, not asserted.
    """
    if not samples:
        raise ValueError("timing_overhead needs at least one sample to time")
    pool = list(samples)
    while len(pool) < MIN_TIMED_REQUESTS:
        pool = pool + list(samples)

    def request(cond_bank, history, m):
        _, hidden = run_reasoning(backbone, cond_bank, history, m)
        recommend(backbone, hidden)

    rows = []
    for m in steps:
        for cond_bank in (None, bank):
            for s in pool[:WARMUP_REQUESTS]:
                request(cond_bank, s.history, m)
        durations = {True: [], False: []}
        for i, s in enumerate(pool):
            for with_bank in ((False, True) if i % 2 == 0 else (True, False)):
                t0 = time.perf_counter()
                request(bank if with_bank else None, s.history, m)
                durations[with_bank].append(time.perf_counter() - t0)
        t_without = float(np.median(durations[False]))
        t_with = float(np.median(durations[True]))
        rows.append({"m": m, "t_without_s": t_without, "t_with_s": t_with,
                     "overhead_pct": 100.0 * (t_with - t_without) / t_without})
    result = {"rows": rows, "reference_overhead_pct": REFERENCE_OVERHEAD_PCT,
              "reference_note": "average verification overhead from the source "
                                "efficiency table; not reproducible at this scale"}
    if out_dir:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "bench.json").write_text(json.dumps(result, indent=2) + "\n",
                                            encoding="utf-8")
        write_metrics_csv(out_dir / "bench.csv", rows,
                          ["m", "t_without_s", "t_with_s", "overhead_pct"])
    return result

