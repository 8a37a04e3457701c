"""Interleaved reason-verify loop over latent steps.

The history is encoded once into a per-request KV cache. Each step reads
the last position's hidden state as the new reasoning representation,
replaces it (when a verifier bank is present) with its confidence-adjusted
version, and injects that as the next position, so the backbone computes
one new row per step and every position exactly once.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .backbone import Backbone, KVCache
from .numerics import Tensor, concat
from .verifiers import StepVerdict, VerifierBank, verify_and_adjust

__all__ = ["ReasoningTrace", "homogeneity", "pca_project", "recommend",
           "run_reasoning", "export_traces"]


@dataclass
class ReasoningTrace:
    steps: list[tuple[Tensor, Tensor, StepVerdict | None]]  # (raw r_t, adjusted r*_t, verdict)
    m: int

    def adjusted(self) -> list[Tensor]:
        return [s[1] for s in self.steps]


def run_reasoning(backbone: Backbone, bank: VerifierBank | None,
                  history: list[int], m: int) -> tuple[ReasoningTrace, Tensor]:
    """Produce m adjusted latent steps, then the final encoding.

    Returns the trace and the (L + m, d_m) hidden states of the history
    plus all m adjusted latents; the recommendation reads the last position.
    """
    L = len(history)
    if L + m > backbone.cfg.max_positions:
        raise ValueError(f"sequence length {L + m} exceeds max_positions "
                         f"{backbone.cfg.max_positions}")
    cache = KVCache()
    rows = [backbone.encode(history, cache=cache)]
    steps: list[tuple[Tensor, Tensor, StepVerdict | None]] = []
    for t in range(m):
        r_t = rows[-1][-1]
        if bank is not None:
            verdict = verify_and_adjust(bank, r_t)
            r_adj = verdict.r_star
        else:
            verdict = None
            r_adj = r_t
        steps.append((r_t, r_adj, verdict))
        rows.append(backbone.encode([], [(L + t, r_adj)], cache=cache))
    final_hidden = concat(rows, axis=0) if len(rows) > 1 else rows[0]
    return ReasoningTrace(steps=steps, m=m), final_hidden


def recommend(backbone: Backbone, final_hidden: Tensor, k: int | None = None) -> np.ndarray:
    """Ranked item ids from the last position of the final encoding."""
    return backbone.rank_items(final_hidden, final_hidden.data.shape[0] - 1, k)


def greedy_recommend(backbone: Backbone, final_hidden: Tensor) -> int:
    return int(recommend(backbone, final_hidden, 1)[0])


def pca_project(vectors: np.ndarray) -> np.ndarray:
    """Project row vectors onto their top-2 principal components."""
    centered = vectors - vectors.mean(axis=0, keepdims=True)
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    return centered @ vt[:2].T


def homogeneity(traces: list[ReasoningTrace], t: int) -> tuple[float, np.ndarray]:
    """Mean pairwise cosine of step-t adjusted representations, plus 2-D projection.

    A value near 1 means the latent steps have collapsed to one direction.
    """
    if len(traces) < 2:
        raise ValueError(f"homogeneity requires at least 2 traces, got {len(traces)}")
    vecs = np.stack([tr.steps[t][1].data for tr in traces])
    norms = np.linalg.norm(vecs, axis=1)
    unit = vecs / np.maximum(norms, 1e-12)[:, None]
    sims = unit @ unit.T
    n = len(traces)
    iu = np.triu_indices(n, k=1)
    return float(sims[iu].mean()), pca_project(vecs)


def export_traces(traces: list[ReasoningTrace], path: str | Path,
                  include_vectors: bool = False) -> None:
    """One JSON line per trace: per-step entropies, router weights, classes."""
    with Path(path).open("w", encoding="utf-8", newline="\n") as fh:
        for idx, tr in enumerate(traces):
            steps = []
            for raw, adj, verdict in tr.steps:
                entry: dict = {}
                if verdict is not None:
                    entry["f"] = verdict.f.data.tolist()
                    entry["w"] = verdict.w.data.tolist()
                    entry["classes"] = list(verdict.j_star)
                if include_vectors:
                    entry["r"] = raw.data.tolist()
                    entry["r_star"] = adj.data.tolist()
                steps.append(entry)
            fh.write(json.dumps({"trace": idx, "m": tr.m, "steps": steps}) + "\n")
