"""Interleaved reason-verify loop over latent steps.

The history is encoded once into a per-request KV cache. Each step reads
the last position's hidden state as the new reasoning representation,
replaces it (when a verifier bank is present) with its confidence-adjusted
version, and injects that as the next position, so the backbone computes
one new row per step and every position exactly once.

A batch of histories runs the same loop on all of them at once: one padded
pass over the histories, then one (B, d_m) pass per step. Training,
collection and evaluation run that way, in minibatches or in chunks of
``CHUNK`` samples; a single request is the batch of one.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .backbone import Backbone, KVCache, is_batch
from .numerics import Tensor, concat, embedding_lookup
from .verifiers import StepVerdict, VerifierBank, verify_and_adjust

__all__ = ["CHUNK", "ReasoningTrace", "homogeneity", "pca_project", "recommend",
           "run_reasoning", "export_traces"]

# samples per batched pass where nothing is fitted (collection, evaluation,
# verifier statistics): at 32, a chunk's arrays take no more memory than a
# training minibatch's graph, so peak RSS does not grow with the chunk
CHUNK = 32


@dataclass
class ReasoningTrace:
    # (raw r_t, adjusted r*_t, verdict); for a batch, r_t and r*_t are (B, d_m) rows
    steps: list[tuple[Tensor, Tensor, StepVerdict | None]]
    m: int

    def adjusted(self) -> list[Tensor]:
        return [s[1] for s in self.steps]


def run_reasoning(backbone: Backbone, bank: VerifierBank | None,
                  history, m: int) -> tuple[ReasoningTrace, Tensor]:
    """Produce m adjusted latent steps, then the final encoding.

    For one history (a list of item ids), returns the trace and the
    (L + m, d_m) hidden states of the history plus all m adjusted latents;
    the recommendation reads the last position. For a batch of B histories
    (a list of such lists), each step of the trace holds (B, d_m) rows, and
    the second value is the (B, d_m) final state of each history, at its
    own last position L_b + m - 1.
    """
    batch = is_batch(history)
    L = max(map(len, history)) if batch else len(history)
    if L + m > backbone.cfg.max_positions:
        raise ValueError(f"sequence length {L + m} exceeds max_positions "
                         f"{backbone.cfg.max_positions}")
    cache = KVCache()
    rows = [backbone.encode(history, cache=cache)]
    if batch:  # each history's last row; the rows are position-major
        B = len(history)
        last = embedding_lookup(rows[0], (np.array(cache.lengths) - 1) * B + np.arange(B))
    steps: list[tuple[Tensor, Tensor, StepVerdict | None]] = []
    for t in range(m):
        r_t = last if batch else rows[-1][-1]
        if bank is not None:
            verdict = verify_and_adjust(bank, r_t)
            r_adj = verdict.r_star
        else:
            verdict = None
            r_adj = r_t
        steps.append((r_t, r_adj, verdict))
        if batch:
            last = backbone.encode([[]] * B, [(cache.lengths, r_adj)], cache=cache)
        else:
            rows.append(backbone.encode([], [(L + t, r_adj)], cache=cache))
    trace = ReasoningTrace(steps=steps, m=m)
    if batch:
        return trace, last
    return trace, concat(rows, axis=0) if len(rows) > 1 else rows[0]


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
