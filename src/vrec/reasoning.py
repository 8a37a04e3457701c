"""Interleaved reason-verify loop over latent steps.

The loop makes the two kinds of ``Backbone.encode`` call into the KV cache
it makes: the histories, once, into the empty cache, then one latent step
at a time. Each call returns the last position's hidden state of every
sequence, which the step reads as the new reasoning representation,
replaces (when a verifier bank is present) with its confidence-adjusted
version, and injects as the next position, so the backbone computes one
new row per step and every position exactly once, and the top block
computes nothing past its keys and values for a history row it does not
return.

The loop runs on a batch of histories at once: one padded pass over the
histories, then one (B, d_m) pass per step. Training, collection and
evaluation run it on minibatches or on chunks of ``CHUNK`` samples; a
single request is the batch of one. A step injects the bank step's packed
output, whose first d_m columns are r*, so it builds three kinds of graph
node, in a batch of unequal histories too: the bank step, one node per
block and the final norm. ``recommend`` returns a request's full ranking,
every item once.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .backbone import Backbone, KVCache, as_batch
from .numerics import Tensor, check_int
from .verifiers import StepVerdict, VerifierBank, verify_and_adjust

__all__ = ["CHUNK", "ReasoningTrace", "homogeneity", "pca_project", "recommend",
           "run_reasoning", "export_traces"]

# samples per batched pass where nothing is fitted (collection, evaluation,
# verifier statistics): at 32, a chunk's arrays take no more memory than a
# training minibatch's graph, so peak RSS does not grow with the chunk
CHUNK = 32


@dataclass
class ReasoningTrace:
    """A rollout's latent steps: each step's raw r_t, (B, d_m) rows, and the
    bank's verdict on them (None without a bank)."""

    raw: list[Tensor]
    verdicts: list[StepVerdict | None]

    @property
    def m(self) -> int:
        return len(self.raw)

    @property
    def steps(self) -> list[tuple[Tensor, Tensor, StepVerdict | None]]:
        """(raw r_t, adjusted r*_t, verdict) per step. r*_t is r_t without a
        bank; with one, a view of the verdict's columns built on each read,
        since the loop itself injects the packed verdict."""
        return [(r, r if v is None else v.r_star, v) for r, v in zip(self.raw, self.verdicts)]

    def adjusted(self) -> list[Tensor]:
        return [adj for _, adj, _ in self.steps]


def run_reasoning(backbone: Backbone, bank: VerifierBank | None,
                  history, m: int) -> tuple[ReasoningTrace, Tensor]:
    """Produce m adjusted latent steps, then the final states.

    ``history`` is a batch of B histories (lists of item ids), or one
    history, the batch of one. Each step of the trace holds (B, d_m) rows,
    and the second value is the (B, d_m) final state of each history, at
    its own last position L_b + m - 1, which the recommendation reads.
    The rollout's length and m are checked here, once, before anything is
    encoded.
    """
    check_int("m", m)
    L = max(map(len, as_batch(history)), default=0)
    if L + m > backbone.cfg.max_positions:
        raise ValueError(f"sequence length {L + m} exceeds max_positions "
                         f"{backbone.cfg.max_positions}")
    cache = KVCache()
    last = backbone.encode(history, cache=cache)  # each history's last position
    raw, verdicts = [], []
    for _ in range(m):
        verdict = None if bank is None else verify_and_adjust(bank, last)
        raw.append(last)
        verdicts.append(verdict)
        # the packed verdict's first d_m columns are r*, which the block reads
        last = backbone.encode([], [last if verdict is None else verdict.packed], cache=cache)
    return ReasoningTrace(raw, verdicts), last


def recommend(backbone: Backbone, final_hidden: Tensor) -> np.ndarray:
    """Every item id of one request, ranked, from its (1, d_m) final state."""
    if final_hidden.shape[0] != 1:
        raise ValueError(f"recommend ranks one request, got {final_hidden.shape[0]} rows")
    return backbone.rank_items(final_hidden)[0]


def pca_project(vectors: np.ndarray) -> np.ndarray:
    """Project row vectors onto their top-2 principal components."""
    centered = vectors - vectors.mean(axis=0, keepdims=True)
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    return centered.dot(vt[:2].T)


def homogeneity(traces: list[ReasoningTrace], t: int) -> tuple[float, np.ndarray]:
    """Mean pairwise cosine of step-t adjusted rows of every trace, plus 2-D projection.

    A value near 1 means the latent steps have collapsed to one direction.
    """
    if len(traces) < 2:
        raise ValueError(f"homogeneity requires at least 2 traces, got {len(traces)}")
    vecs = np.concatenate([tr.adjusted()[t].data for tr in traces])
    norms = np.linalg.norm(vecs, axis=1)
    unit = vecs / np.maximum(norms, 1e-12)[:, None]
    sims = unit.dot(unit.T)
    iu = np.triu_indices(len(vecs), k=1)
    return float(sims[iu].mean()), pca_project(vecs)


def export_traces(traces: list[ReasoningTrace], path: str | Path,
                  include_vectors: bool = False) -> None:
    """One JSON line per trace, each a single request's (a batch of one):
    per-step entropies, router weights, classes."""
    with Path(path).open("w", encoding="utf-8", newline="\n") as fh:
        for idx, tr in enumerate(traces):
            steps = []
            for raw, adj, verdict in tr.steps:
                entry: dict = {}
                if verdict is not None:
                    entry["f"] = verdict.f.data[0].tolist()
                    entry["w"] = verdict.w.data[0].tolist()
                    entry["classes"] = verdict.j_star[0]
                if include_vectors:
                    entry["r"] = raw.data[0].tolist()
                    entry["r_star"] = adj.data[0].tolist()
                steps.append(entry)
            fh.write(json.dumps({"trace": idx, "m": tr.m, "steps": steps}) + "\n")
