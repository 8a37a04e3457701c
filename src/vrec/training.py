"""Three-stage training: backbone pre-training, verifier dataset collection
and pre-training, then joint verifiable fine-tuning.

Every stage works on a whole minibatch or chunk at once: one batched
reasoning pass, and one loss Tensor per term over all of its samples."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .backbone import Backbone
from .datasets import Sample
from .evaluation import evaluate, write_metrics_csv
from .labeling import GroupLabeling, class_table
from .numerics import (Rng, Tensor, check_int, check_seed, concat, log_softmax, relu,
                       tracking)
from .reasoning import CHUNK, run_reasoning
from .verifiers import VerifierBank, verify_and_adjust

__all__ = [
    "Adam",
    "TrainHyper",
    "VerifierData",
    "collect_verifier_dataset",
    "finetune",
    "monotonicity_loss",
    "pretrain_backbone",
    "pretrain_verifiers",
    "reasoning_losses",
    "recommendation_loss",
    "verifier_loss",
]


@dataclass
class TrainHyper:
    lr: float = 1e-3
    epochs: int = 3
    batch: int = 32
    alpha: float = 1.0  # negative-sample entropy weight
    beta: float = 0.5  # verifier-loss weight
    gamma: float = 0.5  # monotonicity weight
    seed: int = 0

    def __post_init__(self):
        for key in ("lr", "alpha", "beta", "gamma"):
            value = getattr(self, key)  # NaN fails every comparison
            if isinstance(value, bool) or not 0 <= value < math.inf:
                raise ValueError(f"{key} must be non-negative and finite, got {value!r}")
        check_int("batch", self.batch, least=1)
        check_int("epochs", self.epochs)
        check_seed(self.seed)


@dataclass
class VerifierData:
    """Collected traces: each trace's adjusted step vectors and its target's
    class per dimension; a row of -1 labels marks a miss, i.e. a negative."""

    r_steps: np.ndarray  # (N, m, d_m) float64
    labels: np.ndarray  # (N, n) int64

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def positive(self) -> np.ndarray:
        return self.labels[:, 0] >= 0


ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class Adam:
    """Adam over whole models: anything with a ``values`` and a ``grads``
    vector, as ``Backbone`` and ``VerifierBank`` have. A parameter outside
    the graph has a zero gradient, so its moments and its step stay zero.
    lr=0 leaves parameters bit-identical."""

    def __init__(self, models: Sequence, lr: float = 1e-3):
        self.models = list(models)
        self.lr = lr
        self.t = 0
        self.moments = [(np.zeros_like(mdl.values), np.zeros_like(mdl.values))
                        for mdl in self.models]

    def zero_grad(self) -> None:
        for mdl in self.models:
            mdl.grads.fill(0.0)

    def step(self) -> None:
        self.t += 1
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        for mdl, (m, v) in zip(self.models, self.moments):
            g = mdl.grads
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * g**2
            step = m / (1 - b1**self.t)  # lr * mhat / (sqrt(vhat) + eps), in place
            step *= self.lr
            den = v / (1 - b2**self.t)
            np.sqrt(den, out=den)
            den += ADAM_EPS
            step /= den
            mdl.values -= step


# per-epoch CSV log columns; a stage leaves blank the ones it does not compute
LOG_COLUMNS = ["epoch", "L_r", "L_v", "L_m", "total", "val_recall@5", "wall_seconds"]


def recommendation_loss(backbone: Backbone, final_hidden: Tensor, target) -> Tensor:
    """Mean over a batch of the negative log-probability of each history's
    target item, from one log-softmax over the (B, n_items) scores of its
    (B, d_m) final states; ``target`` holds one item id per history.
    """
    scores = backbone.next_item_scores(final_hidden)
    pick = np.zeros(scores.shape)
    pick[np.arange(len(pick)), target] = -1.0
    return (log_softmax(scores) * pick).sum() * (1.0 / len(pick))


def _fit(stage: str, models: Sequence, n: int, hyper: TrainHyper, stream: int,
         batch_losses, log_path: str | Path | None, epoch_end=None) -> list[dict]:
    """The epoch loop of every stage: Adam on ``models`` over minibatches of
    sample indices ``range(n)``, shuffled by RNG stream ``stream``.

    ``batch_losses(idx)`` returns an ordered dict of loss Tensors for one
    minibatch; its ``"total"`` is optimised. Each epoch's row holds their
    sample-weighted means, then the entries of ``epoch_end()``, ``epoch``
    and ``wall_seconds``; the CSV log at ``log_path`` is rewritten with
    every row so far after each epoch.
    The models' parameters are tracked only while a batch's losses are
    built and back-propagated, so ``epoch_end`` and everything after
    ``_fit`` build no graph.
    """
    if n == 0 and hyper.epochs:
        raise ValueError(f"{stage}: no samples to fit")
    opt = Adam(models, lr=hyper.lr)
    params = [t for mdl in models for t in mdl.params().values()]
    rng = Rng(hyper.seed, stream)
    if log_path:
        write_metrics_csv(log_path, [], LOG_COLUMNS)
    rows: list[dict] = []
    for epoch in range(hyper.epochs):
        t0 = time.monotonic()
        sums: dict[str, float] = {}
        order = rng.permutation(n)
        for start in range(0, n, hyper.batch):
            idx = order[start:start + hyper.batch]
            with tracking(params):
                losses = batch_losses(idx)
                total = losses["total"].item()
                if not np.isfinite(total):
                    raise FloatingPointError(f"{stage}: loss became {total} at epoch {epoch}")
                opt.zero_grad()
                losses["total"].backward()
            opt.step()
            for key, value in losses.items():
                sums[key] = sums.get(key, 0.0) + value.item() * len(idx)
        row = {key: value / n for key, value in sums.items()}
        row.update(epoch_end() if epoch_end else {})
        row["epoch"] = epoch
        row["wall_seconds"] = round(time.monotonic() - t0, 3)
        rows.append(row)
        if log_path:
            write_metrics_csv(log_path, rows, LOG_COLUMNS)
    return rows


def reasoning_losses(backbone: Backbone, bank: VerifierBank | None, histories: list,
                     targets: np.ndarray, hyper: TrainHyper,
                     classes: np.ndarray | None = None) -> dict[str, Tensor]:
    """The losses of one minibatch from one batched reasoning pass.

    Without a bank, stage 0's: L_r alone. With one, stage 2's L_r, L_v, L_m
    and total = L_r + beta L_v + gamma L_m, where ``classes`` maps each
    item to its class per dimension and every sample is supervised with
    its target's classes.
    """
    m = backbone.cfg.m
    trace, final = run_reasoning(backbone, bank, histories, m)
    l_r = recommendation_loss(backbone, final, targets)
    if bank is None:
        return {"L_r": l_r, "total": l_r}
    if m > 0:  # the step rows and entropies come step after step, B rows per step
        B = len(targets)
        l_v = verifier_loss(bank, concat(trace.adjusted()), np.tile(np.arange(B), m),
                            classes[targets], hyper.alpha)
        l_m = monotonicity_loss(concat([v.f for v in trace.verdicts]), B)
    else:
        l_v = l_m = Tensor(0.0)
    total = l_r + hyper.beta * l_v + hyper.gamma * l_m
    return {"L_r": l_r, "L_v": l_v, "L_m": l_m, "total": total}


def _inputs(samples: list[Sample]) -> tuple[np.ndarray, np.ndarray]:
    """Every sample's history (an object array of lists) and target, so
    that those of a minibatch are one index away."""
    histories = np.fromiter((s.history for s in samples), dtype=object, count=len(samples))
    return histories, np.array([s.target for s in samples], dtype=np.int64)


def pretrain_backbone(backbone: Backbone, samples: list[Sample], hyper: TrainHyper,
                      log_path: str | Path | None = None) -> list[float]:
    """Stage 0: reason-then-recommend training with the recommendation loss only."""
    histories, targets = _inputs(samples)

    def batch_losses(idx):
        return reasoning_losses(backbone, None, histories[idx].tolist(), targets[idx], hyper)

    rows = _fit("pretrain_backbone", [backbone], len(samples), hyper, 30, batch_losses,
                log_path, epoch_end=lambda: {"L_v": 0.0, "L_m": 0.0})
    return [row["total"] for row in rows]


def collect_verifier_dataset(backbone: Backbone, samples: list[Sample],
                             labelings: list[GroupLabeling], m: int) -> VerifierData:
    """Stage 1 data: greedy-decode each sample; hits become positives labeled
    with the target's class in every dimension, misses become negatives.
    Samples are decoded ``CHUNK`` at a time."""
    if not labelings:
        raise ValueError("verifier data needs at least one labeling dimension")
    classes = class_table(labelings, backbone.cfg.n_items)
    data = VerifierData(r_steps=np.zeros((len(samples), m, backbone.cfg.d_m)),
                        labels=np.full((len(samples), len(labelings)), -1, dtype=np.int64))
    histories, targets = _inputs(samples)
    for start in range(0, len(samples), CHUNK):
        rows = slice(start, start + CHUNK)
        trace, final = run_reasoning(backbone, None, histories[rows].tolist(), m)
        if m:
            data.r_steps[rows] = np.stack([r.data for r in trace.adjusted()], axis=1)
        hit = backbone.rank_items(final, 1)[:, 0] == targets[rows]
        data.labels[rows][hit] = classes[targets[rows][hit]]
    return data


def verifier_loss(bank: VerifierBank, rows: Tensor, owner: np.ndarray, labels: np.ndarray,
                  alpha: float = 1.0) -> Tensor:
    """Mean per-step, per-dimension loss: -log p[label] on positives,
    -alpha * H(p) on negatives (minimizing pushes negative entropy up).

    ``rows`` holds the adjusted step vectors of a batch of B traces as
    (R, d_m) rows, and ``owner`` the index of the trace each row belongs
    to; ``labels`` holds one class per dimension for each trace, (B, n),
    and a trace whose labels are -1 is a negative. One fused bank step
    covers every row. Labels are not range-checked here: ``class_table``
    checks the labelings they come from.
    """
    if not rows.shape[0]:
        raise ValueError("verifier_loss requires non-empty step rows")
    verdict = verify_and_adjust(bank, rows)
    per_row = np.asarray(labels, dtype=np.int64)[owner]
    positive = per_row[:, 0] >= 0
    parts = []
    if positive.any():
        parts.append(verdict.label_nll(per_row))
    if not positive.all():
        weights = np.repeat(np.where(positive, 0.0, -alpha)[:, None], bank.n, axis=1)
        parts.append((verdict.f * weights).sum())
    total = parts[0] if len(parts) == 1 else parts[0] + parts[1]
    return total * (1.0 / per_row.size)


def verifier_stats(bank: VerifierBank, data: VerifierData) -> tuple[float, float]:
    """(positive class accuracy, negative mean entropy) over collected traces.

    The (N*m, d_m) step rows are scored ``CHUNK`` rows per fused bank step;
    each row's verdict has the same bits in any chunk."""
    m = data.r_steps.shape[1]
    rows = data.r_steps.reshape(-1, bank.d_m)
    j_star = np.empty((len(rows), bank.n), dtype=np.int64)
    f = np.empty((len(rows), bank.n))
    for start in range(0, len(rows), CHUNK):
        verdict = verify_and_adjust(bank, Tensor(rows[start:start + CHUNK]))
        j_star[start:start + CHUNK] = verdict.j_star
        f[start:start + CHUNK] = verdict.f.data
    positive = np.repeat(data.positive, m)
    labels = np.repeat(data.labels, m, axis=0)
    acc = float(np.mean((j_star[positive] == labels[positive]).ravel())) \
        if positive.any() else float("nan")
    neg_h = float(np.mean(f[~positive].ravel())) if (~positive).any() else float("nan")
    return acc, neg_h


def pretrain_verifiers(bank: VerifierBank, dataset: VerifierData,
                       hyper: TrainHyper, log_path: str | Path | None = None
                       ) -> list[tuple[float, float]]:
    """Stage 1 training: fit the bank on collected traces, backbone frozen.

    Returns per-epoch (positive accuracy, negative mean entropy); empty when
    the traces have no latent step.
    """
    if not len(dataset):
        raise ValueError("verifier dataset is empty")
    if not dataset.r_steps.shape[1]:  # with m=0 there is nothing to fit
        hyper = replace(hyper, epochs=0)

    def batch_losses(idx):  # each trace's step rows, trace after trace
        steps = dataset.r_steps[idx]
        B, m, d = steps.shape
        loss = verifier_loss(bank, Tensor(steps.reshape(B * m, d)), np.repeat(np.arange(B), m),
                             dataset.labels[idx], hyper.alpha)
        return {"L_v": loss, "total": loss}

    rows = _fit("pretrain_verifiers", [bank], len(dataset), hyper, 31, batch_losses,
                log_path, epoch_end=lambda: {"stats": verifier_stats(bank, dataset)})
    return [row["stats"] for row in rows]


def monotonicity_loss(f: Tensor, batch: int = 1) -> Tensor:
    """Hinge on entropy increases between consecutive steps, averaged over
    dimensions, step pairs and traces; zero when fewer than two steps.

    ``f`` holds the per-dimension entropies of a batch of ``batch`` traces
    as rows, step after step: (m * batch, n)."""
    if f.shape[0] <= batch:
        return Tensor(0.0)
    return relu(f[batch:] - f[:-batch]).mean()


def finetune(backbone: Backbone, bank: VerifierBank, samples: list[Sample],
             labelings: list[GroupLabeling], hyper: TrainHyper,
             valid_samples: list[Sample] | None = None,
             log_path: str | Path | None = None) -> list[dict]:
    """Stage 2: joint optimization of L_r + beta L_v + gamma L_m through the
    full reason-verify loop, every sample supervised with its target's labels."""
    classes = class_table(labelings, backbone.cfg.n_items)
    histories, targets = _inputs(samples)

    def batch_losses(idx):
        return reasoning_losses(backbone, bank, histories[idx].tolist(), targets[idx], hyper,
                                classes)

    def val_recall():
        return {"val_recall@5": evaluate(backbone, bank, valid_samples, ks=(5,)).recall[5]}

    return _fit("finetune", [backbone, bank], len(samples), hyper, 32, batch_losses, log_path,
                epoch_end=val_recall if valid_samples else None)
