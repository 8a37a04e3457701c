"""Three-stage training: backbone pre-training, verifier dataset collection
and pre-training, then joint verifiable fine-tuning."""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .backbone import Backbone
from .datasets import Sample
from .labeling import GroupLabeling
from .numerics import Rng, Tensor, concat, log_softmax, relu, tracking
from .reasoning import ReasoningTrace, greedy_recommend, run_reasoning
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
        if min(self.alpha, self.beta, self.gamma) < 0:
            raise ValueError("alpha, beta, gamma must be non-negative")
        if self.batch < 1:
            raise ValueError(f"batch must be at least 1, got {self.batch}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be non-negative, got {self.epochs}")


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


class Adam:
    """Adam over a named parameter dict. lr=0 leaves parameters bit-identical."""

    def __init__(self, params: dict[str, Tensor], lr: float = 1e-3,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = params
        self.lr = lr
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.zero_grad()

    def step(self) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for k, p in self.params.items():
            if p.grad is None:
                continue
            self.m[k] = b1 * self.m[k] + (1 - b1) * p.grad
            self.v[k] = b2 * self.v[k] + (1 - b2) * p.grad**2
            mhat = self.m[k] / (1 - b1**self.t)
            vhat = self.v[k] / (1 - b2**self.t)
            p.data -= self.lr * mhat / (np.sqrt(vhat) + self.eps)


# per-epoch CSV log columns; a stage leaves blank the ones it does not compute
LOG_COLUMNS = ["epoch", "L_r", "L_v", "L_m", "total", "val_recall@5", "wall_seconds"]


def recommendation_loss(backbone: Backbone, final_hidden: Tensor, target: int) -> Tensor:
    """Negative log-probability of the target item at the final position."""
    scores = backbone.next_item_scores(final_hidden, final_hidden.data.shape[0] - 1)
    return -log_softmax(scores)[target]


def _mean(losses: list[Tensor]) -> Tensor:
    acc = losses[0]
    for l in losses[1:]:
        acc = acc + l
    return acc * (1.0 / len(losses))


def _write_log_row(path: str | Path | None, row: list, mode: str) -> None:
    if path:
        with Path(path).open(mode, encoding="utf-8", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerow(row)


def _fit(stage: str, params: dict[str, Tensor], n: int, hyper: TrainHyper, stream: int,
         batch_losses, log_path: str | Path | None, epoch_end=None) -> list[dict]:
    """The epoch loop of every stage: Adam on ``params`` over minibatches of
    sample indices ``range(n)``, shuffled by RNG stream ``stream``.

    ``batch_losses(idx)`` returns an ordered dict of loss Tensors for one
    minibatch; its ``"total"`` is optimised. Each epoch's row holds their
    sample-weighted means, then the entries of ``epoch_end()``, ``epoch``
    and ``wall_seconds``; it is appended to the CSV log at ``log_path``.
    ``params`` are tracked only while a batch's losses are built and
    back-propagated, so ``epoch_end`` and everything after ``_fit`` build
    no graph.
    """
    if n == 0 and hyper.epochs:
        raise ValueError(f"{stage}: no samples to fit")
    opt = Adam(params, lr=hyper.lr)
    rng = Rng(hyper.seed, stream)
    _write_log_row(log_path, LOG_COLUMNS, "w")
    rows: list[dict] = []
    for epoch in range(hyper.epochs):
        t0 = time.monotonic()
        sums: dict[str, float] = {}
        order = rng.permutation(n)
        for start in range(0, n, hyper.batch):
            idx = order[start:start + hyper.batch]
            with tracking(params.values()):
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
        _write_log_row(log_path, [row.get(c, "") for c in LOG_COLUMNS], "a")
    return rows


def pretrain_backbone(backbone: Backbone, samples: list[Sample], hyper: TrainHyper,
                      log_path: str | Path | None = None) -> list[float]:
    """Stage 0: reason-then-recommend training with the recommendation loss only."""
    m = backbone.cfg.m

    def batch_losses(idx):
        losses = []
        for j in idx:
            s = samples[j]
            _, hidden = run_reasoning(backbone, None, s.history, m)
            losses.append(recommendation_loss(backbone, hidden, s.target))
        loss = _mean(losses)
        return {"L_r": loss, "total": loss}

    rows = _fit("pretrain_backbone", backbone.params(), len(samples), hyper, 30,
                batch_losses, log_path, epoch_end=lambda: {"L_v": 0.0, "L_m": 0.0})
    return [row["total"] for row in rows]


def collect_verifier_dataset(backbone: Backbone, samples: list[Sample],
                             labelings: list[GroupLabeling], m: int) -> VerifierData:
    """Stage 1 data: greedy-decode each sample; hits become positives labeled
    with the target's class in every dimension, misses become negatives."""
    if not labelings:
        raise ValueError("verifier data needs at least one labeling dimension")
    data = VerifierData(r_steps=np.zeros((len(samples), m, backbone.cfg.d_m)),
                        labels=np.full((len(samples), len(labelings)), -1, dtype=np.int64))
    for i, s in enumerate(samples):
        trace, hidden = run_reasoning(backbone, None, s.history, m)
        for t, r in enumerate(trace.adjusted()):
            data.r_steps[i, t] = r.data
        if greedy_recommend(backbone, hidden) == s.target:
            for j, lab in enumerate(labelings):
                if s.target >= len(lab.labels):
                    raise ValueError(f"item {s.target} missing from labeling {lab.dimension!r}")
                data.labels[i, j] = lab.labels[s.target]
    return data


def _step_rows(trace) -> Tensor:
    """A trace's adjusted step vectors as the rows of one (m, d_m) Tensor."""
    if isinstance(trace, ReasoningTrace):
        rows = [r.reshape(1, -1) for r in trace.adjusted()]
        if rows:
            return concat(rows)
    elif len(trace):
        return Tensor(np.asarray(trace, dtype=np.float64).reshape(len(trace), -1))
    raise ValueError("verifier_loss requires a non-empty trace")


def verifier_loss(bank: VerifierBank, trace, labels: np.ndarray | None,
                  alpha: float = 1.0) -> Tensor:
    """Mean per-step, per-dimension loss: -log p[label] on positives,
    -alpha * H(p) on negatives (minimizing pushes negative entropy up).
    One fused bank step covers every step of the trace."""
    verdict = verify_and_adjust(bank, _step_rows(trace))
    if labels is None:
        return (verdict.f * -alpha).mean()
    for cls, verifier in zip(labels, bank.verifiers):
        if not 0 <= cls < verifier.d_i:
            raise ValueError(f"label {cls} out of range for dimension "
                             f"{verifier.dimension!r} (d_i={verifier.d_i})")
    return verdict.label_nll(np.asarray(labels, dtype=np.int64))


def verifier_stats(bank: VerifierBank, data: VerifierData) -> tuple[float, float]:
    """(positive class accuracy, negative mean entropy) over collected traces,
    scored one trace at a time."""
    matches, neg_entropies = [], []
    for r_steps, labels, positive in zip(data.r_steps, data.labels, data.positive):
        verdict = verify_and_adjust(bank, Tensor(r_steps))
        if positive:
            matches.append((np.array(verdict.j_star) == labels).ravel())
        else:
            neg_entropies.append(verdict.f.data.ravel())
    acc = float(np.mean(np.concatenate(matches))) if matches else float("nan")
    neg_h = float(np.mean(np.concatenate(neg_entropies))) if neg_entropies else float("nan")
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
    positive = dataset.positive

    def batch_losses(idx):
        loss = _mean([verifier_loss(bank, dataset.r_steps[j],
                                    dataset.labels[j] if positive[j] else None, hyper.alpha)
                      for j in idx])
        return {"L_v": loss, "total": loss}

    rows = _fit("pretrain_verifiers", bank.params(), len(dataset), hyper, 31, batch_losses,
                log_path, epoch_end=lambda: {"stats": verifier_stats(bank, dataset)})
    return [row["stats"] for row in rows]


def monotonicity_loss(trace) -> Tensor:
    """Hinge on entropy increases between consecutive steps, averaged over
    dimensions and step pairs; zero when fewer than two steps."""
    if isinstance(trace, ReasoningTrace):
        f_rows = [v.f for _, _, v in trace.steps if v is not None]
    else:
        f_rows = [Tensor(step) for step in np.asarray(trace, dtype=np.float64)]
    if len(f_rows) < 2:
        return Tensor(0.0)
    n = f_rows[0].shape[0]
    f = concat(f_rows)  # step after step
    return relu(f[n:] - f[:-n]).mean()


def finetune(backbone: Backbone, bank: VerifierBank, samples: list[Sample],
             labelings: list[GroupLabeling], hyper: TrainHyper,
             valid_samples: list[Sample] | None = None,
             log_path: str | Path | None = None) -> list[dict]:
    """Stage 2: joint optimization of L_r + beta L_v + gamma L_m through the
    full reason-verify loop, every sample supervised with its target's labels."""
    from .evaluation import evaluate

    params = {f"backbone.{k}": v for k, v in backbone.params().items()}
    params.update({f"bank.{k}": v for k, v in bank.params().items()})
    m = backbone.cfg.m
    target_labels = np.stack([lab.labels for lab in labelings], axis=1)  # item -> per-dim classes

    def batch_losses(idx):
        l_r_parts, l_v_parts, l_m_parts = [], [], []
        for j in idx:
            s = samples[j]
            trace, hidden = run_reasoning(backbone, bank, s.history, m)
            l_r_parts.append(recommendation_loss(backbone, hidden, s.target))
            if m > 0:
                l_v_parts.append(verifier_loss(bank, trace, target_labels[s.target],
                                               hyper.alpha))
                l_m_parts.append(monotonicity_loss(trace))
        l_r = _mean(l_r_parts)
        l_v = _mean(l_v_parts) if l_v_parts else Tensor(0.0)
        l_m = _mean(l_m_parts) if l_m_parts else Tensor(0.0)
        total = l_r + hyper.beta * l_v + hyper.gamma * l_m
        return {"L_r": l_r, "L_v": l_v, "L_m": l_m, "total": total}

    def val_recall():
        return {"val_recall@5": evaluate(backbone, bank, valid_samples, m=m, ks=(5,)).recall[5]}

    return _fit("finetune", params, len(samples), hyper, 32, batch_losses, log_path,
                epoch_end=val_recall if valid_samples else None)
