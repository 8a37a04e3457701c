"""Mixture of preference verifiers with a personalized router.

Each verifier scores a reasoning representation against one group-preference
dimension: a router weights the dimensions, each verifier predicts a class
distribution, and the prediction entropy is turned into a confidence that
interpolates between the raw representation and the predicted class
prototype (a column of the verifier's last layer).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .numerics import (
    Rng,
    Tensor,
    add_rowvec,
    confidence,
    entropy,
    gelu,
    matmul,
    softmax,
)

__all__ = ["Router", "StepVerdict", "Verifier", "VerifierBank", "make_bank", "predict_all"]

EPSILON = 1e-6


@dataclass
class Verifier:
    """One verification dimension: optional gelu MLP trunk, then a d_m x d_i head."""

    dimension: str
    d_i: int
    hidden: list[tuple[Tensor, Tensor]]  # (weight, bias) pairs, may be empty
    w_last: Tensor  # d_m x d_i; columns act as class prototypes
    b_last: Tensor  # d_i

    def __post_init__(self):
        if self.w_last.shape[1] != self.d_i:
            raise ValueError(f"verifier {self.dimension!r}: last layer has "
                             f"{self.w_last.shape[1]} columns, d_i={self.d_i}")


@dataclass
class Router:
    a: Tensor  # n x d_m
    bias: Tensor  # n


@dataclass
class VerifierBank:
    verifiers: list[Verifier]
    router: Router
    epsilon: float = EPSILON
    uniform_router: bool = False  # ablation switch: bypass the learned router

    def __post_init__(self):
        if not self.verifiers:
            raise ValueError("bank requires at least one verifier")
        if self.router.a.shape[0] != len(self.verifiers):
            raise ValueError(f"router rows ({self.router.a.shape[0]}) != "
                             f"verifier count ({len(self.verifiers)})")

    @property
    def n(self) -> int:
        return len(self.verifiers)

    def params(self) -> dict[str, Tensor]:
        p: dict[str, Tensor] = {"router.a": self.router.a, "router.bias": self.router.bias}
        for i, v in enumerate(self.verifiers):
            for j, (w, b) in enumerate(v.hidden):
                p[f"verifiers.{i}.hidden.{j}.w"] = w
                p[f"verifiers.{i}.hidden.{j}.b"] = b
            p[f"verifiers.{i}.w_last"] = v.w_last
            p[f"verifiers.{i}.b_last"] = v.b_last
        return p


@dataclass
class StepVerdict:
    """Everything the bank computed for one reasoning step."""

    w: Tensor  # router weights, R^n
    p: list[Tensor]  # per-verifier class distributions
    f: list[Tensor]  # per-verifier entropies (scalars)
    c: list[Tensor]  # per-verifier confidences (scalars)
    j_star: list[int]  # per-verifier argmax classes
    g: list[Tensor]  # per-verifier guidance prototypes, R^{d_m}
    r_star: Tensor = field(default=None)  # adjusted representation


def make_bank(dimensions: list[tuple[str, int]], d_m: int, seed: int = 0,
              hidden_width: int = 0, hidden_depth: int = 1) -> VerifierBank:
    """Build a bank with one verifier per (dimension-name, d_i) pair.

    ``hidden_depth`` counts layers including the classifier head: depth 1 is
    the default linear verifier, depth k adds k-1 gelu layers of
    ``hidden_width`` units (the trunk maps back to d_m before the head so
    prototype columns stay in representation space).
    """
    rng = Rng(seed, 20)
    verifiers = []
    for name, d_i in dimensions:
        hidden: list[tuple[Tensor, Tensor]] = []
        if hidden_depth > 1:
            if hidden_width <= 0:
                raise ValueError("hidden_depth > 1 requires a positive hidden_width")
            widths = [d_m] + [hidden_width] * (hidden_depth - 2) + [d_m]
            for a, b in zip(widths, widths[1:]):
                hidden.append((Tensor(rng.normal((a, b), std=0.02)), Tensor(np.zeros(b))))
        verifiers.append(Verifier(
            dimension=name, d_i=d_i, hidden=hidden,
            w_last=Tensor(rng.normal((d_m, d_i), std=0.02)), b_last=Tensor(np.zeros(d_i))))
    router = Router(a=Tensor(rng.normal((len(dimensions), d_m), std=0.02)),
                    bias=Tensor(np.zeros(len(dimensions))))
    return VerifierBank(verifiers=verifiers, router=router)


def route(bank: VerifierBank, r: Tensor) -> Tensor:
    """Personalized mixture weights w = softmax(A r + bias)."""
    if bank.uniform_router:
        return Tensor(np.full(bank.n, 1.0 / bank.n))
    return softmax(matmul(bank.router.a, r) + bank.router.bias)


def predict(verifier: Verifier, x: Tensor) -> Tensor:
    """Class distribution p = softmax(head(trunk(x)))."""
    h = x
    for w, b in verifier.hidden:
        h = gelu(matmul(h, w) + b)
    return softmax(matmul(h, verifier.w_last) + verifier.b_last)


def predict_all(bank: VerifierBank, r: Tensor) -> tuple[Tensor, list[Tensor]]:
    """Router weights w and every verifier's distribution p_i = predict(v_i, w_i r)."""
    w = route(bank, r)
    return w, [predict(verifier, w[i] * r) for i, verifier in enumerate(bank.verifiers)]


def guidance(verifier: Verifier, p: Tensor) -> tuple[int, Tensor]:
    """Prototype column of the predicted class: exactly W_last[:, argmax p]."""
    j_star = int(np.argmax(p.data))
    return j_star, verifier.w_last[:, j_star]


def verify_and_adjust(bank: VerifierBank, r: Tensor) -> StepVerdict:
    """Route, predict, and confidence-adjust one reasoning representation.

    r* averages the per-verifier interpolation (1-c_i) r + c_i g_i, so each
    term is a convex combination of the raw representation and the chosen
    prototype.
    """
    w, ps = predict_all(bank, r)
    verdict = StepVerdict(w=w, p=ps, f=[], c=[], j_star=[], g=[])
    acc = None
    for verifier, p in zip(bank.verifiers, ps):
        f = entropy(p)
        c = confidence(f, eps=bank.epsilon)
        j_star, g = guidance(verifier, p)
        verdict.f.append(f)
        verdict.c.append(c)
        verdict.j_star.append(j_star)
        verdict.g.append(g)
        term = (1.0 - c) * r + c * g
        acc = term if acc is None else acc + term
    verdict.r_star = acc * (1.0 / bank.n)
    return verdict
