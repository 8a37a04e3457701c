"""Mixture of preference verifiers with a personalized router.

Each verifier scores a reasoning representation against one group-preference
dimension: a router weights the dimensions, each verifier predicts a class
distribution, and the prediction entropy is turned into a confidence that
interpolates between the raw representation and the predicted class
prototype (a column of the verifier's last layer).

One step through the whole bank, over a batch of representations as rows,
is one graph node with a hand-written vector-Jacobian product
(``verify_and_adjust``). Its output packs [r* | w | p_1 .. p_n | f | c]
along the last axis, and ``StepVerdict`` reads r*, w and f as views of it.
The step runs the verifiers' trunks and heads as batched products over
their weights stacked per call, one per trunk layer and per class count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .numerics import (Rng, Tensor, _gelu_deriv, _gelu_np, _node, _softmax_np, log,
                       parameter_vectors)

__all__ = ["Router", "StepVerdict", "Verifier", "VerifierBank", "check_bank_shape",
           "make_bank", "verify_and_adjust"]

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
    """The verifiers and their router. Every parameter's ``.data`` and
    ``.grad`` are views of the ``values`` and ``grads`` vectors."""

    verifiers: list[Verifier]
    router: Router
    uniform_router: bool = False  # ablation switch: bypass the learned router
    values: np.ndarray = field(init=False, repr=False)
    grads: np.ndarray = field(init=False, repr=False)
    class_groups: list = field(init=False, repr=False)

    def __post_init__(self):
        if not self.verifiers:
            raise ValueError("bank requires at least one verifier")
        if self.router.a.shape[0] != len(self.verifiers):
            raise ValueError(f"router rows ({self.router.a.shape[0]}) != "
                             f"verifier count ({len(self.verifiers)})")
        trunks = {tuple(w.shape for w, _ in v.hidden) for v in self.verifiers}
        if len(trunks) > 1:
            raise ValueError(f"a bank's verifiers share one trunk shape, got {sorted(trunks)}")
        self.values, self.grads = parameter_vectors(self.params())
        # by class count k: the verifiers with k classes, their indices and
        # their columns within p_1 .. p_n (slices when every verifier has k)
        offsets, groups = self.class_offsets(), {}
        for i, v in enumerate(self.verifiers):
            groups.setdefault(v.d_i, []).append(i)
        self.class_groups = [([self.verifiers[i] for i in idx], idx,
                              [offsets[i] + a for i in idx for a in range(k)])
                             for k, idx in sorted(groups.items())]
        if len(groups) == 1:
            self.class_groups = [(self.verifiers, slice(None), slice(None))]

    @property
    def n(self) -> int:
        return len(self.verifiers)

    @property
    def d_m(self) -> int:
        return self.router.a.shape[1]

    @property
    def n_classes(self) -> int:
        """Classes of all verifiers together, the length of p_1 .. p_n."""
        return sum(v.d_i for v in self.verifiers)

    def class_offsets(self) -> list[int]:
        """Where each verifier's classes start within p_1 .. p_n."""
        return list(accumulate((v.d_i for v in self.verifiers[:-1]), initial=0))

    def params(self) -> dict[str, Tensor]:
        p: dict[str, Tensor] = {"router.a": self.router.a, "router.bias": self.router.bias}
        for i, v in enumerate(self.verifiers):
            for j, (w, b) in enumerate(v.hidden):
                p[f"verifiers.{i}.hidden.{j}.w"] = w
                p[f"verifiers.{i}.hidden.{j}.b"] = b
            p[f"verifiers.{i}.w_last"] = v.w_last
            p[f"verifiers.{i}.b_last"] = v.b_last
        return p


class StepVerdict:
    """Everything the bank computed for one reasoning step, for each of B rows.

    ``packed`` is the fused step's (B, P) output, [r* | w | p_1 .. p_n | f | c]
    along its last axis. The fields are basic-index views of its columns,
    built each time they are read. A latent step reads none of them: the
    next block reads r* as ``packed``'s first d_m columns.
    """

    def __init__(self, bank: "VerifierBank", packed: Tensor, j_star: np.ndarray):
        self.packed = packed
        self._bank = bank
        self._j = j_star  # (B, n) argmax classes

    @property
    def r_star(self) -> Tensor:
        """Adjusted representations, (B, d_m)."""
        return self.packed[:, :self._bank.d_m]

    @property
    def w(self) -> Tensor:
        """Router weights, (B, n)."""
        d, n = self._bank.d_m, self._bank.n
        return self.packed[:, d:d + n]

    @property
    def f(self) -> Tensor:
        """Per-verifier prediction entropies, (B, n)."""
        lo = self._bank.d_m + self._bank.n + self._bank.n_classes
        return self.packed[:, lo:lo + self._bank.n]

    @property
    def j_star(self) -> list:
        """Per-verifier argmax classes, one list per row."""
        return self._j.tolist()

    def label_nll(self, labels: np.ndarray) -> Tensor:
        """Sum over rows and verifiers of -log p_i[labels[row, i]], the terms
        added row by row and, within a row, verifier by verifier; a row whose
        labels are -1 adds nothing. ``labels`` is (B, n), one row per row."""
        p_lo = self._bank.d_m + self._bank.n
        p = self.packed[:, p_lo:p_lo + self._bank.n_classes]
        rows = np.flatnonzero(labels[:, 0] >= 0)
        pick = np.zeros(p.shape)
        pick[rows[:, None], np.add(self._bank.class_offsets(), labels[rows])] = -1.0
        return (log(p) * pick).sum()


def check_bank_shape(hidden_width: int, hidden_depth: int) -> None:
    """Reject a verifier shape ``make_bank`` cannot build."""
    if hidden_depth < 1 or hidden_width < 0:
        raise ValueError(f"a verifier needs depth >= 1 and width >= 0, "
                         f"got depth {hidden_depth}, width {hidden_width}")


def make_bank(dimensions: list[tuple[str, int]], d_m: int, seed: int = 0,
              hidden_width: int = 0, hidden_depth: int = 1) -> VerifierBank:
    """Build a bank with one verifier per (dimension-name, d_i) pair.

    ``hidden_depth`` counts layers including the classifier head: depth 1 is
    the default linear verifier, depth k adds a trunk of k-1 gelu layers
    whose inner widths are ``hidden_width`` (0: d_m). The trunk maps back to
    d_m before the head so prototype columns stay in representation space;
    so at depth 2 its one layer is d_m x d_m whatever the width.
    """
    check_bank_shape(hidden_width, hidden_depth)
    rng = Rng(seed, 20)
    verifiers = []
    for name, d_i in dimensions:
        hidden: list[tuple[Tensor, Tensor]] = []
        if hidden_depth > 1:
            widths = [d_m] + [hidden_width or d_m] * (hidden_depth - 2) + [d_m]
            for a, b in zip(widths, widths[1:]):
                hidden.append((Tensor(rng.normal((a, b), std=0.02)), Tensor(np.zeros(b))))
        verifiers.append(Verifier(
            dimension=name, d_i=d_i, hidden=hidden,
            w_last=Tensor(rng.normal((d_m, d_i), std=0.02)), b_last=Tensor(np.zeros(d_i))))
    router = Router(a=Tensor(rng.normal((len(dimensions), d_m), std=0.02)),
                    bias=Tensor(np.zeros(len(dimensions))))
    return VerifierBank(verifiers=verifiers, router=router)


def _rowwise(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Each row of ``x`` times ``w`` as a vector-matrix product of its own, so
    a row gets the same bits alone as in a batch."""
    return (x[:, None, :] @ w)[:, 0]


def verify_and_adjust(bank: VerifierBank, r: Tensor) -> StepVerdict:
    """Route, predict, and confidence-adjust reasoning representations.

    ``r`` holds B representations as (B, d_m) rows; each row is handled on
    its own. Per row: w = softmax(A r + bias) (1/n each
    with ``uniform_router``); p_i = softmax(head_i(trunk_i(w_i r))); entropy
    f_i = H(p_i); confidence c_i = min(1, 1 / max(f_i, EPSILON)); class
    j*_i = argmax p_i (the lowest index on a tie); and r* averages the
    per-verifier interpolation (1 - c_i) r + c_i W_last_i[:, j*_i], so each
    term is a convex combination of the raw representation and the chosen
    prototype. All of it is one graph node, whose values have the bits of
    the same ops applied one verifier and one row at a time.
    """
    vs = bank.verifiers
    n = len(vs)
    x = r.data
    if x.ndim != 2 or x.shape[1] != bank.d_m:
        raise ValueError(f"verify_and_adjust: expected (B, {bank.d_m}) rows, got shape {x.shape}")
    if bank.uniform_router:
        w = np.full((len(x), n), 1.0 / n)
    else:
        w = _softmax_np(_rowwise(x, bank.router.a.data.T) + bank.router.bias.data)
    # every verifier at once: trunks and heads stacked over verifiers, so
    # each batched product makes one row's and one verifier's BLAS call
    h = w[:, :, None] * x[:, None, :]  # w_i r, per verifier
    trunk = []
    for layer in zip(*(v.hidden for v in vs)):
        u = (h[:, :, None] @ np.array([wt.data for wt, _ in layer]))[:, :, 0] \
            + np.array([b.data for _, b in layer])
        out, tanh = _gelu_np(u)
        trunk.append((h, u, tanh))
        h = out
    B = len(x)
    p, f = np.empty((B, bank.n_classes)), np.empty((B, n))
    j, protos = np.empty((B, n), dtype=np.intp), np.empty((B, n, x.shape[1]))
    for heads, idx, cols in bank.class_groups:  # softmax, entropy, argmax on (B, n_k, k)
        w_last = np.array([v.w_last.data for v in heads])
        z = (h[:, idx, None] @ w_last)[:, :, 0] + np.array([v.b_last.data for v in heads])
        p_k = _softmax_np(z, axis=2)
        p[:, cols] = p_k.reshape(B, -1)
        f[:, idx] = -np.add.reduce(p_k * np.log(np.where(p_k > 0.0, p_k, 1.0)), axis=2)  # 0 log 0 is 0
        j[:, idx] = j_k = p_k.argmax(axis=2)
        protos[:, idx] = w_last[np.arange(len(heads)), :, j_k]  # W_last_i[:, j*_i]
    c = np.minimum(1.0, 1.0 / np.maximum(f, EPSILON))
    terms = (1.0 - c)[:, :, None] * x[:, None, :] + c[:, :, None] * protos
    r_star = np.add.accumulate(terms, axis=1)[:, -1] * (1.0 / n)  # summed verifier by verifier
    packed = np.concatenate([r_star, w, p, f, c], axis=1)

    def vjp(g_out):
        d = x.shape[1]
        starts, sizes = bank.class_offsets(), [v.d_i for v in vs]
        g_r, g_w, g_p, g_f, g_c = np.split(g_out, np.cumsum([d, n, p.shape[1], n]), axis=1)
        g_acc = g_r * (1.0 / n)
        g_x = g_acc * (1.0 - c).sum(axis=1, keepdims=True)
        g_c = g_c + ((protos - x[:, None, :]) * g_acc[:, None, :]).sum(axis=2)
        g_f = g_f + g_c * np.where(f > 1.0, -1.0 / (f * f), 0.0)
        g_p = g_p - g_f.repeat(sizes, axis=1) * (np.log(np.maximum(p, 1e-300)) + 1.0)
        g_z = p * (g_p - np.add.reduceat(g_p * p, starts, axis=1).repeat(sizes, axis=1))
        grads = []
        g_w = g_w.copy()  # a view of g_out until now
        for i, (v, a) in enumerate(zip(vs, starts)):
            g_zi = g_z[:, a:a + v.d_i]
            g_wlast = h[:, i].T @ g_zi + g_acc.T @ (c[:, i, None] * np.eye(v.d_i)[j[:, i]])
            g_h = g_zi @ v.w_last.data.T
            layer_grads = []
            for (h_in, u, tanh), (wt, _) in zip(reversed(trunk), reversed(v.hidden)):
                g_u = g_h * _gelu_deriv(u[:, i], tanh[:, i])
                layer_grads[:0] = [h_in[:, i].T @ g_u, g_u.sum(axis=0)]
                g_h = g_u @ wt.data.T
            g_x += w[:, i, None] * g_h
            g_w[:, i] += (g_h * x).sum(axis=1)
            grads.extend(layer_grads + [g_wlast, g_zi.sum(axis=0)])
        if bank.uniform_router:
            router = [None, None]
        else:
            g_a = w * (g_w - (g_w * w).sum(axis=1, keepdims=True))
            g_x += g_a @ bank.router.a.data
            router = [g_a.T @ x, g_a.sum(axis=0)]
        return (g_x, *router, *grads)

    children = [r, bank.router.a, bank.router.bias]  # in the order vjp returns gradients
    for v in vs:
        children += [t for pair in v.hidden for t in pair] + [v.w_last, v.b_last]
    return StepVerdict(bank, _node(packed, tuple(children), "verify_and_adjust", vjp), j)
