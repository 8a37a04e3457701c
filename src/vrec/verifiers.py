"""Mixture of preference verifiers with a personalized router.

Each verifier scores a reasoning representation against one group-preference
dimension: a router weights the dimensions, each verifier predicts a class
distribution, and the prediction entropy is turned into a confidence that
interpolates between the raw representation and the predicted class
prototype (a column of the verifier's head).

A bank stores its weights stacked over verifiers, as a dense mixture of
experts does: each trunk layer as one (n, a, b) weight, and the heads of
the n_k verifiers with k classes as one (n_k, d_m, k) weight. One step
through the whole bank, over a batch of representations as rows, is one
graph node (``verify_and_adjust``) whose hand-written vector-Jacobian
product runs each of those stacks as one batched product. Its output packs
[r* | w | p_1 .. p_n | f | c] along the last axis, and ``StepVerdict``
reads r*, w and f as views of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, pairwise

import numpy as np

from .numerics import (Rng, Tensor, _gelu_deriv, _gelu_np, _node, _softmax_np, log,
                       parameter_vectors)

__all__ = ["Router", "StepVerdict", "VerifierBank", "check_bank_shape", "check_class_count",
           "make_bank", "verify_and_adjust"]

EPSILON = 1e-6


@dataclass
class Router:
    a: Tensor  # n x d_m
    bias: Tensor  # n


class VerifierBank:
    """One verifier per (dimension name, class count d_i) pair, and their
    router, all weights zero until set (``make_bank`` draws them).

    ``hidden_depth`` counts layers including the classifier head: depth 1
    is a linear verifier, depth k adds a trunk of k-1 gelu layers whose
    inner widths are ``hidden_width`` (0: d_m). The trunk maps back to d_m
    before the head, so prototype columns stay in representation space.
    ``trunk`` holds each layer's stacked (weight, bias) and ``heads`` each
    class count's; every parameter's ``.data`` is a view of the ``values``
    vector, and gradients are not the bank's own.
    """

    def __init__(self, dimensions: list[tuple[str, int]], d_m: int, hidden_width: int = 0,
                 hidden_depth: int = 1):
        check_bank_shape(hidden_width, hidden_depth)
        if not dimensions:
            raise ValueError("bank requires at least one verifier")
        for _, d_i in dimensions:
            check_class_count(d_i)
        self.dimensions = [(name, d_i) for name, d_i in dimensions]
        self.uniform_router = False  # ablation switch: bypass the learned router
        self.sizes = [d_i for _, d_i in dimensions]
        self.offsets = list(accumulate(self.sizes[:-1], initial=0))  # of each p_i in p_1 .. p_n
        self.n = n = len(self.sizes)
        self.d_m = d_m
        self.n_classes = sum(self.sizes)  # classes of all verifiers together: p_1 .. p_n
        self.router = Router(a=Tensor(np.zeros((n, d_m))), bias=Tensor(np.zeros(n)))
        inner = [hidden_width or d_m] * (hidden_depth - 2)
        widths = [d_m, *inner, d_m] if hidden_depth > 1 else []
        self.trunk = [(Tensor(np.zeros((n, a, b))), Tensor(np.zeros((n, b))))
                      for a, b in zip(widths, widths[1:])]
        members: dict[int, list[int]] = {}
        for i, k in enumerate(self.sizes):
            members.setdefault(k, []).append(i)
        self.heads = {k: (Tensor(np.zeros((len(idx), d_m, k))), Tensor(np.zeros((len(idx), k))))
                      for k, idx in sorted(members.items())}
        # by class count k: its verifiers and their columns within p_1 .. p_n
        # (slices when every verifier has k classes)
        self.groups = [(k, np.array(idx), np.array([self.offsets[i] + a for i in idx
                                                   for a in range(k)]))
                       for k, idx in sorted(members.items())]
        if len(members) == 1:
            self.groups = [(self.sizes[0], slice(None), slice(None))]
        self.values = parameter_vectors(self.params())
        # the step's children after r, in the order its VJP returns gradients
        self.leaves = (self.router.a, self.router.bias,
                       *(t for layer in self.trunk + list(self.heads.values()) for t in layer))

    def params(self) -> dict[str, Tensor]:
        p: dict[str, Tensor] = {"router.a": self.router.a, "router.bias": self.router.bias}
        for j, (w, b) in enumerate(self.trunk):
            p[f"trunk.{j}.w"], p[f"trunk.{j}.b"] = w, b
        for k, (w, b) in self.heads.items():
            p[f"heads.{k}.w"], p[f"heads.{k}.b"] = w, b
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
        pick[rows[:, None], np.add(self._bank.offsets, labels[rows])] = -1.0
        return (log(p) * pick).sum()


def check_bank_shape(hidden_width: int, hidden_depth: int) -> None:
    """Reject a verifier shape a bank cannot have."""
    if hidden_depth < 1 or hidden_width < 0:
        raise ValueError(f"a verifier needs depth >= 1 and width >= 0, "
                         f"got depth {hidden_depth}, width {hidden_width}")


def check_class_count(d_i) -> None:
    """Reject a verifier class count: a verifier chooses among 2 or more."""
    if not isinstance(d_i, int) or d_i < 2:
        raise ValueError(f"d_i must be an integer >= 2, got {d_i!r}")


def make_bank(dimensions: list[tuple[str, int]], d_m: int, seed: int = 0,
              hidden_width: int = 0, hidden_depth: int = 1) -> VerifierBank:
    """A ``VerifierBank`` with its weights drawn from RNG stream 20 of
    ``seed``: verifier by verifier, its trunk layers and then its head,
    each into its slot of the stacks; the router last. Biases stay zero."""
    bank = VerifierBank(dimensions, d_m, hidden_width, hidden_depth)
    rng = Rng(seed, 20)
    slots = dict.fromkeys(bank.heads, 0)
    for i, k in enumerate(bank.sizes):
        for w, _ in bank.trunk:
            w.data[i] = rng.normal(w.shape[1:], std=0.02)
        bank.heads[k][0].data[slots[k]] = rng.normal((d_m, k), std=0.02)
        slots[k] += 1
    bank.router.a.data[:] = rng.normal(bank.router.a.shape, std=0.02)
    return bank


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
    the same ops applied one verifier and one row at a time: each batched
    product makes one row's and one verifier's BLAS call.
    """
    n, x = bank.n, r.data
    if x.ndim != 2 or x.shape[1] != bank.d_m:
        raise ValueError(f"verify_and_adjust: expected (B, {bank.d_m}) rows, got shape {x.shape}")
    if bank.uniform_router:
        w = np.full((len(x), n), 1.0 / n)
    else:
        w = _softmax_np(_rowwise(x, bank.router.a.data.T) + bank.router.bias.data)
    h = w[:, :, None] * x[:, None, :]  # w_i r, per verifier
    trunk = []
    for wt, b in bank.trunk:
        u = (h[:, :, None] @ wt.data)[:, :, 0] + b.data
        out, tanh = _gelu_np(u)
        trunk.append((h, u, tanh))
        h = out
    B, d = x.shape
    p, f = np.empty((B, bank.n_classes)), np.empty((B, n))
    j, protos = np.empty((B, n), dtype=np.intp), np.empty((B, n, d))
    for k, idx, cols in bank.groups:  # softmax, entropy, argmax on (B, n_k, k)
        w_k, b_k = (t.data for t in bank.heads[k])
        p_k = _softmax_np((h[:, idx, None] @ w_k)[:, :, 0] + b_k, axis=2)
        p[:, cols] = p_k.reshape(B, -1)
        f[:, idx] = -np.add.reduce(p_k * np.log(np.where(p_k > 0.0, p_k, 1.0)), axis=2)  # 0 log 0 is 0
        j[:, idx] = j_k = p_k.argmax(axis=2)
        protos[:, idx] = w_k[np.arange(len(w_k)), :, j_k]  # W_last_i[:, j*_i]
    c = np.minimum(1.0, 1.0 / np.maximum(f, EPSILON))
    terms = (1.0 - c)[:, :, None] * x[:, None, :] + c[:, :, None] * protos
    r_star = np.add.accumulate(terms, axis=1)[:, -1] * (1.0 / n)  # summed verifier by verifier
    packed = np.concatenate([r_star, w, p, f, c], axis=1)

    def vjp(g_out):
        cuts = accumulate((d, n, p.shape[1], n, n), initial=0)
        g_r, g_w, g_p, g_f, g_c = (g_out[:, a:b] for a, b in pairwise(cuts))
        g_acc = g_r * (1.0 / n)
        g_c = g_c + np.add.reduce((protos - x[:, None, :]) * g_acc[:, None, :], axis=2)
        g_f = g_f + g_c * np.where(f > 1.0, -1.0 / (f * f), 0.0)
        g_p = g_p - g_f.repeat(bank.sizes, axis=1) * (np.log(np.maximum(p, 1e-300)) + 1.0)
        g_z = p * (g_p - np.add.reduceat(g_p * p, bank.offsets, axis=1).repeat(bank.sizes, axis=1))
        # verifiers lead the batched products below: (n_k, d, B) @ (n_k, B, k) and back
        g_b, g_h, heads = np.add.reduce(g_z, axis=0), np.empty((B, n, d)), []
        for k, idx, cols in bank.groups:
            w_k = bank.heads[k][0].data
            g_zk = g_z[:, cols].reshape(B, -1, k).transpose(1, 0, 2)
            chosen = c[:, idx].T[:, :, None] * np.eye(k)[j[:, idx].T]
            heads += [h[:, idx].transpose(1, 2, 0) @ g_zk + g_acc.T @ chosen,
                      g_b[cols].reshape(-1, k)]
            g_h[:, idx] = (g_zk @ w_k.transpose(0, 2, 1)).transpose(1, 0, 2)
        layers = []
        for (h_in, u, tanh), (wt, _) in zip(reversed(trunk), reversed(bank.trunk)):
            g_u = (g_h * _gelu_deriv(u, tanh)).transpose(1, 0, 2)
            layers[:0] = [h_in.transpose(1, 2, 0) @ g_u, np.add.reduce(g_u, axis=1)]
            g_h = (g_u @ wt.data.transpose(0, 2, 1)).transpose(1, 0, 2)
        g_w = g_w + np.add.reduce(g_h * x[:, None, :], axis=2)
        # g_x gathers the verifiers' terms one by one, in the chain's order
        g_x = np.concatenate([(g_acc * np.add.reduce(1.0 - c, axis=1, keepdims=True))[:, None],
                              w[:, :, None] * g_h], axis=1)
        g_x = np.add.accumulate(g_x, axis=1)[:, -1]
        if bank.uniform_router:
            router = [None, None]
        else:
            g_a = w * (g_w - np.add.reduce(g_w * w, axis=1, keepdims=True))
            g_x += g_a @ bank.router.a.data
            router = [g_a.T @ x, np.add.reduce(g_a, axis=0)]
        return (g_x, *router, *layers, *heads)

    return StepVerdict(bank, _node(packed, (r, *bank.leaves), "verify_and_adjust", vjp), j)
