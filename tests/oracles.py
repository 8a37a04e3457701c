"""Code that only the tests use.

The fused ops in ``vrec`` (``numerics.transformer_block``, the verifier
bank step) replaced chains of elementary ops; the chains stay in the tests
as their oracles (``encode_chain`` is the backbone's), and the first ops
here are the ones the chains need that the library no longer does. They
are built on ``numerics._node`` like every library op. The rest are small
references the tests check the library against, the finite-difference
gradient check, a reader of a ``KVCache``'s keys and values, readers of
a verifier's slices of the bank's stacks and of verdict fields that only
tests read, bare tensors as one model and a reader of a model's
parameter gradients in layout order, the CF trainer's one-draw-per-sample
loop, the name of the BLAS kernel in use, and a checkpoint writer for
tests that edit a saved header."""

import ctypes
import glob
import json
import os
import struct
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from vrec.checkpoint import MAGIC
from vrec.labeling import CF_DIM, CF_EPOCHS, CF_LR, CfModel
from vrec.numerics import (Rng, Tensor, _attention_np, _gelu_deriv, _gelu_np, _node,
                           _softmax_np, concat, embedding_lookup, layer_norm, matmul,
                           parameter_layout, parameter_vectors, row_operands, tracking)
from vrec.reasoning import recommend


def add_positions(x: Tensor, table: Tensor, ids) -> Tensor:
    """Add row ids[r] of a (V, d) table to row r of a (T, d) matrix: each
    row's position. The table's gradient scatters back, repeated ids adding."""
    ids = np.asarray(ids, dtype=np.int64)
    if x.data.ndim != 2 or table.data.ndim != 2 or ids.shape != (len(x.data),) \
            or x.data.shape[1] != table.data.shape[1]:
        raise ValueError(f"add_positions: shapes {x.data.shape} + {table.data.shape} "
                         f"at {ids.shape} ids")

    def vjp(g):
        g_table = np.zeros_like(table.data)
        np.add.at(g_table, ids, g)
        return g, g_table
    return _node(x.data + table.data[ids], (x, table), "add_positions", vjp)


def add_rowvec(x: Tensor, b: Tensor) -> Tensor:
    """Add a length-d vector to every row of a (T, d) matrix (explicit, not broadcast)."""
    if x.data.ndim != 2 or b.data.ndim != 1 or x.data.shape[1] != b.data.shape[0]:
        raise ValueError(f"add_rowvec: shape mismatch {x.data.shape} + {b.data.shape}")
    return _node(x.data + b.data[None, :], (x, b), "add_rowvec", lambda g: (g, g.sum(axis=0)))


def concat_columns(parts: Sequence[Tensor]) -> Tensor:
    """Join matrices side by side (``numerics.concat`` joins rows only)."""
    parts = tuple(parts)

    def vjp(g):
        return tuple(np.split(g, np.cumsum([p.data.shape[1] for p in parts])[:-1], axis=1))
    return _node(np.concatenate([p.data for p in parts], axis=1), parts, "concat_columns", vjp)


def norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """``layer_norm`` given its gain and bias rows (``row_operands``), made
    for the call: a model makes them once."""
    return layer_norm(x, gain, bias, row_operands((gain, bias)))


def gelu(x: Tensor) -> Tensor:
    """Tanh-approximation GELU."""
    xd = x.data
    out, tanh = _gelu_np(xd)
    return _node(out, (x,), "gelu", lambda g: (g * _gelu_deriv(xd, tanh),))


def attention(q: Tensor, k: Tensor, v: Tensor, heads: int,
              mask: np.ndarray | None = None, batch: int = 1) -> Tensor:
    """``numerics._attention_np`` as one node; the gradient flows to ``q``,
    ``k`` and ``v``."""
    rows, d = q.data.shape
    keys = k.data.shape[0]
    n, T = rows // batch, keys // batch
    if rows % batch or keys % batch or k.data.shape[1] != d or v.data.shape != k.data.shape \
            or d % heads:
        raise ValueError(f"attention: shapes q {q.data.shape}, k {k.data.shape}, "
                         f"v {v.data.shape} with {heads} heads, batch {batch}")
    if mask is not None and (mask.shape[-2:] != (n, T) or mask.ndim == 3 and len(mask) != batch):
        raise ValueError(f"attention: mask shape {mask.shape}, expected {(n, T)} "
                         f"or {(batch, n, T)}")
    out, vjp = _attention_np(q.data, k.data, v.data, heads, mask, batch)
    return _node(out, (q, k, v), "attention", vjp)


MASKED = -1e30  # an additive attention mask's value for a hidden key


@dataclass
class ChainCache:
    """``encode_chain``'s cache: each layer's keys and values as graph
    Tensors, grown by one concat per call; the positions each sequence
    holds; and which columns are padding, per sequence (None while none
    are). Like a ``KVCache``, it has ``batch``, ``pad`` and ``lengths``."""

    keys: list = field(default_factory=list)
    values: list = field(default_factory=list)
    batch: int = 0
    pad: np.ndarray | None = None  # (batch, columns) bool
    lengths: np.ndarray | None = None

    def __len__(self) -> int:
        return self.keys[0].shape[0] // self.batch if self.keys else 0


def encode_chain(model, history, injected=None, cache=None, every_row=False) -> Tensor:
    """``Backbone.encode``'s reference, built apart from it: each sequence's
    tokens, then its latents (a packed verdict cut to its first d_m
    columns), from its own length in ``cache`` on. It places the token and
    position rows, tracks the padding and masks the attention itself; adds
    each row's position before the first block, as one ``add_positions``
    node by position id; and runs each block, whose keys have no bias, as
    the chain of elementary ops that ``numerics.transformer_block`` fuses.
    Like ``encode`` it returns each sequence's last position, a (B, d_m)
    row per sequence: where a call holds more than one column, the top
    block takes its keys and values from every row and then picks the
    last rows out (``embedding_lookup``) for the rest. With ``every_row``
    the top block computes every row and all of them are returned, the
    path ``encode`` took before it computed only the rows it returns.
    Unlike ``encode`` it takes any mix in one call, so histories and
    several latents in one uncached call are the re-encode reference of a
    cached rollout. Its cache is a ``ChainCache``.

    A block's normed rows u feed three products, created in the order v,
    q (after the top block's read-row lookups), then k. ``backward`` walks
    the tape from the last-created node back, so it sums u's gradient as
    (g_k + g_q) + g_v, the order in which ``transformer_block``'s VJP sums
    it. A float sum of three terms depends on their order, so another
    creation order changes the gradient's last bits; the values computed
    do not depend on it."""
    cache = ChainCache() if cache is None else cache
    p, cfg = model.params(), model.cfg
    d = cfg.d_m
    seqs = [history] if len(history) and np.ndim(history[0]) == 0 else list(history)
    B = cache.batch or len(seqs)
    counts = np.array([len(s) for s in seqs] or [0] * B)
    latents = [t if t.shape[1] == d else t[:, :d] for t in injected or []]
    width = int(counts.max())
    n, old = width + len(latents), len(cache)
    starts = cache.lengths if cache.batch else np.zeros(B, int)

    # column c of sequence b: token c, padding (the non-item token at
    # position 0), or latent c - width
    column = np.arange(n)[:, None]
    padding = (column >= counts) & (column < width)  # (n, B)
    position = starts + np.where(column < width, column, column - width + counts)
    position[padding] = 0
    grid = np.full((width, B), cfg.n_items)
    for b, s in enumerate(seqs):
        grid[:len(s), b] = s
    parts = [embedding_lookup(p["tok_emb"], grid.reshape(-1))] if width else []
    parts += latents
    x = parts[0] if len(parts) == 1 else concat(parts)
    x = add_positions(x, p["pos_emb"], position.reshape(-1))
    if cache.pad is not None or padding.any():
        held = np.zeros((B, old), bool) if cache.pad is None else cache.pad
        cache.pad = np.concatenate([held, padding.T], axis=1)
    cache.batch, cache.lengths = B, starts + counts + len(latents)

    # column old + c sees columns 0..old + c of its sequence, except padding
    seen = np.arange(old + n) <= np.arange(old, old + n)[:, None]
    if cache.pad is not None:
        seen = seen & ~cache.pad[:, None, :]
    last = np.full(B, n - 1) if latents else counts - 1  # each sequence's last column
    read = None if every_row or n == 1 else last * B + np.arange(B)
    for i in range(cfg.layers):
        pre = f"blocks.{i}."
        normed = norm(x, p[pre + "ln1.gain"], p[pre + "ln1.bias"])
        # normed's consumers in the order v, q, k (see the docstring)
        v = add_rowvec(matmul(normed, p[pre + "attn.wv"]), p[pre + "attn.bv"])
        sees, queried = seen, normed
        if i == cfg.layers - 1 and read is not None:  # the last rows go on, the rest stop
            x, queried = embedding_lookup(x, read), embedding_lookup(normed, read)
            sees = seen[np.arange(B), last][:, None] if seen.ndim == 3 else seen[last[:1]]
        mask = None if sees.all() else np.where(sees, 0.0, MASKED)
        q = add_rowvec(matmul(queried, p[pre + "attn.wq"]), p[pre + "attn.bq"])
        k = matmul(normed, p[pre + "attn.wk"])  # no key bias
        if i < len(cache.keys):
            k = cache.keys[i] = concat([cache.keys[i], k])
            v = cache.values[i] = concat([cache.values[i], v])
        else:
            cache.keys.append(k)
            cache.values.append(v)
        joined = attention(q, k, v, cfg.heads, mask, batch=B)
        x = x + add_rowvec(matmul(joined, p[pre + "attn.wo"]), p[pre + "attn.bo"])
        normed = norm(x, p[pre + "ln2.gain"], p[pre + "ln2.bias"])
        h = gelu(add_rowvec(matmul(normed, p[pre + "mlp.w1"]), p[pre + "mlp.b1"]))
        x = x + add_rowvec(matmul(h, p[pre + "mlp.w2"]), p[pre + "mlp.b2"])
    return norm(x, p["ln_f.gain"], p["ln_f.bias"])


def encode_every_row(model, history, injected=None, cache=None) -> Tensor:
    """``Backbone.encode`` and the pick of its last rows as they were before
    the top block computed only the rows it returns: ``encode_chain`` with
    ``every_row``, then, of the histories' rows, each sequence's last, as
    a slice, or a gather in a padded batch. It takes ``encode``'s two
    calls, into a ``ChainCache``."""
    cache = ChainCache() if cache is None else cache
    rows = encode_chain(model, history, injected, cache, every_row=True)
    B = cache.batch
    if len(rows.data) == B:
        return rows
    return rows[-B:] if cache.pad is None else \
        embedding_lookup(rows, (cache.lengths - 1) * B + np.arange(B))


def cached_keys_values(cache, d_m: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Each layer's keys and values in a ``KVCache``, (columns * batch,
    d_m) each, position-major: the columns of the layer's block node past
    its first d_m, split in half, each reshaped to rows of d_m."""
    kv = []
    for node in cache.layers:
        packed = node.data[:, d_m:]
        half = packed.shape[1] // 2
        kv.append((packed[:, :half].reshape(-1, d_m), packed[:, half:].reshape(-1, d_m)))
    return kv


def verifier_weights(bank, i) -> tuple[list[tuple[Tensor, Tensor]], Tensor, Tensor]:
    """Verifier i of a ``VerifierBank``: its trunk layers as (weight, bias)
    pairs, then its head's weight and bias, each a basic-index slice of the
    bank's stacks, so a chain built on them sends its gradients to them."""
    k = bank.sizes[i]
    w, b = bank.heads[k]
    slot = bank.sizes[:i].count(k)  # its row among the verifiers with k classes
    return [(wt[i], bt[i]) for wt, bt in bank.trunk], w[slot], b[slot]


def per_verifier_views(bank) -> dict:
    """The bank's values under the names, and in the order, of a store of
    one parameter set per verifier (``router.a``, ``router.bias``, then
    each verifier's ``verifiers.{i}.hidden.{j}.w`` and ``.b``, ``w_last``
    and ``b_last``), as writable views of its slices of the stacks."""
    views = {"router.a": bank.router.a.data, "router.bias": bank.router.bias.data}
    for i, k in enumerate(bank.sizes):
        for j, (w, b) in enumerate(bank.trunk):
            views[f"verifiers.{i}.hidden.{j}.w"], views[f"verifiers.{i}.hidden.{j}.b"] = \
                w.data[i], b.data[i]
        slot = bank.sizes[:i].count(k)
        views[f"verifiers.{i}.w_last"], views[f"verifiers.{i}.b_last"] = \
            (t.data[slot] for t in bank.heads[k])
    return views


def guidance(verdict) -> list[Tensor]:
    """Per-verifier guidance prototypes W_last[:, j*] of a ``StepVerdict``,
    (B, d_m) rows each."""
    bank = verdict._bank
    return [embedding_lookup(verifier_weights(bank, i)[1].transpose(), j)
            for i, j in enumerate(verdict._j.T)]


def probabilities(verdict) -> list[Tensor]:
    """Per-verifier class distributions p_i of a ``StepVerdict``, (B, d_i)
    each: views of its packed columns after r* and w."""
    bank = verdict._bank
    lo = bank.d_m + bank.n
    return [verdict.packed[:, lo + a:lo + a + k] for a, k in zip(bank.offsets, bank.sizes)]


def confidences(verdict) -> Tensor:
    """Per-verifier confidences c_i of a ``StepVerdict``, (B, n): its last
    packed columns, after f."""
    bank = verdict._bank
    lo = bank.d_m + 2 * bank.n + bank.n_classes
    return verdict.packed[:, lo:lo + bank.n]


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    s = _softmax_np(x.data, axis)

    def vjp(g):
        dot = (g * s).sum(axis=axis, keepdims=True)
        return (s * (g - dot),)
    return _node(s, (x,), "softmax", vjp)


def exp(x: Tensor) -> Tensor:
    od = np.exp(x.data)
    return _node(od, (x,), "exp", lambda g: (g * od,))


def matvec(a: Tensor, b: Tensor) -> Tensor:
    """Matrix-vector (2-D @ 1-D) or vector-matrix (1-D @ 2-D) product."""
    ad, bd = a.data, b.data
    if ad.ndim == 2 and bd.ndim == 1:
        vjp = lambda g: (np.outer(g, bd), ad.T @ g)
    elif ad.ndim == 1 and bd.ndim == 2:
        vjp = lambda g: (bd @ g, np.outer(ad, g))
    else:
        raise ValueError(f"matvec: unsupported ranks {ad.ndim} @ {bd.ndim}")
    if ad.shape[-1] != bd.shape[0]:
        raise ValueError(f"matvec: shape mismatch {ad.shape} @ {bd.shape}")
    return _node(ad @ bd, (a, b), "matvec", vjp)


def entropy(p: Tensor) -> Tensor:
    """Shannon entropy of a 1-D distribution in nats; 0*log(0) counts as 0."""
    pd = p.data
    if pd.ndim != 1:
        raise ValueError(f"entropy: expected 1-D distribution, got shape {pd.shape}")
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(pd > 0.0, pd * np.log(np.where(pd > 0.0, pd, 1.0)), 0.0)

    def vjp(g):
        # gradient -(log p + 1); softmax upstream keeps p strictly positive
        safe = np.maximum(pd, 1e-300)
        return (float(g) * -(np.log(safe) + 1.0),)
    return _node(np.asarray(-terms.sum()), (p,), "entropy", vjp)


def confidence(f: Tensor, eps: float = 1e-6) -> Tensor:
    """Confidence c = min(1, 1 / max(f, eps)) for a scalar entropy value f."""
    if f.data.size != 1:
        raise ValueError("confidence: expected a scalar")
    fv = float(f.data)
    c = min(1.0, 1.0 / max(fv, eps))

    def vjp(g):
        deriv = -1.0 / (fv * fv) if fv > 1.0 else 0.0
        return (np.asarray(float(g) * deriv).reshape(f.data.shape),)
    return _node(np.asarray(np.float64(c)), (f,), "confidence", vjp)


def grad_check(f: Callable[[], Tensor], params: Sequence[Tensor], h: float = 1e-5) -> float:
    """Max relative error between reverse-mode and central-difference gradients.

    ``f`` must be a deterministic closure over ``params`` returning a scalar
    tensor. Only the analytic pass tracks ``params``, and it leaves its
    gradient in each parameter's ``.grad``. Relative error is
    |ad - fd| / (|fd| + 1e-12), maximized over every element of every
    parameter.
    """
    with tracking(params):
        f().backward()
    analytic = [p.grad.copy() for p in params]

    worst = 0.0
    for p, ad in zip(params, analytic):
        flat = p.data.reshape(-1)
        ad_flat = ad.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = f().item()
            flat[i] = orig - h
            down = f().item()
            flat[i] = orig
            fd = (up - down) / (2.0 * h)
            err = abs(ad_flat[i] - fd) / (abs(fd) + 1e-12)
            if err > worst:
                worst = err
    return worst


class Bare:
    """Bare tensors as one model, with the value vector that Backbone and
    VerifierBank have."""

    def __init__(self, params):
        self._params = params
        self.values = parameter_vectors(params)

    def params(self):
        return self._params


def layout_grads(model) -> np.ndarray:
    """A model's parameter gradients as one vector, in ``parameter_layout``
    order: the bytes an optimizer's gradient vector for it would hold."""
    return np.concatenate([t.grad.ravel() for _, t, _ in parameter_layout(model.params())])


def greedy_recommend(backbone, final_hidden: Tensor) -> int:
    """The top-ranked item of one request."""
    return int(recommend(backbone, final_hidden)[0])


def cf_pair_loss(model, samples, seed: int = 0) -> float:
    """Mean logistic pairwise loss of a ``labeling.CfModel`` over samples,
    with one sampled negative each."""
    rng = Rng(seed, 2)
    n_items = model.item_emb.shape[0]
    total = 0.0
    for s in samples:
        neg_id = int(rng.integers(0, n_items))
        if neg_id == s.target:
            neg_id = (neg_id + 1) % n_items
        x = float(model.user_emb[s.user] @ (model.item_emb[s.target] - model.item_emb[neg_id]))
        total += float(np.log1p(np.exp(-x)))
    return total / max(len(samples), 1)


def train_cf_oracle(samples, n_items: int, n_users: int, epochs: int = CF_EPOCHS,
                    seed: int = 0) -> CfModel:
    """``labeling.train_cf`` as a plain per-sample loop: one negative drawn
    per update, every gradient a new array, each row written back by index."""
    rng = Rng(seed, 1)
    user_emb = rng.normal((n_users, CF_DIM), std=0.1)
    item_emb = rng.normal((n_items, CF_DIM), std=0.1)
    for _ in range(epochs):
        for s in samples:
            u = user_emb[s.user]
            pos = item_emb[s.target]
            neg_id = int(rng.integers(0, n_items))
            if neg_id == s.target:
                neg_id = (neg_id + 1) % n_items
            neg = item_emb[neg_id]
            x = float(u @ (pos - neg))
            g = 1.0 / (1.0 + np.exp(-x)) - 1.0
            grad_u = g * (pos - neg)
            grad_pos = g * u
            grad_neg = -g * u
            user_emb[s.user] -= CF_LR * grad_u
            item_emb[s.target] -= CF_LR * grad_pos
            item_emb[neg_id] -= CF_LR * grad_neg
    return CfModel(item_emb=item_emb, user_emb=user_emb)


def blas_kernel() -> str:
    """The kernel name that numpy's bundled OpenBLAS picked for this CPU (or
    that ``OPENBLAS_CORETYPE`` chose), e.g. ``SkylakeX`` or ``Haswell``;
    each kernel rounds a BLAS product its own way. ``unknown`` when numpy
    bundles no OpenBLAS."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas*")):
        corename = getattr(ctypes.CDLL(path), "scipy_openblas_get_corename64_", None)
        if corename is not None:
            corename.restype = ctypes.c_char_p
            return corename().decode()
    return "unknown"


def kernel_pin(pins: dict):
    """The entry of ``pins``, a table keyed by BLAS kernel name, that was
    recorded for the kernel loaded now (``blas_kernel``). A kernel with no
    entry fails the test, naming it."""
    kernel = blas_kernel()
    assert kernel in pins, f"no digest recorded for the BLAS kernel {kernel!r}"
    return pins[kernel]


def write_checkpoint(path, header: dict, body: bytes) -> None:
    """A file in the checkpoint format: magic, header length, ``header`` as
    canonical JSON, then ``body``, whatever they hold."""
    text = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    path.write_bytes(MAGIC + struct.pack("<I", len(text)) + text + body)
