"""Code that only the tests use.

The fused ops in ``vrec`` (``numerics.transformer_block``, the verifier
bank step) replaced chains of elementary ops; the chains stay in the tests
as their oracles (``encode_chain`` is the backbone's), and the first ops
here are the ones the chains need that the library no longer does. They
are built on ``numerics._node`` like every library op. The rest are small
references the tests check the library against, the finite-difference
gradient check, readers of verdict fields that only tests read, and a
checkpoint writer for tests that edit a saved header."""

import json
import struct
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from vrec.backbone import KVCache
from vrec.checkpoint import MAGIC
from vrec.numerics import (Rng, Tensor, _attention_np, _gelu_deriv, _gelu_np, _node,
                           _softmax_np, concat, embedding_lookup, layer_norm, matmul, tracking)
from vrec.reasoning import recommend


def add_rows(x: Tensor, rows: Tensor) -> Tensor:
    """Add row c of an (n, d) matrix to the c-th of n equal runs of a (T, d)
    matrix's rows (explicit, not broadcast): a position-major batch's positions."""
    (T, d), n = x.data.shape, rows.data.shape[0]
    if rows.data.shape != (n, d) or T % n:
        raise ValueError(f"add_rows: shape mismatch {x.data.shape} + {rows.data.shape}")
    run = (n, T // n, d)
    return _node((x.data.reshape(run) + rows.data[:, None]).reshape(T, d), (x, rows), "add_rows",
                 lambda g: (g, g.reshape(run).sum(axis=1)))


def add_rowvec(x: Tensor, b: Tensor) -> Tensor:
    """Add a length-d vector to every row of a (T, d) matrix (explicit, not broadcast)."""
    if x.data.ndim != 2 or b.data.ndim != 1 or x.data.shape[1] != b.data.shape[0]:
        raise ValueError(f"add_rowvec: shape mismatch {x.data.shape} + {b.data.shape}")
    return _node(x.data + b.data[None, :], (x, b), "add_rowvec", lambda g: (g, g.sum(axis=0)))


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


@dataclass
class ChainCache(KVCache):
    """``encode_chain``'s cache: each layer's keys and values as graph
    Tensors, grown by one concat per call."""

    keys: list = field(default_factory=list)
    values: list = field(default_factory=list)

    def __len__(self) -> int:
        return self.keys[0].shape[0] // self.batch if self.keys else 0


def encode_chain(model, history, injected=None, cache=None) -> Tensor:
    """``Backbone.encode`` with the position rows added before the first
    block, as a slice and ``add_rows`` or a gather and an add, a packed
    verdict cut to its first d_m columns, and each block as the chain of
    elementary ops that ``numerics.transformer_block`` fuses; its cache is a
    ``ChainCache``."""
    cache = ChainCache() if cache is None else cache
    x, pos, at, mask = model._embed(history, injected or [], cache)
    p, d = model.params(), model.cfg.d_m
    if x.shape[1] != d:
        x = x[:, :d]
    x = x + pos if at is None else add_rows(x, pos[at])
    for i in range(model.cfg.layers):
        pre = f"blocks.{i}."
        normed = layer_norm(x, p[pre + "ln1.gain"], p[pre + "ln1.bias"])
        q, k, v = (add_rowvec(matmul(normed, p[pre + "attn.w" + c]), p[pre + "attn.b" + c])
                   for c in "qkv")
        if i < len(cache.keys):
            k = cache.keys[i] = concat([cache.keys[i], k], axis=0)
            v = cache.values[i] = concat([cache.values[i], v], axis=0)
        else:
            cache.keys.append(k)
            cache.values.append(v)
        joined = attention(q, k, v, model.cfg.heads, mask, batch=cache.batch)
        x = x + add_rowvec(matmul(joined, p[pre + "attn.wo"]), p[pre + "attn.bo"])
        normed = layer_norm(x, p[pre + "ln2.gain"], p[pre + "ln2.bias"])
        h = gelu(add_rowvec(matmul(normed, p[pre + "mlp.w1"]), p[pre + "mlp.b1"]))
        x = x + add_rowvec(matmul(h, p[pre + "mlp.w2"]), p[pre + "mlp.b2"])
    return layer_norm(x, p["ln_f.gain"], p["ln_f.bias"])


def guidance(verdict) -> list[Tensor]:
    """Per-verifier guidance prototypes W_last[:, j*] of a ``StepVerdict``,
    (B, d_m) rows each."""
    return [embedding_lookup(v.w_last.transpose(), j)
            for v, j in zip(verdict._bank.verifiers, verdict._j.T)]


def probabilities(verdict) -> list[Tensor]:
    """Per-verifier class distributions p_i of a ``StepVerdict``, (B, d_i)
    each: views of its packed columns after r* and w."""
    bank = verdict._bank
    lo = bank.d_m + bank.n
    return [verdict.packed[:, lo + a:lo + a + v.d_i]
            for a, v in zip(bank.class_offsets(), bank.verifiers)]


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
    tensor. Only the analytic pass tracks ``params``. Relative error is
    |ad - fd| / (|fd| + 1e-12), maximized over every element of every
    parameter.
    """
    for p in params:
        p.zero_grad()
    with tracking(params):
        f().backward()
    analytic = [p.grad.copy() if p.grad is not None else np.zeros_like(p.data) for p in params]

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
    for p in params:
        p.zero_grad()
    return worst


def greedy_recommend(backbone, final_hidden: Tensor) -> int:
    """The top-ranked item of one request."""
    return int(recommend(backbone, final_hidden, 1)[0])


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


def write_checkpoint(path, header: dict, body: bytes) -> None:
    """A file in the checkpoint format: magic, header length, ``header`` as
    canonical JSON, then ``body``, whatever they hold."""
    text = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    path.write_bytes(MAGIC + struct.pack("<I", len(text)) + text + body)
