"""Code that only the tests use.

The fused ops in ``vrec`` (``numerics.attention``, the verifier bank step)
replaced chains of elementary ops; the chains stay in the tests as their
oracles, and the first ops here are the ones the chains need that the
library no longer does. They are built on ``numerics._node`` like every
library op. The rest are small references the tests check the library
against, and a checkpoint writer for tests that edit a saved header."""

import json
import struct

import numpy as np

from vrec.checkpoint import MAGIC
from vrec.numerics import Rng, Tensor, _node, _softmax_np
from vrec.reasoning import recommend


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
