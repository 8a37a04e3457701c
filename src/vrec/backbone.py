"""Causal-transformer sequence model over item tokens.

Items are single tokens; the model encodes an interaction history, accepts
latent reasoning vectors injected at reserved trailing positions, and ranks
the item vocabulary from any position's hidden state. The output projection
is weight-tied to the token embedding table, restricted to item rows.

The model is causal, so a position's hidden state never changes once
computed. ``encode`` can therefore extend a sequence through a per-request
``KVCache``: each call computes only the positions it is given, attending
to the keys and values the cache kept from earlier calls.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .numerics import (
    Rng,
    Tensor,
    add_rowvec,
    attention,
    concat,
    embedding_lookup,
    gelu,
    layer_norm,
    matmul,
)

__all__ = ["Backbone", "KVCache", "ModelConfig"]

N_SPECIAL_TOKENS = 1  # one reserved non-item token keeps item-row restriction honest
MASK_VALUE = -1e30


@dataclass
class ModelConfig:
    d_m: int = 32
    layers: int = 2
    heads: int = 2
    n_items: int = 40
    max_positions: int = 32
    m: int = 2
    seed: int = 0

    def __post_init__(self):
        for key in ("d_m", "heads"):
            if getattr(self, key) < 1:
                raise ValueError(f"{key} must be at least 1, got {getattr(self, key)}")
        if self.d_m % self.heads != 0:
            raise ValueError(f"d_m ({self.d_m}) not divisible by heads ({self.heads})")
        if self.m < 0:
            raise ValueError(f"m must be non-negative, got {self.m}")

    @property
    def vocab(self) -> int:
        return self.n_items + N_SPECIAL_TOKENS


@dataclass
class KVCache:
    """One request's attention keys and values, one (T, d_m) Tensor per layer.

    They are ordinary graph Tensors, so a loss back-propagates through every
    position the cache holds.
    """

    keys: list[Tensor] = field(default_factory=list)
    values: list[Tensor] = field(default_factory=list)

    def __len__(self) -> int:
        return self.keys[0].shape[0] if self.keys else 0


class Backbone:
    def __init__(self, cfg: ModelConfig):
        self.cfg = cfg
        rng = Rng(cfg.seed, 10)
        d = cfg.d_m

        def w(shape):
            return Tensor(rng.normal(shape, std=0.02))

        def zeros(shape):
            return Tensor(np.zeros(shape))

        def ones(shape):
            return Tensor(np.ones(shape))

        p: dict[str, Tensor] = {}
        p["tok_emb"] = w((cfg.vocab, d))
        p["pos_emb"] = w((cfg.max_positions, d))
        for i in range(cfg.layers):
            pre = f"blocks.{i}."
            p[pre + "ln1.gain"] = ones(d)
            p[pre + "ln1.bias"] = zeros(d)
            for name in ("wq", "wk", "wv", "wo"):
                p[pre + "attn." + name] = w((d, d))
                p[pre + "attn.b" + name[1]] = zeros(d)
            p[pre + "ln2.gain"] = ones(d)
            p[pre + "ln2.bias"] = zeros(d)
            p[pre + "mlp.w1"] = w((d, 4 * d))
            p[pre + "mlp.b1"] = zeros(4 * d)
            p[pre + "mlp.w2"] = w((4 * d, d))
            p[pre + "mlp.b2"] = zeros(d)
        p["ln_f.gain"] = ones(d)
        p["ln_f.bias"] = zeros(d)
        self._params = p

    def params(self) -> dict[str, Tensor]:
        return self._params

    def param_count(self) -> int:
        return sum(t.size for t in self._params.values())

    def _attend(self, x: Tensor, i: int, mask: np.ndarray | None, cache: KVCache) -> Tensor:
        """Attention of the new rows ``x`` over the cached and new keys;
        appends the new keys and values to layer ``i`` of ``cache``."""
        p = self._params
        pre = f"blocks.{i}.attn."
        q = add_rowvec(matmul(x, p[pre + "wq"]), p[pre + "bq"])
        k = add_rowvec(matmul(x, p[pre + "wk"]), p[pre + "bk"])
        v = add_rowvec(matmul(x, p[pre + "wv"]), p[pre + "bv"])
        if i < len(cache.keys):
            k = cache.keys[i] = concat([cache.keys[i], k], axis=0)
            v = cache.values[i] = concat([cache.values[i], v], axis=0)
        else:
            cache.keys.append(k)
            cache.values.append(v)
        joined = attention(q, k, v, self.cfg.heads, mask)
        return add_rowvec(matmul(joined, p[pre + "wo"]), p[pre + "bo"])

    def encode(self, history: list[int], injected: list[tuple[int, Tensor]] | None = None,
               cache: KVCache | None = None) -> Tensor:
        """Hidden states for history tokens plus injected latent vectors.

        Injected latents occupy the positions immediately after the history,
        in order; each replaces the token lookup at its position (positional
        embedding still added). Returns the last layer's (T, d_m) states of
        the positions given.

        With a ``cache``, ``history`` and ``injected`` are only the new
        positions, which start at ``len(cache)``; they attend to every
        cached position, and the cache grows by them. ``history`` may then
        be empty. Without one, the sequence starts at position 0.
        """
        cache = KVCache() if cache is None else cache
        start = len(cache)
        L = start + len(history)
        injected = injected or []
        T = L + len(injected)
        if T > self.cfg.max_positions:
            raise ValueError(f"sequence length {T} exceeds max_positions {self.cfg.max_positions}")
        if L == 0:
            raise ValueError("encode requires a non-empty history")
        if T == start:
            raise ValueError("encode requires at least one new position")
        for offset, (pos, vec) in enumerate(injected):
            if pos != L + offset:
                raise ValueError(f"injected latent at position {pos}, expected {L + offset}")
            if vec.data.shape != (self.cfg.d_m,):
                raise ValueError(f"latent vector shape {vec.data.shape}, expected ({self.cfg.d_m},)")

        p = self._params
        parts = [embedding_lookup(p["tok_emb"], history)] if history else []
        parts.extend(vec.reshape(1, self.cfg.d_m) for _, vec in injected)
        x = concat(parts, axis=0) if len(parts) > 1 else parts[0]
        x = x + p["pos_emb"][start:T]

        # row r sits at position start + r and sees positions 0..start + r
        n = T - start
        mask = np.triu(np.full((n, T), MASK_VALUE), k=start + 1) if n > 1 else None
        for i in range(self.cfg.layers):
            pre = f"blocks.{i}."
            normed = layer_norm(x, p[pre + "ln1.gain"], p[pre + "ln1.bias"])
            x = x + self._attend(normed, i, mask, cache)
            normed = layer_norm(x, p[pre + "ln2.gain"], p[pre + "ln2.bias"])
            h = gelu(add_rowvec(matmul(normed, p[pre + "mlp.w1"]), p[pre + "mlp.b1"]))
            x = x + add_rowvec(matmul(h, p[pre + "mlp.w2"]), p[pre + "mlp.b2"])
        return layer_norm(x, p["ln_f.gain"], p["ln_f.bias"])

    def next_item_scores(self, hidden: Tensor, position: int) -> Tensor:
        """Logits over item tokens from one position, tied to the embedding table."""
        if position >= hidden.data.shape[0]:
            raise ValueError(f"position {position} out of range for {hidden.data.shape[0]} states")
        item_rows = self._params["tok_emb"][:self.cfg.n_items]
        return matmul(item_rows, hidden[position])

    def rank_items(self, hidden: Tensor, position: int, k: int | None = None) -> np.ndarray:
        """Top-k item ids by descending score; ties go to the lower id."""
        scores = self.next_item_scores(hidden, position).data
        k = self.cfg.n_items if k is None else k
        order = np.lexsort((np.arange(len(scores)), -scores))
        return order[:k]
