"""Causal-transformer sequence model over item tokens.

Items are single tokens; the model encodes an interaction history, accepts
latent reasoning vectors injected at reserved trailing positions, and ranks
the item vocabulary from any position's hidden state. The output projection
is weight-tied to the token embedding table, restricted to item rows.

The model is causal, so a position's hidden state never changes once
computed. ``encode`` can therefore extend a sequence through a per-request
``KVCache``: each call computes only the positions it is given, attending
to the keys and values the cache kept from earlier calls.

``encode`` also takes a batch of sequences, padded on the right to the
longest. Their rows are position-major (row c*B + b is column c of
sequence b), so every linear layer is one matmul over all of them and
extending the cache is one concat; a padded slot's key is masked in every
attention, so each sequence's states are those it has alone, up to the
grouping of sums.
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
    """One request's or one batch's attention keys and values, one
    position-major (columns * B, d_m) Tensor per layer.

    They are ordinary graph Tensors, so a loss back-propagates through every
    position the cache holds. ``lengths`` counts the positions each sequence
    holds and ``pad`` marks the columns that are padding, per sequence
    (None while there are none, as always for one sequence).
    """

    keys: list[Tensor] = field(default_factory=list)
    values: list[Tensor] = field(default_factory=list)
    lengths: list[int] | None = None  # per sequence
    pad: np.ndarray | None = None  # (B, columns) bool

    def __len__(self) -> int:
        """Columns held: for one sequence, its positions."""
        return self.keys[0].shape[0] // len(self.lengths) if self.keys else 0


def is_batch(history) -> bool:
    """Whether ``history`` is a batch of histories rather than one."""
    return len(history) > 0 and not isinstance(history[0], (int, np.integer))


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
        joined = attention(q, k, v, self.cfg.heads, mask, batch=len(cache.lengths))
        return add_rowvec(matmul(joined, p[pre + "wo"]), p[pre + "bo"])

    def encode(self, history, injected: list[tuple] | None = None,
               cache: KVCache | None = None) -> Tensor:
        """Hidden states for history tokens plus injected latent vectors.

        ``history`` is one sequence's item ids, or a batch of B such lists.
        Injected latents occupy the positions immediately after the history,
        in order; each replaces the token lookup at its position (positional
        embedding still added). An injected entry is (position, (d_m,)
        vector) for one sequence, and (positions (B,), (B, d_m) rows), one
        new position per sequence, for a batch. Returns the last layer's
        states of the positions given: (n, d_m) for one sequence; for a
        batch, (n*B, d_m) position-major rows over the n new columns, where
        the histories are padded on the right to the longest.

        With a ``cache``, ``history`` and ``injected`` are only the new
        positions, which start at each sequence's ``cache.lengths``; they
        attend to every cached position, and the cache grows by them.
        ``history`` may then be empty. Without one, the sequences start at
        position 0.
        """
        batch = is_batch(history)
        seqs = history if batch else (history,)
        B, d = len(seqs), self.cfg.d_m
        cache = KVCache() if cache is None else cache
        lengths = cache.lengths or [0] * B
        if len(lengths) != B:
            raise ValueError(f"{B} sequences given to a cache of {len(lengths)}")
        injected = injected or []
        k = len(injected)
        if batch:
            width = max(map(len, seqs))  # token columns; shorter histories are padded
            ends = [a + len(s) + k for a, s in zip(lengths, seqs)]
            top, bottom = max(ends), min(ends)
        else:
            width = len(history)
            top = bottom = lengths[0] + width + k
            ends = [top]
        if top > self.cfg.max_positions:
            raise ValueError(f"sequence length {top} exceeds max_positions "
                             f"{self.cfg.max_positions}")
        if bottom == k:
            raise ValueError("encode requires a non-empty history")
        n = width + k
        if n == 0:
            raise ValueError("encode requires at least one new position")
        shape = (B, d) if batch else (d,)
        for offset, (pos, vec) in enumerate(injected):
            expected = [e - k + offset for e in ends] if batch else top - k + offset
            if (list(pos) if batch else pos) != expected:
                raise ValueError(f"injected latent at position {pos}, expected {expected}")
            if vec.data.shape != shape:
                raise ValueError(f"latent vector shape {vec.data.shape}, expected {shape}")

        p = self._params
        start = len(cache)
        pad = cache.pad
        if batch:
            counts = np.array([len(s) for s in seqs])
            new_pad = np.arange(width) >= counts[:, None]  # (B, width)
            if new_pad.any() or pad is not None:
                old = np.zeros((B, start), bool) if pad is None else pad
                pad = np.concatenate([old, new_pad, np.zeros((B, len(injected)), bool)], axis=1)
            parts = []
            if width:
                tokens = np.full((B, width), self.cfg.n_items)  # padding: the non-item token
                tokens[~new_pad] = np.concatenate(seqs)
                parts.append(embedding_lookup(p["tok_emb"], tokens.T.reshape(-1)))
            parts.extend(vec for _, vec in injected)
        else:
            parts = [embedding_lookup(p["tok_emb"], history)] if history else []
            parts.extend(vec.reshape(1, d) for _, vec in injected)
        x = concat(parts, axis=0) if len(parts) > 1 else parts[0]
        if B == 1:
            x = x + p["pos_emb"][start:start + n]
        else:  # a sequence's tokens, then its latents, from its own length on
            columns = np.arange(n)[:, None]
            latent = columns >= width
            pos = np.add(lengths, np.where(latent, columns - width + counts, columns))
            pos = np.where(latent | (columns < counts), pos, 0)  # padding reads position 0
            x = x + embedding_lookup(p["pos_emb"], pos.reshape(-1))

        # new column c sees columns 0..start + c, except padding
        T = start + n
        mask = np.triu(np.full((n, T), MASK_VALUE), k=start + 1) if n > 1 else None
        if pad is not None:
            keys = np.where(pad, MASK_VALUE, 0.0)[:, None, :]
            mask = keys if mask is None else mask + keys
        cache.lengths, cache.pad = ends, pad
        for i in range(self.cfg.layers):
            pre = f"blocks.{i}."
            normed = layer_norm(x, p[pre + "ln1.gain"], p[pre + "ln1.bias"])
            x = x + self._attend(normed, i, mask, cache)
            normed = layer_norm(x, p[pre + "ln2.gain"], p[pre + "ln2.bias"])
            h = gelu(add_rowvec(matmul(normed, p[pre + "mlp.w1"]), p[pre + "mlp.b1"]))
            x = x + add_rowvec(matmul(h, p[pre + "mlp.w2"]), p[pre + "mlp.b2"])
        return layer_norm(x, p["ln_f.gain"], p["ln_f.bias"])

    def next_item_scores(self, hidden: Tensor, position: int | None) -> Tensor:
        """Logits over item tokens from one position, tied to the embedding
        table; with ``position`` None, (R, n_items) logits for every row."""
        item_rows = self._params["tok_emb"][:self.cfg.n_items]
        if position is None:
            return matmul(hidden, item_rows.transpose())
        if position >= hidden.data.shape[0]:
            raise ValueError(f"position {position} out of range for {hidden.data.shape[0]} states")
        return matmul(item_rows, hidden[position])

    def rank_items(self, hidden: Tensor, position: int | None, k: int | None = None) -> np.ndarray:
        """Top-k item ids by descending score, of one position or (position
        None) of every row; ties go to the lower id."""
        scores = self.next_item_scores(hidden, position).data
        k = self.cfg.n_items if k is None else k
        return np.argsort(-scores, axis=-1, kind="stable")[..., :k]
