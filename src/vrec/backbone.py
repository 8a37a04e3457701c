"""Causal-transformer sequence model over item tokens.

Items are single tokens; the model encodes an interaction history, accepts
latent reasoning vectors injected at reserved trailing positions, and ranks
the item vocabulary from any position's hidden state. The output projection
is weight-tied to the token embedding table, restricted to item rows.

The model is causal, so a position's hidden state never changes once
computed. ``encode`` can therefore extend a sequence through a per-request
``KVCache``: each call computes only the positions it is given, attending
to the keys and values the cache kept from earlier calls.

``encode`` takes a batch of sequences, padded on the right to the longest;
one sequence is the batch of one. Their rows are position-major (row
c*B + b is column c of sequence b), so every linear layer is one matmul
over all of them, each block is one graph node
(``numerics.transformer_block``) and extending the cache is one
concatenation of keys and of values per layer. Only a call whose
sequences differ in length builds a padding mask, a token grid and a
per-row position gather; a padded slot's key is masked in every
attention, so each sequence's states are those it has alone, up to the
grouping of sums.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .numerics import (
    Rng,
    Tensor,
    add_rows,
    check_int,
    check_seed,
    concat,
    embedding_lookup,
    layer_norm,
    matmul,
    parameter_vectors,
    transformer_block,
)

__all__ = ["Backbone", "KVCache", "ModelConfig"]

N_SPECIAL_TOKENS = 1  # one reserved non-item token keeps item-row restriction honest
MASK_VALUE = -1e30
# a block's parameters in the order numerics.transformer_block takes them
BLOCK_PARAMS = ("ln1.gain", "ln1.bias", "attn.wq", "attn.bq", "attn.wk", "attn.bk", "attn.wv",
                "attn.bv", "attn.wo", "attn.bo", "ln2.gain", "ln2.bias", "mlp.w1", "mlp.b1",
                "mlp.w2", "mlp.b2")


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
        for key in ("d_m", "layers", "heads", "n_items", "max_positions"):
            check_int(key, getattr(self, key), least=1)
        check_int("m", self.m)
        check_seed(self.seed)
        if self.d_m % self.heads != 0:
            raise ValueError(f"d_m ({self.d_m}) not divisible by heads ({self.heads})")

    @property
    def vocab(self) -> int:
        return self.n_items + N_SPECIAL_TOKENS


@dataclass
class KVCache:
    """A batch's attention state; a single request's is a batch of one.

    Per layer, ``layers`` holds its block's outputs on each call so far
    (position-major rows packing [x | k | v]) and their k and v columns
    concatenated, (columns * B, d_m) each: the keys and values the next call
    attends to. The outputs are ordinary graph Tensors, so a loss
    back-propagates through every position the cache holds. ``lengths``
    counts the positions each sequence holds and ``pad`` marks the columns
    that are padding, per sequence (None while there are none, so every
    sequence holds every column).
    """

    layers: list[tuple[tuple[Tensor, ...], np.ndarray, np.ndarray]] = field(default_factory=list)
    lengths: list[int] | None = None  # per sequence
    pad: np.ndarray | None = None  # (B, columns) bool

    def __len__(self) -> int:
        """Columns held: for one sequence, its positions."""
        return len(self.layers[0][1]) // len(self.lengths) if self.layers else 0


def as_batch(history) -> list:
    """A batch of histories as given; one history (a list of item ids) as the batch of one."""
    return [history] if len(history) and isinstance(history[0], (int, np.integer)) else history


class Backbone:
    """The transformer. Every parameter's ``.data`` and ``.grad`` are views
    of the ``values`` and ``grads`` vectors (``numerics.parameter_vectors``)."""

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
        self.values, self.grads = parameter_vectors(p)
        self._blocks = [[p[f"blocks.{i}.{name}"] for name in BLOCK_PARAMS]
                        for i in range(cfg.layers)]

    def params(self) -> dict[str, Tensor]:
        return self._params

    def encode(self, history, injected: list[Tensor] | None = None,
               cache: KVCache | None = None) -> Tensor:
        """Hidden states for history tokens plus injected latent vectors.

        ``history`` is a batch of B histories (lists of item ids from 0 to
        n_items - 1), padded on the right to the longest; one history is the
        batch of one. Injected latents occupy the positions immediately
        after each history, in order; each replaces the token lookup at its
        position (positional embedding still added). An injected entry is a
        (B, d_m) Tensor: row b is the next position of sequence b.
        Returns the last layer's states of the n new columns as (n*B, d_m)
        position-major rows.

        With a ``cache``, ``history`` and ``injected`` are only the new
        positions, which start at each sequence's ``cache.lengths``; they
        attend to every cached position, and the cache grows by them. An
        empty ``history`` then means no new tokens for any sequence. Without
        one, the sequences start at position 0.
        """
        cache = KVCache() if cache is None else cache
        x, mask = self._embed(history, injected or [], cache)
        layers = cache.layers or [((), None, None)] * self.cfg.layers
        for i, params in enumerate(self._blocks):
            past, keys, values = layers[i]
            x, keys, values = transformer_block(x, params, self.cfg.heads, mask,
                                                len(cache.lengths), past, keys, values)
            layers[i] = ((*past, x), keys, values)
        cache.layers = layers
        return layer_norm(x[:, :self.cfg.d_m], self._params["ln_f.gain"],
                          self._params["ln_f.bias"])

    def _embed(self, history, injected: list[Tensor],
               cache: KVCache) -> tuple[Tensor, np.ndarray | None]:
        """``encode``'s new rows before the first block, token or latent plus
        position embeddings, and the mask of what they attend to. Checks the
        call, then records the sequences' new lengths in ``cache``."""
        seqs = as_batch(history)
        lengths = cache.lengths or [0] * len(seqs)
        B, d = len(lengths), self.cfg.d_m
        counts = list(map(len, seqs)) or [0] * B
        if len(counts) != B:
            raise ValueError(f"{len(counts)} sequences given to a cache of {B}")
        k = len(injected)
        width = max(counts, default=0)  # token columns; shorter histories are padded
        ends = [a + c + k for a, c in zip(lengths, counts)]
        if max(ends, default=0) > self.cfg.max_positions:
            raise ValueError(f"sequence length {max(ends)} exceeds max_positions "
                             f"{self.cfg.max_positions}")
        if min(ends, default=k) == k:  # also no sequence at all
            raise ValueError("encode requires a non-empty history")
        n = width + k
        if n == 0:
            raise ValueError("encode requires at least one new position")
        for rows in injected:
            if rows.data.shape != (B, d):
                raise ValueError(f"latent rows of shape {rows.data.shape}, expected {(B, d)}")

        p = self._params
        start = len(cache)
        pad = cache.pad
        ragged = pad is not None or min(counts) < width
        if ragged:
            new_pad = np.arange(width) >= np.array(counts)[:, None]  # (B, width)
            old = np.zeros((B, start), bool) if pad is None else pad
            pad = np.concatenate([old, new_pad, np.zeros((B, k), bool)], axis=1)
        parts = []
        if width:  # the one place where item ids enter the model
            ids = np.concatenate(seqs) if ragged else np.array(seqs)
            if ids.min() < 0 or ids.max() >= self.cfg.n_items:
                bad = ids[(ids < 0) | (ids >= self.cfg.n_items)][0]
                raise ValueError(f"history item id {bad} outside 0..{self.cfg.n_items - 1}")
            if ragged:  # the shorter histories' columns hold the non-item token
                grid = np.full((B, width), self.cfg.n_items)
                grid[~new_pad] = ids
                ids = grid
            parts.append(embedding_lookup(p["tok_emb"], ids.ravel("F")))
        parts.extend(injected)
        x = concat(parts, axis=0) if len(parts) > 1 else parts[0]
        if ragged:  # a sequence's tokens, then its latents, from its own length on
            columns = np.arange(n)[:, None]
            latent = columns >= width
            pos = np.add(lengths, np.where(latent, columns - width + counts, columns))
            pos = np.where(latent | (columns < counts), pos, 0)  # padding reads position 0
            x = x + embedding_lookup(p["pos_emb"], pos.reshape(-1))
        else:  # column c of every sequence is at position start + c
            x = add_rows(x, p["pos_emb"][start:start + n])

        # new column c sees columns 0..start + c, except padding
        T = start + n
        mask = None if n == 1 else \
            np.where(np.arange(T) > np.arange(start, T)[:, None], MASK_VALUE, 0.0)
        if pad is not None:
            keys = np.where(pad, MASK_VALUE, 0.0)[:, None, :]
            mask = keys if mask is None else mask + keys
        cache.lengths, cache.pad = ends, pad
        return x, mask

    def next_item_scores(self, hidden: Tensor) -> Tensor:
        """(R, n_items) logits of every row of ``hidden``, tied to the
        embedding table."""
        return matmul(hidden, self._params["tok_emb"][:self.cfg.n_items].transpose())

    def rank_items(self, hidden: Tensor, k: int | None = None) -> np.ndarray:
        """Each row's top-k item ids by descending score, ties to the lower
        id. The scores are ``next_item_scores``', computed without a Tensor."""
        items = self._params["tok_emb"].data[:self.cfg.n_items].T.copy()
        return np.argsort(-(hidden.data @ items), axis=1, kind="stable")[:, :k]
