"""Causal-transformer sequence model over item tokens.

Items are single tokens; the model encodes an interaction history, accepts
latent reasoning vectors injected at trailing positions, and ranks the item
vocabulary from any position's hidden state. The output projection is
weight-tied to the token embedding table, restricted to item rows.

``encode`` takes the two inputs of the reasoning loop, one kind per call,
into the ``KVCache`` its caller makes: a batch of histories, into the empty
cache, then one latent step, a row per sequence, at a time. The model is
causal, so a position's hidden state never changes once computed: each
call computes only the positions it is given, attending to the keys and
values the cache kept from earlier calls.

The histories are padded on the right to the longest; one history is the
batch of one. Rows are position-major (row c*B + b is column c of
sequence b), so every linear layer is one matmul over all of them and
each block is one graph node (``numerics.transformer_block``), which
holds its layer's keys and values so far: the cache keeps each layer's
last node, and a step's block links that one node. Either
call returns one row per sequence, its last position, the only row of the
top block anything reads: every block computes the keys and values of
every new column, and the top block the rest only for those rows, so
the prefill of the histories computes no query, attention or MLP row of
the top block that would be thrown away. The first block adds each row's
position from the table (a slice of positions, by id in a padded batch),
and the final norm reads the last block's packed output, so a call builds
the token lookup (a step takes its rows as they are), one node per block
and the final norm, whether or not the histories differ in length. Only a
batch whose histories differ has a token grid and, in each call, a
padding mask; a padded slot sits at position 0 and its key is masked in
every attention, so each sequence's states are those it has alone, up to
the grouping of sums.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .numerics import (
    Rng,
    Tensor,
    check_int,
    check_seed,
    embedding_lookup,
    layer_norm,
    matmul,
    parameter_vectors,
    row_operands,
    transformer_block,
)

__all__ = ["Backbone", "KVCache", "ModelConfig"]

N_SPECIAL_TOKENS = 1  # one reserved non-item token keeps item-row restriction honest
MASK_VALUE = -1e30
# a block's parameters in the order numerics.transformer_block takes them
BLOCK_PARAMS = ("ln1.gain", "ln1.bias", "attn.wq", "attn.bq", "attn.wk", "attn.wv", "attn.bv",
                "attn.wo", "attn.bo", "ln2.gain", "ln2.bias", "mlp.w1", "mlp.b1", "mlp.w2",
                "mlp.b2")


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

    Per layer, ``layers`` holds its block's node from the last call, whose
    rows pack [out | keys | values]: the call's outputs beside the keys and
    values of every position the layer holds, (columns * batch, d_m) each,
    position-major, reshaped to the node's rows. The next call's block
    attends to them and links the node as its one earlier call, so a loss
    back-propagates through every position the cache holds. ``columns``
    counts the columns held (``len``), ``batch`` the sequences (0 before
    the first call), and ``pad`` marks the columns that are padding, per
    sequence (None while there are none, so every sequence holds every
    column).
    """

    layers: list[Tensor] = field(init=False, default_factory=list)
    batch: int = field(init=False, default=0)
    pad: np.ndarray | None = field(init=False, default=None)  # (batch, columns) bool
    columns: int = field(init=False, default=0)

    def __len__(self) -> int:
        """Columns held: for one sequence, its positions."""
        return self.columns

    @property
    def lengths(self) -> np.ndarray:
        """The positions each sequence of a padded batch holds."""
        return len(self) - self.pad.sum(axis=1)


def as_batch(history) -> list:
    """A batch of histories as given; one history (a list of item ids) as the batch of one."""
    return [history] if len(history) and isinstance(history[0], (int, np.integer)) else history


class Backbone:
    """The transformer. Every parameter's ``.data`` is a view of the
    ``values`` vector (``numerics.parameter_vectors``); gradients are not its own."""

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
                if name != "wk":  # a key bias shifts all of a query's scores alike: softmax drops it
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
        self.values = parameter_vectors(p)
        # per block, and for the final norm: its parameters (the node's
        # children) and the arrays it computes with (numerics.row_operands)
        self._blocks = [(params, row_operands(params)) for params in (
            [p[f"blocks.{i}.{name}"] for name in BLOCK_PARAMS] for i in range(cfg.layers))]
        self._final = (p["ln_f.gain"], p["ln_f.bias"])
        self._final_arrays = row_operands(self._final)

    def params(self) -> dict[str, Tensor]:
        return self._params

    def encode(self, history, injected: list[Tensor] | None = None, *,
               cache: KVCache) -> Tensor:
        """Hidden states of one of the two inputs the reasoning loop gives.

        Histories: ``history`` is a batch of B histories (lists of item ids
        from 0 to n_items - 1), padded on the right to the longest, one
        history being the batch of one, and ``injected`` is None or empty.
        They start at position 0, in ``cache``, which must be empty.

        One latent step: ``history`` is empty, ``injected`` holds one
        (B, d_m) Tensor, row b the next position of sequence b, or a wider
        one whose first d_m columns those are (a verifier step's packed
        output), and ``cache`` holds the B histories and the steps so far.
        The row takes the place of a token lookup at each sequence's next
        position (the positional embedding is still added) and attends to
        every position the cache holds.

        Returns the last layer's state of each sequence at its own last
        position, one (B, d_m) row per sequence in batch order, for either
        call: the one row of each history that the reasoning loop reads, or
        the step's row. Every block computes the keys and values of every
        new column, which the cache grows by; the top block computes the
        rest only for the rows it returns. Any other call is refused with
        the cache left as it was.
        """
        x, at, (mask, read, top_mask) = self._latent_rows(history, injected, cache) \
            if injected else self._embed(history, cache)
        layers = cache.layers or [None] * self.cfg.layers
        pos, top = self._params["pos_emb"], self.cfg.layers - 1
        for i, (params, arrays) in enumerate(self._blocks):
            x = layers[i] = transformer_block(
                x, params, arrays, self.cfg.heads, top_mask if i == top else mask, cache.batch,
                layers[i], pos, at, read if i == top else None)
            pos = None  # the first block adds the position rows
        cache.layers = layers
        return layer_norm(x, *self._final, self._final_arrays)

    def _embed(self, history, cache: KVCache):
        """``encode``'s histories: their token embeddings, each row's position
        (``at`` of ``numerics.transformer_block``: the slice of the columns'
        positions, or with padding one per row, 0 for padding) and the
        mask of what they attend to. Checks the call, then records the
        batch and its padding in ``cache``."""
        if cache.batch:
            raise ValueError("a cache that holds histories takes only latent steps, "
                             "one entry per call")
        seqs = as_batch(history)
        counts = list(map(len, seqs))
        width = max(counts, default=0)  # shorter histories are padded to it
        if width > self.cfg.max_positions:
            raise ValueError(f"sequence length {width} exceeds max_positions "
                             f"{self.cfg.max_positions}")
        if min(counts, default=0) == 0:  # also no sequence at all
            raise ValueError("encode requires a non-empty history")
        B = len(seqs)
        ragged = min(counts) < width
        pad = np.arange(width) >= np.array(counts)[:, None] if ragged else None  # (B, width)
        # the one place where item ids enter the model
        ids = np.concatenate(seqs) if ragged else np.array(seqs)
        flat = ids.ravel().tolist()  # Python's min and max: a third of the time of numpy's
        if min(flat) < 0 or max(flat) >= self.cfg.n_items:
            bad = next(i for i in flat if not 0 <= i < self.cfg.n_items)
            raise ValueError(f"history item id {bad} outside 0..{self.cfg.n_items - 1}")
        at = slice(0, width)  # column c of every sequence is at position c
        if ragged:  # the shorter histories' columns hold the non-item token, at position 0
            grid = np.full((B, width), self.cfg.n_items)
            grid[~pad] = ids
            ids = grid
            at = np.arange(width).repeat(B)
            at[pad.T.ravel()] = 0
        x = embedding_lookup(self._params["tok_emb"], ids.ravel("F"))
        return x, at, self._commit(cache, B, width, pad)

    def _latent_rows(self, history, injected: list[Tensor], cache: KVCache):
        """``_embed`` for a latent step: one row per sequence, at its next
        position, len(cache) for sequences of one length (as a slice) and
        ``lengths`` in a padded batch. The histories were checked when they
        entered the cache, so this checks only the call and the rows and
        position it adds."""
        if len(history):
            raise ValueError("encode takes histories or one latent step, not both")
        if len(injected) != 1:
            raise ValueError(f"a latent step injects one entry, got {len(injected)}")
        if not cache.batch:
            raise ValueError("a latent step needs the cache that holds its histories")
        rows, B, start, d = injected[0], cache.batch, len(cache), self.cfg.d_m
        if rows.data.ndim != 2 or len(rows.data) != B or rows.data.shape[1] < d:
            raise ValueError(f"latent rows of shape {rows.data.shape}, expected {(B, d)} "
                             f"(or wider, of which the first {d} columns are read)")
        # the longest history holds no padding, so no sequence is longer than the cache
        if start + 1 > self.cfg.max_positions:
            raise ValueError(f"sequence length {start + 1} exceeds max_positions "
                             f"{self.cfg.max_positions}")
        at, pad = slice(start, start + 1), cache.pad
        if pad is not None:
            at, pad = cache.lengths, np.concatenate([pad, np.zeros((B, 1), bool)], axis=1)
        return rows, at, self._commit(cache, B, 1, pad)

    def _commit(self, cache: KVCache, B: int, n: int, pad: np.ndarray | None) -> tuple:
        """Record the call's batch, padding and columns in ``cache``, and
        return the mask of what its n new columns attend to, the rows the
        top block computes past their keys and values (``read`` of
        ``numerics.transformer_block``) and their mask. Histories (an empty
        cache): column c sees columns 0..c, and the top block computes each
        sequence's last column, which sees every column of its own; so only
        the blocks below the top read the causal mask, and a one-layer
        model gets None in its place and builds none. A latent step
        (n = 1): its column sees every column and is computed whole (read
        None). Padding is masked throughout."""
        keys = None if pad is None else np.where(pad, MASK_VALUE, 0.0)[:, None, :]
        cache.batch, cache.pad = B, pad
        cache.columns += n
        if n == 1:
            return keys, None, keys
        if pad is None:  # the last B rows
            read = slice((n - 1) * B, n * B)
        else:  # each sequence's last column
            read = (n - 1 - pad.sum(axis=1)) * B + np.arange(B)
        if self.cfg.layers == 1:  # the top block is the only block: no row reads the causal mask
            return None, read, keys
        mask = np.where(np.arange(n) > np.arange(n)[:, None], MASK_VALUE, 0.0)
        return (mask if keys is None else mask + keys), read, keys

    def next_item_scores(self, hidden: Tensor) -> Tensor:
        """(R, n_items) logits of every row of ``hidden``, tied to the
        embedding table."""
        return matmul(hidden, self._params["tok_emb"][:self.cfg.n_items].transpose())

    def rank_items(self, hidden: Tensor, k: int | None = None) -> np.ndarray:
        """Each row's top-k item ids by descending score, ties to the lower
        id. The scores are ``next_item_scores``', computed without a Tensor."""
        items = self._params["tok_emb"].data[:self.cfg.n_items].T.copy()
        return np.argsort(-hidden.data.dot(items), axis=1, kind="stable")[:, :k]
