"""Dense float64 tensors with reverse-mode automatic differentiation.

Everything downstream (backbone, verifiers, training) is built from the
operator set in this module. Arrays are row-major float64 throughout;
there is no broadcasting except scalar-with-tensor, so shape mismatches
fail loudly instead of silently expanding. ``Tensor.sum`` and
``Tensor.mean`` reduce the whole tensor to a scalar; ``log_softmax`` works
over the last axis, and ``layer_norm`` normalizes the first columns of 2-D
rows, refusing a 1-D vector. ``Rng``'s ``uniform`` draws one number per
call, and ``integers`` one or, given ``size``, that many: an array of n
draws is the n single draws in turn and leaves the stream where they do.
Every draw equals numpy's ``Generator``'s on the same Philox stream; the
scalar ones are decoded in Python from raw Philox words drawn in blocks,
without numpy's per-call overhead.

Four rules keep the core small:

- Basic indexing (``x[i]``, ``x[a:b]``, ``x[:, j]``) is the one slicing op.
- The open ``tracking`` block's tape is the graph and the engine's only
  state: a tensor is tracked exactly when it is on the tape. Opening the
  block (one at a time) zeroes the gradients of the tensors being fitted or
  grad-checked and starts the tape with them as leaves. Every op builds its
  output through ``_node``, which puts the output on the tape, with its
  children and vector-Jacobian product, only when some child is on it.
  Outside the block an op looks at none of its inputs (inference and
  evaluation pay for their arithmetic alone), and inside it an earlier
  block's output is a constant. ``backward``, run in the block, walks the
  tape backwards (each node after every node made from it) and only adds
  to the leaves' gradients.
- A model's parameters live in one value vector (``parameter_vectors``),
  each one's ``.data`` a view of its run. An optimizer owns the gradient
  vectors and binds each ``.grad`` to its run, so a step is one array
  operation per model; a model holds no gradient.
- A product of two matrices is ``ndarray.dot``: on the operands the hot
  paths pass, the BLAS call of ``@`` and its bits, without the matmul
  ufunc's dispatch. ``@`` is for stacks only, where ``dot`` means another
  product.

Composites that every latent step runs are single nodes with hand-written
vector-Jacobian products: ``transformer_block`` here (a pre-LN block:
layer norm, causal multi-head attention over cached and new keys, the
output projection, layer norm and a gelu MLP, each with its residual) and
the verifier bank's step in ``verifiers``. Their outputs have the bits of
the chains of elementary ops they replace, which stay in the tests as
their oracles, and their gradients add terms in those chains' order. A
block reads the first d columns of a wider input, a bank step's packed
output, and the first block adds each row's position itself; a block
given the rows that are read (``read``, one per sequence) computes every
row's keys and values but the rest of the block only for those rows, and
scatters their gradient back to them; ``layer_norm`` reads the first
columns of a block's packed output. So a latent step builds the bank
step, one node per block and the final norm, and no slicing or position
node between them, and a batch of histories returns each sequence's last
row without one. A block's node also packs its layer's keys and values so
far: the one earlier call that the next call's block links.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from functools import cache
from typing import Callable, Iterator, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "Rng",
    "check_int",
    "check_seed",
    "concat",
    "embedding_lookup",
    "layer_norm",
    "log",
    "log_softmax",
    "matmul",
    "parameter_layout",
    "parameter_vectors",
    "relu",
    "row_operands",
    "tracking",
    "transformer_block",
]


class Tensor:
    """A float64 array and, once ``tracking`` gives it one, its gradient.

    A tensor holds no graph: whether it is tracked, and what it was made
    from, is read off the open block's tape. ``backward`` adds
    d(loss)/d(leaf) to each leaf's ``.grad``, which the block zeroed.
    """

    __slots__ = ("data", "grad")

    def __init__(self, data):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def __repr__(self):
        return f"Tensor(shape={self.data.shape})"

    # -- operator sugar ---------------------------------------------------

    def __add__(self, other):
        return _add(self, other)

    def __mul__(self, other):
        return _mul(self, other)

    def __rmul__(self, other):
        return _mul(self, other)

    def __neg__(self):
        return _mul(self, -1.0)

    def __sub__(self, other):
        return _add(self, -_as_tensor(other))

    def transpose(self) -> "Tensor":
        if self.data.ndim != 2:
            raise ValueError(f"transpose expects a matrix, got shape {self.data.shape}")
        return _node(self.data.T.copy(), (self,), "transpose", lambda g: (g.T,))

    def __getitem__(self, key) -> "Tensor":
        """Basic indexing: an int, numpy integer or slice, or a tuple of them.

        The gradient scatters back into zeros. Gathers (list or array keys)
        are rejected because a repeated index would drop gradient; use
        ``embedding_lookup`` for those.
        """
        for k in key if isinstance(key, tuple) else (key,):
            if isinstance(k, bool) or not isinstance(k, (int, np.integer, slice)):
                raise TypeError("Tensor indices must be ints, slices or tuples of them, "
                                f"got {type(k).__name__}")

        def vjp(g):
            gx = np.zeros_like(self.data)
            gx[key] = g
            return (gx,)
        return _node(self.data[key].copy(), (self,), "getitem", vjp)

    def sum(self) -> "Tensor":
        return _reduce(self, mean=False)

    def mean(self) -> "Tensor":
        return _reduce(self, mean=True)

    def backward(self) -> None:
        """Add d(self)/d(leaf) to each leaf's ``.grad`` (zeroed by ``tracking``).

        ``self`` must be a scalar (size 1) on the tape of the ``tracking``
        block that is open now (one at a time): built there from a leaf.
        Backward walks that tape. A second call in the block adds to the
        first's. Any other loss raises ``ValueError`` and changes no ``.grad``.
        """
        if self.data.size != 1:
            raise ValueError(f"backward requires a scalar loss, got shape {self.data.shape}")
        tape = _tape or {}
        if id(self) not in tape:
            raise ValueError("backward: the loss depends on no tracked tensor of the open "
                             "block; build it and call backward inside one "
                             "numerics.tracking(params) block")
        pending: dict[int, np.ndarray] = {id(self): np.ones_like(self.data)}
        for node, children, vjp, _ in reversed(tape.values()):
            g = pending.pop(id(node), None)
            if g is None:
                continue
            if vjp is None:  # a leaf
                node.grad += g
                continue
            for child, cg in zip(children, vjp(g)):
                if cg is None or id(child) not in tape:
                    continue
                prev = pending.get(id(child))
                pending[id(child)] = cg if prev is None else prev + cg


# The open ``tracking`` block's tape, or None while no block is open (training
# runs in one thread): id(node) -> (node, children, vjp, op) in creation order,
# a leaf's entry without children or vjp. It holds the block's nodes alive,
# so their ids stay unique while it is open; with None, ``_node`` links nothing
_tape: dict[int, tuple[Tensor, tuple[Tensor, ...], Callable | None, str]] | None = None


@contextmanager
def tracking(tensors: Sequence[Tensor]) -> Iterator[None]:
    """Open a block whose tape starts with ``tensors`` as leaves to
    differentiate, each with a zero gradient: the one place a gradient is
    reset or, but for an optimizer's vectors (``training.Adam``), made. A
    ``.grad`` that is a view of an optimizer's vector is zeroed in place;
    any other tensor gets a new zero array. Blocks do not nest: a block
    opened in another raises ``RuntimeError`` and leaves that one as it was.
    Ops build a graph only on the open block's tape, which ``backward``
    walks, so a loss is back-propagated in the block that built it. On exit,
    also by an exception, the tape and with it the graph are dropped; the
    leaves' ``.grad`` keeps the gradient.
    """
    global _tape
    if _tape is not None:
        raise RuntimeError("tracking blocks do not nest")
    tape = {id(t): (t, (), None, "leaf") for t in tensors}
    for t, *_ in tape.values():
        if t.grad is not None and t.grad.base is not None:
            t.grad.fill(0.0)
        else:
            t.grad = np.zeros_like(t.data)
    _tape = tape
    try:
        yield
    finally:
        _tape = None


def parameter_layout(params: dict[str, Tensor]) -> Iterator[tuple[str, Tensor, int]]:
    """Each parameter's name, tensor and start in its model's vectors, in
    sorted name order (a checkpoint's order): the one statement of the layout."""
    start = 0
    for name in sorted(params):
        yield name, params[name], start
        start += params[name].size


def parameter_vectors(params: dict[str, Tensor]) -> np.ndarray:
    """One value vector for a model's new parameters.

    Each parameter's values are copied into its run (``parameter_layout``)
    of the vector, and its ``.data`` becomes a view of that run for the life
    of the model, so writes go through it in place. Its ``.grad`` stays None
    until ``tracking`` or an optimizer gives it one.
    """
    layout = list(parameter_layout(params))
    values = np.concatenate([t.data.ravel() for _, t, _ in layout])
    for _, t, start in layout:
        t.data = values[start:start + t.size].reshape(t.shape)
    return values


def row_operands(params: Sequence[Tensor]) -> tuple[np.ndarray, ...]:
    """What ops compute with for ``params``, made once per model beside
    ``parameter_vectors``: each 1-D gain or bias as a (1, d) row view (numpy
    applies it to one row in half the time of a (d,) operand), any other
    parameter's ``.data`` as it is. Views of ``values``, they follow its writes."""
    return tuple(t.data[None] if t.data.ndim == 1 else t.data for t in params)


def _node(data: np.ndarray, children: tuple[Tensor, ...], op: str,
          vjp: Callable[[np.ndarray], tuple]) -> Tensor:
    """Wrap an op's output; it goes on the open block's tape, with its
    children, ``vjp`` and ``op``, when some child is on it. With no block
    open it is returned at once, without a look at ``children``.

    ``vjp`` maps the output gradient to one gradient per entry of
    ``children``, in order; ``backward`` skips the ones not on the tape.
    """
    out = Tensor(data)
    if _tape is not None:
        for c in children:
            if id(c) in _tape:
                _tape[id(out)] = (out, children, vjp, op)
                break
    return out


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


def _elementwise_operand(op: str, a: Tensor, b) -> Tensor:
    """``b`` as a tensor of ``a``'s shape, or either one a scalar."""
    b = _as_tensor(b)
    if a.data.shape != b.data.shape and a.data.size != 1 and b.data.size != 1:
        raise ValueError(f"{op}: shape mismatch {a.data.shape} vs {b.data.shape}")
    return b


def _sum_to(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Gradient of a scalar operand that was applied to every element."""
    return g if g.shape == shape else np.asarray(np.add.reduce(g, axis=None)).reshape(shape)


def _add(a: Tensor, b) -> Tensor:
    b = _elementwise_operand("add", a, b)
    return _node(a.data + b.data, (a, b), "add",
                 lambda g: (_sum_to(g, a.data.shape), _sum_to(g, b.data.shape)))


def _mul(a: Tensor, b) -> Tensor:
    b = _elementwise_operand("mul", a, b)
    ad, bd = a.data, b.data
    return _node(ad * bd, (a, b), "mul", lambda g: (_sum_to(g * bd, ad.shape),
                                                    _sum_to(g * ad, bd.shape)))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of two matrices."""
    ad, bd = a.data, b.data
    if ad.ndim != 2 or bd.ndim != 2:
        raise ValueError(f"matmul: unsupported ranks {ad.ndim} @ {bd.ndim}")
    if ad.shape[1] != bd.shape[0]:
        raise ValueError(f"matmul: shape mismatch {ad.shape} @ {bd.shape}")
    return _node(ad.dot(bd), (a, b), "matmul", lambda g: (g.dot(bd.T), ad.T.dot(g)))


def embedding_lookup(table: Tensor, ids) -> Tensor:
    """Gather rows of a (V, d) table by integer index; gradient scatters back.

    The ids are not range-checked: a negative one would wrap around, so
    callers pass ids from 0 to V-1 (``Backbone.encode`` checks the
    histories that enter the model)."""
    idx = np.asarray(ids, dtype=np.int64)
    if idx.ndim != 1:
        raise ValueError(f"embedding_lookup: ids must be 1-D, got shape {idx.shape}")
    if table.data.ndim != 2:
        raise ValueError(f"embedding_lookup: table must be 2-D, got shape {table.data.shape}")

    def vjp(g):
        gt = np.zeros_like(table.data)
        np.add.at(gt, idx, g)
        return (gt,)
    # take: a new array, as table.data[idx] is, in a third of its time
    return _node(table.data.take(idx, axis=0), (table,), "embedding_lookup", vjp)


def concat(parts: Sequence[Tensor]) -> Tensor:
    """Join tensors' rows (their first axis)."""
    parts = tuple(parts)
    if not parts:
        raise ValueError("concat: empty input")

    def vjp(g):
        return tuple(np.split(g, np.cumsum([len(p.data) for p in parts])[:-1]))
    return _node(np.concatenate([p.data for p in parts]), parts, "concat", vjp)


def _reduce(x: Tensor, mean: bool) -> Tensor:
    """Sum or mean over every element, in index order.

    Terms are added first to last and a mean multiplies by 1/count, so the
    result has the bits of adding scalar terms one by one and scaling.
    """
    shape = x.data.shape
    scale = 1.0 / x.data.size if mean else 1.0
    data = np.add.accumulate(x.data.reshape(-1))[-1]
    if mean:
        data = data * scale
    return _node(np.asarray(data), (x,), "mean" if mean else "sum",
                 lambda g: (np.full(shape, float(g) * scale),))


def log(x: Tensor) -> Tensor:
    xd = x.data
    return _node(np.log(xd), (x,), "log", lambda g: (g / xd,))


def relu(x: Tensor) -> Tensor:
    xd = x.data
    return _node(np.maximum(xd, 0.0), (x,), "relu",
                 lambda g: (g * (xd > 0.0).astype(np.float64),))


# Fixed constants of the array ops as 0-d float64 arrays: an op rounds the
# same with them as with a Python float, but numpy 2.4 charges about 0.4 us
# more per op for a Python scalar operand
_HALF, _ONE = np.array(0.5), np.array(1.0)
_GELU_C, _GELU_A = np.array(math.sqrt(2.0 / math.pi)), np.array(0.044715)
_GELU_3A = np.array(3 * 0.044715)


# the constants that depend on a size, as 0-d arrays made once per size: a
# layer norm's width d and attention's score scale 1/sqrt(dh)
_width = cache(lambda d: np.array(float(d)))
_inv_sqrt = cache(lambda dh: np.array(1.0 / math.sqrt(dh)))


def _gelu_np(xd: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Tanh-approximation GELU of an array, and the tanh its derivative reuses."""
    # xd*xd*xd, not xd**3: numpy sends a cube through libm pow, many times slower
    tanh = np.tanh(_GELU_C * (xd + _GELU_A * (xd * xd * xd)))
    return _HALF * xd * (_ONE + tanh), tanh


def _gelu_deriv(xd: np.ndarray, tanh: np.ndarray) -> np.ndarray:
    sech2 = _ONE - tanh**2
    return _HALF * (_ONE + tanh) + _HALF * xd * sech2 * _GELU_C * (_ONE + _GELU_3A * xd**2)


def _softmax_np(xd: np.ndarray, axis: int = -1) -> np.ndarray:
    # the ufuncs' reductions, which ndarray.max and .sum call through Python
    e = np.exp(xd - np.maximum.reduce(xd, axis=axis, keepdims=True))
    return e / np.add.reduce(e, axis=axis, keepdims=True)


def log_softmax(x: Tensor) -> Tensor:
    """Log-softmax over the last axis."""
    xd = x.data
    shifted = xd - np.maximum.reduce(xd, axis=-1, keepdims=True)
    ld = shifted - np.log(np.add.reduce(np.exp(shifted), axis=-1, keepdims=True))

    def vjp(g):
        s = np.exp(ld)
        return (g - s * np.add.reduce(g, axis=-1, keepdims=True),)
    return _node(ld, (x,), "log_softmax", vjp)


def _attention_np(q: np.ndarray, k: np.ndarray, v: np.ndarray, heads: int,
                  mask: np.ndarray | None, batch: int) -> tuple[np.ndarray, Callable]:
    """Multi-head scaled-dot-product attention of n query rows over T key
    rows, for each of ``batch`` sequences, and its vector-Jacobian product.

    Rows are position-major: row c*batch + b holds column c of sequence b, so
    ``q`` is (n*batch, d) and ``k``, ``v`` are (T*batch, d). Head h owns
    columns [h*d/heads, (h+1)*d/heads) of each and computes
    softmax(q_h k_h^T / sqrt(d/heads) + mask) v_h per sequence; the heads'
    outputs sit side by side in the (n*batch, d) result. ``mask`` is
    additive (a large negative value hides a key): (n, T) for every
    sequence, (batch, n, T) per sequence, or None. The product maps the
    output's gradient to those of ``q``, ``k`` and ``v``.
    """
    rows, d = q.shape
    n, T = rows // batch, k.shape[0] // batch
    dh = d // heads
    scale = _inv_sqrt(dh)
    # one contiguous matrix per sequence and head: each batched product then
    # makes the BLAS call, and gets the bits, of that product on its own
    bh = batch * heads
    qh = np.ascontiguousarray(q.reshape(n, bh, dh).transpose(1, 0, 2))
    kt = np.ascontiguousarray(k.reshape(T, bh, dh).transpose(1, 2, 0))  # k_h^T
    vh = np.ascontiguousarray(v.reshape(T, bh, dh).transpose(1, 0, 2))
    logits = (qh @ kt) * scale
    if mask is not None and mask.ndim == 3:  # one mask per sequence, for all its heads
        logits = (logits.reshape(batch, heads, n, T) + mask[:, None]).reshape(bh, n, T)
    elif mask is not None:
        logits = logits + mask
    att = _softmax_np(logits)

    def vjp(g):
        gh = g.reshape(n, bh, dh).transpose(1, 0, 2)
        ga = gh @ vh.transpose(0, 2, 1)
        gl = att * (ga - np.add.reduce(ga * att, axis=-1, keepdims=True)) * scale
        return tuple(x.transpose(1, 0, 2).reshape(-1, d) for x in (
            gl @ kt.transpose(0, 2, 1), gl.transpose(0, 2, 1) @ qh,
            att.transpose(0, 2, 1) @ gh))
    return (att @ vh).transpose(1, 0, 2).reshape(rows, d), vjp


LAYER_NORM_EPS = 1e-5
_LAYER_NORM_EPS = np.array(LAYER_NORM_EPS)


def _layer_norm_np(xd: np.ndarray, gd: np.ndarray, bd: np.ndarray) -> tuple[np.ndarray, Callable]:
    """Normalize rows over the last axis, then scale and shift; and the
    vector-Jacobian product to the rows, gain and bias."""
    d = xd.shape[-1]
    width = _width(d)
    # np.mean and np.var's arithmetic, without their per-call overhead. One
    # row's mean and scale are Python floats: each step on them is the IEEE
    # operation a (1, 1) array would round by (math.sqrt is correctly rounded,
    # as np.sqrt is), without numpy's scalar dispatch
    if xd.size == d:
        centered = xd - float(np.add.reduce(xd, axis=None)) / d
        inv = 1.0 / math.sqrt(float(np.add.reduce(centered * centered, axis=None)) / d
                              + LAYER_NORM_EPS)
    else:
        centered = xd - np.add.reduce(xd, axis=-1, keepdims=True) / width
        inv = _ONE / np.sqrt(np.add.reduce(centered * centered, axis=-1, keepdims=True) / width
                             + _LAYER_NORM_EPS)
    xhat = centered * inv

    def vjp(g):
        gxhat = g * gd
        # standard layernorm backward over the last axis
        dx = inv / width * (width * gxhat - np.add.reduce(gxhat, axis=-1, keepdims=True)
                            - xhat * np.add.reduce(gxhat * xhat, axis=-1, keepdims=True))
        return (dx, np.add.reduce(g * xhat, axis=0), np.add.reduce(g, axis=0))
    return xhat * gd + bd, vjp


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor,
               arrays: tuple[np.ndarray, np.ndarray]) -> Tensor:
    """Normalize the first len(gain) columns of 2-D rows, then scale and
    shift; the rest of a wider matrix, such as ``transformer_block``'s
    packed output, is ignored. ``arrays`` are ``row_operands((gain, bias))``,
    the (1, d) rows it computes with; the gradient goes to the tensors."""
    width, d = x.data.shape[-1], gain.data.size
    if x.data.ndim != 2 or gain.data.shape != (d,) or bias.data.shape != (d,) or width < d:
        raise ValueError(f"layer_norm: rows of shape {x.data.shape} for gain/bias of shape "
                         f"{gain.data.shape} and {bias.data.shape}; it takes 2-D rows that wide")
    out, cols_vjp = _layer_norm_np(np.ascontiguousarray(x.data[:, :d]), *arrays)

    def vjp(g):
        g_x, g_gain, g_bias = cols_vjp(g)
        return (np.concatenate([g_x, np.zeros((len(g_x), width - d))], axis=1), g_gain, g_bias)
    return _node(out, (x, gain, bias), "layer_norm", vjp)


def transformer_block(x: Tensor, params: Sequence[Tensor], arrays: Sequence[np.ndarray],
                      heads: int, mask: np.ndarray | None = None, batch: int = 1,
                      prev: Tensor | None = None, pos: Tensor | None = None,
                      at: np.ndarray | slice | None = None,
                      read: np.ndarray | slice | None = None) -> Tensor:
    """One pre-LN transformer block over new position-major rows, as one node.

    The first d columns of ``x`` are the block's n*batch input rows (``x``
    is the embedded rows, a verifier step's packed output, or the block
    below's output). The first block also takes the position table ``pos``
    and ``at``, one position per input row, and adds row ``at[r]`` of the
    table to input row r; a call without padding gives ``at`` as the slice
    of the positions its columns take, column c of every sequence at
    ``at.start + c``. ``params`` are ln1 gain and bias, wq, bq, wk, wv,
    bv, wo, bo, ln2 gain and bias, w1, b1, w2 and b2 (the node's children;
    it computes with ``arrays``, their ``row_operands``), and with x the input
    rows (plus pos[at] in the first block) and u = LN1(x) the block computes

        a = x + attention(u Wq + bq, [keys; u Wk], [values; u Wv + bv]) Wo + bo
        out = a + gelu(LN2(a) W1 + b1) W2 + b2

    (``_attention_np`` with ``heads``, ``mask`` and ``batch``). The keys have
    no bias: it would add q.bk to all of a query's scores alike, which
    softmax ignores, so its gradient is exactly zero. ``prev`` is this
    layer's node from the call before (None on the first call), whose
    columns hold the keys and values the new rows attend to after.

    k and v are computed for every input row; the rest, from the queries
    on, only for the rows ``read`` lists, one per sequence in sequence
    order (the rows a caller reads of the top block: an int array, or a
    slice when they are the last ``batch`` rows), which ``mask`` is then
    the mask of. With ``read`` None every row is computed. The node's
    R rows (the computed ones) pack [out | keys | values], the keys and
    values of every position the layer holds reshaped to R rows. Its
    gradient to ``prev`` is the earlier rows' part of what later calls and
    this one sent the keys and values; it flows to ``pos`` too. The node's
    values have the bits of the chain of elementary ops it replaces, and
    its gradient adds terms in that chain's order.
    """
    gain1, bias1, wq, bq, wk, wv, bv, wo, bo, gain2, bias2, w1, b1, w2, b2 = arrays
    d = wq.shape[0]
    rows, width = x.data.shape
    xd = x.data if width == d else x.data[:, :d]
    if pos is not None:
        if isinstance(at, slice):  # column c of every sequence at position at.start + c
            xd = (xd.reshape(-1, batch, d) + pos.data[at, None]).reshape(rows, d)
        else:
            xd = xd + pos.data.take(at, axis=0)  # take: a third of the time of pos.data[at]
    elif width != d:
        xd = np.ascontiguousarray(xd)
    u, ln1_vjp = _layer_norm_np(xd, gain1, bias1)
    k, v = u.dot(wk), u.dot(wv) + bv
    computed = slice(None) if read is None else read
    uq, xq = u[computed], xd[computed]
    q = uq.dot(wq) + bq
    keys, values = k, v
    if prev is not None:
        half = (prev.data.shape[1] - d) // 2
        keys = np.concatenate([prev.data[:, d:d + half].reshape(-1, d), k])
        values = np.concatenate([prev.data[:, d + half:].reshape(-1, d), v])
    joined, attention_vjp = _attention_np(q, keys, values, heads, mask, batch)
    a = xq + (joined.dot(wo) + bo)
    u2, ln2_vjp = _layer_norm_np(a, gain2, bias2)
    pre = u2.dot(w1) + b1
    h, tanh = _gelu_np(pre)
    out = a + (h.dot(w2) + b2)
    R = len(out)

    def vjp(g):
        g_out = np.ascontiguousarray(g[:, :d])
        g_pre = g_out.dot(w2.T) * _gelu_deriv(pre, tanh)
        g_a, g_gain2, g_bias2 = ln2_vjp(g_pre.dot(w1.T))
        g_a = g_out + g_a
        g_q, g_keys, g_values = attention_vjp(g_a.dot(wo.T))
        # every held row's key and value, plus what later calls sent them
        half, new = (g.shape[1] - d) // 2, len(g_keys) - rows
        g_keys = g_keys + g[:, d:d + half].reshape(-1, d)
        g_values = g_values + g[:, d + half:].reshape(-1, d)
        g_k, g_v = g_keys[new:], g_values[new:]
        # the computed rows' query and residual terms go back to those rows
        g_u = g_k.dot(wk.T)
        g_u[computed] += g_q.dot(wq.T)
        g_x, g_gain1, g_bias1 = ln1_vjp(g_u + g_v.dot(wv.T))
        g_x[computed] += g_a
        g_pos = ()
        if pos is not None:
            g_pos = (np.zeros_like(pos.data),)
            if isinstance(at, slice):  # each column's rows added in row order, as np.add.at does
                g_pos[0][at] += np.add.reduce(g_x.reshape(-1, batch, d), axis=1)
            else:
                np.add.at(g_pos[0], at, g_x)
        if width != d:
            g_x = np.concatenate([g_x, np.zeros((rows, width - d))], axis=1)
        g_prev = ()
        if prev is not None:  # the earlier rows' keys and values, packed as prev is
            held = len(prev.data)
            g_prev = (np.concatenate([np.zeros((held, d)), g_keys[:new].reshape(held, -1),
                                      g_values[:new].reshape(held, -1)], axis=1),)
        return (g_x, *g_pos, *g_prev, g_gain1, g_bias1, uq.T.dot(g_q),
                np.add.reduce(g_q, axis=0), u.T.dot(g_k), u.T.dot(g_v), np.add.reduce(g_v, axis=0),
                joined.T.dot(g_a), np.add.reduce(g_a, axis=0), g_gain2, g_bias2, u2.T.dot(g_pre),
                np.add.reduce(g_pre, axis=0), h.T.dot(g_out), np.add.reduce(g_out, axis=0))
    inputs = tuple(t for t in (x, pos, prev) if t is not None)
    return _node(np.concatenate([out, keys.reshape(R, -1), values.reshape(R, -1)], axis=1),
                 (*inputs, *params), "transformer_block", vjp)


def check_int(name: str, value, least: int = 0) -> None:
    """Reject a setting that is not an integer >= ``least``: also a bool, or a float like 1.5."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        bound = "non-negative" if least == 0 else f"at least {least}"
        raise ValueError(f"{name} must be {bound} and an integer, got {value!r}")


def check_seed(seed) -> None:
    """A seed keys ``Rng``'s Philox stream as a uint64."""
    check_int("seed", seed)
    if seed >= 2**64:
        raise ValueError(f"seed must be below 2**64, got {seed}")


_2_POW_32, _2_POW_64, _MASK_64 = 2**32, 2**64, 2**64 - 1
_2_POW_M53 = 2.0**-53
_INT64_LOW, _INT64_END = -(2**63), 2**63  # integers' bounds: low >= _INT64_LOW, high <= _INT64_END
_INTEGER = (int, np.integer)
_INT64_ZERO = np.int64(0)  # np.int64 + a Python int is an np.int64, made faster than np.int64(v)
_FIRST_BLOCK, _LAST_BLOCK = 32, 1024  # Rng's block sizes in words: each block twice the last


class Rng:
    """Counter-based deterministic random stream keyed by (seed, stream_id).

    Built on the Philox bit generator, so identical keys reproduce identical
    sequences on every platform. The package draws from streams 0 (the synthetic
    corpus), 1 (the CF trainer), 3 to 6 (the k-means restarts), 10 (the
    backbone's weights), 20 (the verifier bank's), and 30, 31 and 32 (the
    shuffles of training stages 0, 1 and 2). Every draw equals the one numpy's
    ``Generator`` on that bit generator makes for the same call, in turn.
    ``uniform`` and scalar ``integers`` decode blocks of raw 64-bit words in
    Python as ``Generator`` does in C, which saves its per-call overhead:
    a double is ``(w >> 11) * 2**-53``; a span below 2**32 takes Lemire's
    rejection on a 32-bit draw, a span of 2**32 is one 32-bit draw, a larger
    one Lemire's rejection on a word (2**64: the word itself), and a span of
    1 draws nothing. A 32-bit draw is the low half of a new word, keeping
    its high half for the next one, as Philox's own buffer does. The other
    draws first move the bit generator to where the decoded ones leave the
    stream.
    """

    __slots__ = ("seed", "stream_id", "_gen", "_start", "_block", "_block_size", "_has_half",
                 "_half")

    def __init__(self, seed: int, stream_id: int = 0):
        self.seed = int(seed)
        self.stream_id = int(stream_id)
        key = np.array([self.seed, self.stream_id], dtype=np.uint64)
        self._gen = np.random.Generator(np.random.Philox(key=key))
        self._start = None  # the bit generator's state before the block; None: no block
        self._block: list[int] = []  # its words not yet used, the next one last
        self._block_size = 0  # the words drawn into the block
        self._has_half, self._half = False, 0  # Philox's has_uint32 and uinteger

    def _words(self) -> list[int]:
        """The block's unused words; a new block when none is left, drawn from
        where the last one ended or, after an array draw, from the bit
        generator's state, its kept half included."""
        if not self._block:
            bits = self._gen.bit_generator
            state = bits.state
            if self._start is None:  # no block yet, or an array draw since the last
                self._has_half, self._half = bool(state["has_uint32"]), state["uinteger"]
                self._block_size = _FIRST_BLOCK
            else:
                self._block_size = min(2 * self._block_size, _LAST_BLOCK)
            self._start = state
            self._block = bits.random_raw(self._block_size).tolist()[::-1]
        return self._block

    def _next32(self) -> int:
        if not (self._has_half or self._block):
            self._words()  # a new block, which takes up the bit generator's kept half
        if self._has_half:
            self._has_half = False
            return self._half
        word = self._block.pop()
        self._has_half, self._half = True, word >> 32
        return word & 0xFFFFFFFF

    def _next64(self) -> int:
        return (self._block or self._words()).pop()

    def _settled(self) -> np.random.Generator:
        """The generator, its bit generator moved to where the decoded draws
        leave the stream: the state before the block, advanced by the words
        used, with the kept half."""
        if self._start is not None:
            state = self._start
            state["has_uint32"], state["uinteger"] = int(self._has_half), self._half
            bits = self._gen.bit_generator
            bits.state = state
            bits.random_raw(self._block_size - len(self._block))
            # no half: the next 32-bit draw starts a block, which takes the
            # bit generator's kept half as the array draws leave it
            self._start, self._block, self._has_half = None, [], False
        return self._gen

    def normal(self, shape, std: float = 1.0) -> np.ndarray:
        return self._settled().standard_normal(shape) * std

    def uniform(self) -> float:
        return ((self._block or self._words()).pop() >> 11) * _2_POW_M53

    def integers(self, low: int, high: int, size: int | None = None):
        if size is not None or type(low) is not int or type(high) is not int or not (
                _INT64_LOW <= low < high <= _INT64_END):
            if (size is None and isinstance(low, _INTEGER) and isinstance(high, _INTEGER)
                    and not (type(low) is int and type(high) is int)):  # numpy integers: as ints
                return self.integers(int(low), int(high))
            return self._settled().integers(low, high, size)  # also raises as numpy does
        span = high - low
        if span < _2_POW_32:
            if span == 1:
                return _INT64_ZERO + low
            if self._has_half:  # _next32 inlined on the hot path, a new block left to it
                self._has_half = False
                m = self._half * span
            elif self._block:
                word = self._block.pop()
                self._has_half, self._half = True, word >> 32
                m = (word & 0xFFFFFFFF) * span
            else:
                m = self._next32() * span
            if m & 0xFFFFFFFF < span:  # Lemire's rejection, its threshold 2**32 % span
                threshold = _2_POW_32 % span
                while m & 0xFFFFFFFF < threshold:
                    m = self._next32() * span
            return _INT64_ZERO + (low + (m >> 32))
        if span == _2_POW_32:
            return _INT64_ZERO + (low + self._next32())
        if span == _2_POW_64:
            return _INT64_ZERO + (low + self._next64())
        m = self._next64() * span
        if m & _MASK_64 < span:
            threshold = _2_POW_64 % span
            while m & _MASK_64 < threshold:
                m = self._next64() * span
        return _INT64_ZERO + (low + (m >> 64))

    def permutation(self, n: int) -> np.ndarray:
        return self._settled().permutation(n)

    def choice_weighted(self, weights: np.ndarray) -> int:
        """Index draw proportional to non-negative weights."""
        total = float(weights.sum())
        u = self.uniform() * total
        return int(np.searchsorted(np.cumsum(weights), u, side="right").clip(0, len(weights) - 1))
