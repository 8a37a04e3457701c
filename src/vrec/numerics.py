"""Dense float64 tensors with reverse-mode automatic differentiation.

Everything downstream (backbone, verifiers, training) is built from the
operator set in this module. Arrays are row-major float64 throughout;
there is no broadcasting except scalar-with-tensor, so shape mismatches
fail loudly instead of silently expanding. ``Tensor.sum`` and
``Tensor.mean`` reduce the whole tensor to a scalar; ``log_softmax`` and
``layer_norm`` work over the last axis.

Four rules keep the core small:

- Basic indexing (``x[i]``, ``x[a:b]``, ``x[:, j]``) is the one slicing op.
- Every op builds its output through ``_node``, which links the output into
  the graph only when some child is tracked; an op on untracked inputs
  builds no graph and runs no gradient-only work.
- Model parameters are created untracked. Only the tensors being fitted or
  grad-checked are tracked, and only inside ``tracking(tensors)``, so
  inference and evaluation build no graph at all.
- A model's parameters live in one value vector and one gradient vector
  (``parameter_vectors``): each parameter's ``.data`` and ``.grad`` are
  views of its run of them, so an optimizer step or a gradient reset is one
  array operation per model.

Composites that every latent step runs are single nodes with hand-written
vector-Jacobian products: ``transformer_block`` here (a pre-LN block:
layer norm, causal multi-head attention over cached and new keys, the
output projection, layer norm and a gelu MLP, each with its residual) and
the verifier bank's step in ``verifiers``. Their outputs have the bits of
the chains of elementary ops they replace, which stay in the tests as
their oracles, and their gradients add terms in those chains' order. A
block reads the first d columns of a wider input, a bank step's packed
output, and the first block adds the position rows itself; ``layer_norm``
reads the first columns of a block's packed output. So a latent step
builds the bank step, one node per block and the final norm, and no
slicing or position node between them.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
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
    "tracking",
    "transformer_block",
]


class Tensor:
    """A float64 array plus an optional reverse-mode graph node.

    ``requires_grad=True`` marks a leaf to differentiate (``tracking`` sets
    it for a block): ``backward`` accumulates d(loss)/d(leaf) into
    ``.grad``. Tensors produced by operators on tracked inputs carry a
    vector-Jacobian closure and propagate instead of accumulating.
    """

    __slots__ = ("data", "grad", "requires_grad", "_children", "_vjp", "_op")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._children: tuple[Tensor, ...] = ()
        self._vjp: Callable[[np.ndarray], tuple] | None = None
        self._op = ""

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def tracked(self) -> bool:
        return self.requires_grad or self._vjp is not None

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def zero_grad(self) -> None:
        """Drop the gradient; a model parameter's, a view of its model's
        gradient vector, is zeroed in place instead."""
        if self.grad is not None and self.grad.base is not None:
            self.grad.fill(0.0)
        else:
            self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, op={self._op!r}, requires_grad={self.requires_grad})"

    # -- operator sugar ---------------------------------------------------

    def __add__(self, other):
        return _add(self, other)

    def __radd__(self, other):
        return _add(self, other)

    def __mul__(self, other):
        return _mul(self, other)

    def __rmul__(self, other):
        return _mul(self, other)

    def __neg__(self):
        return _mul(self, -1.0)

    def __sub__(self, other):
        return _add(self, -_as_tensor(other))

    def __rsub__(self, other):
        return _add(-self, other)

    def __matmul__(self, other):
        return matmul(self, other)

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
        """Accumulate d(self)/d(leaf) into every tracked leaf's ``.grad``.

        ``self`` must be a scalar (size 1) that depends on a tracked tensor.
        Repeated calls without a grad reset keep accumulating.
        """
        if self.data.size != 1:
            raise ValueError(f"backward requires a scalar loss, got shape {self.data.shape}")
        if not self.tracked():
            raise ValueError("backward: the loss depends on no tracked tensor; build it "
                             "inside numerics.tracking(params)")
        topo = _topo_order(self)
        grads: dict[int, np.ndarray] = {id(self): np.ones_like(self.data)}
        for node in reversed(topo):
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if node.requires_grad:
                if node.grad is None:
                    node.grad = np.zeros_like(node.data)
                node.grad += g
            if node._vjp is None:
                continue
            for child, cg in zip(node._children, node._vjp(g)):
                if cg is None or not (child.requires_grad or child._vjp is not None):
                    continue
                prev = grads.get(id(child))
                grads[id(child)] = cg if prev is None else prev + cg


@contextmanager
def tracking(tensors: Sequence[Tensor]) -> Iterator[None]:
    """Mark ``tensors`` as leaves to differentiate for the length of the block.

    Ops on them build a graph only inside the block; on exit, also by an
    exception, each tensor's previous ``requires_grad`` comes back.
    """
    tensors = list(tensors)
    saved = [t.requires_grad for t in tensors]
    for t in tensors:
        t.requires_grad = True
    try:
        yield
    finally:
        for t, was in zip(tensors, saved):
            t.requires_grad = was


def parameter_layout(params: dict[str, Tensor]) -> Iterator[tuple[str, Tensor, int]]:
    """Each parameter's name, tensor and start in its model's vectors, in
    sorted name order (a checkpoint's order): the one statement of the layout."""
    start = 0
    for name in sorted(params):
        yield name, params[name], start
        start += params[name].size


def parameter_vectors(params: dict[str, Tensor]) -> tuple[np.ndarray, np.ndarray]:
    """One value vector and one gradient vector for a model's new parameters.

    Each parameter's values are copied into its run (``parameter_layout``)
    of the value vector, and its ``.data`` and ``.grad`` become views of its
    runs of the two vectors for the life of the model, so writes go through
    them in place. Gradients start at zero.
    """
    layout = list(parameter_layout(params))
    values = np.concatenate([t.data.ravel() for _, t, _ in layout])
    grads = np.zeros_like(values)
    for _, t, start in layout:
        run = slice(start, start + t.size)
        t.data = values[run].reshape(t.shape)
        t.grad = grads[run].reshape(t.shape)
    return values, grads


def _topo_order(root: Tensor) -> list[Tensor]:
    # Iterative DFS; graphs from unrolled reasoning loops overflow Python's
    # recursion limit. Here, in backward and in _node the test of
    # Tensor.tracked is written out: they run once per graph edge.
    order: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for child in node._children:
            if (child.requires_grad or child._vjp is not None) and id(child) not in visited:
                stack.append((child, False))
    return order


def _node(data: np.ndarray, children: tuple[Tensor, ...], op: str,
          vjp: Callable[[np.ndarray], tuple]) -> Tensor:
    """Wrap an op's output; it joins the graph only when some child is tracked.

    ``vjp`` maps the output gradient to one gradient per entry of
    ``children``, in order; ``backward`` skips the untracked ones.
    """
    out = Tensor(data)
    out._op = op
    for c in children:
        if c.requires_grad or c._vjp is not None:
            out._children = children
            out._vjp = vjp
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
    return g if g.shape == shape else np.asarray(g.sum()).reshape(shape)


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
    return _node(ad @ bd, (a, b), "matmul", lambda g: (g @ bd.T, ad.T @ g))


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
    return _node(table.data[idx].copy(), (table,), "embedding_lookup", vjp)


def concat(parts: Sequence[Tensor], axis: int = 0) -> Tensor:
    parts = tuple(parts)
    if not parts:
        raise ValueError("concat: empty input")

    def vjp(g):
        splits = np.cumsum([p.data.shape[axis] for p in parts])[:-1]
        return tuple(np.split(g, splits, axis=axis))
    return _node(np.concatenate([p.data for p in parts], axis=axis), parts, "concat", vjp)


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


_GELU_C = math.sqrt(2.0 / math.pi)


def _gelu_np(xd: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Tanh-approximation GELU of an array, and the tanh its derivative reuses."""
    tanh = np.tanh(_GELU_C * (xd + 0.044715 * xd**3))
    return 0.5 * xd * (1.0 + tanh), tanh


def _gelu_deriv(xd: np.ndarray, tanh: np.ndarray) -> np.ndarray:
    sech2 = 1.0 - tanh**2
    return 0.5 * (1.0 + tanh) + 0.5 * xd * sech2 * _GELU_C * (1.0 + 3 * 0.044715 * xd**2)


def _softmax_np(xd: np.ndarray, axis: int = -1) -> np.ndarray:
    # the ufuncs' reductions, which ndarray.max and .sum call through Python
    e = np.exp(xd - np.maximum.reduce(xd, axis=axis, keepdims=True))
    return e / np.add.reduce(e, axis=axis, keepdims=True)


def log_softmax(x: Tensor) -> Tensor:
    """Log-softmax over the last axis."""
    xd = x.data
    m = xd.max(axis=-1, keepdims=True)
    shifted = xd - m
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    ld = shifted - lse

    def vjp(g):
        s = np.exp(ld)
        return (g - s * g.sum(axis=-1, keepdims=True),)
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
    scale = 1.0 / math.sqrt(dh)
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
        gl = att * (ga - (ga * att).sum(axis=-1, keepdims=True)) * scale
        return tuple(x.transpose(1, 0, 2).reshape(-1, d) for x in (
            gl @ kt.transpose(0, 2, 1), gl.transpose(0, 2, 1) @ qh,
            att.transpose(0, 2, 1) @ gh))
    return (att @ vh).transpose(1, 0, 2).reshape(rows, d), vjp


LAYER_NORM_EPS = 1e-5


def _layer_norm_np(xd: np.ndarray, gd: np.ndarray, bd: np.ndarray) -> tuple[np.ndarray, Callable]:
    """Normalize rows over the last axis, then scale and shift; and the
    vector-Jacobian product to the rows, gain and bias."""
    d = xd.shape[-1]
    # np.mean and np.var's arithmetic, without their per-call overhead. One
    # row's mean and scale are numpy scalars: they round as (1, 1) arrays
    # would, and each step on them costs a fraction of an array op
    axis, keep = (None, False) if xd.size == d else (-1, True)
    centered = xd - np.add.reduce(xd, axis=axis, keepdims=keep) / d
    inv = 1.0 / np.sqrt(np.add.reduce(centered * centered, axis=axis, keepdims=keep) / d
                        + LAYER_NORM_EPS)
    xhat = centered * inv

    def vjp(g):
        gxhat = g * gd
        # standard layernorm backward over the last axis
        dx = inv / d * (d * gxhat - gxhat.sum(axis=-1, keepdims=True)
                        - xhat * (gxhat * xhat).sum(axis=-1, keepdims=True))
        axes = tuple(range(xd.ndim - 1))
        ggain = (g * xhat).sum(axis=axes) if axes else g * xhat
        gbias = g.sum(axis=axes) if axes else g.copy()
        return (dx, ggain, gbias)
    return xhat * gd + bd, vjp


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize over the last axis, then scale and shift.

    Of a matrix wider than ``gain``, such as ``transformer_block``'s packed
    output, the first len(gain) columns are normalized and the rest are
    ignored."""
    width, d = x.data.shape[-1], gain.data.size
    if gain.data.shape != (d,) or bias.data.shape != (d,) or width < d \
            or width > d and x.data.ndim != 2:
        raise ValueError(f"layer_norm: gain/bias of shape {gain.data.shape} and "
                         f"{bias.data.shape} for rows of width {width}")
    if width == d:
        out, vjp = _layer_norm_np(x.data, gain.data, bias.data)
        return _node(out, (x, gain, bias), "layer_norm", vjp)
    out, cols_vjp = _layer_norm_np(np.ascontiguousarray(x.data[:, :d]), gain.data, bias.data)

    def vjp(g):
        g_x, g_gain, g_bias = cols_vjp(g)
        return (np.concatenate([g_x, np.zeros((len(g_x), width - d))], axis=1), g_gain, g_bias)
    return _node(out, (x, gain, bias), "layer_norm", vjp)


def transformer_block(x: Tensor, params: Sequence[Tensor], heads: int,
                      mask: np.ndarray | None = None, batch: int = 1,
                      past: Sequence[Tensor] = (), keys: np.ndarray | None = None,
                      values: np.ndarray | None = None, pos: Tensor | None = None,
                      at: slice | None = None) -> tuple[Tensor, np.ndarray, np.ndarray]:
    """One pre-LN transformer block over new position-major rows, as one node.

    The first d columns of ``x`` are the block's n*batch input rows (``x``
    is the embedded rows, a verifier step's packed output, or the block
    below's output). The first block also takes the position rows ``pos``
    and adds them to its input rows: with ``at`` a slice of the position
    table ``pos``, its row c to column c of every sequence; with ``at``
    None, ``pos`` holds one row per input row (a ragged batch's gather).
    ``params`` are ln1 gain and bias, wq, bq, wk, bk, wv, bv, wo, bo, ln2
    gain and bias, w1, b1, w2 and b2, and with u = LN1(x) the block computes

        a = x + attention(u Wq + bq, [keys; u Wk + bk], [values; u Wv + bv]) Wo + bo
        out = a + gelu(LN2(a) W1 + b1) W2 + b2

    (``_attention_np`` with ``heads``, ``mask`` and ``batch``). ``past`` are
    this layer's outputs from earlier calls; ``keys`` and ``values`` are
    their k and v columns concatenated, which the new rows attend to after
    (None with no ``past``). The gradient flows to ``past`` and ``pos`` too.
    Returns the node, whose (n*batch, 3d) rows pack [out | k | v], and the
    keys and values the next call attends to. The node's values have the
    bits of the chain of elementary ops it replaces, and its gradient adds
    terms in that chain's order.
    """
    (gain1, bias1, wq, bq, wk, bk, wv, bv, wo, bo,
     gain2, bias2, w1, b1, w2, b2) = (t.data for t in params)
    d = wq.shape[0]
    rows, width = x.data.shape
    xd = x.data if width == d else x.data[:, :d]
    if pos is not None and at is None:
        xd = xd + pos.data
    elif pos is not None:  # column c of every sequence is at position at.start + c
        xd = (xd.reshape(-1, batch, d) + pos.data[at][:, None]).reshape(rows, d)
    elif width != d:
        xd = np.ascontiguousarray(xd)
    u, ln1_vjp = _layer_norm_np(xd, gain1, bias1)
    q, k, v = u @ wq + bq, u @ wk + bk, u @ wv + bv
    if keys is not None:
        keys, values = np.concatenate([keys, k]), np.concatenate([values, v])
    else:
        keys, values = k, v
    joined, attention_vjp = _attention_np(q, keys, values, heads, mask, batch)
    a = xd + (joined @ wo + bo)
    u2, ln2_vjp = _layer_norm_np(a, gain2, bias2)
    pre = u2 @ w1 + b1
    h, tanh = _gelu_np(pre)
    out = a + (h @ w2 + b2)

    def vjp(g):
        g_out = np.ascontiguousarray(g[:, :d])
        g_pre = (g_out @ w2.T) * _gelu_deriv(pre, tanh)
        g_a, g_gain2, g_bias2 = ln2_vjp(g_pre @ w1.T)
        g_a = g_out + g_a
        g_q, g_keys, g_values = attention_vjp(g_a @ wo.T)
        # the new rows' keys and values, plus what later calls sent them
        new = len(g_keys) - rows
        g_k, g_v = g_keys[new:] + g[:, d:2 * d], g_values[new:] + g[:, 2 * d:]
        g_x, g_gain1, g_bias1 = ln1_vjp((g_q @ wq.T + g_k @ wk.T) + g_v @ wv.T)
        g_x = g_a + g_x
        g_pos = ()
        if pos is not None and at is None:
            g_pos = (g_x,)
        elif pos is not None:
            g_table = np.zeros_like(pos.data)
            g_table[at] = g_x.reshape(-1, batch, d).sum(axis=1)
            g_pos = (g_table,)
        if width != d:
            g_x = np.concatenate([g_x, np.zeros((rows, width - d))], axis=1)
        g_past, lo = [], 0
        for t in past:
            g_t = np.zeros_like(t.data)
            hi = lo + len(g_t)
            g_t[:, d:2 * d], g_t[:, 2 * d:] = g_keys[lo:hi], g_values[lo:hi]
            g_past.append(g_t)
            lo = hi
        return (*g_past, g_gain1, g_bias1, u.T @ g_q, g_q.sum(axis=0), u.T @ g_k,
                g_k.sum(axis=0), u.T @ g_v, g_v.sum(axis=0), joined.T @ g_a, g_a.sum(axis=0),
                g_gain2, g_bias2, u2.T @ g_pre, g_pre.sum(axis=0), h.T @ g_out,
                g_out.sum(axis=0), g_x, *g_pos)
    # x and pos last: backward's depth-first search then reaches this call's
    # inputs before the earlier calls, in the order the chain of ops did
    inputs = (x,) if pos is None else (x, pos)
    node = _node(np.concatenate([out, k, v], axis=1), (*past, *params, *inputs),
                 "transformer_block", vjp)
    return node, keys, values


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


class Rng:
    """Counter-based deterministic random stream keyed by (seed, stream_id).

    Built on the Philox bit generator, so identical keys reproduce identical
    sequences on every platform.
    """

    def __init__(self, seed: int, stream_id: int = 0):
        self.seed = int(seed)
        self.stream_id = int(stream_id)
        key = np.array([self.seed, self.stream_id], dtype=np.uint64)
        self._gen = np.random.Generator(np.random.Philox(key=key))

    def normal(self, shape, std: float = 1.0) -> np.ndarray:
        return self._gen.standard_normal(shape) * std

    def uniform(self, shape=None) -> np.ndarray:
        return self._gen.random(shape)

    def integers(self, low: int, high: int, size=None):
        return self._gen.integers(low, high, size=size)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def choice_weighted(self, weights: np.ndarray) -> int:
        """Index draw proportional to non-negative weights."""
        total = float(weights.sum())
        u = self._gen.random() * total
        return int(np.searchsorted(np.cumsum(weights), u, side="right").clip(0, len(weights) - 1))
