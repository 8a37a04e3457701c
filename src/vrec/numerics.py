"""Dense float64 tensors with reverse-mode automatic differentiation.

Everything downstream (backbone, verifiers, training) is built from the
operator set in this module. Arrays are row-major float64 throughout;
there is no broadcasting except scalar-with-tensor, so shape mismatches
fail loudly instead of silently expanding. ``Tensor.sum`` and
``Tensor.mean`` reduce the whole tensor to a scalar; ``log_softmax`` works
over the last axis, and ``layer_norm`` normalizes the first columns of 2-D
rows, refusing a 1-D vector. ``Rng``'s ``uniform`` and ``integers`` draw
one number per call.

Four rules keep the core small:

- Basic indexing (``x[i]``, ``x[a:b]``, ``x[:, j]``) is the one slicing op.
- Every op builds its output through ``_node``, which links the output into
  the graph only inside ``tracking`` and only when some child is tracked.
  Outside every block an op builds no graph, even on an output of an
  earlier block, and looks at none of its inputs: inference and evaluation
  pay for their arithmetic alone.
- Every tensor is created untracked. Only the tensors being fitted or
  grad-checked are tracked, and only inside ``tracking(tensors)``.
  Entering the block zeroes their gradients; ``backward`` only adds to
  them.
- A model's parameters live in one value vector (``parameter_vectors``),
  each one's ``.data`` a view of its run. An optimizer owns the gradient
  vectors and binds each ``.grad`` to its run, so a step is one array
  operation per model; a model holds no gradient.

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
row without one.
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

    Inside ``tracking`` a tensor is a leaf to differentiate: ``backward``
    adds d(loss)/d(leaf) to the ``.grad`` that the block zeroed. Tensors
    produced by operators on tracked inputs carry a vector-Jacobian closure
    and propagate instead of accumulating.
    """

    __slots__ = ("data", "grad", "requires_grad", "_children", "_vjp", "_op")

    def __init__(self, data):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = False
        self._children: tuple[Tensor, ...] = ()
        self._vjp: Callable[[np.ndarray], tuple] | None = None
        self._op = ""

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, op={self._op!r}, requires_grad={self.requires_grad})"

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
        """Add d(self)/d(leaf) to each tracked leaf's ``.grad`` (zeroed by ``tracking``).

        ``self`` must be a scalar (size 1) that depends on a tracked tensor.
        A second call in one ``tracking`` block adds to the first's.
        """
        if self.data.size != 1:
            raise ValueError(f"backward requires a scalar loss, got shape {self.data.shape}")
        if not (self.requires_grad or self._vjp is not None):
            raise ValueError("backward: the loss depends on no tracked tensor; build it "
                             "inside numerics.tracking(params)")
        topo = _topo_order(self)
        pending: dict[int, np.ndarray] = {id(self): np.ones_like(self.data)}
        for node in reversed(topo):
            g = pending.pop(id(node), None)
            if g is None:
                continue
            if node.requires_grad:
                node.grad += g
            if node._vjp is None:
                continue
            for child, cg in zip(node._children, node._vjp(g)):
                if cg is None or not (child.requires_grad or child._vjp is not None):
                    continue
                prev = pending.get(id(child))
                pending[id(child)] = cg if prev is None else prev + cg


# ``tracking`` blocks open now, in the whole process (training runs in one
# thread); with none, ``_node`` links nothing
_open_blocks = 0


@contextmanager
def tracking(tensors: Sequence[Tensor]) -> Iterator[None]:
    """Mark ``tensors`` as leaves to differentiate for the length of the
    block, each with a zero gradient: the one place a gradient is reset or,
    but for an optimizer's vectors (``training.Adam``), made. A ``.grad``
    that is a view of an optimizer's vector is zeroed in place; any other
    tensor gets a new zero array. Ops build a graph only while a block is
    open: the block counts itself in ``_open_blocks`` until it exits. On
    exit, also by an exception, each tensor's previous ``requires_grad``
    comes back, and its ``.grad`` keeps the block's gradient.
    """
    global _open_blocks
    tensors = list(tensors)
    saved = [t.requires_grad for t in tensors]
    for t in tensors:
        if t.grad is not None and t.grad.base is not None:
            t.grad.fill(0.0)
        else:
            t.grad = np.zeros_like(t.data)
        t.requires_grad = True
    _open_blocks += 1
    try:
        yield
    finally:
        _open_blocks -= 1
        for t, was in zip(tensors, saved):
            t.requires_grad = was


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


def _topo_order(root: Tensor) -> list[Tensor]:
    # Iterative DFS; graphs from unrolled reasoning loops overflow Python's
    # recursion limit. Here, in backward and in _node the test of being
    # tracked is written out: they run once per graph edge.
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
    """Wrap an op's output; it joins the graph only inside ``tracking`` and
    when some child is tracked. Outside every block it is returned at once,
    without a look at ``children``.

    ``vjp`` maps the output gradient to one gradient per entry of
    ``children``, in order; ``backward`` skips the untracked ones.
    """
    out = Tensor(data)
    out._op = op
    if not _open_blocks:
        return out
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


_GELU_C = math.sqrt(2.0 / math.pi)


def _gelu_np(xd: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Tanh-approximation GELU of an array, and the tanh its derivative reuses."""
    # xd*xd*xd, not xd**3: numpy sends a cube through libm pow, many times slower
    tanh = np.tanh(_GELU_C * (xd + 0.044715 * (xd * xd * xd)))
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
        gl = att * (ga - np.add.reduce(ga * att, axis=-1, keepdims=True)) * scale
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
    # row's mean and scale are Python floats: each step on them is the IEEE
    # operation a (1, 1) array would round by (math.sqrt is correctly rounded,
    # as np.sqrt is), without numpy's scalar dispatch
    if xd.size == d:
        centered = xd - float(np.add.reduce(xd, axis=None)) / d
        inv = 1.0 / math.sqrt(float(np.add.reduce(centered * centered, axis=None)) / d
                              + LAYER_NORM_EPS)
    else:
        centered = xd - np.add.reduce(xd, axis=-1, keepdims=True) / d
        inv = 1.0 / np.sqrt(np.add.reduce(centered * centered, axis=-1, keepdims=True) / d
                            + LAYER_NORM_EPS)
    xhat = centered * inv

    def vjp(g):
        gxhat = g * gd
        # standard layernorm backward over the last axis
        dx = inv / d * (d * gxhat - np.add.reduce(gxhat, axis=-1, keepdims=True)
                        - xhat * np.add.reduce(gxhat * xhat, axis=-1, keepdims=True))
        return (dx, np.add.reduce(g * xhat, axis=0), np.add.reduce(g, axis=0))
    return xhat * gd + bd, vjp


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize the first len(gain) columns of 2-D rows, then scale and
    shift; the rest of a wider matrix, such as ``transformer_block``'s
    packed output, is ignored."""
    width, d = x.data.shape[-1], gain.data.size
    if x.data.ndim != 2 or gain.data.shape != (d,) or bias.data.shape != (d,) or width < d:
        raise ValueError(f"layer_norm: rows of shape {x.data.shape} for gain/bias of shape "
                         f"{gain.data.shape} and {bias.data.shape}; it takes 2-D rows that wide")
    out, cols_vjp = _layer_norm_np(np.ascontiguousarray(x.data[:, :d]), gain.data, bias.data)

    def vjp(g):
        g_x, g_gain, g_bias = cols_vjp(g)
        return (np.concatenate([g_x, np.zeros((len(g_x), width - d))], axis=1), g_gain, g_bias)
    return _node(out, (x, gain, bias), "layer_norm", vjp)


def transformer_block(x: Tensor, params: Sequence[Tensor], heads: int,
                      mask: np.ndarray | None = None, batch: int = 1,
                      past: Sequence[Tensor] = (), keys: np.ndarray | None = None,
                      values: np.ndarray | None = None, pos: Tensor | None = None,
                      at: np.ndarray | slice | None = None,
                      read: np.ndarray | slice | None = None,
                      ) -> tuple[Tensor, np.ndarray, np.ndarray]:
    """One pre-LN transformer block over new position-major rows, as one node.

    The first d columns of ``x`` are the block's n*batch input rows (``x``
    is the embedded rows, a verifier step's packed output, or the block
    below's output). The first block also takes the position table ``pos``
    and ``at``, one position per input row, and adds row ``at[r]`` of the
    table to input row r; a call without padding gives ``at`` as the slice
    of the positions its columns take, column c of every sequence at
    ``at.start + c``. ``params`` are ln1 gain and bias, wq, bq, wk, wv,
    bv, wo, bo, ln2 gain and bias, w1, b1, w2 and b2, and with x the input
    rows (plus pos[at] in the first block) and u = LN1(x) the block computes

        a = x + attention(u Wq + bq, [keys; u Wk], [values; u Wv + bv]) Wo + bo
        out = a + gelu(LN2(a) W1 + b1) W2 + b2

    (``_attention_np`` with ``heads``, ``mask`` and ``batch``). The keys have
    no bias: it would add q.bk to all of a query's scores alike, which
    softmax ignores, so its gradient is exactly zero. ``past`` are
    this layer's outputs from earlier calls; ``keys`` and ``values`` are
    their k and v columns concatenated, which the new rows attend to after
    (None with no ``past``). The gradient flows to ``past`` and ``pos`` too.

    k and v are computed for every input row; the rest, from the queries
    on, only for the rows ``read`` lists, one per sequence in sequence
    order (the rows a caller reads of the top block: an int array, or a
    slice when they are the last ``batch`` rows), which ``mask`` is then
    the mask of. With ``read`` None every row is computed. The node's
    R rows (the computed ones) pack [out | k | v], k and v reshaped to R
    rows, so without ``read`` row r is [out_r | k_r | v_r]; the second and
    third values returned are the keys and values the next call attends
    to. The node's values have the bits of the chain of elementary ops it
    replaces, and its gradient adds terms in that chain's order.
    """
    (gain1, bias1, wq, bq, wk, wv, bv, wo, bo,
     gain2, bias2, w1, b1, w2, b2) = (t.data for t in params)
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
    k, v = u @ wk, u @ wv + bv
    computed = slice(None) if read is None else read
    uq, xq = u[computed], xd[computed]
    q = uq @ wq + bq
    if keys is not None:
        keys, values = np.concatenate([keys, k]), np.concatenate([values, v])
    else:
        keys, values = k, v
    joined, attention_vjp = _attention_np(q, keys, values, heads, mask, batch)
    a = xq + (joined @ wo + bo)
    u2, ln2_vjp = _layer_norm_np(a, gain2, bias2)
    pre = u2 @ w1 + b1
    h, tanh = _gelu_np(pre)
    out = a + (h @ w2 + b2)
    R = len(out)

    def vjp(g):
        g_out = np.ascontiguousarray(g[:, :d])
        g_pre = (g_out @ w2.T) * _gelu_deriv(pre, tanh)
        g_a, g_gain2, g_bias2 = ln2_vjp(g_pre @ w1.T)
        g_a = g_out + g_a
        g_q, g_keys, g_values = attention_vjp(g_a @ wo.T)
        # the new rows' keys and values, plus what later calls sent them
        new, half = len(g_keys) - rows, (g.shape[1] - d) // 2
        g_k = g_keys[new:] + g[:, d:d + half].reshape(rows, d)
        g_v = g_values[new:] + g[:, d + half:].reshape(rows, d)
        # the computed rows' query and residual terms go back to those rows
        g_u = g_k @ wk.T
        g_u[computed] += g_q @ wq.T
        g_x, g_gain1, g_bias1 = ln1_vjp(g_u + g_v @ wv.T)
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
        g_past, lo = [], 0
        for t in past:  # each packs [out | k | v] of one call's rows
            held = len(t.data)
            hi = lo + (t.size - held * d) // (2 * d)
            g_past.append(np.concatenate([np.zeros((held, d)), g_keys[lo:hi].reshape(held, -1),
                                          g_values[lo:hi].reshape(held, -1)], axis=1))
            lo = hi
        return (*g_past, g_gain1, g_bias1, uq.T @ g_q, np.add.reduce(g_q, axis=0), u.T @ g_k,
                u.T @ g_v, np.add.reduce(g_v, axis=0), joined.T @ g_a,
                np.add.reduce(g_a, axis=0), g_gain2, g_bias2, u2.T @ g_pre,
                np.add.reduce(g_pre, axis=0), h.T @ g_out, np.add.reduce(g_out, axis=0), g_x,
                *g_pos)
    # x and pos last: backward's depth-first search then reaches this call's
    # inputs before the earlier calls, in the order the chain of ops did
    inputs = (x,) if pos is None else (x, pos)
    node = _node(np.concatenate([out, k.reshape(R, -1), v.reshape(R, -1)], axis=1),
                 (*past, *params, *inputs), "transformer_block", vjp)
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

    def uniform(self) -> float:
        return self._gen.random()

    def integers(self, low: int, high: int):
        return self._gen.integers(low, high)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def choice_weighted(self, weights: np.ndarray) -> int:
        """Index draw proportional to non-negative weights."""
        total = float(weights.sum())
        u = self._gen.random() * total
        return int(np.searchsorted(np.cumsum(weights), u, side="right").clip(0, len(weights) - 1))
