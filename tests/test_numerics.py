"""Tensor op and autodiff tests against an independent finite-difference oracle."""

import math
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (Bare, add_positions, add_rowvec, attention, concat_columns, confidence,
                     entropy, exp, gelu, grad_check, matvec, softmax)
from vrec import numerics
from vrec.backbone import Backbone, ModelConfig
from vrec.numerics import (
    LAYER_NORM_EPS,
    Rng,
    Tensor,
    _gelu_deriv,
    _gelu_np,
    _layer_norm_np,
    concat,
    embedding_lookup,
    layer_norm,
    log,
    log_softmax,
    matmul,
    relu,
    tracking,
    transformer_block,
)
from vrec.training import Adam


def fd_grad(f, param: Tensor, h: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of scalar f() w.r.t. one parameter.

    Independent of grad_check so the autodiff tests do not validate the
    checker with itself.
    """
    g = np.zeros_like(param.data)
    flat = param.data.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = f().item()
        flat[i] = orig - h
        down = f().item()
        flat[i] = orig
        gflat[i] = (up - down) / (2 * h)
    return g


def backward_grad(f, param: Tensor) -> np.ndarray:
    with tracking([param]):
        f().backward()
    return param.grad.copy()


# -- forward values -----------------------------------------------------


def test_softmax_symmetry():
    out = softmax(Tensor([0.0, 0.0, 0.0]))
    assert np.allclose(out.data, [1 / 3, 1 / 3, 1 / 3], atol=1e-15)


def test_softmax_frozen_values():
    out = softmax(Tensor([2.0, 0.0]))
    assert out.data == pytest.approx([0.8807970779778823, 0.11920292202211755], abs=1e-15)


def test_matmul_identity():
    rng = Rng(1)
    a = rng.normal((3, 4))
    out = matmul(Tensor(np.eye(3)), Tensor(a))
    assert np.array_equal(out.data, a)


def test_softmax_rows_sum_to_one():
    rng = Rng(2)
    logits = Tensor(rng.normal((6, 9), std=3.0))
    s = softmax(logits)
    assert np.all(s.data > 0) and np.all(s.data < 1)
    assert np.abs(s.data.sum(axis=-1) - 1.0).max() < 1e-12


def test_forward_bit_identical_across_calls():
    rng = Rng(3)
    x = Tensor(rng.normal((5, 5)))
    first = gelu(softmax(matmul(x, x))).data
    second = gelu(softmax(matmul(x, x))).data
    assert np.array_equal(first, second)


def _gelu_formula(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The tanh-approximation GELU written out with ``x**3``, not the library's cube."""
    tanh = np.tanh(math.sqrt(2.0 / math.pi) * (x + 0.044715 * x**3))
    return 0.5 * x * (1.0 + tanh), tanh


def test_gelu_matches_the_formula_to_two_ulps():
    tiny_to_large = np.logspace(-300, 3, 3000)
    huge = np.array([1e102, 1e200, 1e300])  # the cube overflows to inf
    x = np.concatenate([np.linspace(-10.0, 10.0, 40001), tiny_to_large, -tiny_to_large,
                        huge, -huge, [0.0, -0.0]])
    with np.errstate(over="ignore"):
        out, tanh = _gelu_np(x)
        want, want_tanh = _gelu_formula(x)
    assert not np.isnan(out).any() and not np.isnan(tanh).any()
    assert (np.abs(out - want) <= 2 * np.spacing(np.abs(x))).all()
    assert (np.abs(tanh - want_tanh) <= 2 * np.spacing(np.abs(want_tanh))).all()


def test_gelu_derivative_matches_central_differences():
    # element-wise, out to |x| = 8, where the cube term dominates the tanh's argument
    x, h = np.linspace(-8.0, 8.0, 3201), 1e-5
    ad = _gelu_deriv(x, _gelu_np(x)[1])
    fd = (_gelu_formula(x + h)[0] - _gelu_formula(x - h)[0]) / (2 * h)
    assert np.abs(ad - fd).max() < 1e-8


def test_layer_norm_of_one_row_has_its_bits_in_a_batch():
    # one row's mean and scale are numpy scalars, a batch's (R, 1) arrays
    rng = Rng(6)
    x, g = rng.normal((5, 24)) * 7.0 + 3.0, rng.normal((5, 24))
    gain, bias = Tensor(1.0 + 0.1 * rng.normal((24,))), Tensor(0.1 * rng.normal((24,)))
    whole = Tensor(x)
    with tracking([whole]):
        out = layer_norm(whole, gain, bias)
        (out * Tensor(g)).sum().backward()
    for i in range(5):
        alone = Tensor(x[i:i + 1].copy())
        with tracking([alone]):
            o = layer_norm(alone, gain, bias)
            (o * Tensor(g[i:i + 1])).sum().backward()
        assert np.array_equal(o.data[0], out.data[i])
        assert np.array_equal(alone.grad[0], whole.grad[i])


def _one_row_norm_with_numpy_scalars(xd, gd, bd, g):
    """One row's norm and its vector-Jacobian product, its mean and scale
    numpy scalars: the formula the Python-float path replaced."""
    d = xd.shape[-1]
    centered = xd - np.add.reduce(xd, axis=None) / d
    inv = 1.0 / np.sqrt(np.add.reduce(centered * centered, axis=None) / d + LAYER_NORM_EPS)
    xhat = centered * inv
    gxhat = g * gd
    dx = inv / d * (d * gxhat - np.add.reduce(gxhat, axis=-1, keepdims=True)
                    - xhat * np.add.reduce(gxhat * xhat, axis=-1, keepdims=True))
    return xhat * gd + bd, dx, np.add.reduce(g * xhat, axis=0), np.add.reduce(g, axis=0)


@st.composite
def _norm_rows(draw):
    """A row, gain, bias and output gradient: rows of ordinary spread at
    scales from 1e-300 to 1e300 (whose squares, or sums, overflow), rows of
    one value (zero variance) and rows of signed zeros and extremes."""
    d = draw(st.integers(1, 40))
    kind = draw(st.sampled_from(["spread", "constant", "extremes"]))
    if kind == "spread":
        scale = draw(st.sampled_from([1.0, -1e-300, 1e-150, 1e150, 1e300, -1e300]))
        row = np.array(draw(st.lists(st.floats(-1e3, 1e3), min_size=d, max_size=d))) * scale
    elif kind == "constant":
        row = np.full(d, draw(st.sampled_from([0.0, -0.0, 3.5, -1e300, 1e300])))
    else:
        row = np.array(draw(st.lists(st.sampled_from([0.0, -0.0, 1.0, 1e300, -1e300]),
                                     min_size=d, max_size=d)))
    small = st.lists(st.floats(-2.0, 2.0), min_size=d, max_size=d)
    return [row[None], np.array(draw(small)), np.array(draw(small)),
            np.array([draw(st.lists(st.floats(-1e3, 1e3), min_size=d, max_size=d))])]


@settings(max_examples=300, deadline=None)
@given(_norm_rows())
def test_one_row_norm_keeps_the_numpy_scalar_bits(case):
    # its mean and scale are Python floats, the same IEEE operations; bytes
    # compare signed zeros and NaNs too
    xd, gd, bd, g = case
    with np.errstate(all="ignore"):
        out, vjp = _layer_norm_np(xd, gd, bd)
        got = (out, *vjp(g))
        want = _one_row_norm_with_numpy_scalars(xd, gd, bd, g)
    for a, b in zip(got, want):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


def test_layer_norm_takes_rows_only():
    # 2-D rows at least as wide as the gain; a 1-D vector is refused
    gain, bias = Tensor(np.ones(4)), Tensor(np.zeros(4))
    for shape in ((4,), (6,), (2, 3), (1, 2, 4)):
        with pytest.raises(ValueError, match="layer_norm"):
            layer_norm(Tensor(np.arange(np.prod(shape), dtype=float).reshape(shape)), gain, bias)
    wide = Tensor(Rng(4).normal((3, 6)))
    assert np.array_equal(layer_norm(wide, gain, bias).data,
                          layer_norm(Tensor(wide.data[:, :4].copy()), gain, bias).data)


def test_log_softmax_matches_log_of_softmax():
    x = Tensor(Rng(4).normal((3, 7)))
    assert np.allclose(log_softmax(x).data, np.log(softmax(x).data), atol=1e-12)


def test_entropy_values():
    assert entropy(Tensor([0.25, 0.25, 0.25, 0.25])).item() == pytest.approx(1.3862943611198906, abs=1e-15)
    assert entropy(Tensor([1.0, 0.0, 0.0])).item() == 0.0


def test_confidence_clamp():
    assert confidence(Tensor(0.5)).item() == 1.0
    assert confidence(Tensor(2.0)).item() == 0.5
    assert confidence(Tensor(0.0)).item() == 1.0


# -- shape errors -------------------------------------------------------


def test_shape_errors_name_operator_and_shapes():
    with pytest.raises(ValueError, match=r"matmul.*\(2, 3\).*\(2, 3\)"):
        matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))
    with pytest.raises(ValueError, match="add"):
        Tensor(np.zeros(3)) + Tensor(np.zeros(4))
    with pytest.raises(ValueError, match="add_rowvec"):
        add_rowvec(Tensor(np.zeros((2, 3))), Tensor(np.zeros(2)))
    with pytest.raises(ValueError, match="attention"):
        attention(Tensor(np.zeros((2, 4))), Tensor(np.zeros((3, 4))), Tensor(np.zeros((3, 4))), 3)
    with pytest.raises(ValueError, match=r"attention: mask shape \(2, 2\)"):
        attention(Tensor(np.zeros((2, 4))), Tensor(np.zeros((3, 4))), Tensor(np.zeros((3, 4))), 2,
                  np.zeros((2, 2)))


def test_backward_rejects_loss_without_tracked_input():
    x = Tensor(np.ones(3))
    with pytest.raises(ValueError, match="no tracked tensor"):
        (x * x).sum().backward()
    assert x.grad is None


def test_tracking_scopes_and_restores():
    a, b = Tensor(np.ones(3)), Tensor(np.full(3, 2.0))
    with tracking([b]):
        with tracking([a, b]):
            assert a.requires_grad and b.requires_grad
            (a * b).sum().backward()
        assert not a.requires_grad and b.requires_grad
    assert not b.requires_grad
    assert np.array_equal(a.grad, np.full(3, 2.0)) and np.array_equal(b.grad, np.ones(3))
    with pytest.raises(RuntimeError):
        with tracking([a]):
            raise RuntimeError("raised inside the block")
    assert not a.requires_grad
    assert (a * a).sum()._vjp is None


def test_tracking_gives_each_tensor_a_zero_gradient():
    # a free tensor gets a new zero array; a model parameter keeps its view
    # of its optimizer's gradient vector, zeroed in place
    free = Tensor(np.ones(3))
    params = {"a": Tensor(np.ones((2, 2))), "b": Tensor(np.ones(3))}
    grads = Adam([Bare(params)]).grads[0]
    grads[:] = 5.0
    views = [t.grad for t in params.values()]
    with tracking([free, *params.values()]):
        assert np.array_equal(free.grad, np.zeros(3))
        assert not grads.any()
        for t, view in zip(params.values(), views):
            assert t.grad is view and np.shares_memory(t.grad, grads)


def test_a_tensor_left_out_of_tracking_gets_no_gradient():
    x, y = Tensor(np.ones(3)), Tensor(np.full(3, 2.0))
    with tracking([x]):
        (x * y).sum().backward()
    assert y.grad is None and not y.requires_grad
    assert np.array_equal(x.grad, np.full(3, 2.0))


def test_each_tracking_block_has_its_own_gradient():
    # the second block's gradients, not the sum of both blocks'
    free = Tensor(np.ones(3))
    params = {"w": Tensor(np.full(2, 3.0))}
    grads = Adam([Bare(params)]).grads[0]
    w = params["w"]
    for scale in (1.0, 2.0):
        with tracking([free, w]):
            ((free * free).sum() * scale + (w * w).sum() * scale).backward()
        assert np.array_equal(free.grad, np.full(3, 2.0 * scale))
        assert np.array_equal(grads, np.full(2, 6.0 * scale))


def test_tensor_takes_only_its_data_and_concat_joins_rows_only():
    with pytest.raises(TypeError):
        Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(TypeError):
        concat([Tensor(np.ones((2, 2))), Tensor(np.ones((2, 2)))], axis=1)
    assert concat([Tensor(np.ones((2, 2))), Tensor(np.zeros((1, 2)))]).shape == (3, 2)
    for name in ("zero_grad", "tracked", "__radd__", "__rsub__", "__matmul__"):
        assert not hasattr(Tensor, name), name


def test_grad_check_tracks_untracked_params_only_while_checking():
    # and leaves its analytic gradient in .grad
    x = Tensor(Rng(3).normal((4,)))
    assert grad_check(lambda: (x * x * x).sum(), [x]) < 1e-6
    assert not x.requires_grad
    assert np.allclose(x.grad, 3.0 * x.data**2, rtol=1e-14, atol=0.0)


def test_backward_requires_scalar():
    x = Tensor(np.ones(3))
    with tracking([x]), pytest.raises(ValueError, match="scalar"):
        (x * 2.0).backward()


@pytest.mark.parametrize("key", [[0, 0], np.array([1, 2]), Tensor([0.0]), True, (0, [1, 1])],
                         ids=["list", "array", "tensor", "bool", "tuple_with_list"])
def test_getitem_rejects_non_basic_keys(key):
    # a gather key may repeat an index, which a scatter-back VJP would undercount
    x = Tensor(np.arange(9.0).reshape(3, 3))
    with tracking([x]), pytest.raises(TypeError, match="indices"):
        x[key]


def test_untracked_inputs_build_no_graph():
    x = Tensor(Rng(10).normal((3, 4)))
    gain, bias = Tensor(np.ones(4)), Tensor(np.zeros(4))
    outs = [matmul(x, x.transpose()), x[1:, np.int64(2)], softmax(x) * x - 1.0,
            layer_norm(x, gain, bias), concat([x, x]), gelu(x).sum(), log_softmax(x[0]),
            attention(x, x, x, 2)]
    for out in outs:
        assert out._children == () and out._vjp is None, out._op


def test_ops_outside_tracking_build_no_graph():
    # an output of an earlier block still carries its vjp; outside every
    # block an op on it builds no graph, inside one it links as before
    w, free = Tensor(Rng(11).normal((3, 4))), Tensor(np.ones((3, 4)))
    gain, bias = Tensor(np.ones(4)), Tensor(np.zeros(4))
    with tracking([w]):
        y = w * w
    assert y._vjp is not None
    outs = [y * 2.0, matmul(y, y.transpose()), layer_norm(y, gain, bias), y[1:], y.sum(),
            concat([y, free])]
    for out in outs:
        assert out._children == () and out._vjp is None, out._op
    with tracking([free]):
        linked, joined = y * 2.0, concat([y, free])
        untracked = gain * bias
    assert linked._children[0] is y and linked._vjp is not None
    assert joined._children == (y, free) and joined._vjp is not None
    assert untracked._children == () and untracked._vjp is None


def test_open_block_count_returns_to_zero():
    a, b = Tensor(np.ones(2)), Tensor(np.ones(2))
    assert numerics._open_blocks == 0
    with tracking([a]):
        with tracking([b]):
            assert numerics._open_blocks == 2
        assert numerics._open_blocks == 1
    assert numerics._open_blocks == 0
    with pytest.raises(RuntimeError):
        with tracking([a]), tracking([b]):
            raise RuntimeError("raised inside two blocks")
    assert numerics._open_blocks == 0
    assert (a * b)._vjp is None


@pytest.mark.parametrize("case", ["histories", "latent_step", "padded"])
def test_position_gradient_has_the_bits_of_a_scatter(case):
    # the first block's gradient to the position table is np.add.at of its
    # input rows' gradient at their positions: a call without padding gives
    # the positions as a slice and sums each column's rows in row order, a
    # padded one gives one per row and scatters
    d, B, W = 8, 3, 5
    bb = Backbone(ModelConfig(d_m=d, layers=1, heads=2, n_items=10, max_positions=12, m=0,
                              seed=4))
    params, pos, rng = bb._blocks[0], bb.params()["pos_emb"], Rng(21)
    rows_at = {"histories": np.arange(W).repeat(B), "latent_step": np.full(B, 6),
               "padded": np.where(np.arange(W * B) % 4 == 1, 0, np.arange(W).repeat(B))}[case]
    at = {"histories": slice(0, W), "latent_step": slice(6, 7), "padded": rows_at}[case]
    rows = len(rows_at)
    held = 0 if case == "histories" else 6 * B  # keys and values of earlier calls
    keys, values = (rng.normal((held, d)) if held else None for _ in range(2))
    x = Tensor(rng.normal((rows, d)))
    g = Tensor(rng.normal((rows, 3 * d)))
    results = []
    for given_at in (at, rows_at):
        with tracking([x, pos, *params]):
            out, _, _ = transformer_block(x, params, 2, None, B, (), keys, values, pos, given_at)
            (out * g).sum().backward()
        results.append([out.data, pos.grad, *(t.grad for t in (x, *params))])
        scatter = np.zeros_like(pos.data)
        np.add.at(scatter, rows_at, x.grad)
        assert pos.grad.tobytes() == scatter.tobytes()
    for a, b in zip(*results):  # the slice changes no other bit either
        assert a.tobytes() == b.tobytes()


# -- backward: analytic cases -------------------------------------------


def test_sum_gradient_is_ones():
    x = Tensor(np.array([1.0, -2.0, 3.0, 0.5]))
    with tracking([x]):
        x.sum().backward()
    assert np.array_equal(x.grad, np.ones(4))


def test_sum_and_mean_add_in_index_order():
    # the bits of adding the elements one by one, as a loss summed term by term
    values = Rng(20).normal((3, 11))
    total = 0.0
    for v in values.reshape(-1):
        total += v
    x = Tensor(values)
    assert x.sum().item() == total
    assert x.mean().item() == total * (1.0 / values.size)


def test_half_norm_squared_gradient_is_x():
    xv = Rng(5).normal((6,))
    x = Tensor(xv)
    with tracking([x]):
        (0.5 * (x * x).sum()).backward()
    assert np.allclose(x.grad, xv, atol=1e-15)


def test_repeated_backward_accumulates():
    # within one block; the next block starts from zero again
    x = Tensor(np.ones(3))
    with tracking([x]):
        loss = (x * x).sum()
        loss.backward()
        loss.backward()
    assert np.array_equal(x.grad, 4.0 * np.ones(3))


def test_softmax_cross_entropy_analytic_identity():
    rng = Rng(6)
    logits_v = rng.normal((5,))
    target = 2
    logits = Tensor(logits_v)
    with tracking([logits]):
        (-log_softmax(logits)[target]).backward()
    p = np.exp(logits_v - logits_v.max())
    p /= p.sum()
    onehot = np.zeros(5)
    onehot[target] = 1.0
    assert np.allclose(logits.grad, p - onehot, atol=1e-12)


# -- backward: finite-difference oracle ----------------------------------


@pytest.mark.parametrize("op_name", [
    "matmul", "add_rowvec", "embedding", "layer_norm", "gelu", "relu",
    "softmax", "log_softmax", "log", "exp", "concat",
    "row_slices", "entropy", "confidence", "transpose", "add_positions",
])
def test_op_gradients_match_finite_differences(op_name):
    rng = Rng(zlib.crc32(op_name.encode()))  # the same draws in every process
    if op_name == "matmul":
        w = Tensor(rng.normal((4, 3)))
        x = Tensor(rng.normal((3, 2)))
        v = Tensor(rng.normal((4,)))
        u = Tensor(rng.normal((3,)))
        f = lambda: (matmul(matmul(w, x).transpose(), matmul(w, x))).sum() \
            + (matvec(v, w) * u).sum() + (matvec(w, u) * v).sum()
    elif op_name == "add_rowvec":
        w = Tensor(rng.normal((3,)))
        x = Tensor(rng.normal((4, 3)))
        f = lambda: (add_rowvec(x, w) * add_rowvec(x, w)).sum()
    elif op_name == "embedding":
        w = Tensor(rng.normal((5, 3)))
        ids = [0, 2, 2, 4]
        f = lambda: (embedding_lookup(w, ids) * embedding_lookup(w, ids)).sum()
    elif op_name == "layer_norm":
        w = Tensor(rng.normal((4, 6)))
        gain = Tensor(1.0 + 0.1 * rng.normal((6,)))
        bias = Tensor(0.1 * rng.normal((6,)))
        f = lambda: (layer_norm(w, gain, bias) * layer_norm(w, gain, bias)).sum()
        for p in (gain, bias):
            assert np.abs(backward_grad(f, p) - fd_grad(f, p)).max() < 1e-6
    elif op_name == "gelu":
        w = Tensor(rng.normal((7,)))
        f = lambda: (gelu(w) * gelu(w)).sum()
    elif op_name == "relu":
        w = Tensor(rng.normal((7,)) + 0.3)
        f = lambda: (relu(w) * relu(w)).sum()
    elif op_name == "softmax":
        w = Tensor(rng.normal((5,)))
        t = Tensor(rng.normal((5,)))
        f = lambda: (softmax(w) * t).sum()
    elif op_name == "log_softmax":
        w = Tensor(rng.normal((5,)))
        t = Tensor(rng.normal((5,)))
        f = lambda: (log_softmax(w) * t).sum()
    elif op_name == "log":
        w = Tensor(np.array([rng.uniform() for _ in range(6)]) + 0.5)
        f = lambda: log(w).sum()
    elif op_name == "exp":
        w = Tensor(rng.normal((6,)))
        f = lambda: (exp(w) * exp(w)).mean()
    elif op_name == "concat":
        w = Tensor(rng.normal((3,)))
        t = Tensor(rng.normal((4,)))
        f = lambda: (concat([w, t]) * concat([w, t])).sum()
    elif op_name == "row_slices":
        w = Tensor(rng.normal((5, 4)))
        f = lambda: (w[1] * w[3]).sum() + (w[:, 2] * w[:, 0]).sum() \
            + (w[1:4] * w[1:4]).sum() + w[0][3]
    elif op_name == "entropy":
        w = Tensor(rng.normal((5,)))
        f = lambda: entropy(softmax(w))
    elif op_name == "confidence":
        # keep f beyond the kink at 1 so derivative is smooth
        w = Tensor(rng.normal((8,)) * 0.1)
        f = lambda: confidence(entropy(softmax(w)))
        assert entropy(softmax(w)).item() > 1.1
    elif op_name == "transpose":
        w = Tensor(rng.normal((3, 4)))
        t = Tensor(rng.normal((4, 3)))
        f = lambda: (w.transpose() * t).sum() + (w.transpose() * w.transpose()).sum()
    elif op_name == "add_positions":
        w = Tensor(rng.normal((4, 3)))
        x = Tensor(rng.normal((6, 3)))
        ids = [2, 0, 2, 3, 0, 2]  # a repeated id adds its rows' gradients; row 1 gets none
        f = lambda: (add_positions(x, w, ids) * add_positions(x, w, ids) * x).sum()
        assert np.abs(backward_grad(f, x) - fd_grad(f, x)).max() < 1e-6
    assert np.abs(backward_grad(f, w) - fd_grad(f, w)).max() < 1e-6


def test_two_layer_net_matches_finite_differences():
    rng = Rng(7)
    w1 = Tensor(rng.normal((6, 8), std=0.5))
    b1 = Tensor(np.zeros(8))
    w2 = Tensor(rng.normal((8, 3), std=0.5))
    x = Tensor(rng.normal((4, 6)))
    target = 1

    def f():
        h = gelu(add_rowvec(matmul(x, w1), b1))
        logits = matmul(h, w2)
        return -log_softmax(logits)[0][target] + 0.01 * (w2 * w2).sum()

    for p in (w1, b1, w2):
        ad = backward_grad(f, p)
        fd = fd_grad(f, p, h=1e-5)
        rel = np.abs(ad - fd) / (np.abs(fd) + 1e-12)
        assert rel.max() < 1e-5


# -- grad_check ----------------------------------------------------------


def test_grad_check_quadratic_form():
    rng = Rng(8)
    a = rng.normal((4, 4))
    x = Tensor(rng.normal((4,)))
    err = grad_check(lambda: (x * matvec(Tensor(a + a.T), x)).sum(), [x])
    assert err < 1e-8


def test_grad_check_three_layer_net():
    rng = Rng(9)
    d = 16
    params = [
        Tensor(rng.normal((d, d), std=0.3)),
        Tensor(rng.normal((d, d), std=0.3)),
        Tensor(rng.normal((d, d), std=0.3)),
    ]
    x = Tensor(rng.normal((d,)))

    def f():
        h = x
        for w in params:
            h = gelu(matvec(w, h))
        return (h * h).mean()

    assert grad_check(f, params) < 1e-5


def test_grad_check_flags_wrong_gradient():
    # an op with a deliberately wrong vjp must produce a large error
    from vrec import numerics as N

    def bad_double(t):
        return N._node(t.data * 2.0, (t,), "bad_double", lambda g: (g * 3.0,))

    x = Tensor(np.ones(3))
    err = grad_check(lambda: bad_double(x).sum(), [x])
    assert err > 0.1


# -- Rng -----------------------------------------------------------------


def test_rng_frozen_first_draws():
    rng = Rng(42, 0)
    assert [rng.uniform() for _ in range(3)] == [
        0.8201981478608876, 0.18924562408645496, 0.8676608148821462]
    assert type(rng.uniform()) is float


def test_rng_streams_reproduce_and_differ():
    a = Rng(42, 0).normal((10,))
    b = Rng(42, 0).normal((10,))
    c = Rng(42, 1).normal((10,))
    d = Rng(7, 0).normal((10,))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_rng_choice_weighted_deterministic():
    rng1 = Rng(11)
    rng2 = Rng(11)
    w = np.array([0.1, 0.7, 0.2])
    draws1 = [rng1.choice_weighted(w) for _ in range(50)]
    draws2 = [rng2.choice_weighted(w) for _ in range(50)]
    assert draws1 == draws2
    assert set(draws1) <= {0, 1, 2}


# -- fused attention against the per-head chain ---------------------------


def attention_oracle(q: Tensor, k: Tensor, v: Tensor, heads: int, mask) -> Tensor:
    """The per-head chain ``attention`` fuses: slice, transpose, matmul, scale,
    mask, softmax, matmul, then the heads side by side."""
    dh = q.shape[1] // heads
    scale = 1.0 / math.sqrt(dh)
    outs = []
    for h in range(heads):
        cols = slice(h * dh, (h + 1) * dh)
        logits = matmul(q[:, cols], k[:, cols].transpose()) * scale
        att = softmax(logits if mask is None else logits + Tensor(mask))
        outs.append(matmul(att, v[:, cols]))
    return concat_columns(outs)


@pytest.mark.parametrize("rows,start", [(1, 5), (3, 4), (4, 0)],
                         ids=["row_after_cache", "chunk_after_cache", "chunk_from_empty"])
@pytest.mark.parametrize("heads", [1, 2, 3])
def test_attention_matches_per_head_chain(heads, rows, start):
    # rows new positions start..start+rows-1 over every key up to them, as
    # Backbone.encode asks: a single row needs no mask, a chunk is causal
    rng = Rng(heads, rows)
    T = start + rows
    q, k, v = (Tensor(rng.normal((n, 6))) for n in (rows, T, T))
    mask = np.triu(np.full((rows, T), -1e30), k=start + 1) if rows > 1 else None
    coef = rng.normal((rows, 6))
    grads = []
    for op in (attention, attention_oracle):
        with tracking([q, k, v]):
            out = op(q, k, v, heads, mask)
            (out * coef).sum().backward()
        grads.append((out.data, [t.grad for t in (q, k, v)]))
    (fused, fused_grads), (chain, chain_grads) = grads
    assert np.array_equal(fused, chain)  # the chain's bits, head by head
    for got, want in zip(fused_grads, chain_grads):
        assert np.abs(got - want).max() <= 1e-12


def test_attention_builds_one_tensor(monkeypatch):
    rng = Rng(11)
    q, k, v = (Tensor(rng.normal((n, 6))) for n in (3, 5, 5))
    made = []
    init = Tensor.__init__

    def counting(self, *args, **kwargs):
        made.append(1)
        init(self, *args, **kwargs)
    monkeypatch.setattr(Tensor, "__init__", counting)
    with tracking([q, k, v]):
        attention(q, k, v, 2, np.triu(np.full((3, 5), -1e30), k=3))
    assert len(made) == 1


@pytest.mark.parametrize("rows,start", [(1, 5), (4, 0)],
                         ids=["row_after_cache", "chunk_from_empty"])
def test_batched_attention_matches_each_sequence(rows, start):
    # three sequences, position-major, whose keys past their own length are
    # padding: each one's real rows and their gradients are the chain's over
    # its own keys
    rng = Rng(21, rows)
    heads, batch, T = 2, 3, start + rows
    q, k, v = (Tensor(rng.normal((n * batch, 6))) for n in (rows, T, T))
    valid = np.array([T, T - 1, 2])  # keys each sequence holds
    real = np.full(batch, rows) if start else valid  # query rows that are not padding
    causal = np.triu(np.full((rows, T), -1e30), k=start + 1)
    mask = causal + np.where(np.arange(T) >= valid[:, None], -1e30, 0.0)[:, None, :]
    coef = rng.normal((rows, batch, 6))
    coef[np.arange(rows)[:, None] >= real] = 0.0  # padded rows feed no loss
    coef = coef.reshape(rows * batch, 6)
    with tracking([q, k, v]):
        out = attention(q, k, v, heads, mask, batch=batch)
        (out * coef).sum().backward()
    for b in range(batch):
        n, keep = real[b], valid[b]
        own = [Tensor(t.data[b::batch][:size]) for t, size in ((q, n), (k, keep), (v, keep))]
        with tracking(own):
            ref = attention_oracle(*own, heads, causal[:n, :keep] if n > 1 else None)
            (ref * coef[b::batch][:n]).sum().backward()
        assert np.abs(out.data[b::batch][:n] - ref.data).max() <= 1e-12
        for t, t_own in zip((q, k, v), own):
            grad = t.grad[b::batch]
            assert np.abs(grad[:len(t_own.data)] - t_own.grad).max() <= 1e-12
            assert not grad[len(t_own.data):].any()  # nothing flows to padding
