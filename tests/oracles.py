"""Elementary ops that only the tests' oracles use.

The fused ops in ``vrec`` (``numerics.attention``, the verifier bank step)
replaced chains of elementary ops; the chains stay in the tests as their
oracles, and these are the ops the chains need that the library no longer
does. They are built on ``numerics._node`` like every library op."""

import numpy as np

from vrec.numerics import Tensor, _node, _softmax_np


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    s = _softmax_np(x.data, axis)

    def vjp(g):
        dot = (g * s).sum(axis=axis, keepdims=True)
        return (s * (g - dot),)
    return _node(s, (x,), "softmax", vjp)


def exp(x: Tensor) -> Tensor:
    od = np.exp(x.data)
    return _node(od, (x,), "exp", lambda g: (g * od,))
