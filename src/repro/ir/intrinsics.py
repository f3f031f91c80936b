"""Portable math intrinsics for kernels.

Kernels run in two worlds: traced (arguments are symbolic proxies) and
interpreted (arguments are plain Python/NumPy numbers).  These intrinsics
dispatch on which world they are in, so a single kernel source works under
both executors — the same way Julia's ``sqrt`` works on both host values
and inside ``@cuda`` kernels.

``where``/``minimum``/``maximum`` additionally give kernel authors a
*non-forking* conditional: ``if``/``min``/``max`` on symbolic values fork
the trace (one path per outcome), which is correct but costs a path each;
``where(c, a, b)`` lowers to a single predicated select.
"""

from __future__ import annotations

import math
from typing import Any

import numpy as np

from . import nodes as N
from .tracer import SymScalar, as_node

__all__ = [
    "sqrt",
    "exp",
    "log",
    "sin",
    "cos",
    "tan",
    "tanh",
    "floor",
    "ceil",
    "sign",
    "trunc_int",
    "where",
    "minimum",
    "maximum",
    "exclusive",
]


def _unary(op: str, math_fn) -> Any:
    def intrinsic(x: Any):
        if isinstance(x, SymScalar):
            return SymScalar(N.UnOp(op, x._node))
        return math_fn(x)

    intrinsic.__name__ = op
    intrinsic.__qualname__ = op
    intrinsic.__doc__ = f"Elementwise ``{op}``, usable inside kernels."
    return intrinsic


sqrt = _unary("sqrt", math.sqrt)
exp = _unary("exp", math.exp)
log = _unary("log", math.log)
sin = _unary("sin", math.sin)
cos = _unary("cos", math.cos)
tan = _unary("tan", math.tan)
tanh = _unary("tanh", math.tanh)
floor = _unary("floor", math.floor)
ceil = _unary("ceil", math.ceil)


def sign(x: Any):
    """Elementwise sign (-1, 0 or 1), usable inside kernels."""
    if isinstance(x, SymScalar):
        return SymScalar(N.UnOp("sign", x._node))
    return (x > 0) - (x < 0)


def trunc_int(x: Any):
    """Truncate toward zero to an integer — the paper's ``trunc(Int, x)``.

    Use this instead of ``int(x)`` inside kernels; ``int()`` on a symbolic
    value forces value specialization of the whole trace.
    """
    if isinstance(x, SymScalar):
        return SymScalar(N.Cast("int", x._node))
    return int(x)


def where(cond: Any, if_true: Any, if_false: Any):
    """Predicated select ``cond ? if_true : if_false`` (non-forking)."""
    if isinstance(cond, SymScalar) or isinstance(if_true, SymScalar) or isinstance(
        if_false, SymScalar
    ):
        return SymScalar(
            N.Select(as_node(cond), as_node(if_true), as_node(if_false))
        )
    return if_true if cond else if_false


def exclusive(index: Any, at: Any = 0):
    """Single-lane guard: true only where ``index == at``.

    The idiomatic way to mark an intentional single-iteration store so
    the race verifier (:mod:`repro.ir.verify`) can prove it safe — the
    JACC-style analogue of an "exclusive" section:

    .. code-block:: python

        def finalize(i, out, x):
            if exclusive(i):       # exactly one lane runs this store
                out[0] = x[0] * 2.0

    Equality on a launch index pins the guarded store to one iteration
    tuple, which satisfies the cross-iteration race rules (V101/V102).
    Works in both worlds: traced (returns a symbolic boolean the guard
    machinery understands) and interpreted (plain comparison).
    """
    return index == at  # SymScalar.__eq__ builds the Compare node


def minimum(a: Any, b: Any):
    """Two-argument min as a single select (non-forking); on plain
    numbers ``np.minimum``, as every traced rung (NaN propagates, and
    ``minimum(0.0, -0.0)`` is ``-0.0``), returned as a Python scalar."""
    if isinstance(a, SymScalar) or isinstance(b, SymScalar):
        return SymScalar(N.BinOp("min", as_node(a), as_node(b)))
    return np.minimum(a, b).item()


def maximum(a: Any, b: Any):
    """Two-argument max, like :func:`minimum` (``np.maximum``)."""
    if isinstance(a, SymScalar) or isinstance(b, SymScalar):
        return SymScalar(N.BinOp("max", as_node(a), as_node(b)))
    return np.maximum(a, b).item()
