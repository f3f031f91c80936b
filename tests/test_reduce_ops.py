"""Every reduce op, bitwise on every rung.

A reduce op is one row of the reduce table (``repro.ir.vectorizer``):
its ufunc and its identity.  Every rung — the interpreter oracle
included — folds each tile's lane values with that ufunc and the tiles'
partials in domain order, so equal lane values give equal bits.  Here
the interpreter, vector, codegen and native rungs reduce the same
values with ``add`` / ``min`` / ``max``:

* at sizes on both sides of ``TILE_LANES`` and on a 2-D box whose tiles
  are whole rows;
* on finite inputs, on inputs with a NaN in the first, a middle or the
  last lane, and on inputs of signed zeros;
* through ``compile_kernel(...).run_reduce`` and through
  ``repro.parallel_reduce`` on ``serial``.

An empty domain reduces to the row's identity, and an unknown op is
refused by every entry point.
"""

import math

import numpy as np
import pytest

import repro
from repro.backends.gpusim import Device
from repro.core.exceptions import DeviceError, InvalidReduceOpError, KernelExecutionError
from repro.ir.compile import compile_kernel, set_executor_mode
from repro.ir.nativecache import resolve_cc
from repro.ir.vectorizer import TILE_LANES as T
from repro.ir.vectorizer import IndexDomain
from repro.math import maximum, minimum

RUNGS = ("interpreter", "vector", "codegen", "native")
OPS = ("add", "min", "max")
IDENTITY = {"add": 0.0, "min": np.inf, "max": -np.inf}

#: 1-D sizes on both sides of a tile edge, and a 2-D box cut into tiles
#: of three whole rows and then two.
SHAPES = [(1,), (7,), (1000,), (T - 1,), (T + 1,), (3 * T + 5,), (5, 20011)]
INPUTS = ("finite", "nan-first", "nan-middle", "nan-last", "signed-zeros")


def ident(i, x):
    return x[i]


def ident2(i, j, x):
    return x[i, j]


KERNELS = {1: ident, 2: ident2}


@pytest.fixture(autouse=True)
def restore():
    yield
    repro.set_backend("serial")
    set_executor_mode(None)


def _bits(v):
    return np.float64(v).tobytes()


def _values(shape, kind):
    x = np.random.default_rng(sum(shape)).standard_normal(shape)
    flat = x.reshape(-1)
    if kind == "nan-first":
        flat[0] = np.nan
    elif kind == "nan-middle":
        flat[flat.size // 2] = np.nan
    elif kind == "nan-last":
        flat[-1] = np.nan
    elif kind == "signed-zeros":
        # The min is a zero whose sign depends on the fold order.
        flat[:] = np.abs(flat)
        flat[::3] = 0.0
        flat[1::3] = -0.0
    return x


def _settled(launch):
    """Launch, wait for the native units, launch again: the second call
    runs each kernel's C unit (with the runtime fold) when there is a
    compiler, whatever a cold cache had compiled before."""
    launch()
    repro.synchronize()
    return launch()


@pytest.mark.parametrize("kind", INPUTS)
@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "x".join(map(str, s)))
def test_every_rung_folds_every_op_bitwise(shape, kind):
    x = _values(shape, kind)
    dom = IndexDomain.full(shape)
    fn = KERNELS[len(shape)]
    for op in OPS:
        got = {}
        for rung in RUNGS:
            ck = compile_kernel(fn, len(shape), [x], reduce=True, executor=rung)
            got[rung] = _settled(lambda: ck.run_reduce(dom, [x], op))
        with repro.use_backend("serial"):
            for rung in RUNGS:
                set_executor_mode(rung)
                got[f"serial-{rung}"] = _settled(
                    lambda: repro.parallel_reduce(shape, fn, x, op=op)
                )
        bits = {k: _bits(v) for k, v in got.items()}
        assert len(set(bits.values())) == 1, (op, got)
    if resolve_cc() is not None:
        ck = compile_kernel(fn, len(shape), [x], reduce=True, executor="native")
        assert ck.mode.startswith("native")


def min_nan(i, x):
    return minimum(x[i], math.nan)


def max_nan(i, x):
    return maximum(x[i], math.nan)


def min_zero(i, x):
    return minimum(x[i], -0.0)


@pytest.mark.parametrize(
    "fn, values, op, want",
    [
        (min_nan, [1.0, 2.0, 3.5], "add", math.nan),  # Python's min reads 6.5
        (max_nan, [1.0, 2.0, 3.5], "add", math.nan),  # and max 6.5
        (min_zero, [0.0, 0.0, 0.0], "max", -0.0),  # Python's min reads 0.0
    ],
    ids=["minimum-nan", "maximum-nan", "minimum-signed-zero"],
)
def test_minimum_and_maximum_lanes_are_numpys_on_every_rung(fn, values, op, want):
    """The interpreter's ``minimum``/``maximum`` on plain numbers are
    ``np.minimum``/``np.maximum``: its lane values, and so its reduce,
    equal the traced rungs' bit for bit."""
    x = np.array(values)
    dom = IndexDomain.full(x.shape)
    got = {}
    for rung in RUNGS:
        ck = compile_kernel(fn, 1, [x], reduce=True, executor=rung)
        got[rung] = _bits(_settled(lambda: ck.run_reduce(dom, [x], op)))
    assert set(got.values()) == {_bits(want)}, got


def test_nan_propagates_through_min_and_max_on_the_interpreter():
    x = np.array([1.0, np.nan, 3.0, 0.5])
    ck = compile_kernel(ident, 1, [x], reduce=True, executor="interpreter")
    dom = IndexDomain.full((4,))
    assert np.isnan(ck.run_reduce(dom, [x], "min"))
    assert np.isnan(ck.run_reduce(dom, [x], "max"))


@pytest.mark.parametrize("rung", RUNGS)
def test_an_empty_domain_reduces_to_the_identity(rung):
    x = np.ones(4)
    ck = compile_kernel(ident, 1, [x], reduce=True, executor=rung)
    for op in OPS:
        got = ck.run_reduce(IndexDomain([(2, 2)]), [x], op)
        assert _bits(got) == _bits(IDENTITY[op]), (rung, op, got)


def test_an_empty_domain_on_a_simulated_device_folds_to_the_identity():
    dev = Device("a100")
    x = dev.to_device(np.ones(4))
    for op in OPS:
        partials = dev.map_block_partials(ident, 0, x, op=op)
        got = dev.scalar_to_host(dev.fold_partials(partials, op=op))
        assert _bits(got) == _bits(IDENTITY[op]), (op, got)


@pytest.mark.parametrize("rung", RUNGS)
def test_an_unknown_op_is_refused_by_every_entry_point(rung):
    x = np.ones(4)
    ck = compile_kernel(ident, 1, [x], reduce=True, executor=rung)
    with pytest.raises(KernelExecutionError, match="'prod'"):
        ck.run_reduce(IndexDomain.full((4,)), [x], "prod")
    set_executor_mode(rung)
    with pytest.raises(InvalidReduceOpError, match="expected one of {'add', 'min', 'max'}"):
        repro.parallel_reduce(4, ident, x, op="prod")


def test_an_unknown_op_is_a_device_error_on_a_simulated_device():
    dev = Device("a100")
    x = dev.to_device(np.ones(4))
    with pytest.raises(DeviceError, match="'prod'"):
        dev.map_block_partials(ident, 4, x, op="prod")
    partials = dev.map_block_partials(ident, 4, x)
    with pytest.raises(DeviceError, match="'prod'"):
        dev.fold_partials(partials, op="prod")
