"""Static kernel verifier: race, bounds and reduction-purity analysis.

``parallel_for``/``parallel_reduce`` carry an implicit contract the paper
leaves entirely to the programmer: every iteration of a for-kernel must
be independent of every other, every access must stay inside its array,
and a reduce body must be pure.  Because the tracing JIT already lowers
kernels to a complete expression DAG (:mod:`repro.ir.nodes`), we can
check that contract *statically*, before a plan ever reaches a backend —
something neither Julia JACC nor a C++ template model can do cheaply.

The analysis core is a small **symbolic index-distance lattice**: every
index expression is abstracted to an affine form ``c0 + Σ c_a · i_a``
over the launch axes (with scalar arguments bound to their concrete
launch values, mirroring the JIT's value specialization), or to ⊤ when
it is not affine.  Guard conditions refine each axis to an interval (and
can pin an access to a single iteration, e.g. ``if i == 0:``).  Two
accesses on the same array then race iff the difference of their forms
can be zero for two *distinct* in-range iteration tuples — decided by
interval range tests, a gcd divisibility test and a mixed-radix
dominance test for injectivity (which is what proves the paper's
flattened LBM indexing ``k·n² + x·n + y`` race-free).

Checked rules (catalog in :mod:`repro.ir.diagnostics`):

* ``V101``/``V102`` — cross-iteration store/store and store/load races;
* ``V201`` — out-of-bounds accesses relative to the launch domain and
  the known array extents;
* ``V301``/``V302`` — reduction impurity (stores in a reduce body;
  an implicit ``0.0`` fall-through return under a non-``add`` combine);
* ``V401``/``V402``/``V403`` — lint: dead stores, unused array
  arguments, float equality guards.

Enforcement is selected by the ``verify`` preference
(``off | warn | error``, default ``warn`` — see
:mod:`repro.core.preferences`), overridable per process with
:func:`set_verify_mode` / :func:`verify_mode`.  ``error`` raises
:class:`~repro.core.exceptions.KernelVerificationError` at the construct
call site; ``warn`` emits one :class:`KernelVerificationWarning` per
fresh finding.  Individual rules can be suppressed per kernel with the
:func:`suppress` decorator.
"""

from __future__ import annotations

import math
import numbers
import warnings
from typing import Any, Iterator, Optional, Sequence

import numpy as np

from ..core.exceptions import KernelVerificationError
from ..core.preferences import MODES
from . import nodes as N
from .diagnostics import (
    Diagnostic,
    KernelVerificationWarning,
    RULES,
    counters,
)
from .vectorizer import _REDUCE

__all__ = [
    "verify_trace",
    "verify_compiled",
    "verify_kernel",
    "verify_launch",
    "abstract_accesses",
    "consumed_scalars",
    "lane_conflict",
    "active_verify_mode",
    "set_verify_mode",
    "verify_mode",
    "suppress",
]

_INF = float("inf")


# ---------------------------------------------------------------------------
# Enforcement-mode selection
# ---------------------------------------------------------------------------

#: The ``verify`` knob (``PYACC_VERIFY``, see
#: :data:`repro.core.preferences.MODES`): ``active_verify_mode()`` is
#: the enforcement mode in effect, ``set_verify_mode(mode | None)`` the
#: process-wide override (returns the previous one), and
#: ``with verify_mode("error"): ...`` scopes an override.
active_verify_mode = MODES["verify"].get
set_verify_mode = MODES["verify"].set
verify_mode = MODES["verify"].scoped


def suppress(*rules: str):
    """Decorator: suppress the given verifier rules for one kernel.

    >>> @suppress("V101")
    ... def histogram(i, bins, x):
    ...     bins[0] += x[i]   # intentional single-bin accumulation

    The decorated function object is returned unchanged (so trace-cache
    keys are unaffected); the rule ids are recorded on
    ``fn.__verify_suppress__`` and documented suppressions show up in
    ``repro.lint`` output as skipped rules.
    """
    for rule in rules:
        if rule not in RULES:
            raise ValueError(
                f"unknown verifier rule {rule!r}; known rules: {sorted(RULES)}"
            )

    def deco(fn):
        have = set(getattr(fn, "__verify_suppress__", ()))
        fn.__verify_suppress__ = tuple(sorted(have | set(rules)))
        return fn

    return deco


# ---------------------------------------------------------------------------
# The affine index lattice
# ---------------------------------------------------------------------------


class _Lin:
    """An affine form ``const + Σ coeffs[a] · i_a`` with concrete
    numeric coefficients — one lattice element below ⊤ (= ``None``)."""

    __slots__ = ("coeffs", "const")

    def __init__(self, coeffs: tuple, const):
        self.coeffs = coeffs
        self.const = const

    def is_const(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def eval_at(self, point: Sequence[int]):
        return self.const + sum(c * p for c, p in zip(self.coeffs, point))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"_Lin({self.coeffs}, {self.const})"


def _is_intlike(v) -> bool:
    if isinstance(v, bool):
        return True
    if isinstance(v, numbers.Integral):
        return True
    return isinstance(v, float) and math.isfinite(v) and v.is_integer()


def _lin_range(lin: _Lin, box: Sequence[tuple]) -> tuple:
    """Interval of an affine form over a per-axis interval box."""
    lo = hi = lin.const
    for c, (alo, ahi) in zip(lin.coeffs, box):
        if c == 0:
            continue
        a, b = c * alo, c * ahi
        lo += min(a, b)
        hi += max(a, b)
    return lo, hi


def _int_gcd(values) -> Optional[int]:
    """gcd of the nonzero coefficients, or ``None`` if any is not an
    integer (the gcd divisibility test then gives no information)."""
    g = 0
    for v in values:
        if v == 0:
            continue
        if not _is_intlike(v):
            return None
        g = math.gcd(g, abs(int(v)))
    return g


class _Access:
    """One store or load with its affine index forms and guard box."""

    __slots__ = ("kind", "array", "indices", "forms", "box")

    def __init__(self, kind, array, indices, forms, box):
        self.kind = kind
        self.array = array
        self.indices = indices
        self.forms = forms
        self.box = box

    @property
    def text(self) -> str:
        """``argN[index, ...]`` — rendered only when a finding names it."""
        idx = ", ".join(N.format_node(ix) for ix in self.indices)
        return f"arg{self.array.pos}[{idx}]"

    def pin(self) -> Optional[tuple]:
        """The single iteration tuple this access runs at, if its guard
        pins every launch axis; ``None`` otherwise."""
        point = []
        for lo, hi in self.box:
            if lo != hi or lo in (-_INF, _INF):
                return None
            point.append(lo)
        return tuple(point)


_NEGATE_CMP = {"lt": "ge", "le": "gt", "gt": "le", "ge": "lt", "eq": "ne", "ne": "eq"}
_MIRROR_CMP = {"lt": "gt", "le": "ge", "gt": "lt", "ge": "le", "eq": "eq", "ne": "ne"}


def _conjuncts(node: N.Node, polarity: bool):
    """Yield ``(leaf, polarity)`` conjuncts of a guard expression: the
    guard holds iff every leaf evaluates to its polarity."""
    if isinstance(node, N.Not):
        yield from _conjuncts(node.operand, not polarity)
    elif isinstance(node, N.BoolOp) and (
        (node.op == "and" and polarity) or (node.op == "or" and not polarity)
    ):
        yield from _conjuncts(node.lhs, polarity)
        yield from _conjuncts(node.rhs, polarity)
    else:
        yield node, polarity


class _Verifier:
    """One verification run over a single optimized trace."""

    def __init__(
        self,
        trace: N.Trace,
        *,
        dims: Optional[tuple],
        shapes: Optional[dict],
        scalars: Optional[dict],
        op: Optional[str],
        kernel: str,
    ):
        self.trace = trace
        self.ndim = trace.ndim
        self.dims = dims
        self.shapes = shapes or {}
        self.scalars = scalars or {}
        self.op = op
        self.kernel = kernel
        self.used_scalars: set[int] = set()
        self.diagnostics: list[Diagnostic] = []
        self._emitted: set[tuple] = set()
        self._affine_memo: dict[int, Optional[_Lin]] = {}
        self._accesses: list[_Access] = []
        self._float_eq: list[N.Compare] = []

    # -- diagnostics -------------------------------------------------------
    def _emit(self, rule: str, message: str, provenance: str = "") -> None:
        key = (rule, message, provenance)
        if key in self._emitted:
            return
        self._emitted.add(key)
        self.diagnostics.append(
            Diagnostic(
                rule=rule,
                severity=RULES[rule][0],
                kernel=self.kernel,
                message=message,
                provenance=provenance,
            )
        )

    # -- affine abstraction -------------------------------------------------
    def _affine(self, node: N.Node) -> Optional[_Lin]:
        nid = id(node)
        if nid in self._affine_memo:
            return self._affine_memo[nid]
        lin = self._affine_uncached(node)
        self._affine_memo[nid] = lin
        return lin

    def _zero(self) -> tuple:
        return (0,) * self.ndim

    def _affine_uncached(self, node: N.Node) -> Optional[_Lin]:
        if isinstance(node, N.Const):
            if isinstance(node.value, (bool, int, float)):
                return _Lin(self._zero(), node.value)
            return None
        if isinstance(node, N.Index):
            coeffs = tuple(1 if a == node.axis else 0 for a in range(self.ndim))
            return _Lin(coeffs, 0)
        if isinstance(node, N.ScalarArg):
            value = self.scalars.get(node.pos)
            if isinstance(value, numbers.Real) and not isinstance(value, complex):
                self.used_scalars.add(node.pos)
                v = int(value) if _is_intlike(value) else float(value)
                return _Lin(self._zero(), v)
            return None
        if isinstance(node, N.BinOp):
            lhs = self._affine(node.lhs)
            rhs = self._affine(node.rhs)
            if lhs is None or rhs is None:
                return None
            if node.op == "add":
                return _Lin(
                    tuple(a + b for a, b in zip(lhs.coeffs, rhs.coeffs)),
                    lhs.const + rhs.const,
                )
            if node.op == "sub":
                return _Lin(
                    tuple(a - b for a, b in zip(lhs.coeffs, rhs.coeffs)),
                    lhs.const - rhs.const,
                )
            if node.op == "mul":
                if rhs.is_const():
                    k = rhs.const
                    return _Lin(tuple(c * k for c in lhs.coeffs), lhs.const * k)
                if lhs.is_const():
                    k = lhs.const
                    return _Lin(tuple(c * k for c in rhs.coeffs), rhs.const * k)
                return None
            return None
        if isinstance(node, N.UnOp) and node.op == "neg":
            inner = self._affine(node.operand)
            if inner is None:
                return None
            return _Lin(tuple(-c for c in inner.coeffs), -inner.const)
        if isinstance(node, N.Cast) and node.kind == "int":
            inner = self._affine(node.operand)
            if inner is not None and _is_intlike(inner.const) and all(
                _is_intlike(c) for c in inner.coeffs
            ):
                return inner  # int() of an integer form is the identity
            return None
        return None

    # -- guard refinement ---------------------------------------------------
    def _base_box(self) -> list:
        if self.dims is None:
            return [(-_INF, _INF)] * self.ndim
        return [(0, d - 1) for d in self.dims]

    def _refine(self, box: list, cond: Optional[N.Node], polarity: bool = True):
        """Intersect ``box`` with the iterations satisfying ``cond``.

        Returns the refined box, or ``None`` when the guard is
        infeasible within the launch domain (the access never runs).
        """
        if cond is None:
            return box
        box = list(box)
        for node, pol in _conjuncts(cond, polarity):
            if isinstance(node, N.Compare):
                box = self._apply_compare(node, pol, box)
                if box is None:
                    return None
        return box

    def _apply_compare(self, cmp: N.Compare, polarity: bool, box: list):
        lhs = self._affine(cmp.lhs)
        rhs = self._affine(cmp.rhs)
        if lhs is None or rhs is None:
            return box
        form = _Lin(
            tuple(a - b for a, b in zip(lhs.coeffs, rhs.coeffs)),
            lhs.const - rhs.const,
        )
        axes = [a for a, c in enumerate(form.coeffs) if c != 0]
        if len(axes) != 1:
            return box
        axis = axes[0]
        c = form.coeffs[axis]
        op = cmp.op if polarity else _NEGATE_CMP[cmp.op]
        if c < 0:  # divide through by a negative coefficient
            op = _MIRROR_CMP[op]
        bound = -form.const / c
        lo, hi = box[axis]
        if op == "lt":
            hi = min(hi, math.ceil(bound) - 1 if _is_intlike(bound) else math.floor(bound))
        elif op == "le":
            hi = min(hi, math.floor(bound))
        elif op == "gt":
            lo = max(lo, math.floor(bound) + 1 if _is_intlike(bound) else math.ceil(bound))
        elif op == "ge":
            lo = max(lo, math.ceil(bound))
        elif op == "eq":
            if not _is_intlike(bound):
                return None
            lo = max(lo, int(bound))
            hi = min(hi, int(bound))
        elif op == "ne":
            if _is_intlike(bound):
                b = int(bound)
                if lo == b == hi:
                    return None
                if lo == b:
                    lo += 1
                elif hi == b:
                    hi -= 1
        if lo > hi:
            return None
        box[axis] = (lo, hi)
        return box

    # -- access collection ---------------------------------------------------
    def _add_access(self, kind, array, indices, box) -> None:
        forms = tuple(self._affine(ix) for ix in indices)
        self._accesses.append(_Access(kind, array, indices, forms, box))

    def _box_sig(self, box) -> tuple:
        return tuple(box)

    def collect(self) -> None:
        base = self._base_box()
        # One ``seen`` for the whole trace: a subexpression a later store
        # shares (CSE) under the same guard box has recorded its loads.
        seen: set[tuple] = set()
        # The stores under one ``if`` share its guard node: refine and
        # walk it once.
        guards: dict[int, Optional[list]] = {}
        for st in self.trace.stores:
            first = id(st.condition) not in guards
            if first:
                guards[id(st.condition)] = self._refine(base, st.condition)
            box = guards[id(st.condition)]
            if box is None:
                continue  # statically unreachable under these dims
            self._add_access("store", st.array, st.indices, box)
            for ix in st.indices:
                self._walk_expr(ix, box, seen)
            self._walk_expr(st.value, box, seen)
            if first and st.condition is not None:
                self._walk_condition(st.condition, base, seen)
        if self.trace.result is not None:
            self._walk_expr(self.trace.result, base, seen)

    def _walk_condition(self, cond: N.Node, box: list, seen: set) -> None:
        """Walk a guard left-to-right, refining the box progressively so
        a load in a later conjunct is analyzed under the earlier ones
        (matching Python's short-circuit evaluation order)."""
        if isinstance(cond, N.BoolOp) and cond.op == "and":
            self._walk_condition(cond.lhs, box, seen)
            refined = self._refine(box, cond.lhs)
            if refined is not None:
                self._walk_condition(cond.rhs, refined, seen)
            return
        if isinstance(cond, N.Not):
            self._walk_condition(cond.operand, box, seen)
            return
        self._walk_expr(cond, box, seen)

    def _walk_expr(self, node: N.Node, box: list, seen: set) -> None:
        key = (id(node), self._box_sig(box))
        if key in seen:
            return
        seen.add(key)
        if isinstance(node, N.Load):
            self._add_access("load", node.array, node.indices, box)
            for ix in node.indices:
                self._walk_expr(ix, box, seen)
            return
        if isinstance(node, N.Select):
            self._walk_expr(node.cond, box, seen)
            box_t = self._refine(box, node.cond, True)
            if box_t is not None:
                self._walk_expr(node.if_true, box_t, seen)
            box_f = self._refine(box, node.cond, False)
            if box_f is not None:
                self._walk_expr(node.if_false, box_f, seen)
            return
        if isinstance(node, N.Compare) and node.op in ("eq", "ne"):
            for side in (node.lhs, node.rhs):
                if isinstance(side, N.Const) and isinstance(side.value, float):
                    self._float_eq.append(node)
        for child in node.children:
            self._walk_expr(child, box, seen)

    # -- the index-distance decision procedure --------------------------------
    def _conflict(self, a: _Access, b: _Access) -> Optional[str]:
        """Can ``a`` and ``b`` touch the same element from two *distinct*
        iteration tuples?  ``None`` means provably not; otherwise a short
        reason string."""
        pa, pb = a.pin(), b.pin()
        if a is b and pa is not None:
            return None  # runs on exactly one iteration
        if pa is not None and pb is not None:
            if pa == pb:
                return None  # same single iteration: program order applies
            la = [f.eval_at(pa) if f is not None else None for f in a.forms]
            lb = [f.eval_at(pb) if f is not None else None for f in b.forms]
            if any(x is None or y is None for x, y in zip(la, lb)):
                return "single-lane accesses with unresolved indices"
            return "distinct single lanes hit the same element" if la == lb else None

        # Range disjointness: any dimension whose value sets cannot meet
        # proves the pair safe regardless of iteration coupling.
        for d in range(len(a.forms)):
            fa, fb = a.forms[d], b.forms[d]
            if fa is None or fb is None:
                continue
            alo, ahi = _lin_range(fa, a.box)
            blo, bhi = _lin_range(fb, b.box)
            if ahi < blo or bhi < alo:
                return None

        if any(f is None for f in a.forms) or any(f is None for f in b.forms):
            return "index not affine in the launch indices"

        # Per-dimension gcd feasibility over independent iteration tuples.
        for d in range(len(a.forms)):
            fa, fb = a.forms[d], b.forms[d]
            delta = fb.const - fa.const
            if not _is_intlike(delta):
                return None  # fractional offset: integer elements never meet
            g = _int_gcd(list(fa.coeffs) + list(fb.coeffs))
            if g is not None and g > 0 and int(delta) % g != 0:
                return None

        same_coeffs = all(
            fa.coeffs == fb.coeffs for fa, fb in zip(a.forms, b.forms)
        )
        if same_coeffs:
            # Difference box of Δ = I_a − I_b.
            dbox = [
                (a.box[ax][0] - b.box[ax][1], a.box[ax][1] - b.box[ax][0])
                for ax in range(self.ndim)
            ]
            deltas = []
            for d in range(len(a.forms)):
                delta = b.forms[d].const - a.forms[d].const
                lo, hi = _lin_range(_Lin(a.forms[d].coeffs, 0), dbox)
                if delta < lo or delta > hi:
                    return None  # offset larger than any in-range distance
                deltas.append(delta)
            if all(d == 0 for d in deltas):
                if self._injective(a.forms, dbox):
                    return None
                return "index map is not injective over the launch domain"
            return "indices collide at a nonzero iteration distance"

        # Mixed coefficients with one side pinned: safe when the moving
        # side is injective and only meets the pinned element at the
        # pinned iteration itself.
        if pa is not None or pb is not None:
            pinned, moving = (a, b) if pa is not None else (b, a)
            point = pinned.pin()
            loc = [f.eval_at(point) for f in pinned.forms]
            at_pin = [f.eval_at(point) for f in moving.forms]
            dbox = [
                (moving.box[ax][0] - moving.box[ax][1],
                 moving.box[ax][1] - moving.box[ax][0])
                for ax in range(self.ndim)
            ]
            if at_pin == loc and self._injective(moving.forms, dbox):
                return None
        return "index maps can coincide across iterations"

    def _injective(self, forms: Sequence[_Lin], dbox: list) -> bool:
        """Is ``C·Δ = 0, Δ ≠ 0`` infeasible over the difference box?

        Constraint propagation with a mixed-radix dominance test: an axis
        whose coefficient in some dimension outweighs the maximal
        contribution of every other still-free axis must have ``Δ = 0``.
        """
        maxabs = []
        for lo, hi in dbox:
            if lo == -_INF or hi == _INF:
                maxabs.append(_INF)
            else:
                maxabs.append(max(abs(lo), abs(hi)))
        free = {
            a
            for a in range(self.ndim)
            if maxabs[a] != 0 and not (dbox[a][0] == 0 and dbox[a][1] == 0)
        }
        changed = True
        while free and changed:
            changed = False
            for lin in forms:
                active = [a for a in free if lin.coeffs[a] != 0]
                if not active:
                    continue
                for a in active:
                    others = sum(
                        abs(lin.coeffs[b]) * maxabs[b] for b in active if b != a
                    )
                    if abs(lin.coeffs[a]) > others:
                        if not (dbox[a][0] <= 0 <= dbox[a][1]):
                            return True  # Δ_a = 0 contradicts the box
                        free.discard(a)
                        changed = True
                        break
                if changed:
                    break
        return not free

    # -- rules ---------------------------------------------------------------
    def _races(self, accesses: list):
        """Yield ``(store, other, reason)`` for each pair among
        ``accesses`` — every store against itself, each later store and
        every load of its array — not proven conflict-free."""
        stores = [x for x in accesses if x.kind == "store"]
        loads = [x for x in accesses if x.kind == "load"]
        for i, a in enumerate(stores):
            for b in stores[i:] + loads:
                if b.array.pos != a.array.pos:
                    continue
                reason = self._conflict(a, b)
                if reason is not None:
                    yield a, b, reason

    def check_races(self) -> None:
        for a, b, reason in self._races(self._accesses):
            if b.kind == "store":
                which = (
                    f"store {a.text}" if a is b else f"stores {a.text} and {b.text}"
                )
                self._emit(
                    "V101",
                    f"{which} may write the same element from two "
                    f"different iterations ({reason})",
                    a.text if a is b else f"{a.text}; {b.text}",
                )
            else:
                self._emit(
                    "V102",
                    f"store {a.text} and load {b.text} may alias across "
                    f"iterations ({reason}); the value read depends on "
                    "execution order",
                    f"{a.text}; {b.text}",
                )

    def lane_conflict(self, apart: bool = False) -> Optional[str]:
        """``None`` iff lanes are *proven* independent (call after
        :meth:`collect`): every access to a written array names, through
        integer affine forms, an element inside ``[0, extent)``, and no
        store can meet another store or a load from a different lane —
        and, with ``apart``, no two stores of one array at different
        index nodes write one element from one lane.  Otherwise the
        first failing access (pair) and the reason."""
        written = {st.array.pos for st in self.trace.stores}
        accesses = [x for x in self._accesses if x.array.pos in written]
        for acc in accesses:
            reason = self._unproven_location(acc)
            if reason is not None:
                return f"{acc.kind} {acc.text}: {reason}"
        for a, b, reason in self._races(accesses):
            return f"store {a.text}; {b.kind} {b.text}: {reason}"
        stores = [x for x in accesses if x.kind == "store"] if apart else []
        for k, a in enumerate(stores):
            for b in stores[k + 1:]:
                if (
                    b.array.pos == a.array.pos
                    and any(x is not y for x, y in zip(a.indices, b.indices))
                    and not self._apart(a, b)
                ):
                    return (
                        f"stores {a.text} and {b.text} may write one "
                        "element from one lane"
                    )
        return None

    def _apart(self, a: _Access, b: _Access) -> bool:
        """Is there, on every lane both stores run on, an axis whose
        indices differ?  (Their forms are integer affine: checked
        first.)"""
        box = []
        for (alo, ahi), (blo, bhi) in zip(a.box, b.box):
            if max(alo, blo) > min(ahi, bhi):
                return True  # no lane runs both
            box.append((max(alo, blo), min(ahi, bhi)))
        for fa, fb in zip(a.forms, b.forms):
            diff = _Lin(
                tuple(x - y for x, y in zip(fa.coeffs, fb.coeffs)),
                fa.const - fb.const,
            )
            lo, hi = _lin_range(diff, box)
            if lo > 0 or hi < 0:
                return True
        return False

    def _unproven_location(self, acc: _Access) -> Optional[str]:
        """Why ``acc``'s affine forms may not name the element it really
        touches (NumPy scatters wrap negative indices, gathers clamp), or
        ``None`` when every axis is proven inside ``[0, extent)``."""
        shape = self.shapes.get(acc.array.pos)
        if shape is None or len(shape) != len(acc.forms):
            return "array extent unknown"
        for d, form in enumerate(acc.forms):
            if form is None:
                return "index not affine in the launch indices"
            if not all(_is_intlike(c) for c in (form.const, *form.coeffs)):
                return "index is not an integer form"
            lo, hi = _lin_range(form, acc.box)
            if lo < 0 or hi > shape[d] - 1:
                return (
                    f"axis {d} index spans [{lo:g}, {hi:g}], not proven "
                    f"inside the extent {shape[d]}"
                )
        return None

    def check_bounds(self) -> None:
        for acc in self._accesses:
            shape = self.shapes.get(acc.array.pos)
            if shape is None or len(shape) != len(acc.forms):
                continue
            for d, form in enumerate(acc.forms):
                if form is None:
                    continue
                lo, hi = _lin_range(form, acc.box)
                extent = shape[d]
                if lo < 0 or hi > extent - 1:
                    self._emit(
                        "V201",
                        f"{acc.kind} {acc.text}: axis {d} index spans "
                        f"[{lo:g}, {hi:g}] but the array extent is {extent} "
                        "(negative indices wrap in NumPy; overruns raise at "
                        "run time)",
                        acc.text,
                    )

    def check_reduction(self) -> None:
        if self.op is None:
            return
        if self.trace.stores:
            names = ", ".join(
                f"arg{st.array.pos}" for st in self.trace.stores
            )
            self._emit(
                "V301",
                "parallel_reduce kernels must be pure, but this one stores "
                f"into {names}; move side effects to a parallel_for",
                f"{len(self.trace.stores)} store(s)",
            )
        row = _REDUCE.get(self.op)
        if row is not None and row[1] != 0.0 and self.trace.implicit_return_paths:
            self._emit(
                "V302",
                f"{self.trace.implicit_return_paths} control-flow path(s) "
                "fall off the kernel without returning; the implicit 0.0 "
                f"is not the neutral element of op={self.op!r} — return an "
                "explicit value on every path",
                f"op={self.op}",
            )

    def check_lint(self) -> None:
        # V401: dead stores (repro.ir.deadstore) — the analysis is
        # guard-aware: a guarded store whose guard an intervening store
        # could flip does not kill.
        from .deadstore import trace_dead_stores

        stores = self.trace.stores
        for i, _killer in trace_dead_stores(self.trace):
            sa = stores[i]
            self._emit(
                "V401",
                f"store arg{sa.array.pos}"
                f"[{', '.join(N.format_node(ix) for ix in sa.indices)}] "
                "is overwritten by a later store to the same element "
                "before any read",
                f"store #{i}",
            )
        # V402: unused array arguments.
        used = set()
        for root in self.trace.expressions():
            for node in N.walk(root):
                if isinstance(node, N.Load):
                    used.add(node.array.pos)
        for st in self.trace.stores:
            used.add(st.array.pos)
        for pos in self.trace.array_args:
            if pos not in used:
                self._emit(
                    "V402",
                    f"array argument {pos} is never loaded or stored; drop "
                    "it or use it",
                    f"arg{pos}",
                )
        # V403: float equality guards.
        for cmp in self._float_eq:
            self._emit(
                "V403",
                "equality comparison against a float constant "
                f"({N.format_node(cmp)}) is sensitive to rounding; compare "
                "against a tolerance instead",
                N.format_node(cmp),
            )

    def run(self) -> list[Diagnostic]:
        self.collect()
        self.check_races()
        self.check_bounds()
        self.check_reduction()
        self.check_lint()
        order = {"error": 0, "warning": 1, "info": 2}
        self.diagnostics.sort(key=lambda d: (order[d.severity], d.rule))
        return self.diagnostics


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------


def verify_trace(
    trace: N.Trace,
    *,
    dims: Optional[tuple] = None,
    shapes: Optional[dict] = None,
    scalars: Optional[dict] = None,
    op: Optional[str] = None,
    kernel: str = "<kernel>",
) -> tuple[list[Diagnostic], set[int]]:
    """Run every rule over one trace.

    ``dims`` bounds the launch axes, ``shapes`` maps array argument
    positions to extents, ``scalars`` maps scalar argument positions to
    their concrete values (the specialization analogue — e.g. ``n`` in
    the flat LBM indexing), ``op`` is the reduce combine op or ``None``
    for a for-kernel.  Returns ``(diagnostics, used_scalar_positions)``;
    the second element supports value-insensitive caching upstream.
    """
    if dims is not None and len(dims) != trace.ndim:
        raise ValueError(
            f"dims {dims!r} does not match the trace's {trace.ndim}-D domain"
        )
    v = _Verifier(
        trace, dims=dims, shapes=shapes, scalars=scalars, op=op, kernel=kernel
    )
    return v.run(), v.used_scalars


def abstract_accesses(
    trace: N.Trace,
    *,
    dims: Optional[tuple] = None,
    shapes: Optional[dict] = None,
    scalars: Optional[dict] = None,
    kernel: str = "<kernel>",
) -> list:
    """Collect every store/load of one trace as affine accesses.

    Returns the verifier's raw access records — ``kind`` (``"store"`` |
    ``"load"``), ``array`` argument, per-axis affine ``forms`` (``None``
    = not affine), guard ``box`` — without running any diagnostic rule.
    Statically unreachable stores (infeasible guards under ``dims``) are
    dropped, exactly as the race rules see them.  This is the shared
    abstraction behind the per-plan memory-effects summaries
    (:mod:`repro.ir.effects`) and the translation validator
    (:mod:`repro.ir.validate`).
    """
    v = _Verifier(
        trace, dims=dims, shapes=shapes, scalars=scalars, op=None, kernel=kernel
    )
    v.collect()
    return v._accesses


def consumed_scalars(trace: N.Trace) -> tuple[int, ...]:
    """Positions of the scalar arguments whose *values* the analysis can
    read: those under a store or load index, a store guard or a select
    condition — the only expressions the affine abstraction is applied
    to.  Two launches that agree on these values (and on box and
    shapes) get the same verdict, whatever the other scalars hold."""

    def reachable(stack: list) -> Iterator[N.Node]:
        # One walk over the DAG: CSE-shared nodes are visited once.
        seen: set[int] = set()
        while stack:
            nd = stack.pop()
            if id(nd) not in seen:
                seen.add(id(nd))
                yield nd
                stack.extend(nd.children)

    roots: list[N.Node] = []
    for st in trace.stores:
        roots += st.indices
        if st.condition is not None:
            roots.append(st.condition)
    for nd in reachable(list(trace.expressions())):
        if isinstance(nd, N.Load):
            roots += nd.indices
        elif isinstance(nd, N.Select):
            roots.append(nd.cond)
    return tuple(
        sorted({nd.pos for nd in reachable(roots) if isinstance(nd, N.ScalarArg)})
    )


def lane_conflict(
    trace: N.Trace,
    *,
    dims: Optional[tuple],
    shapes: dict,
    scalars: dict,
    apart: bool = False,
) -> Optional[str]:
    """Proof that the lanes of one launch are independent, or why not.

    ``None`` is the proof: over the box ``dims`` (``None`` = bounded by
    the kernel's guards alone), with arrays of ``shapes`` and scalar
    ``scalars``, every access to a written array provably touches the
    in-range element its integer affine form names, and no store can
    meet another store or a load from a different lane — so any
    execution order of the lanes produces the same bits.  ``apart``
    adds that two stores of one array at different index nodes never
    write one element from one lane, which lets a lane's load take the
    value of its own earlier store past later stores to that array.  A
    string names the first access (pair) the analysis could not clear
    and why.

    This is the licence the native rung (:mod:`repro.ir.cgen`) lowers
    and runs a multi-store kernel as one loop nest under, so it is a
    proof obligation, not a diagnostic: it emits nothing, ignores the
    ``verify`` mode and ``@suppress``, and an unknown extent, a
    non-affine or non-integer index or an unbounded axis all refuse.
    The fact is monotone in the box — a proof serves every sub-box.
    """
    v = _Verifier(
        trace, dims=dims, shapes=shapes, scalars=scalars, op=None, kernel=""
    )
    v.collect()
    return v.lane_conflict(apart)


def _args_env(args: Sequence[Any]) -> tuple[dict, dict]:
    shapes: dict[int, tuple] = {}
    scalars: dict[int, Any] = {}
    for pos, a in enumerate(args):
        if isinstance(a, np.ndarray):
            shapes[pos] = tuple(a.shape)
        elif isinstance(a, np.generic):
            scalars[pos] = a.item()
        elif isinstance(a, numbers.Real):
            scalars[pos] = a
    return shapes, scalars


class LaunchRecords:
    """One compiled kernel's memo of everything that is a pure function
    of a launch *signature* — ``(dims, argument shapes, op, consumed
    scalar values)`` — rather than of the launch.

    ``verified`` maps a signature to its diagnostics (``disk`` holds
    the entries an earlier process published, promoted on first match);
    ``records`` maps ``(signature, backend token, schedule epoch, verify
    mode)`` to the staged :class:`~repro.core.plan.LaunchRecord` that
    :meth:`repro.core.backend.Backend.stage` builds once and every later
    launch of that signature reuses.  The scalars in a signature are
    those whose values the analysis can read (:func:`consumed_scalars` —
    so an ``alpha`` that never reaches an index or guard neither
    re-verifies nor re-stages a solver loop).
    """

    __slots__ = ("_trace", "_static", "verified", "disk", "records")

    #: Bound on ``records`` and ``verified`` each — a backstop for a
    #: sweep over sizes or a NaN-valued guard scalar (never equal to
    #: itself, so never a hit), not a tuning knob.
    MAX = 256

    def __init__(self, trace: Optional[N.Trace]):
        self._trace = trace
        self._static: Optional[tuple] = None
        self.verified: dict = {}
        self.disk: dict = {}
        self.records: dict = {}

    def _positions(self) -> tuple:
        """``(consumed scalar positions, written array positions)`` —
        ``None`` for an interpreter-tier kernel, which may write any
        array — walked out of the trace at the first launch (a kernel
        that is only ever replayed never asks)."""
        static, trace = self._static, self._trace
        if static is None:
            if trace is None:
                static = ((), None)
            else:
                static = (
                    consumed_scalars(trace),
                    tuple(dict.fromkeys(st.array.pos for st in trace.stores)),
                )
            self._static = static
        return static

    @property
    def scalars(self) -> tuple:
        """Positions of the scalars whose values a signature holds."""
        return (self._static or self._positions())[0]

    def signature(self, dims: tuple, args: Sequence[Any], op: Optional[str]) -> tuple:
        scalars = (self._static or self._positions())[0]
        return (
            dims,
            tuple([getattr(a, "shape", None) for a in args]),
            op,
            tuple([args[pos] for pos in scalars]) if scalars else (),
        )

    def written_ids(self, args: Sequence[Any]) -> tuple:
        """Storage ids of the arrays a launch over ``args`` stores to
        (every ndarray for an interpreter-tier kernel) — the key space
        of :mod:`repro.ir.writes`."""
        written = (self._static or self._positions())[1]
        if written is None:
            return tuple([id(a) for a in args if isinstance(a, np.ndarray)])
        return tuple(map(id, map(args.__getitem__, written)))

    def remember(self, memo: dict, key: tuple, value: Any) -> Any:
        if len(memo) >= self.MAX:
            memo.clear()
        memo[key] = value
        return value


def _verify_cached(kernel, dims, args, op) -> tuple[tuple, bool]:
    """Verify a :class:`~repro.ir.compile.CompiledKernel`, memoized per
    launch signature on ``kernel.launches``.  Returns ``(diagnostics,
    fresh)``."""
    if kernel.trace is None:
        diags = (
            Diagnostic(
                rule="V901",
                severity="info",
                kernel=getattr(kernel.fn, "__name__", repr(kernel.fn)),
                message=(
                    "kernel runs on the interpreter tier "
                    f"({kernel.fallback_reason or 'no trace'}); static "
                    "verification is not available"
                ),
            ),
        )
        return diags, False
    launches = kernel.launches
    sig = launches.signature(tuple(dims), args, op)
    diags = launches.verified.get(sig)
    if diags is not None:
        return diags, False
    # Persistent tier: diagnostics memoized by an earlier process travel
    # with the kernel's disk entry.  A match is promoted into the live
    # memo and reported as *fresh* — the counters tick and warn-mode
    # warns once, exactly as a cold verification would — but the
    # analysis itself is skipped.
    diags = launches.disk.pop(sig, None)
    if diags is not None:
        counters.record(diags)
        return launches.remember(launches.verified, sig, diags), True
    from . import compilecache

    compilecache.record_verify_run()
    shapes, scalars = _args_env(args)
    found, _ = verify_trace(
        kernel.trace,
        dims=tuple(dims),
        shapes=shapes,
        scalars=scalars,
        op=op,
        kernel=getattr(kernel.fn, "__name__", repr(kernel.fn)),
    )
    suppressed = set(getattr(kernel.fn, "__verify_suppress__", ()))
    if suppressed:
        found = [d for d in found if d.rule not in suppressed]
    diags = launches.remember(launches.verified, sig, tuple(found))
    counters.record(diags)
    # Write-back: republish the kernel's disk entry so warm processes
    # inherit this verification instead of re-running it.
    compilecache.note_verified(kernel)
    return diags, True


def verify_compiled(kernel, dims, args, op: Optional[str] = None) -> tuple:
    """Diagnostics for a compiled kernel at a concrete call signature
    (no enforcement — inspection surface)."""
    return _verify_cached(kernel, dims, args, op)[0]


def verify_launch(kernel, dims, args, op: Optional[str], mode: str) -> tuple:
    """Pipeline entry point: verify and enforce per ``mode``.

    ``error`` raises :class:`KernelVerificationError` when any
    error-severity diagnostic survives suppression (on every launch, not
    just the first); ``warn`` emits each fresh non-info finding once as
    a :class:`KernelVerificationWarning`.
    """
    diags, fresh = _verify_cached(kernel, dims, args, op)
    if mode == "error" and any(d.is_error for d in diags):
        raise KernelVerificationError(
            getattr(kernel.fn, "__name__", repr(kernel.fn)), diags
        )
    if mode == "warn" and fresh:
        for d in diags:
            if d.severity != "info":
                warnings.warn(str(d), KernelVerificationWarning, stacklevel=5)
    return diags


def verify_kernel(
    fn,
    dims,
    args: Sequence[Any],
    *,
    reduce: bool = False,
    op: str = "add",
) -> tuple:
    """Compile ``fn`` for the given call signature and verify it.

    The public one-call surface: compiles through the normal
    specialization ladder (shared trace cache) and returns the
    diagnostics tuple without enforcing any mode.

    >>> import numpy as np
    >>> def racy(i, x):
    ...     x[i] = x[i + 1]
    >>> [d.rule for d in verify_kernel(racy, 8, [np.zeros(9)])]
    ['V102']
    """
    from ..core.backend import normalize_dims
    from .compile import compile_kernel

    dims = normalize_dims(dims)
    ck = compile_kernel(fn, len(dims), args, reduce=reduce)
    return verify_compiled(
        ck, dims, list(args), op if (reduce or ck.is_reduction) else None
    )
