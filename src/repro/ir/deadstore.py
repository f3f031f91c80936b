"""Dead-store analysis for the verifier and the program IR.

* **intra-trace** (:func:`trace_dead_stores`, behind lint rule V401) —
  is a store inside one kernel trace overwritten by a later store to the
  same element before anything can read it?
* **per-node access sets** (:func:`loaded_positions` /
  :func:`overwritten_positions` / :func:`fully_overwritten_positions`) —
  which array arguments a trace loads, stores to, and fully overwrites;
  :mod:`repro.ir.program` builds its def-use edges from them and
  :mod:`repro.ir.effects` the V602 graph-level dead-store diagnostic.

The intra-trace scope rests on the soundness core below, which is
deliberately stricter than the heuristic V401 used before this module
existed.  A
later store ``kill`` only kills an earlier store ``dead`` to the same
element when one of these holds:

1. ``kill`` is **unconditional** — it overwrites regardless of guard
   state; or
2. the two guards are **structurally equal** *and* no store between them
   writes an array that the guard (or the shared element indices) loads
   — otherwise the guard can evaluate differently at the two program
   points, and the "dead" store survives on lanes where the killer's
   guard flipped.  (This intervening-writer check is exactly the false
   positive the old V401 emitted on guarded stores.)

And in every case nothing may *read* the stored element between the two
stores (reads in the killer's own guard/indices/value count — they
observe the pre-kill value).
"""

from __future__ import annotations

from typing import Iterable, Optional

from . import nodes as N
from .codegen import _static_identity

__all__ = [
    "struct_eq",
    "trace_dead_stores",
    "loaded_positions",
    "overwritten_positions",
    "fully_overwritten_positions",
]


def struct_eq(a: Optional[N.Node], b: Optional[N.Node]) -> bool:
    """Structural equality of two expressions (guards/indices)."""
    if a is b:
        return True
    if a is None or b is None:
        return False
    if type(a) is not type(b):
        return False
    if isinstance(a, N.Const):
        return type(a.value) is type(b.value) and a.value == b.value
    if isinstance(a, N.Index):
        return a.axis == b.axis
    if isinstance(a, N.ScalarArg):
        return a.pos == b.pos
    if isinstance(a, N.ArrayArg):
        return a.pos == b.pos and a.ndim == b.ndim
    if isinstance(a, N.Load):
        return a.array.pos == b.array.pos and all(
            struct_eq(x, y) for x, y in zip(a.indices, b.indices)
        )
    op_a = getattr(a, "op", None)
    kind_a = getattr(a, "kind", None)
    if op_a != getattr(b, "op", None) or kind_a != getattr(b, "kind", None):
        return False
    ca, cb = a.children, b.children
    return len(ca) == len(cb) and all(struct_eq(x, y) for x, y in zip(ca, cb))


def _loads_in(roots: Iterable[N.Node]) -> set[int]:
    """Array positions loaded anywhere under the given expression roots."""
    out: set[int] = set()
    for root in roots:
        for node in N.walk(root):
            if isinstance(node, N.Load):
                out.add(node.array.pos)
    return out


def loaded_positions(trace: N.Trace) -> frozenset[int]:
    """Array argument positions this trace loads from (anywhere: store
    indices, values, guards, and the result expression).

    The walk is linear in trace size but runs per program node per
    instantiate, so the result is memoized on the trace itself — and, because the
    memo slot pickles with the trace, a kernel rebuilt from the
    persistent compile cache inherits the analysis for free.
    """
    memo = getattr(trace, "_loaded_memo", None)
    if memo is None:
        memo = frozenset(_loads_in(trace.expressions()))
        trace._loaded_memo = memo
    return memo


def _store_roots(st: N.Store) -> list[N.Node]:
    roots: list[N.Node] = list(st.indices)
    roots.append(st.value)
    if st.condition is not None:
        roots.append(st.condition)
    return roots


def _reads_element_between(
    trace: N.Trace, pos: int, ia: int, ib: int
) -> bool:
    """Any load of array ``pos`` in stores ``ia+1..ib`` (their indices,
    guards and values) or in the trace result?

    The result expression is charged regardless of position: it is the
    reduce value the user observes, and staying conservative there keeps
    this analysis equivalent to the verifier's historical behavior.
    """
    roots: list[N.Node] = []
    for st in trace.stores[ia + 1 : ib + 1]:
        roots.extend(_store_roots(st))
    if trace.result is not None:
        roots.append(trace.result)
    return pos in _loads_in(roots)


def _guard_invariant_between(
    trace: N.Trace, sa: N.Store, sb: N.Store, ia: int, ib: int
) -> bool:
    """May ``sb``'s guard (struct-equal to ``sa``'s) and the shared
    indices be assumed to evaluate identically at both stores?

    False when any store strictly between them (or ``sa`` itself) writes
    an array the guard or the element indices load.
    """
    sensitive = _loads_in(
        list(sa.indices)
        + ([sa.condition] if sa.condition is not None else [])
    )
    if not sensitive:
        return True
    for st in trace.stores[ia : ib]:  # sa itself through the one before sb
        if st.array.pos in sensitive:
            return False
    return True


def trace_dead_stores(trace: N.Trace) -> list[tuple[int, int]]:
    """``(dead_index, killer_index)`` pairs of provably dead stores.

    A store is dead when a later store to the same element overwrites it
    before any read, per the rules in the module docstring.  Each dead
    store reports its earliest killer only.
    """
    out: list[tuple[int, int]] = []
    stores = trace.stores
    for i, sa in enumerate(stores):
        for j in range(i + 1, len(stores)):
            sb = stores[j]
            if sb.array.pos != sa.array.pos:
                continue
            if len(sa.indices) != len(sb.indices):
                continue
            if not all(
                struct_eq(x, y) for x, y in zip(sa.indices, sb.indices)
            ):
                continue
            if sb.condition is not None:
                if not struct_eq(sa.condition, sb.condition):
                    continue
                if not _guard_invariant_between(trace, sa, sb, i, j):
                    continue
            if _reads_element_between(trace, sa.array.pos, i, j):
                continue
            out.append((i, j))
            break
    return out


def overwritten_positions(trace: N.Trace) -> set[int]:
    """Array positions this trace stores to (any store)."""
    return {st.array.pos for st in trace.stores}


def fully_overwritten_positions(trace: N.Trace) -> set[int]:
    """Array positions the trace *fully* overwrites on every lane: at
    least one unconditional, static-identity store (``a[i] = ...`` /
    ``a[i, j] = ...`` on the launch axes).

    Combined with a launch domain that covers the array extent, such a
    store makes every prior value of the array unobservable — what the
    V602 diagnostic looks for.
    """
    return {
        st.array.pos
        for st in trace.stores
        if st.condition is None
        and _static_identity(st.indices, trace.ndim)
    }
