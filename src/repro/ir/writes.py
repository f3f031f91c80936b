"""Global write-version tracking for launch-graph hoisting.

:class:`~repro.ir.codegen.HoistedProgram` folds loads from
replay-invariant ("const") arrays into a prologue that runs once per
instantiation.  An array is only provably const if *nothing* writes it
between replays — and writers include sibling graphs and uncaptured
launches, which the instantiating graph cannot see.  This module is the
soundness backstop: every executed plan notes the arrays it stores to
(:func:`note_writes`, called from the execute stage), each instantiated
graph snapshots the versions of the arrays it assumed const
(:func:`versions_of`), and every replay re-validates the snapshot —
demoting (re-lowering without) any array some other launch has written
since.

Writes that bypass the dispatch pipeline entirely (host-side numpy
mutation of device storage after ``repro.array``) are outside the
contract — the same discipline CUDA graphs demand, where captured
operands may only be updated through graph-legal APIs.

The version table is **process-local** by construction.  A cluster
worker process (:mod:`repro.backends.cluster`) inherits a fork-time
copy and runs its shard against shared-memory views, so any
``note_writes`` it performs lands in the *worker's* table and is
discarded with the worker.  That is sound only because shard results
are committed through the parent: the cluster backend's execute stage
returns before the dispatch layer calls ``note_writes`` in the parent
process, so every array a sharded launch stores to is versioned here —
in the same table the parent's graph snapshots read — exactly as if the
launch had run in-process.  Backends that commit results any other way
must call :func:`note_writes` themselves or const-array hoisting would
replay stale values.

Versions are process-global monotonic integers keyed by storage ``id``.
Snapshots embed an *epoch*; :func:`reset` (wired into
``repro.clear_cache``) bumps it, which invalidates every outstanding
snapshot conservatively (graphs rebind their prologues instead of
trusting stale values).
"""

from __future__ import annotations

from typing import Iterable

__all__ = ["note_writes", "versions_of", "reset"]

_versions: dict[int, int] = {}
_epoch = 0
_clock = 0

# Backstop against unbounded growth in long-running processes that churn
# through many distinct arrays; hitting it just forces prologue rebinds.
_MAX_ENTRIES = 1_000_000


def note_writes(ids: Iterable[int], count: int = 1) -> None:
    """Record that the arrays with these storage ids were written, by
    the last of ``count`` launches: the clock advances by ``count``."""
    global _clock
    _clock += count
    version = _clock
    for i in ids:
        _versions[i] = version
    if len(_versions) > _MAX_ENTRIES:  # pragma: no cover - backstop
        reset()


def versions_of(ids: Iterable[int]) -> tuple:
    """Snapshot ``(epoch, per-id versions)`` for later comparison."""
    return (_epoch, tuple(_versions.get(i, 0) for i in ids))


def reset() -> None:
    """Forget all versions and invalidate outstanding snapshots."""
    global _epoch
    _versions.clear()
    _epoch += 1
