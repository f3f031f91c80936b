"""Process-wide counter blocks: one class, one registry.

Every layer that tallies activity (graph captures, cluster shards,
native declines, fault retries, ...) declares a :class:`Counters` block
here instead of hand-rolling a lock, a dict and a ``_bump``.  A block is
*fields* (plain integer totals) plus optional *keyed groups* (open-ended
``{key: count}`` tallies such as decline reasons or diagnostic rules),
all under one per-block lock.

Blocks that are part of the public reporting surface are
:func:`register`\\ ed with the view that shapes them
(``graph_stats``, ``disk_stats``, ...); :func:`stats` is how
``cache_info()`` reads them without importing their owners.

Leaf module: standard library only, imports nothing from ``repro``.
"""

from __future__ import annotations

import threading
from typing import Callable, Iterable, Optional

__all__ = ["Counters", "register", "blocks", "stats"]


class Counters:
    """A named block of integer counters under one lock.

    ``fields`` are fixed at construction; ``keyed`` names the groups
    whose keys appear on first :meth:`bump_key`.  ``bump`` is called per
    launch on hot paths — it is one lock acquisition and one add.
    """

    __slots__ = ("name", "_lock", "_fields", "_groups")

    def __init__(self, name: str, fields: Iterable[str], keyed: Iterable[str] = ()):
        self.name = name
        self._lock = threading.Lock()
        self._fields = dict.fromkeys(fields, 0)
        self._groups: dict[str, dict] = {group: {} for group in keyed}

    def bump(self, field: str, n: int = 1) -> None:
        with self._lock:
            self._fields[field] += n

    def bump_key(self, group: str, key, n: int = 1) -> None:
        with self._lock:
            tally = self._groups[group]
            tally[key] = tally.get(key, 0) + n

    def snapshot(self) -> dict:
        """A consistent copy: every field, then every group as a fresh
        dict sorted by key (later bumps never mutate a snapshot)."""
        with self._lock:
            out = dict(self._fields)
            for group, tally in self._groups.items():
                out[group] = dict(sorted(tally.items()))
            return out

    def reset(self) -> None:
        with self._lock:
            for field in self._fields:
                self._fields[field] = 0
            for tally in self._groups.values():
                tally.clear()


_REGISTRY: dict[str, tuple[Counters, Callable[[], dict]]] = {}


def register(block: Counters, view: Optional[Callable[[], dict]] = None) -> Counters:
    """File ``block`` under its name and return it.  ``view`` is the
    public ``*_stats()`` function that shapes the block for reporting
    (default: the plain :meth:`Counters.snapshot`)."""
    _REGISTRY[block.name] = (block, view or block.snapshot)
    return block


def blocks() -> dict:
    """``{name: Counters}`` for every registered block."""
    return {name: block for name, (block, _view) in _REGISTRY.items()}


def stats(name: str) -> dict:
    """The registered view of block ``name``."""
    return _REGISTRY[name][1]()
