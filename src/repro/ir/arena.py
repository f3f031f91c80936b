"""Scratch-buffer arena: recycled temporaries for generated kernels.

The codegen executor (:mod:`repro.ir.codegen`) writes every full-domain
temporary with ``out=`` into a preallocated buffer instead of letting each
ufunc allocate a fresh result array.  Iterative solvers issue hundreds of
identical launches (HPCCG/CG run the same AXPY/DOT/matvec shapes every
iteration), so without reuse the allocator is churned with the same
``(shape, dtype)`` requests over and over — pure overhead the paper's
LLVM-compiled kernels never pay.

Design
------
* A :class:`ScratchArena` keeps per-``(shape, dtype)`` free-lists of
  buffers.  Arenas are **per execution context** (see
  :class:`repro.core.context.ExecutionContext`), so concurrent tenants
  never exchange buffers; a process-wide default arena backs direct
  ``CompiledKernel.run_for`` calls made outside any context.
* A launch acquires buffers through an :class:`ArenaFrame` and releases
  them all when the launch finishes.  The threads backend opens **one
  frame per worker chunk** (a chunk's tiles share it through a
  :class:`ChunkArena`, recycling tile-sized buffers): frames draw from
  the shared pool under the arena lock, but a buffer belongs to exactly
  one frame while in flight, so chunked execution shares nothing (the
  verifier's V101/V102 analysis already guarantees chunk independence at
  the kernel level; the arena preserves it at the allocator level).
* Statistics (buffers created/reused, bytes saved) are kept per arena and
  aggregated process-wide for the bench harness's ``--json`` output.
* Arenas, frames, and the aggregate counters are **process-local**.  A
  cluster worker (:mod:`repro.backends.cluster`) builds its *own*
  ``ScratchArena`` after fork and never returns buffers across the
  process boundary: shard results travel only through the shared-memory
  argument segments (or the pickled partials of a reduce), which the
  parent commits explicitly.  Nothing an arena hands out may be assumed
  visible to, or reclaimable by, another process — worker counters die
  with the worker, and the parent's ``global_stats`` only reflect
  parent-side execution.
"""

from __future__ import annotations

import threading
from typing import Optional

import numpy as np

from ..obs import Counters, register

__all__ = ["ScratchArena", "ArenaFrame", "default_arena", "global_stats"]

_F8_STR = np.dtype(np.float64).str


#: Process-wide aggregate across every arena (bench reporting).
_GLOBAL = Counters(
    "arena",
    ("buffers_created", "buffers_reused", "bytes_allocated", "bytes_saved"),
)
register(_GLOBAL)


def global_stats() -> dict:
    """Process-wide arena activity (all arenas, since process start)."""
    return _GLOBAL.snapshot()


def _count_created(buf: np.ndarray) -> None:
    _GLOBAL.bump("buffers_created")
    _GLOBAL.bump("bytes_allocated", buf.nbytes)


class ArenaFrame:
    """The buffers one launch (or one worker chunk) has checked out.

    ``take(shape, dtype)`` returns a C-contiguous scratch array drawn from
    the arena's pool (or freshly allocated on a pool miss); ``release()``
    returns every taken buffer to the pool.  Frames are not thread-safe —
    each worker owns its own frame, which is the whole point.
    """

    __slots__ = ("_arena", "_taken")

    def __init__(self, arena: "ScratchArena"):
        self._arena = arena
        self._taken: list[tuple[tuple, np.ndarray]] = []

    def take(self, shape: tuple, dtype=np.float64) -> np.ndarray:
        # Generated kernels take float64 scratch on every launch; skip
        # the np.dtype round-trip on that hot path.
        if dtype is np.float64:
            key = (shape, _F8_STR)
        else:
            key = (shape, np.dtype(dtype).str)
        buf = self._arena._pop(key, shape, dtype)
        self._taken.append((key, buf))
        return buf

    def release(self) -> None:
        if self._taken:
            self._arena._push_all(self._taken)
            self._taken = []

    # Context-manager sugar for direct users/tests.
    def __enter__(self) -> "ArenaFrame":
        return self

    def __exit__(self, *exc) -> None:
        self.release()


class ScratchArena:
    """Pooled scratch buffers keyed by ``(shape, dtype)``.

    Thread-safe: pops and pushes hold one lock; the arrays themselves are
    only ever visible to one frame at a time.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._pools: dict[tuple, list[np.ndarray]] = {}
        self._created = 0
        self._reused = 0
        self._bytes_allocated = 0
        self._bytes_saved = 0
        #: Fault-injection hook (see :mod:`repro.faults`): the owning
        #: execution context sets this when a plan is installed, so
        #: frame opens can inject allocation failures even from worker
        #: threads (where contextvars do not resolve the context).  The
        #: attribute check is the entire fast-path cost when off.
        self._fault_plan = None

    def frame(self) -> ArenaFrame:
        """Open a frame for one launch / worker chunk.

        Fault seam ``arena.frame``: fires before any buffer is drawn, so
        an injected allocation failure leaves the pool untouched and the
        launch can be retried cleanly.
        """
        if self._fault_plan is not None:
            self._fault_plan.check("arena.frame")
        return ArenaFrame(self)

    def reserve(self, shapes_dtypes) -> int:
        """Pre-size the pools for a known launch sequence.

        ``shapes_dtypes`` is an iterable of ``(shape, dtype)`` pairs, one
        per scratch buffer the sequence may hold *concurrently* —
        duplicates mean that many buffers of that key.  Pools are topped
        up so at least that many free buffers exist per key; buffers
        already pooled are counted toward the requirement.  Returns the
        number of buffers allocated.

        Instantiated launch graphs (:mod:`repro.graph`) call this so
        ``replay()`` draws every ``out=`` temporary from a warm pool —
        zero arena growth on the hot path (asserted in tests).
        """
        need: dict[tuple, int] = {}
        for shape, dtype in shapes_dtypes:
            key = (tuple(shape), np.dtype(dtype).str)
            need[key] = need.get(key, 0) + 1
        created = 0
        for key, count in need.items():
            shape, dtype_str = key
            with self._lock:
                missing = count - len(self._pools.get(key, ()))
            for _ in range(missing):
                buf = np.empty(shape, dtype=np.dtype(dtype_str))
                with self._lock:
                    self._pools.setdefault(key, []).append(buf)
                    self._created += 1
                    self._bytes_allocated += buf.nbytes
                _count_created(buf)
                created += 1
        return created

    # -- pool mechanics (called by frames) ---------------------------------
    def _pop(self, key: tuple, shape: tuple, dtype) -> np.ndarray:
        with self._lock:
            pool = self._pools.get(key)
            if pool:
                buf = pool.pop()
                self._reused += 1
                self._bytes_saved += buf.nbytes
                _GLOBAL.bump("buffers_reused")
                _GLOBAL.bump("bytes_saved", buf.nbytes)
                return buf
        buf = np.empty(shape, dtype=dtype)
        with self._lock:
            self._created += 1
            self._bytes_allocated += buf.nbytes
        _count_created(buf)
        return buf

    def _push_all(self, taken: list[tuple[tuple, np.ndarray]]) -> None:
        with self._lock:
            for key, buf in taken:
                self._pools.setdefault(key, []).append(buf)

    # -- introspection ------------------------------------------------------
    def stats(self) -> dict:
        """Locked snapshot: live buffer count + reuse counters."""
        with self._lock:
            live = sum(len(v) for v in self._pools.values())
            return {
                "buffers_live": live,
                "buffers_created": self._created,
                "buffers_reused": self._reused,
                "bytes_allocated": self._bytes_allocated,
                "bytes_saved": self._bytes_saved,
            }

    def clear(self) -> None:
        """Drop pooled buffers (tests / memory pressure)."""
        with self._lock:
            self._pools.clear()


class ChunkArena:
    """The arena as the tiles of one chunk see it: one shared frame.

    A chunk larger than a tile runs its program once per tile (see
    :attr:`repro.ir.vectorizer.IndexDomain.tiles`).  The first tile that
    asks opens the chunk's frame — one ``arena.frame`` fault probe per
    chunk, exactly as without tiling — and later tiles re-enter it; each
    program still releases its buffers when its tile is done, so the next
    tile draws the same cache-warm buffers back.
    """

    __slots__ = ("_arena", "_frame")

    def __init__(self, arena: Optional[ScratchArena]):
        self._arena = resolve(arena)
        self._frame: Optional[ArenaFrame] = None

    def frame(self) -> ArenaFrame:
        if self._frame is None:
            self._frame = self._arena.frame()
        return self._frame


#: Fallback arena for kernel executions issued outside any execution
#: context (direct ``CompiledKernel.run_for`` calls, the ka layer).
_DEFAULT = ScratchArena()


def default_arena() -> ScratchArena:
    return _DEFAULT


def resolve(arena: Optional[ScratchArena]) -> ScratchArena:
    """The arena to use for a launch: the given one, else the default."""
    return arena if arena is not None else _DEFAULT
