"""Kernel compilation driver: specialization ladder + trace cache.

This module mirrors Julia's method-specialization machinery for our
tracing JIT.  ``compile_kernel(fn, ndim, args, reduce=...)`` returns a
:class:`CompiledKernel` ready to execute, choosing the cheapest strategy
that works:

1. **Symbolic trace** — scalars stay symbolic, so one trace serves every
   future call with the same argument *types* (the common case; analogue
   of Julia specializing on types).
2. **Value-specialized trace** — if the kernel needs concrete scalar
   values (loop bounds, ``int()``), re-trace with scalars baked in as
   constants; the cache key then includes those values (analogue of
   ``Val{N}`` specialization).
3. **Interpreter** — if tracing still fails (unbounded control flow,
   unsupported constructs), fall back to the scalar reference executor.

Caching is keyed on the kernel function object plus an argument-type
signature; shape-dependent traces (kernels that call ``len``) include the
array shapes in the key.  Cache statistics are exposed for the
trace-cache ablation benchmark.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

import numpy as np

from .. import obs
from ..core.exceptions import ConcretizationRequired, TraceError, TraceFallback
from ..core.preferences import MODES
from . import compilecache
from . import nodes as N
from .arena import ChunkArena, ScratchArena
from . import writes
from .cgen import NativeDeclined, NativeKernel, try_lower_native
from .codegen import CodegenError, CodegenProgram, lower_trace
from .interpreter import interpret_for, interpret_reduce
from .nativecache import record_decline
from .optimize import optimize_trace
from .stats import TraceStats, analyze
from .tracer import trace_kernel
from .verify import LaunchRecords
from .vectorizer import IndexDomain, execute_trace, fold_partials, reduce_trace

__all__ = [
    "CompiledKernel",
    "KernelCache",
    "compile_kernel",
    "clear_cache",
    "cache_info",
    "executor_mode",
    "set_executor_mode",
]


@dataclass(frozen=True)
class CompiledKernel:
    """An executable kernel: either a vectorizable trace or an
    interpreter-bound Python function.

    Attributes
    ----------
    fn:
        The original kernel function (always kept — the interpreter and
        diagnostics need it).
    ndim:
        Launch-domain rank.
    mode:
        ``"native"``, ``"native-specialized"``, ``"codegen"``,
        ``"codegen-specialized"``, ``"vector"``,
        ``"vector-specialized"`` or ``"interpreter"``.
    trace:
        The IR trace (``None`` in interpreter mode).
    stats:
        Static work analysis (interpreter mode gets a conservative
        placeholder with ``n_paths = 0``).
    fallback_reason:
        Why the ladder descended, for diagnostics (``None`` for plain
        codegen/vector mode).
    codegen:
        The generated straight-line NumPy program (codegen and native
        modes — native keeps it as the per-call fallback rung).
    native:
        The compiled C kernel (native modes only).  Every native kernel
        also carries its codegen program: a call that fails the native
        run-time pre-flight falls through to codegen silently.
    launches:
        This kernel's per-signature launch memo
        (:class:`~repro.ir.verify.LaunchRecords`): diagnostics, staged
        schedule and modeled cost, looked up once per launch.
    """

    fn: Callable
    ndim: int
    mode: str
    trace: Optional[N.Trace]
    stats: TraceStats
    fallback_reason: Optional[str] = None
    codegen: Optional[CodegenProgram] = None
    native: Optional[NativeKernel] = None
    launches: LaunchRecords = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "launches", LaunchRecords(self.trace))

    @property
    def is_reduction(self) -> bool:
        if self.trace is not None:
            return self.trace.is_reduction
        return True  # interpreter kernels are checked at run time

    def run_for(
        self,
        domain: IndexDomain,
        args: Sequence[Any],
        arena: Optional[ScratchArena] = None,
    ) -> None:
        """Execute as a ``parallel_for`` body over ``domain``.

        ``arena`` supplies scratch buffers to the generated program
        (ignored by the IR-walk and interpreter tiers); ``None`` uses the
        process-default arena.  The trace-based rungs run
        ``domain.tiles`` one after another so their temporaries stay
        cache-resident; the native C loop has no temporaries and takes
        the whole chunk in one call.
        """
        if self.native is not None:
            try:
                self.native.run_for(domain, args, arena)
                return
            except NativeDeclined as exc:
                # Per-call ineligibility (aliasing, extent, dtype drift,
                # a unit still compiling): record and fall through to the
                # codegen program — the pre-flight ran before any side effect.
                if not exc.recorded:
                    record_decline(exc.reason)
        if self.trace is None:
            interpret_for(self.fn, domain, args)
            return
        program, tiles = self.codegen, domain.tiles
        if len(tiles) > 1:
            arena = ChunkArena(arena)
        for tile in tiles:
            if program is not None:
                program.run_for(tile, args, arena)
            else:
                execute_trace(self.trace, tile, args)

    def run_reduce(
        self,
        domain: IndexDomain,
        args: Sequence[Any],
        op: str = "add",
        arena: Optional[ScratchArena] = None,
    ) -> float:
        """Execute as a ``parallel_reduce`` body over ``domain``.

        Every rung reduces ``domain.tiles`` one by one and the partials
        are folded with ``op`` in tile order, so the rungs agree bitwise
        on domains of any size.  The native kernel walks the tiles of
        the whole chunk itself, behind one pre-flight.
        """
        if self.trace is None:
            return interpret_reduce(self.fn, domain, args, op)
        if self.native is not None:
            try:
                return self.native.run_reduce(domain, args, op, arena)
            except NativeDeclined as exc:
                # Raised by the pre-flight, before any tile has run.
                if not exc.recorded:
                    record_decline(exc.reason)
        program, tiles = self.codegen, domain.tiles
        if len(tiles) > 1:
            arena = ChunkArena(arena)
        if program is not None:
            partials = [program.run_reduce(tile, args, op, arena) for tile in tiles]
        else:
            partials = [reduce_trace(self.trace, tile, args, op) for tile in tiles]
        return fold_partials(op, partials)


def _scalar_value(a: Any) -> Any:
    return a.item() if isinstance(a, np.generic) else a


def _fn_key(fn: Callable) -> Any:
    """The function component of a kernel cache key.

    Plain (closure-free) kernels key on the function object itself —
    the cheapest stable identity.  Closures need more care, in both
    directions:

    * a kernel *factory* returns a fresh function object per call, so
      identity-keying re-traces a kernel whose captured ``alpha`` merely
      changed Python identity, not value (signature churn — and graph
      replay depends on stable keys);
    * rebinding a closure cell on the *same* function object would
      silently reuse a trace specialized on the old captured value.

    Both are fixed by keying closures structurally: module + qualname +
    code object + the captured cell values, with scalar cells normalized
    to their *values* and everything else (arrays, objects) to identity.
    """
    cells = getattr(fn, "__closure__", None)
    if not cells:
        return fn
    parts = []
    for cell in cells:
        try:
            v = cell.cell_contents
        except ValueError:  # not-yet-filled cell (self-referential defs)
            parts.append(("empty",))
            continue
        v = _scalar_value(v)
        if isinstance(v, (bool, int, float, complex, str, bytes)) or v is None:
            parts.append(("val", type(v).__name__, v))
        else:
            parts.append(("id", id(v)))
    return (fn.__module__, fn.__qualname__, fn.__code__, tuple(parts))


def _type_signature(args: Sequence[Any]) -> tuple:
    """Type-level signature: array ``(rank, dtype)``, scalar Python type."""
    return tuple(
        [
            (a.ndim, a.dtype) if isinstance(a, np.ndarray) else type(_scalar_value(a))
            for a in args
        ]
    )


def _shape_signature(args: Sequence[Any]) -> tuple:
    return tuple(a.shape if isinstance(a, np.ndarray) else None for a in args)


def _value_signature(args: Sequence[Any]) -> tuple:
    sig = []
    for a in args:
        if isinstance(a, np.ndarray):
            sig.append(None)
            continue
        v = _scalar_value(a)
        try:
            hash(v)
        except TypeError:
            # Unhashable exotic argument (dict, list, ...): key on object
            # identity — the kernel runs interpreted anyway, and a fresh
            # object simply recompiles.
            v = ("unhashable", id(a))
        sig.append(v)
    return tuple(sig)


def _ladder_key(
    fn: Callable,
    ndim: int,
    reduce: bool,
    executor: str,
    args: Sequence[Any],
    rung: str = "base",
    base: Optional[tuple] = None,
) -> tuple:
    """The memory key of one rung of the specialization ladder: ``base``
    (type-specialized), ``shape`` (the kernel observed ``len()``/shape)
    or ``value`` (it needed concrete scalars).  ``base`` is the base
    rung's key when the caller already holds it."""
    if base is None:
        base = (_fn_key(fn), ndim, bool(reduce), executor, _type_signature(args))
    if rung == "base":
        return base
    shape = base + ("shape", _shape_signature(args))
    return shape if rung == "shape" else shape + ("values", _value_signature(args))


@dataclass
class KernelCache:
    """Per-process cache of compiled kernels.

    Thread-safe: applications may issue constructs from several Python
    threads (e.g. one per simulated device); lookups and stores hold one
    lock.  A duplicate compile race is benign — both threads produce
    equivalent CompiledKernels and the last store wins.
    """

    entries: dict = field(default_factory=dict)
    hits: int = 0
    misses: int = 0
    #: Instantiated launch-graph *structures* (see
    #: :meth:`repro.graph.capture.LaunchGraph.instantiate`) and driven
    #: loops' templates (:mod:`repro.graph.loop`), oldest first.  They
    #: live here because their keys hold the ``id()`` of this cache's
    #: :class:`CompiledKernel` objects: dropping the kernels drops every
    #: structure and template built over them.
    structures: dict = field(default_factory=dict, repr=False)
    #: The warm-launch table: an eager launch's whole signature (see
    #: :func:`repro.core.api._stage`) → ``(kernel, consumed scalar
    #: positions, {their values: LaunchRecord})``, so a warm launch is
    #: one look-up.  Filled only after a full stage, never for a
    #: value-specialized or interpreter-tier kernel.
    launches: dict = field(default_factory=dict, repr=False)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    #: Bound on ``structures`` — a backstop against key churn (a solver
    #: sweeping problem sizes), not a tuning knob: the apps hold three
    #: to five structures per problem size.
    MAX_STRUCTURES = 64

    def find(
        self,
        fn: Callable,
        ndim: int,
        args: Sequence[Any],
        reduce: bool,
        executor: str,
        *,
        count: bool = False,
    ) -> Optional[CompiledKernel]:
        """The kernel this cache's memory holds for this call under
        ``executor``, walking the specialization ladder's three rungs
        (:func:`_ladder_key`), or ``None``.  It never compiles or reads
        disk.  With ``count`` the walk is one look-up: a hit counts, and
        so does a miss (:func:`compile_kernel` counts; the loop unit's
        dry recording does not)."""
        entries = self.entries  # a dict get needs no lock
        base = _ladder_key(fn, ndim, reduce, executor, args)
        ck = entries.get(base)
        if ck is None:
            ck = entries.get(_ladder_key(fn, ndim, reduce, executor, args, "shape", base))
            if ck is None:
                ck = entries.get(_ladder_key(fn, ndim, reduce, executor, args, "value", base))
        if count:
            with self._lock:
                if ck is not None:
                    self.hits += 1
                else:
                    self.misses += 1
        return ck

    def find_launch(self, key: tuple, args: Sequence[Any]) -> Optional[tuple]:
        """``(kernel, record)`` the warm-launch table holds for ``key``
        and the values of ``args`` at the kernel's consumed scalar
        positions, or ``None``.  A hit counts one memory hit, as the
        ladder walk it stands in for would."""
        entry = self.launches.get(key)
        if entry is None:
            return None
        kernel, scalars, records = entry
        record = records.get(tuple([args[pos] for pos in scalars]) if scalars else ())
        if record is None:
            return None
        with self._lock:
            self.hits += 1
        return kernel, record

    def store_launch(self, key: tuple, kernel: CompiledKernel, record, args) -> None:
        """File a fully staged launch under ``key`` in the table, which
        is bounded like a kernel's launch records
        (:attr:`repro.ir.verify.LaunchRecords.MAX` entries, each of as
        many records)."""
        if kernel.trace is None or kernel.mode.endswith("-specialized"):
            return  # the value rung and the interpreter stay on the ladder
        scalars = kernel.launches.scalars
        values = tuple([args[pos] for pos in scalars])
        with self._lock:
            entry = self.launches.get(key)
            if entry is None or entry[0] is not kernel:
                if len(self.launches) >= LaunchRecords.MAX:
                    self.launches.clear()
                entry = self.launches[key] = (kernel, scalars, {})
            records = entry[2]
            if len(records) >= LaunchRecords.MAX:
                records.clear()
            records[values] = record

    def store(self, key: tuple, ck: CompiledKernel) -> None:
        with self._lock:
            self.entries[key] = ck

    def structure(self, key: tuple):
        """The launch-graph structure stored under ``key``, or ``None``."""
        with self._lock:
            return self.structures.get(key)

    def store_structure(self, key: tuple, structure) -> None:
        with self._lock:
            while len(self.structures) >= self.MAX_STRUCTURES:
                del self.structures[next(iter(self.structures))]
            self.structures[key] = structure

    def clear(self) -> None:
        with self._lock:
            self.entries.clear()
            self.structures.clear()
            self.launches.clear()
            self.hits = 0
            self.misses = 0

    def stats(self) -> dict:
        """A consistent snapshot of size/hits/misses.

        All three counters are read under the cache lock so concurrent
        compiles can never produce a torn view (e.g. a hit counted
        against the previous size).
        """
        with self._lock:
            return {
                "size": len(self.entries),
                "hits": self.hits,
                "misses": self.misses,
            }


_CACHE = KernelCache()


def resolve_cache(cache: Optional[KernelCache] = None) -> KernelCache:
    """``cache`` itself, or the process-global cache for ``None`` (what
    an unscoped ``ExecutionContext.kernel_cache`` means)."""
    return _CACHE if cache is None else cache


def clear_cache(cache: Optional[KernelCache] = None) -> None:
    """Drop all compiled kernels (tests / ablation benchmarks).

    Clears the process-global cache by default; pass a context-scoped
    :class:`KernelCache` to clear that one instead.
    """
    resolve_cache(cache).clear()
    if cache is None:
        # Process-global clear also drops the write-version table;
        # outstanding graph snapshots see the epoch bump and rebind.
        writes.reset()


def cache_info(cache: Optional[KernelCache] = None) -> dict:
    """Return cache statistics: size, hits, misses (locked snapshot),
    plus five process-wide counter blocks as their public views:
    ``"graph"`` (:func:`repro.graph.graph_stats`), ``"verify"``
    (:data:`repro.ir.diagnostics.counters`), ``"native"``
    (:func:`repro.ir.nativecache.native_stats` — every decline class,
    link/load-time failures included), ``"disk"``
    (:func:`repro.ir.compilecache.disk_stats`) and ``"cluster"``
    (:func:`repro.backends.cluster.cluster_stats`).  The fields of each
    block are listed once, in docs/API.md "Counter blocks".

    Reports on the process-global cache by default; pass a
    context-scoped :class:`KernelCache` to inspect that one instead.
    """
    info = resolve_cache(cache).stats()
    for name in ("graph", "verify", "native", "disk", "cluster"):
        info[name] = obs.stats(name)
    return info


def _analyze_or_placeholder(trace: Optional[N.Trace]) -> TraceStats:
    if trace is None:
        return TraceStats(loads=0.0, stores=0.0, flops=0.0, n_paths=0)
    return analyze(trace)


#: The ``executor`` knob (``PYACC_EXECUTOR``, see
#: :data:`repro.core.preferences.MODES`): ``executor_mode()`` is the
#: strategy in effect, ``set_executor_mode(mode | None)`` the
#: process-wide override (ablation/tests).
_EXECUTOR = MODES["executor"]
executor_mode = _EXECUTOR.get
set_executor_mode = _EXECUTOR.set


def compile_kernel(
    fn: Callable,
    ndim: int,
    args: Sequence[Any],
    *,
    reduce: bool = False,
    max_paths: Optional[int] = None,
    cache: Optional[KernelCache] = None,
    executor: Optional[str] = None,
) -> CompiledKernel:
    """Compile (or fetch from cache) a kernel for the given call site.

    ``args`` are the runtime arguments; only their types (and, when the
    ladder requires it, shapes/values) enter the cache key.  ``cache``
    selects the :class:`KernelCache` to consult — ``None`` (the default)
    uses the process-global cache; execution contexts may scope a private
    one (see :mod:`repro.core.context`).  ``executor`` pins the execution
    strategy for this call
    (``native``/``codegen``/``vector``/``interpreter``); ``None`` uses
    :func:`executor_mode`.
    """
    if cache is None:
        cache = _CACHE
    if executor is None:
        executor = executor_mode()
    else:
        _EXECUTOR.check(executor)
    # 1-3. The generic, shape- and value-specialized memory entries; a
    # miss on all three is *the* cache miss for this call.
    ck = cache.find(fn, ndim, args, reduce, executor, count=True)
    if ck is not None:
        return ck

    # 4. Persistent tier (PYACC_COMPILE_CACHE): rebuild from an entry
    # published by an earlier process — no tracing, verification, or
    # lowering.  Kernels the fingerprint cannot content-address
    # (closures over large arrays, exotic globals) return ``None`` keys
    # and simply compile as before.
    pkeys = compilecache.kernel_keys(
        fn, ndim, bool(reduce), executor, args, max_paths
    )
    if pkeys is not None:
        ck, disk_rung = compilecache.load_kernel(pkeys, fn)
        if ck is not None:
            cache.store(_ladder_key(fn, ndim, reduce, executor, args, disk_rung), ck)
            return ck
    compilecache.record_compile()

    kwargs = {} if max_paths is None else {"max_paths": max_paths}
    trace: Optional[N.Trace] = None
    mode = "vector"
    reason: Optional[str] = None
    if executor == "interpreter":
        # Forced scalar execution (ablation baseline): skip tracing.
        mode = "interpreter"
        reason = "executor=interpreter (forced scalar execution)"
    else:
        try:
            trace = trace_kernel(fn, ndim, args, **kwargs)
        except ConcretizationRequired as exc:
            reason = str(exc)
            try:
                trace = trace_kernel(
                    fn, ndim, args, concretize_scalars=True, **kwargs
                )
                mode = "vector-specialized"
            except TraceError as exc2:
                reason = f"{reason}; then: {exc2}"
                trace = None
                mode = "interpreter"
        except TraceFallback as exc:
            reason = str(exc)
            trace = None
            mode = "interpreter"
        except TraceError as exc:
            reason = str(exc)
            trace = None
            mode = "interpreter"

    if trace is not None and reduce and trace.result is None:
        raise TraceError(
            f"kernel {getattr(fn, '__name__', fn)!r} was used with "
            "parallel_reduce but returns no value on any path"
        )
    if trace is not None:
        # JIT middle-end: constant folding, identities, hash-consing
        # (see repro.ir.optimize).  Semantics-preserving by construction;
        # the differential suite runs compiled (optimized) kernels
        # against the interpreter.
        trace = optimize_trace(trace)
    if trace is not None and not reduce and trace.result is not None:
        # A for-kernel that returns a value is legal (the value is simply
        # discarded), matching JACC's parallel_for semantics.
        trace = N.Trace(
            ndim=trace.ndim,
            stores=trace.stores,
            result=None,
            array_args=trace.array_args,
            scalar_args=trace.scalar_args,
            const_args=trace.const_args,
            n_paths=trace.n_paths,
            shape_dependent=trace.shape_dependent,
            implicit_return_paths=0,
        )

    codegen: Optional[CodegenProgram] = None
    native: Optional[NativeKernel] = None
    if executor in ("codegen", "native") and trace is not None:
        # Codegen rung: lower the optimized trace to straight-line NumPy
        # source.  A lowering failure is not an error — the IR walk runs
        # the same trace, just slower.  The native executor lowers this
        # rung too: it is the per-call fallback under the C kernel.
        try:
            codegen = lower_trace(trace, args)
            mode = "codegen" if mode == "vector" else "codegen-specialized"
        except CodegenError as exc:
            reason = (
                f"{reason}; codegen declined: {exc}"
                if reason
                else f"codegen declined: {exc}"
            )
    nreason: Optional[str] = None
    if executor == "native" and codegen is not None:
        # Top rung: compile the trace to a C shared object.  Declines
        # (unsupported op/dtype, missing compiler, compile failure) are
        # recorded in the native counters and the kernel stays codegen.
        native, nreason = try_lower_native(trace, args, _defer=True)
        if native is not None:
            nreason = None
            mode = "native" if mode == "codegen" else "native-specialized"
        else:
            reason = (
                f"{reason}; native declined: {nreason}"
                if reason
                else f"native declined: {nreason}"
            )

    ck = CompiledKernel(
        fn=fn,
        ndim=ndim,
        mode=mode,
        trace=trace,
        stats=_analyze_or_placeholder(trace),
        fallback_reason=reason,
        codegen=codegen,
        native=native,
    )
    if nreason is not None:
        # Remember the native decline reason so a warm disk load can
        # replay it into the decline taxonomy (counter parity).
        object.__setattr__(ck, "_native_decline", nreason)

    specialized = mode in (
        "vector-specialized",
        "codegen-specialized",
        "native-specialized",
    )
    if trace is not None and not specialized and not trace.shape_dependent:
        disk_rung = "base"
    elif trace is not None and not specialized:
        disk_rung = "shape"
    else:
        # Value-specialized traces and interpreter fallbacks: cache under
        # the value key so a different scalar value (e.g. a different
        # loop bound) recompiles.
        disk_rung = "value"
    cache.store(_ladder_key(fn, ndim, reduce, executor, args, disk_rung), ck)
    if pkeys is not None:
        compilecache.store_kernel(pkeys, disk_rung, ck)
    return ck
