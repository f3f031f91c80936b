"""Native-executor compiler driver and content-addressed artifact cache.

The native rung (:mod:`repro.ir.cgen`) lowers a verified trace to one C
translation unit.  This module owns everything after that point:

* resolving the system C compiler (``PYACC_CC``, default ``cc``; the
  resolution is memoized per environment value so a missing compiler is
  probed exactly once per process),
* a **content-addressed on-disk artifact cache** keyed by
  ``sha256(source ‖ compiler id)`` — the C source already embeds the
  dtype signature (every array access is emitted with its concrete C
  element type), and the compiler id is the binary, :data:`CFLAGS` and
  the host ISA, so the hash covers *source × dtype signature × compiler
  × flags × ISA*.  Artifacts live under ``PYACC_NATIVE_CACHE`` (default
  ``~/.cache/pyacc/native``) as ``<hash>.c`` / ``<hash>.so`` pairs; a
  warm process therefore performs **zero** compiler invocations
  (``cache_info()["native"]["disk_hits"]`` counts the loads that proved
  it),
* loading shared objects through stdlib :mod:`ctypes` (no dependencies
  added), with corrupted/stale artifacts unlinked and recompiled once
  before declining,
* the locked counter block surfaced as ``cache_info()["native"]`` —
  ``{compiled, disk_hits, mem_hits, bytes, single_loop, c_fold, cc_ms,
  cc_wait_ms, pending, declined: {reason: n}}`` (``cc_ms``: wall
  milliseconds ``cc`` ran for this process; ``cc_wait_ms``: what its
  calling threads blocked on it; ``pending``: calls that ran codegen
  because their unit was still compiling — not a decline).
  ``single_loop`` counts the kernels this process built under the
  lane-independence licence (one loop nest for all
  stores, see :mod:`repro.ir.cgen`).  Declines cover the whole
  taxonomy: trace-time (``op:<name>``, ``dtype:<str>``), compile-time
  (``cc-missing``, ``compile-failed``), *link/load*-time
  (``load-failed`` — the slot the old accounting had no room for), and
  run-time pre-flight (``non-contiguous``, ``extent``, ``alias``,
  ``scalar-overflow``, and ``lanes`` — a single-loop kernel called
  with arguments whose lanes are not proven independent).

Tiered compilation
------------------
A unit that is neither in memory nor on disk is handed to **one**
lazily started worker thread, which runs the ``cc`` calls one at a time
in FIFO order.  :func:`compile_source` waits for it (its contract is
synchronous); a kernel built by ``compile_kernel`` or fusion asks for
the deferred path instead, gets the in-flight :class:`_Unit` back and
runs its codegen program on launches of at most one tile while ``cc``
runs (:class:`repro.ir.cgen.NativeKernel`).  So does the runtime unit
(:func:`repro.ir.cgen.fold_in_c`), whose failure records ``fold``: no
first result waits for it.  The compiler and the cache
directory are resolved at submission; in-flight units are deduplicated
by source key, and every wait — :func:`wait_compiles` (called by
``repro.synchronize()``), :func:`reset_state`, interpreter exit, the
cluster's fork and kernel shipping — is counted in ``cc_wait_ms``.
``compiled`` counts a unit when it is submitted and ``cc_ms`` the wall
time ``cc`` ran, so both read the same whenever they are read; a
deferred unit that fails records its decline once, here.
"""

from __future__ import annotations

import atexit
import collections
import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import threading
import time
from pathlib import Path
from typing import Optional

from ..obs import Counters, register
from . import diskcache

__all__ = [
    "CC_ENV",
    "CACHE_ENV",
    "NativeCompileError",
    "cache_dir",
    "resolve_cc",
    "compile_source",
    "record_decline",
    "record_pending",
    "record_single_loop",
    "record_c_fold",
    "native_stats",
    "reset_state",
    "wait_compiles",
]

CC_ENV = "PYACC_CC"
CACHE_ENV = "PYACC_NATIVE_CACHE"

#: Bit-exactness first: ``-ffp-contract=off`` forbids FMA contraction
#: (NumPy's ufunc loops don't fuse), ``-fwrapv`` gives NumPy's
#: two's-complement wrap on signed overflow.  Then speed that moves no
#: bit: ``-march=native`` lets a licensed loop nest vectorize on the host
#: ISA (passed only where :func:`_isa` can name that ISA, because the
#: artifact key must).  No unit includes a header, so a call without a
#: prototype in ``cgen._PRELUDE`` must fail, not become an ``int``
#: function.  The flags passed (:func:`_flags`) are in :func:`_compiler_id`.
CFLAGS = (
    "-O2",
    "-fPIC",
    "-shared",
    "-fwrapv",
    "-ffp-contract=off",
    "-march=native",
    "-Werror=implicit-function-declaration",
)

#: CPU fields of ``/proc/cpuinfo`` that decide what ``-march=native``
#: selects (x86 and arm64 spellings).
_ISA_FIELDS = frozenset(
    {
        "vendor_id", "cpu family", "model", "flags",
        "CPU implementer", "CPU architecture", "CPU variant", "CPU part",
        "Features",
    }
)


class NativeCompileError(Exception):
    """Compilation/loading declined; the caller falls back to codegen."""

    def __init__(self, reason: str, detail: str = ""):
        super().__init__(detail or reason)
        self.reason = reason


# ---------------------------------------------------------------------------
# Counters (the ``native`` block) and process state
# ---------------------------------------------------------------------------

_STATS = Counters(
    "native",
    (
        "compiled", "disk_hits", "mem_hits", "bytes", "single_loop", "c_fold",
        "cc_ms", "cc_wait_ms", "pending",
    ),
    keyed=("declined",),
)
register(_STATS)

_LOCK = threading.Lock()
#: The worker's queue signal and every waiter's, over :data:`_LOCK`.
_COND = threading.Condition(_LOCK)

#: In-memory handle cache: source hash -> ctypes function pointer.  Kept
#: separate from the on-disk artifacts so tests can drop only the memory
#: map and assert the second compile is a pure ``disk_hits`` load.
_MEM: dict[str, ctypes.CDLL] = {}

#: Memoized compiler resolution per PYACC_CC value (None = unset).
_CC_RESOLVED: dict[Optional[str], Optional[str]] = {}

#: The host ISA token (:func:`_isa`; ``None`` = not read yet).
_ISA: Optional[str] = None

#: Units submitted and not yet built, by source key, and the worker's
#: FIFO of them (a synchronous request goes first); the worker thread.
_INFLIGHT: dict[str, "_Unit"] = {}
_QUEUE: collections.deque = collections.deque()
_WORKER: Optional[threading.Thread] = None


def record_decline(reason: str) -> None:
    """Count one native decline under ``reason`` (taxonomy in module doc)."""
    _STATS.bump_key("declined", reason)


def record_pending() -> None:
    """Count one call that ran codegen because its unit was still
    compiling — not a decline."""
    _STATS.bump("pending")


def record_single_loop() -> None:
    """Count one kernel built as a single loop nest under the
    lane-independence licence."""
    _STATS.bump("single_loop")


def record_c_fold() -> None:
    """Count one reduce kernel built to fold its add-reduces in C."""
    _STATS.bump("c_fold")


def native_stats() -> dict:
    """Locked snapshot: ``{compiled, disk_hits, mem_hits, bytes,
    single_loop, c_fold, cc_ms, cc_wait_ms, pending, declined}`` —
    ``bytes`` counts artifact bytes (``.c`` + ``.so``) published by
    *this process*, ``cc_ms`` the wall milliseconds ``cc`` ran and
    ``cc_wait_ms`` those its calling threads blocked on it."""
    return _STATS.snapshot()


def reset_state(*, drop_memory: bool = True, drop_counters: bool = True) -> None:
    """Test hook: forget loaded handles and/or zero the counters.

    ``drop_memory=True`` empties the in-memory handle map (the next
    compile of the same source re-loads from disk, counting a
    ``disk_hits``); the on-disk artifacts are never touched here.
    Also drops the memoized compiler resolution so a changed
    ``PYACC_CC`` is re-probed.  Waits for the units in flight first.
    """
    wait_compiles()
    with _LOCK:
        if drop_memory:
            _MEM.clear()
        _CC_RESOLVED.clear()
    if drop_counters:
        _STATS.reset()


# ---------------------------------------------------------------------------
# Compiler + cache-location resolution
# ---------------------------------------------------------------------------


def resolve_cc() -> Optional[str]:
    """Absolute path of the C compiler, or ``None`` when unavailable.

    ``PYACC_CC`` overrides the default ``cc``; the lookup result is
    memoized per env value, so a compiler-less host pays one ``which``
    probe per process, not one per kernel.
    """
    env = os.environ.get(CC_ENV)
    with _LOCK:
        if env in _CC_RESOLVED:
            return _CC_RESOLVED[env]
    cand = env or "cc"
    path = shutil.which(cand)
    if path is None and os.path.sep in cand and os.access(cand, os.X_OK):
        path = cand  # explicit path not on PATH
    with _LOCK:
        _CC_RESOLVED[env] = path
    return path


def cache_dir() -> Path:
    """Artifact directory (``PYACC_NATIVE_CACHE`` or the user cache)."""
    env = os.environ.get(CACHE_ENV)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "pyacc" / "native"


def _isa() -> str:
    """A digest of the CPU fields ``-march=native`` reads, taken from the
    first processor of ``/proc/cpuinfo`` once per process; ``""`` where
    that file is unreadable, and then ``-march=native`` is not passed."""
    global _ISA
    if _ISA is None:
        try:
            with open("/proc/cpuinfo") as fh:
                first = fh.read().split("\n\n", 1)[0]
        except OSError:
            first = ""
        fields = sorted(
            line
            for line in first.splitlines()
            if line.split(":", 1)[0].strip() in _ISA_FIELDS
        )
        _ISA = hashlib.sha256("\n".join(fields).encode()).hexdigest()[:16] if fields else ""
    return _ISA


def _flags() -> tuple:
    """The flags ``cc`` is invoked with: :data:`CFLAGS`, without
    ``-march=native`` where the ISA is unknown."""
    if _isa():
        return CFLAGS
    return tuple(f for f in CFLAGS if f != "-march=native")


def _compiler_id(cc: str) -> str:
    """A stable identity for the code ``cc`` emits — the binary, the
    flags it is invoked with and the host ISA — which both artifact
    tiers key on: a toolchain upgrade, a flag change or another CPU must
    miss, never load stale code."""
    try:
        st = os.stat(cc)
        binary = f"{cc}:{st.st_size}:{int(st.st_mtime)}"
    except OSError:
        binary = cc
    return f"{binary}|{' '.join(_flags())}|{_isa()}"


def source_key(source: str, cc: str) -> str:
    """Content-addressed artifact key: sha256(source ‖ compiler id).

    The dtype signature is part of ``source`` by construction — every
    array/scalar access in the generated C names its concrete element
    type — so distinct dtype specializations hash to distinct artifacts.
    """
    h = hashlib.sha256()
    h.update(source.encode("utf-8"))
    h.update(b"\x00")
    h.update(_compiler_id(cc).encode("utf-8"))
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Compile / load
# ---------------------------------------------------------------------------


def _load(so_path: Path, symbol: str) -> ctypes.CDLL:
    lib = ctypes.CDLL(str(so_path))
    fn = getattr(lib, symbol)  # raises AttributeError if the artifact is junk
    if symbol == "pyacc_kernel":
        # ``int64_t pyacc_kernel(const int64_t *w, double *out)``: ``w``
        # is the packed ``bytes`` of one call, ``out`` a raw address, a
        # ctypes buffer or NULL.
        fn.restype = ctypes.c_int64
        fn.argtypes = [ctypes.c_char_p, ctypes.c_void_p]
    return lib


def _invoke_cc(cc: str, c_path: Path, so_path: Path) -> None:
    cmd = [cc, *_flags(), str(c_path), "-o", str(so_path), "-lm"]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, timeout=120
        )
    except (OSError, subprocess.TimeoutExpired) as exc:
        raise NativeCompileError("compile-failed", str(exc)) from exc
    finally:
        _STATS.bump("cc_ms", round((time.perf_counter() - t0) * 1e3))
    if proc.returncode != 0:
        raise NativeCompileError(
            "compile-failed",
            f"{cc} exited {proc.returncode}: {proc.stderr[-2000:]}",
        )


def _compile_to_disk(cc: str, source: str, key: str, cdir: Path) -> Path:
    """Compile ``source`` into the artifact cache, atomically.

    The ``.c`` and ``.so`` are written to temp names in the cache
    directory and ``os.replace``d into place, so concurrent processes
    racing on the same key both end with a complete artifact.
    """
    cdir.mkdir(parents=True, exist_ok=True)
    so_path = cdir / f"{key}.so"
    c_path = cdir / f"{key}.c"
    fd, tmp_c = tempfile.mkstemp(suffix=".c", dir=cdir)
    with os.fdopen(fd, "w") as fh:
        fh.write(source)
    tmp_so = tmp_c[:-2] + ".so"
    nbytes = 0
    try:
        _invoke_cc(cc, Path(tmp_c), Path(tmp_so))
        for tmp, final in ((tmp_c, c_path), (tmp_so, so_path)):
            try:
                nbytes += os.path.getsize(tmp)
            except OSError:
                pass
            diskcache.publish_path(Path(tmp), final)
    finally:
        for leftover in (tmp_c, tmp_so):
            diskcache.unlink_quiet(Path(leftover))
    _STATS.bump("bytes", nbytes)
    return so_path


class _Unit:
    """One submitted ``cc`` job: what the worker needs, resolved at
    submission, and its outcome — ``lib`` once built, or the decline
    ``reason`` (and ``detail``)."""

    __slots__ = ("key", "source", "symbol", "cc", "cdir", "deferred", "lib", "reason", "detail")

    def __init__(self, key: str, source: str, symbol: str, cc: str, cdir: Path, deferred: bool | str):
        self.key, self.source, self.symbol = key, source, symbol
        self.cc, self.cdir, self.deferred = cc, cdir, deferred
        self.lib = self.reason = self.detail = None

    @property
    def done(self) -> bool:
        return self.lib is not None or self.reason is not None


def _build(unit: _Unit) -> None:
    """The worker's step for one unit: today's compile and load.  Any
    exception is the unit's decline — the worker must not die."""
    reason = "compile-failed"
    try:
        so_path = _compile_to_disk(unit.cc, unit.source, unit.key, unit.cdir)
        reason = "load-failed"
        lib = _load(so_path, unit.symbol)
    except Exception as exc:  # NativeCompileError, an unwritable cache dir, junk
        unit.detail = str(exc)
        unit.reason = getattr(exc, "reason", reason)
        return
    with _LOCK:
        _MEM[unit.key] = lib
    unit.lib = lib


def _work() -> None:
    """The worker thread: build queued units one at a time, FIFO."""
    while True:
        with _COND:
            while not _QUEUE:
                _COND.wait()
            unit = _QUEUE.popleft()
        _build(unit)
        with _COND:
            _INFLIGHT.pop(unit.key, None)
            # A unit a synchronous caller joined is no longer deferred:
            # that caller records its failure (NativeCompileError).
            if unit.reason is not None and unit.deferred:
                record_decline(unit.reason if unit.deferred is True else unit.deferred)
            _COND.notify_all()


def _start() -> None:
    """Start the worker if this process has none (under :data:`_LOCK`,
    or in a forked child before it runs anything else)."""
    global _WORKER
    if _WORKER is None:
        _WORKER = threading.Thread(target=_work, name="pyacc-cc", daemon=True)
        _WORKER.start()


def _submit(key: str, source: str, symbol: str, cc: str, cdir: Path, deferred: bool | str) -> _Unit:
    """The in-flight unit of ``key``, submitting it if there is none —
    or a built one, when the worker loaded it since the caller looked.
    A synchronous request that joins a queued deferred unit moves it to
    the head and takes over recording its failure."""
    with _COND:
        unit = _INFLIGHT.get(key)
        if unit is not None and unit.deferred and not deferred:
            unit.deferred = False
            if unit in _QUEUE:
                _QUEUE.remove(unit)
                _QUEUE.appendleft(unit)
        elif unit is None:
            unit = _Unit(key, source, symbol, cc, cdir, deferred)
            unit.lib = _MEM.get(key)
            if unit.lib is None:
                _INFLIGHT[key] = unit
                (_QUEUE.append if deferred else _QUEUE.appendleft)(unit)
                _STATS.bump("compiled")
                _start()
                _COND.notify_all()
    return unit


def wait_compiles(units: Optional[tuple] = None) -> None:
    """Block until ``units`` (default: every unit in flight) are built;
    the time blocked is counted in ``cc_wait_ms``."""
    if not _INFLIGHT and units is None:
        return
    t0 = time.perf_counter()
    with _COND:
        while any(not u.done for u in units) if units else _INFLIGHT:
            _COND.wait()
    _STATS.bump("cc_wait_ms", round((time.perf_counter() - t0) * 1e3))


def _after_fork() -> None:
    """In a forked child: no worker runs, the lock may have been held by
    it; the units it had in flight are queued again for a new one."""
    global _WORKER
    _COND._at_fork_reinit()
    _STATS._lock._at_fork_reinit()
    _WORKER = None
    _QUEUE.clear()
    for key, unit in list(_INFLIGHT.items()):
        if unit.done:
            del _INFLIGHT[key]
        else:
            _QUEUE.append(unit)
    if _QUEUE:
        _start()


os.register_at_fork(after_in_child=_after_fork)
# Every artifact a process promised is on disk before it exits.
atexit.register(wait_compiles)


def compile_source(source: str, symbol: str = "pyacc_kernel", _defer: bool | str = False):
    """Source → loaded ctypes function ``symbol`` (a kernel's entry
    point; the caller declares the signature of any other symbol).

    Ladder: in-memory handle (``mem_hits``) → on-disk artifact
    (``disk_hits``) → compiler invocation (``compiled``) on the worker,
    waited for.  A corrupted
    or stale on-disk artifact is unlinked and recompiled once; if the
    rebuilt artifact still fails to load, raises
    :class:`NativeCompileError` with reason ``"load-failed"`` (the
    link/load-time decline slot).  Raises with ``"cc-missing"`` when no
    compiler resolves *and* no cached artifact exists.  With ``_defer``
    a unit that must be compiled is not waited for: its :class:`_Unit`
    is returned instead, and its failure is recorded as its reason — or
    as ``_defer``, when that is a decline token (the runtime unit's
    ``fold``).
    """
    cc = resolve_cc()
    cdir = cache_dir()
    if cc is None:
        raise NativeCompileError(
            "cc-missing", f"no C compiler (set ${CC_ENV} or install cc)"
        )
    key = source_key(source, cc)
    with _LOCK:
        lib = _MEM.get(key)
    if lib is not None:
        _STATS.bump("mem_hits")
        return getattr(lib, symbol)
    so_path = cdir / f"{key}.so"
    if key not in _INFLIGHT and so_path.exists():
        try:
            lib = _load(so_path, symbol)
            _STATS.bump("disk_hits")
            with _LOCK:
                _MEM[key] = lib
            return getattr(lib, symbol)
        except (OSError, AttributeError):
            # Corrupted/stale artifact: drop it and fall through to a
            # fresh compile (counted once, below).
            diskcache.unlink_quiet(so_path)
    unit = _submit(key, source, symbol, cc, cdir, _defer)
    if _defer:
        return unit
    wait_compiles((unit,))
    if unit.reason is not None:
        raise NativeCompileError(unit.reason, unit.detail)
    return getattr(unit.lib, symbol)
