"""Native-executor compiler driver and content-addressed artifact cache.

The native rung (:mod:`repro.ir.cgen`) lowers a verified trace to one C
translation unit.  This module owns everything after that point:

* resolving the system C compiler (``PYACC_CC``, default ``cc``; the
  resolution is memoized per environment value so a missing compiler is
  probed exactly once per process),
* a **content-addressed on-disk artifact cache** keyed by
  ``sha256(source ‖ compiler id)`` — the C source already embeds the
  dtype signature (every array access is emitted with its concrete C
  element type), so the hash covers *source × dtype signature × compiler
  id*.  Artifacts live under ``PYACC_NATIVE_CACHE`` (default
  ``~/.cache/pyacc/native``) as ``<hash>.c`` / ``<hash>.so`` pairs; a
  warm process therefore performs **zero** compiler invocations
  (``cache_info()["native"]["disk_hits"]`` counts the loads that proved
  it),
* loading shared objects through stdlib :mod:`ctypes` (no dependencies
  added), with corrupted/stale artifacts unlinked and recompiled once
  before declining,
* the locked counter block surfaced as ``cache_info()["native"]`` —
  ``{compiled, disk_hits, mem_hits, bytes, single_loop, declined:
  {reason: n}}``.  ``single_loop`` counts the kernels this process
  built under the lane-independence licence (one loop nest for all
  stores, see :mod:`repro.ir.cgen`).  Declines cover the whole
  taxonomy: trace-time (``op:<name>``, ``dtype:<str>``), compile-time
  (``cc-missing``, ``compile-failed``), *link/load*-time
  (``load-failed`` — the slot the old accounting had no room for), and
  run-time pre-flight (``non-contiguous``, ``extent``, ``alias``,
  ``scalar-overflow``, and ``lanes`` — a single-loop kernel called
  with arguments whose lanes are not proven independent).
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import threading
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
    "record_single_loop",
    "record_c_fold",
    "native_stats",
    "reset_state",
]

CC_ENV = "PYACC_CC"
CACHE_ENV = "PYACC_NATIVE_CACHE"

#: Flags chosen for bit-exactness, not speed records: ``-ffp-contract=off``
#: forbids FMA contraction (NumPy's ufunc loops don't fuse), ``-fwrapv``
#: gives NumPy's two's-complement wrap on signed overflow.
CFLAGS = ("-O2", "-fPIC", "-shared", "-fwrapv", "-ffp-contract=off")


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
    ("compiled", "disk_hits", "mem_hits", "bytes", "single_loop", "c_fold"),
    keyed=("declined",),
)
register(_STATS)

_LOCK = threading.Lock()

#: In-memory handle cache: source hash -> ctypes function pointer.  Kept
#: separate from the on-disk artifacts so tests can drop only the memory
#: map and assert the second compile is a pure ``disk_hits`` load.
_MEM: dict[str, ctypes.CDLL] = {}

#: Memoized compiler resolution per PYACC_CC value (None = unset).
_CC_RESOLVED: dict[Optional[str], Optional[str]] = {}


def record_decline(reason: str) -> None:
    """Count one native decline under ``reason`` (taxonomy in module doc)."""
    _STATS.bump_key("declined", reason)


def record_single_loop() -> None:
    """Count one kernel built as a single loop nest under the
    lane-independence licence."""
    _STATS.bump("single_loop")


def record_c_fold() -> None:
    """Count one reduce kernel built to fold its add-reduces in C."""
    _STATS.bump("c_fold")


def native_stats() -> dict:
    """Locked snapshot: ``{compiled, disk_hits, mem_hits, bytes,
    single_loop, declined}`` — ``bytes`` counts artifact bytes (``.c`` +
    ``.so``) published by *this process*."""
    return _STATS.snapshot()


def reset_state(*, drop_memory: bool = True, drop_counters: bool = True) -> None:
    """Test hook: forget loaded handles and/or zero the counters.

    ``drop_memory=True`` empties the in-memory handle map (the next
    compile of the same source re-loads from disk, counting a
    ``disk_hits``); the on-disk artifacts are never touched here.
    Also drops the memoized compiler resolution so a changed
    ``PYACC_CC`` is re-probed.
    """
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


def _compiler_id(cc: str) -> str:
    """A stable identity for the compiler binary (part of the cache key:
    a toolchain upgrade must miss, never load stale codegen)."""
    try:
        st = os.stat(cc)
        return f"{cc}:{st.st_size}:{int(st.st_mtime)}"
    except OSError:
        return cc


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
    cmd = [cc, *CFLAGS, str(c_path), "-o", str(so_path), "-lm"]
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, timeout=120
        )
    except (OSError, subprocess.TimeoutExpired) as exc:
        raise NativeCompileError("compile-failed", str(exc)) from exc
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
    _STATS.bump("compiled")
    _STATS.bump("bytes", nbytes)
    return so_path


def compile_source(source: str, symbol: str = "pyacc_kernel"):
    """Source → loaded ctypes function ``symbol`` (a kernel's entry
    point; the caller declares the signature of any other symbol).

    Ladder: in-memory handle (``mem_hits``) → on-disk artifact
    (``disk_hits``) → compiler invocation (``compiled``).  A corrupted
    or stale on-disk artifact is unlinked and recompiled once; if the
    rebuilt artifact still fails to load, raises
    :class:`NativeCompileError` with reason ``"load-failed"`` (the
    link/load-time decline slot).  Raises with ``"cc-missing"`` when no
    compiler resolves *and* no cached artifact exists.
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
    if so_path.exists():
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
    try:
        so_path = _compile_to_disk(cc, source, key, cdir)
    except NativeCompileError:
        raise
    except OSError as exc:  # unwritable cache dir etc.
        raise NativeCompileError("compile-failed", str(exc)) from exc
    try:
        lib = _load(so_path, symbol)
    except (OSError, AttributeError) as exc:
        raise NativeCompileError("load-failed", str(exc)) from exc
    with _LOCK:
        _MEM[key] = lib
    return getattr(lib, symbol)
