"""Persistent cross-process compilation cache (warm-start precompilation).

Julia amortizes JIT cost *within* a process and pkgimages amortize it
*across* processes; our reproduction had only the first half — every
worker re-traced, re-verified, re-optimized, and re-lowered every kernel
from scratch.  This module is the second half: a content-addressed,
disk-backed tier layered **under** the in-memory
:class:`~repro.ir.compile.KernelCache`, so a warm worker goes straight
from source hash to execution.

Two entry kinds share one directory (``PYACC_COMPILE_CACHE``, default
``~/.cache/pyacc/compile``; set to ``off`` to disable):

* **kernel entries** (``k<sha256>.pkl``) — one per compiled kernel
  specialization.  Keyed on the kernel *source* fingerprint (closure
  cell values and referenced global scalars folded in), ndim, construct,
  executor rung, the argument type/shape/value signatures (mirroring the
  in-memory specialization ladder), the active verify mode, and the
  repro + NumPy versions.  The payload carries the optimized trace IR,
  the verifier's memoized diagnostics, the generated codegen source +
  its out-dtype certificates from the shape lattice, and the native
  rung's C spec — everything needed to rebuild a
  :class:`~repro.ir.compile.CompiledKernel` without tracing, verifying,
  or lowering.
* **program entries** (``g<sha256>.pkl``) — one per instantiated launch
  graph, keyed on the member-plan key tuple (each node's kernel digest,
  canonical array-aliasing pattern, dims, scalar values, slot maps,
  backend shape, fusion on/off, validate mode).  The payload persists
  the derived artifacts — fused kernels, hoisted-program prologue/main
  sources — plus the translation
  validator's clean certificate, so a warm
  ``LaunchGraph.instantiate()`` replays the recorded decisions without
  re-lowering anything and skips validation entirely.

Invalidation is structural: versions and modes are part of the key hash
(a mismatch can never *hit*) **and** re-checked in the payload header
(a colliding or hand-edited entry is unlinked and counted under
``invalidated``).  Corrupted/truncated entries fail the
:mod:`repro.ir.diskcache` frame check, are unlinked, and rebuild
silently.  Anything the fingerprint cannot prove stable across
processes — closures over arrays, exotic globals, unhashable scalars —
makes the kernel *ineligible* and it simply compiles as before: a wrong
hit is impossible by construction, a missed optimization is not a bug.

Cluster workers (forked) treat the parent's directory as read-only and
publish into per-worker spool directories; the parent promotes spooled
entries on worker respawn/shutdown (:func:`promote_spools`), so a
``WorkerLostError`` respawn warm-starts from disk instead of
recompiling.
"""

from __future__ import annotations

import hashlib
import marshal
import os
import pickle
import sys
import threading
import time
import types
import weakref
from pathlib import Path
from typing import Any, Callable, Optional, Sequence

import numpy as np

from ..obs import Counters, register
from . import diskcache

__all__ = [
    "CACHE_ENV",
    "FORMAT",
    "cache_dir",
    "enabled",
    "disk_stats",
    "reset_state",
    "kernel_keys",
    "load_kernel",
    "store_kernel",
    "note_verified",
    "record_compile",
    "record_verify_run",
    "graph_digest",
    "program_scope",
    "fused_lookup",
    "fused_record",
    "hoist_lookup",
    "hoist_record",
    "validated_lookup",
    "validated_record",
    "enter_worker_mode",
    "promote_spools",
]

CACHE_ENV = "PYACC_COMPILE_CACHE"

#: Payload format version — bump on any change to the entry layout.
FORMAT = 4

_OFF = {"off", "0", "none", "disabled"}

_SCALARS = (bool, int, float, complex, str, bytes, type(None))

#: Top-level packages whose contents are already covered by the versions
#: folded into every key (:func:`_env_tag`): a reference into one of
#: these may be fingerprinted by *name*, because any behavior change
#: ships with a version bump that invalidates the whole cache.  A module
#: or helper from anywhere else must be content-hashed — or make the
#: kernel ineligible.
_VERSION_KEYED_PKGS = ("repro", "numpy", "math", "builtins")

#: ``cache_info()["disk"]`` (plus ``enabled``, see :func:`disk_stats`).
_STATS = Counters(
    "disk",
    (
        "disk_hits",
        "disk_misses",
        "stores",
        "invalidated",
        "bytes",
        "ineligible",
        "compiles",
        "verify_runs",
        "graph_hits",
        "graph_misses",
        "graph_stores",
        "promoted",
    ),
)

#: Worker spool directory (cluster children publish here; parent
#: promotes).  ``None`` = normal (direct-publish) mode.
_SPOOL: Optional[Path] = None

#: Source fingerprints memoized per code object (weak: test modules
#: come and go).  Cell/global values are folded in per call — they can
#: change under the same code object.
_CODE_FP: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


# ---------------------------------------------------------------------------
# Configuration / counters
# ---------------------------------------------------------------------------


def cache_dir() -> Optional[Path]:
    """Entry directory, or ``None`` when the persistent tier is off."""
    env = os.environ.get(CACHE_ENV)
    if env is not None:
        if env.strip().lower() in _OFF or not env.strip():
            return None
        return Path(env)
    return Path.home() / ".cache" / "pyacc" / "compile"


def enabled() -> bool:
    return cache_dir() is not None


def disk_stats() -> dict:
    """Locked snapshot of the persistent-tier counters.

    The headline block is ``{disk_hits, disk_misses, stores,
    invalidated, bytes}``; the rest are evidence counters the warm-start
    tests and bench assert on (``compiles``/``verify_runs`` count real
    ladder work performed this process, ``graph_*`` the program-entry
    tier, ``ineligible`` lookups skipped because the kernel cannot be
    content-addressed, ``promoted`` spool entries absorbed from cluster
    workers).
    """
    out = _STATS.snapshot()
    out["enabled"] = enabled()
    return out


register(_STATS, disk_stats)


def reset_state(*, drop_counters: bool = True) -> None:
    """Test hook: zero the counters (entries on disk are never touched)."""
    global _SPOOL
    if drop_counters:
        _STATS.reset()
    _SPOOL = None


def record_compile() -> None:
    """Count one real compile (trace → optimize → lower) performed."""
    _STATS.bump("compiles")


def record_verify_run() -> None:
    """Count one real ``verify_trace`` execution performed."""
    _STATS.bump("verify_runs")


# ---------------------------------------------------------------------------
# Kernel fingerprinting (the "source hash" half of the key)
# ---------------------------------------------------------------------------


class _Ineligible(Exception):
    """The kernel/signature cannot be content-addressed across
    processes; the persistent tier silently steps aside."""


def _code_fingerprint(code: types.CodeType) -> str:
    """Hash of a code object's behavior when its source is unavailable:
    bytecode + names + non-code consts, nested code objects recursed."""
    h = hashlib.sha256()

    def feed(c: types.CodeType) -> None:
        h.update(c.co_code)
        h.update(repr((c.co_names, c.co_varnames, c.co_freevars)).encode())
        for const in c.co_consts:
            if isinstance(const, types.CodeType):
                feed(const)
            else:
                h.update(repr(const).encode())

    feed(code)
    return h.hexdigest()


def _source_fingerprint(fn: Callable) -> str:
    """Hash of the kernel's compiled behavior (bytecode, names, consts).

    Deliberately *not* ``inspect.getsource``: reading + tokenizing the
    defining file costs milliseconds per kernel on every process start —
    the very cost this cache exists to remove — and adds nothing the
    bytecode hash misses except comment edits, which cannot change the
    traced semantics.  Memoized per code object.
    """
    code = fn.__code__
    fp = _CODE_FP.get(code)
    if fp is None:
        fp = _code_fingerprint(code)
        try:
            _CODE_FP[code] = fp
        except TypeError:  # pragma: no cover - code objects weakref fine
            pass
    return fp


def _all_names(code: types.CodeType) -> set:
    names = set(code.co_names)
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            names |= _all_names(const)
    return names


def _scalar_or_raise(v: Any) -> Any:
    if isinstance(v, np.generic):
        v = v.item()
    if isinstance(v, _SCALARS):
        return v
    raise _Ineligible(f"non-scalar value of type {type(v).__name__}")


#: Captured/global arrays above this size make the kernel ineligible —
#: hashing a lattice-constant table per compile is cheap, hashing a
#: problem-sized field is not.
_ARRAY_FP_LIMIT = 1 << 16


def _array_part(a: np.ndarray) -> tuple:
    """Content hash of a small captured/global array (the tracer bakes
    its *values* into the trace, so the values must be in the key)."""
    if a.nbytes > _ARRAY_FP_LIMIT:
        raise _Ineligible(f"captured array of {a.nbytes} bytes")
    if a.dtype.hasobject:
        # tobytes() on object arrays serializes pointers — the "content
        # hash" would be nondeterministic across processes.
        raise _Ineligible("captured array with object dtype")
    c = np.ascontiguousarray(a)
    return (
        "arr",
        tuple(a.shape),
        a.dtype.str,
        hashlib.sha256(c.tobytes()).hexdigest(),
    )


def _value_part(v: Any) -> Any:
    if isinstance(v, np.ndarray):
        return _array_part(v)
    return _scalar_or_raise(v)


def _global_part(name: str, v: Any, depth: int, seen: set) -> tuple:
    """One referenced global's contribution to the fingerprint.

    Scalars fold in by value (module-level constants are baked at trace
    time); repro-internal and builtin callables are covered by the repro
    version already in the key; user helper functions recurse (two
    levels deep) into their own source.  Anything opaque — arrays with
    object dtype, non-version-keyed modules, helper chains too deep to
    hash, arbitrary objects — makes the kernel ineligible: its traced
    behavior cannot be proven stable from here, and a safe miss beats a
    wrong hit.
    """
    if isinstance(v, np.generic):
        v = v.item()
    if isinstance(v, _SCALARS):
        return ("g", name, type(v).__name__, repr(v))
    if isinstance(v, np.ndarray):
        return ("ga", name, _array_part(v))
    if isinstance(v, types.ModuleType):
        if v.__name__.partition(".")[0] in _VERSION_KEYED_PKGS:
            return ("gm", name, v.__name__)
        # mymod.helper(...) / mymod.CONST bakes the module's *contents*
        # into the trace; a name-only part would survive edits to them.
        raise _Ineligible(
            f"global module {name!r} ({v.__name__}) is not version-keyed"
        )
    if isinstance(v, np.ufunc):
        return ("gu", name, v.__name__)
    mod = getattr(v, "__module__", "") or ""
    if isinstance(v, types.FunctionType):
        if mod.partition(".")[0] in _VERSION_KEYED_PKGS:
            return ("gf", name, mod, v.__qualname__)
        if id(v) in seen:
            # Recursion cycle: this helper's body is already hashed
            # higher in the chain, so a name reference is sound.
            return ("gf", name, mod, v.__qualname__)
        if depth >= 2:
            # A name-only fallback here would leave the deepest helper's
            # body out of the key — stale warm hits after editing it.
            raise _Ineligible(f"helper chain through {name!r} too deep")
        seen.add(id(v))
        return ("gf+", name, _fn_parts(v, depth + 1, seen))
    if isinstance(v, (types.BuiltinFunctionType, type)):
        return ("gb", name, mod, getattr(v, "__qualname__", repr(v)))
    raise _Ineligible(f"global {name!r} of type {type(v).__name__}")


def _fn_parts(fn: Callable, depth: int = 0, seen: Optional[set] = None) -> tuple:
    if not isinstance(fn, types.FunctionType):
        raise _Ineligible(f"not a plain function: {type(fn).__name__}")
    if seen is None:
        seen = {id(fn)}
    parts: list = [
        fn.__module__,
        fn.__qualname__,
        _source_fingerprint(fn),
    ]
    if fn.__defaults__:
        parts.append(
            ("defaults", tuple(_scalar_or_raise(d) for d in fn.__defaults__))
        )
    cells = fn.__closure__ or ()
    for cell in cells:
        try:
            v = cell.cell_contents
        except ValueError:
            parts.append(("cell-empty",))
            continue
        parts.append(("cell", _value_part(v)))
    g = fn.__globals__
    for name in sorted(_all_names(fn.__code__)):
        if name in g:
            parts.append(_global_part(name, g[name], depth, seen))
    return tuple(parts)


def _fn_fingerprint(fn: Callable) -> str:
    """Content hash of everything the tracer can observe about ``fn``.

    Raises :class:`_Ineligible` when stability cannot be proven.
    """
    return hashlib.sha256(repr(_fn_parts(fn)).encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Keys
# ---------------------------------------------------------------------------


def _env_tag() -> tuple:
    """Versions every key hash folds in: a bump of any of them makes all
    prior entries structurally unreachable (silent miss + rebuild).

    The interpreter's ``cache_tag`` (the ``.pyc`` compatibility key)
    gates the marshaled bytecode the payloads carry — a different
    CPython build must rebuild rather than load foreign bytecode."""
    from .. import __version__ as repro_version

    return (
        FORMAT,
        repro_version,
        np.__version__,
        sys.implementation.cache_tag,
    )


def _stable_type_sig(args: Sequence[Any]) -> tuple:
    sig = []
    for a in args:
        if isinstance(a, np.ndarray):
            sig.append(("arr", a.ndim, a.dtype.str))
        else:
            v = a.item() if isinstance(a, np.generic) else a
            sig.append(("scl", type(v).__name__))
    return tuple(sig)


def _stable_shape_sig(args: Sequence[Any]) -> tuple:
    return tuple(
        tuple(a.shape) if isinstance(a, np.ndarray) else None for a in args
    )


def _stable_value_sig(args: Sequence[Any]) -> tuple:
    sig = []
    for a in args:
        if isinstance(a, np.ndarray):
            sig.append(None)
        else:
            sig.append(repr(_scalar_or_raise(a)))
    return tuple(sig)


def _digest(parts: tuple) -> str:
    return hashlib.sha256(repr(parts).encode("utf-8")).hexdigest()


class KernelKeys:
    """The three digests of one call site (mirrors the in-memory
    base/shape/value specialization rungs) plus shared metadata."""

    __slots__ = ("base", "shape", "value", "meta")

    def __init__(self, base: str, shape: str, value: str, meta: dict):
        self.base = base
        self.shape = shape
        self.value = value
        self.meta = meta

    def for_rung(self, rung: str) -> str:
        return {"base": self.base, "shape": self.shape, "value": self.value}[
            rung
        ]


def kernel_keys(
    fn: Callable,
    ndim: int,
    reduce: bool,
    executor: str,
    args: Sequence[Any],
    max_paths: Optional[int],
) -> Optional[KernelKeys]:
    """Compute the disk keys for one compile, or ``None`` if ineligible
    (closure over arrays, exotic globals, unhashable scalars, or the
    tier is disabled)."""
    if not enabled():
        return None
    from .verify import active_verify_mode

    vmode = active_verify_mode()
    cc_id = None
    if executor == "native":
        # The toolchain is part of a native kernel's identity: a changed
        # (or broken) compiler must miss and recompile through the full
        # ladder, never warm-load an entry built by another toolchain.
        from .nativecache import _compiler_id, resolve_cc

        cc = resolve_cc()
        cc_id = None if cc is None else _compiler_id(cc)
    try:
        fp = _fn_fingerprint(fn)
        tsig = _stable_type_sig(args)
        ssig = _stable_shape_sig(args)
        vsig = _stable_value_sig(args)
    except _Ineligible:
        _STATS.bump("ineligible")
        return None
    head = (
        _env_tag(),
        fp,
        ndim,
        bool(reduce),
        executor,
        cc_id,
        vmode,
        max_paths,
        tsig,
    )
    meta = {
        "kernel": getattr(fn, "__qualname__", repr(fn)),
        "executor": executor,
        "verify_mode": vmode,
    }
    return KernelKeys(
        base=_digest(head),
        shape=_digest(head + ("shape", ssig)),
        value=_digest(head + ("shape", ssig, "values", vsig)),
        meta=meta,
    )


# ---------------------------------------------------------------------------
# Entry I/O
# ---------------------------------------------------------------------------


def _entry_path(digest: str, kind: str = "k") -> Optional[Path]:
    d = cache_dir()
    if d is None:
        return None
    return d / f"{kind}{digest}.pkl"


def _publish(digest: str, payload: dict, kind: str = "k") -> None:
    """Serialize and atomically publish one entry.

    Worker mode redirects the write into the per-worker spool; the
    parent promotes later.  Publish failures (read-only dir, disk full)
    degrade silently — the cache is an accelerator, never a correctness
    dependency.
    """
    d = cache_dir()
    if d is None:
        return
    target_dir = _SPOOL if _SPOOL is not None else d
    path = target_dir / f"{kind}{digest}.pkl"
    try:
        blob = pickle.dumps(payload, protocol=4)
        n = diskcache.write_entry(path, blob)
    except Exception:
        return
    _STATS.bump("stores")
    _STATS.bump("bytes", n)


def _read(digest: str, kind: str = "k") -> Optional[dict]:
    """Load + validate one entry; corrupted or version-mismatched
    entries are unlinked (``invalidated``) and read as a miss."""
    path = _entry_path(digest, kind)
    if path is None:
        return None
    try:
        blob = diskcache.read_entry(path)
    except diskcache.CorruptEntry:
        diskcache.unlink_quiet(path)
        _STATS.bump("invalidated")
        return None
    if blob is None:
        return None
    try:
        payload = pickle.loads(blob)
    except Exception:
        diskcache.unlink_quiet(path)
        _STATS.bump("invalidated")
        return None
    if (
        not isinstance(payload, dict)
        or payload.get("env") != _env_tag()
    ):
        diskcache.unlink_quiet(path)
        _STATS.bump("invalidated")
        return None
    return payload


# ---------------------------------------------------------------------------
# Kernel entries
# ---------------------------------------------------------------------------


def _marshal_code(source: str, filename: str) -> Optional[bytes]:
    """Marshaled bytecode for one generated source (a parse-cache hit —
    the program was just compiled from it)."""
    from .codegen import _compile_source

    try:
        return marshal.dumps(_compile_source(source, filename))
    except Exception:
        return None


def _seed_code(source: str, filename: str, blob: Optional[bytes]) -> None:
    """Hand stored bytecode to the codegen parse cache; a bad blob just
    means the warm process re-parses."""
    if not blob:
        return
    from .codegen import seed_code

    try:
        seed_code(source, filename, marshal.loads(blob))
    except Exception:
        pass


def _codegen_parts(program) -> Optional[tuple]:
    if program is None:
        return None
    return (
        program.source,
        program.ndim,
        program.has_result,
        tuple(dt.str for dt in program.out_dtypes),
        _marshal_code(program.source, "<pyacc-codegen>"),
    )


def _native_spec(nk) -> Optional[dict]:
    if nk is None:
        return None
    return {
        "source": nk.source,
        "ndim": nk.ndim,
        "has_result": nk.has_result,
        "arr_order": nk._arr_order,
        "arr_dtype": nk._arr_dtype,
        "arr_rank": nk._arr_rank,
        "extent_slots": nk._extent_slots,
        "gather_slots": nk._gather_slots,
        "written": nk._written,
        "fscalar": nk._fscalar,
        "iscalar": nk._iscalar,
        "narrow_i4": nk._narrow_i4,
        "lane_scalars": nk._lane_scalars,
    }


def _verify_entries(ck) -> list:
    """``(signature, diagnostics)`` pairs: this process's verifications
    plus the inherited ones it has not needed yet."""
    return [*ck.launches.verified.items(), *ck.launches.disk.items()]


def kernel_payload(ck, rung: str, meta: Optional[dict] = None) -> dict:
    """The serializable form of one :class:`CompiledKernel`."""
    if ck.trace is not None:
        # Populate the trace's memoized load-analysis before pickling:
        # the memo slot travels with the trace, so warm graph passes
        # skip the walk entirely.
        from .deadstore import loaded_positions

        loaded_positions(ck.trace)
    return {
        "env": _env_tag(),
        "kind": "kernel",
        "rung": rung,
        "meta": dict(meta or getattr(ck, "_pcc_meta", {}) or {}),
        "ndim": ck.ndim,
        "mode": ck.mode,
        "reason": ck.fallback_reason,
        "trace": ck.trace,
        "stats": ck.stats,
        "codegen": _codegen_parts(ck.codegen),
        "native": _native_spec(ck.native),
        "native_decline": getattr(ck, "_native_decline", None),
        "verify": _verify_entries(ck),
    }


def rebuild_kernel(payload: dict, fn: Callable):
    """Payload → :class:`CompiledKernel`, without tracing or lowering.

    The codegen program recompiles from its stored source (an ``exec``,
    not a lowering); the native rung reloads its shared object through
    the artifact cache and degrades to codegen if the compiler/artifact
    is gone.  Returns ``None`` when reconstruction fails (the caller
    treats it as a miss and rebuilds).
    """
    from .cgen import NativeKernel
    from .codegen import CodegenProgram
    from .compile import CompiledKernel
    from .nativecache import NativeCompileError, record_decline

    try:
        cg = payload["codegen"]
        codegen = None
        if cg is not None:
            source, ndim, has_result, dtype_strs, code_blob = cg
            _seed_code(source, "<pyacc-codegen>", code_blob)
            codegen = CodegenProgram(
                source, ndim, has_result, tuple(np.dtype(s) for s in dtype_strs)
            )
        mode = payload["mode"]
        native = None
        spec = payload["native"]
        if spec is not None:
            try:
                native = NativeKernel(spec, payload["trace"])
            except NativeCompileError as exc:
                record_decline(exc.reason)
                mode = mode.replace("native", "codegen", 1)
        elif payload.get("native_decline"):
            # The cold compile's native lowering declined; replay the
            # decline counter so warm and cold processes report the
            # same taxonomy.
            record_decline(payload["native_decline"])
        ck = CompiledKernel(
            fn=fn,
            ndim=payload["ndim"],
            mode=mode,
            trace=payload["trace"],
            stats=payload["stats"],
            fallback_reason=payload["reason"],
            codegen=codegen,
            native=native,
        )
    except Exception:
        return None
    if payload.get("native_decline"):
        object.__setattr__(ck, "_native_decline", payload["native_decline"])
    ck.launches.disk.update(payload.get("verify") or ())
    return ck


def _tag_kernel(ck, digest: str, rung: str, meta: dict) -> None:
    object.__setattr__(ck, "_pcc_digest", digest)
    object.__setattr__(ck, "_pcc_rung", rung)
    object.__setattr__(ck, "_pcc_meta", meta)


def load_kernel(keys: KernelKeys, fn: Callable):
    """Try the three specialization rungs on disk; returns
    ``(CompiledKernel, rung)`` or ``(None, None)``."""
    for rung in ("base", "shape", "value"):
        digest = keys.for_rung(rung)
        payload = _read(digest, "k")
        if payload is None or payload.get("rung") != rung:
            continue
        ck = rebuild_kernel(payload, fn)
        if ck is None:
            diskcache.unlink_quiet(_entry_path(digest, "k"))
            _STATS.bump("invalidated")
            continue
        _tag_kernel(ck, digest, rung, payload.get("meta", {}))
        _STATS.bump("disk_hits")
        return ck, rung
    _STATS.bump("disk_misses")
    return None, None


def store_kernel(keys: KernelKeys, rung: str, ck) -> None:
    """Publish a freshly compiled kernel under its rung's digest."""
    digest = keys.for_rung(rung)
    _tag_kernel(ck, digest, rung, keys.meta)
    _publish(digest, kernel_payload(ck, rung, keys.meta), "k")


def note_verified(ck) -> None:
    """Write-back: a fresh verification result was memoized on ``ck``.

    Re-publishes the kernel's entry so warm processes inherit the
    diagnostics and skip the analysis.  No-op for kernels the disk tier
    never addressed.
    """
    digest = getattr(ck, "_pcc_digest", None)
    rung = getattr(ck, "_pcc_rung", None)
    if digest is None or rung is None or not enabled():
        return
    _publish(digest, kernel_payload(ck, rung), "k")


# ---------------------------------------------------------------------------
# Program (launch-graph) entries
# ---------------------------------------------------------------------------


def kernel_digest_of(kernel) -> Optional[str]:
    return getattr(kernel, "_pcc_digest", None) if kernel is not None else None


def set_kernel_digest(kernel, parts: tuple) -> str:
    """Assign a synthetic content digest to a derived (fused) kernel
    so chained rewrites and hoist entries key on it stably."""
    digest = _digest(("derived",) + parts)
    object.__setattr__(kernel, "_pcc_digest", digest)
    return digest


def graph_digest(gnodes, backend, fuse: bool):
    """The member-plan key tuple, hashed — or ``None`` when any member
    cannot be content-addressed (its kernel has no digest, or a scalar
    argument is exotic).  ``fuse`` is whether the fusion pass runs."""
    if not enabled():
        return None
    from .validate import active_validate_mode

    canon: dict[int, int] = {}
    parts: list = []
    try:
        for node in gnodes:
            plan = node.plan
            dg = kernel_digest_of(plan.kernel)
            if dg is None:
                return None
            argsig: list = []
            rargs = plan.resolved_args or []
            for pos, a in enumerate(rargs):
                if isinstance(a, np.ndarray):
                    ci = canon.setdefault(id(a), len(canon))
                    handle = True
                    if pos < len(plan.args):
                        from ..core.array import is_backend_array

                        handle = is_backend_array(plan.args[pos])
                    argsig.append(
                        ("a", ci, tuple(a.shape), a.dtype.str, handle)
                    )
                else:
                    argsig.append(("s", repr(_scalar_or_raise(a))))
            parts.append(
                (
                    dg,
                    plan.construct,
                    plan.op,
                    tuple(plan.dims),
                    tuple(argsig),
                    tuple(sorted(node.slot_map.items())),
                    tuple(sorted(node.const_slots)),
                )
            )
    except _Ineligible:
        return None
    parts.append(
        (
            "backend",
            type(backend).__name__,
            getattr(backend, "n_threads", None),
        )
    )
    parts.append(("modes", bool(fuse), active_validate_mode()))
    parts.append(_env_tag())
    return _digest(tuple(parts))


class _ProgramScope:
    """Per-instantiation staging area for the program entry."""

    __slots__ = ("digest", "entry", "pending", "dirty")

    def __init__(self, digest: Optional[str]):
        self.digest = digest
        self.entry: dict = {}
        self.pending: dict = {}
        self.dirty = False

    def get(self, subkey: tuple):
        if subkey in self.pending:
            return self.pending[subkey]
        return self.entry.get(subkey, _MISSING)

    def put(self, subkey: tuple, value) -> None:
        self.pending[subkey] = value
        self.dirty = True


_MISSING = object()

#: Public sentinel for the program-tier lookups: "the active entry has
#: nothing for this subkey — compute and record".  Distinct from
#: ``None``, which is a *cached decline*.
MISSING = _MISSING

_TL = threading.local()


def _scope() -> Optional[_ProgramScope]:
    return getattr(_TL, "scope", None)


class program_scope:
    """Context manager bracketing ``LaunchGraph.instantiate``.

    Loads the program entry for ``digest`` (if any), exposes it to the
    pass-pipeline hooks via thread-local state, and publishes the merged
    entry on clean exit when anything new was derived.
    """

    def __init__(self, digest: Optional[str]):
        self.digest = digest

    def __enter__(self) -> _ProgramScope:
        scope = _ProgramScope(self.digest)
        if self.digest is not None:
            payload = _read(self.digest, "g")
            if payload is not None and payload.get("kind") == "program":
                scope.entry = payload.get("subentries", {})
                _STATS.bump("graph_hits")
            else:
                _STATS.bump("graph_misses")
        self._prev = _scope()
        _TL.scope = scope
        self.scope = scope
        return scope

    def __exit__(self, exc_type, exc, tb) -> None:
        _TL.scope = self._prev
        scope = self.scope
        if exc_type is None and scope.dirty and scope.digest is not None:
            merged = dict(scope.entry)
            merged.update(scope.pending)
            _publish(
                scope.digest,
                {"env": _env_tag(), "kind": "program", "subentries": merged},
                "g",
            )
            _STATS.bump("graph_stores")


def _alias_pairs(a_args, b_args) -> tuple:
    pairs = []
    for bp, bval in enumerate(b_args):
        if not isinstance(bval, np.ndarray):
            continue
        for ap, aval in enumerate(a_args):
            if aval is bval:
                pairs.append((ap, bp))
                break
    return tuple(pairs)


def _fuse_subkey(a_plan, b_plan) -> Optional[tuple]:
    da = kernel_digest_of(a_plan.kernel)
    db = kernel_digest_of(b_plan.kernel)
    if da is None or db is None:
        return None
    return (
        "fuse",
        da,
        db,
        _alias_pairs(a_plan.resolved_args, b_plan.resolved_args),
        tuple(a_plan.dims),
        b_plan.construct,
        b_plan.op,
    )


def fused_lookup(a_plan, b_plan, make_fn: Callable):
    """Cached fusion result for plan pair ``(a, b)``.

    Returns :data:`MISSING` when the active program entry has nothing
    (compute and record), ``None`` for a cached lowering decline, or the
    rebuilt fused :class:`CompiledKernel` (digest restamped so chained
    fusions and hoist entries key on it).  ``make_fn(name)`` supplies
    the placeholder function the fused plan carries.
    """
    scope = _scope()
    if scope is None:
        return _MISSING
    sub = _fuse_subkey(a_plan, b_plan)
    if sub is None:
        return _MISSING
    got = scope.get(sub)
    if got is _MISSING or got is None:
        return got
    fn = make_fn(got.get("meta", {}).get("fused_name", "fused"))
    ck = rebuild_kernel(got, fn)
    if ck is None:
        return _MISSING
    set_kernel_digest(ck, sub)
    return ck


def fused_record(a_plan, b_plan, fused_kernel, fused_name: str = "") -> None:
    """Record a fusion outcome (``fused_kernel=None`` = lowering
    declined) under the pair's subkey, and stamp the fused kernel with a
    derived digest for downstream (hoist/chained-fuse) keying."""
    scope = _scope()
    if scope is None:
        return
    sub = _fuse_subkey(a_plan, b_plan)
    if sub is None:
        return
    if fused_kernel is None:
        scope.put(sub, None)
        return
    set_kernel_digest(fused_kernel, sub)
    payload = kernel_payload(fused_kernel, "derived")
    payload["meta"] = {"fused_name": fused_name}
    scope.put(sub, payload)


def hoist_lookup(kernel, const_arrays: tuple, const_scalars: tuple):
    """Cached :func:`lower_trace_hoisted` outcome; ``None`` payload =
    cached "nothing hoists" decline."""
    scope = _scope()
    if scope is None:
        return _MISSING
    dg = kernel_digest_of(kernel)
    if dg is None:
        return _MISSING
    sub = ("hoist", dg, tuple(const_arrays), tuple(sorted(const_scalars)))
    got = scope.get(sub)
    if got is _MISSING or got is None:
        return got
    from .codegen import HoistedProgram

    try:
        pro_src, src, ndim, has_result, dtype_strs, n_hoisted, blobs = got
        _seed_code(pro_src, "<pyacc-hoist-pro>", blobs[0])
        _seed_code(src, "<pyacc-hoist>", blobs[1])
        return HoistedProgram(
            pro_src,
            src,
            ndim,
            has_result,
            tuple(np.dtype(s) for s in dtype_strs),
            n_hoisted,
        )
    except Exception:
        return _MISSING


def hoist_record(
    kernel, const_arrays: tuple, const_scalars: tuple, hoisted
) -> None:
    scope = _scope()
    if scope is None:
        return
    dg = kernel_digest_of(kernel)
    if dg is None:
        return
    sub = ("hoist", dg, tuple(const_arrays), tuple(sorted(const_scalars)))
    if hoisted is None:
        scope.put(sub, None)
        return
    scope.put(
        sub,
        (
            hoisted.prologue_source,
            hoisted.source,
            hoisted.ndim,
            hoisted.has_result,
            tuple(dt.str for dt in hoisted.out_dtypes),
            hoisted.n_hoisted,
            (
                _marshal_code(hoisted.prologue_source, "<pyacc-hoist-pro>"),
                _marshal_code(hoisted.source, "<pyacc-hoist>"),
            ),
        ),
    )


def validated_lookup():
    """The stored validator certificate for the active program entry:
    a list of counter kwargs to replay, or ``None`` when the warm path
    must re-validate."""
    scope = _scope()
    if scope is None:
        return None
    got = scope.get(("validated",))
    return None if got is _MISSING else got


def validated_record(counter_trail: list) -> None:
    """Certify the active program clean, with the accounting trail the
    warm path replays so ``graph_stats()["validate"]`` counters match
    a cold instantiate exactly."""
    scope = _scope()
    if scope is None:
        return
    scope.put(("validated",), list(counter_trail))


# ---------------------------------------------------------------------------
# Cluster worker spool (read-only inherit + parent promotion)
# ---------------------------------------------------------------------------


def enter_worker_mode() -> None:
    """Switch this (forked worker) process to spool publishing.

    Lookups keep reading the parent's directory; stores land in a
    per-worker spool the parent promotes (the worker never writes the
    shared namespace directly, so a SIGKILLed worker can at worst leave
    an orphan spool file, never a half-promoted entry).
    """
    global _SPOOL
    d = cache_dir()
    if d is None:
        _SPOOL = None
        return
    _SPOOL = d / "spool" / f"w{os.getpid()}"


#: A spooling worker is between ``mkstemp`` and ``os.replace`` for at
#: most the time it takes to write one pickled entry; a ``.tmp`` file
#: older than this can only be the orphan of a dead worker.
_SPOOL_TMP_GRACE = 60.0


def _older_than(p: Path, age: float) -> bool:
    try:
        return (time.time() - p.stat().st_mtime) > age
    except OSError:
        return False


def promote_spools(pids: Optional[Sequence[int]] = None) -> int:
    """Parent-side: atomically promote spooled entries into the main
    directory; returns the number promoted.

    ``pids`` restricts promotion to those workers' spool directories —
    pass the pid of a worker *known to be dead* (the cluster
    supervisor's loss handler does), whose spool can also be reaped of
    stray temp files outright.  Without ``pids`` every spool is swept,
    which is safe at any time for the published ``.pkl`` entries
    (promotion is a same-filesystem rename), but a live worker may be
    mid-publish — between ``mkstemp`` and ``os.replace`` — so ``.tmp``
    files are only reaped once they are older than any in-flight write
    could be.
    """
    d = cache_dir()
    if d is None:
        return 0
    spool_root = d / "spool"
    promoted = 0
    try:
        worker_dirs = list(spool_root.iterdir())
    except OSError:
        return 0
    if pids is not None:
        want = {f"w{pid}" for pid in pids if pid is not None}
        worker_dirs = [wd for wd in worker_dirs if wd.name in want]
    for wd in worker_dirs:
        owner_dead = pids is not None
        try:
            entries = list(wd.iterdir())
        except OSError:
            continue
        for p in entries:
            if not p.name.endswith(".pkl"):
                if owner_dead or _older_than(p, _SPOOL_TMP_GRACE):
                    diskcache.unlink_quiet(p)
                continue
            try:
                os.replace(p, d / p.name)
                promoted += 1
            except OSError:
                diskcache.unlink_quiet(p)
        try:
            wd.rmdir()
        except OSError:
            pass
    if promoted:
        _STATS.bump("promoted", promoted)
    return promoted
