"""Tracing-JIT substrate: scalar kernels → expression IR → vectorized NumPy.

This package is the reproduction's stand-in for Julia's LLVM JIT (see
DESIGN.md §2).  Public surface:

* :func:`repro.ir.compile.compile_kernel` — the specialization ladder.
* :mod:`repro.ir.intrinsics` — portable math usable inside kernels.
* :class:`repro.ir.vectorizer.IndexDomain` — launch sub-domains.
* :mod:`repro.ir.codegen` — the straight-line NumPy code generator (the
  fallback executor tier) and :mod:`repro.ir.arena`, its scratch-buffer
  pool; :func:`repro.ir.compile.executor_mode` /
  :func:`~repro.ir.compile.set_executor_mode` select the tier.
* :mod:`repro.ir.cgen` / :mod:`repro.ir.nativecache` — the native rung
  above codegen, the default: traces lowered to C, compiled with the
  system compiler into content-addressed cached shared objects
  (``PYACC_EXECUTOR=codegen`` opts out); :func:`repro.ir.nativecache.native_stats`
  reports compiles/cache hits/declines.
* :mod:`repro.ir.verify` — the static kernel verifier (races, bounds,
  reduction purity) and its enforcement-mode controls.
* :mod:`repro.ir.effects` / :mod:`repro.ir.validate` — per-plan
  memory-effects summaries and the translation validator that
  re-derives every applied program rewrite from them
  (``PYACC_VALIDATE`` selects enforcement).
"""

from .arena import ScratchArena, default_arena
from .arena import global_stats as arena_stats
from .compile import (
    CompiledKernel,
    KernelCache,
    cache_info,
    clear_cache,
    compile_kernel,
    executor_mode,
    set_executor_mode,
)
from .diagnostics import Diagnostic, KernelVerificationWarning
from .nativecache import native_stats
from .validate import set_validate_mode, validate_mode
from .vectorizer import IndexDomain
from .verify import (
    set_verify_mode,
    suppress,
    verify_kernel,
    verify_mode,
    verify_trace,
)


def __getattr__(name: str):
    # ``repro.ir.inspect`` is also the ``python -m repro.ir.inspect`` CLI:
    # importing it with the package would make runpy execute a second
    # copy, so its names load on first use.
    if name in ("KernelReport", "inspect_kernel"):
        from . import inspect

        return getattr(inspect, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "CompiledKernel",
    "Diagnostic",
    "IndexDomain",
    "KernelCache",
    "KernelReport",
    "KernelVerificationWarning",
    "ScratchArena",
    "arena_stats",
    "default_arena",
    "inspect_kernel",
    "cache_info",
    "clear_cache",
    "compile_kernel",
    "executor_mode",
    "native_stats",
    "set_executor_mode",
    "set_validate_mode",
    "set_verify_mode",
    "suppress",
    "validate_mode",
    "verify_kernel",
    "verify_mode",
    "verify_trace",
]
