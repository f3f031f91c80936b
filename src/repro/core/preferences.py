"""Backend preferences — the LocalPreferences.toml analogue.

JACC selects its backend with Julia's Preferences.jl, which persists the
choice in a ``LocalPreferences.toml`` next to the active project before
precompilation.  We reproduce the same mechanism:

* The preferences file is ``LocalPreferences.toml`` in the current working
  directory, overridable with the ``PYACC_PREFERENCES`` environment
  variable (a path).
* The backend preference lives under a ``[repro]`` table, key
  ``backend``.  The environment variable ``PYACC_BACKEND`` overrides the
  file (handy for CI matrices, like the paper's per-backend GitHub
  runners).
* :func:`resolve_backend_name` is consulted once at first use; the
  runtime default is ``"threads"`` — the same default JACC ships
  (Base.Threads on CPUs).

Reading uses the standard library ``tomllib``; writing emits the minimal
single-table document ourselves (no TOML writer in the stdlib).
"""

from __future__ import annotations

import os
import tomllib
from pathlib import Path
from typing import Optional

from .exceptions import PreferencesError

__all__ = [
    "DEFAULT_BACKEND",
    "DEFAULT_EXECUTOR",
    "DEFAULT_GRAPH_MODE",
    "DEFAULT_PASSES_MODE",
    "DEFAULT_VALIDATE_MODE",
    "DEFAULT_VERIFY_MODE",
    "EXECUTOR_MODES",
    "GRAPH_MODES",
    "PASSES_PRESETS",
    "VALIDATE_MODES",
    "VERIFY_MODES",
    "preferences_path",
    "read_preferences",
    "write_preference",
    "resolve_backend_name",
    "resolve_executor_mode",
    "resolve_graph_mode",
    "resolve_passes_mode",
    "resolve_validate_mode",
    "resolve_verify_mode",
]

#: The paper's default backend is Base.Threads; ours is its analogue.
DEFAULT_BACKEND = "threads"

#: Enforcement modes of the kernel verifier (see repro.ir.verify).
VERIFY_MODES = ("off", "warn", "error")

#: Default verifier enforcement: report findings, never block a launch.
DEFAULT_VERIFY_MODE = "warn"

#: Enforcement modes of the translation validator (repro.ir.validate).
VALIDATE_MODES = ("off", "warn", "error")

#: Default validator enforcement: a rewrite the validator cannot confirm
#: is undone (the program degrades to unoptimized replay) with a
#: warning; ``error`` raises instead, ``off`` skips the re-derivation.
DEFAULT_VALIDATE_MODE = "warn"

#: Executor strategies for traced kernels (see repro.ir.compile):
#: ``native`` compiles the trace to a C shared object (declining to
#: codegen when ineligible), ``codegen`` lowers the trace to
#: straight-line NumPy source once, ``vector`` walks the IR per launch,
#: ``interpreter`` skips tracing.
EXECUTOR_MODES = ("native", "codegen", "vector", "interpreter")

#: Default executor: compiled C loops.  A kernel (or a call) the native
#: rung declines — no C compiler on the host included — runs its codegen
#: program instead, bit-identically, with the reason recorded.
DEFAULT_EXECUTOR = "native"

#: Launch-graph capture modes (see repro.graph): ``on`` lets the
#: iterative apps capture + replay their launch sequences, ``off``
#: dispatches every construct through the full staged pipeline.
GRAPH_MODES = ("on", "off")

#: Values of the passes knob (see repro.ir.program): ``all`` runs global
#: fusion at instantiate time, ``none`` replays the capture unfused.
PASSES_PRESETS = ("all", "none")

#: Default: graphs enabled (the fastest steady-state path; the staged
#: pipeline stays bit-identical, so opting out is a pure perf knob).
DEFAULT_GRAPH_MODE = "on"

#: Default: fusion on (bit-identical by construction; an unsafe merge
#: declines and that launch replays unfused).
DEFAULT_PASSES_MODE = "all"

_ENV_FILE = "PYACC_PREFERENCES"
_ENV_BACKEND = "PYACC_BACKEND"
_ENV_VERIFY = "PYACC_VERIFY"
_ENV_EXECUTOR = "PYACC_EXECUTOR"
_ENV_GRAPH = "PYACC_GRAPH"
_ENV_PASSES = "PYACC_PASSES"
_ENV_VALIDATE = "PYACC_VALIDATE"
_TABLE = "repro"
_FILENAME = "LocalPreferences.toml"


def preferences_path() -> Path:
    """Location of the preferences file for this process."""
    override = os.environ.get(_ENV_FILE)
    if override:
        return Path(override)
    return Path.cwd() / _FILENAME


def read_preferences(path: Optional[Path] = None) -> dict:
    """Read the ``[repro]`` preferences table; missing file → ``{}``."""
    p = path or preferences_path()
    if not p.exists():
        return {}
    try:
        with open(p, "rb") as fh:
            doc = tomllib.load(fh)
    except (OSError, tomllib.TOMLDecodeError) as exc:
        raise PreferencesError(f"cannot read preferences file {p}: {exc}") from exc
    table = doc.get(_TABLE, {})
    if not isinstance(table, dict):
        raise PreferencesError(
            f"preferences file {p} has a non-table [{_TABLE}] entry"
        )
    return table


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return repr(value)
    if isinstance(value, str):
        escaped = value.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    raise PreferencesError(
        f"unsupported preference value type {type(value).__name__}"
    )


def write_preference(key: str, value, path: Optional[Path] = None) -> Path:
    """Persist one preference under ``[repro]``, keeping existing keys.

    Other tables in an existing file are preserved verbatim is *not*
    attempted — the file is owned by this package, matching how
    Preferences.jl rewrites LocalPreferences.toml.
    """
    p = path or preferences_path()
    table = {}
    if p.exists():
        table = read_preferences(p)
    table[key] = value
    lines = [f"[{_TABLE}]"]
    for k in sorted(table):
        lines.append(f"{k} = {_format_value(table[k])}")
    try:
        p.write_text("\n".join(lines) + "\n", encoding="utf-8")
    except OSError as exc:
        raise PreferencesError(f"cannot write preferences file {p}: {exc}") from exc
    return p


def resolve_backend_name() -> str:
    """Decide the backend name: env var > preferences file > default."""
    env = os.environ.get(_ENV_BACKEND)
    if env:
        return env
    prefs = read_preferences()
    backend = prefs.get("backend", DEFAULT_BACKEND)
    if not isinstance(backend, str):
        raise PreferencesError(
            f"preference 'backend' must be a string, got {backend!r}"
        )
    return backend


def _resolve_mode(env_name: str, prefs_key: str, valid: tuple, default: str) -> str:
    """One knob, one rule: env var > preferences file > default, then a
    membership check against ``valid``."""
    mode = os.environ.get(env_name)
    if not mode:
        mode = read_preferences().get(prefs_key, default)
    if mode not in valid:
        raise PreferencesError(
            f"{prefs_key} mode must be one of {valid}, got {mode!r}"
        )
    return mode


def resolve_verify_mode() -> str:
    """Decide the verifier enforcement mode: env var > file > default.

    The environment variable is ``PYACC_VERIFY``; the preferences key is
    ``verify`` under ``[repro]``.  Valid values are ``off`` (skip the
    analysis entirely), ``warn`` (emit ``KernelVerificationWarning``,
    the default) and ``error`` (raise ``KernelVerificationError`` on
    error-severity findings).
    """
    return _resolve_mode(_ENV_VERIFY, "verify", VERIFY_MODES, DEFAULT_VERIFY_MODE)


def resolve_validate_mode() -> str:
    """Decide the translation-validator mode: env var > file > default.

    The environment variable is ``PYACC_VALIDATE``; the preferences key
    is ``validate`` under ``[repro]``.  Valid values are ``off`` (trust
    the fusion pass, skip re-derivation), ``warn`` (undo unconfirmed
    rewrites and warn, the default) and ``error`` (raise
    ``TranslationValidationError`` on any unconfirmed rewrite or
    error-severity program diagnostic).
    """
    return _resolve_mode(
        _ENV_VALIDATE, "validate", VALIDATE_MODES, DEFAULT_VALIDATE_MODE
    )


def resolve_executor_mode() -> str:
    """Decide the kernel executor: env var > file > default.

    The environment variable is ``PYACC_EXECUTOR``; the preferences key
    is ``executor`` under ``[repro]``.  Valid values are ``native``
    (compile each trace to a C shared object via the system compiler,
    declining to codegen when ineligible), ``codegen`` (lower each
    trace to generated NumPy source, the default), ``vector`` (walk the
    IR per launch) and ``interpreter`` (scalar reference execution, no
    tracing) — the ablation axis for the executor benchmarks.
    """
    return _resolve_mode(
        _ENV_EXECUTOR, "executor", EXECUTOR_MODES, DEFAULT_EXECUTOR
    )


def resolve_graph_mode() -> str:
    """Decide the launch-graph mode: env var > file > default.

    The environment variable is ``PYACC_GRAPH``; the preferences key is
    ``graph`` under ``[repro]``.  Valid values are ``on`` (iterative
    apps capture their launch sequences once and replay pre-staged
    graphs, the default) and ``off`` (every construct goes through the
    full staged dispatch pipeline — the differential-testing baseline).
    """
    return _resolve_mode(_ENV_GRAPH, "graph", GRAPH_MODES, DEFAULT_GRAPH_MODE)


def resolve_passes_mode() -> str:
    """Decide the graph fusion-pass mode: env var > file > default.

    The environment variable is ``PYACC_PASSES``; the preferences key is
    ``passes`` under ``[repro]``.  Valid values are ``all`` (default —
    global fusion runs at instantiate time) and ``none`` (captured
    launches replay unfused; the differential suites' reference path).
    """
    return _resolve_mode(
        _ENV_PASSES, "passes", PASSES_PRESETS, DEFAULT_PASSES_MODE
    )
