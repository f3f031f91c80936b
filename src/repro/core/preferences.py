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
from contextlib import contextmanager
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
    "MODES",
    "Mode",
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

_ENV_FILE = "PYACC_PREFERENCES"
_ENV_BACKEND = "PYACC_BACKEND"
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


class Mode:
    """One mode knob: its declaration and its process-wide state.

    Precedence is override (:meth:`set`) > environment variable >
    preferences file > default.  The environment and file are consulted
    once, on the first :meth:`get`; after that a ``get`` is one
    attribute read — launches call it, so it must never touch the
    filesystem.
    """

    __slots__ = ("env", "prefs_key", "valid", "default", "doc", "_override", "_active")

    def __init__(self, env: str, prefs_key: str, valid: tuple, default: str, doc: str):
        self.env = env
        self.prefs_key = prefs_key
        self.valid = valid
        self.default = default
        self.doc = doc
        self._override: Optional[str] = None
        #: The override, else the cached resolution (``None`` = unresolved).
        self._active: Optional[str] = None

    def check(self, mode) -> None:
        if mode not in self.valid:
            raise PreferencesError(
                f"{self.prefs_key} mode must be one of {self.valid}, got {mode!r}"
            )

    def resolve(self) -> str:
        """Environment variable > preferences file > default, uncached."""
        mode = os.environ.get(self.env)
        if not mode:
            mode = read_preferences().get(self.prefs_key, self.default)
        self.check(mode)
        return mode

    def get(self) -> str:
        """The mode in effect."""
        mode = self._active
        if mode is None:
            mode = self._active = self.resolve()
        return mode

    def set(self, mode: Optional[str]) -> Optional[str]:
        """Override the mode process-wide; ``None`` drops the override
        and the cached resolution, so the next :meth:`get` re-reads the
        environment and preferences file.  Raises
        :class:`PreferencesError` (a ``ValueError``) on an unknown
        value.  Returns the previous override."""
        if mode is not None:
            self.check(mode)
        previous, self._override = self._override, mode
        self._active = mode
        return previous

    @contextmanager
    def scoped(self, mode: Optional[str]):
        """``with knob.scoped("error"): ...`` — override, then restore."""
        previous = self.set(mode)
        try:
            yield
        finally:
            self.set(previous)


#: The mode table, keyed by preferences key — the one declaration of
#: each knob's environment variable, valid values, default and meaning
#: (docs/API.md "Modes" is written from it).
MODES = {
    mode.prefs_key: mode
    for mode in (
        Mode(
            "PYACC_EXECUTOR", "executor",
            ("native", "codegen", "vector", "interpreter"), "native",
            "Executor strategy for traced kernels (repro.ir.compile): "
            "``native`` compiles each trace to a C shared object via the "
            "system compiler — a kernel or call it declines, no C compiler "
            "on the host included, runs its codegen program instead, "
            "bit-identically, with the reason recorded; ``codegen`` lowers "
            "each trace to straight-line NumPy source once; ``vector`` "
            "walks the IR per launch; ``interpreter`` is scalar reference "
            "execution, no tracing.  The kernel cache keys on the executor, "
            "so switching recompiles.",
        ),
        Mode(
            "PYACC_GRAPH", "graph", ("on", "off"), "on",
            "Launch graphs (repro.graph): ``on`` lets iterative apps capture "
            "their launch sequences once and replay pre-staged graphs — the "
            "fastest steady-state path; ``off`` sends every construct "
            "through the full staged dispatch pipeline, which stays "
            "bit-identical (the differential-testing baseline).",
        ),
        Mode(
            "PYACC_PASSES", "passes", ("all", "none"), "all",
            "Graph fusion pass (repro.ir.program): ``all`` runs global "
            "fusion at instantiate time — bit-identical by construction, an "
            "unsafe merge declines and that launch replays unfused; "
            "``none`` replays captured launches unfused (the differential "
            "suites' reference path).  Takes effect at the next "
            "``instantiate()``.",
        ),
        Mode(
            "PYACC_VERIFY", "verify", ("off", "warn", "error"), "warn",
            "Kernel verifier enforcement (repro.ir.verify): ``off`` skips "
            "the analysis, ``warn`` emits ``KernelVerificationWarning`` and "
            "never blocks a launch, ``error`` raises "
            "``KernelVerificationError`` on error-severity findings.",
        ),
        Mode(
            "PYACC_VALIDATE", "validate", ("off", "warn", "error"), "warn",
            "Translation validator (repro.ir.validate): ``off`` trusts the "
            "fusion pass and skips the re-derivation; ``warn`` undoes a "
            "rewrite it cannot confirm (the program degrades to unoptimized "
            "replay) and warns; ``error`` raises "
            "``TranslationValidationError`` on any unconfirmed rewrite or "
            "error-severity program diagnostic.",
        ),
    )
}

#: Each knob's valid values, default and uncached resolution
#: (env > file > default), by their historical names.
EXECUTOR_MODES, DEFAULT_EXECUTOR = MODES["executor"].valid, MODES["executor"].default
GRAPH_MODES, DEFAULT_GRAPH_MODE = MODES["graph"].valid, MODES["graph"].default
PASSES_PRESETS, DEFAULT_PASSES_MODE = MODES["passes"].valid, MODES["passes"].default
VERIFY_MODES, DEFAULT_VERIFY_MODE = MODES["verify"].valid, MODES["verify"].default
VALIDATE_MODES, DEFAULT_VALIDATE_MODE = MODES["validate"].valid, MODES["validate"].default
resolve_executor_mode = MODES["executor"].resolve
resolve_graph_mode = MODES["graph"].resolve
resolve_passes_mode = MODES["passes"].resolve
resolve_verify_mode = MODES["verify"].resolve
resolve_validate_mode = MODES["validate"].resolve
