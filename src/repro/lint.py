"""Kernel lint CLI: ``python -m repro.lint <paths>``.

Discovers kernel functions in Python source files, traces each one with
probe arguments, and runs the static verifier (:mod:`repro.ir.verify`)
over the result — the batch/CI complement to the inline verification the
dispatch pipeline performs on real launches.  Exits nonzero iff any
kernel has an *error*-severity finding (races, out-of-bounds, impure
reductions); lint-grade warnings and unanalyzable kernels never fail the
build.

Kernel discovery
----------------
A module-level function is treated as a kernel when its leading
parameters name launch indices — a prefix of ``i, j, k`` or of
``x, y, z`` (the repository's two index-naming conventions).  Probe
arguments for the remaining parameters are inferred by convention:

* names like ``n``/``m``/``size`` become the launch extent (an int);
* names like ``alpha``/``beta``/``tau``/``coef`` become a float;
* everything else becomes a float array whose rank is learned by
  retrying on the tracer's rank-mismatch error.

Kernels whose probe cannot be inferred (e.g. flat arrays whose length
must relate to the launch extent, like the LBM distributions) declare an
explicit probe with the :func:`lint_probe` decorator.  Kernels the
tracer cannot handle at all (interpreter tier) are reported as ``V901``
info and skipped.

Usage::

    PYTHONPATH=src python -m repro.lint src/repro/apps examples
    PYTHONPATH=src python -m repro.lint --json path/to/module.py
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import inspect as _inspect
import json
import re
import sys
from pathlib import Path
from typing import Any, Callable, Optional, Sequence

import numpy as np

from .core.exceptions import ConcretizationRequired, TraceError
from .ir.diagnostics import (
    RULE_EXAMPLES,
    RULES,
    Diagnostic,
    rule_severity,
)
from .ir.optimize import optimize_trace
from .ir.tracer import trace_kernel
from .ir.verify import verify_trace

__all__ = ["lint_probe", "lint_paths", "explain_rule", "to_sarif", "main"]

_INDEX_CONVENTIONS = (("i", "j", "k"), ("x", "y", "z"))

#: Parameter names probed as the launch extent (bound to ``dims[0]``).
_INT_HINTS = frozenset(
    {"n", "m", "l", "size", "count", "width", "height", "depth",
     "nx", "ny", "nz", "rows", "cols_per_row"}
)

#: Parameter names probed as a plain float scalar.
_FLOAT_HINTS = frozenset(
    {"alpha", "beta", "gamma", "delta", "tau", "omega", "coef", "dt",
     "eps", "scale", "scalar", "factor", "value", "tol", "h"}
)

#: Launch extent used for heuristic probes (small but > any stencil halo).
_PROBE_EXTENT = 6

_RANK_MISMATCH_RE = re.compile(
    r"array argument (\d+) is \d+-D but was indexed with (\d+) indices"
)


def lint_probe(
    dims,
    args: Any,
    *,
    reduce: bool = False,
    op: str = "add",
) -> Callable:
    """Attach an explicit lint probe to a kernel.

    ``dims`` is the launch domain for the probe; ``args`` is either a
    sequence of probe arguments or a zero-argument callable returning
    one (preferred — fresh arrays per lint run).  ``reduce``/``op``
    declare the construct the kernel is written for, enabling the
    reduction-purity rules.

    .. code-block:: python

        @lint_probe(dims=(6, 6), args=lambda: [np.zeros(9 * 36), ...], )
        def lbm_kernel(x, y, f, ...):
            ...

    The decorator only records metadata (``fn.__lint_probes__``); the
    kernel itself is unchanged.
    """
    norm_dims = (dims,) if isinstance(dims, int) else tuple(dims)

    def deco(fn):
        probes = list(getattr(fn, "__lint_probes__", ()))
        probes.append({"dims": norm_dims, "args": args, "reduce": reduce, "op": op})
        fn.__lint_probes__ = probes
        return fn

    return deco


# ---------------------------------------------------------------------------
# Discovery
# ---------------------------------------------------------------------------


def _index_rank(params: Sequence[str]) -> int:
    """Longest prefix of ``params`` matching an index-naming convention."""
    best = 0
    for names in _INDEX_CONVENTIONS:
        rank = 0
        for have, want in zip(params, names):
            if have != want:
                break
            rank += 1
        best = max(best, rank)
    return min(best, 3)


def discover_kernels(module) -> list[tuple[str, Callable, int, list[str]]]:
    """Module-level kernel functions: ``(name, fn, rank, arg_params)``."""
    out = []
    for name, fn in _inspect.getmembers(module, _inspect.isfunction):
        if name.startswith("_") or fn.__module__ != module.__name__:
            continue
        try:
            params = list(_inspect.signature(fn).parameters)
        except (TypeError, ValueError):  # pragma: no cover - builtins etc.
            continue
        if any(
            p.kind
            not in (
                _inspect.Parameter.POSITIONAL_ONLY,
                _inspect.Parameter.POSITIONAL_OR_KEYWORD,
            )
            for p in _inspect.signature(fn).parameters.values()
        ):
            continue
        rank = _index_rank(params)
        if not getattr(fn, "__lint_probes__", None) and (
            rank == 0 or rank == len(params)
        ):
            # No index prefix — not a kernel.  Index-like params only —
            # could be a one-argument helper (``def norm(x)``); require
            # an explicit probe rather than guessing.
            continue
        out.append((name, fn, rank, params[rank:]))
    return out


def _import_module(path: Path):
    """Import a source file, as its package module when it has one."""
    path = path.resolve()
    if (path.parent / "__init__.py").exists():
        parts = [path.stem]
        root = path.parent
        while (root / "__init__.py").exists():
            parts.insert(0, root.name)
            root = root.parent
        if str(root) not in sys.path:
            sys.path.insert(0, str(root))
        return importlib.import_module(".".join(parts))
    name = f"_pyacc_lint_{path.stem}"
    spec = importlib.util.spec_from_file_location(name, path)
    if spec is None or spec.loader is None:
        raise ImportError(f"cannot load {path}")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def iter_source_files(paths: Sequence[str]) -> list[Path]:
    """Expand files/directories into lintable ``.py`` files."""
    out: list[Path] = []
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            out.extend(
                f
                for f in sorted(p.rglob("*.py"))
                if f.name != "__init__.py" and not f.name.startswith("_")
            )
        elif p.suffix == ".py":
            out.append(p)
        else:
            raise FileNotFoundError(f"not a Python file or directory: {raw}")
    return out


# ---------------------------------------------------------------------------
# Probing + verification
# ---------------------------------------------------------------------------


def _heuristic_args(arg_params: Sequence[str], extent: int, ranks: dict) -> list:
    args: list = []
    for pos, name in enumerate(arg_params):
        lname = name.lower()
        if lname in _INT_HINTS:
            args.append(extent)
        elif lname in _FLOAT_HINTS:
            args.append(0.5)
        else:
            args.append(np.zeros((extent,) * ranks.get(pos, 1)))
    return args


def _trace_with_probe(fn, rank: int, args: list):
    """Trace, escalating to value specialization like the compile driver.

    Returns ``(trace, None)`` or ``(None, reason)``.
    """
    try:
        try:
            return trace_kernel(fn, rank, args), None
        except ConcretizationRequired:
            return trace_kernel(fn, rank, args, concretize_scalars=True), None
    except TraceError as exc:
        return None, str(exc)
    except Exception as exc:  # noqa: BLE001 - probe args are guesses; a
        # kernel body may fail on them in arbitrary ways (shape logic,
        # assertions).  Report, never crash the lint run.
        return None, f"{type(exc).__name__}: {exc}"


def _probe_specs(name: str, fn, rank: int, arg_params: list) -> list[dict]:
    explicit = getattr(fn, "__lint_probes__", None)
    if explicit:
        specs = []
        for probe in explicit:
            args = probe["args"]
            specs.append(
                {
                    "dims": probe["dims"],
                    "args": list(args() if callable(args) else args),
                    "reduce": probe["reduce"],
                    "op": probe["op"],
                }
            )
        return specs
    # Heuristic: learn array ranks from the tracer's mismatch errors.
    ranks: dict[int, int] = {}
    dims = (_PROBE_EXTENT,) * rank
    for _ in range(len(arg_params) + 1):
        args = _heuristic_args(arg_params, _PROBE_EXTENT, ranks)
        trace, reason = _trace_with_probe(fn, rank, args)
        if trace is not None:
            return [{"dims": dims, "args": args, "reduce": None, "op": "add"}]
        match = _RANK_MISMATCH_RE.search(reason or "")
        if match:
            pos, want = int(match.group(1)), int(match.group(2))
            if ranks.get(pos) == want or not 1 <= want <= 3:
                break
            ranks[pos] = want
            continue
        break
    return [{"dims": dims, "args": None, "reduce": None, "op": "add", "reason": reason}]


def lint_kernel(name: str, fn, rank: int, arg_params: list) -> list[Diagnostic]:
    """Probe and verify one kernel; returns its diagnostics."""
    diags: list[Diagnostic] = []
    suppressed = set(getattr(fn, "__verify_suppress__", ()))
    for spec in _probe_specs(name, fn, rank, arg_params):
        if spec["args"] is None:
            diags.append(
                Diagnostic(
                    rule="V901",
                    severity=rule_severity("V901"),
                    kernel=name,
                    message=(
                        "kernel could not be statically traced "
                        f"({spec.get('reason', 'unknown')}); if the inferred "
                        "probe arguments are at fault, declare a @lint_probe"
                    ),
                )
            )
            continue
        trace, reason = _trace_with_probe(fn, len(spec["dims"]), spec["args"])
        if trace is None:
            diags.append(
                Diagnostic(
                    rule="V901",
                    severity=rule_severity("V901"),
                    kernel=name,
                    message=f"kernel is interpreter-tier ({reason}); "
                    "static verification is not available",
                )
            )
            continue
        trace = optimize_trace(trace)
        if trace.shape_dependent or trace.const_args:
            # Capture-unsafe for launch graphs (repro.graph): a replay
            # that rebinds a scalar slot baked into such a trace must
            # recompile (value-specialized), and shape-dependent traces
            # re-key per shape — both defeat the point of graph replay.
            detail = []
            if trace.shape_dependent:
                detail.append("trace depends on array shapes")
            if trace.const_args:
                positions = ", ".join(str(p) for p in sorted(trace.const_args))
                detail.append(f"value-specialized on scalar arg(s) {positions}")
            diags.append(
                Diagnostic(
                    rule="V501",
                    severity=rule_severity("V501"),
                    kernel=name,
                    message=(
                        "kernel is capture-unsafe for launch-graph replay "
                        f"({'; '.join(detail)}); replays that change these "
                        "inputs recompile instead of rebinding"
                    ),
                )
            )
        shapes = {
            pos: a.shape
            for pos, a in enumerate(spec["args"])
            if isinstance(a, np.ndarray)
        }
        scalars = {
            pos: a
            for pos, a in enumerate(spec["args"])
            if isinstance(a, (int, float)) and not isinstance(a, bool)
        }
        if spec["reduce"] is None:
            # Heuristic probe: apply reduce rules only to store-free
            # kernels that return a value (unambiguously reductions).
            op = "add" if trace.result is not None and not trace.stores else None
        else:
            op = spec["op"] if spec["reduce"] else None
        found, _ = verify_trace(
            trace,
            dims=spec["dims"],
            shapes=shapes,
            scalars=scalars,
            op=op,
            kernel=name,
        )
        diags.extend(d for d in found if d.rule not in suppressed)
        diags.extend(
            d
            for d in _native_decline_probe(name, trace, spec["args"])
            if d.rule not in suppressed
        )
    return diags


def _native_decline_probe(name: str, trace, args: list) -> list[Diagnostic]:
    """Informational V701: the kernel is codegen-eligible but the native
    C rung would decline it (so the default executor silently runs it
    one rung down).  Purely static — lowers to source on both rungs
    without invoking any compiler, so the probe is deterministic on
    compiler-less CI hosts too.
    """
    from .ir.cgen import NativeLoweringError, _NativeLowering
    from .ir.codegen import CodegenError, lower_trace

    try:
        lower_trace(trace, args)
    except CodegenError:
        return []  # not codegen-eligible: nothing is silently lost
    try:
        _NativeLowering(trace, args).lower()
    except NativeLoweringError as exc:
        return [
            Diagnostic(
                rule="V701",
                severity=rule_severity("V701"),
                kernel=name,
                message=(
                    "codegen-eligible kernel declines the native C rung "
                    f"({exc.reason}); the default native executor "
                    "silently runs it on the codegen tier"
                ),
            )
        ]
    except Exception:  # noqa: BLE001 - probe must never crash the lint run
        return []
    return []


def lint_paths(paths: Sequence[str]) -> dict:
    """Lint every kernel reachable from ``paths``; returns a report doc."""
    files = []
    totals = {"kernels": 0, "errors": 0, "warnings": 0, "infos": 0}
    for path in iter_source_files(paths):
        module = _import_module(path)
        kernels = []
        for name, fn, rank, arg_params in discover_kernels(module):
            diags = lint_kernel(name, fn, rank, arg_params)
            totals["kernels"] += 1
            for d in diags:
                key = {"error": "errors", "warning": "warnings", "info": "infos"}
                totals[key[d.severity]] += 1
            kernels.append(
                {
                    "kernel": name,
                    "line": fn.__code__.co_firstlineno,
                    "diagnostics": [
                        {
                            "rule": d.rule,
                            "severity": d.severity,
                            "message": d.message,
                            "provenance": d.provenance,
                        }
                        for d in diags
                    ],
                }
            )
        files.append({"file": str(path), "kernels": kernels})
    return {"files": files, "totals": totals}


def explain_rule(rule: str) -> Optional[str]:
    """Human-readable catalog entry for ``--explain RULE``.

    Returns ``None`` for unknown rule ids.  The text comes straight from
    the unified catalog (:data:`repro.ir.diagnostics.RULES` /
    :data:`~repro.ir.diagnostics.RULE_EXAMPLES`) — the same source the
    verifier, the lint CLI and the translation validator report against.
    """
    rule = rule.upper()
    if rule not in RULES:
        return None
    severity, description = RULES[rule]
    lines = [f"{rule} ({severity})", "", description]
    example = RULE_EXAMPLES.get(rule)
    if example:
        lines += ["", "Example:", ""]
        lines += [f"    {ln}" for ln in example.splitlines()]
    return "\n".join(lines)


#: Diagnostic severity -> SARIF result level.
_SARIF_LEVELS = {"error": "error", "warning": "warning", "info": "note"}


def to_sarif(report: dict) -> dict:
    """Convert a :func:`lint_paths` report to a SARIF 2.1.0 log.

    One run, rules taken from the unified catalog, one result per
    diagnostic located at the kernel function's definition line (the
    finest granularity the tracer preserves).  Suitable for GitHub code
    scanning upload.
    """
    rules_used = sorted(
        {
            d["rule"]
            for f in report["files"]
            for k in f["kernels"]
            for d in k["diagnostics"]
        }
    )
    results = []
    for entry in report["files"]:
        uri = Path(entry["file"]).as_posix()
        for kernel in entry["kernels"]:
            for d in kernel["diagnostics"]:
                message = d["message"]
                if d.get("provenance"):
                    message = f"{message} [{d['provenance']}]"
                results.append(
                    {
                        "ruleId": d["rule"],
                        "level": _SARIF_LEVELS.get(d["severity"], "note"),
                        "message": {
                            "text": f"{kernel['kernel']}: {message}"
                        },
                        "locations": [
                            {
                                "physicalLocation": {
                                    "artifactLocation": {"uri": uri},
                                    "region": {
                                        "startLine": kernel.get("line", 1)
                                    },
                                }
                            }
                        ],
                    }
                )
    return {
        "$schema": (
            "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
            "master/Schemata/sarif-schema-2.1.0.json"
        ),
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-lint",
                        "informationUri": "https://example.invalid/repro",
                        "rules": [
                            {
                                "id": rule,
                                "shortDescription": {
                                    "text": RULES.get(rule, ("", rule))[1]
                                    or rule
                                },
                                "defaultConfiguration": {
                                    "level": _SARIF_LEVELS.get(
                                        rule_severity(rule), "note"
                                    )
                                },
                            }
                            for rule in rules_used
                        ],
                    }
                },
                "results": results,
            }
        ],
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="Statically verify PyACC kernels (races, bounds, "
        "reduction purity, lint rules).",
    )
    parser.add_argument("paths", nargs="*", help="Python files or directories")
    parser.add_argument(
        "--json", action="store_true", help="emit a JSON report on stdout"
    )
    parser.add_argument(
        "--sarif",
        action="store_true",
        help="emit a SARIF 2.1.0 log on stdout (code-scanning upload)",
    )
    parser.add_argument(
        "--explain",
        metavar="RULE",
        help="print the catalog entry for a rule id (e.g. V101) and exit",
    )
    parser.add_argument(
        "-q", "--quiet", action="store_true", help="only print findings"
    )
    ns = parser.parse_args(argv)

    if ns.explain:
        text = explain_rule(ns.explain)
        if text is None:
            known = ", ".join(sorted(RULES))
            print(
                f"error: unknown rule {ns.explain!r}; known rules: {known}",
                file=sys.stderr,
            )
            return 2
        print(text)
        return 0

    if not ns.paths:
        parser.error("paths are required unless --explain is given")

    try:
        report = lint_paths(ns.paths)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if ns.sarif:
        print(json.dumps(to_sarif(report), indent=2))
    elif ns.json:
        print(json.dumps(report, indent=2))
    else:
        for entry in report["files"]:
            shown = False
            for kernel in entry["kernels"]:
                for d in kernel["diagnostics"]:
                    loc = f" [{d['provenance']}]" if d["provenance"] else ""
                    print(
                        f"{entry['file']}: {kernel['kernel']}: {d['rule']} "
                        f"{d['severity']}: {d['message']}{loc}"
                    )
                    shown = True
            if not ns.quiet and not shown and entry["kernels"]:
                names = ", ".join(k["kernel"] for k in entry["kernels"])
                print(f"{entry['file']}: OK ({names})")
        t = report["totals"]
        if not ns.quiet:
            print(
                f"checked {t['kernels']} kernel(s): {t['errors']} error(s), "
                f"{t['warnings']} warning(s), {t['infos']} info(s)"
            )
    return 1 if report["totals"]["errors"] else 0


if __name__ == "__main__":
    sys.exit(main())
