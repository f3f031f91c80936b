"""Translation validation for the program-level fusion pass.

Global fusion (:mod:`repro.ir.program`) rewrites captured programs with
the legality reasoning embedded in the pass.  A bug there silently
corrupts results.  This module is the independent check, in the classic
translation-validation mold (Pnueli/Necula): after the pass runs,
every *applied* rewrite is re-derived from the per-plan memory-effects
summaries (:mod:`repro.ir.effects`) **alone** — summaries built by the
verifier's affine-access machinery, not by the pass.  A rewrite the
validator cannot confirm yields a V610 diagnostic: under ``error`` mode
the instantiation raises :class:`~repro.core.exceptions.
TranslationValidationError`; under ``warn`` (the default) the rewrite
set is undone and the program degrades to unoptimized replay, which is
always correct.

The same hook runs the program-level hazard analyses on the final node
sequence — V602 (graph-level dead store spanning launches; reported to
the user, never silently eliminated) and V603
(reduce-into-aliased-input on a fused node) — and this module also hosts
the V31x static reduce-operator checker (:func:`verify_reduce_op`),
which probes a user-supplied combine op for associativity and its
declared neutral element on exactly-representable samples, paving the
way to opening ``REDUCE_OPS`` beyond the built-in monoids.

Mode selection mirrors the kernel verifier: ``PYACC_VALIDATE`` env >
``validate`` preferences key > ``warn``; counters land in
``graph_stats()["validate"]``.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from ..core.preferences import MODES
from .diagnostics import Diagnostic, rule_severity
from .effects import (
    EffectsSummary,
    program_dead_stores,
    reduce_alias_hazards,
)

__all__ = [
    "active_validate_mode",
    "set_validate_mode",
    "validate_mode",
    "validate_program",
    "program_diagnostics",
    "verify_reduce_op",
]


# ---------------------------------------------------------------------------
# Enforcement-mode selection
# ---------------------------------------------------------------------------

#: The ``validate`` knob (``PYACC_VALIDATE``, see
#: :data:`repro.core.preferences.MODES`): ``active_validate_mode()`` is
#: the validator mode in effect, ``set_validate_mode(mode | None)`` the
#: process-wide override (returns the previous one), and
#: ``with validate_mode("error"): ...`` scopes an override.
active_validate_mode = MODES["validate"].get
set_validate_mode = MODES["validate"].set
validate_mode = MODES["validate"].scoped


def _diag(rule: str, kernel: str, message: str, provenance: str = ""):
    return Diagnostic(
        rule=rule,
        severity=rule_severity(rule),
        kernel=kernel,
        message=message,
        provenance=provenance,
    )


# ---------------------------------------------------------------------------
# Rewrite re-derivation
# ---------------------------------------------------------------------------


def _element_local(a: EffectsSummary, b: EffectsSummary) -> Optional[str]:
    """Why per-iteration fusion of ``b`` into ``a`` breaks value flow.

    Every array shared between the two launches where either side writes
    must be accessed *only* through the static identity pattern on both
    sides — identity accesses never cross a chunk boundary, so fusing
    the bodies per chunk preserves exactly the sequential per-element
    dataflow.
    """
    shared = (a.read_ids | a.write_ids) & (b.read_ids | b.write_ids)
    for sid in shared:
        if sid not in a.write_ids and sid not in b.write_ids:
            continue
        for eff in a.effects_for_sid(sid) + b.effects_for_sid(sid):
            if not (eff.identity_reads and eff.identity_writes):
                return (
                    f"shared written array (arg{eff.pos}) is accessed "
                    "at non-identity indices"
                )
    if b.result_nonidentity_ids & a.write_ids:
        return (
            "inlined reduction reads producer-written arrays at "
            "non-identity indices"
        )
    return None


def _check_fuse(rec: dict) -> Optional[str]:
    a: EffectsSummary = rec["a"]
    b: EffectsSummary = rec["b"]
    if a.opaque or b.opaque:
        return "an operand has no trace (opaque effects)"
    if a.dims != b.dims or a.ndim != b.ndim:
        return f"domain mismatch: {a.dims} vs {b.dims}"
    if a.is_reduce:
        return "producer is a reduction (terminates the chain)"
    for s in rec["skipped"]:
        if s.opaque:
            return f"moved launch hops an opaque node {s.kernel!r}"
        if (s.write_ids & (b.read_ids | b.write_ids)) or (
            s.read_ids & b.write_ids
        ):
            return (
                f"moved launch conflicts with hopped-over node "
                f"{s.kernel!r}"
            )
    return _element_local(a, b)


#: Rewrite kind → checker.  A table (of one) because the degrade/raise
#: tests substitute a failing checker through it.
_CHECKERS: dict[str, Callable] = {"fuse": _check_fuse}


def validate_program(prog, record: Optional[Callable] = None) -> list:
    """Re-derive the legality of every applied rewrite on ``prog``.

    ``prog.rewrites`` holds one record per applied rewrite, each
    carrying pre-rewrite :class:`EffectsSummary` snapshots taken at
    apply time.
    Returns the V610 diagnostics for every rewrite the checkers cannot
    confirm (empty = all confirmed); ``record(kind, confirmed=...,
    rejected=...)`` accounts each decision.
    """
    diags = []
    for rec in getattr(prog, "rewrites", ()):
        kind = rec["kind"]
        checker = _CHECKERS.get(kind)
        if checker is None:  # pragma: no cover - future pass kinds
            continue
        why = checker(rec)
        if why is None:
            if record is not None:
                record(kind, confirmed=1)
            continue
        if record is not None:
            record(kind, rejected=1)
        diags.append(
            _diag(
                "V610",
                rec.get("label", prog.name),
                f"applied {kind} rewrite is not independently provable: "
                f"{why}",
                provenance=f"rewrite={kind}",
            )
        )
    return diags


def program_diagnostics(prog) -> list:
    """Program-level hazard analyses over the final node sequence.

    V602 — graph-level dead store (warning);
    V603 — a fused node's reduction reads arrays the node writes at
    non-identity indices (error).  Works purely on effects summaries.
    """
    from .effects import plan_effects

    labeled = []
    diags = []
    for pn in prog.nodes:
        plan = pn.gnode.plan
        summary = plan_effects(plan)
        labeled.append((plan.label, summary))
        if summary.is_reduce:
            diags.extend(reduce_alias_hazards(summary))
    diags.extend(program_dead_stores(labeled))
    return diags


# ---------------------------------------------------------------------------
# V31x: static reduce-operator checking
# ---------------------------------------------------------------------------

#: Combine ops known associative with their neutral elements — the
#: built-in monoid table (``REDUCE_OPS``) plus their ufunc spellings.
_KNOWN_ASSOCIATIVE = {"add", "min", "max", "mul"}
_KNOWN_UFUNCS = {np.add, np.minimum, np.maximum, np.multiply}

#: Exactly-representable probe values: sums, products, mins and maxes of
#: these are computed without rounding, so a genuinely associative float
#: op compares bit-equal across re-associations and the probe never
#: reports a spurious V311.
_SAMPLES = (0.0, 1.0, -1.5, 2.0, 0.25, -8.0, 0.5)


def verify_reduce_op(fn, neutral=None, *, name: str = "<op>") -> list:
    """Statically check a reduce combine op: V311 associativity, V312
    neutral element.

    ``fn`` is either a known op name (``"add"``/``"min"``/...), a known
    ufunc, or an arbitrary binary callable; ``neutral`` is the claimed
    identity element (``None`` skips the V312 check).  The checker
    *probes*: it evaluates the op over triples of exactly-representable
    samples and compares re-associations bit-for-bit — sound for every
    op built from +, *, min, max over these values, and exactly the
    property chunked/parallel folds rely on.  Returns the diagnostics
    (empty = the op is fit to open up ``REDUCE_OPS``).
    """
    if isinstance(fn, str):
        if fn in _KNOWN_ASSOCIATIVE:
            return []
        return [
            _diag(
                "V311",
                name if name != "<op>" else fn,
                f"unknown reduce op name {fn!r}: no associativity "
                "evidence",
            )
        ]
    if fn in _KNOWN_UFUNCS:
        return []
    diags = []
    try:
        for a in _SAMPLES:
            for b in _SAMPLES:
                for c in _SAMPLES:
                    left = fn(fn(a, b), c)
                    right = fn(a, fn(b, c))
                    if left != right:
                        diags.append(
                            _diag(
                                "V311",
                                name,
                                "combine op is not associative: "
                                f"op(op({a}, {b}), {c}) = {left} but "
                                f"op({a}, op({b}, {c})) = {right}; "
                                "chunked folds would diverge",
                            )
                        )
                        raise StopIteration
    except StopIteration:
        pass
    except Exception as exc:
        diags.append(
            _diag(
                "V311",
                name,
                f"combine op raised while probing associativity: {exc!r}",
            )
        )
        return diags
    if neutral is not None:
        try:
            for x in _SAMPLES:
                if fn(neutral, x) != x or fn(x, neutral) != x:
                    diags.append(
                        _diag(
                            "V312",
                            name,
                            f"{neutral!r} is not a neutral element: "
                            f"op({neutral!r}, {x}) = {fn(neutral, x)} "
                            f"!= {x}; empty chunks would poison the fold",
                        )
                    )
                    break
        except Exception as exc:
            diags.append(
                _diag(
                    "V312",
                    name,
                    f"combine op raised while probing the neutral "
                    f"element: {exc!r}",
                )
            )
    return diags
