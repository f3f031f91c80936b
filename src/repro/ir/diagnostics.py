"""Structured diagnostics for the kernel verifier.

The verifier (:mod:`repro.ir.verify`) analyzes a traced kernel against
the parallel contract of ``parallel_for``/``parallel_reduce`` and emits
:class:`Diagnostic` records — one per violated rule, carrying the rule
id, severity, the kernel's name and a formatted provenance snippet of the
offending IR.  Severity drives enforcement (see ``docs/API.md``, "Kernel
verification"):

* ``error`` — the kernel breaks the parallel contract (a cross-iteration
  race, a provable out-of-bounds access, an impure reduction).  In
  ``error`` mode these raise
  :class:`~repro.core.exceptions.KernelVerificationError`; the lint CLI
  exits nonzero on them.
* ``warning`` — lint-grade findings (dead stores, unused array
  arguments, float equality guards).  Reported, never fatal.
* ``info`` — notes (e.g. a kernel that fell to the interpreter and could
  not be analyzed).

The rule catalog below is the single source of truth for ids and default
severities; ``docs/API.md`` documents each rule with examples.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..obs import Counters, register

__all__ = [
    "Diagnostic",
    "KernelVerificationWarning",
    "RULES",
    "RULE_EXAMPLES",
    "SEVERITIES",
    "rule_severity",
    "rule_description",
    "counters",
    "DiagnosticCounters",
]

#: Severities in decreasing order of gravity.
SEVERITIES = ("error", "warning", "info")

#: Rule catalog: id -> (default severity, one-line description).
RULES: dict[str, tuple[str, str]] = {
    "V101": (
        "error",
        "cross-iteration race: two stores to the same array may target "
        "the same element from distinct iterations",
    ),
    "V102": (
        "error",
        "cross-iteration race: a store and a load on the same array may "
        "alias across distinct iterations",
    ),
    "V201": (
        "error",
        "out-of-bounds access: an index can leave the array extent for "
        "some iteration of the launch domain",
    ),
    "V301": (
        "error",
        "impure reduction: a parallel_reduce kernel stores into an "
        "array argument",
    ),
    "V302": (
        "error",
        "reduction default mismatch: a path returns no value and the "
        "implicit 0.0 is not neutral for the combine op",
    ),
    "V401": (
        "warning",
        "dead store: unconditionally overwritten by a later store to "
        "the same element with no intervening read",
    ),
    "V402": (
        "warning",
        "unused array argument: passed to the kernel but never loaded "
        "or stored",
    ),
    "V403": (
        "warning",
        "float equality guard: branching on == / != against a float "
        "constant is fragile",
    ),
    "V311": (
        "error",
        "non-associative reduce operator: the combine op fails the "
        "associativity probe, so chunked/parallel folds diverge from "
        "the sequential result",
    ),
    "V312": (
        "error",
        "wrong neutral element: op(neutral, x) != x for the declared "
        "reduce identity, so empty chunks poison the fold",
    ),
    "V501": (
        "info",
        "capture-unsafe kernel: the trace depends on the launch shape "
        "or specializes on scalar values, so graph replay with "
        "different bindings may be stale",
    ),
    "V601": (
        "error",
        "cross-launch race: an unsynchronized launch(..., sync=False) "
        "reads or overwrites arrays a still-pending launch writes "
        "(RAW/WAW) without an intervening synchronize()",
    ),
    "V602": (
        "warning",
        "graph-level dead store: a launch's writes are fully "
        "overwritten by a later launch with no intervening read, "
        "spanning launch boundaries",
    ),
    "V603": (
        "error",
        "reduce-into-aliased-input hazard: a fused node's reduction "
        "reads an array the same node writes at non-identity indices, "
        "so chunked execution observes partial writes",
    ),
    "V610": (
        "error",
        "translation validation failure: an applied fusion "
        "rewrite is not independently provable from the memory-effects "
        "summaries alone",
    ),
    "V701": (
        "info",
        "silent native decline: the kernel is codegen-eligible but the "
        "native C rung declined it (unsupported op/dtype or missing "
        "compiler), so the default native executor silently runs it one "
        "rung down",
    ),
    "V901": (
        "info",
        "kernel not analyzable: no IR trace (interpreter tier) or no "
        "probe arguments",
    ),
}

#: Minimal examples per rule, printed by ``python -m repro.lint
#: --explain <rule>``.  Each shows code (or an API sequence) that
#: triggers the rule.
RULE_EXAMPLES: dict[str, str] = {
    "V101": (
        "def k(i, x):\n"
        "    x[0] = i          # every iteration stores element 0"
    ),
    "V102": (
        "def k(i, x):\n"
        "    x[i] = x[i + 1]   # iteration i loads what i+1 stores"
    ),
    "V201": (
        "def k(i, x):\n"
        "    x[i + 1] = 0.0    # last iteration steps past the extent"
    ),
    "V301": (
        "def dot(i, x, y):\n"
        "    x[i] = 0.0        # reduce kernels must not store\n"
        "    return x[i] * y[i]"
    ),
    "V302": (
        "def m(i, x):\n"
        "    if x[i] > 0:\n"
        "        return x[i]   # missing else-path returns 0.0,\n"
        "                      # not neutral for op='min'"
    ),
    "V401": (
        "def k(i, x):\n"
        "    x[i] = 1.0        # dead: overwritten below, never read\n"
        "    x[i] = 2.0"
    ),
    "V402": (
        "def k(i, x, unused):\n"
        "    x[i] = 2.0        # 'unused' is never loaded or stored"
    ),
    "V403": (
        "def k(i, x):\n"
        "    if x[i] == 0.3:   # float equality is fragile\n"
        "        x[i] = 0.0"
    ),
    "V311": (
        "repro.parallel_reduce(n, lambda i, x: x[i], x,\n"
        "                      op=lambda a, b: a - b)  # (a-b)-c != a-(b-c)"
    ),
    "V312": (
        "repro.parallel_reduce(n, lambda i, x: x[i], x,\n"
        "                      op=max_op, neutral=1.0)  # max(1.0, 0.5) != 0.5"
    ),
    "V501": (
        "def k(i, x, n):\n"
        "    if i < n - 1:     # trace specialized on the value of n;\n"
        "        x[i] = x[i + 1]  # replaying with a new n is stale"
    ),
    "V601": (
        "h1 = repro.launch('for', n, writer, x, sync=False)\n"
        "h2 = repro.launch('for', n, reader, x, y, sync=False)\n"
        "# reader consumes x while writer may still be in flight;\n"
        "# call repro.synchronize() (or h1.wait()) between them"
    ),
    "V602": (
        "with ctx.capture('g'):\n"
        "    repro.parallel_for(n, fill_a, tmp)   # dead: fully\n"
        "    repro.parallel_for(n, fill_b, tmp)   # overwritten, never read"
    ),
    "V603": (
        "# fusion inlined a reduce into a producer that writes x:\n"
        "def fused(i, x):\n"
        "    x[i] = 2.0 * x[i]\n"
        "    return x[i - 1]   # reads a neighbor mid-overwrite"
    ),
    "V610": (
        "# a pass claims 'fuse(a, b)' but the effects summaries show\n"
        "# a hopped-over node writes an array b reads — the rewrite\n"
        "# is declined and the program degrades to unfused replay"
    ),
    "V701": (
        "def k(i, x):\n"
        "    x[i] = x[i] ** 2  # pow has no bit-exact C equivalent:\n"
        "                      # native declines (op:pow), codegen runs"
    ),
    "V901": (
        "def k(i, x):\n"
        "    print(x[i])       # side effect forces the interpreter tier"
    ),
}


def rule_severity(rule: str) -> str:
    """Default severity of a catalog rule (``info`` for unknown ids)."""
    return RULES.get(rule, ("info", ""))[0]


def rule_description(rule: str) -> str:
    """One-line description of a catalog rule (empty for unknown ids)."""
    return RULES.get(rule, ("", ""))[1]


class KernelVerificationWarning(UserWarning):
    """Python warning category used by the ``warn`` enforcement mode."""


@dataclass(frozen=True)
class Diagnostic:
    """One finding of the kernel verifier.

    Attributes
    ----------
    rule:
        Catalog id (``V101`` ... ``V901``), see :data:`RULES`.
    severity:
        ``"error"``, ``"warning"`` or ``"info"``.
    kernel:
        Name of the kernel function the finding is about.
    message:
        Human-readable explanation, self-contained.
    provenance:
        Formatted IR snippet(s) locating the finding (store/load
        expressions as printed by :func:`repro.ir.nodes.format_node`).
    """

    rule: str
    severity: str
    kernel: str
    message: str
    provenance: str = ""

    def __post_init__(self):
        if self.severity not in SEVERITIES:
            raise ValueError(
                f"unknown severity {self.severity!r}; expected one of {SEVERITIES}"
            )

    @property
    def is_error(self) -> bool:
        return self.severity == "error"

    def __str__(self) -> str:
        loc = f" [{self.provenance}]" if self.provenance else ""
        return f"{self.rule} {self.severity} ({self.kernel}): {self.message}{loc}"


class DiagnosticCounters(Counters):
    """Process-wide tally of verifier activity (the ``verify`` block).

    The bench harness snapshots these into its JSON results so verifier
    noise (new warnings/errors on the paper workloads) is visible in the
    perf trajectory alongside the timing numbers.
    """

    __slots__ = ()

    def __init__(self) -> None:
        super().__init__(
            "verify",
            ("kernels_verified", "errors", "warnings", "infos"),
            keyed=("by_rule",),
        )

    def record(self, diagnostics) -> None:
        """Count one fresh verification and its findings."""
        self.bump("kernels_verified")
        for d in diagnostics:
            self.bump(d.severity + "s")  # one of SEVERITIES, pluralized
            self.bump_key("by_rule", d.rule)


#: The process-wide counters instance (see :class:`DiagnosticCounters`).
counters = DiagnosticCounters()
register(counters)
