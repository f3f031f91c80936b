"""Kernel inspection: what did the JIT do with my kernel?

``inspect_kernel`` compiles a kernel exactly as ``parallel_for`` /
``parallel_reduce`` would and reports everything a user needs to reason
about its performance: which executor tier it landed on (and why, if it
fell), the traced IR, the per-lane work profile, and its performance
class on each modeled architecture.  The moral equivalent of Julia's
``@code_typed`` / ``@device_code`` for this model.

>>> import numpy as np
>>> from repro.ir.inspect import inspect_kernel
>>> def axpy(i, alpha, x, y):
...     x[i] += alpha * y[i]
>>> report = inspect_kernel(axpy, 1, [2.5, np.ones(4), np.ones(4)])
>>> report.mode
'codegen'
>>> report.stats.loads
2.0

The generated straight-line NumPy program (the codegen tier's artifact)
is on ``report.source`` — print it to see exactly what a launch runs.

Run as a module for the *program-level* view (the dataflow IR the graph
pass pipeline optimizes, see :mod:`repro.ir.program`)::

    python -m repro.ir.inspect --program [--passes all|none]

captures a CG-style iteration body, prints its dataflow graph before
fusion runs, then the fused program with the pass trail.

``python -m repro.ir.inspect --native`` compiles the CG matvec, the
LBM collide, a scatter and the BLAS dot kernel under the native executor
and prints, per kernel, its loop nests and single-loop licence, which
fold a reduce uses, and the generated C translation unit side by side
with the codegen tier's NumPy source — the two artifacts the
differential suite holds bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Sequence

from ..core.exceptions import PyACCError
from . import nodes as N
from .compile import CompiledKernel, compile_kernel
from .stats import TraceStats

__all__ = ["KernelReport", "inspect_kernel"]


@dataclass(frozen=True)
class KernelReport:
    """Everything the JIT knows about one compiled kernel."""

    name: str
    ndim: int
    #: "native" | "native-specialized" | "codegen" |
    #: "codegen-specialized" | "vector" | "vector-specialized" |
    #: "interpreter"
    mode: str
    n_paths: int
    stats: TraceStats
    ir: str  # formatted trace, "" in interpreter mode
    fallback_reason: Optional[str]
    specialized_on: dict  # arg position -> baked-in value
    kernel_class: str  # perf class at this ndim ("n/a" for interpreter)
    #: Verifier findings (populated when concrete dims were given).
    diagnostics: tuple = ()
    #: Generated Python/NumPy source ("" unless the codegen tier was hit).
    source: str = ""
    #: Generated C source ("" unless the native tier was hit).
    native_source: str = ""

    def explain(self) -> str:
        """Human-readable multi-line summary."""
        lines = [f"kernel {self.name!r} ({self.ndim}-D launch domain)"]
        if self.mode == "interpreter":
            lines.append("  tier: scalar interpreter (NOT vectorized)")
            if self.fallback_reason:
                lines.append(f"  reason: {self.fallback_reason}")
            lines.append(
                "  hint: see docs/PORTING.md — data-dependent loop bounds "
                "and int()/float() on traced values prevent tracing"
            )
            return "\n".join(lines)
        if self.mode.startswith("native"):
            tier = "compiled C loop (native)"
        elif self.mode.startswith("codegen"):
            tier = "generated NumPy program"
        else:
            tier = "vectorized trace"
        if self.mode.endswith("-specialized"):
            tier += f" (value-specialized on {self.specialized_on})"
        lines.append(f"  tier: {tier}")
        lines.append(
            f"  control flow: {self.n_paths} path(s)"
            + ("" if self.n_paths == 1 else " (branches traced + masked)")
        )
        lines.append(
            f"  per lane: {self.stats.loads:g} loads, {self.stats.stores:g} "
            f"stores, {self.stats.flops:g} flops "
            f"({self.stats.bytes_per_lane:g} B, intensity "
            f"{self.stats.intensity:.3f} F/B)"
        )
        lines.append(f"  performance class: {self.kernel_class}")
        if self.diagnostics:
            lines.append(f"  diagnostics: {len(self.diagnostics)} finding(s)")
            lines += [f"    {d}" for d in self.diagnostics]
        lines.append("  IR:")
        lines += [f"    {line}" for line in self.ir.splitlines()]
        if self.source:
            lines.append("  generated source:")
            lines += [f"    {line}" for line in self.source.splitlines()]
        if self.native_source:
            lines.append("  generated C (native rung):")
            lines += [
                f"    {line}" for line in self.native_source.splitlines()
            ]
        return "\n".join(lines)


def _format_trace(trace: N.Trace) -> str:
    lines = []
    for st in trace.stores:
        idx = ", ".join(N.format_node(ix) for ix in st.indices)
        guard = (
            f"  if {N.format_node(st.condition)}"
            if st.condition is not None
            else ""
        )
        lines.append(f"arg{st.array.pos}[{idx}] = {N.format_node(st.value)}{guard}")
    if trace.result is not None:
        lines.append(f"return {N.format_node(trace.result)}")
    return "\n".join(lines)


def inspect_kernel(
    fn,
    ndim_or_dims,
    args: Sequence[Any],
    *,
    reduce: bool = False,
) -> KernelReport:
    """Compile ``fn`` for the given call signature and report on it.

    ``ndim_or_dims`` is the launch rank (1/2/3) or a dims tuple whose
    length is used.  ``args`` are representative runtime arguments —
    small probe arrays are fine; only types/shapes/values-on-demand
    matter, exactly as for a real construct call.
    """
    dims: Optional[tuple] = None
    if isinstance(ndim_or_dims, (tuple, list)):
        dims = tuple(int(d) for d in ndim_or_dims)
        ndim = len(dims)
    else:
        ndim = int(ndim_or_dims)
    if ndim not in (1, 2, 3):
        raise PyACCError(f"launch rank must be 1..3, got {ndim}")
    ck: CompiledKernel = compile_kernel(fn, ndim, args, reduce=reduce)

    diagnostics: tuple = ()
    if dims is not None and ck.trace is not None:
        from .verify import verify_compiled

        diagnostics = verify_compiled(
            ck, dims, list(args), "add" if reduce else None
        )

    if ck.trace is None:
        kernel_class = "n/a"
        ir = ""
        specialized: dict = {}
        n_paths = 0
    else:
        from ..perfmodel import classify

        kernel_class = classify(ck.stats, ndim)
        ir = _format_trace(ck.trace)
        specialized = dict(ck.trace.const_args)
        n_paths = ck.trace.n_paths

    return KernelReport(
        name=getattr(fn, "__name__", repr(fn)),
        ndim=ndim,
        mode=ck.mode,
        n_paths=n_paths,
        stats=ck.stats,
        ir=ir,
        fallback_reason=ck.fallback_reason,
        specialized_on=specialized,
        kernel_class=kernel_class,
        diagnostics=diagnostics,
        source=ck.codegen.source if ck.codegen is not None else "",
        native_source=ck.native.source if ck.native is not None else "",
    )


# ---------------------------------------------------------------------------
# CLI: the program-level view
# ---------------------------------------------------------------------------


def _unsound_fuse_record(n: int) -> dict:
    """A deliberately-unsound fuse record for the validator demo.

    Claims two launches sharing one written array were fused, but the
    consumer reads the array at *non-identity* indices — exactly the
    value-flow violation per-chunk fusion cannot preserve.  The
    validator must reject it (V610).
    """
    from .effects import ArrayEffect, EffectsSummary

    sid = 0xBAD
    producer = EffectsSummary(
        kernel="producer",
        ndim=1,
        dims=(n,),
        arrays=(
            ArrayEffect(
                pos=0,
                sid=sid,
                shape=(n,),
                read_region=None,
                write_region=((0, n - 1),),
            ),
        ),
        read_ids=frozenset(),
        write_ids=frozenset({sid}),
        full_overwrite_ids=frozenset({sid}),
    )
    consumer = EffectsSummary(
        kernel="stencil_consumer",
        ndim=1,
        dims=(n,),
        arrays=(
            ArrayEffect(
                pos=0,
                sid=sid,
                shape=(n,),
                read_region=((0, n - 1),),
                write_region=None,
                identity_reads=False,  # reads a[i-1] / a[i+1]
            ),
        ),
        read_ids=frozenset({sid}),
        write_ids=frozenset(),
        full_overwrite_ids=frozenset(),
    )
    return {
        "kind": "fuse",
        "label": "demo.unsound",
        "a": producer,
        "b": consumer,
        "skipped": (),
    }


def _demo_program_describe(
    mode: str, *, analysis: bool = False, seed_unsound: bool = False
) -> str:
    """Capture the CG update body and return the program dump.

    The body is the reordered ``cg_solve_operator`` update segment —
    r-axpy, r·r dot, x-axpy — chosen because it exercises the global
    scan: the trailing x-axpy can only merge with the r-axpy by hopping
    backwards over the reduce.

    ``analysis=True`` appends the static-analysis view: per-node
    memory-effects summaries and the translation validator's verdict on
    every applied rewrite.  ``seed_unsound=True`` additionally injects a
    deliberately-unsound fuse record to show the validator rejecting it.
    """
    import numpy as np

    import repro
    from ..apps.blas import axpy_kernel_1d, dot_kernel_1d
    from ..core import current_context, parallel_for, parallel_reduce
    from ..graph import ScalarSlot

    n = 4096
    repro.set_backend("threads")
    repro.set_graph_mode("on")
    repro.set_passes_mode(mode)
    try:
        ctx = current_context()
        dx = repro.array(np.zeros(n))
        dr = repro.array(np.ones(n))
        dp = repro.array(np.full(n, 0.5))
        ds = repro.array(np.full(n, 0.25))
        with ctx.capture() as cap:
            parallel_for(
                n, axpy_kernel_1d, ScalarSlot("neg_alpha", -0.5), dr, ds
            )
            parallel_reduce(n, dot_kernel_1d, dr, dr)
            parallel_for(n, axpy_kernel_1d, ScalarSlot("alpha", 0.5), dx, dp)
        inst = cap.graph("cg.update").instantiate(ctx)
        out = [inst.program.describe()]
        if analysis:
            from .effects import plan_effects
            from .validate import validate_program

            out += ["", "--- memory-effects summaries ---"]
            for pn in inst.program.nodes:
                out.append(plan_effects(pn.gnode.plan).describe())
            out += ["", "--- translation validation ---"]
            rewrites = list(inst.program.rewrites)
            if seed_unsound:
                inst.program.rewrites.append(_unsound_fuse_record(n))
            diags = validate_program(inst.program)
            n_total = len(inst.program.rewrites)
            out.append(
                f"{n_total - len(diags)}/{n_total} applied rewrite(s) "
                "independently confirmed from effects summaries"
            )
            for d in diags:
                out.append(f"REJECTED: {d}")
            inst.program.rewrites[:] = rewrites
        return "\n".join(out)
    finally:
        repro.set_passes_mode(None)
        repro.set_graph_mode(None)
        repro.set_backend("serial")


def _demo_permute_kernel(i, y, z, p, x):
    """A true scatter: ``p`` is data, so no proof of lane independence."""
    y[p[i]] = x[i]
    z[i] = 2.0 * x[i]


def _native_loops_report(ck: CompiledKernel, args) -> str:
    """How many loop nests the native lowering of ``ck`` has and why:
    whether the single-loop licence (see :mod:`repro.ir.cgen`) was
    needed, granted, or refused — with the verifier's reason — and, for
    a reduce kernel, where its values are folded."""
    from .cgen import _NativeLowering, _partition_groups

    nk = ck.native
    if nk is None:
        return "  loop nests: none (native lowering declined)"
    nests = nk.source.count("for (int64_t i0 ")
    if nk._lane_scalars is not None:
        verdict = (
            "granted: lanes proven independent; re-proven per call on "
            f"(box, shapes, scalar args {list(nk._lane_scalars)})"
        )
    elif len(_partition_groups(ck.trace)) <= 1:
        verdict = "not needed: one store group"
    else:
        verdict = "refused: " + str(_NativeLowering(ck.trace, args).lane_refusal())
    report = f"  loop nests: {nests}; single-loop licence {verdict}"
    if nk.has_result:
        add = (
            "C pairwise sum, one partial per tile, no lane buffer"
            if nk._c_fold
            else "NumPy over a tile-sized lane buffer (`fold` declined: the "
            "C sum's self-check against ndarray.sum() failed on this host)"
        )
        report += f"\n  reduce fold: add = {add}; min/max = NumPy over a tile-sized lane buffer"
    return report


def _demo_native_describe() -> str:
    """Compile the CG matvec, LBM collide and a permutation-scatter
    kernel on the native rung; report each one's loop nests and
    single-loop licence, and dump the generated C next to the codegen
    NumPy source."""
    import numpy as np

    from ..apps import blas, cg, lbm
    from .compile import compile_kernel

    out = []
    n = 64
    rng = np.random.default_rng(0)
    probes = [
        (
            "cg.matvec_tridiag_kernel",
            cg.matvec_tridiag_kernel,
            1,
            (
                rng.random(n),
                rng.random(n),
                rng.random(n),
                rng.random(n),
                np.zeros(n),
                n,
            ),
        ),
        (
            "lbm.lbm_kernel",
            lbm.lbm_kernel,
            2,
            (
                np.zeros(9 * n * n),
                rng.random(9 * n * n) + 0.5,
                np.zeros(9 * n * n),
                0.6,
                lbm.WEIGHTS,
                lbm.CX,
                lbm.CY,
                n,
            ),
        ),
        (
            "inspect._demo_permute_kernel",
            _demo_permute_kernel,
            1,
            (np.zeros(n), np.zeros(n), rng.permutation(n), rng.random(n)),
        ),
        ("blas.dot_kernel_1d", blas.dot_kernel_1d, 1, (rng.random(n), rng.random(n))),
    ]
    for name, fn, ndim, args in probes:
        reduce = fn is blas.dot_kernel_1d
        ck = compile_kernel(fn, ndim, args, reduce=reduce, executor="native")
        out.append(f"=== {name} (mode: {ck.mode}) ===")
        if ck.fallback_reason:
            out.append(f"  fallback trail: {ck.fallback_reason}")
        out.append(_native_loops_report(ck, args))
        out.append("")
        out.append("--- codegen tier: generated NumPy source ---")
        out.append(ck.codegen.source if ck.codegen is not None else "(none)")
        out.append("--- native tier: generated C translation unit ---")
        out.append(ck.native.source if ck.native is not None else "(declined)")
        out.append("")
    return "\n".join(out)


def main(argv=None) -> int:
    import argparse

    from ..core.preferences import PASSES_PRESETS

    parser = argparse.ArgumentParser(
        prog="python -m repro.ir.inspect",
        description=(
            "Dump the dataflow program IR that graph fusion optimizes "
            "(library use: repro.inspect_kernel)."
        ),
    )
    parser.add_argument(
        "--program",
        action="store_true",
        help="capture a CG iteration body and dump its dataflow program "
        "before and after fusion",
    )
    parser.add_argument(
        "--native",
        action="store_true",
        help="compile the CG matvec, LBM collide, a scatter and a dot "
        "kernel on the native executor; print each one's loop-nest count "
        "and single-loop licence (granted / refused and why), which fold "
        "a reduce uses, and dump the generated C next to the codegen "
        "NumPy source",
    )
    parser.add_argument(
        "--passes",
        default="all",
        choices=PASSES_PRESETS,
        help="pass mode for the optimized dump (default: all)",
    )
    parser.add_argument(
        "--seed-unsound",
        action="store_true",
        help="inject a deliberately-unsound fuse record into the "
        "validation demo to show the validator rejecting it (V610)",
    )
    ns = parser.parse_args(argv)
    if ns.native:
        print(_demo_native_describe())
        return 0
    if not ns.program:
        parser.error(
            "nothing to do: pass --program or --native "
            "(kernel-level inspection is the repro.inspect_kernel API)"
        )
    print("=== dataflow program (before passes) ===")
    print(_demo_program_describe("none"))
    print()
    print(f"=== optimized program (passes={ns.passes}) ===")
    print(
        _demo_program_describe(
            ns.passes, analysis=True, seed_unsound=ns.seed_unsound
        )
    )
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI shim
    raise SystemExit(main())
