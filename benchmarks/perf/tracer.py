"""In-memory span recorder over the public dispatch hooks.

Spans are ``(name, start_ns, end_ns, parent, op_id, args)``.  Every
operation is an ``op`` span; every launch the library executes inside it
(``ExecutionContext.on_launch`` → ``on_complete``, which also fire for
graph replays) is a ``launch`` child.  Whatever part of an op no launch
covers is ``host_gap`` — staging, graph bookkeeping and the app's own
Python — so an op's self time is exactly its host gap.  Nothing is
written until :meth:`Tracer.write_chrome` at exit.

``time.perf_counter_ns`` is CLOCK_MONOTONIC on Linux, shared by every
process on the host, so spans recorded in child interpreters merge onto
the same timeline unchanged.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from statistics import median

_now = time.perf_counter_ns


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self._op_index = -1
        self._op_id = -1
        self._launch_start = 0
        #: One record per distinct user kernel seen: what the compile
        #: probes re-trace.  Keyed on (function, construct).
        self.kernels: dict = {}

    # -- hooks ----------------------------------------------------------------
    def attach(self, ctx):
        """Subscribe to ``ctx``; returns a callable that unsubscribes."""
        off_launch = ctx.on_launch(self._on_launch)
        off_complete = ctx.on_complete(self._on_complete)

        def detach():
            off_launch()
            off_complete()

        return detach

    def _on_launch(self, plan) -> None:
        self._launch_start = _now()

    def _on_complete(self, plan) -> None:
        end = _now()
        kernel = plan.kernel
        name = getattr(plan.fn, "__name__", "kernel")
        stats = kernel.stats
        lanes = 1
        for d in plan.dims:
            lanes *= d
        self.spans.append((
            "launch", self._launch_start, end, self._op_index, self._op_id,
            {
                "kernel": name,
                "mode": kernel.mode,
                "chunks": plan.schedule.n_chunks,
                "bytes": stats.bytes_per_lane * lanes,
                "flops": stats.flops * lanes,
            },
        ))
        key = (plan.fn, plan.construct)
        # Fused graph nodes carry synthetic names ("fused(a+b)"); only a
        # kernel a user wrote can be re-traced by the compile probes.
        if key not in self.kernels and name.isidentifier():
            self.kernels[key] = {
                "fn": plan.fn, "dims": plan.dims, "args": list(plan.resolved_args),
                "reduce": plan.is_reduce, "op": plan.op,
                "bytes": stats.bytes_per_lane * lanes,
            }

    # -- op spans -----------------------------------------------------------------
    def begin_op(self, op_id: int) -> None:
        self._op_id = op_id
        self._op_index = len(self.spans)
        self.spans.append(None)  # placeholder keeps the parent index stable
        self._op_start = _now()

    def end_op(self) -> None:
        end = _now()
        self.spans[self._op_index] = ("op", self._op_start, end, -1, self._op_id, {})
        self._op_index = -1
        self._op_id = -1

    def adopt(self, spans: list, pid: int) -> None:
        """Merge spans recorded by a child interpreter (its parent
        indices are relative to its own list)."""
        base = len(self.spans)
        for name, start, end, parent, op_id, args in spans:
            args = dict(args, pid=pid)
            self.spans.append(
                (name, start, end, parent + base if parent >= 0 else -1, op_id, args)
            )

    # -- analysis -------------------------------------------------------------------
    def summary(self) -> dict:
        """Per-op decomposition: launches, execute time, host gaps."""
        ops: dict[int, dict] = {}
        for i, span in enumerate(self.spans):
            if span is not None and span[0] == "op":
                ops[i] = {"start": span[1], "end": span[2], "launches": []}
        for span in self.spans:
            if span is not None and span[0] == "launch" and span[3] in ops:
                ops[span[3]]["launches"].append(span)
        stage_ns, launch_ns, gap_ns, op_ns = [], [], [], []
        chunks = n_launches = 0
        nbytes = flops = 0.0
        for op in ops.values():
            cursor = op["start"]
            covered = 0
            for _, start, end, _, _, args in op["launches"]:
                stage_ns.append(start - cursor)
                launch_ns.append(end - start)
                covered += end - start
                cursor = end
                chunks += args["chunks"]
                nbytes += args["bytes"]
                flops += args["flops"]
            n_launches += len(op["launches"])
            op_ns.append(op["end"] - op["start"])
            gap_ns.append(op["end"] - op["start"] - covered)
        n_ops = max(1, len(ops))
        total = sum(op_ns) or 1
        return {
            "ops": len(ops),
            "launches_per_op": n_launches / n_ops,
            "stage_us_p50": median(stage_ns) / 1e3 if stage_ns else 0.0,
            "host_gap_ms_per_op": median(gap_ns) / 1e6 if gap_ns else 0.0,
            "dispatch_frac": sum(gap_ns) / total,
            "execute_ms_per_op": sum(launch_ns) / 1e6 / n_ops,
            "execute_us_p50": median(launch_ns) / 1e3 if launch_ns else 0.0,
            "chunks_per_launch": chunks / max(1, n_launches),
            "bytes_per_op": nbytes / n_ops,
            "flops_per_op": flops / n_ops,
        }

    def layer_table(self) -> list[dict]:
        """Self time of the traced ops by span name and kernel — the
        README's layer table.  Launches outside an op (the warm-up) are
        left out, so the rows add up to the ops' wall time."""
        rows: dict[str, list] = {}
        n_ops = 0
        for name, start, end, parent, _, args in self._with_gaps():
            if name == "op":
                n_ops += 1
            if name == "op" or parent < 0:
                continue
            label = name if name == "host_gap" else f"launch[{args['kernel']}, {args['mode']}]"
            acc = rows.setdefault(label, [0, 0])
            acc[0] += 1
            acc[1] += end - start
        total = sum(v[1] for v in rows.values()) or 1
        n_ops = max(1, n_ops)
        return sorted(
            (
                {"span": k, "per_op": v[0] / n_ops, "self_ms_per_op": v[1] / 1e6 / n_ops,
                 "share": v[1] / total}
                for k, v in rows.items()
            ),
            key=lambda r: -r["share"],
        )

    def _with_gaps(self):
        """All spans plus the derived ``host_gap`` children of each op."""
        out = [s for s in self.spans if s is not None]
        cursors: dict[int, int] = {}
        for i, span in enumerate(self.spans):
            if span is None:
                continue
            name, start, end, parent, op_id, _ = span
            if name == "op":
                cursors[i] = start
            elif parent in cursors:
                if start > cursors[parent]:
                    out.append(("host_gap", cursors[parent], start, parent, op_id, {}))
                cursors[parent] = end
        for i, cursor in cursors.items():
            end, op_id = self.spans[i][2], self.spans[i][4]
            if end > cursor:
                out.append(("host_gap", cursor, end, i, op_id, {}))
        return out

    def write_chrome(self, path: Path) -> None:
        """Chrome-trace JSON (``chrome://tracing`` / Perfetto)."""
        events = []
        for name, start, end, parent, op_id, args in self._with_gaps():
            label = f"{name}[{args['kernel']}, {args['mode']}]" if name == "launch" else name
            events.append({
                "name": label, "ph": "X", "ts": start / 1e3, "dur": (end - start) / 1e3,
                "pid": args.get("pid", 0), "tid": 0,
                "args": {"parent": parent, "op_id": op_id},
            })
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))
