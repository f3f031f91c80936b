"""Cluster backend — sharded multi-process execution with elastic recovery.

The JACC line is explicitly about scaling out: the OpenACC JACC paper
(arXiv 2110.14340) introduces kernel-level multi-device parallelization
and the Frontier workflow paper (arXiv 2309.10292) shows the multi-node
end state, where losing a worker is routine, not exceptional.  This
backend is that direction on one host: the launch domain's leading axis
is sharded across worker **processes**, array storage lives in
``multiprocessing.shared_memory`` segments every worker maps (the
explicit-memory analogue of the multi-GPU shards), and a supervisor
turns process loss into the same failover motions
:class:`~repro.backends.multidevice.MultiDeviceBackend` performs for a
lost device.

Sharding model
--------------
* ``array`` materializes host data into a shared-memory segment and
  returns a plain ``np.ndarray`` view over it — all downstream layers
  (tracing, codegen, native ctypes loops) see an ordinary ndarray, and
  every worker maps the *same* physical pages, so cross-shard reads
  (stencil neighbours) and shard writes need no gather/scatter step.
* Arguments that are not segment-resident (plain ndarrays from user
  code) are staged: copied into a pooled per-array segment before the
  launch and — the explicit shard-writeback contract, see
  :mod:`repro.ir.writes` — copied back before ``execute`` returns, so
  the dispatch stage's write-version bump and any captured graph's
  const-array snapshots observe the committed values.
* Workers are full runtime instances: each compiles the shipped kernel
  through its own :class:`~repro.ir.compile.KernelCache` and executor
  ladder (native C loops included — the artifact cache is disk-shared),
  and draws temporaries from its own process-local
  :class:`~repro.ir.arena.ScratchArena`.  Kernels ship by reference
  (module-level functions pickle as a name); kernels that cannot be
  pickled (closures, lambdas) run inline in the parent, recorded in
  :func:`cluster_stats`.
* The shard split is the threads backend's
  (:func:`repro.core.launch.cpu_schedule` over the live worker count),
  and reduce partials fold with the one left-to-right
  :func:`~repro.ir.vectorizer.fold_partials` every CPU backend uses, so
  an ``n``-worker cluster reduce is bitwise an ``n``-thread one.

Supervision and elastic recovery
--------------------------------
A spawn is probed at ``cluster.spawn`` and health-checked with a
ping/pong handshake deadline.  Shard dispatch probes ``cluster.shard``
(ordinals reserved through :meth:`repro.faults.FaultPlan.next_ordinal`,
so the schedule is deterministic), honours ``kill=`` entries by
actually ``SIGKILL``-ing the child, and collection enforces a per-launch
deadline (``LaunchPolicy.watchdog`` when set).  Failures classify into
the existing taxonomy:

* transient (injected at a seam) → capped-exponential retry on the same
  worker, per :class:`~repro.faults.LaunchPolicy`;
* dead/unresponsive process → :class:`~repro.core.exceptions.WorkerLostError`
  handling: the worker leaves the dispatch set, a respawn is attempted
  (elastic rejoin, budgeted), and the lost shard's span goes back on
  the queue whole, to be dispatched to a survivor mid-plan — the
  multi-device backend's lost-device path, at shard granularity;
* all workers lost with the respawn budget spent →
  ``PermanentDeviceError`` escapes to the dispatch ladder, which demotes
  cluster → threads → serial (:func:`repro.faults.demote_backend`).

``schedule_epoch()`` counts membership changes so captured launch
graphs re-schedule their recorded shard splits after a loss or rejoin.
"""

from __future__ import annotations

import atexit
import os
import pickle
import signal
import time
import weakref
from dataclasses import dataclass
from functools import partial
from typing import Any, Optional

import multiprocessing as mp
from multiprocessing import shared_memory as shm_mod

import numpy as np

from .. import faults as _faults
from ..core.backend import Backend
from ..core.exceptions import (
    KernelExecutionError,
    PermanentDeviceError,
    WorkerLostError,
)
from ..core.launch import LaunchSchedule, cpu_schedule, usable_cpus
from ..core.plan import LaunchPlan
from ..ir.arena import ScratchArena
from ..ir.compile import compile_kernel
from ..ir.nativecache import wait_compiles
from ..ir.vectorizer import IndexDomain, fold_partials
from .registry import CLUSTER_COUNTERS as _COUNTERS
from .registry import cluster_stats, reset_cluster_stats

__all__ = [
    "ClusterBackend",
    "cluster_stats",
    "reset_cluster_stats",
    "default_num_workers",
]

_ENV_WORKERS = "PYACC_CLUSTER_WORKERS"

#: Spawn handshake deadline (fork + import + pong), seconds.
_SPAWN_TIMEOUT = 30.0
#: Per-launch collection deadline when the policy sets no watchdog.
_SHARD_TIMEOUT = 60.0


def default_num_workers() -> int:
    """Worker count: ``PYACC_CLUSTER_WORKERS`` or the CPUs this process
    may use, clamped to 2..8 (at least 2 — a one-worker cluster has
    nothing to shard, and oversubscription only costs scheduling, not
    correctness)."""
    env = os.environ.get(_ENV_WORKERS)
    if env:
        try:
            n = int(env)
        except ValueError:
            raise ValueError(
                f"{_ENV_WORKERS} must be an integer, got {env!r}"
            ) from None
        if n <= 0:
            raise ValueError(f"{_ENV_WORKERS} must be positive, got {n}")
        return n
    return max(2, min(8, usable_cpus()))


# ---------------------------------------------------------------------------
# Shared-memory segments
# ---------------------------------------------------------------------------


#: Segments not yet unlinked, for the atexit sweep: unlinking everything
#: we created keeps the resource tracker from reporting "leaked" shared
#: memory at interpreter exit when arrays outlive the final GC pass.
_LIVE_SEGMENTS: dict = {}
_atexit_installed = False


def _sweep_segments() -> None:  # pragma: no cover - exit path
    for seg in list(_LIVE_SEGMENTS.values()):
        seg.destroy()


@dataclass
class _Segment:
    """One owned shared-memory segment backing a parent-side ndarray."""

    shm: shm_mod.SharedMemory
    name: str
    nbytes: int
    shape: tuple
    dtype: np.dtype
    destroyed: bool = False

    def destroy(self) -> None:
        if self.destroyed:
            return
        self.destroyed = True
        _LIVE_SEGMENTS.pop(self.name, None)
        try:
            self.shm.close()
        except BufferError:
            # A live view still exports the buffer (interpreter exit
            # order) — unlink the name anyway; the mapping dies with us.
            pass
        except OSError:
            pass
        try:
            self.shm.unlink()
        except (FileNotFoundError, OSError):
            pass


def _new_segment(shape: tuple, dtype: np.dtype, nbytes: int) -> _Segment:
    global _atexit_installed
    shm = shm_mod.SharedMemory(create=True, size=max(1, nbytes))
    seg = _Segment(shm=shm, name=shm.name, nbytes=nbytes, shape=shape, dtype=dtype)
    _LIVE_SEGMENTS[seg.name] = seg
    _COUNTERS.bump("shm_segments")
    _COUNTERS.bump("shm_bytes", nbytes)
    if not _atexit_installed:
        _atexit_installed = True
        atexit.register(_sweep_segments)
    return seg


# ---------------------------------------------------------------------------
# The worker process
# ---------------------------------------------------------------------------


def _worker_attach(segments: dict, name: str) -> shm_mod.SharedMemory:
    """Map a parent segment in the worker (cached per name).

    The parent owns segment lifetime, so the attach must not register
    with the resource tracker (``track=False`` where available,
    Python 3.13+).  Older Pythons never track plain attaches — and
    under fork the tracker process is *shared* with the parent, so a
    defensive ``unregister`` here would corrupt the parent's
    registration.
    """
    seg = segments.get(name)
    if seg is not None:
        return seg
    try:
        seg = shm_mod.SharedMemory(name=name, track=False)
    except TypeError:  # track= is 3.13+; 3.10-3.12 attaches untracked
        seg = shm_mod.SharedMemory(name=name)
    segments[name] = seg
    return seg


def _worker_run_shard(spec: dict, segments: dict, fns: dict, arena) -> Optional[float]:
    """Rebuild arguments from descriptors and run one shard.

    The worker is a full runtime: the shipped kernel compiles through
    this process's own kernel cache and executor ladder (codegen or
    native), exactly as it would in the parent.
    """
    args = []
    for d in spec["args"]:
        if d[0] == "shm":
            _tag, name, shape, dtype = d
            seg = _worker_attach(segments, name)
            args.append(
                np.ndarray(shape, dtype=np.dtype(dtype), buffer=seg.buf)
            )
        else:
            args.append(d[1])
    token = spec["fn_token"]
    fn = fns.get(token)
    if fn is None:
        fn = pickle.loads(spec["fn_bytes"])
        fns[token] = fn
    is_reduce = spec["construct"] == "reduce"
    kernel = compile_kernel(fn, spec["ndim"], args, reduce=is_reduce)
    dom = IndexDomain.of(spec["ranges"])
    if is_reduce:
        return float(kernel.run_reduce(dom, args, spec["op"], arena))
    kernel.run_for(dom, args, arena)
    return None


def _worker_main(conn, worker_name: str) -> None:  # pragma: no cover - child
    """Serve shard requests until ``exit``/EOF.

    Runs in the child process.  Protocol (parent → worker):
    ``("ping", n)`` → ``("pong", n)``; ``("forget", [names])`` drops
    cached segment mappings; ``("shard", task_id, spec)`` →
    ``("ok", task_id, partial)`` or ``("err", task_id, type, msg)``;
    ``("exit",)`` ends the loop.
    """
    segments: dict = {}
    fns: dict = {}
    arena = ScratchArena()
    try:
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                break
            tag = msg[0]
            if tag == "exit":
                break
            if tag == "ping":
                conn.send(("pong", msg[1]))
                continue
            if tag == "forget":
                for name in msg[1]:
                    seg = segments.pop(name, None)
                    if seg is not None:
                        try:
                            seg.close()
                        except Exception:
                            pass
                continue
            if tag == "shard":
                task_id, spec = msg[1], msg[2]
                try:
                    partial = _worker_run_shard(spec, segments, fns, arena)
                except BaseException as exc:  # ship, don't die
                    conn.send(("err", task_id, type(exc).__name__, str(exc)))
                else:
                    conn.send(("ok", task_id, partial))
    finally:
        for seg in segments.values():
            try:
                seg.close()
            except Exception:
                pass
        try:
            conn.close()
        except Exception:
            pass


# ---------------------------------------------------------------------------
# Supervision
# ---------------------------------------------------------------------------


class _Worker:
    """One supervised worker process and its duplex pipe."""

    __slots__ = ("proc", "conn", "name", "slot", "fn_tokens", "pings")

    def __init__(self, proc, conn, name: str, slot: int):
        self.proc = proc
        self.conn = conn
        self.name = name
        self.slot = slot
        #: fn tokens already shipped to this process (bytes sent once).
        self.fn_tokens: set = set()
        self.pings = 0


class ClusterSupervisor:
    """Spawns, health-checks, kills and respawns the worker set.

    ``slots`` is the membership ledger: a slot holds a live worker, or
    ``None`` after a loss until a respawn fills it again; a slot whose
    respawn budget ran out is removed.  Every membership change bumps
    ``epoch`` — the staleness signal captured launch graphs compare
    before replaying a recorded shard split.
    """

    def __init__(
        self,
        n_workers: int,
        *,
        max_respawns: int = 8,
        spawn_timeout: float = _SPAWN_TIMEOUT,
        start_method: Optional[str] = None,
    ):
        if n_workers <= 0:
            raise ValueError(f"n_workers must be positive, got {n_workers}")
        if start_method is None:
            start_method = (
                "fork" if "fork" in mp.get_all_start_methods() else "spawn"
            )
        self._mp = mp.get_context(start_method)
        self.start_method = start_method
        self.n_workers = n_workers
        self.max_respawns = int(max_respawns)
        self.spawn_timeout = float(spawn_timeout)
        self.respawns_used = 0
        self.epoch = 0
        self._uid = 0
        self._started = False
        #: slot index -> _Worker | None (lost, awaiting respawn).
        self.slots: dict[int, Optional[_Worker]] = {}

    # -- membership -------------------------------------------------------
    def alive(self) -> list[_Worker]:
        """Workers currently in the dispatch set (liveness re-checked)."""
        out = []
        for slot in sorted(self.slots):
            w = self.slots[slot]
            if w is None:
                continue
            if not w.proc.is_alive():
                self._drop(w)
                continue
            out.append(w)
        return out

    def _drop(self, w: _Worker) -> None:
        if self.slots.get(w.slot) is w:
            self.slots[w.slot] = None
            self.epoch += 1
        try:
            w.conn.close()
        except Exception:
            pass

    def _fork(self, slot: int, name: str) -> _Worker:
        """Fork one worker process and health-check it — after the
        native compiles in flight, which the worker then loads."""
        wait_compiles()
        parent_conn, child_conn = self._mp.Pipe()
        proc = self._mp.Process(
            target=_worker_main,
            args=(child_conn, name),
            name=name,
            daemon=True,
        )
        proc.start()
        child_conn.close()
        w = _Worker(proc, parent_conn, name, slot)
        # Handshake with a deadline: a worker that cannot pong within
        # the spawn timeout is as lost as one that never forked.
        w.conn.send(("ping", 0))
        if not w.conn.poll(self.spawn_timeout):
            self.sigkill(w)
            raise WorkerLostError(
                f"worker {name!r} failed its spawn handshake "
                f"({self.spawn_timeout:g}s)",
                device_id=name,
                operation="cluster.spawn",
            )
        reply = w.conn.recv()
        if reply[0] != "pong":  # pragma: no cover - protocol guard
            self.sigkill(w)
            raise WorkerLostError(
                f"worker {name!r} spoke out of turn at spawn: {reply[0]!r}",
                device_id=name,
                operation="cluster.spawn",
            )
        return w

    def _spawn_into(self, slot: int, fplan, plan) -> _Worker:
        """Fill ``slot`` with a fresh worker (``cluster.spawn`` seam).

        The probe fires before the fork: an injected transient retries a
        clean spawn, an injected permanent marks the slot unfillable.
        """
        self._uid += 1
        name = f"cluster:w{slot}.{self._uid}"
        w = _faults.guarded(
            fplan, "cluster.spawn", plan, partial(self._fork, slot), name,
            device_id=name,
        )
        self.slots[slot] = w
        self.epoch += 1
        _COUNTERS.bump("spawns")
        return w

    def ensure_started(self, fplan, plan, policy=None) -> None:
        """Lazily bring the initial worker set up (first sharded launch).

        Deferring the fork past import/tracing time means kernels defined
        in the caller's modules are importable in the children.  A slot
        whose spawn fails permanently is removed; if no slot survives,
        the permanent error escapes to the dispatch ladder.  ``policy``
        is unused (the seam reads ``plan.policy``); the frozen
        ``benchmarks/perf`` warm-up passes it positionally.
        """
        if self._started:
            return
        self._started = True
        for slot in range(self.n_workers):
            try:
                self._spawn_into(slot, fplan, plan)
            except PermanentDeviceError:
                self.slots.pop(slot, None)
                self.epoch += 1
        if not any(w is not None for w in self.slots.values()):
            raise PermanentDeviceError(
                "no cluster worker survived spawn",
                operation="cluster.spawn",
            )

    def sigkill(self, w: _Worker) -> None:
        """Hard-terminate a worker (the ``kill=`` injection's teeth)."""
        try:
            if w.proc.pid is not None:
                os.kill(w.proc.pid, signal.SIGKILL)
        except (ProcessLookupError, OSError):
            pass

    def handle_loss(self, w: _Worker, fplan, plan) -> bool:
        """Process one worker loss; returns True if the slot was refilled.

        The dead process leaves the dispatch set immediately; a respawn
        (budgeted across the supervisor's lifetime) elastically rejoins
        the slot.  Either way the epoch moves, so recorded schedules
        re-split.
        """
        _COUNTERS.bump("worker_losses")
        self.sigkill(w)
        try:
            w.proc.join(timeout=1.0)
        except Exception:
            pass
        self._drop(w)
        if self.respawns_used >= self.max_respawns:
            self.slots.pop(w.slot, None)
            self.epoch += 1
            return False
        self.respawns_used += 1
        try:
            self._spawn_into(w.slot, fplan, plan)
        except PermanentDeviceError:
            self.slots.pop(w.slot, None)
            self.epoch += 1
            return False
        _COUNTERS.bump("respawns")
        return True

    def healthcheck(self, timeout: float = 5.0) -> list[str]:
        """Ping every worker; unresponsive ones are dropped.  Returns the
        names of workers that failed the check."""
        failed = []
        for w in self.alive():
            w.pings += 1
            try:
                w.conn.send(("ping", w.pings))
                if not w.conn.poll(timeout):
                    raise EOFError("heartbeat timeout")
                reply = w.conn.recv()
                while reply[0] != "pong":  # drain stale shard replies
                    reply = w.conn.recv()
            except (EOFError, OSError, BrokenPipeError):
                failed.append(w.name)
                self.sigkill(w)
                self._drop(w)
        return failed

    def broadcast_forget(self, names: list[str]) -> None:
        """Tell workers to drop cached mappings of retired segments."""
        if not names:
            return
        for w in self.alive():
            try:
                w.conn.send(("forget", names))
            except (OSError, BrokenPipeError):
                pass

    def shutdown(self) -> None:
        """Stop all workers (tests; normally process-lifetime)."""
        for w in self.alive():
            try:
                w.conn.send(("exit",))
            except (OSError, BrokenPipeError):
                pass
        for slot, w in list(self.slots.items()):
            if w is None:
                continue
            w.proc.join(timeout=2.0)
            if w.proc.is_alive():
                self.sigkill(w)
                w.proc.join(timeout=2.0)
            self._drop(w)
        self.slots.clear()
        self._started = False


# ---------------------------------------------------------------------------
# The backend
# ---------------------------------------------------------------------------


class ClusterBackend(Backend):
    """Sharded multi-process backend with supervised, elastic workers."""

    name = "cluster"
    device_kind = "cpu"

    def __init__(
        self,
        n_workers: Optional[int] = None,
        *,
        min_parallel_size: int = 1 << 16,
        shm_threshold: int = 1 << 12,
        max_respawns: int = 8,
        shard_timeout: float = _SHARD_TIMEOUT,
        spawn_timeout: float = _SPAWN_TIMEOUT,
        start_method: Optional[str] = None,
    ):
        super().__init__()
        self.n_workers = (
            n_workers if n_workers is not None else default_num_workers()
        )
        if self.n_workers <= 0:
            raise ValueError(f"n_workers must be positive, got {self.n_workers}")
        self.min_parallel_size = int(min_parallel_size)
        self.shm_threshold = int(shm_threshold)
        self.shard_timeout = float(shard_timeout)
        self._supervisor = ClusterSupervisor(
            self.n_workers,
            max_respawns=max_respawns,
            spawn_timeout=spawn_timeout,
            start_method=start_method,
        )
        #: id(view) -> (_Segment, weakref-to-view) for segment-resident
        #: arrays returned by :meth:`array`.
        self._resident: dict = {}
        #: id(arr) -> (_Segment, weakref-to-arr) staging pool for plain
        #: ndarrays shipped per-launch (copy-in / copy-back).
        self._staging: dict = {}
        #: Segment names retired by finalizers since the last launch;
        #: drained (workers told to forget) at the next execute.  Plain
        #: list mutations are GIL-atomic, so the GC-callback writers need
        #: no lock the callback could deadlock on.
        self._retired: list[str] = []
        #: fn -> its :meth:`_pickle_fn` result (weak: never pins a kernel).
        self._fn_pickles: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        #: Launch-unique shard task ids (fault ordinals restart at 0 per
        #: launch without a plan, so they cannot key reply matching).
        self._task_seq = 0

    # -- memory ----------------------------------------------------------
    def _adopt(self, registry: dict, arr: np.ndarray, seg: _Segment) -> None:
        key = id(arr)
        retired = self._retired

        def _finalize(_ref, key=key, seg=seg, registry=registry):
            registry.pop(key, None)
            retired.append(seg.name)
            seg.destroy()

        registry[key] = (seg, weakref.ref(arr, _finalize))

    def array(self, data: Any) -> np.ndarray:
        """``JACC.array``: materialize host data in a shared segment.

        Returns a plain ndarray *view* over the segment — every layer
        above sees ordinary host memory, and every worker maps the same
        pages.  Small or non-numeric payloads stay ordinary ndarrays
        (they ship through the staging pool when a launch needs them).
        """
        host = np.asarray(data)
        if host.nbytes < self.shm_threshold or host.dtype.hasobject:
            return np.array(host, copy=True)
        # Straight into the segment: one copy of a large payload.
        seg = _new_segment(host.shape, host.dtype, host.nbytes)
        view = np.ndarray(host.shape, dtype=host.dtype, buffer=seg.shm.buf)
        view[...] = host
        self._adopt(self._resident, view, seg)
        self.accounting.n_h2d += 1
        self.accounting.bytes_h2d += host.nbytes
        return view

    # -- introspection ----------------------------------------------------
    @property
    def supervisor(self) -> ClusterSupervisor:
        return self._supervisor

    def alive_workers(self) -> tuple[str, ...]:
        return tuple(w.name for w in self._supervisor.alive())

    def healthcheck(self, timeout: float = 5.0) -> list[str]:
        """Heartbeat every worker; returns names of dropped workers."""
        return self._supervisor.healthcheck(timeout)

    def close(self) -> None:
        """Stop the worker set (tests; segments stay with their arrays)."""
        self._supervisor.shutdown()

    # -- scheduling --------------------------------------------------------
    def _target_width(self) -> int:
        if not self._supervisor._started:
            return self.n_workers
        return max(1, len(self._supervisor.alive()))

    def schedule_epoch(self) -> int:
        """Bumps on every worker loss or elastic rejoin, so captured
        graphs re-schedule their recorded shard splits."""
        return self._supervisor.epoch

    def schedule(self, plan: LaunchPlan) -> LaunchSchedule:
        """The shard split over the live workers (:func:`cpu_schedule`;
        the default ``min_parallel_size`` is higher than the threads
        backend's because a process dispatch costs far more than a
        thread handoff)."""
        return cpu_schedule(plan, self._target_width(), self.min_parallel_size)

    # -- argument shipping -------------------------------------------------
    def _segment_for(self, arr: np.ndarray) -> tuple[Optional[_Segment], bool]:
        """The segment backing ``arr``: resident hit, staging-pool hit,
        or a fresh staging segment.  Returns ``(segment, resident)``;
        ``(None, False)`` when the array cannot be staged."""
        ent = self._resident.get(id(arr))
        if ent is not None and ent[1]() is arr and not ent[0].destroyed:
            return ent[0], True
        if arr.dtype.hasobject or arr.nbytes == 0:
            return None, False
        ent = self._staging.get(id(arr))
        if ent is not None and ent[1]() is arr and not ent[0].destroyed:
            seg = ent[0]
            if seg.shape == arr.shape and seg.dtype == arr.dtype:
                return seg, False
            # Shape/dtype drifted under an id collision; re-stage.
            self._staging.pop(id(arr), None)
        seg = _new_segment(arr.shape, arr.dtype, arr.nbytes)
        self._adopt(self._staging, arr, seg)
        return seg, False

    def _ship_args(self, plan: LaunchPlan):
        """Build worker argument descriptors for the plan.

        Returns ``(descs, writeback)`` or ``None`` when some argument
        cannot cross the process boundary (overlapping views, object
        dtypes, unpicklable scalars) — the launch then runs inline.
        ``writeback`` lists ``(array, staged-view)`` pairs committed
        after the shards complete (the explicit shard-writeback step
        that keeps the parent-side write-version table sound).
        """
        args = plan.resolved_args or []
        nds = [a for a in args if isinstance(a, np.ndarray)]
        for i, a in enumerate(nds):
            for b in nds[i + 1:]:
                if a is not b and np.may_share_memory(a, b):
                    return None  # aliased distinct views: stage would split them
        write_ids = set(plan.written_ids)
        descs = []
        writeback = []
        staged_seen = set()
        for a in args:
            if isinstance(a, np.ndarray):
                seg, resident = self._segment_for(a)
                if seg is None:
                    if a.nbytes == 0:
                        descs.append(("val", a))
                        continue
                    return None
                if not resident and id(a) not in staged_seen:
                    staged_seen.add(id(a))
                    view = np.ndarray(a.shape, dtype=a.dtype, buffer=seg.shm.buf)
                    view[...] = a
                    _COUNTERS.bump("staged_in_bytes", a.nbytes)
                    if id(a) in write_ids:
                        writeback.append((a, view))
                descs.append(("shm", seg.name, a.shape, a.dtype.str))
            else:
                try:
                    pickle.dumps(a)
                except Exception:
                    return None
                descs.append(("val", a))
        return descs, writeback

    def _pickle_fn(self, fn) -> Optional[tuple[str, bytes]]:
        """Ship the kernel by reference; ``None`` for closures/lambdas.

        Memoised per function: pickling by reference re-imports the
        defining module to check the name, which no launch after the
        first needs to repeat.
        """
        try:
            return self._fn_pickles[fn]
        except (KeyError, TypeError):  # first sight / not weak-referenceable
            pass
        shipped = None
        try:
            token = f"{getattr(fn, '__module__', '?')}.{getattr(fn, '__qualname__', repr(fn))}"
            shipped = (token, pickle.dumps(fn))
            self._fn_pickles[fn] = shipped
        except Exception:
            pass
        return shipped

    # -- execution ---------------------------------------------------------
    def _run_inline(self, plan: LaunchPlan, fplan) -> Optional[float]:
        """The unsharded rung: run in-process under the same seam."""
        _COUNTERS.bump("inline_launches")
        sched = plan.schedule
        domain = (
            sched.domains[0]
            if sched is not None and sched.inline and sched.domains
            else plan.full_domain()
        )
        return _faults.guarded(fplan, "cluster.shard", plan, plan.run, domain)

    def _send_shard(
        self, w: _Worker, plan, descs, fn_token, fn_bytes,
        task_id, ordinal, fplan, span,
    ) -> None:
        """Honour kill injection, then send one shard message."""
        if fplan is not None and fplan.take_kill(
            "cluster.shard", ordinal, device_id=w.name
        ):
            _COUNTERS.bump("kills")
            _faults.record_event(
                _faults.FaultEvent(
                    site="cluster.shard",
                    kind="kill",
                    action="kill",
                    device_id=w.name,
                    kernel=getattr(plan.fn, "__name__", None),
                    detail=f"worker {w.name!r} SIGKILLed at shard "
                    f"ordinal {ordinal}",
                ),
                plan,
            )
            self._supervisor.sigkill(w)
        spec = {
            "construct": plan.construct,
            "op": plan.op,
            "ndim": plan.ndim,
            "ranges": [span] + [(0, d) for d in plan.dims[1:]],
            "args": descs,
            "fn_token": fn_token,
            "fn_bytes": fn_bytes if fn_token not in w.fn_tokens else b"",
        }
        try:
            w.conn.send(("shard", task_id, spec))
        except (OSError, BrokenPipeError) as exc:
            raise WorkerLostError(
                f"worker {w.name!r} pipe broke at dispatch: {exc}",
                device_id=w.name,
                operation="cluster.shard",
            ) from exc
        w.fn_tokens.add(fn_token)

    def _dispatch_shard(
        self, w: _Worker, plan, span, descs, fn_token, fn_bytes,
        task_id, ordinal, fplan,
    ) -> None:
        """Probe ``cluster.shard``, then :meth:`_send_shard`.

        The probe and the kill both fire *before* the worker processes
        the message, so a retried or rebalanced shard never
        double-applies stores.
        """
        send = partial(
            self._send_shard,
            w, plan, descs, fn_token, fn_bytes, task_id, ordinal, fplan,
        )
        try:
            _faults.guarded(
                fplan, "cluster.shard", plan, send, span,
                device_id=w.name, ordinal=ordinal,
            )
        except WorkerLostError:
            raise
        except PermanentDeviceError as exc:
            # An injected permanent at this seam models the worker's
            # device dying — treat it as a loss of the process.
            raise WorkerLostError(
                str(exc), device_id=w.name, operation="cluster.shard"
            ) from exc

    def _collect_shard(self, w: _Worker, task_id: int, deadline: float):
        """Wait (bounded) for one shard reply from one worker.

        Replies carry the dispatch's task id; stale messages (heartbeat
        pongs, replies from a launch abandoned by an earlier error) are
        drained until this task's answer arrives.
        """
        while True:
            remaining = deadline - time.monotonic()
            try:
                if not w.conn.poll(max(0.0, remaining)):
                    raise WorkerLostError(
                        f"worker {w.name!r} missed the launch deadline",
                        device_id=w.name,
                        operation="cluster.shard",
                    )
                reply = w.conn.recv()
            except WorkerLostError:
                raise
            except (EOFError, OSError, BrokenPipeError) as exc:
                raise WorkerLostError(
                    f"worker {w.name!r} died mid-shard: {exc}",
                    device_id=w.name,
                    operation="cluster.shard",
                ) from exc
            if reply[0] == "pong":
                continue
            if reply[1] != task_id:
                continue
            if reply[0] == "err":
                _tag, _task, exc_type, msg = reply
                raise KernelExecutionError(
                    f"cluster worker {w.name!r} failed shard {task_id}: "
                    f"{exc_type}: {msg}"
                )
            return reply[2]

    def _run_sharded(
        self, plan: LaunchPlan, descs, fn_token, fn_bytes, fplan
    ) -> list[tuple[int, Optional[float]]]:
        """Dispatch row spans over the worker set until all rows ran.

        Each round sends one queued span per live worker (extras wait
        for the next round); a lost worker's span goes back on the
        queue whole, so later rounds hand it to a survivor — the
        :class:`MultiDeviceBackend` recovery shape, lifted to processes
        — and the partials always cover the recorded shard split.
        Raises ``PermanentDeviceError`` when no worker remains (the
        dispatch ladder then demotes the backend).
        """
        sup = self._supervisor
        remaining: list[tuple[int, int]] = [
            dom.ranges[0]
            for dom in plan.schedule.domains
            if dom.ranges[0][1] > dom.ranges[0][0]
        ]
        policy = plan.policy or _faults.DEFAULT_POLICY
        timeout = (
            policy.watchdog if policy.watchdog is not None else self.shard_timeout
        )
        partials: list[tuple[int, Optional[float]]] = []
        first_round = True
        while remaining:
            workers = sup.alive()
            if not workers:
                _COUNTERS.bump("degradations")
                raise PermanentDeviceError(
                    f"all cluster workers lost with "
                    f"{sum(hi - lo for lo, hi in remaining)} rows unprocessed "
                    f"(respawn budget {sup.max_respawns} spent: "
                    f"{sup.respawns_used})",
                    operation="cluster.shard",
                )
            if not first_round:
                _COUNTERS.bump("rebalances")
            # Taken spans leave the queue here; a failed dispatch or
            # collection re-queues its span below.
            spans = remaining[: len(workers)]
            remaining = remaining[len(workers):]
            batch = list(zip(workers, spans))
            base = (
                fplan.next_ordinal("cluster.shard", len(batch))
                if fplan is not None
                else 0
            )
            inflight = []
            for k, (w, span) in enumerate(batch):
                self._task_seq += 1
                task_id = self._task_seq
                try:
                    self._dispatch_shard(
                        w, plan, span, descs, fn_token, fn_bytes,
                        task_id, base + k, fplan,
                    )
                except WorkerLostError as exc:
                    self._note_loss(w, span, exc, plan, fplan)
                    remaining.append(span)
                    continue
                inflight.append((w, span, task_id))
            deadline = time.monotonic() + timeout
            for w, span, task_id in inflight:
                try:
                    partial = self._collect_shard(w, task_id, deadline)
                except WorkerLostError as exc:
                    self._note_loss(w, span, exc, plan, fplan)
                    remaining.append(span)
                    continue
                _COUNTERS.bump("shards")
                partials.append((span[0], partial))
            first_round = False
        return partials

    def _note_loss(self, w, span, exc, plan, fplan) -> None:
        """Record a loss event and attempt the elastic respawn."""
        refilled = self._supervisor.handle_loss(w, fplan, plan)
        survivors = len(self._supervisor.alive())
        _faults.record_failover(
            "cluster.shard", plan, w.name,
            f"worker {w.name!r} lost ({exc}); rows [{span[0]}, {span[1]}) "
            f"rebalanced over {survivors} worker(s)"
            + (" after respawn" if refilled else ""),
        )

    def execute(self, plan: LaunchPlan) -> Optional[float]:
        self.accounting.n_kernel_launches += 1
        fplan = _faults.active_plan()
        sched = plan.schedule
        if sched is None or sched.inline:
            return self._run_inline(plan, fplan)
        shipped = self._ship_args(plan)
        pickled = self._pickle_fn(plan.fn)
        if shipped is None or pickled is None:
            _COUNTERS.bump("unshippable")
            return self._run_inline(plan, fplan)
        descs, writeback = shipped
        fn_token, fn_bytes = pickled
        try:
            self._supervisor.ensure_started(fplan, plan)
        except PermanentDeviceError:
            _COUNTERS.bump("degradations")
            raise
        if self._retired:
            retired, self._retired = self._retired, []
            self._supervisor.broadcast_forget(retired)
        wait_compiles()  # workers load the parent's artifacts, never re-run cc
        partials = self._run_sharded(plan, descs, fn_token, fn_bytes, fplan)
        # Shard writeback: commit staged results into the caller's
        # arrays *before* returning, so the dispatch stage's
        # write-version bump (repro.ir.writes) publishes values that
        # are actually there — the process-local contract satellite.
        for arr, view in writeback:
            np.copyto(arr, view)
            _COUNTERS.bump("staged_out_bytes", arr.nbytes)
        if not plan.is_reduce:
            return None
        # Row order, not arrival order (spans are disjoint, so no two
        # share a start): the fold is the threads backend's over the
        # same split, and ``cluster.reduce`` probes that one call.
        partials.sort()
        _COUNTERS.bump("reduce_folds", len(partials) - 1)
        return _faults.guarded(
            fplan, "cluster.reduce", plan, partial(fold_partials, plan.op),
            [value for _lo, value in partials],
        )
