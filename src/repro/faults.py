"""Deterministic fault injection + the resilient launch policy.

At exascale, transient device faults are routine, not exceptional — a
runtime that crashes a whole CG/LBM run on the first ``DeviceError`` is
not usable on machines the paper targets (Frontier / Perlmutter /
Aurora).  This module makes fault behaviour a first-class, *testable*
layer over the staged dispatch pipeline:

Injection side — :class:`FaultPlan`
    A per-:class:`~repro.core.context.ExecutionContext` plan that injects
    typed failures (:class:`~repro.core.exceptions.TransientDeviceError` /
    :class:`~repro.core.exceptions.PermanentDeviceError`) at realistic
    seams.  Every seam probes **before** the guarded operation's side
    effects, so a retried or failed-over operation never double-applies a
    kernel.  Sites:

    - ``gpusim.launch`` — portable kernel execution on a simulated GPU;
    - ``gpusim.device_launch`` — the native ``Device.launch`` path;
    - ``gpusim.to_device`` — H2D transfer;
    - ``gpusim.fold`` — the second (fold) reduction kernel;
    - ``threads.chunk`` — one worker chunk of the threads backend;
    - ``multidevice.chunk`` — one device's chunk of a multi-device plan;
    - ``arena.frame`` — scratch-buffer frame open (allocation failure);
    - ``cluster.spawn`` — forking one cluster worker process;
    - ``cluster.shard`` — dispatching one shard to a cluster worker;
    - ``cluster.reduce`` — the fold of a reduce's per-shard partials.

    Schedules are **deterministic**: whether probe ``k`` at a site faults
    is a pure function of ``(seed, site, k)`` (a stable blake2b hash, not
    Python's salted ``hash``), so the same seed always produces the same
    fault schedule.  Configure via API (:func:`set_fault_plan`), the
    ``PYACC_FAULTS`` environment variable, or the ``faults`` preferences
    key — env > prefs > default (no injection), matching the verifier's
    precedence style.

    Beyond raised errors, a plan can schedule **hard worker kills**
    (``kind="kill"`` entries, spec key ``kill=``): when the cluster
    backend dispatches the shard whose ordinal matches, it sends the
    target worker process ``SIGKILL`` — a real dead process, not a
    simulated exception — and the supervision/rebalance machinery must
    recover.  Kill entries are consumed once, via
    :meth:`FaultPlan.take_kill`; ``check`` never raises for them.

Policy side — :class:`LaunchPolicy`
    Attached to every :class:`~repro.core.plan.LaunchPlan` at resolve
    time and enforced around ``Backend.execute``:

    - transient failures retry with capped exponential backoff
      (in-backend, through the one :func:`guarded` seam every backend's
      chunk body runs under, so native ``run_for`` paths are covered
      too);
    - a permanent device failure triggers *failover*: the multi-device
      backend drops the dead device and rebalances the remaining rows
      over the survivors (``weighted_chunks``); a fully-failed backend is
      demoted down the ladder (multidevice → single device → threads →
      serial) by the dispatch stage, stickily, reusing the already
      resolved host storage so results stay correct;
    - ``sync=False`` handles drained by ``synchronize()`` honour a
      wall-clock watchdog (:class:`~repro.core.exceptions.LaunchTimeoutError`);
    - every injection/retry/failover is recorded as a :class:`FaultEvent`
      on the plan, the context, and process-wide counters (``repro.bench
      --json`` embeds them).
"""

from __future__ import annotations

import hashlib
import os
import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional, Sequence

from .core.exceptions import (
    PermanentDeviceError,
    PreferencesError,
    TransientDeviceError,
)
from .obs import Counters, register

if TYPE_CHECKING:  # pragma: no cover - types only
    from .core.backend import Backend
    from .core.plan import LaunchPlan

__all__ = [
    "FAULT_SITES",
    "FaultEvent",
    "FaultPlan",
    "InjectedFault",
    "LaunchPolicy",
    "DEFAULT_POLICY",
    "fault_plan",
    "set_fault_plan",
    "launch_policy",
    "set_launch_policy",
    "parse_fault_spec",
    "resolve_fault_plan",
    "global_fault_stats",
    "reset_global_fault_stats",
]

_ENV_FAULTS = "PYACC_FAULTS"
_PREFS_KEY = "faults"

#: Every seam the harness can inject at.
FAULT_SITES = (
    "gpusim.launch",
    "gpusim.device_launch",
    "gpusim.to_device",
    "gpusim.fold",
    "threads.chunk",
    "multidevice.chunk",
    "arena.frame",
    "cluster.spawn",
    "cluster.shard",
    "cluster.reduce",
)


# ---------------------------------------------------------------------------
# Events + process-wide counters
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FaultEvent:
    """One observable fault-handling step.

    ``action`` is what the runtime did: ``"inject"`` (a fault was
    raised), ``"retry"`` (a transient is being retried), ``"exhausted"``
    (retry budget spent, original error re-raised), ``"failover"`` (work
    moved off a failed device/backend), ``"watchdog"`` (an async handle
    timed out), ``"restore"`` (a solver rolled back to a checkpoint),
    ``"kill"`` (a cluster worker process was SIGKILLed by schedule).
    """

    site: str
    kind: str  # "transient" | "permanent" | "timeout" | "checkpoint" | "kill"
    action: str
    attempt: int = 0
    device_id: Optional[str] = None
    kernel: Optional[str] = None
    detail: str = ""


#: Process-wide fault/retry/failover totals (bench ``--json``).
_COUNTERS = Counters(
    "faults",
    (
        "probes",
        "transients_injected",
        "permanents_injected",
        "retries",
        "retry_exhausted",
        "failovers",
        "kills",
        "watchdog_timeouts",
        "checkpoint_saves",
        "checkpoint_restores",
    ),
)
register(_COUNTERS)


def global_fault_stats() -> dict:
    """Process-wide fault activity since start (all contexts)."""
    return _COUNTERS.snapshot()


def reset_global_fault_stats() -> None:
    """Zero the process-wide counters (tests / bench isolation)."""
    _COUNTERS.reset()


def record_event(event: FaultEvent, plan: Optional["LaunchPlan"] = None) -> None:
    """File an event with the plan, the current context, and the globals."""
    if plan is not None:
        plan.fault_events.append(event)
    try:
        _context().fault_events.append(event)
    except Exception:  # pragma: no cover - never block fault handling
        pass
    if event.action == "retry":
        _COUNTERS.bump("retries")
    elif event.action == "exhausted":
        _COUNTERS.bump("retry_exhausted")
    elif event.action == "failover":
        _COUNTERS.bump("failovers")
    elif event.action == "kill":
        _COUNTERS.bump("kills")
    elif event.action == "watchdog":
        _COUNTERS.bump("watchdog_timeouts")
    elif event.action == "restore":
        _COUNTERS.bump("checkpoint_restores")


def record_checkpoint_save() -> None:
    _COUNTERS.bump("checkpoint_saves")


def record_failover(
    site: str, plan: "LaunchPlan", device_id: Optional[str], detail: str
) -> None:
    """File the event for work moved off a permanently failed lane,
    device, worker or backend."""
    record_event(
        FaultEvent(
            site=site,
            kind="permanent",
            action="failover",
            device_id=device_id,
            kernel=getattr(plan.fn, "__name__", None),
            detail=detail,
        ),
        plan,
    )


# ---------------------------------------------------------------------------
# The injection plan
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InjectedFault:
    """One explicitly scheduled fault.

    With ``device_id`` the ``index`` counts probes *of that device* at
    the site; without, it counts all probes at the site.  Explicit
    schedules compose with the probabilistic rates (both are checked).
    Each entry fires at most once, so a retried pool chunk (which
    re-probes its fixed ordinal) sees the fault on one attempt only.

    ``kind="kill"`` entries are the hard-termination schedule: they are
    ignored by :meth:`FaultPlan.check` (no exception is raised) and
    instead consumed once by :meth:`FaultPlan.take_kill` — the cluster
    backend SIGKILLs the worker whose shard-dispatch ordinal matches
    ``index``.
    """

    site: str
    index: int
    kind: str  # "transient" | "permanent" | "kill"
    device_id: Optional[str] = None


def _stable_uniform(seed: int, site: str, index: int) -> float:
    """Deterministic uniform in [0, 1) from ``(seed, site, index)``.

    Uses blake2b, not ``hash()`` — Python string hashing is salted per
    process, which would make "same seed, same schedule" false across
    runs (and CI).
    """
    key = f"{seed}:{site}:{index}".encode()
    digest = hashlib.blake2b(key, digest_size=8).digest()
    return int.from_bytes(digest, "big") / float(1 << 64)


class FaultPlan:
    """A deterministic, seeded schedule of injected device faults.

    Parameters
    ----------
    seed:
        Schedule seed.  Same seed (and same probe sequence) → same fault
        schedule, bit for bit.
    transient_rate / permanent_rate:
        Per-probe probability of injecting a transient / permanent fault
        at an enabled site.
    sites:
        Sites to inject at (default: all of :data:`FAULT_SITES`).
    max_faults:
        Total injection budget across the plan's lifetime (``None`` =
        unlimited).  Explicitly ``scheduled`` faults don't count against
        the budget — they were asked for by index.
    scheduled:
        Explicit :class:`InjectedFault` entries for precise tests
        ("kill device 1 at its 3rd chunk").

    A permanent fault *sticks*: once injected for a device, every later
    probe of that device raises ``PermanentDeviceError``, which is what
    makes backend-level failover observable (and necessary).
    """

    def __init__(
        self,
        seed: int = 0,
        *,
        transient_rate: float = 0.0,
        permanent_rate: float = 0.0,
        sites: Optional[Sequence[str]] = None,
        max_faults: Optional[int] = None,
        scheduled: Sequence[InjectedFault] = (),
    ):
        if not 0.0 <= transient_rate <= 1.0:
            raise ValueError(f"transient_rate must be in [0,1], got {transient_rate}")
        if not 0.0 <= permanent_rate <= 1.0:
            raise ValueError(f"permanent_rate must be in [0,1], got {permanent_rate}")
        if sites is not None:
            unknown = set(sites) - set(FAULT_SITES)
            if unknown:
                raise ValueError(
                    f"unknown fault sites {sorted(unknown)}; "
                    f"valid sites: {FAULT_SITES}"
                )
        for f in scheduled:
            if f.site not in FAULT_SITES:
                raise ValueError(f"unknown fault site {f.site!r} in schedule")
            if f.kind not in ("transient", "permanent", "kill"):
                raise ValueError(
                    f"fault kind must be transient|permanent|kill, got {f.kind!r}"
                )
        self.seed = int(seed)
        self.transient_rate = float(transient_rate)
        self.permanent_rate = float(permanent_rate)
        self.sites = tuple(sites) if sites is not None else None
        self.max_faults = max_faults
        self.scheduled = tuple(scheduled)
        self._lock = threading.Lock()
        self._counts: dict = {}  # (site,) and (site, device_id) probe counters
        self._dead: set = set()  # device_ids with a sticky permanent fault
        #: Chronological record of every injected fault: (site, index,
        #: kind, device_id) — the determinism tests compare these.
        self.injected: list[tuple] = []

    # -- probing ----------------------------------------------------------
    def _site_enabled(self, site: str) -> bool:
        return self.sites is None or site in self.sites

    def check(
        self,
        site: str,
        device_id: Optional[str] = None,
        ordinal: Optional[int] = None,
    ) -> None:
        """One probe: raise the scheduled/sampled fault for this seam.

        ``ordinal`` overrides the per-site counter for seams whose probe
        *order* is nondeterministic (parallel worker chunks): the caller
        supplies a deterministic per-plan index instead.
        """
        _COUNTERS.bump("probes")
        with self._lock:
            k_site = self._counts.get((site,), 0)
            self._counts[(site,)] = k_site + 1
            if device_id is not None:
                k_dev = self._counts.get((site, device_id), 0)
                self._counts[(site, device_id)] = k_dev + 1
            else:
                k_dev = k_site
            if device_id is not None and device_id in self._dead:
                self.injected.append((site, k_site, "permanent", device_id))
                raise_permanent = True
            else:
                raise_permanent = False
        if raise_permanent:
            _COUNTERS.bump("permanents_injected")
            raise PermanentDeviceError(
                f"injected permanent fault: device {device_id!r} is down "
                f"(site {site})",
                device_id=device_id,
                operation=site,
            )
        index = k_site if ordinal is None else ordinal
        kind = None
        for k, f in enumerate(self.scheduled):
            if f.site != site or f.kind == "kill":
                continue  # kills are consumed by take_kill, never raised
            if f.device_id is not None:
                if f.device_id != device_id or f.index != k_dev:
                    continue
            elif f.index != index:
                continue
            # A scheduled entry fires once: a pool chunk re-probes the
            # *same* ordinal on every retry, and re-raising there would
            # exhaust the retry budget on a fault asked for once.
            with self._lock:
                if self._counts.get(("fired", k)):
                    continue
                self._counts[("fired", k)] = 1
            kind = f.kind
            break
        counted = False
        if kind is None and self._site_enabled(site):
            if ordinal is None:
                u = _stable_uniform(self.seed, site, index)
            else:
                # Pool chunks re-probe the *same* ordinal on every retry
                # (the ordinal pins the chunk's position in the schedule,
                # not the attempt).  Salt the draw with a per-ordinal
                # attempt counter so a retried chunk resamples — still a
                # pure function of the seed, but not a guaranteed
                # re-fault that would defeat the retry policy.
                with self._lock:
                    attempt = self._counts.get(("attempt", site, ordinal), 0)
                    self._counts[("attempt", site, ordinal)] = attempt + 1
                u = _stable_uniform(self.seed, f"{site}@{ordinal}", attempt)
            if u < self.permanent_rate:
                kind = "permanent"
            elif u < self.permanent_rate + self.transient_rate:
                kind = "transient"
            counted = kind is not None
        if kind is None:
            return
        with self._lock:
            if counted:
                if (
                    self.max_faults is not None
                    and self._budget_spent() >= self.max_faults
                ):
                    return
            self.injected.append((site, index, kind, device_id))
            if kind == "permanent" and device_id is not None:
                self._dead.add(device_id)
        if kind == "permanent":
            _COUNTERS.bump("permanents_injected")
            raise PermanentDeviceError(
                f"injected permanent fault at {site}[{index}]",
                device_id=device_id,
                operation=site,
            )
        _COUNTERS.bump("transients_injected")
        raise TransientDeviceError(
            f"injected transient fault at {site}[{index}]",
            device_id=device_id,
            operation=site,
        )

    def _budget_spent(self) -> int:
        scheduled_keys = {(f.site, f.kind) for f in self.scheduled}
        return sum(
            1 for (site, _i, kind, _d) in self.injected
            if (site, kind) not in scheduled_keys
        )

    def take_kill(
        self,
        site: str,
        ordinal: int,
        device_id: Optional[str] = None,
    ) -> bool:
        """Consume a scheduled ``kind="kill"`` entry matching this probe.

        Returns True exactly once per matching entry — the caller then
        hard-terminates the target (the cluster backend SIGKILLs the
        worker the shard was dispatched to).  ``ordinal`` is the
        deterministic dispatch ordinal (``next_ordinal`` order); an
        entry with a ``device_id`` additionally requires the worker
        name to match.
        """
        fired = False
        with self._lock:
            for k, f in enumerate(self.scheduled):
                if f.kind != "kill" or f.site != site:
                    continue
                if f.index != ordinal:
                    continue
                if f.device_id is not None and f.device_id != device_id:
                    continue
                key = ("kill-done", site, k)
                if self._counts.get(key):
                    continue
                self._counts[key] = 1
                self.injected.append((site, ordinal, "kill", device_id))
                fired = True
                break
        return fired

    # -- introspection / control -------------------------------------------
    def kill_device(self, device_id: str) -> None:
        """Mark a device permanently failed from now on."""
        with self._lock:
            self._dead.add(device_id)

    def is_dead(self, device_id: str) -> bool:
        with self._lock:
            return device_id in self._dead

    def next_ordinal(self, site: str, n: int = 1) -> int:
        """Reserve ``n`` deterministic ordinals for out-of-order probes.

        Backends whose chunks probe from worker threads (nondeterministic
        order) reserve a contiguous ordinal block in the submitting
        thread, so the schedule stays a pure function of the seed.
        """
        with self._lock:
            base = self._counts.get(("ordinal", site), 0)
            self._counts[("ordinal", site)] = base + n
        return base

    def stats(self) -> dict:
        with self._lock:
            return {
                "injected": len(self.injected),
                "transients": sum(1 for f in self.injected if f[2] == "transient"),
                "permanents": sum(1 for f in self.injected if f[2] == "permanent"),
                "kills": sum(1 for f in self.injected if f[2] == "kill"),
                "dead_devices": sorted(self._dead),
            }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<FaultPlan seed={self.seed} transient={self.transient_rate} "
            f"permanent={self.permanent_rate} injected={len(self.injected)}>"
        )


# ---------------------------------------------------------------------------
# Env / prefs configuration  (precedence: env > prefs > default)
# ---------------------------------------------------------------------------


def parse_fault_spec(spec: str) -> Optional[FaultPlan]:
    """Parse a ``PYACC_FAULTS`` spec string into a :class:`FaultPlan`.

    Format: comma-separated ``key=value`` pairs —
    ``seed=42,transient=0.02,permanent=0.001,sites=threads.chunk|gpusim.launch,max=100``.
    ``off`` (or an empty string) disables injection.

    The ``kill=`` key schedules hard worker terminations for the
    cluster backend: ``kill=cluster.shard:3|cluster.shard:7`` SIGKILLs
    the worker receiving shard-dispatch ordinal 3, then the one
    receiving ordinal 7 (ordinals count dispatches process-wide, in
    ``next_ordinal`` reservation order).  Examples::

        PYACC_FAULTS="seed=1,transient=0.01,sites=cluster.shard|cluster.reduce"
        PYACC_FAULTS="seed=7,kill=cluster.shard:2"
        PYACC_FAULTS="seed=1337,transient=0.005,max=200,kill=cluster.shard:40"
    """
    spec = spec.strip()
    if not spec or spec.lower() == "off":
        return None
    kwargs: dict = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise PreferencesError(
                f"malformed {_ENV_FAULTS} entry {part!r}; expected key=value"
            )
        key, _, value = part.partition("=")
        key = key.strip()
        value = value.strip()
        try:
            if key == "seed":
                kwargs["seed"] = int(value)
            elif key == "transient":
                kwargs["transient_rate"] = float(value)
            elif key == "permanent":
                kwargs["permanent_rate"] = float(value)
            elif key == "sites":
                kwargs["sites"] = tuple(
                    s.strip() for s in value.split("|") if s.strip()
                )
            elif key == "max":
                kwargs["max_faults"] = int(value)
            elif key == "kill":
                entries = []
                for item in value.split("|"):
                    item = item.strip()
                    if not item:
                        continue
                    site, sep, index = item.rpartition(":")
                    if not sep or not site:
                        raise PreferencesError(
                            f"malformed {_ENV_FAULTS} kill entry {item!r}; "
                            "expected site:ordinal (e.g. cluster.shard:3)"
                        )
                    entries.append(
                        InjectedFault(site=site, index=int(index), kind="kill")
                    )
                kwargs["scheduled"] = tuple(kwargs.get("scheduled", ())) + tuple(
                    entries
                )
            else:
                raise PreferencesError(
                    f"unknown {_ENV_FAULTS} key {key!r}; valid keys: "
                    "seed, transient, permanent, sites, max, kill"
                )
        except ValueError as exc:
            raise PreferencesError(
                f"bad {_ENV_FAULTS} value for {key!r}: {value!r} ({exc})"
            ) from exc
    try:
        return FaultPlan(kwargs.pop("seed", 0), **kwargs)
    except ValueError as exc:
        raise PreferencesError(f"invalid {_ENV_FAULTS} spec: {exc}") from exc


def resolve_fault_plan() -> Optional[FaultPlan]:
    """Build the configured fault plan: env > prefs file > None."""
    env = os.environ.get(_ENV_FAULTS)
    if env is not None:
        return parse_fault_spec(env)
    from .core.preferences import read_preferences

    spec = read_preferences().get(_PREFS_KEY)
    if spec is None:
        return None
    if not isinstance(spec, str):
        raise PreferencesError(
            f"preference {_PREFS_KEY!r} must be a spec string, got {spec!r}"
        )
    return parse_fault_spec(spec)


# The fast-path gate: probes are free unless injection *could* be active
# anywhere in the process (an env/prefs spec exists, or a plan was
# installed through the API).  None = not yet computed.
_gate_lock = threading.Lock()
_GATE: Optional[bool] = None


def _compute_gate() -> bool:
    if os.environ.get(_ENV_FAULTS):
        return True
    try:
        from .core.preferences import read_preferences

        return _PREFS_KEY in read_preferences()
    except Exception:
        return False


def injection_possible() -> bool:
    """Cheap global gate consulted by every seam."""
    global _GATE
    gate = _GATE
    if gate is None:
        with _gate_lock:
            if _GATE is None:
                _GATE = _compute_gate()
            gate = _GATE
    return gate


def _open_gate() -> None:
    global _GATE
    with _gate_lock:
        _GATE = True


def refresh_gate() -> None:
    """Recompute the gate from env/prefs (tests that set PYACC_FAULTS
    after import)."""
    global _GATE
    with _gate_lock:
        _GATE = None


#: ``core.context.current_context``, resolved on first use (that module
#: imports this one) so neither an open gate nor a recorded event costs
#: an ``import`` per launch.
_current_context = None


def _context():
    """The calling :class:`~repro.core.context.ExecutionContext`."""
    global _current_context
    if _current_context is None:
        from .core.context import current_context as _current_context
    return _current_context()


def active_plan() -> Optional[FaultPlan]:
    """The calling context's fault plan, or ``None`` (the common case)."""
    if not injection_possible():
        return None
    return _context().fault_plan


def fault_plan() -> Optional[FaultPlan]:
    """The current context's fault plan (resolving env/prefs lazily)."""
    return _context().fault_plan


def set_fault_plan(plan: Optional[FaultPlan]) -> Optional[FaultPlan]:
    """Install (or clear, with ``None``) the current context's plan."""
    if plan is not None:
        _open_gate()
    _context().set_fault_plan(plan)
    return plan


def probe(
    site: str,
    device_id: Optional[str] = None,
    plan: Optional[FaultPlan] = None,
    ordinal: Optional[int] = None,
) -> None:
    """One injection seam.  Near-zero cost with no plan configured.

    ``plan`` short-circuits context resolution for seams reached from
    worker threads (contextvars do not propagate into pools).
    """
    if plan is None:
        plan = active_plan()
        if plan is None:
            return
    plan.check(site, device_id=device_id, ordinal=ordinal)


# ---------------------------------------------------------------------------
# The launch policy
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LaunchPolicy:
    """How one launch responds to device faults.

    - ``max_retries`` — transient failures retried up to this many times
      (then the original error re-raises: retry exhaustion never
      converts the error);
    - ``backoff_base`` / ``backoff_cap`` — capped exponential backoff,
      ``min(cap, base · 2^(attempt-1))`` wall-clock seconds between
      retries;
    - ``failover`` — whether permanent failures demote down the backend
      ladder instead of raising;
    - ``watchdog`` — wall-clock seconds an asynchronous handle may run
      before ``synchronize()`` raises ``LaunchTimeoutError`` (``None``
      disables the watchdog).
    """

    max_retries: int = 3
    backoff_base: float = 0.0005
    backoff_cap: float = 0.05
    failover: bool = True
    watchdog: Optional[float] = None

    def backoff(self, attempt: int) -> float:
        """Delay before retry ``attempt`` (1-based), in seconds."""
        if self.backoff_base <= 0.0:
            return 0.0
        return min(self.backoff_cap, self.backoff_base * (2.0 ** (attempt - 1)))


DEFAULT_POLICY = LaunchPolicy()


def launch_policy() -> LaunchPolicy:
    """The current context's launch policy."""
    return _context().launch_policy


def set_launch_policy(policy: Optional[LaunchPolicy]) -> LaunchPolicy:
    """Install the current context's launch policy (``None`` restores the
    default)."""
    ctx = _context()
    ctx.launch_policy = policy if policy is not None else DEFAULT_POLICY
    return ctx.launch_policy


def guarded(
    fplan: Optional[FaultPlan],
    site: str,
    plan: Optional["LaunchPlan"],
    work: Callable,
    arg,
    *,
    device_id: Optional[str] = None,
    ordinal: Optional[int] = None,
    probe: bool = True,
):
    """The execute seam: run ``work(arg)`` under the fault contract.

    This is the single implementation of "probe before side effects,
    charge after success".  Each attempt probes ``site`` (with the
    caller's ``device_id`` / reserved ``ordinal``) *before* ``work``
    runs, so a retried or failed-over operation never double-applies a
    store; transients retry per ``plan.policy`` (the calling context's
    policy when there is no plan); anything else — a permanent fault, a
    kernel error, an exhausted budget — propagates, and the caller
    charges its modeled clock only after this returns.

    ``fplan`` is the caller's already-resolved :func:`active_plan`:
    contextvars do not cross a thread pool, so the submitting thread
    resolves it once and hands it to every chunk.  ``None`` (injection
    off, the common case) is one test and a direct call — which is why
    ``work`` takes exactly one argument (a chunk's domain, a slab, a pair
    of partials): a fixed-arity call costs the dispatch-bound inline path
    nothing measurable, a ``*args`` one ≈ 0.7 µs per launch.  Callers off
    the hot path bind anything else with :func:`functools.partial`.
    ``probe=False`` guards work that probes beneath this call (arena
    frames, ``Device.to_device``) or has nothing to protect (an empty
    chunk): transients still retry, labelled ``site`` when the error
    names no operation of its own.
    """
    if fplan is None:
        return work(arg)
    policy = plan.policy if plan is not None else _context().launch_policy

    def attempt():
        if probe:
            fplan.check(site, device_id=device_id, ordinal=ordinal)
        return work(arg)

    return retry_transients(
        attempt,
        policy=policy or DEFAULT_POLICY,
        site=site,
        plan=plan,
        device_id=device_id,
    )


def retry_transients(
    fn: Callable,
    *,
    policy: LaunchPolicy,
    site: str,
    plan: Optional["LaunchPlan"] = None,
    device_id: Optional[str] = None,
):
    """:func:`guarded`'s inner loop: run ``fn`` retrying
    :class:`TransientDeviceError` per the policy.

    On exhaustion the original error re-raises unchanged (callers and
    tests see the real failure).
    """
    attempt = 0
    while True:
        try:
            return fn()
        except TransientDeviceError as exc:
            attempt += 1
            exhausted = attempt > policy.max_retries
            record_event(
                FaultEvent(
                    site=exc.operation or site,
                    kind="transient",
                    action="exhausted" if exhausted else "retry",
                    attempt=attempt,
                    device_id=exc.device_id or device_id,
                    kernel=(
                        getattr(plan.fn, "__name__", None)
                        if plan is not None
                        else None
                    ),
                    detail=str(exc),
                ),
                plan,
            )
            if exhausted:
                raise
            delay = policy.backoff(attempt)
            if delay > 0.0:
                time.sleep(delay)


# ---------------------------------------------------------------------------
# The failover ladder (dispatch-level)
# ---------------------------------------------------------------------------


def demote_backend(backend: "Backend") -> Optional["Backend"]:
    """The next rung below ``backend`` on the failover ladder.

    multidevice / cluster (survivor rebalancing is internal to those
    backends; by the time they raise, the whole node or worker set is
    dead) → threads → serial → None.  The simulator's device storage —
    and the cluster backend's shared-memory segments — are host memory,
    so the demoted backend executes against the same buffers the failed
    workers owned, which is exactly what a managed-memory failover on
    real hardware provides.
    """
    from .backends.registry import create_backend
    from .backends.serial import SerialBackend
    from .backends.threads import ThreadsBackend

    if isinstance(backend, SerialBackend):
        # Includes InterpreterBackend: nothing below serial.
        return None
    if isinstance(backend, ThreadsBackend):
        return create_backend("serial")
    # GPU-class backends (single device or a fully-failed multi-device
    # node) and the cluster backend demote to the threads backend.
    return create_backend("threads")


def execute_plan(plan: "LaunchPlan", ctx) -> object:
    """Dispatch-stage enforcement: execute with permanent-failure failover.

    Transient retry happens *inside* ``Backend.execute`` (so native
    ``run_for`` paths are covered); this wrapper owns the backend-level
    ladder.  Failover is sticky — the context's backend is demoted so
    subsequent launches skip the dead hardware — and reuses the plan's
    already-resolved argument storage, which all backends share in the
    simulator (the managed-memory analogue).
    """
    policy = plan.policy or DEFAULT_POLICY
    while True:
        try:
            return plan.backend.execute(plan)
        except PermanentDeviceError as exc:
            if not policy.failover:
                raise
            fallback = demote_backend(plan.backend)
            if fallback is None:
                raise
            record_failover(
                exc.operation or "dispatch",
                plan,
                exc.device_id,
                f"backend {plan.backend.name!r} failed permanently; "
                f"demoted to {fallback.name!r}",
            )
            # Sticky demotion: the context routes future launches to the
            # fallback; the user-visible synchronous semantics hold.
            if ctx is not None and ctx._backend is plan.backend:
                ctx.set_backend(fallback)
            plan.backend = fallback
            fallback.stage(plan)
            # The plan's modeled-time span now runs on the fallback's
            # clock; rebase so sim_time_elapsed stays non-negative.
            if plan.sim_time_before is not None:
                plan.sim_time_before = fallback.accounting.sim_time
