"""The pluggable executor protocol: ``submit`` / ``as_completed`` / ``map_specs``.

Every evaluation study is a batch of independent, deterministic runs — the
ideal shape for pluggable execution strategies.  This module defines the
protocol the strategies implement and the single-run kernel they all share:

* :class:`RunSpec` describes one engine run declaratively (workload, driver
  factory + kwargs, engine configuration, row label);
* :class:`RunContext` is the batch-wide context an executor ships to each
  worker exactly once — the platform and the default engine configuration —
  plus per-worker caches (phased profiles, evaluation tables) that are
  rebuilt lazily on the worker side, so streaming a :class:`RunSpec` never
  carries profile data: a driver that wants the workload's stationary
  profiles gets them built where it runs;
* :func:`execute_run` turns ``(RunContext, RunSpec)`` into a
  :class:`~repro.runtime.results.RunResult` — the one function every backend
  (in-process, or a TCP worker on this host or another) invokes per run;
* :class:`Executor` is the protocol: ``submit(spec) -> ticket`` enqueues
  work, ``as_completed()`` streams ``(ticket, result)`` pairs in completion
  order, and ``map_specs(specs)`` is the ordered convenience used by the
  study layer — results merge deterministically in submission order no
  matter which worker finished first.

Executors are generic underneath: ``set_context(worker_fn, payload)``
installs a kernel ``worker_fn(payload, task) -> result``, which is how the
static study shards per-workload evaluation over the same backends.
``prepare(platform, ...)`` is the :class:`RunSpec` layer on top,
installing :func:`execute_run` with a :class:`RunContext`.  The in-process
backend accepts any module-level kernel; the TCP backend, which every worker
process speaks, ships only the kernels, payloads and tasks listed in the
wire's record table (:mod:`repro.runtime.executors.framing`).

Backends register under a string name in
:data:`repro.experiments.registry.EXECUTORS` (``serial``, ``pool``, ``tcp``,
``supervised``) so a study spec — or ``repro.cli run --executor`` — can
select the execution strategy as data.
"""

from __future__ import annotations

import os
from abc import ABC, abstractmethod
from collections import deque
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import SimulationError
from repro.hardware.platform import PlatformSpec
from repro.runtime.engine import EngineConfig, RuntimeEngine
from repro.runtime.multirun import MultiRunEngine, RunGroup
from repro.runtime.results import RunResult
from repro.simulator.estimator import DEFAULT_MAX_ENTRIES, EvaluationTables
from repro.workloads.generator import Workload

__all__ = [
    "Ticket",
    "RunSpec",
    "RunContext",
    "TaskError",
    "Executor",
    "execute_run",
    "worker_tables",
    "clear_worker_tables",
    "resolve_jobs",
    "check_unique_workloads",
    "task_label",
]

#: Opaque handle returned by :meth:`Executor.submit`; monotonically
#: increasing per executor, which is what makes the ordered merge trivial.
Ticket = int


@dataclass(frozen=True)
class RunSpec:
    """One dynamic run: a workload executed under a policy driver."""

    workload: Workload
    driver_cls: type
    driver_kwargs: Mapping[str, Any] = field(default_factory=dict)
    config: Optional[EngineConfig] = None
    #: Label recorded on the result (defaults to the driver's ``name``).
    label: str = ""

    def make_driver(self, platform: PlatformSpec):
        """The driver; one that ``wants_profiles`` gets the workload's
        stationary profiles on ``platform`` (built here, never shipped)."""
        kwargs = dict(self.driver_kwargs)
        if getattr(self.driver_cls, "wants_profiles", False):
            kwargs.setdefault("profiles", self.workload.profiles(platform.llc_ways))
        return self.driver_cls(**kwargs)


def resolve_jobs(jobs: Optional[int]) -> int:
    """The worker count a ``jobs`` knob asks for (``None`` = CPUs - 1)."""
    if jobs is None:
        jobs = max((os.cpu_count() or 1) - 1, 1)
    if jobs < 1:
        raise SimulationError("jobs must be >= 1")
    return jobs


def check_unique_workloads(specs: Sequence[RunSpec]) -> None:
    """One workload name must mean one workload across a batch."""
    known: Dict[str, Workload] = {}
    for spec in specs:
        name = spec.workload.name
        if name in known and known[name] != spec.workload:
            raise SimulationError(
                f"two different workloads in one batch share the name {name!r}"
            )
        known.setdefault(name, spec.workload)


def task_label(task: Any) -> str:
    """Human-readable identity of a task, for error messages."""
    if isinstance(task, RunSpec):
        label = task.label or getattr(task.driver_cls, "name", "") or (
            task.driver_cls.__name__
        )
        return f"{label}@{task.workload.name}"
    if isinstance(task, RunGroup):
        workloads = sorted({member.workload.name for member in task.members})
        preview = ",".join(workloads[:3]) + ("..." if len(workloads) > 3 else "")
        return f"group[{len(task.members)}]@{preview}"
    text = repr(task)
    return text if len(text) <= 80 else text[:77] + "..."


# ---------------------------------------------------------------------------
# Per-worker shared state
# ---------------------------------------------------------------------------

# One table set per (platform identity, LRU bound) per worker process, so
# runs executed by the same worker share cached occupancy trajectories and
# allocation estimates without nested or interleaved runners clobbering each
# other's state.  The cached platform is held strongly and compared by
# identity on lookup, so a recycled id() can never alias a freed platform.
# The cache lives for one context install (see clear_worker_tables): every
# set_context/prepare starts from empty tables, matching the historical
# per-batch reset, so long-lived processes never accumulate stale table sets.
_TABLES_CACHE: Dict[Tuple[int, Optional[int]], Tuple[PlatformSpec, EvaluationTables]] = {}
_TABLES_CACHE_MAX = 8


def clear_worker_tables() -> None:
    """Drop this process's table cache (called on every context install).

    The tables live in memory only, so the next lookup starts cold."""
    _TABLES_CACHE.clear()


def worker_tables(
    platform: PlatformSpec, max_entries: Optional[int] = DEFAULT_MAX_ENTRIES
) -> EvaluationTables:
    """This process's shared evaluation tables for ``(platform, max_entries)``."""
    key = (id(platform), max_entries)
    hit = _TABLES_CACHE.get(key)
    if hit is not None and hit[0] is platform:
        return hit[1]
    tables = EvaluationTables(platform, max_entries=max_entries)
    if len(_TABLES_CACHE) >= _TABLES_CACHE_MAX:
        _TABLES_CACHE.pop(next(iter(_TABLES_CACHE)))
    _TABLES_CACHE[key] = (platform, tables)
    return tables


@dataclass
class RunContext:
    """Batch-wide inputs shipped to every worker once, plus worker-side caches.

    Only ``platform`` and ``default_config`` travel over the wire; the phased
    profiles are a pure function of (workload, platform) and are rebuilt
    lazily — and cached — on whichever worker first executes a run of that
    workload.  The cache also enforces that one workload name means one
    workload for the lifetime of the context.
    """

    platform: PlatformSpec
    default_config: Optional[EngineConfig] = None
    _profiles: Dict[str, Tuple[Workload, Mapping]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def profiles_for(self, workload: Workload) -> Mapping:
        cached = self._profiles.get(workload.name)
        if cached is not None:
            known, profiles = cached
            if known != workload:
                raise SimulationError(
                    f"two different workloads in one batch share the name "
                    f"{workload.name!r}"
                )
            return profiles
        profiles = workload.phased_profiles(self.platform.llc_ways)
        self._profiles[workload.name] = (workload, profiles)
        return profiles


def execute_run(context: RunContext, spec: Any) -> Any:
    """The per-task kernel shared by every executor backend.

    A :class:`RunSpec` yields one :class:`RunResult`; a :class:`RunGroup`
    yields the list of its members' results (in member order), produced by
    one :class:`~repro.runtime.multirun.MultiRunEngine` over this worker's
    shared tables.
    """
    if isinstance(spec, RunGroup):
        return _execute_run_group(context, spec)
    config = spec.config or context.default_config or EngineConfig()
    tables = worker_tables(context.platform, config.max_table_entries)
    engine = RuntimeEngine(
        context.platform,
        context.profiles_for(spec.workload),
        spec.make_driver(context.platform),
        config,
        tables=tables,
    )
    result = engine.run(spec.workload.name)
    # Thread the spec's label through to the result, defaulting to the
    # driver's own name exactly as the RunSpec docstring promises.
    result.label = spec.label or result.policy
    return result


def _execute_run_group(context: RunContext, group: RunGroup) -> List[RunResult]:
    """Run one stack-compatible group through a multi-run engine."""
    config = group.config or context.default_config or EngineConfig()
    tables = worker_tables(context.platform, config.max_table_entries)
    engine = MultiRunEngine(
        context.platform,
        [
            (
                member.workload.name,
                context.profiles_for(member.workload),
                member.make_driver(context.platform),
            )
            for member in group.members
        ],
        config,
        tables=tables,
    )
    results = engine.run()
    for member, result in zip(group.members, results):
        result.label = member.label or result.policy
    return results


# ---------------------------------------------------------------------------
# Error transport
# ---------------------------------------------------------------------------


@dataclass
class TaskError:
    """A task failure captured on a worker, shippable across processes."""

    ticket: Ticket
    label: str
    kind: str
    message: str
    traceback: str = ""

    def raise_(self) -> "None":
        detail = f"\n{self.traceback}" if self.traceback else ""
        raise SimulationError(
            f"run {self.label!r} (ticket {self.ticket}) failed with "
            f"{self.kind}: {self.message}{detail}"
        )

    @classmethod
    def capture(cls, ticket: Ticket, task: Any, exc: BaseException) -> "TaskError":
        import traceback as _tb

        return cls(
            ticket=ticket,
            label=task_label(task),
            kind=type(exc).__name__,
            message=str(exc),
            traceback="".join(_tb.format_exception(type(exc), exc, exc.__traceback__)),
        )


# ---------------------------------------------------------------------------
# The protocol
# ---------------------------------------------------------------------------


class Executor(ABC):
    """Pluggable execution strategy for batches of independent runs.

    Lifecycle: install a context (:meth:`prepare` for :class:`RunSpec`
    batches, :meth:`set_context` for generic tasks), :meth:`submit` work,
    then either stream :meth:`as_completed` or collect the ordered
    :meth:`map_specs`.  ``as_completed`` yields in completion order and is
    re-entrant: abandoning the iterator early and calling it again resumes
    the same outstanding work.  Every run is deterministic, so results never
    depend on the backend or on worker scheduling — only wall-clock does.

    Executors are context managers; :meth:`close` releases workers.
    """

    def __init__(self) -> None:
        self._next_ticket: Ticket = 0
        self._queue: Deque[Tuple[Ticket, Any]] = deque()
        self._worker_fn: Optional[Callable[[Any, Any], Any]] = None
        self._payload: Any = None

    # -- context -----------------------------------------------------------------

    def set_context(self, worker_fn: Callable[[Any, Any], Any], payload: Any) -> None:
        """Install the shared context every subsequent task runs against.

        ``worker_fn`` must be a module-level callable; it receives
        ``(payload, task)``.  Replacing the context mid-batch is an error.
        """
        if self.outstanding():
            raise SimulationError(
                "cannot replace the executor context while tasks are outstanding"
            )
        self._worker_fn = worker_fn
        self._payload = payload
        # Fresh tables per context in this process, mirroring the historical
        # per-batch reset (worker processes reset on context receipt).
        clear_worker_tables()
        self._context_changed()

    def prepare(
        self,
        platform: PlatformSpec,
        *,
        default_config: Optional[EngineConfig] = None,
    ) -> None:
        """Install the :class:`RunSpec` execution context (:func:`execute_run`)."""
        self.set_context(execute_run, RunContext(platform, default_config))

    def _context_changed(self) -> None:
        """Hook for backends that ship the context to remote workers."""

    def parallelism(self) -> int:
        """How many tasks this executor can usefully run at once.

        A scheduling *hint* for callers shaping their batches (e.g. how many
        multi-run groups to cut a study into) — never a correctness
        property.  Serial backends report 1.
        """
        return 1

    # -- submission / collection -------------------------------------------------

    def submit(self, spec: Any) -> Ticket:
        """Enqueue one task; returns its ticket (stable submission index)."""
        if self._worker_fn is None:
            raise SimulationError(
                "executor has no context; call prepare() or set_context() first"
            )
        ticket = self._next_ticket
        self._submitted(ticket, spec)
        self._next_ticket += 1
        self._queue.append((ticket, spec))
        return ticket

    def _submitted(self, ticket: Ticket, spec: Any) -> None:
        """Hook invoked before a task is enqueued; raising refuses it."""

    @abstractmethod
    def as_completed(
        self, *, raise_errors: bool = True
    ) -> Iterator[Tuple[Ticket, Any]]:
        """Yield ``(ticket, result)`` for outstanding tasks, completion order.

        With ``raise_errors=True`` (the default) a task failure raises
        :class:`~repro.errors.SimulationError` naming the failing task's
        label; results yielded before the failure remain valid with the
        caller.  With ``raise_errors=False`` a failure is yielded as a
        ``(ticket, TaskError)`` pair instead, and iteration continues — the
        contract the study layer's retry/quarantine loop is built on.  Tasks
        submitted while iterating (resubmissions) are picked up by the same
        iterator.
        """

    @abstractmethod
    def outstanding(self) -> int:
        """Number of submitted tasks whose results were not yet yielded."""

    def map_specs(self, specs: Sequence[Any]) -> List[Any]:
        """Run every spec and return the results in spec order.

        The deterministic merge point of the whole design: workers complete
        in arbitrary order, the caller always sees submission order.
        """
        specs = list(specs)
        if not specs:
            return []
        if all(isinstance(spec, RunSpec) for spec in specs):
            check_unique_workloads(specs)
        tickets = [self.submit(spec) for spec in specs]
        wanted = set(tickets)
        done: Dict[Ticket, Any] = {}
        for ticket, result in self.as_completed():
            if ticket in wanted:
                done[ticket] = result
            if len(done) == len(wanted):
                break
        missing = [t for t in tickets if t not in done]
        if missing:
            raise SimulationError(
                f"executor lost track of {len(missing)} submitted runs "
                f"(tickets {missing[:5]}...)"
            )
        return [done[ticket] for ticket in tickets]

    # -- lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        """Release workers and transport resources; idempotent.

        Also drops this process's table cache (the historical end-of-batch
        reset), so a long-lived process does not retain the last batch's
        evaluation tables.  Subclasses extending ``close`` must call
        ``super().close()``.
        """
        clear_worker_tables()

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
