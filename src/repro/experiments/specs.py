"""Typed, serializable experiment specifications.

A study is *data*: a :class:`StudySpec` holds :class:`ScenarioSpec`\\ s, each
of which names its workloads (:class:`WorkloadSpec`), its policy line-up
(:class:`PolicySpec`), how the runtime engine executes (:class:`EngineSpec`),
the optimal solvers' search budget (:class:`SolverSpec`) and which platform it
runs on; :class:`ExecutorSpec`, :class:`FaultToleranceSpec` and
:class:`ServiceSpec` describe where runs execute, how failures degrade and an
online service session.

Every class here is a frozen dataclass on :class:`~repro.experiments.schema.Spec`:
its fields *are* its schema.  The one codec in :mod:`repro.experiments.schema`
derives ``to_dict`` / ``from_dict`` and the type and range checks from the
field annotations and ``metadata``, so a spec built in Python and one read
from JSON or TOML (:mod:`repro.experiments.io`, the one file loader) are
validated alike and every refusal is a :class:`~repro.errors.SpecError`.  A
class's own ``__post_init__`` keeps only the rules that span fields, and
``from_dict`` adds the load-time registry checks (unknown policy, suite,
backend or platform names fail when the file is read, not mid-run).

Specs are resolved into live objects through the registries of
:mod:`repro.experiments.registry` by the ``resolve_*`` helpers here, and the
resolved components are lowered onto a pluggable
:class:`~repro.runtime.executors.base.Executor` (selected by
:class:`ExecutorSpec`) by :func:`repro.experiments.study.run_study`.

Two escape hatches keep the Python API as expressive as bespoke builders:
:meth:`PolicySpec.inline` wraps an already-constructed policy object (or
driver class) — such specs run but refuse to serialize — and
:meth:`WorkloadSpec.from_workload` captures any
:class:`~repro.workloads.generator.Workload` as a serializable benchmark list.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.errors import ReproError, SimulationError, SpecError
from repro.experiments.registry import (
    DRIVERS,
    ENGINE_BACKENDS,
    EXECUTORS,
    PLATFORMS,
    POLICIES,
    WORKLOAD_SUITES,
)
from repro.experiments.schema import Spec, _decoder, rule
from repro.hardware.platform import PlatformSpec
from repro.runtime.engine import EngineConfig
from repro.runtime.executors.tcp import parse_address
from repro.simulator.estimator import DEFAULT_MAX_ENTRIES
from repro.workloads.generator import Workload, random_workload
from repro.workloads.suites import all_workloads

__all__ = [
    "SCHEMA_VERSION",
    "WorkloadSpec",
    "PolicySpec",
    "EngineSpec",
    "SolverSpec",
    "ExecutorSpec",
    "ServiceSpec",
    "FaultToleranceSpec",
    "ScenarioSpec",
    "StudySpec",
    "resolve_policy",
    "resolve_driver",
    "resolve_platform",
]

#: Version stamp written into every serialized study spec.
SCHEMA_VERSION = 1


def _address(owner: str):
    """``parse`` rule of a ``host:port`` listen address."""

    def parse(value: Any, where: str) -> str:
        try:
            parse_address(value)
        except SimulationError as exc:
            raise SpecError(f"{owner} bind is invalid: {exc}") from exc
        return value

    return parse


def _catalogue_workload(value: Any, where: str) -> str:
    """``parse`` rule of an evaluation-workload name (``S7``, ``P12``...)."""
    if not isinstance(value, str) or not value:
        raise SpecError(f"{where} must be a non-empty string, got {value!r}")
    names = [workload.name for workload in all_workloads()]
    if value not in names:
        raise SpecError(
            f"{where} {value!r} is not an evaluation workload; known: "
            f"{', '.join(names)}"
        )
    return value


def _fault_plan(value: Mapping[str, Any], where: str):
    from repro.runtime.executors.chaos import FaultPlan

    try:
        return FaultPlan.from_dict(value)
    except (SimulationError, TypeError, ValueError) as exc:
        raise SpecError(f"{where} plan is invalid: {exc}") from exc


# ---------------------------------------------------------------------------
# WorkloadSpec / PolicySpec
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WorkloadSpec(Spec):
    """Which workloads a scenario runs; resolves to one or more ``Workload``\\ s.

    Three sources:

    * ``source="suite"`` — a registered evaluation suite (``"s"``, ``"p"``,
      ``"dynamic_study"``...), optionally filtered by ``names`` (kept in the
      given order) and ``max_size``;
    * ``source="explicit"`` — a literal benchmark list (``name`` +
      ``benchmarks``), the serializable image of any ``Workload`` object;
    * ``source="random"`` — a reproducible random mix (``size``, ``kind``,
      ``seed``); the scenario's seed replication offsets ``seed``, which is
      how a study aggregates metrics across seeds.
    """

    source: str = rule("suite", emit="always", choices=("suite", "explicit", "random"))
    # -- suite source --
    suite: Optional[str] = None
    names: Optional[Tuple[str, ...]] = None
    max_size: Optional[int] = None
    # -- explicit source --
    name: Optional[str] = None
    benchmarks: Optional[Tuple[str, ...]] = None
    kind: Optional[str] = None
    # -- random source --
    size: Optional[int] = None
    seed: Optional[int] = rule(ge=0)

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.source == "suite":
            if not self.suite:
                raise SpecError("suite workload specs need a 'suite' name")
            dead = ("name", "benchmarks", "kind", "size", "seed")
        elif self.source == "explicit":
            if not self.name or not self.benchmarks:
                raise SpecError(
                    "explicit workload specs need both 'name' and 'benchmarks'"
                )
            dead = ("suite", "names", "max_size", "size", "seed")
        else:
            if self.size is None or self.size < 2:
                raise SpecError("random workload specs need a 'size' >= 2")
            if self.kind is not None and self.kind not in ("S", "P"):
                raise SpecError(
                    f"random workload kind must be 'S' or 'P', got {self.kind!r}"
                )
            dead = ("suite", "names", "max_size", "benchmarks")
        present = [f for f in dead if getattr(self, f) is not None]
        if present:
            raise SpecError(
                f"{self.source} workload specs do not use "
                f"{', '.join(repr(f) for f in present)} (the field"
                f"{'s are' if len(present) > 1 else ' is'} silently dead there; "
                "remove it or change 'source')"
            )

    @classmethod
    def from_workload(cls, workload: Workload) -> "WorkloadSpec":
        """The serializable image of a concrete ``Workload``."""
        return cls(
            source="explicit",
            name=workload.name,
            benchmarks=tuple(workload.benchmarks),
            kind=workload.kind,
        )

    def resolve(self, *, seed_offset: int = 0) -> List[Workload]:
        """Materialise the workloads this spec describes."""
        if self.source == "suite":
            factory = WORKLOAD_SUITES.resolve(self.suite)
            workloads = list(factory(max_size=self.max_size))
            if self.names is not None:
                by_name = {w.name: w for w in workloads}
                missing = [n for n in self.names if n not in by_name]
                if missing:
                    raise SpecError(
                        f"suite {self.suite!r} has no workloads named {missing} "
                        f"(available: {', '.join(sorted(by_name))})"
                    )
                workloads = [by_name[n] for n in self.names]
            return workloads
        if self.source == "explicit":
            return [
                Workload(
                    name=self.name,
                    benchmarks=tuple(self.benchmarks),
                    kind=self.kind or "custom",
                )
            ]
        seed = (self.seed or 0) + seed_offset
        kind = self.kind or "S"
        name = self.name or f"rnd{kind}{self.size}"
        return [random_workload(f"{name}-s{seed}", self.size, kind=kind, seed=seed)]


@dataclass(frozen=True)
class PolicySpec(Spec):
    """One policy (static scenario) or policy driver (dynamic scenario).

    ``name`` is a registry key (:data:`~repro.experiments.registry.POLICIES`
    or :data:`~repro.experiments.registry.DRIVERS` depending on the scenario
    kind) and ``params`` are the factory's keyword arguments.  ``label``
    overrides the row label (defaults to the component's own ``name``
    attribute).  ``instance`` is the non-serializable inline escape hatch.
    """

    name: str
    params: Mapping[str, Any] = field(default_factory=dict)
    label: Optional[str] = None
    instance: Any = field(default=None, compare=False, repr=False)

    @classmethod
    def inline(cls, component: Any, label: Optional[str] = None) -> "PolicySpec":
        """Wrap a live policy object / driver class with no registered name."""
        kind = (
            component.__name__
            if isinstance(component, type)
            else type(component).__name__
        )
        return cls(name=f"<inline:{kind}>", label=label, instance=component)

    @classmethod
    def coerce(cls, value: Any, where: Optional[str] = None) -> "PolicySpec":
        """Accept a bare name, a mapping, or an existing spec."""
        if isinstance(value, str):
            return cls(name=value)
        if isinstance(value, (PolicySpec, Mapping)):
            return super().coerce(value, where)
        raise SpecError(f"{where or 'PolicySpec'} must be a name or mapping, got {value!r}")

    def to_dict(self) -> Dict[str, Any]:
        if self.instance is not None:
            raise SpecError(
                f"policy spec {self.name!r} wraps an inline component and cannot "
                "be serialized; register it (repro.experiments.register_policy / "
                "register_driver) to make it spec-addressable"
            )
        return super().to_dict()


# ---------------------------------------------------------------------------
# EngineSpec / SolverSpec
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EngineSpec(Spec):
    """Runtime-engine execution parameters; mirrors ``EngineConfig``.

    ``backend`` (``incremental`` or ``multirun``) is resolved through the
    engine-backend registry.  ``max_table_entries`` is the LRU bound on each
    table of the shared :class:`~repro.simulator.estimator.EvaluationTables`:
    estimates, component trajectories, decompositions and engine vectors
    (default :data:`~repro.simulator.estimator.DEFAULT_MAX_ENTRIES`).
    ``None`` is unbounded and a JSON spec writes it as ``null``; TOML has no
    null, so a TOML study asks for a bound larger than it will ever fill.
    The tables live in memory only: each worker process starts them cold.
    ``record_traces`` defaults to *off* here (studies persist metric rows,
    not traces), unlike the engine's own default.
    """

    instructions_per_run: float = rule(
        2.0e9, emit="always", gt=0, help="instructions each application retires per completion"
    )
    min_completions: int = rule(
        3, emit="always", ge=1, help="completions per application before a run ends"
    )
    partition_interval_s: float = rule(0.5, emit="always", gt=0)
    record_traces: bool = rule(False, emit="always")
    max_simulated_seconds: float = rule(600.0, emit="always", gt=0)
    backend: str = rule("incremental", emit="always")
    max_table_entries: Optional[int] = rule(
        DEFAULT_MAX_ENTRIES, ge=1,
        help=f"LRU bound on each shared evaluation table (default {DEFAULT_MAX_ENTRIES}); "
        "evicted entries are recomputed with the same bits",
    )

    _REMOVED = {
        "tables_path": "EngineSpec.tables_path was removed (evaluation tables "
        "are in-memory only; the persisted warm-start file is gone); drop the "
        "'tables_path' key from the engine table"
    }

    def to_config(self) -> EngineConfig:
        """Lower onto a concrete ``EngineConfig`` (resolves the backend)."""
        if self.backend == "reference":
            raise SpecError(
                "EngineSpec.backend 'reference' was removed (the reference "
                "engine loop is a test oracle); use 'incremental' or 'multirun'"
            )
        return EngineConfig(
            instructions_per_run=self.instructions_per_run,
            min_completions=self.min_completions,
            partition_interval_s=self.partition_interval_s,
            record_traces=self.record_traces,
            max_simulated_seconds=self.max_simulated_seconds,
            backend=ENGINE_BACKENDS.resolve(self.backend),
            max_table_entries=self.max_table_entries,
        )

    @classmethod
    def from_config(cls, config: EngineConfig) -> "EngineSpec":
        return cls(
            instructions_per_run=config.instructions_per_run,
            min_completions=config.min_completions,
            partition_interval_s=config.partition_interval_s,
            record_traces=config.record_traces,
            max_simulated_seconds=config.max_simulated_seconds,
            backend=config.backend,
            max_table_entries=config.max_table_entries,
        )

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "EngineSpec":
        spec = super().from_dict(data)
        spec.to_config()  # the backend name resolves at load time
        return spec


@dataclass(frozen=True)
class SolverSpec(Spec):
    """Search budget of the optimal-clustering policies in this scenario.

    ``exact_limit`` is the largest workload solved exactly (branch and bound);
    larger ones get ``local_search_iterations`` of the local search.
    """

    exact_limit: int = rule(7, emit="always", ge=1)
    local_search_iterations: int = rule(800, emit="always", ge=1)

    _REMOVED = {
        "backend": "SolverSpec.backend was removed (the tabulated scorer is the "
        "only solver backend; the per-candidate reference search is a "
        "test oracle); drop the 'backend' key from the solver table"
    }


# ---------------------------------------------------------------------------
# ExecutorSpec / ServiceSpec / FaultToleranceSpec
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExecutorSpec(Spec):
    """How a study's runs are executed: the strategy and its knobs.

    ``name`` is a key of the executor registry
    (:data:`~repro.experiments.registry.EXECUTORS`): ``serial`` (in-process),
    ``tcp`` (multi-host coordinator; workers join with ``repro.cli worker
    --connect host:port``), ``supervised`` (the coordinator spawns its own
    local workers) and ``pool`` (the ``jobs`` path: ``workers`` supervised
    local workers, CPUs - 1 when unset) are built in.  Every backend
    produces bit-identical rows — the spec only chooses *where* the runs
    execute.

    ``bind``, ``heartbeat_s``, ``heartbeat_grace_s``, ``connect_timeout_s``,
    ``task_timeout_s``, ``max_retries`` and ``chaos`` tune the coordinator
    of ``tcp``, ``supervised`` and ``pool`` and are ignored in-process.
    """

    name: str = rule(
        "serial", emit="always", required=True,
        help="execution backend: serial, pool, tcp, supervised or another registered "
        "executor (overrides jobs)",
    )
    workers: Optional[int] = rule(
        ge=1, help="worker count: workers connected before the first dispatch (tcp) or "
        "local worker subprocesses (supervised; pool, where unset = all CPUs but one)",
    )
    bind: Optional[str] = rule(
        parse=_address("executor"), help="tcp/supervised coordinator listen address "
        "(port 0 = any free port); workers join with `worker --connect HOST:PORT`",
    )
    heartbeat_s: float = rule(5.0, gt=0)
    heartbeat_grace_s: Optional[float] = rule(
        gt=0, help="tcp: drop a worker whose ping goes unanswered for this many seconds "
        "(default: max(3 * heartbeat, 10))",
    )
    connect_timeout_s: float = rule(60.0, gt=0)
    task_timeout_s: Optional[float] = rule(
        gt=0, help="tcp: declare a worker lost when one run takes longer than this many "
        "seconds and resubmit it (default: no bound)",
    )
    max_retries: int = rule(2, ge=0)
    chaos: Optional[Mapping[str, Any]] = rule(
        help="tcp: coordinator-side FaultPlan, e.g. '{\"corrupt_frames\": [1], "
        "\"drop_frames\": [3]}' (deterministic resilience drills)"
    )

    _REMOVED = {
        "unsafe_pickle": "ExecutorSpec.unsafe_pickle was removed (the safe codec is "
        "the only wire codec; the pickle codec is gone); drop the "
        "'unsafe_pickle' key from the executor table"
    }

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.chaos is not None:
            object.__setattr__(self, "chaos", dict(self.fault_plan().to_dict()))

    def fault_plan(self):
        """The validated :class:`FaultPlan` behind the ``chaos`` mapping."""
        return _fault_plan(self.chaos, "executor chaos")

    def create(self):
        """Build the live :class:`~repro.runtime.executors.base.Executor`."""
        return EXECUTORS.resolve(self.name)(self)

    @classmethod
    def coerce(cls, value: Any, where: Optional[str] = None) -> "ExecutorSpec":
        """Accept a bare backend name, a mapping, or an existing spec."""
        if isinstance(value, str):
            spec = cls(name=value)
            EXECUTORS.resolve(spec.name)
            return spec
        if isinstance(value, (ExecutorSpec, Mapping)):
            return super().coerce(value, where)
        raise SpecError(f"{where or 'ExecutorSpec'} must be a name or mapping, got {value!r}")

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExecutorSpec":
        spec = super().from_dict(data)
        EXECUTORS.resolve(spec.name)  # validate eagerly
        return spec


@dataclass(frozen=True)
class ServiceSpec(Spec):
    """A declarative online-partitioning service session.

    Its fields generate the flags of ``repro.cli serve`` (and the host
    flags of ``repro.cli agent``), which build one of these, so a whole
    supervised service run (daemon policy, agent fleet, trace length,
    scripted chaos) also lives in one TOML/JSON file (see
    ``examples/service_session.toml``).  :meth:`create` builds the live
    :class:`~repro.service.daemon.PartitionDaemon`; :meth:`serve` drives one
    to completion and saves the replay log; :meth:`run` does both.
    """

    bind: str = rule(
        "127.0.0.1:0", parse=_address("service"), help="listen address (port 0 = any "
        "free port, printed at startup); agents join with `agent --connect HOST:PORT`",
    )
    policy: str = rule(
        "lfoc", choices=("lfoc", "dunn"), help="online partitioning policy driving mask decisions"
    )
    ways: Optional[int] = rule(ge=1, help="LLC way count")
    supervise: int = rule(
        0, ge=0, help="local host agents the daemon spawns and babysits (crash -> respawn "
        "with backoff; 0 = external agents); needs a workload",
    )
    workload: Optional[str] = rule(
        parse=_catalogue_workload, help="workload each host agent simulates (S7, P12...)"
    )
    batches: int = rule(
        50, ge=1, help="monitoring batches each host agent streams before its host_bye"
    )
    seed: int = rule(0, help="seed of the simulated hosts")
    agent_chaos: Optional[Mapping[str, Any]] = rule(
        help="fault plan for the FIRST supervised agent incarnation only, e.g. "
        "'{\"agent_kill_batches\": [3]}' (its respawn comes up clean); daemon-side "
        "faults such as daemon_kill_decisions ride in the same mapping",
    )
    replay_log: Optional[str] = rule(
        help="save the mask-decision log as JSONL on exit (unset: kept in memory only)"
    )
    snapshot: Optional[str] = rule(
        help="CRC-guarded daemon state snapshot: restored at startup when the file exists "
        "(a restarted daemon resumes every host session mid-epoch), refreshed periodically "
        "and on SIGTERM/clean exit",
    )
    snapshot_every_s: float = rule(
        5.0, help="seconds between periodic snapshots (<= 0: only on exit)"
    )

    _REMOVED = {
        "monitor_backend": "ServiceSpec.monitor_backend was removed (the fused "
        "MonitorBank is the only monitor ingest; the per-AppMonitor reference "
        "ingest is a test oracle); drop the 'monitor_backend' key from the "
        "service table"
    }

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.supervise and not self.workload:
            raise SpecError("a supervised service spec needs a workload")
        if self.agent_chaos is not None:
            object.__setattr__(self, "agent_chaos", dict(self.fault_plan().to_dict()))

    def fault_plan(self):
        """The validated :class:`FaultPlan` behind ``agent_chaos``."""
        return _fault_plan(self.agent_chaos, "service agent_chaos")

    def create(self, *, quiet: bool = True):
        """Build the live :class:`~repro.service.daemon.PartitionDaemon`."""
        from repro.service.daemon import PartitionDaemon

        return PartitionDaemon(
            parse_address(self.bind),
            policy=self.policy,
            n_ways=self.ways,
            supervise=self.supervise,
            workload=self.workload,
            batches=self.batches,
            seed=self.seed,
            agent_chaos=self.agent_chaos,
            quiet=quiet,
            snapshot=self.snapshot,
            snapshot_every_s=self.snapshot_every_s,
        )

    def serve(
        self,
        daemon,
        *,
        until_byes: Optional[int] = None,
        max_seconds: Optional[float] = None,
    ) -> Dict[str, Any]:
        """Run ``daemon`` (built by :meth:`create`), then save the replay log
        (unless a fault plan killed the daemon) and close it; returns the
        run's summary."""
        try:
            return daemon.run(until_byes=until_byes, max_seconds=max_seconds)
        finally:
            if self.replay_log and not daemon.killed:
                daemon.replay.save(self.replay_log)
            daemon.close()

    def run(self, *, max_seconds: Optional[float] = None, quiet: bool = True):
        """Serve one supervised session end to end; returns the summary."""
        return self.serve(
            self.create(quiet=quiet),
            until_byes=self.supervise or None,
            max_seconds=max_seconds,
        )

    @classmethod
    def load(cls, path: str) -> "ServiceSpec":
        """Read a spec from a ``.toml`` or ``.json`` file.

        The keys sit at the top level or under a ``[service]`` table (so a
        service spec can ride along in a larger config file).
        """
        from repro.experiments.io import read_spec_file

        data = read_spec_file(path, "service")
        if isinstance(data.get("service"), Mapping):
            data = data["service"]
        return cls.from_dict(data)


@dataclass(frozen=True)
class FaultToleranceSpec(Spec):
    """Graceful-degradation policy for a study's runs.

    With a fault-tolerance spec installed, :func:`~repro.experiments.study.run_study`
    retries each failed run up to ``max_attempts`` total attempts with
    exponential backoff (``backoff_s`` doubling up to ``backoff_max_s``)
    and then — with ``quarantine=True`` — records the run as a structured
    failure on the :class:`~repro.experiments.study.ScenarioResult` instead
    of aborting the study; ``quarantine=False`` keeps the retries but still
    aborts once a run exhausts its budget.  Without a spec (the default),
    the first failure aborts the scenario, exactly as before.
    """

    max_attempts: int = rule(3, ge=1)
    backoff_s: float = rule(0.5, ge=0)
    backoff_max_s: float = 5.0
    quarantine: bool = True

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.backoff_max_s < self.backoff_s:
            raise SpecError(
                "fault_tolerance backoff_max_s must be >= backoff_s"
            )

    def backoff_for(self, attempt: int) -> float:
        """Backoff before retry number ``attempt`` (1-based), capped."""
        return min(self.backoff_s * (2.0 ** max(attempt - 1, 0)), self.backoff_max_s)

    @classmethod
    def coerce(cls, value: Any, where: Optional[str] = None):
        """Accept a spec, a mapping, ``True`` (the defaults) or ``False``/``None``."""
        if value is None or isinstance(value, bool):
            return cls() if value else None
        if isinstance(value, (FaultToleranceSpec, Mapping)):
            return super().coerce(value, where)
        raise SpecError(
            f"{where or 'FaultToleranceSpec'} must be a mapping or boolean, got {value!r}"
        )


#: Help of the ``jobs`` and ``fault_tolerance`` fields of studies and tournaments.
JOBS_HELP = (
    "local worker processes for the run batches when no executor is set (0 = all CPUs "
    "but one, 1 = serial); workers receive policies by registered name"
)
FAULT_TOLERANCE_HELP = (
    "retry/quarantine policy, e.g. '{\"max_attempts\": 3, \"backoff_s\": 0.5}', true for "
    "the defaults or false to abort on the first failure: failed runs are retried with "
    "backoff, then quarantined as failure records"
)


# ---------------------------------------------------------------------------
# ScenarioSpec / StudySpec
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScenarioSpec(Spec):
    """One experiment cell: workloads x policies under one configuration.

    ``kind="static"`` evaluates each policy's fixed allocation with the
    contention estimator (the Fig. 6 protocol); ``kind="dynamic"`` executes
    every (workload, driver) pair in the runtime engine through the study's
    :class:`~repro.runtime.executors.base.Executor` (the Fig. 7 protocol).  The
    stock-Linux baseline is implicit in both — every workload always gets a
    ``Stock-Linux`` row, and the normalised metrics are relative to it.

    ``seeds`` replicates the scenario: each seed offsets every random
    workload spec and is recorded in the result rows, so
    :meth:`~repro.experiments.study.StudyResult.aggregate` can average
    metrics across seeds.  ``platform`` is a registered preset name, a
    mapping of :class:`~repro.hardware.platform.PlatformSpec` field overrides
    (optionally with a ``preset`` base), or an inline ``PlatformSpec``.
    """

    name: str
    kind: str = field(metadata={"choices": ("static", "dynamic")})
    workloads: Tuple[WorkloadSpec, ...]
    policies: Tuple[PolicySpec, ...] = rule((), emit="always")
    engine: EngineSpec = field(default_factory=EngineSpec, metadata={"emit": "always"})
    solver: SolverSpec = field(default_factory=SolverSpec, metadata={"emit": "always"})
    platform: Any = rule("skylake_gold_6138", emit="always")
    seeds: Tuple[int, ...] = rule((0,), emit="always")

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.workloads:
            raise SpecError(f"scenario {self.name!r} declares no workloads")
        if not self.seeds:
            raise SpecError(f"scenario {self.name!r} declares no seeds")
        for seed in self.seeds:
            if seed < 0:
                raise SpecError(f"scenario {self.name!r} seeds must be >= 0, got {seed}")

    def scenario_id(self, seed: int) -> str:
        """Deterministic identifier of one seed replica of this scenario."""
        if len(self.seeds) == 1:
            return self.name
        return f"{self.name}#s{seed}"

    def to_dict(self) -> Dict[str, Any]:
        if isinstance(self.platform, PlatformSpec):
            raise SpecError(
                f"scenario {self.name!r} carries an inline PlatformSpec and cannot "
                "be serialized; use a registered preset name or a field-override "
                "mapping instead"
            )
        return super().to_dict()

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioSpec":
        spec = super().from_dict(data)
        # Fail at load time, not mid-run: resolve every registry name and
        # workload reference now (scenario 2's typo must not cost scenario 1's
        # finished work).  Resolution is cheap — it builds Workload name
        # tuples, not profiles.
        resolve_platform(spec.platform)
        registry = POLICIES if spec.kind == "static" else DRIVERS
        for policy in spec.policies:
            if policy.instance is None:
                registry.resolve(policy.name)
        for workload in spec.workloads:
            try:
                workload.resolve()
            except SpecError:
                raise
            except ReproError as exc:
                raise SpecError(f"scenario {spec.name!r} workloads are invalid: {exc}")
        return spec


@dataclass(frozen=True)
class StudySpec(Spec):
    """The single public unit of execution: a named set of scenarios."""

    name: str
    scenarios: Tuple[ScenarioSpec, ...]
    description: str = rule("", blank=True)
    jobs: Optional[int] = rule(1, ge=1, none_as=0, help=JOBS_HELP)
    #: Execution strategy for every scenario (:class:`ExecutorSpec`, a
    #: registered backend name, or a mapping); ``None`` derives one from
    #: ``jobs``.  Results are independent of the choice.
    executor: Optional[ExecutorSpec] = None
    fault_tolerance: Optional[FaultToleranceSpec] = rule(help=FAULT_TOLERANCE_HELP)

    _SCHEMA = ("study", SCHEMA_VERSION)

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.scenarios:
            raise SpecError(f"study {self.name!r} declares no scenarios")
        seen: Dict[str, str] = {}
        for scenario in self.scenarios:
            if scenario.name in seen:
                raise SpecError(
                    f"study {self.name!r} has two scenarios named {scenario.name!r}; "
                    "scenario names must be unique (they key the result store)"
                )
            # Seed replicas derive ids like "name#s0"; a literal scenario
            # named that way would collide in the result store.
            for seed in scenario.seeds:
                scenario_id = scenario.scenario_id(seed)
                if scenario_id in seen:
                    raise SpecError(
                        f"study {self.name!r}: scenario id {scenario_id!r} of "
                        f"{scenario.name!r} collides with scenario "
                        f"{seen[scenario_id]!r}; rename one of them"
                    )
                seen[scenario_id] = scenario.name
            seen.setdefault(scenario.name, scenario.name)


# ---------------------------------------------------------------------------
# Spec -> live-object resolution
# ---------------------------------------------------------------------------


def resolve_policy(spec: PolicySpec, solver: Optional[SolverSpec] = None):
    """A live ``ClusteringPolicy`` for a static-scenario policy spec."""
    if spec.instance is not None:
        return spec.instance
    factory = POLICIES.resolve(spec.name)
    kwargs = dict(spec.params)
    if getattr(factory, "wants_solver", False):
        kwargs.setdefault("solver", solver or SolverSpec())
    try:
        return factory(**kwargs)
    except TypeError as exc:
        raise SpecError(f"policy {spec.name!r} rejected params {spec.params}: {exc}")


def resolve_driver(spec: PolicySpec, solver: Optional[SolverSpec] = None):
    """``(factory, kwargs)`` for a dynamic-scenario spec.

    The factory and kwargs are shipped in a
    :class:`~repro.runtime.executors.base.RunSpec`; a factory whose
    ``wants_profiles`` is true gets the workload's stationary profiles
    where the run executes (:meth:`RunSpec.make_driver`).
    """
    if spec.instance is not None:
        return spec.instance, dict(spec.params)
    factory = DRIVERS.resolve(spec.name)
    kwargs = dict(spec.params)
    if getattr(factory, "wants_solver", False):
        kwargs.setdefault("solver", solver or SolverSpec())
    return factory, kwargs


def driver_label(spec: PolicySpec, factory: Any) -> str:
    """Row label of a dynamic policy: explicit label, else the driver's name."""
    if spec.label is not None:
        return spec.label
    name = getattr(factory, "name", None)
    return name if isinstance(name, str) and name else spec.name


def resolve_platform(value: Any) -> PlatformSpec:
    """A concrete platform from a preset name, override mapping or instance."""
    if isinstance(value, PlatformSpec):
        return value
    if isinstance(value, str):
        return PLATFORMS.resolve(value)()
    if isinstance(value, Mapping):
        overrides = dict(value)
        base = PLATFORMS.resolve(overrides.pop("preset", "skylake_gold_6138"))()
        if not overrides:
            return base
        valid = {f.name for f in base.__dataclass_fields__.values()}
        unknown = sorted(set(overrides) - valid)
        if unknown:
            raise SpecError(
                f"unknown PlatformSpec field{'s' if len(unknown) > 1 else ''} "
                f"{', '.join(repr(k) for k in unknown)} in platform overrides; "
                f"valid fields: {', '.join(sorted(valid))}"
            )
        hints = typing.get_type_hints(PlatformSpec)
        for key, value in overrides.items():
            if hints[key] in (int, float, str):
                decode = _decoder(hints[key], blank=True)
                overrides[key] = decode(value, f"platform override {key!r}")
        try:
            return replace(base, **overrides)
        except (TypeError, ValueError, ReproError) as exc:
            raise SpecError(f"platform overrides {overrides} are invalid: {exc}") from exc
    raise SpecError(
        f"platform must be a preset name, an override mapping or a PlatformSpec, "
        f"got {type(value).__name__}"
    )
