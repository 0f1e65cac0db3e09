"""Typed, serializable experiment specifications.

A study is *data*: a :class:`StudySpec` holds :class:`ScenarioSpec`\\ s, each
of which names its workloads (:class:`WorkloadSpec`), its policy line-up
(:class:`PolicySpec`), how the runtime engine executes (:class:`EngineSpec`),
how optimal solvers are scored (:class:`SolverSpec`) and which platform it
runs on.  Every spec round-trips through plain dictionaries (``to_dict`` /
``from_dict``) and therefore through JSON and TOML
(:mod:`repro.experiments.io`), with schema validation that reports unknown
keys, missing fields and unknown registry names as clear
:class:`~repro.errors.SpecError`\\ s.

Specs are resolved into live objects through the registries of
:mod:`repro.experiments.registry` by the ``resolve_*`` helpers here, and the
resolved components are lowered onto a pluggable
:class:`~repro.runtime.executors.base.Executor` (selected by
:class:`ExecutorSpec`: ``serial``, ``pool`` or the multi-host ``tcp``) by
:func:`repro.experiments.study.run_study`.

Two escape hatches keep the Python API as expressive as the old bespoke
builders:

* :meth:`PolicySpec.inline` wraps an already-constructed policy object (or
  driver class) so callers can pass components that have no registered name —
  such specs run fine but refuse to serialize;
* :meth:`WorkloadSpec.from_workload` captures any
  :class:`~repro.workloads.generator.Workload` as an explicit benchmark list,
  which *is* fully serializable.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import ReproError, SpecError
from repro.experiments.registry import (
    DRIVERS,
    ENGINE_BACKENDS,
    EXECUTORS,
    PLATFORMS,
    POLICIES,
    SOLVER_BACKENDS,
    WORKLOAD_SUITES,
)
from repro.hardware.platform import PlatformSpec
from repro.runtime.engine import EngineConfig
from repro.workloads.generator import Workload, random_workload

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

_WORKLOAD_SOURCES = ("suite", "explicit", "random")
_SCENARIO_KINDS = ("static", "dynamic")


def _check_keys(data: Mapping[str, Any], allowed: Sequence[str], where: str) -> None:
    """Reject unknown keys with a message naming the offender and the schema."""
    if not isinstance(data, Mapping):
        raise SpecError(f"{where} must be a mapping, got {type(data).__name__}")
    unknown = sorted(set(data) - set(allowed))
    if unknown:
        raise SpecError(
            f"unknown key{'s' if len(unknown) > 1 else ''} "
            f"{', '.join(repr(k) for k in unknown)} in {where}; "
            f"allowed keys: {', '.join(sorted(allowed))}"
        )


def _require(data: Mapping[str, Any], key: str, where: str) -> Any:
    if key not in data:
        raise SpecError(f"{where} is missing the required key {key!r}")
    return data[key]


def _opt_tuple(value: Any, where: str) -> Optional[Tuple[Any, ...]]:
    if value is None:
        return None
    if isinstance(value, (str, bytes)) or not isinstance(value, Sequence):
        raise SpecError(f"{where} must be a list, got {type(value).__name__}")
    return tuple(value)


def _opt_int(value: Any, where: str) -> Optional[int]:
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        raise SpecError(f"{where} must be an integer, got {value!r}")
    return int(value)


def _opt_str(value: Any, where: str) -> Optional[str]:
    if value is None:
        return None
    if not isinstance(value, str) or not value:
        raise SpecError(f"{where} must be a non-empty string, got {value!r}")
    return value


def _as_int(value: Any, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SpecError(f"{where} must be an integer, got {value!r}")
    return int(value)


def _as_float(value: Any, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SpecError(f"{where} must be a number, got {value!r}")
    return float(value)


def _as_bool(value: Any, where: str) -> bool:
    if not isinstance(value, bool):
        raise SpecError(f"{where} must be a boolean, got {value!r}")
    return value


def _forbid(spec: "WorkloadSpec", fields: Sequence[str]) -> None:
    present = [f for f in fields if getattr(spec, f) is not None]
    if present:
        raise SpecError(
            f"{spec.source} workload specs do not use "
            f"{', '.join(repr(f) for f in present)} (the field"
            f"{'s are' if len(present) > 1 else ' is'} silently dead there; "
            "remove it or change 'source')"
        )


# ---------------------------------------------------------------------------
# WorkloadSpec
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WorkloadSpec:
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

    source: str = "suite"
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
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.source not in _WORKLOAD_SOURCES:
            raise SpecError(
                f"workload source must be one of {_WORKLOAD_SOURCES}, got {self.source!r}"
            )
        if self.source == "suite":
            if not self.suite:
                raise SpecError("suite workload specs need a 'suite' name")
            _forbid(self, ("name", "benchmarks", "kind", "size", "seed"))
        elif self.source == "explicit":
            if not self.name or not self.benchmarks:
                raise SpecError(
                    "explicit workload specs need both 'name' and 'benchmarks'"
                )
            _forbid(self, ("suite", "names", "max_size", "size", "seed"))
        elif self.source == "random":
            if self.size is None or self.size < 2:
                raise SpecError("random workload specs need a 'size' >= 2")
            if self.kind is not None and self.kind not in ("S", "P"):
                raise SpecError(
                    f"random workload kind must be 'S' or 'P', got {self.kind!r}"
                )
            _forbid(self, ("suite", "names", "max_size", "benchmarks"))

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

    _KEYS = (
        "source",
        "suite",
        "names",
        "max_size",
        "name",
        "benchmarks",
        "kind",
        "size",
        "seed",
    )

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"source": self.source}
        for key in self._KEYS[1:]:
            value = getattr(self, key)
            if value is not None:
                out[key] = list(value) if isinstance(value, tuple) else value
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "WorkloadSpec":
        _check_keys(data, cls._KEYS, "WorkloadSpec")
        return cls(
            source=data.get("source", "suite"),
            suite=data.get("suite"),
            names=_opt_tuple(data.get("names"), "WorkloadSpec.names"),
            max_size=_opt_int(data.get("max_size"), "WorkloadSpec.max_size"),
            name=data.get("name"),
            benchmarks=_opt_tuple(data.get("benchmarks"), "WorkloadSpec.benchmarks"),
            kind=data.get("kind"),
            size=_opt_int(data.get("size"), "WorkloadSpec.size"),
            seed=_opt_int(data.get("seed"), "WorkloadSpec.seed"),
        )


# ---------------------------------------------------------------------------
# PolicySpec
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PolicySpec:
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

    def __post_init__(self) -> None:
        if not self.name:
            raise SpecError("policy specs need a non-empty 'name'")
        if not isinstance(self.params, Mapping):
            raise SpecError(
                f"policy params must be a mapping, got {type(self.params).__name__}"
            )
        object.__setattr__(self, "params", dict(self.params))

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
    def coerce(cls, value: Any, where: str = "PolicySpec") -> "PolicySpec":
        """Accept a bare name, a mapping, or an existing spec."""
        if isinstance(value, PolicySpec):
            return value
        if isinstance(value, str):
            return cls(name=value)
        if isinstance(value, Mapping):
            return cls.from_dict(value)
        raise SpecError(f"{where} must be a name or mapping, got {value!r}")

    _KEYS = ("name", "params", "label")

    def to_dict(self) -> Dict[str, Any]:
        if self.instance is not None:
            raise SpecError(
                f"policy spec {self.name!r} wraps an inline component and cannot "
                "be serialized; register it (repro.experiments.register_policy / "
                "register_driver) to make it spec-addressable"
            )
        out: Dict[str, Any] = {"name": self.name}
        if self.params:
            out["params"] = dict(self.params)
        if self.label is not None:
            out["label"] = self.label
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "PolicySpec":
        _check_keys(data, cls._KEYS, "PolicySpec")
        return cls(
            name=_require(data, "name", "PolicySpec"),
            params=data.get("params", {}),
            label=data.get("label"),
        )


# ---------------------------------------------------------------------------
# EngineSpec / SolverSpec
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EngineSpec:
    """Runtime-engine execution parameters; mirrors ``EngineConfig``.

    ``backend`` (``incremental`` or ``multirun``) is resolved through the
    engine-backend registry so aliases and future execution paths slot in; ``max_table_entries`` bounds the
    shared :class:`~repro.simulator.estimator.EvaluationTables` (LRU
    eviction, ``None`` = unbounded).  ``record_traces`` defaults to *off*
    here (studies persist metric rows, not traces), unlike the engine's own
    default.
    """

    instructions_per_run: float = 2.0e9
    min_completions: int = 3
    partition_interval_s: float = 0.5
    record_traces: bool = False
    max_simulated_seconds: float = 600.0
    backend: str = "incremental"
    max_table_entries: Optional[int] = None
    #: Warm-start file for the shared evaluation tables (see
    #: :attr:`EngineConfig.tables_path`); missing files mean a cold start.
    tables_path: Optional[str] = None

    def to_config(self) -> EngineConfig:
        """Lower onto a concrete ``EngineConfig`` (validates every field)."""
        if self.backend == "reference":
            raise SpecError(
                "EngineSpec.backend 'reference' was removed (the reference "
                "engine loop is a test oracle); use 'incremental' or 'multirun'"
            )
        backend = ENGINE_BACKENDS.resolve(self.backend)
        return EngineConfig(
            instructions_per_run=self.instructions_per_run,
            min_completions=self.min_completions,
            partition_interval_s=self.partition_interval_s,
            record_traces=self.record_traces,
            max_simulated_seconds=self.max_simulated_seconds,
            backend=backend,
            max_table_entries=self.max_table_entries,
            tables_path=self.tables_path,
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
            tables_path=config.tables_path,
        )

    _KEYS = (
        "instructions_per_run",
        "min_completions",
        "partition_interval_s",
        "record_traces",
        "max_simulated_seconds",
        "backend",
        "max_table_entries",
        "tables_path",
    )

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "instructions_per_run": float(self.instructions_per_run),
            "min_completions": self.min_completions,
            "partition_interval_s": float(self.partition_interval_s),
            "record_traces": self.record_traces,
            "max_simulated_seconds": float(self.max_simulated_seconds),
            "backend": self.backend,
        }
        if self.max_table_entries is not None:
            out["max_table_entries"] = self.max_table_entries
        if self.tables_path is not None:
            out["tables_path"] = self.tables_path
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "EngineSpec":
        _check_keys(data, cls._KEYS, "EngineSpec")
        defaults = cls()

        def get(key: str) -> Any:
            return data.get(key, getattr(defaults, key))

        spec = cls(
            instructions_per_run=_as_float(
                get("instructions_per_run"), "EngineSpec.instructions_per_run"
            ),
            min_completions=_as_int(
                get("min_completions"), "EngineSpec.min_completions"
            ),
            partition_interval_s=_as_float(
                get("partition_interval_s"), "EngineSpec.partition_interval_s"
            ),
            record_traces=_as_bool(get("record_traces"), "EngineSpec.record_traces"),
            max_simulated_seconds=_as_float(
                get("max_simulated_seconds"), "EngineSpec.max_simulated_seconds"
            ),
            backend=get("backend"),
            max_table_entries=_opt_int(
                data.get("max_table_entries"), "EngineSpec.max_table_entries"
            ),
            tables_path=_opt_str(
                data.get("tables_path"), "EngineSpec.tables_path"
            ),
        )
        spec.to_config()  # schema-validate eagerly (ranges, backend name)
        return spec


@dataclass(frozen=True)
class SolverSpec:
    """How optimal-clustering policies score candidates in this scenario."""

    backend: str = "tabulated"
    exact_limit: int = 7
    local_search_iterations: int = 800

    def __post_init__(self) -> None:
        if self.exact_limit < 1:
            raise SpecError("solver exact_limit must be >= 1")
        if self.local_search_iterations < 1:
            raise SpecError("solver local_search_iterations must be >= 1")

    _KEYS = ("backend", "exact_limit", "local_search_iterations")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "backend": self.backend,
            "exact_limit": self.exact_limit,
            "local_search_iterations": self.local_search_iterations,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SolverSpec":
        _check_keys(data, cls._KEYS, "SolverSpec")
        defaults = cls()
        spec = cls(
            backend=data.get("backend", defaults.backend),
            exact_limit=_as_int(
                data.get("exact_limit", defaults.exact_limit),
                "SolverSpec.exact_limit",
            ),
            local_search_iterations=_as_int(
                data.get("local_search_iterations", defaults.local_search_iterations),
                "SolverSpec.local_search_iterations",
            ),
        )
        SOLVER_BACKENDS.resolve(spec.backend)  # validate eagerly
        return spec


@dataclass(frozen=True)
class ExecutorSpec:
    """How a study's runs are executed: the strategy and its knobs.

    ``name`` is a key of the executor registry
    (:data:`~repro.experiments.registry.EXECUTORS`): ``serial`` (in-process),
    ``pool`` (local spawn pool) and ``tcp`` (multi-host coordinator; workers
    join with ``repro.cli worker --connect host:port``) are built in.  Every
    backend produces bit-identical rows — the spec only chooses *where* the
    runs execute.

    ``workers`` is the pool size (``pool``) or the number of workers that
    must be connected before the first dispatch (``tcp`` — and the number of
    supervised local worker subprocesses for ``supervised``); ``bind`` is
    the ``tcp``/``supervised`` coordinator's listen address
    (``"host:port"``, port ``0`` picks a free port).  ``heartbeat_s`` /
    ``heartbeat_grace_s`` (how long an unanswered ping is tolerated;
    ``None`` = ``max(3 * heartbeat_s, 10)``) / ``connect_timeout_s`` /
    ``task_timeout_s`` (hard per-run bound on a busy worker; ``None`` = no
    bound) / ``max_retries`` tune the ``tcp`` fault handling and are ignored
    elsewhere.  ``unsafe_pickle`` opts the coordinator into the legacy
    pickle wire codec (trusted networks only; workers must pass
    ``--unsafe-pickle`` too), and ``chaos`` is an optional coordinator-side
    :class:`~repro.runtime.executors.chaos.FaultPlan` as a mapping —
    deterministic fault drills straight from a spec file.
    """

    name: str = "serial"
    workers: Optional[int] = None
    bind: Optional[str] = None
    heartbeat_s: float = 5.0
    heartbeat_grace_s: Optional[float] = None
    connect_timeout_s: float = 60.0
    task_timeout_s: Optional[float] = None
    max_retries: int = 2
    unsafe_pickle: bool = False
    chaos: Optional[Mapping[str, Any]] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise SpecError("executor specs need a non-empty 'name'")
        if self.workers is not None and self.workers < 1:
            raise SpecError("executor workers must be >= 1")
        if self.heartbeat_s <= 0:
            raise SpecError("executor heartbeat_s must be > 0")
        if self.heartbeat_grace_s is not None and self.heartbeat_grace_s <= 0:
            raise SpecError("executor heartbeat_grace_s must be > 0")
        if self.connect_timeout_s <= 0:
            raise SpecError("executor connect_timeout_s must be > 0")
        if self.task_timeout_s is not None and self.task_timeout_s <= 0:
            raise SpecError("executor task_timeout_s must be > 0")
        if self.max_retries < 0:
            raise SpecError("executor max_retries must be >= 0")
        if not isinstance(self.unsafe_pickle, bool):
            raise SpecError("executor unsafe_pickle must be a boolean")
        if self.chaos is not None:
            object.__setattr__(self, "chaos", dict(self.fault_plan().to_dict()))

    def fault_plan(self):
        """The validated :class:`FaultPlan` behind the ``chaos`` mapping."""
        from repro.errors import SimulationError
        from repro.runtime.executors.chaos import FaultPlan

        try:
            return FaultPlan.from_dict(self.chaos)
        except SimulationError as exc:
            raise SpecError(f"executor chaos plan is invalid: {exc}") from exc

    def create(self):
        """Build the live :class:`~repro.runtime.executors.base.Executor`."""
        return EXECUTORS.resolve(self.name)(self)

    @classmethod
    def coerce(cls, value: Any, where: str = "ExecutorSpec") -> "ExecutorSpec":
        """Accept a bare backend name, a mapping, or an existing spec."""
        if isinstance(value, ExecutorSpec):
            return value
        if isinstance(value, str):
            spec = cls(name=value)
            EXECUTORS.resolve(spec.name)
            return spec
        if isinstance(value, Mapping):
            return cls.from_dict(value)
        raise SpecError(f"{where} must be a name or mapping, got {value!r}")

    _KEYS = (
        "name",
        "workers",
        "bind",
        "heartbeat_s",
        "heartbeat_grace_s",
        "connect_timeout_s",
        "task_timeout_s",
        "max_retries",
        "unsafe_pickle",
        "chaos",
    )

    def to_dict(self) -> Dict[str, Any]:
        defaults = ExecutorSpec(name=self.name)
        out: Dict[str, Any] = {"name": self.name}
        for key in self._KEYS[1:]:
            value = getattr(self, key)
            if value is not None and value != getattr(defaults, key):
                out[key] = dict(value) if isinstance(value, Mapping) else value
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExecutorSpec":
        _check_keys(data, cls._KEYS, "ExecutorSpec")
        defaults = cls()
        spec = cls(
            name=_require(data, "name", "ExecutorSpec"),
            workers=_opt_int(data.get("workers"), "ExecutorSpec.workers"),
            bind=data.get("bind"),
            heartbeat_s=_as_float(
                data.get("heartbeat_s", defaults.heartbeat_s),
                "ExecutorSpec.heartbeat_s",
            ),
            heartbeat_grace_s=(
                None
                if data.get("heartbeat_grace_s") is None
                else _as_float(
                    data["heartbeat_grace_s"], "ExecutorSpec.heartbeat_grace_s"
                )
            ),
            connect_timeout_s=_as_float(
                data.get("connect_timeout_s", defaults.connect_timeout_s),
                "ExecutorSpec.connect_timeout_s",
            ),
            task_timeout_s=(
                None
                if data.get("task_timeout_s") is None
                else _as_float(
                    data["task_timeout_s"], "ExecutorSpec.task_timeout_s"
                )
            ),
            max_retries=_as_int(
                data.get("max_retries", defaults.max_retries),
                "ExecutorSpec.max_retries",
            ),
            unsafe_pickle=_as_bool(
                data.get("unsafe_pickle", False), "ExecutorSpec.unsafe_pickle"
            ),
            chaos=data.get("chaos"),
        )
        EXECUTORS.resolve(spec.name)  # validate eagerly
        return spec


# ---------------------------------------------------------------------------
# ServiceSpec
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ServiceSpec:
    """A declarative online-partitioning service session.

    Mirrors the knobs of ``repro.cli serve`` so a whole supervised service
    run — daemon policy, agent fleet, trace length, scripted chaos — lives
    in one TOML/JSON file (see ``examples/service_session.toml``).
    :meth:`create` builds the live
    :class:`~repro.service.daemon.PartitionDaemon`; :meth:`run` drives it to
    completion and returns its summary.
    """

    bind: str = "127.0.0.1:0"
    policy: str = "lfoc"
    ways: Optional[int] = None
    #: Local host agents the daemon spawns and babysits (0 = external agents).
    supervise: int = 0
    workload: Optional[str] = None
    batches: int = 50
    seed: int = 0
    #: Fault plan for the first supervised agent incarnation only (daemon-side
    #: faults such as ``daemon_kill_decisions`` ride in the same dict).
    agent_chaos: Optional[Mapping[str, Any]] = None
    #: Where to save the mask-decision log (JSONL); None keeps it in memory.
    replay_log: Optional[str] = None
    #: CRC-guarded daemon state snapshot: restored at startup when the file
    #: exists, refreshed periodically and on clean exit.
    snapshot: Optional[str] = None
    snapshot_every_s: float = 5.0
    #: ``"bank"`` (fused MonitorBank, the live default) or ``"reference"``
    #: (per-AppMonitor parity oracle; cannot snapshot).
    monitor_backend: str = "bank"

    def __post_init__(self) -> None:
        if self.policy not in ("lfoc", "dunn"):
            raise SpecError(
                f"service policy must be 'lfoc' or 'dunn', got {self.policy!r}"
            )
        if self.ways is not None and self.ways < 1:
            raise SpecError("service ways must be >= 1")
        if self.supervise < 0:
            raise SpecError("service supervise must be >= 0")
        if self.batches < 1:
            raise SpecError("service batches must be >= 1")
        if self.supervise and not self.workload:
            raise SpecError("a supervised service spec needs a workload")
        if self.monitor_backend not in ("bank", "reference"):
            raise SpecError(
                "service monitor_backend must be 'bank' or 'reference', "
                f"got {self.monitor_backend!r}"
            )
        if self.snapshot and self.monitor_backend != "bank":
            raise SpecError(
                "service snapshots need the 'bank' monitor backend"
            )
        if self.agent_chaos is not None:
            object.__setattr__(self, "agent_chaos", dict(self.fault_plan().to_dict()))

    def fault_plan(self):
        """The validated :class:`FaultPlan` behind ``agent_chaos``."""
        from repro.errors import SimulationError
        from repro.runtime.executors.chaos import FaultPlan

        try:
            return FaultPlan.from_dict(self.agent_chaos)
        except SimulationError as exc:
            raise SpecError(f"service agent_chaos plan is invalid: {exc}") from exc

    def create(self, *, quiet: bool = True):
        """Build the live :class:`~repro.service.daemon.PartitionDaemon`."""
        from repro.runtime.executors.tcp import parse_address
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
            monitor_backend=self.monitor_backend,
            snapshot=self.snapshot,
            snapshot_every_s=self.snapshot_every_s,
        )

    def run(self, *, max_seconds: Optional[float] = None, quiet: bool = True):
        """Serve one supervised session end to end; returns the summary."""
        daemon = self.create(quiet=quiet)
        try:
            summary = daemon.run(
                until_byes=self.supervise or None, max_seconds=max_seconds
            )
        finally:
            if self.replay_log and not daemon.killed:
                daemon.replay.save(self.replay_log)
            daemon.close()
        return summary

    _KEYS = (
        "bind",
        "policy",
        "ways",
        "supervise",
        "workload",
        "batches",
        "seed",
        "agent_chaos",
        "replay_log",
        "snapshot",
        "snapshot_every_s",
        "monitor_backend",
    )

    def to_dict(self) -> Dict[str, Any]:
        defaults = ServiceSpec()
        out: Dict[str, Any] = {}
        for key in self._KEYS:
            value = getattr(self, key)
            if value is not None and value != getattr(defaults, key):
                out[key] = dict(value) if isinstance(value, Mapping) else value
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ServiceSpec":
        _check_keys(data, cls._KEYS, "ServiceSpec")
        defaults = cls()
        return cls(
            bind=data.get("bind", defaults.bind),
            policy=data.get("policy", defaults.policy),
            ways=_opt_int(data.get("ways"), "ServiceSpec.ways"),
            supervise=_as_int(
                data.get("supervise", defaults.supervise), "ServiceSpec.supervise"
            ),
            workload=_opt_str(data.get("workload"), "ServiceSpec.workload"),
            batches=_as_int(
                data.get("batches", defaults.batches), "ServiceSpec.batches"
            ),
            seed=_as_int(data.get("seed", defaults.seed), "ServiceSpec.seed"),
            agent_chaos=data.get("agent_chaos"),
            replay_log=_opt_str(data.get("replay_log"), "ServiceSpec.replay_log"),
            snapshot=_opt_str(data.get("snapshot"), "ServiceSpec.snapshot"),
            snapshot_every_s=float(
                data.get("snapshot_every_s", defaults.snapshot_every_s)
            ),
            monitor_backend=str(
                data.get("monitor_backend", defaults.monitor_backend)
            ),
        )

    @classmethod
    def load(cls, path: str) -> "ServiceSpec":
        """Read a spec from a ``.toml`` or ``.json`` file.

        TOML files may put the keys at the top level or under a
        ``[service]`` table (so a service spec can ride along in a larger
        config file).
        """
        import json as _json
        from pathlib import Path as _Path

        text = _Path(path).read_text(encoding="utf-8")
        if str(path).endswith(".json"):
            data = _json.loads(text)
        else:
            try:
                import tomllib  # noqa: PLC0415 - py311 stdlib
            except ModuleNotFoundError as exc:  # pragma: no cover - py310
                raise SpecError(
                    "reading TOML service specs needs Python >= 3.11 (tomllib)"
                ) from exc
            data = tomllib.loads(text)
        if isinstance(data, Mapping) and isinstance(data.get("service"), Mapping):
            data = data["service"]
        return cls.from_dict(data)


# ---------------------------------------------------------------------------
# FaultToleranceSpec
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FaultToleranceSpec:
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

    max_attempts: int = 3
    backoff_s: float = 0.5
    backoff_max_s: float = 5.0
    quarantine: bool = True

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise SpecError("fault_tolerance max_attempts must be >= 1")
        if self.backoff_s < 0:
            raise SpecError("fault_tolerance backoff_s must be >= 0")
        if self.backoff_max_s < self.backoff_s:
            raise SpecError(
                "fault_tolerance backoff_max_s must be >= backoff_s"
            )
        if not isinstance(self.quarantine, bool):
            raise SpecError("fault_tolerance quarantine must be a boolean")

    def backoff_for(self, attempt: int) -> float:
        """Backoff before retry number ``attempt`` (1-based), capped."""
        return min(self.backoff_s * (2.0 ** max(attempt - 1, 0)), self.backoff_max_s)

    @classmethod
    def coerce(cls, value: Any, where: str = "FaultToleranceSpec"):
        if value is None or isinstance(value, FaultToleranceSpec):
            return value
        if isinstance(value, bool):
            return cls() if value else None
        if isinstance(value, Mapping):
            return cls.from_dict(value)
        raise SpecError(f"{where} must be a mapping or boolean, got {value!r}")

    _KEYS = ("max_attempts", "backoff_s", "backoff_max_s", "quarantine")

    def to_dict(self) -> Dict[str, Any]:
        defaults = FaultToleranceSpec()
        out: Dict[str, Any] = {}
        for key in self._KEYS:
            value = getattr(self, key)
            if value != getattr(defaults, key):
                out[key] = value
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultToleranceSpec":
        _check_keys(data, cls._KEYS, "FaultToleranceSpec")
        defaults = cls()
        return cls(
            max_attempts=_as_int(
                data.get("max_attempts", defaults.max_attempts),
                "FaultToleranceSpec.max_attempts",
            ),
            backoff_s=_as_float(
                data.get("backoff_s", defaults.backoff_s),
                "FaultToleranceSpec.backoff_s",
            ),
            backoff_max_s=_as_float(
                data.get("backoff_max_s", defaults.backoff_max_s),
                "FaultToleranceSpec.backoff_max_s",
            ),
            quarantine=_as_bool(
                data.get("quarantine", defaults.quarantine),
                "FaultToleranceSpec.quarantine",
            ),
        )


# ---------------------------------------------------------------------------
# ScenarioSpec / StudySpec
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScenarioSpec:
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
    kind: str
    workloads: Tuple[WorkloadSpec, ...]
    policies: Tuple[PolicySpec, ...] = ()
    engine: EngineSpec = field(default_factory=EngineSpec)
    solver: SolverSpec = field(default_factory=SolverSpec)
    platform: Any = "skylake_gold_6138"
    seeds: Tuple[int, ...] = (0,)

    def __post_init__(self) -> None:
        if not self.name:
            raise SpecError("scenarios need a non-empty 'name'")
        if self.kind not in _SCENARIO_KINDS:
            raise SpecError(
                f"scenario kind must be one of {_SCENARIO_KINDS}, got {self.kind!r}"
            )
        object.__setattr__(self, "workloads", tuple(self.workloads))
        object.__setattr__(self, "policies", tuple(self.policies))
        object.__setattr__(self, "seeds", tuple(self.seeds))
        if not self.workloads:
            raise SpecError(f"scenario {self.name!r} declares no workloads")
        if not self.seeds:
            raise SpecError(f"scenario {self.name!r} declares no seeds")

    def scenario_id(self, seed: int) -> str:
        """Deterministic identifier of one seed replica of this scenario."""
        if len(self.seeds) == 1:
            return self.name
        return f"{self.name}#s{seed}"

    _KEYS = (
        "name",
        "kind",
        "workloads",
        "policies",
        "engine",
        "solver",
        "platform",
        "seeds",
    )

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "name": self.name,
            "kind": self.kind,
            "workloads": [w.to_dict() for w in self.workloads],
            "policies": [p.to_dict() for p in self.policies],
            "engine": self.engine.to_dict(),
            "solver": self.solver.to_dict(),
            "seeds": list(self.seeds),
        }
        if isinstance(self.platform, PlatformSpec):
            raise SpecError(
                f"scenario {self.name!r} carries an inline PlatformSpec and cannot "
                "be serialized; use a registered preset name or a field-override "
                "mapping instead"
            )
        out["platform"] = (
            dict(self.platform) if isinstance(self.platform, Mapping) else self.platform
        )
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioSpec":
        _check_keys(data, cls._KEYS, "ScenarioSpec")
        name = _require(data, "name", "ScenarioSpec")
        workloads = _require(data, "workloads", f"scenario {name!r}")
        if isinstance(workloads, Mapping):
            workloads = [workloads]
        # An explicitly empty list must hit the "declares no seeds" error,
        # not be silently replaced by the default.
        seeds = _opt_tuple(data.get("seeds", [0]), f"scenario {name!r} seeds")
        seeds = tuple(
            _as_int(seed, f"scenario {name!r} seeds entries")
            for seed in (seeds if seeds is not None else (0,))
        )
        spec = cls(
            name=name,
            kind=_require(data, "kind", f"scenario {name!r}"),
            workloads=tuple(WorkloadSpec.from_dict(w) for w in workloads),
            policies=tuple(
                PolicySpec.coerce(p, where=f"scenario {name!r} policy")
                for p in data.get("policies", [])
            ),
            engine=EngineSpec.from_dict(data.get("engine", {})),
            solver=SolverSpec.from_dict(data.get("solver", {})),
            platform=data.get("platform", "skylake_gold_6138"),
            seeds=seeds,
        )
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
                raise SpecError(f"scenario {name!r} workloads are invalid: {exc}")
        return spec


@dataclass(frozen=True)
class StudySpec:
    """The single public unit of execution: a named set of scenarios."""

    name: str
    scenarios: Tuple[ScenarioSpec, ...]
    description: str = ""
    #: Default worker-process count for the run batches (``None`` = all CPUs).
    #: Only consulted when no ``executor`` is given (1 -> serial, else pool).
    jobs: Optional[int] = 1
    #: Execution strategy for every scenario (:class:`ExecutorSpec`, a
    #: registered backend name, or a mapping); ``None`` derives one from
    #: ``jobs``.  Results are independent of the choice.
    executor: Optional[ExecutorSpec] = None
    #: Graceful-degradation policy (:class:`FaultToleranceSpec`, a mapping,
    #: or ``True`` for the defaults); ``None`` keeps the historical
    #: fail-fast behaviour.
    fault_tolerance: Optional[FaultToleranceSpec] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise SpecError("studies need a non-empty 'name'")
        if self.executor is not None and not isinstance(self.executor, ExecutorSpec):
            object.__setattr__(
                self,
                "executor",
                ExecutorSpec.coerce(self.executor, where="StudySpec.executor"),
            )
        if self.fault_tolerance is not None and not isinstance(
            self.fault_tolerance, FaultToleranceSpec
        ):
            object.__setattr__(
                self,
                "fault_tolerance",
                FaultToleranceSpec.coerce(
                    self.fault_tolerance, where="StudySpec.fault_tolerance"
                ),
            )
        object.__setattr__(self, "scenarios", tuple(self.scenarios))
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

    _KEYS = (
        "schema",
        "name",
        "description",
        "jobs",
        "executor",
        "fault_tolerance",
        "scenarios",
    )

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "schema": SCHEMA_VERSION,
            "name": self.name,
            "scenarios": [s.to_dict() for s in self.scenarios],
        }
        if self.description:
            out["description"] = self.description
        if self.jobs != 1:
            # TOML has no null: encode "all CPUs" as 0, like the CLI does.
            out["jobs"] = 0 if self.jobs is None else self.jobs
        if self.executor is not None:
            out["executor"] = self.executor.to_dict()
        if self.fault_tolerance is not None:
            out["fault_tolerance"] = self.fault_tolerance.to_dict()
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "StudySpec":
        _check_keys(data, cls._KEYS, "StudySpec")
        schema = data.get("schema", SCHEMA_VERSION)
        if schema != SCHEMA_VERSION:
            raise SpecError(
                f"unsupported study schema version {schema!r} "
                f"(this build reads version {SCHEMA_VERSION})"
            )
        scenarios = _require(data, "scenarios", "StudySpec")
        if isinstance(scenarios, Mapping):
            scenarios = [scenarios]
        jobs = data.get("jobs", 1)
        if jobs is not None:
            jobs = _opt_int(jobs, "StudySpec.jobs")
            if jobs == 0:
                jobs = None
        executor = data.get("executor")
        if executor is not None:
            executor = ExecutorSpec.coerce(executor, where="StudySpec.executor")
        return cls(
            name=_require(data, "name", "StudySpec"),
            scenarios=tuple(ScenarioSpec.from_dict(s) for s in scenarios),
            description=data.get("description", ""),
            jobs=jobs,
            executor=executor,
            fault_tolerance=FaultToleranceSpec.coerce(
                data.get("fault_tolerance"), where="StudySpec.fault_tolerance"
            ),
        )


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
    """``(factory, kwargs, wants_profiles)`` for a dynamic-scenario spec.

    The factory and kwargs are shipped in a
    :class:`~repro.runtime.executors.base.RunSpec`; when ``wants_profiles`` is true the
    lowering adds the workload's stationary profiles under ``profiles``.
    """
    if spec.instance is not None:
        return spec.instance, dict(spec.params), False
    factory = DRIVERS.resolve(spec.name)
    kwargs = dict(spec.params)
    if getattr(factory, "wants_solver", False):
        kwargs.setdefault("solver", solver or SolverSpec())
    return factory, kwargs, bool(getattr(factory, "wants_profiles", False))


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
        return replace(base, **overrides)
    raise SpecError(
        f"platform must be a preset name, an override mapping or a PlatformSpec, "
        f"got {type(value).__name__}"
    )
