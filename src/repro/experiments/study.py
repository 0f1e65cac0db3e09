"""Spec-driven study execution and the unified results store.

:func:`run_study` is the single public entry point for running anything: it
resolves a :class:`~repro.experiments.specs.StudySpec` through the component
registries and lowers every scenario onto one pluggable
:class:`~repro.runtime.executors.base.Executor` — static scenarios shard
their per-workload evaluation across it (the Fig. 6 protocol), dynamic ones
stream their :class:`~repro.runtime.executors.base.RunSpec` batch through it
(the Fig. 7 protocol).  The executor comes from the study's
:class:`~repro.experiments.specs.ExecutorSpec` (``serial``, ``pool``,
``tcp``, ``supervised``), an explicit ``executor=`` argument or the ``jobs``
knob (``pool``); rows are bit-identical whichever backend runs them.

Results are collected into a :class:`StudyResult`: plain metric rows keyed
by deterministic scenario IDs, JSONL persistence (:meth:`StudyResult.save` /
:meth:`StudyResult.load`), metric aggregation across seeds/scenarios
(:meth:`StudyResult.aggregate`) — and, via ``run_study(...,
checkpoint=path)``, crash-safe incremental appends through
:class:`~repro.experiments.checkpoint.StudyCheckpoint` with ``resume=True``
skipping already-completed scenario IDs.  With a
:class:`~repro.experiments.specs.FaultToleranceSpec` installed (on the spec
or via ``run_study(..., fault_tolerance=...)``) failing runs are retried
with backoff and finally *quarantined* as structured failure records on the
:class:`ScenarioResult`, so one poisoned run degrades the study instead of
aborting it.

Row computation replicates the pre-refactor figure builders operation for
operation, so ``fig6_static_study`` / ``fig7_dynamic_study`` delegating here
produce bit-identical rows (pinned by ``tests/test_experiments_study.py``).
"""

from __future__ import annotations

import itertools
import json
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.errors import SimulationError, SpecError
from repro.experiments.checkpoint import (
    StudyCheckpoint,
    dump_record,
    read_study,
    scenario_block,
)
from repro.experiments.registry import (
    BUILTIN_DRIVERS,
    BUILTIN_POLICIES,
    WORKLOAD_SUITES,
)
from repro.experiments.specs import (
    EngineSpec,
    ExecutorSpec,
    FaultToleranceSpec,
    PolicySpec,
    ScenarioSpec,
    SolverSpec,
    StudySpec,
    WorkloadSpec,
    driver_label,
    resolve_driver,
    resolve_platform,
    resolve_policy,
)
from repro.hardware.platform import PlatformSpec
from repro.metrics.aggregate import normalise
from repro.runtime.executors import (
    Executor,
    RunSpec,
    TaskError,
    check_unique_workloads,
    resolve_jobs,
)
from repro.runtime.multirun import RunGroup, group_run_specs
from repro.runtime.scheduler import StockLinuxDriver
from repro.simulator import ClusteringEstimator
from repro.workloads.generator import Workload

__all__ = [
    "ScenarioResult",
    "StudyResult",
    "run_study",
    "grid",
    "build_sweep_study",
]

#: Row label of the implicit unpartitioned baseline in every scenario.
BASELINE_LABEL = "Stock-Linux"

#: Fields of a static-scenario row, in serialization order.
STATIC_ROW_FIELDS = (
    "workload",
    "size",
    "policy",
    "unfairness",
    "stp",
    "normalized_unfairness",
    "normalized_stp",
)

#: Fields of a dynamic-scenario row, in serialization order.
DYNAMIC_ROW_FIELDS = STATIC_ROW_FIELDS + ("repartitions", "sampling_entries")

_UNSET = object()


# ---------------------------------------------------------------------------
# Result records
# ---------------------------------------------------------------------------


@dataclass
class ScenarioResult:
    """Rows produced by one seed replica of one scenario."""

    scenario: str
    scenario_id: str
    kind: str
    seed: int
    workloads: List[str]
    rows: List[Dict[str, Any]]
    #: Quarantined-run records from the fault-tolerance layer: plain dicts
    #: (``label``/``workload``/``kind``/``message``/``attempts``), stamped
    #: with ``scenario_id`` and ``seed`` like rows.  Empty when every run
    #: succeeded or the study ran without a fault-tolerance spec.
    failures: List[Dict[str, Any]] = field(default_factory=list)

    def meta(self) -> Dict[str, Any]:
        return {
            "scenario": self.scenario,
            "scenario_id": self.scenario_id,
            "kind": self.kind,
            "seed": self.seed,
            "workloads": list(self.workloads),
        }


@dataclass
class StudyResult:
    """The unified results store: every row of every scenario of one study.

    Rows are plain dictionaries (JSON-ready) carrying, besides the metric
    fields, the ``scenario_id`` and ``seed`` they came from.  ``spec`` holds
    the serialized study spec when the study was fully declarative, ``None``
    when it used inline (non-serializable) components.
    """

    name: str
    scenarios: List[ScenarioResult]
    spec: Optional[Dict[str, Any]] = None
    description: str = ""

    def rows(self) -> List[Dict[str, Any]]:
        """All rows, flattened in scenario order."""
        return [row for scenario in self.scenarios for row in scenario.rows]

    def failures(self) -> List[Dict[str, Any]]:
        """All quarantined-run records, flattened in scenario order.

        Non-empty means the study *degraded*: some runs exhausted their
        retry budget and their rows are missing — check these records
        before trusting aggregates.
        """
        return [f for scenario in self.scenarios for f in scenario.failures]

    def scenario_ids(self) -> List[str]:
        return [scenario.scenario_id for scenario in self.scenarios]

    def __getitem__(self, scenario_id: str) -> ScenarioResult:
        for scenario in self.scenarios:
            if scenario.scenario_id == scenario_id:
                return scenario
        raise KeyError(
            f"no scenario {scenario_id!r} in study {self.name!r} "
            f"(have: {', '.join(self.scenario_ids())})"
        )

    # -- aggregation ------------------------------------------------------------

    def aggregate(
        self,
        metrics: Sequence[str] = ("normalized_unfairness", "normalized_stp"),
        by: Sequence[str] = ("policy",),
    ) -> Dict[Any, Dict[str, float]]:
        """Mean of ``metrics`` over all rows, grouped by the ``by`` fields.

        Seeds replicate scenarios into separate rows, so the default grouping
        (``by=("policy",)``) averages every policy across workloads, seeds and
        scenarios at once; group by ``("policy", "seed")`` or
        ``("scenario_id", "policy")`` to keep replicas apart.  Group keys are
        scalars for a single ``by`` field, tuples otherwise; insertion order
        follows first appearance.  Rows missing a ``by`` field raise, rows
        missing a metric are skipped for that metric.

        Each present metric contributes three keys per group:
        ``mean_<metric>``, ``std_<metric>`` (population standard deviation,
        0.0 for a single sample) and ``n_<metric>`` (sample count, as a
        float so the mapping stays uniformly typed).  Metrics with no
        samples in a group are omitted entirely.
        """
        by = tuple(by)
        grouped: Dict[Any, Dict[str, List[float]]] = {}
        for row in self.rows():
            missing = [f for f in by if f not in row]
            if missing:
                raise SpecError(f"row {row.get('policy')!r} has no field {missing[0]!r}")
            key = row[by[0]] if len(by) == 1 else tuple(row[f] for f in by)
            bucket = grouped.setdefault(key, {m: [] for m in metrics})
            for metric in metrics:
                if metric in row:
                    bucket[metric].append(float(row[metric]))
        aggregated: Dict[Any, Dict[str, float]] = {}
        for key, buckets in grouped.items():
            stats: Dict[str, float] = {}
            for metric, values in buckets.items():
                if not values:
                    continue
                stats[f"mean_{metric}"] = float(np.mean(values))
                stats[f"std_{metric}"] = float(np.std(values))
                stats[f"n_{metric}"] = float(len(values))
            aggregated[key] = stats
        return aggregated

    # -- persistence ------------------------------------------------------------

    def save(self, path) -> None:
        """Write the study as a JSONL result file in one go.

        The grammar is the checkpoint's (:mod:`repro.experiments.checkpoint`)
        without its ``checkpoint`` header flag, so a saved result loads here
        and seeds ``run_study(..., checkpoint=path, resume=True)``, which
        then recomputes nothing.
        """
        header = dict(name=self.name, description=self.description, spec=self.spec)
        blocks = "".join(scenario_block(scenario) for scenario in self.scenarios)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(dump_record("study", header) + "\n" + blocks)

    @classmethod
    def load(cls, path) -> "StudyResult":
        """Rebuild a study from its result file under the strict policy.

        A torn final line, a record that fails its CRC or breaks the study
        grammar, and a scenario without its ``scenario_end`` marker in a
        file that uses markers are all :class:`~repro.errors.SpecError`s:
        resume an interrupted checkpoint with ``run_study(...,
        checkpoint=path, resume=True)`` instead.
        """
        found = read_study(path, lenient=False)
        if found.header is None:
            raise SpecError(f"{path}: no study header record found")
        unfinished = found.scenarios[len(found.completed):]
        if unfinished and (found.completed or found.header.get("checkpoint")):
            raise SpecError(
                f"{path}: scenario{'s' if len(unfinished) > 1 else ''} "
                f"{', '.join(repr(s.scenario_id) for s in unfinished)} never "
                f"completed (the study was interrupted); resume it with "
                f"run_study(..., checkpoint=..., resume=True) before loading"
            )
        return cls(
            name=found.header.get("name", ""),
            scenarios=found.scenarios,
            spec=found.header.get("spec"),
            description=found.header.get("description", ""),
        )


# ---------------------------------------------------------------------------
# Graceful degradation
# ---------------------------------------------------------------------------


def _failure_record(spec: Any, error: TaskError, attempts: int) -> Dict[str, Any]:
    """The structured quarantine record for one permanently-failed task."""
    record: Dict[str, Any] = {
        "label": error.label,
        "kind": error.kind,
        "message": error.message,
        "attempts": attempts,
    }
    if isinstance(spec, Workload):
        record["workload"] = spec.name
    elif isinstance(spec, RunSpec):
        record["workload"] = spec.workload.name
    elif isinstance(spec, RunGroup):
        record["workloads"] = sorted(
            {member.workload.name for member in spec.members}
        )
    return record


def _map_specs_resilient(
    executor: Executor, specs: Sequence[Any], tolerance: FaultToleranceSpec
) -> Tuple[List[Any], List[Dict[str, Any]]]:
    """Ordered results with ``None`` holes, plus structured failure records.

    The graceful-degradation twin of :meth:`Executor.map_specs`: every spec
    is submitted, a failed run is resubmitted with exponential backoff until
    it has consumed ``tolerance.max_attempts`` total attempts, and a run
    that exhausts the budget is *quarantined* — its slot in the result list
    stays ``None`` and a failure record takes its place in the second return
    value, instead of the whole batch aborting.  With ``quarantine=False``
    the exhausted run's error is raised (fail-fast, but with retries).

    Resubmissions get fresh tickets; the ticket→index remap is what keeps
    the returned list in spec order regardless of how many times each run
    bounced.
    """
    specs = list(specs)
    if not specs:
        return [], []
    if all(isinstance(spec, RunSpec) for spec in specs):
        check_unique_workloads(specs)
    index_of: Dict[int, int] = {}
    attempts = [0] * len(specs)
    results: List[Any] = [None] * len(specs)
    failures: List[Dict[str, Any]] = []
    for index, spec in enumerate(specs):
        index_of[executor.submit(spec)] = index
        attempts[index] = 1
    pending = len(specs)
    while pending:
        progressed = False
        for ticket, payload in executor.as_completed(raise_errors=False):
            index = index_of.pop(ticket, None)
            if index is None:
                continue  # a co-tenant's ticket on a shared executor
            progressed = True
            if not isinstance(payload, TaskError):
                results[index] = payload
                pending -= 1
            elif attempts[index] < tolerance.max_attempts:
                time.sleep(tolerance.backoff_for(attempts[index]))
                attempts[index] += 1
                index_of[executor.submit(specs[index])] = index
            else:
                if not tolerance.quarantine:
                    payload.raise_()
                failures.append(
                    _failure_record(specs[index], payload, attempts[index])
                )
                pending -= 1
            if pending == 0:
                break
        if pending and not progressed:
            raise SimulationError(
                f"executor lost track of {pending} submitted runs"
            )
    return results, failures


# ---------------------------------------------------------------------------
# Scenario lowering
# ---------------------------------------------------------------------------


@dataclass
class StaticContext:
    """A static-study worker's inputs: the platform, the ``(label,
    PolicySpec)`` pairs and the solver budget.  The policies are resolved
    once per context install and reused across its workloads."""

    platform: PlatformSpec
    policies: Tuple[Tuple[Optional[str], PolicySpec], ...]
    solver: Optional[SolverSpec] = None
    _resolved: Optional[list] = field(default=None, init=False, repr=False, compare=False)

    def resolved_policies(self) -> list:
        if self._resolved is None:
            self._resolved = [
                (label, resolve_policy(spec, self.solver)) for label, spec in self.policies
            ]
        return self._resolved


def _static_scenario_worker(
    context: StaticContext, workload: Workload
) -> List[Dict[str, Any]]:
    """One static-study column: every policy evaluated on one workload.

    Replicates the pre-refactor ``fig6`` worker operation for operation (same
    estimator, same evaluation order) so rows stay bit-identical.
    """
    platform = context.platform
    policies = context.resolved_policies()
    profiles = workload.profiles(platform.llc_ways)
    estimator = ClusteringEstimator(platform, profiles)
    baseline = estimator.evaluate_unpartitioned(list(profiles))
    rows = [
        {
            "workload": workload.name,
            "size": workload.size,
            "policy": BASELINE_LABEL,
            "unfairness": baseline.unfairness,
            "stp": baseline.stp,
            "normalized_unfairness": 1.0,
            "normalized_stp": 1.0,
        }
    ]
    for label, policy in policies:
        estimate = estimator.evaluate_allocation(policy.allocate(profiles, platform))
        rows.append(
            {
                "workload": workload.name,
                "size": workload.size,
                "policy": label if label is not None else policy.name,
                "unfairness": estimate.unfairness,
                "stp": estimate.stp,
                "normalized_unfairness": normalise(
                    estimate.unfairness, baseline.unfairness
                ),
                "normalized_stp": normalise(estimate.stp, baseline.stp),
            }
        )
    return rows


def _resolve_workloads(scenario: ScenarioSpec, seed: int) -> List[Workload]:
    workloads = [
        workload
        for spec in scenario.workloads
        for workload in spec.resolve(seed_offset=seed)
    ]
    seen: Dict[str, Workload] = {}
    for workload in workloads:
        if workload.name in seen:
            raise SpecError(
                f"scenario {scenario.name!r} resolves two workloads named "
                f"{workload.name!r}; workload names key the result rows and "
                "must be unique within a scenario"
            )
        seen[workload.name] = workload
    return workloads


def _run_static_scenario(
    scenario: ScenarioSpec,
    seed: int,
    executor: Executor,
    tolerance: Optional[FaultToleranceSpec] = None,
) -> Tuple[List[Dict[str, Any]], List[Dict[str, Any]]]:
    context = StaticContext(
        resolve_platform(scenario.platform),
        tuple((spec.label, spec) for spec in scenario.policies),
        scenario.solver,
    )
    workloads = _resolve_workloads(scenario, seed)
    context.resolved_policies()  # a bad policy spec fails here, not per task
    executor.set_context(_static_scenario_worker, context)
    if tolerance is None:
        per_workload = executor.map_specs(workloads)
        return [row for rows in per_workload for row in rows], []
    per_workload, failures = _map_specs_resilient(executor, workloads, tolerance)
    # A quarantined workload leaves a None hole: its whole column of rows is
    # missing (recorded in `failures`), the other workloads' rows survive.
    rows = [row for rows in per_workload if rows is not None for row in rows]
    return rows, failures


def _run_dynamic_scenario(
    scenario: ScenarioSpec,
    seed: int,
    executor: Executor,
    tolerance: Optional[FaultToleranceSpec] = None,
) -> Tuple[List[Dict[str, Any]], List[Dict[str, Any]]]:
    platform = resolve_platform(scenario.platform)
    workloads = _resolve_workloads(scenario, seed)
    config = scenario.engine.to_config()
    drivers: List[Tuple[str, Any, Dict[str, Any]]] = []
    for spec in scenario.policies:
        factory, kwargs = resolve_driver(spec, scenario.solver)
        drivers.append((driver_label(spec, factory), factory, kwargs))

    specs: List[RunSpec] = []
    for workload in workloads:
        specs.append(
            RunSpec(workload=workload, driver_cls=StockLinuxDriver, label=BASELINE_LABEL)
        )
        for label, factory, kwargs in drivers:
            specs.append(
                RunSpec(
                    workload=workload,
                    driver_cls=factory,
                    driver_kwargs=kwargs,
                    label=label,
                )
            )
    executor.prepare(platform, default_config=config)
    if config.backend == "multirun":
        # Lower the flat batch onto stack-compatible groups; each group is
        # one executor task yielding its members' results, scattered back
        # into flat submission order so rows, scenario IDs and JSONL order
        # are exactly the per-run path's.  A quarantined group drops all of
        # its members' slots (the failure record lists the workloads).
        check_unique_workloads(specs)
        groups, scatter = group_run_specs(specs, jobs=executor.parallelism())
        if tolerance is None:
            grouped = executor.map_specs(groups)
            failures: List[Dict[str, Any]] = []
        else:
            grouped, failures = _map_specs_resilient(executor, groups, tolerance)
        results: List[Any] = [None] * len(specs)
        for indices, payload in zip(scatter, grouped):
            if payload is None:
                continue
            for flat_index, result in zip(indices, payload):
                results[flat_index] = result
    elif tolerance is None:
        results = executor.map_specs(specs)
        failures = []
    else:
        results, failures = _map_specs_resilient(executor, specs, tolerance)

    rows: List[Dict[str, Any]] = []
    per_workload = 1 + len(drivers)
    for w_index, workload in enumerate(workloads):
        block = results[w_index * per_workload : (w_index + 1) * per_workload]
        baseline = block[0]
        if baseline is None:
            # The Stock-Linux baseline was quarantined: nothing to normalise
            # against, so the whole workload's rows are dropped (the failure
            # record names the baseline run that took them down).
            continue
        base_metrics = baseline.metrics()
        rows.append(
            {
                "workload": workload.name,
                "size": workload.size,
                "policy": BASELINE_LABEL,
                "unfairness": base_metrics.unfairness,
                "stp": base_metrics.stp,
                "normalized_unfairness": 1.0,
                "normalized_stp": 1.0,
                "repartitions": baseline.n_repartitions,
                "sampling_entries": 0,
            }
        )
        for offset, (label, _, _) in enumerate(drivers, start=1):
            result = block[offset]
            if result is None:
                continue  # quarantined driver run: its row alone is missing
            metrics = result.metrics()
            rows.append(
                {
                    "workload": workload.name,
                    "size": workload.size,
                    "policy": label,
                    "unfairness": metrics.unfairness,
                    "stp": metrics.stp,
                    "normalized_unfairness": normalise(
                        metrics.unfairness, base_metrics.unfairness
                    ),
                    "normalized_stp": normalise(metrics.stp, base_metrics.stp),
                    "repartitions": result.n_repartitions,
                    "sampling_entries": result.total_sampling_entries(),
                }
            )
    return rows, failures


def _run_scenario(
    scenario: ScenarioSpec,
    seed: int,
    executor: Executor,
    tolerance: Optional[FaultToleranceSpec] = None,
) -> ScenarioResult:
    scenario_id = scenario.scenario_id(seed)
    try:
        if scenario.kind == "static":
            rows, failures = _run_static_scenario(scenario, seed, executor, tolerance)
        else:
            rows, failures = _run_dynamic_scenario(scenario, seed, executor, tolerance)
    except SimulationError as exc:
        raise SimulationError(f"scenario {scenario_id!r}: {exc}") from exc
    workload_names: List[str] = []
    for row in rows:
        row["scenario_id"] = scenario_id
        row["seed"] = seed
        if row["workload"] not in workload_names:
            workload_names.append(row["workload"])
    for failure in failures:
        failure["scenario_id"] = scenario_id
        failure["seed"] = seed
    return ScenarioResult(
        scenario=scenario.name,
        scenario_id=scenario_id,
        kind=scenario.kind,
        seed=seed,
        workloads=workload_names,
        rows=rows,
        failures=failures,
    )


def _resolve_executor(
    spec: StudySpec, executor: Any, jobs: Optional[int], jobs_explicit: bool
) -> Tuple[Executor, bool]:
    """``(executor, owned)`` for a study.

    Precedence: an explicit ``executor`` argument, then an explicit ``jobs``
    argument (the historical override — ``lfoc-repro run --jobs 1`` must win
    over a spec's ``[executor]`` table), then the spec's executor, then the
    spec's ``jobs`` default (``1`` = in-process, otherwise that many
    supervised local workers).  ``owned`` is True when :func:`run_study`
    created the executor and must close it; a live :class:`Executor`
    instance passed by the caller stays the caller's to manage.
    """
    if isinstance(executor, Executor):
        _check_spawned_workers_can_build(spec, executor)
        return executor, False
    if executor is not None:
        chosen = ExecutorSpec.coerce(executor, where="run_study executor").create()
    elif spec.executor is not None and not jobs_explicit:
        chosen = spec.executor.create()
    else:
        chosen = ExecutorSpec(name="pool", workers=resolve_jobs(jobs)).create()
    try:
        _check_spawned_workers_can_build(spec, chosen)
    except SpecError:
        chosen.close()
        raise
    return _announce(chosen), True


def _check_spawned_workers_can_build(spec: StudySpec, executor: Executor) -> None:
    """Workers an executor spawns (``jobs=N``, ``pool``, ``supervised``)
    import ``repro`` afresh: refuse, before spawning any, a policy that such
    an import does not register."""
    if not getattr(executor, "supervise", 0):
        return
    for scenario in spec.scenarios:
        for policy in scenario.policies:
            known = BUILTIN_POLICIES if scenario.kind == "static" else BUILTIN_DRIVERS
            nested = policy.params.get("policy") if policy.name == "static" else None
            if known is BUILTIN_DRIVERS and nested is not None:
                # The `static` replay driver builds a named static policy.
                policy, known = PolicySpec.coerce(nested), BUILTIN_POLICIES
            if policy.instance is None and policy.name in known:
                continue
            problem = "is registered in this process only"
            if policy.instance is not None:
                problem = "wraps an inline component and cannot be serialized"
            raise SpecError(
                f"policy spec {policy.name!r} {problem}: the worker processes "
                f"import repro afresh and build only the policies it registers; "
                f"run this study with jobs=1"
            )


def _announce(executor: Executor) -> Executor:
    """Print an addressable executor's join address before any dispatch.

    Without this a ``tcp`` executor bound to port 0 (the default) would
    listen on an ephemeral port nobody can discover, and the study would
    sit through its whole connect timeout before the error reveals it.
    An executor that spawns its own workers has nobody to tell.
    """
    address = getattr(executor, "address", None)
    if address is not None and not getattr(executor, "supervise", 0):
        host, port = address
        print(
            f"executor listening on {host}:{port} — workers join with "
            f"`python -m repro.cli worker --connect {host}:{port}`",
            flush=True,
        )
    return executor


def run_study(
    spec,
    *,
    jobs: Any = _UNSET,
    executor: Any = None,
    checkpoint: Any = None,
    resume: bool = False,
    fault_tolerance: Any = _UNSET,
) -> StudyResult:
    """Execute a study spec and collect every scenario's rows.

    ``spec`` may be a :class:`~repro.experiments.specs.StudySpec` or a plain
    mapping (validated through ``StudySpec.from_dict``).

    ``executor`` selects the execution strategy: a live
    :class:`~repro.runtime.executors.base.Executor` (caller-owned, e.g. a
    started TCP coordinator), an :class:`~repro.experiments.specs.ExecutorSpec`,
    a registered backend name (``"serial"``/``"pool"``/``"tcp"``/
    ``"supervised"``) or a mapping.  An explicitly passed ``jobs`` overrides
    the spec's executor (the historical contract of ``--jobs``); otherwise
    the spec's own ``executor`` is used, falling back to the ``jobs`` knob
    (``1`` = serial, else that many supervised local workers; ``None`` = all
    CPUs but one).  Spawned local workers know only the policies a fresh
    ``import repro`` registers: any other is a :class:`~repro.errors.SpecError`
    before a worker starts.  Results are deterministic and independent of
    the strategy and of worker count or arrival order.

    ``checkpoint`` names a JSONL file that receives every completed scenario
    as a durable append (crash-safe: an interrupted study loses at most the
    scenario in flight).  With ``resume=True`` an existing checkpoint is
    read first and its completed scenario IDs are skipped — never recomputed,
    never duplicated; without it the file is started fresh.

    ``fault_tolerance`` installs the graceful-degradation layer: a
    :class:`~repro.experiments.specs.FaultToleranceSpec` (or ``True`` for
    the defaults, a mapping, or ``None``/``False`` to disable).  Each failed
    run is retried with exponential backoff up to ``max_attempts`` total
    attempts, then quarantined — the study completes with the run's rows
    missing and a structured failure record on its
    :class:`ScenarioResult` (see :meth:`StudyResult.failures`) instead of
    aborting.  When not passed, the spec's own ``fault_tolerance`` applies;
    a completed-but-degraded scenario counts as completed for ``resume``.
    """
    if isinstance(spec, Mapping):
        spec = StudySpec.from_dict(spec)
    if not isinstance(spec, StudySpec):
        raise SpecError(f"run_study expects a StudySpec or mapping, got {spec!r}")
    jobs_explicit = jobs is not _UNSET
    effective_jobs = jobs if jobs_explicit else spec.jobs
    if fault_tolerance is _UNSET:
        tolerance = spec.fault_tolerance
    else:
        tolerance = FaultToleranceSpec.coerce(
            fault_tolerance, where="run_study fault_tolerance"
        )
    try:
        spec_dict: Optional[Dict[str, Any]] = spec.to_dict()
    except SpecError:
        spec_dict = None  # inline components: runnable but not serializable

    completed: Dict[str, ScenarioResult] = {}
    writer: Optional[StudyCheckpoint] = None
    if checkpoint is not None:
        writer = StudyCheckpoint(checkpoint)
        if resume and writer.exists():
            header, completed = writer.load_completed()
            recorded = header.get("name")
            if recorded and recorded != spec.name:
                raise SpecError(
                    f"checkpoint {writer.path} belongs to study {recorded!r}, "
                    f"not {spec.name!r}; pass a fresh checkpoint path or "
                    f"resume the original study"
                )
            # A completed scenario is only reusable if it was computed under
            # the same scenario definitions.  Compare the result-affecting
            # part of the specs (scenarios — not jobs/executor, which are
            # free to change between a crash and its resume).
            recorded_spec = header.get("spec")
            if completed and (recorded_spec is None or spec_dict is None):
                # Scenario IDs are name-based; without both serialized specs
                # there is no way to prove a completed scenario was computed
                # under the *current* definitions, and silently reusing it
                # could mislabel stale rows.  Inline components are the only
                # way to get here — register them to make the study resumable.
                raise SpecError(
                    f"checkpoint {writer.path} cannot be safely resumed: the "
                    f"study uses inline (non-serializable) components, so "
                    f"completed scenarios cannot be verified against the "
                    f"current spec; register the components "
                    f"(repro.experiments.register_*) or start fresh"
                )
            # Compare canonical JSON: the recorded side already went through
            # json.dumps (tuples became lists), so comparing the objects
            # would spuriously mismatch identical specs.
            if completed and json.dumps(
                recorded_spec.get("scenarios"), sort_keys=True
            ) != json.dumps(spec_dict.get("scenarios"), sort_keys=True):
                raise SpecError(
                    f"checkpoint {writer.path} was written for a different "
                    f"version of study {spec.name!r} (its scenario definitions "
                    f"changed); start a fresh checkpoint instead of resuming"
                )
        # A resume that found no completed scenarios has nothing to keep:
        # start the file over so its header records the spec actually being
        # run (the scenarios may legitimately have changed since the crash).
        writer.start(
            name=spec.name,
            description=spec.description,
            spec=spec_dict,
            fresh=not (resume and completed),
        )

    runner, owned = _resolve_executor(spec, executor, effective_jobs, jobs_explicit)
    scenarios: List[ScenarioResult] = []
    try:
        for scenario in spec.scenarios:
            for seed in scenario.seeds:
                scenario_id = scenario.scenario_id(seed)
                done = completed.get(scenario_id)
                if done is not None:
                    scenarios.append(done)
                    continue
                if tolerance is None:
                    # Three-argument form kept for wrappers/monkeypatches of
                    # the historical signature.
                    result = _run_scenario(scenario, seed, runner)
                else:
                    result = _run_scenario(scenario, seed, runner, tolerance)
                if writer is not None:
                    writer.append(result)
                scenarios.append(result)
    finally:
        if owned:
            runner.close()
    return StudyResult(
        name=spec.name,
        scenarios=scenarios,
        spec=spec_dict,
        description=spec.description,
    )


# ---------------------------------------------------------------------------
# Parameter sweeps
# ---------------------------------------------------------------------------


def grid(**axes: Sequence[Any]) -> List[Dict[str, Any]]:
    """Cartesian product of named axes, rightmost axis fastest.

    ``grid(policy=["lfoc", "dunn"], seed=[0, 1])`` yields four dictionaries in
    a deterministic order — the building block for sweep studies.
    """
    if not axes:
        return [{}]
    keys = list(axes)
    pools = []
    for key in keys:
        values = list(axes[key])
        if not values:
            raise SpecError(f"sweep axis {key!r} is empty")
        pools.append(values)
    return [dict(zip(keys, combo)) for combo in itertools.product(*pools)]


def build_sweep_study(
    name: str,
    kind: str,
    policies: Sequence[str],
    workloads: Sequence[str],
    *,
    ways: Optional[Sequence[int]] = None,
    seeds: Optional[Sequence[int]] = None,
    engine: Optional[EngineSpec] = None,
    solver: Optional[SolverSpec] = None,
    jobs: Optional[int] = 1,
) -> StudySpec:
    """A sweep study over policy x workload x ways x seeds.

    Policies and workloads cross inside every scenario; each ``ways`` value
    becomes its own scenario (a platform override shrinking the LLC) and
    ``seeds`` replicate every scenario.  ``workloads`` entries are either
    registered suite names (the whole suite) or individual workload names
    from the evaluation suites (``S7``, ``P12``...).
    """
    workload_specs: List[WorkloadSpec] = []
    named: List[str] = []
    for entry in workloads:
        if entry in WORKLOAD_SUITES:
            workload_specs.append(WorkloadSpec(suite=entry))
        else:
            named.append(entry)
    if named:
        workload_specs.append(WorkloadSpec(suite="all", names=tuple(named)))
    policy_specs = tuple(PolicySpec.coerce(p, where="sweep policy") for p in policies)

    scenarios: List[ScenarioSpec] = []
    for point in grid(ways=list(ways) if ways else [None]):
        way_count = point["ways"]
        platform: Any = "skylake_gold_6138"
        scenario_name = kind
        if way_count is not None:
            platform = {"preset": "skylake_gold_6138", "llc_ways": int(way_count)}
            scenario_name = f"{kind}-w{way_count}"
        scenarios.append(
            ScenarioSpec(
                name=scenario_name,
                kind=kind,
                workloads=tuple(workload_specs),
                policies=policy_specs,
                engine=engine or EngineSpec(),
                solver=solver or SolverSpec(),
                platform=platform,
                seeds=tuple(seeds) if seeds else (0,),
            )
        )
    return StudySpec(name=name, scenarios=tuple(scenarios), jobs=jobs)
