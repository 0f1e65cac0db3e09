"""Declarative study API: spec-driven experiments over component registries.

This package is the single public entry point for running anything the
reproduction can compute.  Experiments are *data* — typed, serializable specs
(:class:`StudySpec` down to :class:`WorkloadSpec` / :class:`PolicySpec` /
:class:`EngineSpec` / :class:`SolverSpec`) resolved through string-keyed
component registries — so new workloads, policies and backends compose
without touching the runner:

.. code-block:: python

   from repro.experiments import (
       EngineSpec, PolicySpec, ScenarioSpec, StudySpec, WorkloadSpec, run_study,
   )

   spec = StudySpec(
       name="quick-dynamic",
       scenarios=(
           ScenarioSpec(
               name="p1",
               kind="dynamic",
               workloads=(WorkloadSpec(suite="dynamic_study", names=("P1",)),),
               policies=(PolicySpec("dunn"), PolicySpec("lfoc")),
               engine=EngineSpec(instructions_per_run=6e8, min_completions=1),
           ),
       ),
   )
   result = run_study(spec, jobs=2)
   result.save("rows.jsonl")
   print(result.aggregate())

The same study expressed in TOML runs through the CLI with no Python at all
(``lfoc-repro run study.toml``); see ``examples/study_fig7.toml`` and the
"Spec-driven studies" section of ``EXPERIMENTS.md``.
"""

from repro.errors import SpecError
from repro.experiments.checkpoint import StudyCheckpoint
from repro.experiments.io import (
    dump_study_spec,
    load_study_spec,
    study_from_json,
    study_from_toml,
    study_to_json,
    study_to_toml,
    toml_dumps,
)
from repro.experiments.registry import (
    DRIVERS,
    ENGINE_BACKENDS,
    EXECUTORS,
    PLATFORMS,
    POLICIES,
    Registry,
    WORKLOAD_SUITES,
    register_backend,
    register_driver,
    register_executor,
    register_platform,
    register_policy,
    register_workload_suite,
)
from repro.experiments.specs import (
    SCHEMA_VERSION,
    EngineSpec,
    ExecutorSpec,
    ServiceSpec,
    PolicySpec,
    ScenarioSpec,
    SolverSpec,
    StudySpec,
    WorkloadSpec,
    resolve_driver,
    resolve_platform,
    resolve_policy,
)
from repro.experiments.study import (
    BASELINE_LABEL,
    DYNAMIC_ROW_FIELDS,
    STATIC_ROW_FIELDS,
    ScenarioResult,
    StudyResult,
    build_sweep_study,
    grid,
    run_study,
)

__all__ = [
    "SCHEMA_VERSION",
    "SpecError",
    "StudySpec",
    "ScenarioSpec",
    "WorkloadSpec",
    "PolicySpec",
    "EngineSpec",
    "SolverSpec",
    "ExecutorSpec",
    "ServiceSpec",
    "ScenarioResult",
    "StudyResult",
    "StudyCheckpoint",
    "run_study",
    "grid",
    "build_sweep_study",
    "BASELINE_LABEL",
    "STATIC_ROW_FIELDS",
    "DYNAMIC_ROW_FIELDS",
    "Registry",
    "POLICIES",
    "DRIVERS",
    "WORKLOAD_SUITES",
    "ENGINE_BACKENDS",
    "PLATFORMS",
    "EXECUTORS",
    "register_policy",
    "register_driver",
    "register_workload_suite",
    "register_backend",
    "register_platform",
    "register_executor",
    "resolve_policy",
    "resolve_driver",
    "resolve_platform",
    "load_study_spec",
    "dump_study_spec",
    "study_to_json",
    "study_from_json",
    "study_to_toml",
    "study_from_toml",
    "toml_dumps",
]
