"""Builders for every table and figure of the paper's evaluation.

Each function regenerates the *data* behind one figure or table (the paper
plots them; we return plain dictionaries / lists so the benchmark harness can
print the same rows and the test suite can assert the headline shapes).  The
per-experiment index in DESIGN.md maps each figure to the function here and to
the benchmark module that drives it.

All functions take explicit scale knobs (number of workloads, workload sizes,
instruction budgets) so the benchmark harness can run a quick default and a
``full``-scale variant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.apps.catalog import build_catalog, build_phased_profile, build_profile
from repro.core.classification import ClassificationThresholds, classify_profile
from repro.errors import ReproError
from repro.experiments import (
    EngineSpec,
    PolicySpec,
    ScenarioSpec,
    StudySpec,
    WorkloadSpec,
    run_study,
)
from repro.hardware.platform import PlatformSpec, skylake_gold_6138
from repro.optimal import (
    TabulatedObjective,
    branch_and_bound_clustering,
    local_search_clustering,
    optimal_partitioning,
)
from repro.policies import (
    BestStaticPolicy,
    ClusteringPolicy,
    DunnPolicy,
    KPartPolicy,
    LfocPolicy,
)
from repro.runtime import (
    DunnUserLevelDaemon,
    EngineConfig,
    LfocSchedulerPlugin,
)
from repro.workloads import Workload, random_workload

__all__ = [
    "fig1_curves",
    "table1_classification",
    "fig2_optimal_breakdown",
    "fig3_clustering_vs_partitioning",
    "fig4_fotonik3d_trace",
    "fig5_workload_matrix",
    "fig6_static_study",
    "fig7_dynamic_study",
    "table2_algorithm_cost",
    "StaticStudyRow",
    "DynamicStudyRow",
]


# ---------------------------------------------------------------------------
# Fig. 1 — slowdown & LLCMPKC vs way count for lbm / xalancbmk
# ---------------------------------------------------------------------------


def fig1_curves(
    benchmarks: Sequence[str] = ("lbm06", "xalancbmk06"),
    platform: Optional[PlatformSpec] = None,
) -> Dict[str, Dict[str, List[float]]]:
    """Per-way slowdown and LLCMPKC curves for the Fig. 1 benchmarks.

    Returns ``{benchmark: {"ways": [...], "slowdown": [...], "llcmpkc": [...]}}``.
    """
    platform = platform or skylake_gold_6138()
    result: Dict[str, Dict[str, List[float]]] = {}
    for name in benchmarks:
        profile = build_profile(name, platform.llc_ways)
        result[name] = {
            "ways": list(range(1, platform.llc_ways + 1)),
            "slowdown": [float(v) for v in profile.slowdown_table()],
            "llcmpkc": [float(v) for v in profile.llcmpkc_table()],
        }
    return result


# ---------------------------------------------------------------------------
# Table 1 — classification of the catalogue
# ---------------------------------------------------------------------------


def table1_classification(
    platform: Optional[PlatformSpec] = None,
    thresholds: Optional[ClassificationThresholds] = None,
) -> Dict[str, str]:
    """Class assigned by the Table 1 criteria to every catalogued benchmark."""
    platform = platform or skylake_gold_6138()
    thresholds = thresholds or ClassificationThresholds()
    catalog = build_catalog(platform.llc_ways)
    return {
        name: classify_profile(profile, thresholds).value
        for name, profile in sorted(catalog.items())
    }


# ---------------------------------------------------------------------------
# Fig. 2 — breakdown of the fairness-optimal clustering
# ---------------------------------------------------------------------------


def fig2_optimal_breakdown(
    n_workloads: int = 8,
    workload_size: int = 8,
    platform: Optional[PlatformSpec] = None,
    seed: int = 7,
    exact_limit: int = 8,
) -> Dict[str, Dict[int, float]]:
    """Cluster-size statistics of the fairness-optimal clustering (Fig. 2).

    For ``n_workloads`` random mixes of ``workload_size`` applications,
    computes the fairness-optimal clustering and aggregates, per cluster size
    (in ways): the number of clusters of that size and the average number of
    streaming / sensitive / light applications they hold.

    The paper uses 20 mixes of 10 applications; the default here is scaled
    down (8 mixes of 8 applications) so the benchmark completes quickly —
    pass larger values to reproduce the full configuration.
    """
    platform = platform or skylake_gold_6138()
    rng = np.random.default_rng(seed)
    cluster_count: Dict[int, float] = {}
    class_count: Dict[str, Dict[int, float]] = {
        "streaming": {},
        "sensitive": {},
        "light": {},
    }
    for index in range(n_workloads):
        workload = random_workload(f"fig2-{index}", workload_size, kind="S", rng=rng)
        profiles = workload.profiles(platform.llc_ways)
        if len(profiles) <= exact_limit:
            result = branch_and_bound_clustering(
                platform, profiles, objective="fairness"
            )
        else:
            result = local_search_clustering(
                platform, profiles, objective="fairness", seed=seed + index
            )
        classes = {
            name: classify_profile(profile).value for name, profile in profiles.items()
        }
        for cluster in result.solution.clusters:
            size = cluster.ways
            cluster_count[size] = cluster_count.get(size, 0.0) + 1.0
            for app in cluster.apps:
                table = class_count[classes[app]]
                table[size] = table.get(size, 0.0) + 1.0
    # Average application counts per cluster of each size.
    breakdown: Dict[str, Dict[int, float]] = {"cluster_count": cluster_count}
    for klass, table in class_count.items():
        breakdown[klass] = {
            size: table.get(size, 0.0) / cluster_count[size] for size in cluster_count
        }
    return breakdown


# ---------------------------------------------------------------------------
# Fig. 3 — optimal clustering vs optimal partitioning
# ---------------------------------------------------------------------------


def fig3_clustering_vs_partitioning(
    app_counts: Sequence[int] = (4, 5, 6, 7, 8),
    workloads_per_count: int = 3,
    platform: Optional[PlatformSpec] = None,
    seed: int = 11,
    exact_limit: int = 8,
) -> Dict[int, float]:
    """Average unfairness of optimal partitioning normalised to optimal clustering.

    The paper sweeps 4–11 applications on the 11-way platform; the exact
    search is only tractable up to ~8 applications in pure Python, so the
    default sweep stops there and larger counts use the local-search
    approximation of the optimal clustering (strict partitioning remains an
    exact search over compositions, which stays cheap).
    """
    platform = platform or skylake_gold_6138()
    rng = np.random.default_rng(seed)
    result: Dict[int, float] = {}
    for count in app_counts:
        if count > platform.llc_ways:
            raise ReproError(
                f"strict partitioning needs at most {platform.llc_ways} applications"
            )
        ratios = []
        for index in range(workloads_per_count):
            workload = random_workload(
                f"fig3-{count}-{index}", count, kind="S", rng=rng
            )
            profiles = workload.profiles(platform.llc_ways)
            if count <= exact_limit:
                # One table build serves both exact searches.
                tables = TabulatedObjective(platform, profiles)
                clustering = branch_and_bound_clustering(
                    platform, profiles, objective="fairness", tables=tables
                )
            else:
                # Partitioning then tabulates only its n singleton clusters.
                tables = None
                clustering = local_search_clustering(
                    platform,
                    profiles,
                    objective="fairness",
                    seed=seed + count * 100 + index,
                )
            partitioning = optimal_partitioning(
                platform, profiles, objective="fairness", tables=tables
            )
            ratios.append(partitioning.unfairness / clustering.unfairness)
        result[count] = float(np.mean(ratios))
    return result


# ---------------------------------------------------------------------------
# Fig. 4 — LLCMPKC over time for fotonik3d
# ---------------------------------------------------------------------------


def fig4_fotonik3d_trace(
    benchmark: str = "fotonik3d17",
    platform: Optional[PlatformSpec] = None,
    instructions: float = 1.5e9,
    sample_window: float = 25e6,
) -> Dict[str, List[float]]:
    """LLCMPKC of a phased benchmark over the start of its execution (Fig. 4).

    The benchmark runs alone with the whole LLC; the trace samples its miss
    rate every ``sample_window`` instructions, exposing the initial
    light-sharing phase followed by the long streaming phase.
    """
    platform = platform or skylake_gold_6138()
    phased = build_phased_profile(benchmark, platform.llc_ways)
    points_time: List[float] = []
    points_mpkc: List[float] = []
    retired = 0.0
    elapsed_cycles = 0.0
    while retired < instructions:
        profile = phased.profile_at(retired)
        chunk = min(sample_window, phased.instructions_until_phase_change(retired))
        chunk = max(min(chunk, instructions - retired), 1.0)
        cycles = chunk / profile.ipc_alone
        elapsed_cycles += cycles
        retired += chunk
        points_time.append(platform.cycles_to_seconds(elapsed_cycles))
        points_mpkc.append(profile.llcmpkc_at(float(platform.llc_ways)))
    return {"time_s": points_time, "llcmpkc": points_mpkc}


# ---------------------------------------------------------------------------
# Fig. 5 — workload composition matrix
# ---------------------------------------------------------------------------


def fig5_workload_matrix() -> Dict[str, Dict[str, int]]:
    """Instance counts per (workload, benchmark) for the S and P suites."""
    from repro.workloads import composition_matrix

    return composition_matrix()


# ---------------------------------------------------------------------------
# Fig. 6 — static clustering study
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StaticStudyRow:
    """One (workload, policy) cell of the Fig. 6 study."""

    workload: str
    size: int
    policy: str
    unfairness: float
    stp: float
    normalized_unfairness: float
    normalized_stp: float


def default_static_policies() -> List[ClusteringPolicy]:
    """The policy line-up of Fig. 6 (stock Linux is the implicit baseline)."""
    return [
        DunnPolicy(),
        KPartPolicy(),
        LfocPolicy(),
        BestStaticPolicy(exact_limit=7, local_search_iterations=800),
    ]


def _workload_specs(workloads: Sequence[Workload]) -> tuple:
    return tuple(WorkloadSpec.from_workload(w) for w in workloads)


def fig6_static_study(
    workloads: Optional[Sequence[Workload]] = None,
    policies: Optional[Sequence[ClusteringPolicy]] = None,
    platform: Optional[PlatformSpec] = None,
    *,
    jobs: Optional[int] = 1,
    executor=None,
) -> List[StaticStudyRow]:
    """Normalised unfairness and STP of the static clustering algorithms.

    Evaluates every policy's clustering with the contention estimator and
    normalises against the unpartitioned (stock Linux) configuration, exactly
    as Fig. 6 does.  Defaults to all 21 S workloads and to the registered
    line-up (Dunn, KPart, LFOC, Best-Static).  ``jobs`` shards the workloads
    across that many supervised local worker processes; ``executor``
    selects any registered execution backend instead
    (``serial``/``pool``/``tcp``/``supervised`` or a live
    :class:`~repro.runtime.executors.base.Executor`).  Results are
    independent of both.  Worker processes receive policies by registered
    name, so explicit ``policies`` objects run only in-process (``jobs=1``).

    This is a thin wrapper: it lowers the arguments to a declarative
    :class:`~repro.experiments.StudySpec` and delegates to
    :func:`~repro.experiments.run_study` (bit-identical rows, pinned by the
    test suite).  Prefer the spec API directly for anything beyond Fig. 6.
    """
    if workloads is not None and not list(workloads):
        return []  # the pre-refactor builder's behaviour for an empty sweep
    scenario = ScenarioSpec(
        name="fig6",
        kind="static",
        workloads=(
            (WorkloadSpec(suite="s"),)
            if workloads is None
            else _workload_specs(workloads)
        ),
        policies=(
            tuple(PolicySpec(name) for name in ("dunn", "kpart", "lfoc", "best_static"))
            if policies is None
            else tuple(PolicySpec.inline(p) for p in policies)
        ),
        platform=platform if platform is not None else "skylake_gold_6138",
    )
    result = run_study(
        StudySpec(name="fig6", scenarios=(scenario,)), jobs=jobs, executor=executor
    )
    fields = StaticStudyRow.__dataclass_fields__
    return [StaticStudyRow(**{f: row[f] for f in fields}) for row in result.rows()]


# ---------------------------------------------------------------------------
# Fig. 7 — dynamic study
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DynamicStudyRow:
    """One (workload, policy) cell of the Fig. 7 study."""

    workload: str
    size: int
    policy: str
    unfairness: float
    stp: float
    normalized_unfairness: float
    normalized_stp: float
    repartitions: int
    sampling_entries: int


def default_dynamic_drivers() -> Dict[str, "type"]:
    """Driver classes of the Fig. 7 study (stock Linux is the baseline)."""
    return {"Dunn": DunnUserLevelDaemon, "LFOC": LfocSchedulerPlugin}


def fig7_dynamic_study(
    workloads: Optional[Sequence[Workload]] = None,
    engine_config: Optional[EngineConfig] = None,
    platform: Optional[PlatformSpec] = None,
    drivers: Optional[Mapping[str, "type"]] = None,
    *,
    jobs: Optional[int] = 1,
    executor=None,
) -> List[DynamicStudyRow]:
    """Normalised unfairness and STP of the dynamic policies (Fig. 7).

    Runs every workload under stock Linux, Dunn and LFOC in the runtime engine
    and normalises against the stock run.  Defaults to the paper's Fig. 7
    workload selection and a scaled-down instruction budget.  The batch of
    (workload, driver) runs executes through a pluggable
    :class:`~repro.runtime.executors.base.Executor`: ``jobs`` selects the
    number of supervised local worker processes and ``executor`` selects any
    registered backend (``serial``/``pool``/``tcp``/``supervised`` or a live
    instance; results are independent of both).  Explicit ``drivers`` run
    only in-process (``jobs=1``), since worker processes receive drivers by
    registered name.  ``engine_config.backend = "multirun"`` batches the runs
    through grouped multi-run engines (bit-identical rows).

    This is a thin wrapper: it lowers the arguments to a declarative
    :class:`~repro.experiments.StudySpec` and delegates to
    :func:`~repro.experiments.run_study` (bit-identical rows, pinned by the
    test suite).  Prefer the spec API directly for anything beyond Fig. 7.
    """
    if workloads is not None and not list(workloads):
        return []  # the pre-refactor builder's behaviour for an empty sweep
    engine_config = engine_config or EngineConfig(
        instructions_per_run=1.0e9, min_completions=2, record_traces=False
    )
    scenario = ScenarioSpec(
        name="fig7",
        kind="dynamic",
        workloads=(
            (WorkloadSpec(suite="dynamic_study"),)
            if workloads is None
            else _workload_specs(workloads)
        ),
        policies=(
            (PolicySpec("dunn", label="Dunn"), PolicySpec("lfoc", label="LFOC"))
            if drivers is None
            else tuple(
                PolicySpec.inline(cls, label=name) for name, cls in drivers.items()
            )
        ),
        engine=EngineSpec.from_config(engine_config),
        platform=platform if platform is not None else "skylake_gold_6138",
    )
    result = run_study(
        StudySpec(name="fig7", scenarios=(scenario,)), jobs=jobs, executor=executor
    )
    fields = DynamicStudyRow.__dataclass_fields__
    return [DynamicStudyRow(**{f: row[f] for f in fields}) for row in result.rows()]


# ---------------------------------------------------------------------------
# Table 2 — execution time of the clustering algorithms
# ---------------------------------------------------------------------------


def table2_algorithm_cost(
    app_counts: Sequence[int] = (4, 5, 6, 7, 8, 9, 10, 11),
    repetitions: int = 5,
    platform: Optional[PlatformSpec] = None,
    seed: int = 3,
) -> Dict[int, Dict[str, float]]:
    """Average execution time (seconds) of the LFOC and KPart algorithms.

    For each workload size, random mixes are drawn and both clustering
    algorithms are timed on the same inputs (classification / profile data is
    prepared outside the timed region, matching how the paper instruments only
    the partitioning algorithm itself).
    """
    import time as _time

    platform = platform or skylake_gold_6138()
    rng = np.random.default_rng(seed)
    lfoc = LfocPolicy()
    kpart = KPartPolicy()
    result: Dict[int, Dict[str, float]] = {}
    for count in app_counts:
        lfoc_times: List[float] = []
        kpart_times: List[float] = []
        for index in range(repetitions):
            workload = random_workload(
                f"table2-{count}-{index}", count, kind="S", rng=rng
            )
            profiles = workload.profiles(platform.llc_ways)
            start = _time.perf_counter()
            lfoc.decide(profiles, platform)
            lfoc_times.append(_time.perf_counter() - start)
            start = _time.perf_counter()
            kpart.decide(profiles, platform)
            kpart_times.append(_time.perf_counter() - start)
        result[count] = {
            "lfoc_s": float(np.mean(lfoc_times)),
            "kpart_s": float(np.mean(kpart_times)),
            "ratio": float(np.mean(kpart_times) / max(np.mean(lfoc_times), 1e-12)),
        }
    return result
