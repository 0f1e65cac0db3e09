"""Differential oracles: the reference implementations production must match.

Production ships one decision path per layer.  The original, plainly
written implementations those paths replaced live here, as oracles the
production code must reproduce *exactly* — same study rows, same
``choose_k`` decisions, same allocation masks, same traces, bit for bit:

* :func:`run_reference` — the original per-application dict loop of the
  runtime engine, re-running the cold
  :class:`~repro.simulator.ClusteringEstimator` on every rate change;
* :class:`ReferenceLfocDriver` — the LFOC driver with one scalar
  :class:`~repro.runtime.AppMonitor` per application, re-running Algorithm 1
  at every partitioning interval;
* :class:`ReferenceDunnDaemon` / :class:`ReferenceDunnPolicy` — Dunn with no
  decision caches, scoring through the original silhouette loop
  (:func:`silhouette_1d_reference`) and ``np.quantile``-seeded k-means
  (:func:`kmeans_1d_reference`);
* :class:`ReferenceLfocPolicy` — static LFOC recomputing every decision;
* :func:`cat_apply_reference` — the CAT programming that resets the
  controller and rebinds every task, which the one-pass
  :meth:`~repro.hardware.cat.CatController.apply_allocation` must leave in
  the same state;
* :func:`interp_reference` and :func:`occupancy_solve_reference` — the
  ``np.interp`` curve reading and the dict-based occupancy fixed point that
  the production scalar kernels must reproduce exactly;
* :func:`decompose_reference` — the union-find mask decomposition the
  trajectory cache's disjoint-mask path must reproduce;
* :class:`RecordingTrajectoryCache` — the occupancy trajectory cache
  recording every iteration as tuples of effective ways and pressures,
  which the production cache's flat buffers must replay and export
  exactly;
* :func:`build_tables_reference` — the solver's dense cluster tables built
  with one occupancy fixed point per way count;
* :func:`local_search_reference` — the local search scoring every proposal,
  repeated states included;
* :func:`score_solution` and :func:`score_candidate_fast` — one solution
  scored through :class:`~repro.optimal.CachedObjective` and one candidate
  read from the dense tables, for the scorers' own tests;
* :func:`optimal_clustering_reference`, :func:`optimal_partitioning_reference`,
  :func:`branch_and_bound_reference` and :func:`shard_worker_reference` — the
  exact searches scoring one candidate at a time through
  :class:`~repro.optimal.CachedObjective`, which the batch scoring over the
  dense tables must reproduce (same optimum, same floats, same candidate
  counts);
* :func:`build_dendrogram_reference`, :func:`evaluate_level_reference` and
  :func:`kpart_decide_reference` — KPart recomputing every distance and
  combined miss curve;
* :class:`ReferenceServiceCore` / :class:`ReferenceHostSession` and
  :func:`reference_offline_replay` — the partitioning service with one
  scalar :class:`~repro.runtime.AppMonitor` per application, each sample
  observed as its frame is staged, which the fused ``MonitorBank`` ingest
  must reproduce (same replies, same decision log).

Around them sits the harness the differential tests (and deep local fuzz
runs) are made of:

* :func:`random_phased_workload` — seeded randomized workloads drawn from
  the benchmark catalogue, phased mixes included, so the fuzz loop exercises
  phase changes, sampling sweeps and repartitions rather than a fixed
  hand-picked mix;
* :func:`differential_run` — one run under an explicit
  ``(engine, driver)`` combination, reduced to an exactly-comparable
  structure covering everything a run records (completion times, traces,
  repartition reasons and masks, final allocation, per-app stats).
  ``"reference"`` selects the oracle on either axis; ``"incremental"`` and
  ``"multirun"`` select the production engine, ``"incremental"`` the
  production drivers;
* :func:`differential_group_run` — the same batch through grouped
  :class:`~repro.runtime.multirun.MultiRunEngine` execution (the
  ``multirun`` backend's cross-run stacking), flat-ordered for member-by-
  member comparison against single runs;
* :func:`reference_fig7_rows` — Fig. 7 study rows computed from
  :func:`run_reference` runs;
* :func:`assert_identical` — strict equality with a readable diff pointing
  at the first field that diverged;
* :func:`random_stall_vector` — adversarial 1-D stall-metric vectors
  (well-separated groups, near-ties, heavy duplicates, constant data) for
  decision-level fuzz of ``choose_k``.

The number of seeds is CI-bounded through the ``--oracle-seeds`` pytest
option (see ``conftest.py``); deep local runs crank it up::

    PYTHONPATH=src python -m pytest tests/test_driver_differential.py \
        --oracle-seeds 25 -q
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.figures import DynamicStudyRow
from repro.apps.phases import PhasedProfile
from repro.apps.profile import AppProfile
from repro.core.classification import AppClass
from repro.core.lfoc import lfoc_clustering
from repro.core.lookahead import lookahead
from repro.core.types import ClusteringSolution, WayAllocation
from repro.errors import ClusteringError, SimulationError, SolverError
from repro.hardware import skylake_gold_6138
from repro.hardware.cat import CatController
from repro.hardware.platform import PlatformSpec
from repro.hardware.pmc import CounterDelta, DerivedMetrics, derive_metrics
from repro.metrics.aggregate import normalise, short_mean
from repro.optimal.bnb import _bandwidth_factor_upper_bound
from repro.optimal.exhaustive import OptimalResult, _validate_workload
from repro.optimal.local_search import _seed_states
from repro.optimal.objective import CachedObjective, CandidateScore
from repro.optimal.partitions import set_partitions, way_compositions
from repro.optimal.tabulated import ipc_with_extrapolation, llcmpkc_interp
from repro.policies import DunnPolicy, LfocPolicy
from repro.policies.lfoc import _classify_and_tabulate
from repro.runtime import (
    AppMonitor,
    DunnUserLevelDaemon,
    EngineConfig,
    LfocSchedulerPlugin,
    MonitorConfig,
    PolicyDriver,
    RuntimeEngine,
    StockLinuxDriver,
    alone_completion_time,
)
from repro.runtime.results import AppRunStats, RepartitionEvent, RunResult, TracePoint
from repro.service.agent import LocalTransport, drive_host
from repro.service.protocol import ServiceProtocolError
from repro.service.replay import ReplayLog
from repro.service.session import HostSession, ServiceCore, _Pending
from repro.service.simhost import SimulatedHost, churn_schedule, host_seed
from repro.simulator import ClusteringEstimator
from repro.simulator.occupancy import (
    OccupancyResult,
    OccupancyTrajectoryCache,
    _ComponentTrajectory,
)
from repro.simulator.whirlpool import combined_miss_curve, whirlpool_distance
from repro.workloads import Workload, random_workload

__all__ = [
    "ORACLE_CONFIG",
    "DRIVER_NAMES",
    "BACKEND_COMBINATIONS",
    "run_reference",
    "ReferenceLfocDriver",
    "ReferenceDunnDaemon",
    "ReferenceDunnPolicy",
    "ReferenceLfocPolicy",
    "kmeans_1d_reference",
    "silhouette_1d_reference",
    "random_phased_workload",
    "make_driver",
    "run_fields",
    "differential_run",
    "differential_group_run",
    "reference_fig7_rows",
    "assert_identical",
    "random_stall_vector",
    "cat_apply_reference",
    "interp_reference",
    "occupancy_solve_reference",
    "decompose_reference",
    "build_tables_reference",
    "local_search_reference",
    "build_dendrogram_reference",
    "evaluate_level_reference",
    "kpart_decide_reference",
    "ReferenceHostSession",
    "ReferenceServiceCore",
    "reference_offline_replay",
]

#: Scaled-down engine configuration: short runs with a tight partitioning
#: interval so every mechanism (decisions, sweeps, phase changes, restarts)
#: fires many times within the budget.  Traces are recorded and compared.
ORACLE_CONFIG = EngineConfig(
    instructions_per_run=6.0e8,
    min_completions=1,
    partition_interval_s=0.05,
    record_traces=True,
    max_simulated_seconds=200.0,
)

#: Quick monitors so LFOC classifies (and re-classifies) within the budget.
ORACLE_MONITOR = MonitorConfig(warmup_samples=2, history_window=3)

DRIVER_NAMES = ("dunn", "lfoc", "stock")

#: ``(engine, driver)`` pairs compared against the all-oracle baseline
#: ``("reference", "reference")``: production on both axes, and production
#: on one axis with the oracle on the other.  ``multirun`` on a single
#: RuntimeEngine exercises the one-run path; the grouped cross-run path is
#: pinned by differential_group_run.
BACKEND_COMBINATIONS = (
    ("incremental", "incremental"),
    ("incremental", "reference"),
    ("reference", "incremental"),
    ("multirun", "incremental"),
)


# ---------------------------------------------------------------------------
# The reference engine loop
# ---------------------------------------------------------------------------


@dataclass
class _AppState:
    """Mutable per-application execution state of :func:`run_reference`."""

    name: str
    phased: PhasedProfile
    instructions_in_run: float = 0.0
    phase_position: float = 0.0  # instructions into the phase cycle
    instructions_to_next_sample: float = 100e6
    # Current rates (recomputed whenever the allocation or the phase changes).
    ipc: float = 1.0
    llcmpkc: float = 0.0
    stall_fraction: float = 0.0
    effective_ways: float = 0.0
    # Counters accumulated since the last sample.
    window_instructions: float = 0.0
    window_cycles: float = 0.0
    window_misses: float = 0.0
    window_stalls: float = 0.0

    def current_profile(self) -> AppProfile:
        return self.phased.profile_at(self.phase_position)

    def instructions_to_phase_change(self) -> float:
        return self.phased.instructions_until_phase_change(self.phase_position)


def run_reference(
    platform: PlatformSpec,
    phased_profiles: Mapping[str, PhasedProfile],
    driver: PolicyDriver,
    config: Optional[EngineConfig] = None,
    workload_name: str = "workload",
) -> RunResult:
    """One engine run through the original per-application dict loop.

    Every rate change re-registers each application's current phase profile
    with a cold :class:`~repro.simulator.ClusteringEstimator` and re-runs it.
    :meth:`RuntimeEngine.run <repro.runtime.RuntimeEngine.run>` and the
    grouped :class:`~repro.runtime.MultiRunEngine` must return the same
    :class:`~repro.runtime.RunResult` bit for bit.  ``config.backend`` is
    ignored (it only selects run batching in production).
    """
    if not phased_profiles:
        raise SimulationError("the engine needs at least one application")
    config = config or EngineConfig()
    apps = list(phased_profiles)
    cat = CatController(platform)
    estimator = ClusteringEstimator(
        platform, {name: prof.profile_at(0.0) for name, prof in phased_profiles.items()}
    )
    stats = {
        name: AppRunStats(
            name=name,
            alone_time=alone_completion_time(
                phased_profiles[name], config.instructions_per_run, platform
            ),
        )
        for name in apps
    }
    traces: Dict[str, List[TracePoint]] = {name: [] for name in apps}
    repartitions: List[RepartitionEvent] = []
    states = {
        name: _AppState(
            name=name,
            phased=phased_profiles[name],
            instructions_to_next_sample=driver.sample_window(name),
        )
        for name in apps
    }
    allocation: Optional[WayAllocation] = None

    def recompute_rates() -> None:
        # Update the estimator's profiles to each application's current phase.
        for name, state in states.items():
            estimator.add_profile(name, state.current_profile().renamed(name))
        estimate = estimator.evaluate_allocation(allocation)
        for name, state in states.items():
            profile = estimator.profiles[name]
            effective = estimate.effective_ways[name]
            state.ipc = estimate.ipcs[name]
            state.llcmpkc = profile.llcmpkc_at(max(effective, 0.25))
            state.stall_fraction = profile.stall_fraction_at(
                max(effective, 0.25), platform
            )
            state.effective_ways = effective

    def program(new_allocation: WayAllocation, now: float, reason: str) -> None:
        nonlocal allocation
        missing = [a for a in apps if a not in new_allocation.masks]
        if missing:
            raise SimulationError(
                f"policy {driver.name!r} left applications unallocated: {missing}"
            )
        cat_apply_reference(cat, new_allocation.masks)
        allocation = new_allocation
        repartitions.append(
            RepartitionEvent(time_s=now, reason=reason, masks=dict(new_allocation.masks))
        )
        recompute_rates()

    program(driver.on_start(apps, platform), 0.0, "start")

    now = 0.0
    next_interval = config.partition_interval_s
    last_completion_start: Dict[str, float] = {name: 0.0 for name in apps}

    def done() -> bool:
        return all(stats[name].completions >= config.min_completions for name in apps)

    while not done():
        if now > config.max_simulated_seconds:
            raise SimulationError(
                f"simulation exceeded the {config.max_simulated_seconds}s safety cap "
                f"(policy {driver.name!r}, workload {workload_name!r})"
            )
        # ---- find the next event -------------------------------------------------
        dt = next_interval - now
        for state in states.values():
            rate = state.ipc * platform.cycles_per_second  # instructions / s
            if rate <= 0:
                raise SimulationError(f"application {state.name!r} has a zero rate")
            dt = min(dt, state.instructions_to_next_sample / rate)
            dt = min(dt, state.instructions_to_phase_change() / rate)
            remaining = config.instructions_per_run - state.instructions_in_run
            dt = min(dt, remaining / rate)
        dt = max(dt, 1e-9)

        # ---- advance every application by dt -------------------------------------
        for state in states.values():
            rate = state.ipc * platform.cycles_per_second
            instructions = rate * dt
            cycles = dt * platform.cycles_per_second
            state.instructions_in_run += instructions
            state.phase_position += instructions
            state.instructions_to_next_sample -= instructions
            state.window_instructions += instructions
            state.window_cycles += cycles
            state.window_misses += state.llcmpkc * cycles / 1000.0
            state.window_stalls += state.stall_fraction * cycles
        now += dt

        rates_dirty = False

        # ---- phase boundaries ------------------------------------------------------
        for state in states.values():
            if state.instructions_to_phase_change() <= 1.0:
                # Crossing the boundary: the profile for the next chunk changes.
                rates_dirty = True

        # ---- completions / restarts --------------------------------------------------
        for name, state in states.items():
            if state.instructions_in_run >= config.instructions_per_run - 1.0:
                stats[name].completion_times.append(now - last_completion_start[name])
                stats[name].instructions_retired += state.instructions_in_run
                last_completion_start[name] = now
                state.instructions_in_run = 0.0
                state.phase_position = 0.0  # restarted from scratch
                rates_dirty = True

        # ---- counter samples ------------------------------------------------------------
        state_snapshot: Dict[str, Dict[str, float]] = {}
        if config.record_traces and any(
            state.instructions_to_next_sample <= 1.0 for state in states.values()
        ):
            state_snapshot = driver.describe_state()
        for name, state in states.items():
            if state.instructions_to_next_sample <= 1.0:
                delta = CounterDelta(
                    instructions=state.window_instructions,
                    cycles=state.window_cycles,
                    llc_misses=state.window_misses,
                    stalls_l2_miss=state.window_stalls,
                )
                metrics = derive_metrics(delta)
                stats[name].samples_taken += 1
                state.window_instructions = 0.0
                state.window_cycles = 0.0
                state.window_misses = 0.0
                state.window_stalls = 0.0
                if config.record_traces:
                    snapshot = state_snapshot.get(name, {})
                    traces[name].append(
                        TracePoint(
                            time_s=now,
                            instructions=stats[name].instructions_retired
                            + state.instructions_in_run,
                            ipc=metrics.ipc,
                            llcmpkc=metrics.llcmpkc,
                            stall_fraction=metrics.stall_fraction,
                            effective_ways=state.effective_ways,
                            app_class=str(snapshot.get("class", "n/a")),
                        )
                    )
                new_allocation = driver.on_sample(name, metrics, state.effective_ways, now)
                state.instructions_to_next_sample = driver.sample_window(name)
                if new_allocation is not None:
                    program(new_allocation, now, f"sample:{name}")
                    rates_dirty = True

        # ---- partitioning interval ----------------------------------------------------------
        if now >= next_interval - 1e-12:
            next_interval += config.partition_interval_s
            new_allocation = driver.on_interval(now)
            if new_allocation is not None:
                program(new_allocation, now, "interval")
                rates_dirty = True

        if rates_dirty:
            recompute_rates()

    for name, monitor_state in driver.describe_state().items():
        if name in stats:
            stats[name].sampling_mode_entries = int(monitor_state.get("sampling_entries", 0))
            stats[name].class_changes = int(monitor_state.get("class_changes", 0))
    return RunResult(
        policy=driver.name,
        workload=workload_name,
        duration_s=now,
        app_stats=stats,
        traces=traces if config.record_traces else {},
        repartitions=repartitions,
        final_allocation=allocation,
    )


# ---------------------------------------------------------------------------
# Reference decision paths: Dunn k-selection, drivers, static LFOC
# ---------------------------------------------------------------------------


def kmeans_1d_reference(
    values: Sequence[float], k: int, *, iterations: int = 50, seed: int = 0
) -> Tuple[np.ndarray, np.ndarray]:
    """The original all-NumPy 1-D k-means with ``np.quantile`` seeding.

    :func:`repro.policies.kmeans_1d` must return bit-identical labels and
    centroids.
    """
    data = np.asarray(values, dtype=float)
    if data.ndim != 1 or data.size == 0:
        raise ClusteringError("k-means needs a non-empty 1-D value array")
    if not (1 <= k <= data.size):
        raise ClusteringError(f"k must lie in [1, {data.size}], got {k}")
    quantiles = np.linspace(0.0, 1.0, k + 2)[1:-1]
    centroids = np.quantile(data, quantiles)
    # Nudge identical seeds apart so that clusters do not collapse immediately.
    centroids = centroids + np.arange(k) * 1e-9
    labels = np.zeros(data.size, dtype=int)
    for _ in range(iterations):
        distances = np.abs(data[:, None] - centroids[None, :])
        new_labels = np.argmin(distances, axis=1)
        new_centroids = centroids.copy()
        for cluster in range(k):
            members = data[new_labels == cluster]
            if members.size:
                new_centroids[cluster] = members.mean()
        if np.array_equal(new_labels, labels) and np.allclose(new_centroids, centroids):
            break
        labels = new_labels
        centroids = new_centroids
    order = np.argsort(centroids)
    remap = np.empty_like(order)
    remap[order] = np.arange(k)
    return remap[labels], centroids[order]


def silhouette_1d_reference(values: np.ndarray, labels: np.ndarray, k: int) -> float:
    """Mean silhouette coefficient for a 1-D clustering: the per-point loop.

    :func:`repro.policies.silhouette_1d` must agree to float-rounding
    accuracy and share every per-point convention.
    """
    if k < 2:
        return -1.0
    scores = []
    for index, value in enumerate(values):
        own = values[labels == labels[index]]
        if own.size <= 1:
            scores.append(0.0)
            continue
        a = np.abs(own - value).sum() / (own.size - 1)
        b = np.inf
        for other in range(k):
            if other == labels[index]:
                continue
            members = values[labels == other]
            if members.size:
                b = min(b, float(np.abs(members - value).mean()))
        if not np.isfinite(b):
            scores.append(0.0)
            continue
        denom = max(a, b)
        scores.append(0.0 if denom == 0 else (b - a) / denom)
    return float(np.mean(scores))


class ReferenceDunnPolicy(DunnPolicy):
    """Dunn whose k-selection runs the reference k-means and silhouette, uncached."""

    def choose_k(self, values: np.ndarray) -> Tuple[int, np.ndarray]:
        values = np.asarray(values, dtype=float)
        n = values.size
        if n == 1:
            return 1, np.zeros(1, dtype=int)
        best_k, best_labels, best_score = 1, np.zeros(n, dtype=int), -1.0
        upper = min(self.max_clusters, n)
        for k in range(min(self.min_clusters, upper), upper + 1):
            labels, _ = kmeans_1d_reference(values, k)
            if len(set(labels.tolist())) < 2:
                score = -1.0
            else:
                score = silhouette_1d_reference(values, labels, k)
            if score > best_score:
                best_k, best_labels, best_score = k, labels, score
        self.decisions_computed += 1
        return best_k, best_labels


class ReferenceDunnDaemon(DunnUserLevelDaemon):
    """The Dunn daemon with no caches: it re-clusters at every interval."""

    def __init__(
        self,
        max_clusters: int = 4,
        min_clusters: int = 2,
        overlap_ways: int = 1,
        history_window: int = 5,
    ) -> None:
        super().__init__(max_clusters, min_clusters, overlap_ways, history_window)
        self._template = ReferenceDunnPolicy(max_clusters, min_clusters, overlap_ways)

    def on_interval(self, now: float) -> Optional[WayAllocation]:
        if self._platform is None:
            raise SimulationError("driver used before on_start")
        if any(not history for history in self._stall_history.values()):
            return None  # not every application has been sampled yet
        stalls = {
            app: short_mean(history) for app, history in self._stall_history.items()
        }
        return self._allocation_from_stalls(stalls)

    def _allocation_from_stalls(self, stalls: Mapping[str, float]) -> WayAllocation:
        apps = list(stalls)
        values = np.array([stalls[a] for a in apps], dtype=float)
        self.intervals_computed += 1
        return self._template.allocation_for_values(apps, values, self._platform)


class ReferenceLfocDriver(LfocSchedulerPlugin):
    """The LFOC driver with one scalar monitor per application and no caches.

    Algorithm 1 is recomputed from the live classification at every
    partitioning interval.
    """

    def on_start(self, apps, platform) -> WayAllocation:
        allocation = super().on_start(apps, platform)
        self.monitors = {app: AppMonitor(app, self.monitor_config) for app in self._apps}
        return allocation

    def _run_partitioning(self) -> Optional[WayAllocation]:
        if self._platform is None:
            raise SimulationError("driver used before on_start")
        streaming, sensitive, light, tables = self._classify_current()
        solution = lfoc_clustering(
            streaming, sensitive, light, self._platform.llc_ways, tables, self.params
        )
        allocation = solution.to_allocation()
        self.partitions_computed += 1
        self._current_allocation = allocation
        return allocation


class ReferenceLfocPolicy(LfocPolicy):
    """Static LFOC recomputing classification and Algorithm 1 on every call."""

    def decide(self, profiles, platform) -> ClusteringSolution:
        self._check_workload(profiles, platform)
        streaming, sensitive, light, tables = _classify_and_tabulate(
            profiles, platform, self.thresholds
        )
        return lfoc_clustering(
            streaming, sensitive, light, platform.llc_ways, tables, self.params
        )


# ---------------------------------------------------------------------------
# Differential harness
# ---------------------------------------------------------------------------


def random_phased_workload(seed: int, size: Optional[int] = None) -> Workload:
    """A seeded random workload with phased benchmarks guaranteed."""
    rng = np.random.default_rng(seed)
    if size is None:
        size = int(rng.choice([4, 6, 8]))
    return random_workload(f"oracle-{seed}", size, kind="P", rng=rng)


def make_driver(name: str, backend: str):
    """Fresh driver for one run: ``"reference"`` oracle or production."""
    if name == "stock":
        return StockLinuxDriver()  # no decision layer: the same in both
    reference = backend == "reference"
    if name == "dunn":
        return ReferenceDunnDaemon() if reference else DunnUserLevelDaemon()
    if name == "lfoc":
        cls = ReferenceLfocDriver if reference else LfocSchedulerPlugin
        return cls(monitor_config=ORACLE_MONITOR)
    raise ValueError(f"unknown oracle driver {name!r}")


def run_fields(result) -> Dict:
    """Everything a RunResult records, as an exactly-comparable structure."""
    return {
        "policy": result.policy,
        "workload": result.workload,
        "duration": result.duration_s,
        "stats": {
            name: (
                stats.completion_times,
                stats.alone_time,
                stats.instructions_retired,
                stats.samples_taken,
                stats.sampling_mode_entries,
                stats.class_changes,
            )
            for name, stats in result.app_stats.items()
        },
        "traces": result.traces,
        "repartitions": [
            (event.time_s, event.reason, event.masks) for event in result.repartitions
        ],
        "final_masks": dict(result.final_allocation.masks),
    }


def differential_run(
    workload: Workload,
    driver_name: str,
    engine_backend: str,
    driver_backend: str,
    *,
    platform=None,
    config: EngineConfig = ORACLE_CONFIG,
) -> Dict:
    """One run under an explicit backend combination, reduced for comparison.

    ``engine_backend="reference"`` runs :func:`run_reference`; any other value
    is the production engine's :attr:`EngineConfig.backend`.
    """
    platform = platform or skylake_gold_6138()
    profiles = workload.phased_profiles(platform.llc_ways)
    driver = make_driver(driver_name, driver_backend)
    if engine_backend == "reference":
        result = run_reference(platform, profiles, driver, config, workload.name)
    else:
        engine = RuntimeEngine(
            platform, profiles, driver, replace(config, backend=engine_backend)
        )
        result = engine.run(workload.name)
    return run_fields(result)


def differential_group_run(
    workloads,
    driver_names,
    *,
    platform=None,
    config: EngineConfig = ORACLE_CONFIG,
    driver_backend: str = "incremental",
):
    """Every (workload, driver) pair through grouped multi-run engines.

    Groups the flat batch by application count — exactly the study layer's
    stacking criterion — runs each group through one
    :class:`~repro.runtime.multirun.MultiRunEngine` over shared tables, and
    returns the reduced run fields in flat (workload-major, driver-minor)
    order for comparison against per-run :func:`differential_run` results.
    """
    from collections import defaultdict

    from repro.runtime import MultiRunEngine

    platform = platform or skylake_gold_6138()
    members = []
    sizes = []
    for workload in workloads:
        profiles = workload.phased_profiles(platform.llc_ways)
        for driver_name in driver_names:
            members.append(
                (workload.name, profiles, make_driver(driver_name, driver_backend))
            )
            sizes.append(workload.size)
    buckets = defaultdict(list)
    for index, size in enumerate(sizes):
        buckets[size].append(index)
    results = [None] * len(members)
    group_config = replace(config, backend="multirun")
    for indices in buckets.values():
        engine = MultiRunEngine(
            platform, [members[i] for i in indices], group_config
        )
        for index, result in zip(indices, engine.run()):
            results[index] = run_fields(result)
    return results


def reference_fig7_rows(
    workloads: Sequence[Workload],
    config: EngineConfig,
    platform: Optional[PlatformSpec] = None,
    drivers: Optional[Mapping[str, type]] = None,
) -> list:
    """Fig. 7 rows built from :func:`run_reference` runs.

    Every workload runs under Stock-Linux and each of ``drivers`` (default:
    the production Dunn and LFOC drivers), normalised against the stock run
    exactly as :func:`repro.analysis.fig7_dynamic_study` does, which must
    return the same rows.
    """
    platform = platform or skylake_gold_6138()
    if drivers is None:
        drivers = {"Dunn": DunnUserLevelDaemon, "LFOC": LfocSchedulerPlugin}
    rows = []
    for workload in workloads:
        profiles = workload.phased_profiles(platform.llc_ways)
        baseline = run_reference(
            platform, profiles, StockLinuxDriver(), config, workload.name
        )
        base = baseline.metrics()
        rows.append(
            DynamicStudyRow(
                workload=workload.name,
                size=workload.size,
                policy=baseline.policy,
                unfairness=base.unfairness,
                stp=base.stp,
                normalized_unfairness=1.0,
                normalized_stp=1.0,
                repartitions=baseline.n_repartitions,
                sampling_entries=0,
            )
        )
        for label, factory in drivers.items():
            result = run_reference(platform, profiles, factory(), config, workload.name)
            metrics = result.metrics()
            rows.append(
                DynamicStudyRow(
                    workload=workload.name,
                    size=workload.size,
                    policy=label,
                    unfairness=metrics.unfairness,
                    stp=metrics.stp,
                    normalized_unfairness=normalise(metrics.unfairness, base.unfairness),
                    normalized_stp=normalise(metrics.stp, base.stp),
                    repartitions=result.n_repartitions,
                    sampling_entries=result.total_sampling_entries(),
                )
            )
    return rows


def assert_identical(candidate: Dict, baseline: Dict, context: str) -> None:
    """Strict equality with a first-divergence diagnosis."""
    if candidate == baseline:
        return
    for field in baseline:
        if candidate.get(field) != baseline[field]:
            raise AssertionError(
                f"{context}: field {field!r} diverged from the reference "
                f"baseline\n  reference: {baseline[field]!r}\n"
                f"  candidate: {candidate.get(field)!r}"
            )
    raise AssertionError(f"{context}: results diverged (extra fields?)")


def random_stall_vector(rng: np.random.Generator) -> np.ndarray:
    """Adversarial 1-D stall vectors for decision-level choose_k fuzz."""
    n = int(rng.integers(2, 17))
    shape = rng.random()
    if shape < 0.25:
        # Well-separated groups (the easy case the daemon usually sees).
        k = int(rng.integers(2, 5))
        centers = rng.random(k)
        values = centers[rng.integers(0, k, size=n)] + rng.random(n) * 0.01
    elif shape < 0.5:
        # Near-ties: everything within a hair of everything else.
        values = 0.5 + rng.random(n) * 1e-9
    elif shape < 0.7:
        # Heavy duplicates (multi-instance workloads produce these).
        pool = rng.random(max(n // 3, 1))
        values = pool[rng.integers(0, pool.size, size=n)]
    elif shape < 0.8:
        # Constant data: the degenerate tie-breaking regression case.
        values = np.full(n, float(rng.random()))
    else:
        values = rng.random(n)
    return np.clip(values.astype(float), 0.0, 1.0)


def cat_apply_reference(cat: CatController, allocation: Mapping[str, int]) -> Dict[str, int]:
    """Program ``allocation`` by resetting ``cat`` and binding task by task.

    Tasks sharing a mask share a class; the full mask takes CLOS 0 and every
    other distinct mask a new class.  A failing mask or an exhausted CLOS
    pool raises part-way, after the reset.
    """
    cat.reset()
    mask_to_clos: Dict[int, int] = {}
    result: Dict[str, int] = {}
    for task, mask in allocation.items():
        mask = cat.validate_mask(mask)
        if mask not in mask_to_clos:
            if mask == cat.platform.full_mask and 0 not in mask_to_clos.values():
                mask_to_clos[mask] = 0
            else:
                mask_to_clos[mask] = cat.create_class(mask).clos_id
        clos_id = mask_to_clos[mask]
        cat.bind_task(task, clos_id)
        result[task] = clos_id
    return result


def interp_reference(table: np.ndarray, ways: float) -> float:
    """A per-way curve at fractional ``ways``, clipped to ``[1, n]``, via np.interp."""
    n = len(table)
    clipped = min(max(float(ways), 1.0), float(n))
    return float(np.interp(clipped, np.arange(1, n + 1, dtype=float), table))


def occupancy_solve_reference(
    model, allocation: WayAllocation, profiles: Mapping[str, AppProfile]
):
    """The occupancy fixed point of ``model``, written way by way over dicts.

    This is the plain statement of the model in
    :mod:`repro.simulator.occupancy`: every way's insertion pressure total is
    split among its sharers, shares accumulate in ascending way order, and
    the damped blend iterates until the largest change drops below the
    tolerance.  ``OccupancyModel.solve`` and ``OccupancyTrajectoryCache.solve``
    must match it bit for bit.  Curves are read through :func:`np.interp`
    (the production code's scalar formula is pinned to it separately), and
    per-way totals are a left fold, not ``sum()``: from Python 3.12
    ``sum()`` compensates float rounding.
    """
    apps = allocation.apps()
    for app in apps:
        if app not in profiles:
            raise SimulationError(f"no profile registered for application {app!r}")
    n_ways = allocation.total_ways

    # Pre-compute the sharers of each way and each application's way list.
    app_ways: Dict[str, list] = {}
    way_sharers: Dict[int, list] = {w: [] for w in range(n_ways)}
    for app in apps:
        mask = allocation.mask_of(app)
        ways = [w for w in range(n_ways) if mask & (1 << w)]
        app_ways[app] = ways
        for w in ways:
            way_sharers[w].append(app)

    # Initial guess: every application owns its whole mask.
    effective = {app: float(len(app_ways[app])) for app in apps}
    pressures: Dict[str, float] = {}
    converged = False
    iteration = 0
    for iteration in range(1, model.max_iterations + 1):
        pressures = {
            app: model.base_pressure
            + interp_reference(profiles[app].curves.llcmpkc, max(effective[app], 0.25))
            for app in apps
        }
        per_way_pressure = {
            app: pressures[app] / max(len(app_ways[app]), 1) for app in apps
        }
        new_effective: Dict[str, float] = {app: 0.0 for app in apps}
        for way, sharers in way_sharers.items():
            if not sharers:
                continue
            total = 0
            for a in sharers:
                total = total + per_way_pressure[a]
            for app in sharers:
                new_effective[app] += per_way_pressure[app] / total
        delta = 0.0
        for app in apps:
            blended = (
                (1.0 - model.damping) * effective[app]
                + model.damping * new_effective[app]
            )
            delta = max(delta, abs(blended - effective[app]))
            effective[app] = blended
        if delta < model.tolerance:
            converged = True
            break
    return OccupancyResult(
        effective_ways=dict(effective),
        pressures=dict(pressures),
        iterations=iteration,
        converged=converged,
    )


def decompose_reference(
    allocation: WayAllocation,
) -> List[Tuple[List[str], List[List[int]], List[int]]]:
    """Mask-sharing components by union-find: (members, relative ways, relative masks).

    Two distinct masks connect when they overlap; a component's members are
    in workload order, and its ways are rank-compressed over the union of
    its members' ways.
    """
    apps = allocation.apps()
    masks = [allocation.mask_of(app) for app in apps]
    app_ways: Dict[str, List[int]] = {
        app: [w for w in range(allocation.total_ways) if mask & (1 << w)]
        for app, mask in zip(apps, masks)
    }
    distinct: List[int] = []
    seen: Dict[int, int] = {}
    mask_index: List[int] = []
    for mask in masks:
        slot = seen.get(mask)
        if slot is None:
            slot = len(distinct)
            seen[mask] = slot
            distinct.append(mask)
        mask_index.append(slot)
    parent = list(range(len(distinct)))

    def find(i: int) -> int:
        root = i
        while parent[root] != root:
            root = parent[root]
        while parent[i] != root:
            parent[i], i = root, parent[i]
        return root

    for i in range(len(distinct)):
        for j in range(i + 1, len(distinct)):
            if distinct[i] & distinct[j]:
                root_j = find(j)
                if root_j != find(i):
                    parent[root_j] = find(i)

    components: Dict[int, List[str]] = {}
    for app, slot in zip(apps, mask_index):
        components.setdefault(find(slot), []).append(app)
    decomposition = []
    for members in components.values():
        union_ways = sorted({w for m in members for w in app_ways[m]})
        rank = {w: r for r, w in enumerate(union_ways)}
        rel_lists = [[rank[w] for w in app_ways[m]] for m in members]
        rel_masks = [sum(1 << r for r in rel) for rel in rel_lists]
        decomposition.append((members, rel_lists, rel_masks))
    return decomposition


class RecordingTrajectory(_ComponentTrajectory):
    """A component trajectory recorded as per-iteration tuples.

    The storage the flat buffers of :class:`_ComponentTrajectory` replaced:
    every iteration keeps one tuple of effective ways and one of the
    pressures :meth:`step` computed on the way, and a replay reads both back
    verbatim instead of deriving the pressures.  The step itself is the
    production kernel, which :func:`occupancy_solve_reference` pins.
    """

    __slots__ = ("pressures",)

    def __init__(self, curves, way_lists) -> None:
        super().__init__(curves, way_lists)
        self.eff = [tuple(float(len(ways)) for ways in way_lists)]
        self.pressures = [()]
        self.deltas = [0.0]

    def ensure(self, n: int, model) -> None:
        while len(self.eff) <= n and not self.fixed_at:
            eff, pressures, delta = self.step(self.eff[-1], model)
            self.eff.append(tuple(eff))
            self.pressures.append(tuple(pressures))
            self.deltas.append(delta)
            if delta == 0.0:
                self.fixed_at = len(self.eff) - 1

    def effective(self, n: int):
        return self.eff[self._index(n)]

    def pressure(self, n: int, model=None):
        return self.pressures[self._index(n)]


class RecordingTrajectoryCache(OccupancyTrajectoryCache):
    """The trajectory cache over :class:`RecordingTrajectory` storage.

    :meth:`solve` builds each component key from the members' relative way
    lists on every call and applies the global stop condition as a plain
    per-iteration scan over all components; :meth:`export_entries` returns
    the recorded tuples verbatim.  The production cache's solves, exported
    state and saved tables files must equal this one's bit for bit.
    """

    def export_entries(self):
        return [
            (
                key,
                {
                    "eff": list(trajectory.eff),
                    "pressures": list(trajectory.pressures),
                    "deltas": list(trajectory.deltas),
                    "fixed_at": trajectory.fixed_at,
                },
            )
            for key, trajectory in self._trajectories.items()
        ]

    def solve(self, allocation, tokens, views, alloc_token=None) -> OccupancyResult:
        model = self.model
        apps = allocation.apps()
        if alloc_token is None:
            alloc_token = (tuple(allocation.masks.items()), allocation.total_ways)
        trajectories = []
        for members, rel_lists, _ in self._decompose(allocation, alloc_token):
            key = tuple(
                (tokens[m], sum(1 << r for r in rel))
                for m, rel in zip(members, rel_lists)
            )
            trajectory = self._trajectories.get(key)
            if trajectory is None:
                trajectory = RecordingTrajectory(
                    [views[m].llcmpkc for m in members], rel_lists
                )
                self._trajectories[key] = trajectory
            trajectories.append((trajectory, members))
        # The global stop: the first iteration at which every component's
        # delta is below the tolerance.
        iteration = 1
        converged = False
        while iteration <= model.max_iterations:
            for trajectory, _ in trajectories:
                trajectory.ensure(iteration, model)
            if all(t.delta(iteration) < model.tolerance for t, _ in trajectories):
                converged = True
                break
            iteration += 1
        iteration = min(iteration, model.max_iterations)
        effective: Dict[str, float] = {app: 0.0 for app in apps}
        pressures: Dict[str, float] = {app: 0.0 for app in apps}
        for trajectory, members in trajectories:
            eff = trajectory.effective(iteration)
            pressure = trajectory.pressure(iteration)
            for i, member in enumerate(members):
                effective[member] = eff[i]
                pressures[member] = pressure[i]
        return OccupancyResult(
            effective_ways=effective,
            pressures=pressures,
            iterations=iteration,
            converged=converged,
        )


# ---------------------------------------------------------------------------
# Static-search oracles: table build, local search, KPart
# ---------------------------------------------------------------------------


def _solve_occupancy_all_masks_reference(tables, ways: int, member: np.ndarray) -> np.ndarray:
    """The shared-mask occupancy fixed point of every cluster mask at one way count.

    One vectorized fixed point per way count, as the table build was first
    written: per-mask convergence flags, the damped blend and the ``ways``
    repeated share additions of :meth:`OccupancyModel.solve`.
    """
    model = tables.occupancy_model
    n_masks, n_apps = member.shape
    effective = np.where(member, float(ways), 0.0)
    active = tables._mask_solved.copy()
    for _ in range(model.max_iterations):
        rows = np.nonzero(active)[0]
        if rows.size == 0:
            break
        eff = effective[rows]
        memb = member[rows]
        pressure = np.empty_like(eff)
        for j, app in enumerate(tables.app_order):
            profile = tables.profiles[app]
            pressure[:, j] = model.base_pressure + llcmpkc_interp(
                profile, np.maximum(eff[:, j], 0.25)
            )
        per_way = pressure / ways
        total = np.zeros(rows.size, dtype=float)
        for j in range(n_apps):
            total = total + np.where(memb[:, j], per_way[:, j], 0.0)
        share = per_way / total[:, None]
        new_effective = np.zeros_like(share)
        for _ in range(ways):
            new_effective = new_effective + share
        blended = (1.0 - model.damping) * eff + model.damping * new_effective
        delta = np.where(memb, np.abs(blended - eff), 0.0).max(axis=1)
        effective[rows] = np.where(memb, blended, 0.0)
        active[rows] = delta >= model.tolerance
    return effective


def build_tables_reference(tables) -> Dict[str, np.ndarray]:
    """The five dense arrays of a :class:`TabulatedObjective`, way count by way count.

    Returns ``{"_slowdown_rows", "_stall_rows", "_demand_rows", "_row_max",
    "_row_min"}`` built with one fixed point per way count over all ``2^n``
    masks (row ``mask * k + ways - 1``); the production all-ways build must
    match every array bit for bit, unsolved masks' rows included.
    """
    n, k = tables.n_apps, tables.n_ways
    n_masks = 1 << n
    mask_values = np.arange(n_masks, dtype=np.int64)
    member = ((mask_values[:, None] >> np.arange(n)) & 1).astype(bool)
    rows_total = n_masks * k
    slowdown = np.zeros((rows_total, n), dtype=float)
    stall = np.zeros((rows_total, n), dtype=float)
    demand_total = np.zeros(rows_total, dtype=float)
    row_max = np.zeros(rows_total, dtype=float)
    row_min = np.zeros(rows_total, dtype=float)
    platform = tables.platform
    for ways in range(1, k + 1):
        effective = _solve_occupancy_all_masks_reference(tables, ways, member)
        rows = mask_values * k + (ways - 1)
        slow_w = np.zeros((n_masks, n), dtype=float)
        stall_w = np.zeros((n_masks, n), dtype=float)
        total_w = np.zeros(n_masks, dtype=float)
        for j, app in enumerate(tables.app_order):
            profile = tables.profiles[app]
            eff = effective[:, j]
            ipc = ipc_with_extrapolation(profile, eff)
            slow_col = profile.ipc_alone / np.maximum(ipc, 1e-12)
            eval_ways = np.maximum(eff, 0.25)
            mpkc = llcmpkc_interp(profile, eval_ways)
            bw_col = (
                mpkc / 1000.0 * platform.cycles_per_second * profile.bytes_per_miss / 1e9
            )
            pressure = mpkc * platform.mem_latency_cycles / 1000.0
            stall_col = np.minimum(0.95, pressure / (1.0 + pressure))
            in_cluster = member[:, j]
            slow_w[:, j] = np.where(in_cluster, slow_col, 0.0)
            stall_w[:, j] = np.where(in_cluster, stall_col, 0.0)
            total_w = total_w + np.where(in_cluster, bw_col, 0.0)
        slowdown[rows] = slow_w
        stall[rows] = stall_w
        demand_total[rows] = total_w
        row_max[rows] = np.where(member, slow_w, -np.inf).max(axis=1)
        row_min[rows] = np.where(member, slow_w, np.inf).min(axis=1)
    return {
        "_slowdown_rows": slowdown,
        "_stall_rows": stall,
        "_demand_rows": demand_total,
        "_row_max": row_max,
        "_row_min": row_min,
    }


def local_search_reference(
    platform: PlatformSpec,
    profiles: Mapping[str, AppProfile],
    apps: Optional[Sequence[str]] = None,
    *,
    objective: str = "fairness",
    iterations: int = 2000,
    restarts: int = 3,
    seed: int = 0,
) -> OptimalResult:
    """:func:`repro.optimal.local_search_clustering` without its score memo.

    Every proposal is copied before its feasibility checks and scored through
    :meth:`CachedObjective.score_candidate`, repeated states included, and
    compared with :meth:`CandidateScore.better_than`.
    """
    apps = _validate_workload(apps if apps is not None else list(profiles), profiles)
    k = platform.llc_ways
    scorer = CachedObjective(platform, profiles)
    rng = np.random.default_rng(seed)

    def propose(groups, ways):
        groups = [list(g) for g in groups]
        ways = list(ways)
        move = rng.integers(0, 4)
        if move == 0 and len(groups) > 1:
            src = int(rng.integers(0, len(groups)))
            if len(groups[src]) == 1:
                return None
            dst = int(rng.integers(0, len(groups)))
            if dst == src:
                return None
            app = groups[src][int(rng.integers(0, len(groups[src])))]
            groups[src].remove(app)
            groups[dst].append(app)
            return groups, ways
        if move == 1 and len(groups) > 1:
            a, b = rng.choice(len(groups), size=2, replace=False)
            a, b = int(min(a, b)), int(max(a, b))
            groups[a].extend(groups[b])
            ways[a] += ways[b]
            del groups[b]
            del ways[b]
            return groups, ways
        if move == 2 and len(groups) < min(len(apps), k):
            candidates = [
                i for i, (g, w) in enumerate(zip(groups, ways)) if len(g) > 1 and w > 1
            ]
            if not candidates:
                return None
            src = int(rng.choice(candidates))
            members = groups[src]
            cut = int(rng.integers(1, len(members)))
            left, right = members[:cut], members[cut:]
            ways_right = int(rng.integers(1, ways[src]))
            groups[src] = left
            ways[src] = ways[src] - ways_right
            groups.append(right)
            ways.append(ways_right)
            return groups, ways
        if move == 3 and len(groups) > 1:
            src_candidates = [i for i, w in enumerate(ways) if w > 1]
            if not src_candidates:
                return None
            src = int(rng.choice(src_candidates))
            dst = int(rng.integers(0, len(groups)))
            if dst == src:
                return None
            ways[src] -= 1
            ways[dst] += 1
            return groups, ways
        return None

    best_score = None
    best_state = None
    evaluated = 0
    seeds = _seed_states(list(apps), scorer.profiles, k)
    for restart in range(restarts):
        groups = [list(g) for g in seeds[restart % len(seeds)][0]]
        ways = list(seeds[restart % len(seeds)][1])
        current_score = scorer.score_candidate(groups, ways)
        evaluated += 1
        if best_score is None or current_score.better_than(best_score, objective):
            best_score = current_score
            best_state = ([list(g) for g in groups], list(ways))
        for _ in range(iterations):
            proposal = propose(groups, ways)
            if proposal is None:
                continue
            new_groups, new_ways = proposal
            new_score = scorer.score_candidate(new_groups, new_ways)
            evaluated += 1
            if new_score.better_than(current_score, objective):
                groups, ways = new_groups, new_ways
                current_score = new_score
                if new_score.better_than(best_score, objective):
                    best_score = new_score
                    best_state = ([list(g) for g in new_groups], list(new_ways))
    solution = ClusteringSolution.from_groups(best_state[0], best_state[1], k)
    return OptimalResult(
        solution=solution,
        score=best_score,
        candidates_evaluated=evaluated,
        objective=objective,
    )


def score_solution(objective: CachedObjective, solution: ClusteringSolution) -> CandidateScore:
    """Score a :class:`ClusteringSolution` through ``objective.score_candidate``."""
    groups = [list(cluster.apps) for cluster in solution.clusters]
    ways = [cluster.ways for cluster in solution.clusters]
    return objective.score_candidate(groups, ways)


def score_candidate_fast(
    tables, groups: Sequence[Sequence[str]], ways: Sequence[int]
) -> Tuple[float, float]:
    """(unfairness, stp) of one candidate read from a :class:`TabulatedObjective`."""
    if len(groups) != len(ways):
        raise SolverError("groups and ways must have the same length")
    entries = np.asarray(
        [[tables.entry(tables.group_mask(g), w) for g, w in zip(groups, ways)]],
        dtype=np.intp,
    )
    unfairness, stp = tables.score_entries(entries)
    return float(unfairness[0]), float(stp[0])


# ---------------------------------------------------------------------------
# Exact search: per-candidate scoring through CachedObjective
# ---------------------------------------------------------------------------


def optimal_clustering_reference(
    platform: PlatformSpec,
    profiles: Mapping[str, AppProfile],
    apps: Optional[Sequence[str]] = None,
    *,
    objective: str = "fairness",
    max_clusters: Optional[int] = None,
    objective_fn: Optional[CachedObjective] = None,
) -> OptimalResult:
    """:func:`repro.optimal.optimal_clustering`, one candidate at a time.

    Every (partition, way composition) pair is scored through
    :meth:`CachedObjective.score_candidate`; ``objective_fn`` shares one
    cluster cache across several oracle searches.
    """
    if objective not in ("fairness", "throughput"):
        raise SolverError(f"unknown objective {objective!r}")
    apps = _validate_workload(apps if apps is not None else list(profiles), profiles)
    k = platform.llc_ways
    limit = min(len(apps), k)
    if max_clusters is not None:
        if max_clusters < 1:
            raise SolverError("max_clusters must be >= 1")
        limit = min(limit, max_clusters)
    scorer = objective_fn or CachedObjective(platform, profiles)

    best_score: Optional[CandidateScore] = None
    best_groups: Optional[List[List[str]]] = None
    best_ways: Optional[Tuple[int, ...]] = None
    evaluated = 0
    for groups in set_partitions(apps, limit):
        m = len(groups)
        for ways in way_compositions(k, m):
            score = scorer.score_candidate(groups, ways)
            evaluated += 1
            if best_score is None or score.better_than(best_score, objective):
                best_score = score
                best_groups = [list(g) for g in groups]
                best_ways = ways
    assert best_score is not None and best_groups is not None and best_ways is not None
    solution = ClusteringSolution.from_groups(best_groups, list(best_ways), k)
    return OptimalResult(
        solution=solution,
        score=best_score,
        candidates_evaluated=evaluated,
        objective=objective,
    )


def optimal_partitioning_reference(
    platform: PlatformSpec,
    profiles: Mapping[str, AppProfile],
    apps: Optional[Sequence[str]] = None,
    *,
    objective: str = "fairness",
    objective_fn: Optional[CachedObjective] = None,
) -> OptimalResult:
    """:func:`repro.optimal.optimal_partitioning`, one candidate at a time."""
    if objective not in ("fairness", "throughput"):
        raise SolverError(f"unknown objective {objective!r}")
    apps = _validate_workload(apps if apps is not None else list(profiles), profiles)
    k = platform.llc_ways
    if len(apps) > k:
        raise SolverError(
            f"strict partitioning of {len(apps)} applications is infeasible on a "
            f"{k}-way LLC"
        )
    scorer = objective_fn or CachedObjective(platform, profiles)
    groups = [[app] for app in apps]
    best_score: Optional[CandidateScore] = None
    best_ways: Optional[Tuple[int, ...]] = None
    evaluated = 0
    for ways in way_compositions(k, len(apps)):
        score = scorer.score_candidate(groups, ways)
        evaluated += 1
        if best_score is None or score.better_than(best_score, objective):
            best_score = score
            best_ways = ways
    assert best_score is not None and best_ways is not None
    solution = ClusteringSolution.from_partitioning(apps, list(best_ways), k)
    return OptimalResult(
        solution=solution,
        score=best_score,
        candidates_evaluated=evaluated,
        objective=objective,
    )


def branch_and_bound_reference(
    platform: PlatformSpec,
    profiles: Mapping[str, AppProfile],
    apps: Optional[Sequence[str]] = None,
    *,
    objective: str = "fairness",
    max_clusters: Optional[int] = None,
    objective_fn: Optional[CachedObjective] = None,
) -> OptimalResult:
    """:func:`repro.optimal.branch_and_bound_clustering` over per-cluster pieces.

    Both bound levels read :meth:`CachedObjective.cluster_pieces` and every
    surviving leaf is scored through :meth:`CachedObjective.score_candidate`.
    """
    if objective not in ("fairness", "throughput"):
        raise SolverError(f"unknown objective {objective!r}")
    apps = _validate_workload(apps if apps is not None else list(profiles), profiles)
    k = platform.llc_ways
    limit = min(len(apps), k)
    if max_clusters is not None:
        if max_clusters < 1:
            raise SolverError("max_clusters must be >= 1")
        limit = min(limit, max_clusters)
    scorer = objective_fn or CachedObjective(platform, profiles)
    prune = objective == "fairness"
    bw_factor_ub = (
        _bandwidth_factor_upper_bound(
            scorer.platform, scorer.profiles, scorer.bandwidth_model, apps
        )
        if prune
        else 1.0
    )

    best_score: Optional[CandidateScore] = None
    best_groups: Optional[List[List[str]]] = None
    best_ways: Optional[Tuple[int, ...]] = None
    evaluated = 0

    for groups in set_partitions(apps, limit):
        m = len(groups)
        generous = max(k - (m - 1), 1)
        if prune and best_score is not None:
            # Lower bound on the maximum slowdown: every cluster could at best
            # receive the most generous feasible allocation.
            max_slowdown_lb = 0.0
            # Upper bound on the minimum slowdown: some application will do no
            # worse than being squeezed to one way (times the bandwidth bound).
            min_slowdown_ub = float("inf")
            for group in groups:
                generous_pieces = scorer.cluster_pieces(group, generous)
                max_slowdown_lb = max(max_slowdown_lb, max(generous_pieces.cache_slowdowns.values()))
                squeezed_pieces = scorer.cluster_pieces(group, 1)
                min_slowdown_ub = min(
                    min_slowdown_ub, min(squeezed_pieces.cache_slowdowns.values()) * bw_factor_ub
                )
            if max_slowdown_lb / min_slowdown_ub >= best_score.unfairness - 1e-12:
                continue
        else:
            min_slowdown_ub = float("inf")
            if prune:
                for group in groups:
                    squeezed_pieces = scorer.cluster_pieces(group, 1)
                    min_slowdown_ub = min(
                        min_slowdown_ub,
                        min(squeezed_pieces.cache_slowdowns.values()) * bw_factor_ub,
                    )

        # Composition-level branch and bound: assign ways cluster by cluster.
        def assign(index: int, remaining: int, ways_prefix: Tuple[int, ...], partial_max: float) -> None:
            nonlocal best_score, best_groups, best_ways, evaluated
            if index == m:
                if remaining != 0:  # pragma: no cover - construction prevents this
                    return
                score = scorer.score_candidate(groups, ways_prefix)
                evaluated += 1
                if best_score is None or score.better_than(best_score, objective):
                    best_score = score
                    best_groups = [list(g) for g in groups]
                    best_ways = ways_prefix
                return
            clusters_left = m - index
            max_here = remaining - (clusters_left - 1)
            for ways_here in range(1, max_here + 1):
                pieces = scorer.cluster_pieces(groups[index], ways_here)
                new_partial_max = max(partial_max, max(pieces.cache_slowdowns.values()))
                if (
                    prune
                    and best_score is not None
                    and new_partial_max / min_slowdown_ub >= best_score.unfairness - 1e-12
                ):
                    # Giving this cluster even fewer ways only raises the bound,
                    # but *more* ways may still help, so keep scanning upwards.
                    continue
                assign(index + 1, remaining - ways_here, ways_prefix + (ways_here,), new_partial_max)

        assign(0, k, (), 0.0)

    if best_score is None or best_groups is None or best_ways is None:
        raise SolverError("branch and bound found no feasible clustering")
    solution = ClusteringSolution.from_groups(best_groups, list(best_ways), k)
    return OptimalResult(
        solution=solution,
        score=best_score,
        candidates_evaluated=evaluated,
        objective=objective,
    )


def shard_worker_reference(args: Tuple) -> Tuple[Optional[dict], int]:
    """One shard of the parallel search, scored candidate by candidate.

    Returns ``(best, count)`` like the production shard worker of
    :mod:`repro.optimal.parallel`, but takes the platform and profiles in
    ``args`` and builds its own :class:`CachedObjective` instead of reading
    shared dense tables.
    """
    (platform, profiles, apps, objective, limit, shard_index, n_shards) = args
    scorer = CachedObjective(platform, profiles)
    k = platform.llc_ways
    best_score: Optional[CandidateScore] = None
    best_groups: Optional[List[List[str]]] = None
    best_ways: Optional[Tuple[int, ...]] = None
    evaluated = 0
    for partition_index, groups in enumerate(set_partitions(apps, limit)):
        if partition_index % n_shards != shard_index:
            continue
        m = len(groups)
        for ways in way_compositions(k, m):
            score = scorer.score_candidate(groups, ways)
            evaluated += 1
            if best_score is None or score.better_than(best_score, objective):
                best_score = score
                best_groups = [list(g) for g in groups]
                best_ways = ways
    if best_score is None:
        return None, evaluated
    return (
        {
            "groups": best_groups,
            "ways": list(best_ways),
            "unfairness": best_score.unfairness,
            "stp": best_score.stp,
            "slowdowns": best_score.slowdowns,
        },
        evaluated,
    )


def build_dendrogram_reference(
    profiles: Mapping[str, AppProfile], n_ways: int
) -> List[List[List[str]]]:
    """KPart's agglomeration, recomputing every pairwise distance each round."""
    groups: List[List[str]] = [[name] for name in profiles]
    curves = {
        tuple(group): combined_miss_curve([profiles[a] for a in group], n_ways)
        for group in groups
    }
    levels = [[list(g) for g in groups]]
    while len(groups) > 1:
        best_pair = None
        best_distance = np.inf
        for i in range(len(groups)):
            for j in range(i + 1, len(groups)):
                distance = whirlpool_distance(
                    curves[tuple(groups[i])], curves[tuple(groups[j])]
                )
                if distance < best_distance:
                    best_distance = distance
                    best_pair = (i, j)
        i, j = best_pair
        merged = groups[i] + groups[j]
        groups = [g for idx, g in enumerate(groups) if idx not in (i, j)]
        groups.append(merged)
        curves[tuple(merged)] = combined_miss_curve(
            [profiles[a] for a in merged], n_ways
        )
        levels.append([list(g) for g in groups])
    return levels


def evaluate_level_reference(
    groups: Sequence[Sequence[str]],
    profiles: Mapping[str, AppProfile],
    n_ways: int,
) -> Tuple[List[int], float]:
    """KPart's level evaluation, rebuilding every group's combined miss curve."""
    miss_curves = [
        combined_miss_curve([profiles[a] for a in group], n_ways) for group in groups
    ]
    ways = lookahead(miss_curves, n_ways, min_ways=1)
    speedup = 0.0
    for group, way in zip(groups, ways):
        members = [profiles[a] for a in group]
        pressures = np.array(
            [max(p.llcmpkc_at(max(way / len(members), 0.5)), 0.05) for p in members]
        )
        shares = pressures / pressures.sum() * way
        for profile, share in zip(members, shares):
            speedup += profile.ipc_at(max(share, 1.0)) / profile.ipc_alone
    return ways, float(speedup)


def kpart_decide_reference(
    profiles: Mapping[str, AppProfile],
    platform: PlatformSpec,
    max_clusters: Optional[int] = None,
) -> ClusteringSolution:
    """:meth:`KPartPolicy.decide` built from the uncached dendrogram and levels."""
    k = platform.llc_ways
    resampled = {name: p.resampled(k) for name, p in profiles.items()}
    best = None
    for groups in build_dendrogram_reference(resampled, k):
        if len(groups) > k:
            continue
        if max_clusters is not None and len(groups) > max_clusters:
            continue
        ways, speedup = evaluate_level_reference(groups, resampled, k)
        if best is None or speedup > best[2] + 1e-12:
            best = (groups, ways, speedup)
    return ClusteringSolution.from_groups(
        [list(g) for g in best[0]], list(best[1]), k
    )


# ---------------------------------------------------------------------------
# The sequential per-AppMonitor service ingest
# ---------------------------------------------------------------------------


def _metrics(llcmpkc: float, stall_fraction: float) -> DerivedMetrics:
    """Monitor-facing metrics from a streamed sample (the monitors only read
    ``llcmpkc`` and ``stall_fraction``; the other fields never left the
    host, so they travel as zeros)."""
    return DerivedMetrics(
        ipc=0.0,
        llcmpkc=float(llcmpkc),
        llcmpki=0.0,
        stall_fraction=float(stall_fraction),
        instructions=0.0,
        cycles=0.0,
    )


class ReferenceHostSession(HostSession):
    """:class:`HostSession` with one scalar :class:`AppMonitor` per
    application, observed directly as each sample is staged (the shared
    bank is never staged into, so its flushes are no-ops)."""

    def _arrive(self, app: str) -> None:
        if app in self.monitors:
            return  # duplicate arrival within one boot; idempotent
        monitor = self.parked.pop(app, None)
        if monitor is not None:
            monitor.reset_for_restart()
        else:
            monitor = AppMonitor(app, self.monitor_config)
        self.monitors[app] = monitor
        self.live.append(app)
        self._stalls[app] = deque(maxlen=self.history_window)

    def _stage_samples(
        self,
        pending: _Pending,
        samples: List[Mapping],
        classify: List[Mapping],
    ) -> None:
        seen = set()
        for entry in samples:
            if entry["app"] in seen:
                raise ServiceProtocolError(
                    f"host {self.host!r} repeated app {entry['app']!r} within "
                    "one monitor_samples batch"
                )
            seen.add(entry["app"])
        for entry in classify:
            monitor = self.monitors.get(entry["app"]) or self.parked.get(entry["app"])
            if monitor is None:
                continue  # classified app departed and never came back
            monitor.set_classification(
                AppClass(entry["class"]),
                slowdown_table=entry["slowdown_table"],
                critical_size=entry["critical_size"],
            )
        for entry in samples:
            app = entry["app"]
            monitor = self.monitors.get(app)
            if monitor is None:
                continue  # sample for an app that departed in this batch
            self.samples_ingested += 1
            pending.staged.append((app, monitor))
            pending.triggers.append(
                monitor.observe(
                    _metrics(entry["llcmpkc"], entry["stall_fraction"]),
                    float(entry["effective_ways"]),
                )
            )
            self._stalls[app].append(float(entry["stall_fraction"]))


class ReferenceServiceCore(ServiceCore):
    """:class:`ServiceCore` whose sessions are :class:`ReferenceHostSession`\\ s."""

    def _new_session(self, host: str) -> HostSession:
        return ReferenceHostSession(
            host,
            policy=self.policy,
            platform=self.platform,
            params=self.params,
            monitor_config=self.monitor_config,
            replay=self.replay,
            ingest=self.ingest,
        )


def reference_offline_replay(
    host_ids,
    workload,
    *,
    batches: int,
    seed: int = 0,
    policy: str = "lfoc",
    n_ways: Optional[int] = None,
) -> ReplayLog:
    """:func:`~repro.service.replay.offline_replay` against a
    :class:`ReferenceServiceCore`: the same hosts, seeds and frame order."""
    if isinstance(host_ids, str):
        host_ids = [host_ids]
    core = ReferenceServiceCore(policy=policy, n_ways=n_ways)
    for host_id in host_ids:
        host = SimulatedHost(workload, seed=host_seed(seed, host_id), n_ways=n_ways)
        churn = churn_schedule(host.apps, batches, host_seed(seed, host_id))
        drive_host(host, LocalTransport(core, host_id), batches=batches, churn=churn)
    return core.replay
