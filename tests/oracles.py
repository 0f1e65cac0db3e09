"""Differential-oracle harness for the incremental driver/engine layers.

The ``incremental`` execution paths — the vectorized Dunn decision kernels,
the driver decision caches, the token-based engine evaluation — must
reproduce the ``reference`` implementations *exactly*: same study rows, same
``choose_k`` decisions, same allocation masks, bit for bit.  This module
provides the building blocks the differential tests (and deep local fuzz
runs) are made of:

* :func:`random_phased_workload` — seeded randomized workloads drawn from
  the benchmark catalogue, phased mixes included, so the fuzz loop exercises
  phase changes, sampling sweeps and repartitions rather than a fixed
  hand-picked mix;
* :func:`differential_run` — one engine run under an explicit
  ``(engine backend, driver backend)`` combination, reduced to an
  exactly-comparable structure covering everything a run records
  (completion times, traces, repartition reasons and masks, final
  allocation, per-app stats);
* :func:`differential_group_run` — the same batch through grouped
  :class:`~repro.runtime.multirun.MultiRunEngine` execution (the
  ``multirun`` backend's cross-run stacking), flat-ordered for member-by-
  member comparison against serial runs;
* :func:`assert_identical` — strict equality with a readable diff pointing
  at the first field that diverged;
* :func:`random_stall_vector` — adversarial 1-D stall-metric vectors
  (well-separated groups, near-ties, heavy duplicates, constant data) for
  decision-level fuzz of ``choose_k``;
* :func:`interp_reference` and :func:`occupancy_solve_reference` — the
  ``np.interp`` curve reading and the dict-based occupancy fixed point that
  the production scalar kernels must reproduce exactly.

The number of seeds is CI-bounded through the ``--oracle-seeds`` pytest
option (see ``conftest.py``); deep local runs crank it up::

    PYTHONPATH=src python -m pytest tests/test_driver_differential.py \
        --oracle-seeds 25 -q
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Mapping, Optional

import numpy as np

from repro.apps.profile import AppProfile
from repro.core.types import WayAllocation
from repro.errors import SimulationError
from repro.hardware import skylake_gold_6138
from repro.runtime import (
    DunnUserLevelDaemon,
    EngineConfig,
    LfocSchedulerPlugin,
    MonitorConfig,
    RuntimeEngine,
    StockLinuxDriver,
)
from repro.simulator.occupancy import OccupancyResult
from repro.workloads import Workload, random_workload

__all__ = [
    "ORACLE_CONFIG",
    "DRIVER_NAMES",
    "BACKEND_COMBINATIONS",
    "random_phased_workload",
    "make_driver",
    "run_fields",
    "differential_run",
    "differential_group_run",
    "assert_identical",
    "random_stall_vector",
    "interp_reference",
    "occupancy_solve_reference",
    "dunn_reference",
    "dunn_incremental",
    "lfoc_reference",
    "lfoc_incremental",
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

#: Engine/driver backend pairs compared against the all-reference baseline.
#: ``multirun`` on a single RuntimeEngine exercises the degenerate one-run
#: path; the grouped cross-run path is pinned by differential_group_run.
BACKEND_COMBINATIONS = (
    ("incremental", "incremental"),
    ("incremental", "reference"),
    ("reference", "incremental"),
    ("multirun", "incremental"),
)


def random_phased_workload(seed: int, size: Optional[int] = None) -> Workload:
    """A seeded random workload with phased benchmarks guaranteed."""
    rng = np.random.default_rng(seed)
    if size is None:
        size = int(rng.choice([4, 6, 8]))
    return random_workload(f"oracle-{seed}", size, kind="P", rng=rng)


def make_driver(name: str, backend: str):
    """Fresh driver instance for one run (drivers carry mutable state)."""
    if name == "stock":
        return StockLinuxDriver()  # no decision layer: backend-free baseline
    if name == "dunn":
        return DunnUserLevelDaemon(backend=backend)
    if name == "lfoc":
        return LfocSchedulerPlugin(monitor_config=ORACLE_MONITOR, backend=backend)
    raise ValueError(f"unknown oracle driver {name!r}")


# Module-level factories (picklable) for study-level differential runs
# through fig7_dynamic_study / run_study.


def dunn_reference():
    return DunnUserLevelDaemon(backend="reference")


def dunn_incremental():
    return DunnUserLevelDaemon(backend="incremental")


def lfoc_reference():
    return LfocSchedulerPlugin(backend="reference")


def lfoc_incremental():
    return LfocSchedulerPlugin(backend="incremental")


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
    """One run under an explicit backend combination, reduced for comparison."""
    platform = platform or skylake_gold_6138()
    engine = RuntimeEngine(
        platform,
        workload.phased_profiles(platform.llc_ways),
        make_driver(driver_name, driver_backend),
        replace(config, backend=engine_backend),
    )
    return run_fields(engine.run(workload.name))


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


def assert_identical(candidate: Dict, baseline: Dict, context: str) -> None:
    """Strict equality with a first-divergence diagnosis."""
    if candidate == baseline:
        return
    for field in baseline:
        if candidate.get(field) != baseline[field]:
            raise AssertionError(
                f"{context}: field {field!r} diverged from the reference "
                f"baseline\n  reference:   {baseline[field]!r}\n"
                f"  incremental: {candidate.get(field)!r}"
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
