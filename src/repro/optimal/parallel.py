"""Multiprocessing driver for the optimal clustering search.

PBBCache — the simulator the paper uses to approximate the optimal solution —
runs a *parallel* branch-and-bound.  This module provides the equivalent for
our solvers: the space of set partitions is sharded by partition index and
each shard is explored in a separate worker process; the best candidate across
shards wins.

The dense scoring tables of :mod:`repro.optimal.tabulated` are built **once**
in the parent and shipped to every worker through the pool initializer, so
workers start batch-scoring immediately instead of re-solving the occupancy
model for every (cluster, ways) pair in their shard.

Because worker processes cannot share the incumbent bound cheaply, each worker
exhaustively scores its shard only; the merge step then applies the global
objective comparison.  The result is identical to the sequential solvers, and
the speed-up comes from the embarrassingly parallel shard structure.
"""

from __future__ import annotations

import multiprocessing as mp
from typing import Mapping, Optional, Sequence, Tuple

from repro.apps.profile import AppProfile
from repro.core.types import ClusteringSolution
from repro.errors import SolverError
from repro.hardware.platform import PlatformSpec
from repro.optimal.exhaustive import (
    OptimalResult,
    _check_objective,
    _cluster_limit,
    _validate_workload,
)
from repro.optimal.objective import CandidateScore
from repro.optimal.partitions import set_partitions
from repro.optimal.tabulated import (
    TabulatedObjective,
    _compositions_array,
    _scan_partition,
)

__all__ = ["parallel_optimal_clustering"]


# The shared tables live in a module-level slot populated once per worker
# process by the pool initializer (spawned workers inherit nothing, so the
# tables travel through initargs exactly once instead of once per task).
_WORKER_TABLES = None


def _init_worker(tables) -> None:
    global _WORKER_TABLES
    _WORKER_TABLES = tables


def _scan_shard(args: Tuple) -> Tuple[Optional[dict], int]:
    """Explore one shard by batch-scoring over the shared dense tables."""
    (apps, objective, limit, shard_index, n_shards) = args
    tables = _WORKER_TABLES
    if tables is None:
        raise SolverError("shard worker started without shared tables")
    k = tables.n_ways
    incumbent = None
    evaluated = 0
    for partition_index, groups in enumerate(set_partitions(apps, limit)):
        if partition_index % n_shards != shard_index:
            continue
        comps = _compositions_array(k, len(groups))
        incumbent = _scan_partition(tables, groups, comps, incumbent, objective)
        evaluated += len(comps)
    if incumbent is None:
        return None, evaluated
    # Re-score the shard winner exactly so the merge step compares (and the
    # caller receives) bit-identical per-candidate scores.
    score = tables.exact_score(incumbent.groups, list(incumbent.ways))
    return (
        {
            "groups": incumbent.groups,
            "ways": list(incumbent.ways),
            "unfairness": score.unfairness,
            "stp": score.stp,
            "slowdowns": score.slowdowns,
        },
        evaluated,
    )


def parallel_optimal_clustering(
    platform: PlatformSpec,
    profiles: Mapping[str, AppProfile],
    apps: Optional[Sequence[str]] = None,
    *,
    objective: str = "fairness",
    max_clusters: Optional[int] = None,
    n_workers: Optional[int] = None,
) -> OptimalResult:
    """Exhaustive optimal clustering, sharded over worker processes.

    Produces the same optimum as the sequential exhaustive solver.  With
    ``n_workers=1`` the search runs in-process (useful for tests and for
    platforms where spawning processes is undesirable).  Workloads beyond
    :data:`~repro.optimal.tabulated.MAX_TABULATED_APPS` applications raise a
    :class:`SolverError`; use the local search for those.
    """
    _check_objective(objective)
    apps = _validate_workload(apps if apps is not None else list(profiles), profiles)
    k = platform.llc_ways
    limit = _cluster_limit(len(apps), k, max_clusters)
    if n_workers is None:
        n_workers = max(mp.cpu_count() - 1, 1)
    if n_workers < 1:
        raise SolverError("n_workers must be >= 1")

    tables = TabulatedObjective(platform, profiles, apps)
    shard_args = [
        (list(apps), objective, limit, shard, n_workers) for shard in range(n_workers)
    ]
    if n_workers == 1:
        _init_worker(tables)
        try:
            results = [_scan_shard(shard_args[0])]
        finally:
            _init_worker(None)
    else:
        ctx = mp.get_context("spawn")
        with ctx.Pool(
            processes=n_workers, initializer=_init_worker, initargs=(tables,)
        ) as pool:
            results = pool.map(_scan_shard, shard_args)

    best: Optional[dict] = None
    best_score: Optional[CandidateScore] = None
    evaluated = 0
    for candidate, count in results:
        evaluated += count
        if candidate is None:
            continue
        score = CandidateScore(
            unfairness=candidate["unfairness"],
            stp=candidate["stp"],
            slowdowns=candidate["slowdowns"],
        )
        if best_score is None or score.better_than(best_score, objective):
            best_score = score
            best = candidate
    if best is None or best_score is None:
        raise SolverError("parallel search found no feasible clustering")
    solution = ClusteringSolution.from_groups(best["groups"], best["ways"], k)
    return OptimalResult(
        solution=solution,
        score=best_score,
        candidates_evaluated=evaluated,
        objective=objective,
    )
