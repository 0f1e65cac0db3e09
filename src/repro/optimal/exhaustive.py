"""Exhaustive optimal cache-clustering / cache-partitioning search.

This is the exact solver behind the Section 3 analysis: it walks *every*
feasible clustering (or strict partitioning) of the workload and returns the
one that optimises the requested objective — minimal unfairness with system
throughput as the tie-break, or maximal throughput.  Candidates are scored in
vectorized batches over the dense tables of :mod:`repro.optimal.tabulated`.

The search space grows like the Bell number, so the exhaustive solver is only
practical up to roughly nine applications (the paper makes the same point in
Section 2.2); larger workloads should use :mod:`repro.optimal.bnb` (same
result, pruned) or :mod:`repro.optimal.local_search` (approximate).  A
study parallelises across workloads, one search per worker process, through
its executor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Optional, Sequence

from repro.apps.profile import AppProfile
from repro.core.types import ClusteringSolution
from repro.errors import SolverError
from repro.hardware.platform import PlatformSpec
from repro.optimal.objective import CandidateScore
from repro.optimal.partitions import set_partitions
from repro.optimal.tabulated import (
    TabulatedObjective,
    _compositions_array,
    _Incumbent,
    _scan_partition,
)

__all__ = ["OptimalResult", "optimal_clustering", "optimal_partitioning"]


@dataclass(frozen=True)
class OptimalResult:
    """Outcome of an optimal-solution search."""

    solution: ClusteringSolution
    score: CandidateScore
    candidates_evaluated: int
    objective: str

    @property
    def unfairness(self) -> float:
        return self.score.unfairness

    @property
    def stp(self) -> float:
        return self.score.stp


def _validate_workload(apps: Sequence[str], profiles: Mapping[str, AppProfile]) -> List[str]:
    apps = list(apps)
    if not apps:
        raise SolverError("the workload must contain at least one application")
    missing = [a for a in apps if a not in profiles]
    if missing:
        raise SolverError(f"no profiles registered for applications {missing}")
    if len(set(apps)) != len(apps):
        raise SolverError("application names must be unique")
    return apps


def _check_objective(objective: str) -> None:
    if objective not in ("fairness", "throughput"):
        raise SolverError(f"unknown objective {objective!r}")


def _cluster_limit(n_apps: int, k: int, max_clusters: Optional[int]) -> int:
    """Largest cluster count a search may use (``min(n, k)``, optionally capped)."""
    limit = min(n_apps, k)
    if max_clusters is not None:
        if max_clusters < 1:
            raise SolverError("max_clusters must be >= 1")
        limit = min(limit, max_clusters)
    return limit


def _finalize(
    tables: TabulatedObjective,
    incumbent: Optional[_Incumbent],
    evaluated: int,
    objective: str,
) -> OptimalResult:
    """Re-score the winning candidate exactly and wrap it as a result."""
    if incumbent is None:
        raise SolverError("the search found no feasible candidate")
    score = tables.exact_score(incumbent.groups, list(incumbent.ways))
    solution = ClusteringSolution.from_groups(
        incumbent.groups, list(incumbent.ways), tables.n_ways
    )
    return OptimalResult(
        solution=solution,
        score=score,
        candidates_evaluated=evaluated,
        objective=objective,
    )


def optimal_clustering(
    platform: PlatformSpec,
    profiles: Mapping[str, AppProfile],
    apps: Optional[Sequence[str]] = None,
    *,
    objective: str = "fairness",
    max_clusters: Optional[int] = None,
    tables: Optional[TabulatedObjective] = None,
) -> OptimalResult:
    """Exhaustively search for the optimal cache clustering.

    Parameters
    ----------
    platform, profiles:
        The machine model and per-application profiles.
    apps:
        Application names to cluster (defaults to every profiled application).
    objective:
        ``"fairness"`` (minimal unfairness, STP tie-break — the paper's
        setting) or ``"throughput"`` (maximal STP).
    max_clusters:
        Optional cap on the number of clusters (defaults to ``min(n, k)``).
    tables:
        Pre-built :class:`TabulatedObjective` over the workload, to share the
        table build across several searches (Fig. 3 does this).
    """
    _check_objective(objective)
    apps = _validate_workload(apps if apps is not None else list(profiles), profiles)
    k = platform.llc_ways
    limit = _cluster_limit(len(apps), k, max_clusters)
    tables = tables or TabulatedObjective(platform, profiles, apps)
    incumbent: Optional[_Incumbent] = None
    evaluated = 0
    for groups in set_partitions(apps, limit):
        comps = _compositions_array(k, len(groups))
        incumbent = _scan_partition(tables, groups, comps, incumbent, objective)
        evaluated += len(comps)
    return _finalize(tables, incumbent, evaluated, objective)


def optimal_partitioning(
    platform: PlatformSpec,
    profiles: Mapping[str, AppProfile],
    apps: Optional[Sequence[str]] = None,
    *,
    objective: str = "fairness",
    tables: Optional[TabulatedObjective] = None,
) -> OptimalResult:
    """Exhaustively search for the optimal *strict* cache partitioning.

    Every application gets its own partition; only the way distribution is
    searched.  Requires ``n <= k`` (otherwise partitioning is infeasible, as
    Section 2.2 notes).  Without shared ``tables`` only the ``n`` singleton
    clusters are tabulated.
    """
    _check_objective(objective)
    apps = _validate_workload(apps if apps is not None else list(profiles), profiles)
    k = platform.llc_ways
    if len(apps) > k:
        raise SolverError(
            f"strict partitioning of {len(apps)} applications is infeasible on a "
            f"{k}-way LLC"
        )
    if tables is None:
        tables = TabulatedObjective(
            platform,
            profiles,
            apps,
            cluster_masks=[1 << j for j in range(len(apps))],
        )
    groups = [[app] for app in apps]
    comps = _compositions_array(k, len(apps))
    incumbent = _scan_partition(tables, groups, comps, None, objective)
    return _finalize(tables, incumbent, len(comps), objective)
