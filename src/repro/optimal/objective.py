"""Cached objective function for the optimal-solution search.

Walking the clustering search space (Section 3) requires evaluating hundreds
of thousands of candidate solutions.  Re-running the full contention estimator
for every candidate would be wasteful because the same (cluster members, way
count) pairs reappear over and over across candidates: with ``n``
applications there are only ``2^n × k`` distinct clusters, while the number of
clusterings grows like the Bell number.

:class:`CachedObjective` therefore evaluates candidates from per-cluster
building blocks:

* for each distinct ``(frozenset of members, ways)`` pair it runs the
  occupancy model once and caches each member's cache-sharing slowdown,
  bandwidth demand and stall fraction;
* a candidate clustering is then scored by combining the cached pieces and
  applying the workload-wide bandwidth-contention correction.

The combination step is exact with respect to the full estimator because
non-overlapping clusters do not interact through cache space — only through
the bandwidth model, which is applied at the workload level here exactly as
:class:`~repro.simulator.estimator.ClusteringEstimator` applies it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Mapping, Sequence, Tuple

from repro.apps.profile import AppProfile
from repro.core.types import WayAllocation
from repro.errors import SolverError
from repro.hardware.platform import PlatformSpec
from repro.metrics.fairness import _validate_slowdowns
from repro.simulator.bandwidth import BandwidthModel, read_demand
from repro.simulator.estimator import _ipc_with_extrapolation
from repro.simulator.occupancy import OccupancyModel

__all__ = ["ClusterPieces", "CandidateScore", "CachedObjective"]


@dataclass(frozen=True)
class ClusterPieces:
    """Cached per-member quantities for one (members, ways) cluster."""

    cache_slowdowns: Dict[str, float]
    bandwidth_gbs: Dict[str, float]
    stall_fractions: Dict[str, float]
    #: Sum of ``bandwidth_gbs`` accumulated in sorted member order.  Candidate
    #: scoring adds these per-cluster totals together (instead of re-summing
    #: the flat per-application demands) so the dense tables of
    #: :mod:`repro.optimal.tabulated` can combine the same partial sums and
    #: reproduce these scores bit for bit.
    demand_total_gbs: float = 0.0


def _better(u_a: float, s_a: float, u_b: float, s_b: float, objective: str) -> bool:
    """Whether score ``(u_a, s_a)`` beats ``(u_b, s_b)`` under ``objective``.

    ``fairness``: lower unfairness wins, STP breaks ties (the paper's
    "optimal (minimal) unfairness value for the maximum throughput
    attainable").  ``throughput``: higher STP wins, unfairness breaks ties.
    """
    if objective == "fairness":
        if abs(u_a - u_b) > 1e-9:
            return u_a < u_b
        return s_a > s_b + 1e-12
    if objective == "throughput":
        if abs(s_a - s_b) > 1e-9:
            return s_a > s_b
        return u_a < u_b - 1e-12
    raise SolverError(f"unknown objective {objective!r}")


@dataclass(frozen=True)
class CandidateScore:
    """Score of one candidate clustering."""

    unfairness: float
    stp: float
    slowdowns: Dict[str, float]

    def better_than(self, other: "CandidateScore", objective: str) -> bool:
        """Whether this score beats ``other`` under ``objective`` (:func:`_better`)."""
        return _better(self.unfairness, self.stp, other.unfairness, other.stp, objective)


class CachedObjective:
    """Evaluate candidate clusterings from cached per-cluster pieces."""

    def __init__(
        self,
        platform: PlatformSpec,
        profiles: Mapping[str, AppProfile],
        *,
        occupancy_model: OccupancyModel | None = None,
        bandwidth_model: BandwidthModel | None = None,
    ) -> None:
        if not profiles:
            raise SolverError("the objective needs at least one application profile")
        self.platform = platform
        self.profiles = dict(profiles)
        self._known_apps = frozenset(self.profiles)
        self.occupancy_model = occupancy_model or OccupancyModel()
        self.bandwidth_model = bandwidth_model or BandwidthModel()
        self._cluster_cache: Dict[Tuple[FrozenSet[str], int], ClusterPieces] = {}

    # -- per-cluster building blocks --------------------------------------------

    def cluster_pieces(self, members: Iterable[str], ways: int) -> ClusterPieces:
        """Cache-sharing slowdowns and bandwidth terms for one cluster.

        ``ways`` must be an ``int`` in ``[1, platform.llc_ways]`` and every
        member a profiled application; anything else raises
        :class:`SolverError` naming the value before the cache is consulted.
        """
        if isinstance(ways, bool) or not isinstance(ways, int):
            raise SolverError(f"a cluster's way count must be an int, got {ways!r}")
        if not 1 <= ways <= self.platform.llc_ways:
            raise SolverError(
                f"a cluster must receive 1..{self.platform.llc_ways} ways, got {ways}"
            )
        group = frozenset(members)
        if not group:
            raise SolverError("a cluster must contain at least one application")
        if not group <= self._known_apps:
            raise SolverError(
                f"no profile registered for applications {sorted(group - self._known_apps)}"
            )
        key = (group, ways)
        cached = self._cluster_cache.get(key)
        if cached is not None:
            return cached
        member_list = sorted(group)
        mask = (1 << ways) - 1
        allocation = WayAllocation(masks={app: mask for app in member_list}, total_ways=ways)
        occupancy = self.occupancy_model.solve(allocation, self.profiles)
        cache_slowdowns: Dict[str, float] = {}
        for app in member_list:
            profile = self.profiles[app]
            ipc = _ipc_with_extrapolation(profile, occupancy.effective_ways[app])
            cache_slowdowns[app] = profile.ipc_alone / max(ipc, 1e-12)
        _, bandwidth, stalls = read_demand(
            occupancy.effective_ways, self.profiles, self.platform
        )
        demand_total = 0.0
        for app in member_list:
            demand_total += bandwidth[app]
        pieces = ClusterPieces(
            cache_slowdowns=cache_slowdowns,
            bandwidth_gbs=bandwidth,
            stall_fractions=stalls,
            demand_total_gbs=demand_total,
        )
        self._cluster_cache[key] = pieces
        return pieces

    # -- candidate scoring --------------------------------------------------------

    def score_candidate(
        self, groups: Sequence[Sequence[str]], ways: Sequence[int]
    ) -> CandidateScore:
        """Score one clustering candidate given parallel groups/ways sequences."""
        if len(groups) != len(ways):
            raise SolverError("groups and ways must have the same length")
        unfairness, stp, slowdowns = self._combine(
            [self.cluster_pieces(group, way) for group, way in zip(groups, ways)]
        )
        return CandidateScore(unfairness=unfairness, stp=stp, slowdowns=slowdowns)

    def _combine(
        self, parts: Sequence[ClusterPieces]
    ) -> Tuple[float, float, Dict[str, float]]:
        """``(unfairness, stp, slowdowns)`` of the clusters ``parts``, in order.

        The one place where candidate pieces are combined: the slowdowns in
        cluster order, the workload-wide bandwidth correction and both
        metrics.  Callers pass pieces from :meth:`cluster_pieces`, which has
        already validated each cluster.
        """
        slowdowns: Dict[str, float] = {}
        total_demand = 0.0
        for pieces in parts:
            slowdowns.update(pieces.cache_slowdowns)
            total_demand += pieces.demand_total_gbs
        if total_demand > self.platform.peak_bw_gbs:
            overcommit = total_demand / self.platform.peak_bw_gbs
            for pieces in parts:
                for app, stall in pieces.stall_fractions.items():
                    factor = 1.0 + self.bandwidth_model.sensitivity * stall * (
                        overcommit - 1.0
                    )
                    factor = min(max(factor, 1.0), self.bandwidth_model.max_factor)
                    slowdowns[app] = slowdowns[app] * factor
        # One validation for both metrics, with the NumPy operations of
        # repro.metrics.fairness.unfairness and .stp.
        values = _validate_slowdowns(slowdowns.values())
        return float(values.max() / values.min()), float((1.0 / values).sum()), slowdowns
