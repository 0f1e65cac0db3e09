"""KPart: hybrid cache partitioning/sharing for throughput (El-Sayed et al., HPCA'18).

KPart builds a full dendrogram of the workload by hierarchical agglomeration —
at every step it merges the two clusters with the smallest Whirlpool-style
distance between their miss curves — and then, for every level of the
hierarchy (every possible cluster count), sizes the clusters with UCP's
lookahead over the clusters' *combined* MPKI curves and estimates the
resulting throughput from the combined IPC curves.  The level with the best
estimated throughput wins.

This is the expensive part the paper contrasts with LFOC in Table 2: the
algorithm builds a combined curve for every group the agglomeration forms and
re-runs lookahead at every level, needing IPC and MPKI values for *every* way
count of *every* application, while LFOC only needs slowdown tables for the
sensitive applications.  :meth:`KPartPolicy.decide` builds each group's curve
once, during the agglomeration, and reuses it when it evaluates the levels;
each pairwise Whirlpool distance is likewise computed once.

The implementation is deliberately self-contained (it only consumes profile
curves) so that its execution time can be measured in isolation, as Table 2
does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.apps.profile import AppProfile
from repro.core.lookahead import lookahead
from repro.core.types import ClusteringSolution
from repro.errors import ClusteringError
from repro.hardware.platform import PlatformSpec
from repro.policies.base import ClusteringPolicy
from repro.simulator.whirlpool import combined_miss_curve, whirlpool_distance

__all__ = ["KPartPolicy", "build_dendrogram", "evaluate_level"]


@dataclass(frozen=True)
class _Level:
    """One level of the agglomeration hierarchy."""

    groups: Tuple[Tuple[str, ...], ...]
    ways: Tuple[int, ...]
    estimated_speedup: float


def _agglomerate(
    profiles: Mapping[str, AppProfile], n_ways: int
) -> Tuple[List[List[List[str]]], Dict[Tuple[str, ...], np.ndarray]]:
    """The dendrogram levels plus the combined miss curve of every group in them.

    Each group's curve is built once, keyed by its member tuple (member
    order matters: the combined curve sums in member order).  A merge only
    removes two groups and appends one, so the distance between two
    surviving groups is computed once and reused in every later round.
    """
    if not profiles:
        raise ClusteringError("KPart needs at least one application")
    groups: List[Tuple[str, ...]] = [(name,) for name in profiles]
    curves: Dict[Tuple[str, ...], np.ndarray] = {
        group: combined_miss_curve([profiles[a] for a in group], n_ways)
        for group in groups
    }
    distances: Dict[Tuple[Tuple[str, ...], Tuple[str, ...]], float] = {}
    levels: List[List[List[str]]] = [[list(g) for g in groups]]
    while len(groups) > 1:
        best_pair: Optional[Tuple[int, int]] = None
        best_distance = np.inf
        for i in range(len(groups)):
            for j in range(i + 1, len(groups)):
                pair = (groups[i], groups[j])
                distance = distances.get(pair)
                if distance is None:
                    distance = distances[pair] = whirlpool_distance(
                        curves[groups[i]], curves[groups[j]]
                    )
                if distance < best_distance:
                    best_distance = distance
                    best_pair = (i, j)
        assert best_pair is not None
        i, j = best_pair
        merged = groups[i] + groups[j]
        groups = [g for idx, g in enumerate(groups) if idx not in (i, j)]
        groups.append(merged)
        curves[merged] = combined_miss_curve([profiles[a] for a in merged], n_ways)
        levels.append([list(g) for g in groups])
    return levels, curves


def build_dendrogram(
    profiles: Mapping[str, AppProfile], n_ways: int
) -> List[List[List[str]]]:
    """Agglomerative merge order: list of groupings, from n clusters down to 1.

    The first element has every application in its own cluster; each following
    element merges the two clusters with the smallest Whirlpool distance of
    the previous one.
    """
    return _agglomerate(profiles, n_ways)[0]


def evaluate_level(
    groups: Sequence[Sequence[str]],
    profiles: Mapping[str, AppProfile],
    n_ways: int,
) -> Tuple[List[int], float]:
    """Size the clusters of one hierarchy level and estimate its throughput.

    Returns the per-cluster way counts (from lookahead over the combined MPKI
    curves) and the estimated weighted speedup: the sum over applications of
    the IPC they would achieve at their cluster's share divided by their alone
    IPC.
    """
    if len(groups) > n_ways:
        raise ClusteringError(
            f"{len(groups)} clusters cannot each receive a way out of {n_ways}"
        )
    miss_curves = [
        combined_miss_curve([profiles[a] for a in group], n_ways) for group in groups
    ]
    return _evaluate_level(groups, miss_curves, profiles, n_ways)


def _evaluate_level(
    groups: Sequence[Sequence[str]],
    miss_curves: Sequence[np.ndarray],
    profiles: Mapping[str, AppProfile],
    n_ways: int,
) -> Tuple[List[int], float]:
    """:func:`evaluate_level` given the groups' combined miss curves."""
    ways = lookahead(miss_curves, n_ways, min_ways=1)
    speedup = 0.0
    for group, way in zip(groups, ways):
        members = [profiles[a] for a in group]
        # Split the cluster's ways among members by miss pressure, mirroring
        # what sharing the partition will actually do.
        pressures = np.array([max(p.llcmpkc_at(max(way / len(members), 0.5)), 0.05) for p in members])
        shares = pressures / pressures.sum() * way
        for profile, share in zip(members, shares):
            speedup += profile.ipc_at(max(share, 1.0)) / profile.ipc_alone
    return ways, float(speedup)


class KPartPolicy(ClusteringPolicy):
    """Throughput-oriented hierarchical cache clustering."""

    name = "KPart"

    def __init__(self, max_clusters: Optional[int] = None) -> None:
        """``max_clusters`` optionally caps the number of clusters considered
        (the hardware CLOS limit would impose one in practice)."""
        if max_clusters is not None and max_clusters < 1:
            raise ClusteringError("max_clusters must be >= 1")
        self.max_clusters = max_clusters

    def decide(
        self, profiles: Mapping[str, AppProfile], platform: PlatformSpec
    ) -> ClusteringSolution:
        self._check_workload(profiles, platform)
        k = platform.llc_ways
        resampled = {name: p.resampled(k) for name, p in profiles.items()}
        # Every level's groups are groups of the dendrogram, so their
        # combined miss curves come from the agglomeration, not a rebuild.
        levels, curves = _agglomerate(resampled, k)
        best: Optional[_Level] = None
        for groups in levels:
            if len(groups) > k:
                continue  # infeasible level: more clusters than ways
            if self.max_clusters is not None and len(groups) > self.max_clusters:
                continue
            ways, speedup = _evaluate_level(
                groups, [curves[tuple(g)] for g in groups], resampled, k
            )
            if best is None or speedup > best.estimated_speedup + 1e-12:
                best = _Level(
                    groups=tuple(tuple(g) for g in groups),
                    ways=tuple(ways),
                    estimated_speedup=speedup,
                )
        if best is None:
            raise ClusteringError(
                "KPart found no feasible hierarchy level (more applications than "
                "ways and no coarse level allowed)"
            )
        return ClusteringSolution.from_groups(
            [list(g) for g in best.groups], list(best.ways), k
        )
