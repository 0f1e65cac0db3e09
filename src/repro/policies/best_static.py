"""Best-Static: the fairness-optimal clustering from the offline simulator.

In Section 5.1 the paper compares every heuristic against ``Best-Static``, the
cache partitions and application-to-cluster mappings of the *optimal fairness
solution* determined by the PBBCache simulator.  This policy wraps the solvers
of :mod:`repro.optimal`: exact branch and bound over the dense tables of
:mod:`repro.optimal.tabulated` when the workload is small enough, randomised
local search beyond that (the threshold is configurable).
"""

from __future__ import annotations

from typing import Mapping, Optional

from repro.apps.profile import AppProfile
from repro.core.types import ClusteringSolution
from repro.errors import ClusteringError
from repro.hardware.platform import PlatformSpec
from repro.optimal.bnb import branch_and_bound_clustering
from repro.optimal.local_search import local_search_clustering
from repro.policies.base import ClusteringPolicy

__all__ = ["BestStaticPolicy"]


class BestStaticPolicy(ClusteringPolicy):
    """Fairness-optimal (or near-optimal) static clustering."""

    name = "Best-Static"

    def __init__(
        self,
        objective: str = "fairness",
        exact_limit: int = 7,
        local_search_iterations: int = 1500,
        seed: int = 0,
    ) -> None:
        """
        Parameters
        ----------
        objective:
            ``"fairness"`` (the paper's setting) or ``"throughput"``.
        exact_limit:
            Largest workload size solved exactly (branch and bound over the
            dense tables, so at most ``MAX_TABULATED_APPS``); larger workloads
            fall back to the randomised local search.
        local_search_iterations, seed:
            Local-search budget and RNG seed for the fallback path.
        """
        if objective not in ("fairness", "throughput"):
            raise ClusteringError(f"unknown objective {objective!r}")
        if exact_limit < 1:
            raise ClusteringError("exact_limit must be >= 1")
        self.objective = objective
        self.exact_limit = exact_limit
        self.local_search_iterations = local_search_iterations
        self.seed = seed

    def decide(
        self, profiles: Mapping[str, AppProfile], platform: PlatformSpec
    ) -> ClusteringSolution:
        self._check_workload(profiles, platform)
        resampled = {
            name: profile.resampled(platform.llc_ways)
            for name, profile in profiles.items()
        }
        if len(resampled) <= self.exact_limit:
            result = branch_and_bound_clustering(
                platform, resampled, objective=self.objective
            )
        else:
            result = local_search_clustering(
                platform,
                resampled,
                objective=self.objective,
                iterations=self.local_search_iterations,
                seed=self.seed,
            )
        return result.solution
