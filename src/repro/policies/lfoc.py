"""LFOC as a static clustering policy.

This wraps the core Algorithm 1 (:mod:`repro.core.lfoc`) with the Table 1
classifier so it can be used in the Section 5.1 static study: given offline
profiles, classify every application, build the slowdown tables for the
sensitive ones, and run the clustering algorithm.  A second variant drives the
integer-only kernel implementation instead — same inputs, fixed-point tables.
"""

from __future__ import annotations

from typing import Dict, Mapping

from repro.apps.profile import AppProfile
from repro.core.caching import LruDict
from repro.core.classification import (
    AppClass,
    ClassificationThresholds,
    classify_profile,
)
from repro.core.fixedpoint import table_to_fixed
from repro.core.lfoc import DEFAULT_PARAMS, LfocDecisionCache, LfocParams
from repro.core.lfoc_kernel import lfoc_clustering_kernel
from repro.core.types import ClusteringSolution
from repro.hardware.platform import PlatformSpec
from repro.policies.base import ClusteringPolicy

__all__ = ["LfocPolicy", "LfocKernelPolicy"]


def _classify_and_tabulate(
    profiles: Mapping[str, AppProfile],
    platform: PlatformSpec,
    thresholds: ClassificationThresholds,
):
    """Split the workload into ST/CS/LS sets and build sensitive slowdown tables."""
    streaming, sensitive, light = [], [], []
    tables: Dict[str, list] = {}
    for name, profile in profiles.items():
        resampled = profile.resampled(platform.llc_ways)
        klass = classify_profile(resampled, thresholds)
        if klass is AppClass.STREAMING:
            streaming.append(name)
        elif klass is AppClass.SENSITIVE:
            sensitive.append(name)
            tables[name] = list(resampled.slowdown_table())
        else:
            # Light sharing and (for robustness) unknown applications.
            light.append(name)
    return streaming, sensitive, light, tables


class LfocPolicy(ClusteringPolicy):
    """LFOC clustering from offline profiles (floating-point path)."""

    name = "LFOC"

    #: Bound on memoized whole-workload decisions (LRU).
    _DECISION_CACHE_ENTRIES = 512

    def __init__(
        self,
        params: LfocParams = DEFAULT_PARAMS,
        thresholds: ClassificationThresholds = ClassificationThresholds(),
    ) -> None:
        """Whole decisions are memoized per value-fingerprint of the
        workload's profiles (skipping the classification/resampling pass
        when the same profiles recur across studies in one process), and the
        Algorithm 1 results are shared through a
        :class:`~repro.core.lfoc.LfocDecisionCache`.
        """
        self.params = params
        self.thresholds = thresholds
        self._decision_cache = LfocDecisionCache(params=params)
        self._decisions = LruDict(self._DECISION_CACHE_ENTRIES)

    def decide(
        self, profiles: Mapping[str, AppProfile], platform: PlatformSpec
    ) -> ClusteringSolution:
        self._check_workload(profiles, platform)
        key = (
            tuple((name, prof.value_fingerprint()) for name, prof in profiles.items()),
            platform,
        )
        solution = self._decisions.get(key)
        if solution is None:
            streaming, sensitive, light, tables = _classify_and_tabulate(
                profiles, platform, self.thresholds
            )
            solution = self._decision_cache.solution_for(
                streaming, sensitive, light, platform.llc_ways, tables
            )
            self._decisions.put(key, solution)
        return solution


class LfocKernelPolicy(ClusteringPolicy):
    """LFOC clustering through the integer-only (kernel-style) implementation."""

    name = "LFOC-kernel"

    def __init__(
        self,
        params: LfocParams = DEFAULT_PARAMS,
        thresholds: ClassificationThresholds = ClassificationThresholds(),
    ) -> None:
        self.params = params
        self.thresholds = thresholds

    def decide(
        self, profiles: Mapping[str, AppProfile], platform: PlatformSpec
    ) -> ClusteringSolution:
        self._check_workload(profiles, platform)
        streaming, sensitive, light, tables = _classify_and_tabulate(
            profiles, platform, self.thresholds
        )
        fixed_tables = {name: table_to_fixed(table) for name, table in tables.items()}
        return lfoc_clustering_kernel(
            streaming, sensitive, light, platform.llc_ways, fixed_tables, self.params
        )
