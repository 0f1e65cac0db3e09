"""Branch-and-bound optimal clustering search (PBBCache's approach).

The exhaustive solver scores every (partition, way composition) pair.  The
branch-and-bound solver returns the *same* optimum while pruning two levels of
the search tree:

* **partition level** — before enumerating any way composition for a candidate
  partition, a cheap lower bound on the best unfairness the partition could
  possibly achieve is compared against the incumbent; hopeless partitions are
  skipped wholesale;
* **composition level** — way counts are assigned to clusters one at a time,
  and a partial assignment is abandoned as soon as the slowdowns already fixed
  make the incumbent unreachable.

Both bounds rely on two monotonicity facts about the objective model: an
application's cache-sharing slowdown never decreases when its cluster loses
ways, and the bandwidth correction can only increase slowdowns (by at most a
workload-wide factor that is computed up front).  The solver is exact: the
test suite checks it returns the same optimum as the exhaustive search.

Both bound levels are O(1) reads of the dense tables of
:mod:`repro.optimal.tabulated`: the per-row max/min member slowdowns.  For
the throughput objective the unfairness bounds do not apply and only the
structural enumeration is shared; pruning is disabled.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.apps.profile import AppProfile
from repro.hardware.platform import PlatformSpec
from repro.optimal.exhaustive import (
    OptimalResult,
    _check_objective,
    _cluster_limit,
    _finalize,
    _validate_workload,
)
from repro.optimal.objective import _better
from repro.optimal.partitions import set_partitions
from repro.optimal.tabulated import TabulatedObjective, _Incumbent

__all__ = ["branch_and_bound_clustering"]


def _bandwidth_factor_upper_bound(
    platform: PlatformSpec,
    profiles: Mapping[str, AppProfile],
    bandwidth_model,
    apps: Sequence[str],
) -> float:
    """Workload-wide upper bound on the bandwidth slowdown factor.

    The aggregate DRAM demand is maximised when every application is squeezed
    to its smallest possible allocation (misses only grow as space shrinks),
    so the over-commit — and therefore the correction factor — computed in
    that configuration bounds every reachable configuration.
    """
    total = 0.0
    for app in apps:
        profile = profiles[app]
        total += profile.bandwidth_gbs_at(0.25, platform)
    if total <= platform.peak_bw_gbs:
        return 1.0
    overcommit = total / platform.peak_bw_gbs
    factor = 1.0 + bandwidth_model.sensitivity * (overcommit - 1.0)
    return min(max(factor, 1.0), bandwidth_model.max_factor)


def branch_and_bound_clustering(
    platform: PlatformSpec,
    profiles: Mapping[str, AppProfile],
    apps: Optional[Sequence[str]] = None,
    *,
    objective: str = "fairness",
    max_clusters: Optional[int] = None,
    tables: Optional[TabulatedObjective] = None,
) -> OptimalResult:
    """Exact optimal clustering with partition- and composition-level pruning.

    Returns the same solution as
    :func:`repro.optimal.exhaustive.optimal_clustering` (verified by tests)
    while typically scoring far fewer candidates.  ``tables`` shares a
    pre-built :class:`TabulatedObjective` across searches.
    """
    _check_objective(objective)
    apps = _validate_workload(apps if apps is not None else list(profiles), profiles)
    k = platform.llc_ways
    limit = _cluster_limit(len(apps), k, max_clusters)
    tables = tables or TabulatedObjective(platform, profiles, apps)
    prune = objective == "fairness"
    bw_factor_ub = (
        _bandwidth_factor_upper_bound(
            platform, tables.profiles, tables.bandwidth_model, apps
        )
        if prune
        else 1.0
    )

    incumbent: Optional[_Incumbent] = None
    evaluated = 0
    for groups in set_partitions(apps, limit):
        m = len(groups)
        masks = [tables.group_mask(group) for group in groups]
        generous = max(k - (m - 1), 1)
        if prune and incumbent is not None:
            # Lower bound on the maximum slowdown: every cluster could at best
            # receive the most generous feasible allocation.
            max_slowdown_lb = 0.0
            # Upper bound on the minimum slowdown: some application will do no
            # worse than being squeezed to one way (times the bandwidth bound).
            min_slowdown_ub = float("inf")
            for mask in masks:
                max_slowdown_lb = max(
                    max_slowdown_lb, tables.cluster_max_slowdown(mask, generous)
                )
                min_slowdown_ub = min(
                    min_slowdown_ub,
                    tables.cluster_min_slowdown(mask, 1) * bw_factor_ub,
                )
            if max_slowdown_lb / min_slowdown_ub >= incumbent.unfairness - 1e-12:
                continue
        else:
            min_slowdown_ub = float("inf")
            if prune:
                for mask in masks:
                    min_slowdown_ub = min(
                        min_slowdown_ub,
                        tables.cluster_min_slowdown(mask, 1) * bw_factor_ub,
                    )

        # Composition-level branch and bound: assign ways cluster by cluster.
        def assign(
            index: int, remaining: int, ways_prefix: Tuple[int, ...], partial_max: float
        ) -> None:
            nonlocal incumbent, evaluated
            if index == m:
                if remaining != 0:  # pragma: no cover - construction prevents this
                    return
                entries = np.asarray(
                    [
                        [
                            mask * k + (ways - 1)
                            for mask, ways in zip(masks, ways_prefix)
                        ]
                    ],
                    dtype=np.int64,
                )
                unfairness, stp = tables.score_entries(entries)
                u, s = float(unfairness[0]), float(stp[0])
                evaluated += 1
                if incumbent is None or _better(
                    u, s, incumbent.unfairness, incumbent.stp, objective
                ):
                    incumbent = _Incumbent(
                        unfairness=u,
                        stp=s,
                        groups=[list(group) for group in groups],
                        ways=ways_prefix,
                    )
                return
            clusters_left = m - index
            max_here = remaining - (clusters_left - 1)
            for ways_here in range(1, max_here + 1):
                new_partial_max = max(
                    partial_max, tables.cluster_max_slowdown(masks[index], ways_here)
                )
                if (
                    prune
                    and incumbent is not None
                    and new_partial_max / min_slowdown_ub
                    >= incumbent.unfairness - 1e-12
                ):
                    # Giving this cluster even fewer ways only raises the bound,
                    # but *more* ways may still help, so keep scanning upwards.
                    continue
                assign(
                    index + 1,
                    remaining - ways_here,
                    ways_prefix + (ways_here,),
                    new_partial_max,
                )

        assign(0, k, (), 0.0)
    return _finalize(tables, incumbent, evaluated, objective)
