"""Approximate optimal clustering for large workloads.

The exact solvers become impractical beyond roughly nine or ten applications
(the paper quotes >5500M candidate clusterings for 11 applications on a
20-way LLC).  For the larger Fig. 2 / Fig. 3 configurations we therefore also
provide a randomised local search that approximates the fairness-optimal
clustering:

* the search starts from a small set of structured seeds (everything shared,
  strict partitioning where feasible, and an LFOC-style seed that isolates the
  highest-miss-rate applications);
* each step proposes a random move — move one application to another cluster,
  merge two clusters, split a cluster, or shift a way between clusters — and
  accepts it if the objective improves (steepest-descent with restarts).

The result carries the same :class:`~repro.optimal.exhaustive.OptimalResult`
interface as the exact solvers, plus the number of moves explored.

Random moves revisit states often (most proposals undo or repeat an earlier
move), so each call keeps a score memo: ``(unfairness, stp)`` per state,
keyed by the ordered tuple of per-group member bitmasks plus the ways tuple.
Group order belongs in the key because it fixes the order of the slowdown
dict and so the STP summation order; member order inside a group does not,
because :meth:`~repro.optimal.objective.CachedObjective.cluster_pieces`
sorts the members.  A memo hit is still counted and compared exactly like a
fresh score, and the best state is re-scored once at the end for the
returned :class:`~repro.optimal.objective.CandidateScore`, so results are
those of scoring every proposal.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.apps.profile import AppProfile
from repro.core.types import ClusteringSolution
from repro.errors import SolverError
from repro.hardware.platform import PlatformSpec
from repro.optimal.exhaustive import OptimalResult, _validate_workload
from repro.optimal.objective import CachedObjective
from repro.optimal.tabulated import _better

__all__ = ["local_search_clustering"]

def _seed_states(
    apps: List[str],
    profiles: Mapping[str, AppProfile],
    k: int,
) -> List[Tuple[List[List[str]], List[int]]]:
    seeds: List[Tuple[List[List[str]], List[int]]] = []
    # Everything in one shared cluster.
    seeds.append(([list(apps)], [k]))
    # Strict even partitioning (only feasible when n <= k).
    n = len(apps)
    if n <= k:
        ways = [k // n] * n
        for i in range(k - sum(ways)):
            ways[i] += 1
        seeds.append(([[a] for a in apps], ways))
    # LFOC-style seed: isolate the highest-miss-rate applications in one 1-way
    # cluster, spread the rest over the remaining ways.
    by_pressure = sorted(apps, key=lambda a: profiles[a].llcmpkc_at(1.0), reverse=True)
    aggressors = [a for a in by_pressure if profiles[a].llcmpkc_at(float(k)) >= 10.0]
    others = [a for a in by_pressure if a not in aggressors]
    if aggressors and others and k >= 2:
        remaining_ways = k - 1
        n_other_clusters = min(len(others), remaining_ways)
        groups: List[List[str]] = [list(aggressors)]
        ways = [1]
        other_groups: List[List[str]] = [[] for _ in range(n_other_clusters)]
        for index, app in enumerate(others):
            other_groups[index % n_other_clusters].append(app)
        other_ways = [remaining_ways // n_other_clusters] * n_other_clusters
        for i in range(remaining_ways - sum(other_ways)):
            other_ways[i] += 1
        groups.extend(other_groups)
        ways.extend(other_ways)
        seeds.append((groups, ways))
    return seeds


def local_search_clustering(
    platform: PlatformSpec,
    profiles: Mapping[str, AppProfile],
    apps: Optional[Sequence[str]] = None,
    *,
    objective: str = "fairness",
    iterations: int = 2000,
    restarts: int = 3,
    seed: int = 0,
    objective_fn: Optional[CachedObjective] = None,
) -> OptimalResult:
    """Randomised local search for a near-optimal clustering.

    ``iterations`` proposals are evaluated per restart; the best state over
    all restarts is returned.  Deterministic for a fixed ``seed``.
    """
    if objective not in ("fairness", "throughput"):
        raise SolverError(f"unknown objective {objective!r}")
    if iterations < 1 or restarts < 1:
        raise SolverError("iterations and restarts must be >= 1")
    apps = _validate_workload(apps if apps is not None else list(profiles), profiles)
    k = platform.llc_ways
    scorer = objective_fn or CachedObjective(platform, profiles)
    rng = np.random.default_rng(seed)
    bit = {app: 1 << index for index, app in enumerate(apps)}
    memo: Dict[Tuple[Tuple[int, ...], Tuple[int, ...]], Tuple[float, float]] = {}

    def score(groups: List[List[str]], ways: List[int]) -> Tuple[float, float]:
        # Memoized (unfairness, stp); see the module docstring for the key.
        key = (
            tuple(sum(bit[app] for app in group) for group in groups),
            tuple(ways),
        )
        cached = memo.get(key)
        if cached is None:
            result = scorer.score_candidate(groups, ways)
            cached = memo[key] = (result.unfairness, result.stp)
        return cached

    def propose(groups: List[List[str]], ways: List[int]) -> Optional[Tuple[List[List[str]], List[int]]]:
        # The current state's lists are never mutated: a move copies what it
        # changes once its feasibility checks have passed.
        move = rng.integers(0, 4)
        if move == 0 and len(groups) > 1:
            # Move one application to another cluster.
            src = int(rng.integers(0, len(groups)))
            if len(groups[src]) == 1:
                return None
            dst = int(rng.integers(0, len(groups)))
            if dst == src:
                return None
            app = groups[src][int(rng.integers(0, len(groups[src])))]
            groups = list(groups)
            groups[src] = [a for a in groups[src] if a != app]
            groups[dst] = groups[dst] + [app]
            return groups, ways
        if move == 1 and len(groups) > 1:
            # Merge two clusters (their ways add up).
            a, b = rng.choice(len(groups), size=2, replace=False)
            a, b = int(min(a, b)), int(max(a, b))
            groups = list(groups)
            ways = list(ways)
            groups[a] = groups[a] + groups[b]
            ways[a] += ways[b]
            del groups[b]
            del ways[b]
            return groups, ways
        if move == 2 and len(groups) < min(len(apps), k):
            # Split a multi-application, multi-way cluster in two.
            candidates = [
                i for i, (g, w) in enumerate(zip(groups, ways)) if len(g) > 1 and w > 1
            ]
            if not candidates:
                return None
            src = int(rng.choice(candidates))
            members = groups[src]
            cut = int(rng.integers(1, len(members)))
            ways_right = int(rng.integers(1, ways[src]))
            groups = list(groups)
            ways = list(ways)
            groups[src] = members[:cut]
            ways[src] = ways[src] - ways_right
            groups.append(members[cut:])
            ways.append(ways_right)
            return groups, ways
        if move == 3 and len(groups) > 1:
            # Shift one way between two clusters.
            src_candidates = [i for i, w in enumerate(ways) if w > 1]
            if not src_candidates:
                return None
            src = int(rng.choice(src_candidates))
            dst = int(rng.integers(0, len(groups)))
            if dst == src:
                return None
            ways = list(ways)
            ways[src] -= 1
            ways[dst] += 1
            return groups, ways
        return None

    best: Optional[Tuple[float, float]] = None
    best_state: Optional[Tuple[List[List[str]], List[int]]] = None
    evaluated = 0
    seeds = _seed_states(list(apps), scorer.profiles, k)
    for restart in range(restarts):
        groups, ways = seeds[restart % len(seeds)]
        current = score(groups, ways)
        evaluated += 1
        if best is None or _better(*current, *best, objective):
            best = current
            best_state = (groups, ways)
        for _ in range(iterations):
            proposal = propose(groups, ways)
            if proposal is None:
                continue
            new_groups, new_ways = proposal
            new = score(new_groups, new_ways)
            evaluated += 1
            if _better(*new, *current, objective):
                groups, ways = new_groups, new_ways
                current = new
                if _better(*new, *best, objective):
                    best = new
                    best_state = (new_groups, new_ways)
    assert best_state is not None
    best_score = scorer.score_candidate(*best_state)
    solution = ClusteringSolution.from_groups(best_state[0], best_state[1], k)
    return OptimalResult(
        solution=solution,
        score=best_score,
        candidates_evaluated=evaluated,
        objective=objective,
    )
