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

The loop does no work twice.  A state carries its member bitmasks next to
its member lists, and a move adjusts the masks it changes by the moved
members' bits, so the memo key costs two ``tuple`` calls.  A memo miss
reads each cluster from a per-call ``(mask, ways)`` table filled through
``cluster_pieces`` (which validates a cluster once) and combines them with
the objective's own combine step, the one ``score_candidate`` uses.  List
picks are ``seq[rng.integers(0, len(seq))]``: the same draw as
``rng.choice(seq)`` (a test pins the identity) at about a quarter of the
cost.  On a 2-vCPU shared host the fig6_static benchmark at seed 0 went
from a median ``job_s`` of 0.583 s to 0.499 s (-14%, ten alternating
30 s pairs, all faster); see EXPERIMENTS.md.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.apps.profile import AppProfile
from repro.core.types import ClusteringSolution
from repro.errors import SolverError
from repro.hardware.platform import PlatformSpec
from repro.optimal.exhaustive import OptimalResult, _validate_workload
from repro.optimal.objective import CachedObjective, ClusterPieces, _better

__all__ = ["local_search_clustering"]

#: One search state: member lists, member bitmasks and ways, one per group.
_State = Tuple[List[List[str]], List[int], List[int]]


def _even_ways(total: int, parts: int) -> List[int]:
    """``total`` ways over ``parts`` clusters, one extra way to the first ones."""
    return [total // parts + (i < total % parts) for i in range(parts)]


def _seed_states(
    apps: List[str],
    profiles: Mapping[str, AppProfile],
    k: int,
) -> List[Tuple[List[List[str]], List[int]]]:
    # Everything in one shared cluster.
    seeds = [([list(apps)], [k])]
    # Strict even partitioning (only feasible when n <= k).
    if len(apps) <= k:
        seeds.append(([[a] for a in apps], _even_ways(k, len(apps))))
    # LFOC-style seed: isolate the highest-miss-rate applications in one 1-way
    # cluster, deal the rest round-robin over the remaining ways.
    by_pressure = sorted(apps, key=lambda a: profiles[a].llcmpkc_at(1.0), reverse=True)
    aggressors = [a for a in by_pressure if profiles[a].llcmpkc_at(float(k)) >= 10.0]
    others = [a for a in by_pressure if a not in aggressors]
    if aggressors and others and k >= 2:
        spread = min(len(others), k - 1)
        groups = [aggressors] + [others[i::spread] for i in range(spread)]
        seeds.append((groups, [1] + _even_ways(k - 1, spread)))
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
    max_groups = min(len(apps), k)
    scorer = objective_fn or CachedObjective(platform, profiles)
    rng = np.random.default_rng(seed)
    bit = {app: 1 << index for index, app in enumerate(apps)}
    pieces: Dict[Tuple[int, int], ClusterPieces] = {}
    memo: Dict[Tuple[Tuple[int, ...], Tuple[int, ...]], Tuple[float, float]] = {}

    def score(state: _State) -> Tuple[float, float]:
        # Memoized (unfairness, stp); see the module docstring for the key.
        groups, masks, ways = state
        key = (tuple(masks), tuple(ways))
        cached = memo.get(key)
        if cached is None:
            parts = []
            for group, mask, way in zip(groups, masks, ways):
                part = pieces.get((mask, way))
                if part is None:
                    part = pieces[mask, way] = scorer.cluster_pieces(group, way)
                parts.append(part)
            unfairness, stp, _ = scorer._combine(parts)
            cached = memo[key] = (unfairness, stp)
        return cached

    def propose(
        groups: List[List[str]], masks: List[int], ways: List[int]
    ) -> Optional[_State]:
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
            groups, masks = list(groups), list(masks)
            groups[src] = [a for a in groups[src] if a != app]
            groups[dst] = groups[dst] + [app]
            masks[src] -= bit[app]
            masks[dst] += bit[app]
            return groups, masks, ways
        if move == 1 and len(groups) > 1:
            # Merge two clusters (their ways add up).
            a, b = rng.choice(len(groups), size=2, replace=False)
            a, b = int(min(a, b)), int(max(a, b))
            groups, masks, ways = list(groups), list(masks), list(ways)
            groups[a] = groups[a] + groups.pop(b)
            masks[a] += masks.pop(b)
            ways[a] += ways.pop(b)
            return groups, masks, ways
        if move == 2 and len(groups) < max_groups:
            # Split a multi-application, multi-way cluster in two.
            candidates = [
                i for i, (g, w) in enumerate(zip(groups, ways)) if len(g) > 1 and w > 1
            ]
            if not candidates:
                return None
            src = candidates[int(rng.integers(0, len(candidates)))]
            members = groups[src]
            cut = int(rng.integers(1, len(members)))
            ways_right = int(rng.integers(1, ways[src]))
            groups, masks, ways = list(groups), list(masks), list(ways)
            groups[src] = members[:cut]
            groups.append(members[cut:])
            masks.append(0)
            for app in groups[-1]:
                masks[src] -= bit[app]
                masks[-1] += bit[app]
            ways[src] -= ways_right
            ways.append(ways_right)
            return groups, masks, ways
        if move == 3 and len(groups) > 1:
            # Shift one way between two clusters.
            src_candidates = [i for i, w in enumerate(ways) if w > 1]
            if not src_candidates:
                return None
            src = src_candidates[int(rng.integers(0, len(src_candidates)))]
            dst = int(rng.integers(0, len(groups)))
            if dst == src:
                return None
            ways = list(ways)
            ways[src] -= 1
            ways[dst] += 1
            return groups, masks, ways
        return None

    best: Optional[Tuple[float, float]] = None
    best_state: Optional[_State] = None
    evaluated = 0
    seeds = _seed_states(list(apps), scorer.profiles, k)
    for restart in range(restarts):
        groups, ways = seeds[restart % len(seeds)]
        state = (groups, [sum(bit[app] for app in group) for group in groups], ways)
        current = score(state)
        evaluated += 1
        if best is None or _better(*current, *best, objective):
            best = current
            best_state = state
        for _ in range(iterations):
            proposal = propose(*state)
            if proposal is None:
                continue
            new = score(proposal)
            evaluated += 1
            if _better(*new, *current, objective):
                state = proposal
                current = new
                if _better(*new, *best, objective):
                    best = new
                    best_state = proposal
    assert best_state is not None
    best_groups, _, best_ways = best_state
    best_score = scorer.score_candidate(best_groups, best_ways)
    solution = ClusteringSolution.from_groups(best_groups, best_ways, k)
    return OptimalResult(
        solution=solution,
        score=best_score,
        candidates_evaluated=evaluated,
        objective=objective,
    )
