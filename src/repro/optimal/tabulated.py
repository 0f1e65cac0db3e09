"""Tabulated batch-scoring engine for the optimal-solution search.

:class:`~repro.optimal.objective.CachedObjective` already avoids re-running
the contention estimator per candidate by caching per-cluster pieces, but it
still pays Python-level dict merges and hash lookups for *every* candidate —
and the candidate count grows like the Bell number (Section 2.2 quotes ~9M
clusterings for 8 applications on 20 ways).  This module removes the
per-candidate Python work entirely:

* every reachable cluster is encoded as an integer **bitmask** over the
  (sorted) application list;
* the occupancy model is solved **once per (cluster mask, ways) pair** — for
  every pair simultaneously, as one NumPy fixed point over the table rows —
  and the results are tabulated into dense matrices of per-member cache
  slowdowns, bandwidth demands and stall fractions;
* a whole batch of ``(partition, way composition)`` candidates is then scored
  with array arithmetic: per-app slowdowns are gathered row sums, the
  bandwidth over-commit correction is a row-wise multiplicative factor,
  unfairness is ``max/min`` of each slowdown row and STP the row sum of
  reciprocals.

The engine is *exact* with respect to per-candidate scoring through
:class:`CachedObjective`: the vectorized occupancy solve and the batch
combination replicate its arithmetic operation for operation (same
association order for every running sum), the searches in
:mod:`repro.optimal.exhaustive` and :mod:`repro.optimal.bnb` visit candidates
in enumeration order with the comparison tolerances of
:meth:`CandidateScore.better_than`, and the winning candidate is re-scored
through a plain :class:`CachedObjective`, so the reported
:class:`CandidateScore` is bit-identical to a per-candidate search.  The test
suite asserts this against the per-candidate search loops kept as oracles in
``tests/oracles.py``, on seeded workloads for both objectives.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.apps.profile import AppProfile
from repro.errors import SolverError
from repro.hardware.platform import PlatformSpec
from repro.optimal.objective import CachedObjective, CandidateScore
from repro.optimal.partitions import way_compositions
from repro.simulator.bandwidth import BandwidthModel
from repro.simulator.occupancy import OccupancyModel

__all__ = [
    "TabulatedObjective",
    "llcmpkc_interp",
    "ipc_interp",
    "ipc_with_extrapolation",
]

#: Dense tables hold 2^n masks; beyond this the table itself would dwarf any
#: realistic search (the exhaustive solvers stop being practical near 9 apps).
MAX_TABULATED_APPS = 14

#: Candidates scored per vectorized call (bounds the gather matrices).
BATCH_ROWS = 8192

#: Slack of the vectorized incumbent pre-filter over the 1e-9 comparison
#: tolerance of :meth:`CandidateScore.better_than`.  Only candidates whose
#: primary metric lands within this slack of the running optimum are re-scanned
#: sequentially, which keeps the Python-level work per batch near zero while
#: preserving the reference's first-wins tie semantics (a mismatch would need
#: a >1000-deep chain of 1e-9 ties).
_SCAN_SLACK = 1e-6


@lru_cache(maxsize=None)
def _compositions_array(total_ways: int, n_parts: int) -> np.ndarray:
    """All way compositions as a read-only (count, n_parts) int array.

    Row order matches :func:`way_compositions`, which the candidate-order
    equivalence with the per-candidate search relies on.
    """
    arr = np.asarray(list(way_compositions(total_ways, n_parts)), dtype=np.int64)
    arr.setflags(write=False)
    return arr


def _better(u_a: float, s_a: float, u_b: float, s_b: float, objective: str) -> bool:
    """Scalar replica of :meth:`CandidateScore.better_than` (same tolerances)."""
    if objective == "fairness":
        if abs(u_a - u_b) > 1e-9:
            return u_a < u_b
        return s_a > s_b + 1e-12
    if objective == "throughput":
        if abs(s_a - s_b) > 1e-9:
            return s_a > s_b
        return u_a < u_b - 1e-12
    raise SolverError(f"unknown objective {objective!r}")


def llcmpkc_interp(profile: AppProfile, ways: np.ndarray) -> np.ndarray:
    """Vector replica of ``profile.llcmpkc_at`` (after the caller's floor).

    Shared between the dense solver tables below and the incremental runtime
    evaluation layer's tests; results are bit-identical to the scalar
    ``AppProfile`` accessor evaluated element-wise.
    """
    axis = np.arange(1, profile.n_ways + 1, dtype=float)
    clipped = np.clip(ways, 1.0, float(profile.n_ways))
    return np.interp(clipped, axis, profile.curves.llcmpkc)


def ipc_interp(profile: AppProfile, ways: np.ndarray) -> np.ndarray:
    """Vector replica of ``profile.ipc_at``."""
    axis = np.arange(1, profile.n_ways + 1, dtype=float)
    clipped = np.clip(ways, 1.0, float(profile.n_ways))
    return np.interp(clipped, axis, profile.curves.ipc)


def ipc_with_extrapolation(profile: AppProfile, effective: np.ndarray) -> np.ndarray:
    """Vector replica of :func:`repro.simulator.estimator._ipc_with_extrapolation`."""
    interp = ipc_interp(profile, effective)
    if profile.n_ways < 2:
        return interp
    cpi_1 = 1.0 / profile.ipc_at(1.0)
    cpi_2 = 1.0 / profile.ipc_at(2.0)
    slope = max(cpi_1 - cpi_2, 0.0)
    deficit = 1.0 - np.maximum(effective, 0.0)
    cpi = np.minimum(cpi_1 + slope * deficit, 3.0 * cpi_1)
    return np.where(effective >= 1.0, interp, 1.0 / cpi)


@dataclass
class _Incumbent:
    """Running best candidate during a tabulated search."""

    unfairness: float
    stp: float
    groups: List[List[str]]
    ways: Tuple[int, ...]


class TabulatedObjective:
    """Dense per-(cluster mask, ways) tables plus vectorized batch scoring.

    Parameters mirror :class:`CachedObjective`; the table is built eagerly for
    the given applications (all ``2^n - 1`` member masks times the platform's
    way counts), after which scoring a candidate batch involves no Python-level
    per-candidate work.
    """

    def __init__(
        self,
        platform: PlatformSpec,
        profiles: Mapping[str, AppProfile],
        apps: Optional[Sequence[str]] = None,
        *,
        occupancy_model: OccupancyModel | None = None,
        bandwidth_model: BandwidthModel | None = None,
        cluster_masks: Optional[Sequence[int]] = None,
    ) -> None:
        if not profiles:
            raise SolverError("the objective needs at least one application profile")
        names = list(apps) if apps is not None else list(profiles)
        if not names:
            raise SolverError("the workload must contain at least one application")
        missing = [a for a in names if a not in profiles]
        if missing:
            raise SolverError(f"no profiles registered for applications {missing}")
        if len(set(names)) != len(names):
            raise SolverError("application names must be unique")
        if len(names) > MAX_TABULATED_APPS:
            raise SolverError(
                f"the exact solvers hold dense tables for 2^n clusters and "
                f"support at most MAX_TABULATED_APPS = {MAX_TABULATED_APPS} "
                f"applications, got {len(names)}; use local_search_clustering "
                f"for larger workloads"
            )
        self.platform = platform
        self.profiles: Dict[str, AppProfile] = {name: profiles[name] for name in names}
        self.occupancy_model = occupancy_model or OccupancyModel()
        self.bandwidth_model = bandwidth_model or BandwidthModel()
        # Table columns follow sorted names: the reference evaluates cluster
        # members in sorted order, so accumulating columns left to right
        # reproduces its running sums exactly.
        self.app_order: List[str] = sorted(names)
        self.app_index: Dict[str, int] = {a: j for j, a in enumerate(self.app_order)}
        self.n_apps = len(self.app_order)
        self.n_ways = platform.llc_ways
        self._reference: Optional[CachedObjective] = None
        # Optionally restrict the occupancy solves to a subset of cluster
        # masks (e.g. the n singletons for strict partitioning) — the dense
        # arrays keep their full shape, but unsolved rows are never computed
        # and may not be indexed.
        self._mask_solved = np.zeros(1 << self.n_apps, dtype=bool)
        if cluster_masks is None:
            self._mask_solved[1:] = True
        else:
            for mask in cluster_masks:
                if not 0 < mask < (1 << self.n_apps):
                    raise SolverError(f"cluster mask {mask:#x} is out of range")
                self._mask_solved[mask] = True
        self._build_tables()

    # -- reference delegate -------------------------------------------------------

    @property
    def reference(self) -> CachedObjective:
        """Lazily-built reference objective used for exact winner re-scoring."""
        if self._reference is None:
            self._reference = CachedObjective(
                self.platform,
                self.profiles,
                occupancy_model=self.occupancy_model,
                bandwidth_model=self.bandwidth_model,
            )
        return self._reference

    def exact_score(self, groups: Sequence[Sequence[str]], ways: Sequence[int]) -> CandidateScore:
        """Score one candidate through the reference path (bit-identical)."""
        return self.reference.score_candidate(groups, ways)

    # -- table construction -------------------------------------------------------

    def _build_tables(self) -> None:
        """Tabulate every ``(mask, ways)`` row, ``row = mask * k + ways - 1``.

        Rows are built in blocks of :data:`BATCH_ROWS`, so the temporaries
        stay bounded at :data:`MAX_TABULATED_APPS`; each block runs one
        occupancy fixed point over all its way counts at once
        (:meth:`_solve_occupancy_rows`) and then the per-member columns.
        Rows of masks excluded from the build keep their initial occupancy
        guess and are never read (:meth:`entry` rejects them).
        """
        n, k = self.n_apps, self.n_ways
        rows_total = (1 << n) * k
        self._slowdown_rows = np.zeros((rows_total, n), dtype=float)
        self._stall_rows = np.zeros((rows_total, n), dtype=float)
        self._demand_rows = np.zeros(rows_total, dtype=float)
        self._row_max = np.zeros(rows_total, dtype=float)
        self._row_min = np.zeros(rows_total, dtype=float)
        platform = self.platform
        for start in range(0, rows_total, BATCH_ROWS):
            stop = min(start + BATCH_ROWS, rows_total)
            masks, ways_minus_one = np.divmod(np.arange(start, stop), k)
            ways = (ways_minus_one + 1).astype(float)[:, None]
            member = ((masks[:, None] >> np.arange(n)) & 1).astype(bool)
            effective = self._solve_occupancy_rows(
                member, ways, self._mask_solved[masks]
            )
            slowdown = self._slowdown_rows[start:stop]
            stall = self._stall_rows[start:stop]
            demand = np.zeros(stop - start, dtype=float)
            for j, app in enumerate(self.app_order):
                profile = self.profiles[app]
                eff = effective[:, j]
                ipc = ipc_with_extrapolation(profile, eff)
                slow_col = profile.ipc_alone / np.maximum(ipc, 1e-12)
                mpkc = llcmpkc_interp(profile, np.maximum(eff, 0.25))
                bw_col = (
                    mpkc
                    / 1000.0
                    * platform.cycles_per_second
                    * profile.bytes_per_miss
                    / 1e9
                )
                pressure = mpkc * platform.mem_latency_cycles / 1000.0
                stall_col = np.minimum(0.95, pressure / (1.0 + pressure))
                in_cluster = member[:, j]
                slowdown[:, j] = np.where(in_cluster, slow_col, 0.0)
                stall[:, j] = np.where(in_cluster, stall_col, 0.0)
                demand = demand + np.where(in_cluster, bw_col, 0.0)
            self._demand_rows[start:stop] = demand
            self._row_max[start:stop] = np.where(member, slowdown, -np.inf).max(axis=1)
            self._row_min[start:stop] = np.where(member, slowdown, np.inf).min(axis=1)

    def _solve_occupancy_rows(
        self, member: np.ndarray, ways: np.ndarray, solved: np.ndarray
    ) -> np.ndarray:
        """Solve the shared-mask occupancy fixed point for a block of table rows.

        Replicates :meth:`OccupancyModel.solve` operation for operation for
        the special case the solvers need — every cluster member shares the
        full capacity mask of ``ways[r]`` ways — for every row at once.  Each
        row keeps its own convergence flag, so it performs exactly the
        iterations (and the damped updates) the scalar solve performs for it.
        The scalar solve adds a member's share once per way of the mask; here
        the addition runs ``k`` times, masked to the rows with ``ways > t``,
        so every row adds its share exactly ``ways`` times, in the same order.
        """
        model = self.occupancy_model
        effective = np.where(member, ways, 0.0)
        active = solved.copy()
        for _ in range(model.max_iterations):
            rows = np.nonzero(active)[0]
            if rows.size == 0:
                break
            eff = effective[rows]
            memb = member[rows]
            row_ways = ways[rows]
            pressure = np.empty_like(eff)
            for j, app in enumerate(self.app_order):
                pressure[:, j] = model.base_pressure + llcmpkc_interp(
                    self.profiles[app], np.maximum(eff[:, j], 0.25)
                )
            per_way = pressure / row_ways
            total = np.zeros(rows.size, dtype=float)
            for j in range(self.n_apps):
                total = total + np.where(memb[:, j], per_way[:, j], 0.0)
            share = per_way / total[:, None]
            new_effective = np.zeros_like(share)
            for t in range(self.n_ways):
                np.add(new_effective, share, out=new_effective, where=row_ways > t)
            blended = (1.0 - model.damping) * eff + model.damping * new_effective
            delta = np.where(memb, np.abs(blended - eff), 0.0).max(axis=1)
            effective[rows] = np.where(memb, blended, 0.0)
            active[rows] = delta >= model.tolerance
        return effective

    # -- lookups ------------------------------------------------------------------

    def group_mask(self, group: Sequence[str]) -> int:
        """Bitmask of a cluster's members over the table's application order."""
        mask = 0
        for app in group:
            try:
                mask |= 1 << self.app_index[app]
            except KeyError:
                raise SolverError(f"application {app!r} is not tabulated") from None
        return mask

    def entry(self, mask: int, ways: int) -> int:
        """Dense-table row of one (cluster mask, ways) pair."""
        if not 1 <= ways <= self.n_ways:
            raise SolverError(f"ways must lie in [1, {self.n_ways}], got {ways}")
        if not self._mask_solved[mask]:
            raise SolverError(
                f"cluster mask {mask:#x} was excluded from the table build"
            )
        return mask * self.n_ways + (ways - 1)

    def cluster_max_slowdown(self, mask: int, ways: int) -> float:
        """Largest member cache slowdown of one cluster (branch-and-bound bound)."""
        return float(self._row_max[self.entry(mask, ways)])

    def cluster_min_slowdown(self, mask: int, ways: int) -> float:
        """Smallest member cache slowdown of one cluster (branch-and-bound bound)."""
        return float(self._row_min[self.entry(mask, ways)])

    # -- batch scoring ------------------------------------------------------------

    def score_entries(self, entries: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Score a batch of candidates given as table-row index matrices.

        ``entries[i, j]`` is the dense-table row of candidate ``i``'s ``j``-th
        cluster; the clusters of one candidate must be disjoint and cover every
        tabulated application.  Returns per-candidate ``(unfairness, stp)``
        arrays whose unfairness values are bit-identical to the reference
        scorer (STP matches to summation order).
        """
        entries = np.asarray(entries)
        slow = self._slowdown_rows[entries].sum(axis=1)
        total = np.zeros(entries.shape[0], dtype=float)
        for j in range(entries.shape[1]):
            total = total + self._demand_rows[entries[:, j]]
        over = total > self.platform.peak_bw_gbs
        if np.any(over):
            stalls = self._stall_rows[entries].sum(axis=1)
            overcommit = total / self.platform.peak_bw_gbs
            factor = 1.0 + self.bandwidth_model.sensitivity * stalls * (
                overcommit[:, None] - 1.0
            )
            factor = np.minimum(np.maximum(factor, 1.0), self.bandwidth_model.max_factor)
            slow = np.where(over[:, None], slow * factor, slow)
        unfairness = slow.max(axis=1) / slow.min(axis=1)
        stp = (1.0 / slow).sum(axis=1)
        return unfairness, stp

    def score_candidate_fast(
        self, groups: Sequence[Sequence[str]], ways: Sequence[int]
    ) -> Tuple[float, float]:
        """(unfairness, stp) of a single candidate via the tables."""
        if len(groups) != len(ways):
            raise SolverError("groups and ways must have the same length")
        entries = np.asarray(
            [[self.entry(self.group_mask(g), w) for g, w in zip(groups, ways)]],
            dtype=np.intp,
        )
        unfairness, stp = self.score_entries(entries)
        return float(unfairness[0]), float(stp[0])


def _scan_batch(
    unfairness: np.ndarray,
    stp: np.ndarray,
    groups: Sequence[Sequence[str]],
    comps: np.ndarray,
    incumbent: Optional[_Incumbent],
    objective: str,
) -> Optional[_Incumbent]:
    """Fold one scored batch into the running best candidate.

    Reproduces the reference's sequential scan (first-wins under
    :meth:`CandidateScore.better_than`) but only visits candidates whose
    primary metric lands within :data:`_SCAN_SLACK` of the running optimum —
    everything else provably cannot win.
    """
    if objective == "fairness":
        seed = incumbent.unfairness if incumbent is not None else np.inf
        shifted = np.concatenate(([seed], unfairness[:-1]))
        prefix = np.minimum.accumulate(shifted)
        contenders = np.nonzero(unfairness <= prefix + _SCAN_SLACK)[0]
    else:
        seed = incumbent.stp if incumbent is not None else -np.inf
        shifted = np.concatenate(([seed], stp[:-1]))
        prefix = np.maximum.accumulate(shifted)
        contenders = np.nonzero(stp >= prefix - _SCAN_SLACK)[0]
    for i in contenders:
        u, s = float(unfairness[i]), float(stp[i])
        if incumbent is None or _better(
            u, s, incumbent.unfairness, incumbent.stp, objective
        ):
            incumbent = _Incumbent(
                unfairness=u,
                stp=s,
                groups=[list(group) for group in groups],
                ways=tuple(int(w) for w in comps[i]),
            )
    return incumbent


def _scan_partition(
    tables: TabulatedObjective,
    groups: Sequence[Sequence[str]],
    comps: np.ndarray,
    incumbent: Optional[_Incumbent],
    objective: str,
) -> Optional[_Incumbent]:
    """Batch-score every way composition of one partition and fold the best."""
    # entry(mask, 1) is the first row of a mask's block; it also validates
    # that the mask was part of the table build.
    base = np.asarray(
        [tables.entry(tables.group_mask(group), 1) for group in groups],
        dtype=np.int64,
    )
    for start in range(0, len(comps), BATCH_ROWS):
        chunk = comps[start : start + BATCH_ROWS]
        entries = base[None, :] + (chunk - 1)
        unfairness, stp = tables.score_entries(entries)
        incumbent = _scan_batch(unfairness, stp, groups, chunk, incumbent, objective)
    return incumbent
