"""Clustering/partitioning evaluation (the role PBBCache plays in the paper).

Given a platform, per-application profiles and a concrete way allocation, the
estimator predicts every application's slowdown and the resulting workload
metrics (unfairness, STP, ...).  It is used in three places:

* by the optimal-solution solvers of :mod:`repro.optimal` as the objective
  function (Section 3);
* by the static clustering study (Fig. 6), where the clustering produced by
  each policy is evaluated under a fixed allocation;
* by the runtime engine, which needs each application's *current* IPC under
  the allocation in force to advance simulated execution.

The slowdown of an application combines two effects:

1. **cache sharing** — its effective fractional way count (from
   :class:`~repro.simulator.occupancy.OccupancyModel`) determines the IPC it
   can sustain, interpolated from its alone-run curves (with a CPI
   extrapolation below one way, since several applications crammed into one
   way each hold less than a way's worth of space);
2. **memory-bandwidth contention** — the multiplicative factor from
   :class:`~repro.simulator.bandwidth.BandwidthModel`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple, Union

from repro.apps.phases import PhasedProfile
from repro.apps.profile import AppProfile, FastProfileView
from repro.core.caching import LruDict
from repro.core.types import ClusteringSolution, WayAllocation
from repro.errors import SimulationError
from repro.hardware.platform import PlatformSpec
from repro.metrics.fairness import WorkloadMetrics, compute_metrics
from repro.simulator.bandwidth import BandwidthModel, BandwidthResult, read_demand
from repro.simulator.occupancy import (
    OccupancyModel,
    OccupancyResult,
    OccupancyTrajectoryCache,
)

__all__ = [
    "ClusterEstimate",
    "ClusteringEstimator",
    "DEFAULT_MAX_ENTRIES",
    "EvaluationTables",
    "ProfileSnapshot",
    "allocation_token",
    "tables_signature",
]

#: Default LRU bound of each evaluation table.  Measured on Fig. 7 dynamic
#: studies (EXPERIMENTS.md): every estimate, multi-member trajectory and
#: decomposition hit recurs within 71 distinct entries of its table, so 128
#: is the smallest power of two that keeps them all.  Single-member
#: trajectories recur further apart, and each costs one step to rebuild.
DEFAULT_MAX_ENTRIES = 128


def tables_signature(
    platform: PlatformSpec,
    occupancy_model: Optional[OccupancyModel] = None,
    bandwidth_model: Optional[BandwidthModel] = None,
) -> tuple:
    """The :meth:`EvaluationTables.params_signature` of tables built with
    these arguments (default models when ``None``), without building any."""
    occ = occupancy_model or OccupancyModel()
    bw = bandwidth_model or BandwidthModel()
    return (
        platform,
        (occ.max_iterations, occ.tolerance, occ.damping, occ.base_pressure),
        (bw.sensitivity, bw.max_factor),
    )


@dataclass(frozen=True)
class ClusterEstimate:
    """Full prediction for one workload under one allocation."""

    allocation: WayAllocation
    slowdowns: Dict[str, float]
    ipcs: Dict[str, float]
    effective_ways: Dict[str, float]
    bandwidth: BandwidthResult
    occupancy: OccupancyResult
    # Each application's miss rate and stall fraction (read_demand).
    llcmpkc: Dict[str, float]
    stall_fractions: Dict[str, float]

    @cached_property
    def metrics(self) -> WorkloadMetrics:
        """Workload metrics of the slowdowns, computed on first use.

        The runtime engine reads only IPCs and effective ways, so most
        cached estimates never pay for :func:`compute_metrics`.
        """
        return compute_metrics(self.slowdowns)

    @property
    def unfairness(self) -> float:
        return self.metrics.unfairness

    @property
    def stp(self) -> float:
        return self.metrics.stp


def allocation_token(allocation: WayAllocation) -> tuple:
    """Hashable identity of an allocation for the evaluation cache.

    Keeps the mask *insertion order*: :class:`ClusteringEstimator` iterates
    applications in ``allocation.apps()`` order and floating-point
    accumulation depends on it, so two allocations that differ only in
    ordering must not share a cache entry.
    """
    return (tuple(allocation.masks.items()), allocation.total_ways)


class ProfileSnapshot:
    """Immutable per-application phase-profile table for one workload run.

    A runtime engine that re-registers every application's *current* phase
    profile with the estimator on each rate recomputation materialises a
    fresh ``renamed()`` copy every time, which defeats any caching by
    identity.  The snapshot performs that renaming
    exactly once per (application, phase) up front, so the profile driving an
    application in a given phase is one stable object for the whole run.
    """

    def __init__(self, phased_profiles: Mapping[str, PhasedProfile]) -> None:
        if not phased_profiles:
            raise SimulationError("a profile snapshot needs at least one application")
        self.apps: Tuple[str, ...] = tuple(phased_profiles)
        self.phase_profiles: Dict[str, Tuple[AppProfile, ...]] = {
            name: tuple(segment.profile.renamed(name) for segment in prof.segments)
            for name, prof in phased_profiles.items()
        }

    def tokenize(self, tables: "EvaluationTables") -> Dict[str, Tuple[int, ...]]:
        """Intern every (application, phase) profile into ``tables`` up front.

        Returns the per-application tuple of phase tokens.  The runtime
        engine registers the whole snapshot once at run start and from then
        on describes a phase epoch purely by token — no profile objects are
        re-registered when an application changes phase, which is what lets
        :meth:`EvaluationTables.evaluate_tokens` skip all per-application
        bookkeeping for the applications whose phase did not change.
        """
        return {
            name: tuple(tables.token_for(profile) for profile in phases)
            for name, phases in self.phase_profiles.items()
        }


def _ipc_with_extrapolation(
    profile: Union[AppProfile, FastProfileView], effective_ways: float
) -> float:
    """IPC at a fractional allocation, extrapolating below one way.

    The alone-run curves start at one way; when an application effectively
    holds less than a way (several programs crammed into a small cluster), we
    extend the curve by continuing the CPI slope between one and two ways —
    steep for sensitive programs, flat for streaming/light ones — capped at a
    3x CPI inflation to keep the model bounded.  ``profile`` is anything with
    ``ipc_at`` and ``n_ways``: an :class:`AppProfile` or its
    :class:`FastProfileView`, which evaluate bit-identically.
    """
    if effective_ways >= 1.0 or profile.n_ways < 2:
        return profile.ipc_at(max(effective_ways, 1.0))
    cpi_1 = 1.0 / profile.ipc_at(1.0)
    cpi_2 = 1.0 / profile.ipc_at(2.0)
    slope = max(cpi_1 - cpi_2, 0.0)
    deficit = 1.0 - max(effective_ways, 0.0)
    cpi = min(cpi_1 + slope * deficit, 3.0 * cpi_1)
    return 1.0 / cpi


def _estimate(
    allocation: WayAllocation,
    occupancy: OccupancyResult,
    profiles: Mapping[str, Union[AppProfile, FastProfileView]],
    platform: PlatformSpec,
    bandwidth_model: BandwidthModel,
) -> ClusterEstimate:
    """The estimate of a solved allocation, which both evaluators build.

    Scalar on purpose: at a dozen applications the inlined float
    arithmetic beats an equivalent NumPy ufunc chain (measured).
    """
    llcmpkc, demand, stall_fraction = read_demand(
        occupancy.effective_ways, profiles, platform
    )
    bandwidth = bandwidth_model.solve_from_demand(demand, stall_fraction, platform)
    slowdowns: Dict[str, float] = {}
    ipcs: Dict[str, float] = {}
    for app in allocation.apps():
        profile = profiles[app]
        cache_ipc = _ipc_with_extrapolation(profile, occupancy.effective_ways[app])
        shared_ipc = cache_ipc / bandwidth.slowdown_factors[app]
        ipcs[app] = shared_ipc
        slowdowns[app] = profile.ipc_alone / max(shared_ipc, 1e-12)
    return ClusterEstimate(
        allocation=allocation,
        slowdowns=slowdowns,
        ipcs=ipcs,
        effective_ways=occupancy.effective_ways,
        bandwidth=bandwidth,
        occupancy=occupancy,
        llcmpkc=llcmpkc,
        stall_fractions=stall_fraction,
    )


class EvaluationTables:
    """Shared, incrementally-grown evaluation tables for repeated estimates.

    This is the dense table cache behind the runtime engine's evaluation
    path.  It extends the table-once-score-many idea of
    :mod:`repro.optimal.tabulated` from the static solvers to arbitrary
    (possibly overlapping) runtime allocations:

    * a **token registry** fingerprints profiles by curve values, so
      identical profiles — across phases, policy drivers, engine runs, even
      freshly rebuilt workloads — share all derived tables;
    * an :class:`~repro.simulator.occupancy.OccupancyTrajectoryCache` stores
      the exact fixed-point trajectories of recently solved mask-sharing
      components and the component decompositions of recent allocations;
    * a full-estimate cache keyed by ``(allocation, profile tokens)`` makes a
      repeated :meth:`evaluate` call a single dictionary lookup.

    Every cached value is produced by arithmetic that replicates the
    dict-based models operation for operation, so results are bit-identical
    to :meth:`ClusteringEstimator.evaluate_allocation` (the equivalence is
    pinned by the test suite).
    The tables live in memory only and are never written to disk: a new
    process starts cold.  Instances are cheap to create, safe to share
    across runs of the same platform/model configuration; every executor
    worker keeps one per platform (see
    :func:`~repro.runtime.executors.base.worker_tables`).
    """

    def __init__(
        self,
        platform: PlatformSpec,
        *,
        occupancy_model: Optional[OccupancyModel] = None,
        bandwidth_model: Optional[BandwidthModel] = None,
        max_entries: Optional[int] = DEFAULT_MAX_ENTRIES,
    ) -> None:
        """
        Parameters
        ----------
        max_entries:
            LRU bound on each table that grows with evaluations: the full
            estimates, the component trajectories, the allocation
            decompositions and :attr:`engine_vectors` (``None`` is
            unbounded).  Each table evicts its least-recently-used entry on
            overflow, and a hit refreshes an entry's recency.  Every entry is
            a pure function of its key, so an evicted one is recomputed on
            its next use with the same bits.  Without the bound these tables
            keep one estimate and about one trajectory per evaluation: a
            Fig. 7 dynamic job builds 1,603 trajectories for 1,554
            evaluations, and 63 of its 1,617 estimate lookups hit.  The
            profile-token registry is not bounded: it is keyed by curve
            values, so it grows with distinct profiles only.
        """
        if max_entries is not None and max_entries < 1:
            raise SimulationError("max_entries must be >= 1 (or None for unbounded)")
        self.platform = platform
        self.occupancy_model = occupancy_model or OccupancyModel()
        self.bandwidth_model = bandwidth_model or BandwidthModel()
        self.occupancy_cache = OccupancyTrajectoryCache(
            self.occupancy_model, max_entries=max_entries
        )
        self.max_entries = max_entries
        self._estimates = LruDict(max_entries)
        # Token registry: one token per distinct value fingerprint.  No
        # profile object is kept, so renamed per-run copies of one profile
        # cost nothing once their run ends.
        self._token_by_value: Dict[tuple, int] = {}
        self._views: Dict[int, FastProfileView] = {}
        # Engine-facing scratch: rate/advance vectors derived from estimates,
        # keyed purely by content ((app names, allocation token, per-app
        # phase tokens)) so any engine sharing these tables — across runs,
        # groups, even repeated studies — reuses them.  Populated by the
        # multi-run engine.
        self.engine_vectors = LruDict(max_entries)

    # -- bookkeeping -------------------------------------------------------------

    def params_signature(self) -> tuple:
        """Model/platform parameters a compatible sharer must match."""
        return tables_signature(self.platform, self.occupancy_model, self.bandwidth_model)

    def token_for(self, profile: AppProfile) -> int:
        """Value-fingerprint token of a profile (stable across copies)."""
        fingerprint = profile.value_fingerprint()
        token = self._token_by_value.get(fingerprint)
        if token is None:
            token = len(self._token_by_value)
            self._token_by_value[fingerprint] = token
            self._views[token] = FastProfileView(profile)
        return token

    def view_for(self, profile: AppProfile) -> FastProfileView:
        """The shared :class:`FastProfileView` evaluating ``profile``'s curves."""
        return self._views[self.token_for(profile)]

    def cache_sizes(self) -> Dict[str, int]:
        """Entry counts per table (introspection for tests and benchmarks)."""
        return {
            "estimates": len(self._estimates),
            "components": len(self.occupancy_cache),
            "profiles": len(self._token_by_value),
        }

    def clear(self) -> None:
        self._estimates.clear()
        self.occupancy_cache.clear()
        self.engine_vectors.clear()

    # -- evaluation --------------------------------------------------------------

    def evaluate(
        self,
        allocation: WayAllocation,
        profiles: Mapping[str, AppProfile],
        alloc_token: Optional[tuple] = None,
    ) -> ClusterEstimate:
        """Cached, bit-identical equivalent of
        :meth:`ClusteringEstimator.evaluate_allocation`."""
        for app in allocation.apps():
            if app not in profiles:
                raise SimulationError(f"no profile registered for application {app!r}")
        apps = allocation.apps()
        tokens = tuple(self.token_for(profiles[app]) for app in apps)
        if alloc_token is None:
            alloc_token = allocation_token(allocation)
        return self._lookup(allocation, apps, tokens, alloc_token)

    def evaluate_tokens(
        self,
        allocation: WayAllocation,
        tokens: Mapping[str, int],
        alloc_token: Optional[tuple] = None,
    ) -> ClusterEstimate:
        """:meth:`evaluate` from pre-interned profile tokens.

        ``tokens`` maps every application in the allocation to a token
        previously produced by :meth:`token_for` (e.g. through
        :meth:`ProfileSnapshot.tokenize`).  No profile objects are touched:
        the caller re-registers nothing per evaluation, so a phase change of
        one application costs exactly one changed token in the key — the
        per-application dirty-estimate delta the runtime engine is built
        on.  Shares the estimate cache (and the
        bit-identical results) with :meth:`evaluate`.
        """
        apps = allocation.apps()
        try:
            token_tuple = tuple(tokens[app] for app in apps)
        except KeyError as exc:
            raise SimulationError(f"no profile token for application {exc.args[0]!r}")
        for token in token_tuple:
            if token not in self._views:
                raise SimulationError(f"unknown profile token {token!r}")
        if alloc_token is None:
            alloc_token = allocation_token(allocation)
        return self._lookup(allocation, apps, token_tuple, alloc_token)

    def _lookup(
        self,
        allocation: WayAllocation,
        apps: Sequence[str],
        tokens: Tuple[int, ...],
        alloc_token: tuple,
    ) -> ClusterEstimate:
        key = (alloc_token, tokens)
        estimate = self._estimates.get(key)
        if estimate is None:
            estimate = self._compute(allocation, apps, tokens, alloc_token)
            self._estimates.put(key, estimate)
        return estimate

    def _compute(
        self,
        allocation: WayAllocation,
        apps: Sequence[str],
        tokens: Tuple[int, ...],
        alloc_token: tuple,
    ) -> ClusterEstimate:
        """The occupancy from the trajectory cache, then :func:`_estimate`
        over the token views: one LLCMPKC read per member, whose miss rate
        and stall fraction the estimate keeps for the runtime engine."""
        token_map = dict(zip(apps, tokens))
        views = {app: self._views[token_map[app]] for app in apps}
        occupancy = self.occupancy_cache.solve(
            allocation, token_map, views, alloc_token=alloc_token
        )
        return _estimate(allocation, occupancy, views, self.platform, self.bandwidth_model)


class ClusteringEstimator:
    """Predict slowdowns and workload metrics for arbitrary way allocations."""

    def __init__(
        self,
        platform: PlatformSpec,
        profiles: Mapping[str, AppProfile],
        *,
        occupancy_model: Optional[OccupancyModel] = None,
        bandwidth_model: Optional[BandwidthModel] = None,
    ) -> None:
        """Every evaluation runs the dict-based models cold.  Repeated
        evaluations over the same profiles belong in
        :class:`EvaluationTables`, whose results are bit-identical.
        """
        if not profiles:
            raise SimulationError("the estimator needs at least one application profile")
        self.platform = platform
        self.profiles: Dict[str, AppProfile] = dict(profiles)
        self.occupancy_model = occupancy_model or OccupancyModel()
        self.bandwidth_model = bandwidth_model or BandwidthModel()

    # -- profile management ----------------------------------------------------

    def add_profile(self, name: str, profile: AppProfile) -> None:
        """Register (or replace) the profile driving an application instance."""
        self.profiles[name] = profile

    def apps(self) -> Sequence[str]:
        return list(self.profiles)

    # -- evaluation --------------------------------------------------------------

    def evaluate_allocation(self, allocation: WayAllocation) -> ClusterEstimate:
        """Evaluate an explicit (possibly overlapping) per-application allocation.

        An application with no profile raises :class:`SimulationError` from
        :meth:`OccupancyModel.solve`, before any other work."""
        occupancy = self.occupancy_model.solve(allocation, self.profiles)
        return _estimate(
            allocation, occupancy, self.profiles, self.platform, self.bandwidth_model
        )

    def evaluate(self, solution: ClusteringSolution) -> ClusterEstimate:
        """Evaluate a (non-overlapping) clustering solution."""
        missing = [app for app in solution.apps() if app not in self.profiles]
        if missing:
            raise SimulationError(f"no profile registered for applications {missing}")
        return self.evaluate_allocation(solution.to_allocation())

    def evaluate_unpartitioned(self, apps: Optional[Iterable[str]] = None) -> ClusterEstimate:
        """Evaluate the stock-Linux configuration: everybody shares the LLC."""
        names = list(apps) if apps is not None else list(self.profiles)
        if not names:
            raise SimulationError("cannot evaluate an empty workload")
        solution = ClusteringSolution.single_cluster(names, self.platform.llc_ways)
        return self.evaluate(solution)

    # -- convenience -------------------------------------------------------------

    def slowdown_tables(self, apps: Optional[Iterable[str]] = None) -> Dict[str, list]:
        """Per-application alone-run slowdown tables over 1..llc_ways ways.

        This is the offline-profile input LFOC's lookahead step consumes in
        the static study (the dynamic runtime builds them online instead).
        """
        names = list(apps) if apps is not None else list(self.profiles)
        tables: Dict[str, list] = {}
        for app in names:
            profile = self.profiles[app]
            resampled = profile.resampled(self.platform.llc_ways)
            tables[app] = list(resampled.slowdown_table())
        return tables
