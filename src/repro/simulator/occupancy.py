"""Intra-cluster LLC space sharing model.

When several applications share a set of cache ways (one cluster — or, for
Dunn's overlapping masks, any set of ways reachable by more than one
application), the space each one effectively holds is governed by insertion
pressure: an application that misses more inserts more lines and therefore
occupies more of the shared space.  PBBCache (the simulator the paper uses to
approximate the optimal solution) captures this with a probabilistic model;
we implement the same idea as a fixed point:

* every application ``i`` spreads its miss pressure uniformly over the ways
  its mask allows (``pressure_i / |mask_i|`` per way);
* each way is divided among its sharers proportionally to their per-way
  pressure;
* the effective (fractional) way count of an application is the sum of its
  shares over its ways;
* pressure depends on the application's current effective space (fewer ways →
  more misses → more pressure), so the computation iterates to a fixed point.

Applications alone on their ways simply get all of them.  The result feeds the
slowdown estimation in :mod:`repro.simulator.estimator` and the simulated CMT
occupancy readings.

Almost every solve is of a *proper cluster*, where all members hold the same
mask: the optimal search scores clusters one at a time, and the trajectory
cache splits the disjoint clusters LFOC programs into components of their
own.  There every way has the same sharers, so one damped step is a handful
of scalar operations per member (:func:`_cluster_step`).  Overlapping (Dunn)
components, and cold solves of allocations with several masks, take the
general step over distinct sharer sets (:meth:`_ComponentTrajectory.step`).
Both perform the same float operations in the same order, so the choice
between them, made from the masks alone, never moves a bit.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.apps.profile import AppProfile, FastProfileView, interp_ways
from repro.core.caching import LruDict
from repro.core.types import WayAllocation
from repro.errors import SimulationError

__all__ = ["OccupancyModel", "OccupancyResult", "OccupancyTrajectoryCache"]


@dataclass(frozen=True)
class OccupancyResult:
    """Converged effective way counts (and the pressures that produced them)."""

    effective_ways: Dict[str, float]
    pressures: Dict[str, float]
    iterations: int
    converged: bool


class OccupancyModel:
    """Fixed-point solver for effective per-application LLC occupancy.

    :meth:`solve` and :class:`OccupancyTrajectoryCache` run the same scalar
    steps (:func:`_cluster_step` for a proper cluster,
    :meth:`_ComponentTrajectory.step` otherwise) under the same stop
    condition, so a cold solve and a cached replay agree bit for bit.
    """

    def __init__(
        self,
        *,
        max_iterations: int = 50,
        tolerance: float = 1e-4,
        damping: float = 0.5,
        base_pressure: float = 0.05,
    ) -> None:
        """
        Parameters
        ----------
        max_iterations:
            Upper bound on fixed-point iterations.
        tolerance:
            Convergence threshold on the largest per-application change of the
            effective way count between iterations.
        damping:
            Fraction of the new iterate blended into the current one (0.5 is a
            plain average; 1.0 disables damping).
        base_pressure:
            Minimum insertion pressure attributed to any application, so that
            even an application with a zero LLC miss rate retains a sliver of
            the shared space (its code and occasional data still live there).
        """
        if max_iterations < 1:
            raise SimulationError("max_iterations must be >= 1")
        if tolerance <= 0:
            raise SimulationError("tolerance must be positive")
        if not (0.0 < damping <= 1.0):
            raise SimulationError("damping must lie in (0, 1]")
        if base_pressure <= 0:
            raise SimulationError("base_pressure must be positive")
        self.max_iterations = max_iterations
        self.tolerance = tolerance
        self.damping = damping
        self.base_pressure = base_pressure

    def solve(
        self,
        allocation: WayAllocation,
        profiles: Mapping[str, AppProfile],
    ) -> OccupancyResult:
        """Compute effective way counts for every application in ``allocation``.

        An allocation whose applications all hold one mask is a proper
        cluster and runs :func:`_cluster_step` directly, with no per-way
        bookkeeping.  Any other allocation is stepped as a whole by one
        :class:`_ComponentTrajectory`: disconnected groups of applications
        never read each other's state, so this is the same arithmetic as
        solving them apart under the shared stop condition.
        """
        apps = allocation.apps()
        for app in apps:
            if app not in profiles:
                raise SimulationError(f"no profile registered for application {app!r}")
        curves = [profiles[app].llcmpkc_points for app in apps]
        masks = allocation.masks
        # A cold solve is never replayed, so it keeps only the latest iterate.
        effective: Sequence[float]
        if len(set(masks.values())) == 1:
            ways = masks[apps[0]].bit_count()
            step = partial(_cluster_step, curves, ways)
            effective = [float(ways)] * len(apps)
        else:
            kernel = _ComponentTrajectory(
                curves,
                [
                    [w for w in range(allocation.total_ways) if masks[app] >> w & 1]
                    for app in apps
                ],
            )
            step = kernel.step
            effective = kernel.effective(0)
        pressures: Sequence[float] = ()
        converged = False
        iteration = 0
        for iteration in range(1, self.max_iterations + 1):
            effective, pressures, delta = step(effective, self)
            if delta < self.tolerance:
                converged = True
                break
        return OccupancyResult(
            effective_ways=dict(zip(apps, effective)),
            pressures=dict(zip(apps, pressures)),
            iterations=iteration,
            converged=converged,
        )


def _cluster_step(
    curves: Sequence[Sequence[float]],
    ways: int,
    prev: Sequence[float],
    model: OccupancyModel,
) -> Tuple[List[float], List[float], float]:
    """One damped iteration of a proper cluster: (effective ways, pressures, delta).

    Every member holds the same ``ways`` ways, so every way has the same
    sharers and the same shares.  This is :meth:`_ComponentTrajectory.step`
    with its one sharer set written out: the pressures are
    :func:`interp_ways` inlined, ``per_way = p / ways`` (recomputed rather
    than stored), the pressure total is a left fold of those in member
    order, a member's new value is its share ``per_way / total`` added
    ``ways`` times (repeated adds, as the way-by-way model does; one
    multiply would round differently), and the blend and delta are the same
    expressions.  Same operations in the same order, so the same bits.
    """
    base = model.base_pressure
    damping = model.damping
    retained = 1.0 - damping
    pressures = []
    total = 0.0
    for table, value in zip(curves, prev):
        # base + interp_ways(table, value), inlined.
        if value < 1.0:
            value = 1.0
        if value >= len(table):
            pressure = base + table[-1]
        else:
            j = int(value - 1.0)
            pressure = base + ((table[j + 1] - table[j]) * (value - (j + 1.0)) + table[j])
        pressures.append(pressure)
        total = total + pressure / ways
    delta = 0.0
    blended = []
    each_way = range(ways)
    for prev_i, pressure in zip(prev, pressures):
        share = pressure / ways / total
        new_i = 0.0
        for _ in each_way:
            new_i += share
        value = retained * prev_i + damping * new_i
        spread = abs(value - prev_i)
        if spread > delta:
            delta = spread
        blended.append(value)
    return blended, pressures, delta


class _ComponentTrajectory:
    """The exact damped fixed-point trajectory of one sharing group.

    Applications partition into *components* — the connected groups of the
    "shares a way with" relation.  The per-application updates of one
    component never read state from another component; the only global
    coupling is the *stop condition* (the largest change across all
    applications).  A component's value sequence is therefore a pure
    function of its members' curves and relative masks, and can be cached
    and replayed: iteration ``n`` of the global solve equals iteration ``n``
    of each component's private trajectory.

    :meth:`step` is the one iteration both :meth:`OccupancyModel.solve` (one
    kernel over a whole allocation that is not a proper cluster, nothing
    recorded) and :class:`OccupancyTrajectoryCache` (one recorded trajectory
    per component) run, so the operation order results depend on lives here
    and in :func:`_cluster_step` alone: per-way pressure totals accumulate
    over members in workload order, effective ways accumulate over a
    member's ways in ascending order, and the damped blend is
    ``(1 - damping) * old + damping * new``.  A proper cluster (every member
    on the same ways, ``cluster_ways`` > 0) steps through
    :func:`_cluster_step` and builds no per-way sharer tables.  The test
    suite pins both to the dict-based reference solve.  Once an iteration
    changes nothing (``delta == 0.0``, e.g. immediately for applications
    alone on their mask), every later iteration provably repeats it, so a
    recorded trajectory is frozen instead of extended.

    A recorded trajectory is two flat float buffers: ``eff`` holds iteration
    ``n``'s effective ways at ``[n * members, (n + 1) * members)`` and
    ``deltas`` its stop-condition value.  Pressures are not stored: those of
    iteration ``n`` are a pure function of iteration ``n - 1``
    (:meth:`_pressures`, the first thing either step computes;
    :func:`_cluster_step` inlines the same expression), so :meth:`pressure`
    derives them on replay with the same arithmetic and the same bits.
    """

    __slots__ = (
        "curves",
        "cluster_ways",
        "mask_sizes",
        "sharer_sets",
        "member_slots",
        "members",
        "eff",
        "deltas",
        "length",
        "fixed_at",
    )

    def __init__(
        self, curves: Sequence[Sequence[float]], way_lists: Sequence[Sequence[int]]
    ) -> None:
        """``curves`` holds each member's LLCMPKC points, ``way_lists`` its
        relative ways in ascending order."""
        self.curves = list(curves)
        self.members = len(way_lists)
        # Iteration 0 is the initial guess: every member owns its whole mask.
        self.eff = array("d", [float(len(ways)) for ways in way_lists])
        self.deltas = array("d", [0.0])
        self.length = 1  # recorded iterations, the initial guess included
        self.fixed_at: int = 0  # 0 = not fixed yet; else first repeating iteration
        self.mask_sizes: List[int] = []
        self.sharer_sets: List[Tuple[int, ...]] = []
        self.member_slots: List[List[int]] = []
        first = way_lists[0]
        if all(ways == first for ways in way_lists):
            # A proper cluster: one sharer set, stepped by _cluster_step.
            self.cluster_ways = len(first)
            return
        self.cluster_ways = 0
        self.mask_sizes = [max(len(ways), 1) for ways in way_lists]
        n_rel_ways = 1 + max(max(ways) for ways in way_lists)
        sharers: List[List[int]] = [[] for _ in range(n_rel_ways)]
        for member, ways in enumerate(way_lists):
            for way in ways:
                sharers[way].append(member)
        # Ways with the same sharers carry the same pressure total and the
        # same shares (a Dunn layout has one such set per overlap region),
        # so each distinct set is split once per step into a flat list of
        # shares, and a member's new effective ways is the sum of its shares
        # over its ways in ascending order — repeated adds, as in the
        # way-by-way model (one multiply would round differently).
        slot_of: Dict[Tuple[int, ...], int] = {}
        self.member_slots = [[] for _ in way_lists]
        for way_members in sharers:
            key = tuple(way_members)
            if key not in slot_of:
                slot_of[key] = sum(len(s) for s in self.sharer_sets)
                self.sharer_sets.append(key)
            for j, member in enumerate(key):
                self.member_slots[member].append(slot_of[key] + j)

    def ensure(self, n: int, model: "OccupancyModel") -> None:
        """Extend the trajectory so iteration ``n`` is available.

        Both steps stay pure Python on purpose: components hold a handful of
        members and a dozen ways, where inlined float arithmetic runs ~2-5x
        faster than an equivalent chain of NumPy ufunc calls (measured up to
        16 members).
        """
        while self.length <= n and not self.fixed_at:
            eff, _, delta = self.step(self.eff[-self.members :], model)
            self.eff.extend(eff)
            self.deltas.append(delta)
            if delta == 0.0:
                self.fixed_at = self.length
            self.length += 1

    def _pressures(self, prev: Sequence[float], base: float) -> List[float]:
        """Insertion pressures of the iteration that steps from ``prev``."""
        # llcmpkc_at(max(value, 0.25)): interp_ways clips the floor to 1.0.
        return [base + interp_ways(table, value) for table, value in zip(self.curves, prev)]

    def step(
        self, prev: Sequence[float], model: "OccupancyModel"
    ) -> Tuple[List[float], List[float], float]:
        """One damped iteration from ``prev``: (effective ways, pressures, delta)."""
        if self.cluster_ways:
            return _cluster_step(self.curves, self.cluster_ways, prev, model)
        damping = model.damping
        retained = 1.0 - damping
        pressures = self._pressures(prev, model.base_pressure)
        per_way = [p / size for p, size in zip(pressures, self.mask_sizes)]
        # Split each distinct sharer set's pressure total (a left fold in
        # member order), then sum every member's shares way by way.
        shares = []
        for members in self.sharer_sets:
            total = 0
            for i in members:
                total = total + per_way[i]
            for i in members:
                shares.append(per_way[i] / total)
        delta = 0.0
        blended = []
        for prev_i, slots in zip(prev, self.member_slots):
            new_i = 0.0
            for slot in slots:
                new_i += shares[slot]
            value = retained * prev_i + damping * new_i
            spread = abs(value - prev_i)
            if spread > delta:
                delta = spread
            blended.append(value)
        return blended, pressures, delta

    def _index(self, n: int) -> int:
        if self.fixed_at and n >= self.fixed_at:
            return self.fixed_at
        return n

    def delta(self, n: int) -> float:
        return self.deltas[self._index(n)]

    def effective(self, n: int) -> Sequence[float]:
        start = self._index(n) * self.members
        return self.eff[start : start + self.members]

    def pressure(self, n: int, model: "OccupancyModel") -> Sequence[float]:
        """Pressures of iteration ``n >= 1``, derived from iteration ``n - 1``.

        A frozen trajectory answers with the freeze point's pressures: its
        iterations ``fixed_at - 1`` and ``fixed_at`` are equal, so every later
        iteration steps from the same values.
        """
        return self._pressures(self.effective(self._index(n) - 1), model.base_pressure)


# One mask-sharing component of an allocation: its members in workload
# order, their relative way lists and the matching relative masks.
_Component = Tuple[List[str], List[List[int]], List[int]]


class OccupancyTrajectoryCache:
    """Component-level trajectory cache producing bit-identical solves.

    :meth:`solve` decomposes an allocation into mask-sharing components,
    replays (or lazily extends) each component's cached trajectory, applies
    the reference's global stop condition, and reassembles an
    :class:`OccupancyResult` equal — bit for bit, including the iteration
    count, convergence flag and last-iteration pressures — to what
    :meth:`OccupancyModel.solve` computes from scratch.  Components are keyed
    by their members' curve fingerprints and rank-compressed relative masks,
    so the same cluster reappearing at a different cache offset, in a
    different allocation, or in a rebuilt run reuses the stored iterations.

    Both tables — trajectories by component key, decompositions by
    allocation token — are LRU-bounded by ``max_entries`` (``None`` is
    unbounded).  Either is a pure function of its key, so an evicted entry
    is rebuilt with the same bits on its next use.
    """

    def __init__(self, model: OccupancyModel, max_entries: Optional[int] = None) -> None:
        self.model = model
        self._trajectories = LruDict(max_entries)
        self._decompositions = LruDict(max_entries)

    def __len__(self) -> int:
        return len(self._trajectories)

    def clear(self) -> None:
        self._trajectories.clear()
        self._decompositions.clear()

    def _decompose(
        self, allocation: WayAllocation, alloc_token: tuple
    ) -> List[_Component]:
        """Mask-sharing components: (members, relative ways, relative masks).

        Pure mask structure (independent of the profiles in force), so the
        decomposition is cached per allocation token and reused across phase
        changes and runs.  Pairwise disjoint masks (every LFOC, sweep and
        Stock-Linux layout) are one component each, their members in
        workload order on relative ways ``0..popcount - 1``; overlapping
        (Dunn) layouts take :meth:`_decompose_overlapping`.
        """
        cached = self._decompositions.get(alloc_token)
        if cached is not None:
            return cached
        members_of: Dict[int, List[str]] = {}
        for app, mask in allocation.masks.items():
            members_of.setdefault(mask, []).append(app)
        distinct = list(members_of)
        union = 0
        for mask in distinct:
            if union & mask:
                decomposition = self._decompose_overlapping(allocation, distinct)
                break
            union |= mask
        else:
            decomposition = []
            for mask, members in members_of.items():
                size, n = int(mask).bit_count(), len(members)
                rel_ways, rel_mask = list(range(size)), (1 << size) - 1
                decomposition.append((members, [rel_ways] * n, [rel_mask] * n))
        self._decompositions.put(alloc_token, decomposition)
        return decomposition

    @staticmethod
    def _decompose_overlapping(
        allocation: WayAllocation, distinct: List[int]
    ) -> List[_Component]:
        """Components of an allocation whose ``distinct`` masks overlap."""
        # Union-find over the distinct masks (apps sharing a mask are
        # trivially connected; two masks connect iff they overlap).
        slot_of = {mask: i for i, mask in enumerate(distinct)}
        parent = list(range(len(distinct)))

        def find(i: int) -> int:
            root = i
            while parent[root] != root:
                root = parent[root]
            while parent[i] != root:
                parent[i], i = root, parent[i]
            return root

        for i in range(len(distinct)):
            for j in range(i + 1, len(distinct)):
                if distinct[i] & distinct[j]:
                    root_j = find(j)
                    if root_j != find(i):
                        parent[root_j] = find(i)

        components: Dict[int, List[str]] = {}
        for app, mask in allocation.masks.items():  # members in workload order
            components.setdefault(find(slot_of[mask]), []).append(app)

        decomposition: List[_Component] = []
        for members in components.values():
            app_ways = [
                [w for w in range(allocation.total_ways) if allocation.masks[m] >> w & 1]
                for m in members
            ]
            union_ways = sorted({w for ways in app_ways for w in ways})
            rank = {w: r for r, w in enumerate(union_ways)}
            rel_lists = [[rank[w] for w in ways] for ways in app_ways]
            rel_masks = [sum(1 << r for r in rel) for rel in rel_lists]
            decomposition.append((members, rel_lists, rel_masks))
        return decomposition

    def solve(
        self,
        allocation: WayAllocation,
        tokens: Mapping[str, int],
        views: Mapping[str, FastProfileView],
        alloc_token: Optional[tuple] = None,
    ) -> OccupancyResult:
        """Exact replacement for ``model.solve(allocation, profiles)``.

        ``tokens`` maps each application to the value-fingerprint token of its
        profile (see :class:`~repro.simulator.estimator.EvaluationTables`) and
        ``views`` to the matching :class:`FastProfileView`.
        """
        model = self.model
        apps = allocation.apps()
        if alloc_token is None:
            alloc_token = (tuple(allocation.masks.items()), allocation.total_ways)

        trajectories: List[Tuple[_ComponentTrajectory, List[str]]] = []
        for members, rel_lists, rel_masks in self._decompose(allocation, alloc_token):
            key = tuple((tokens[m], mask) for m, mask in zip(members, rel_masks))
            trajectory = self._trajectories.get(key)
            if trajectory is None:
                trajectory = _ComponentTrajectory(
                    [views[m].llcmpkc for m in members], rel_lists
                )
                self._trajectories.put(key, trajectory)
            trajectories.append((trajectory, members))

        # The global solve stops at the first iteration where every
        # component's delta is below the tolerance.  The components are
        # visited in turn at a candidate iteration: one at or above the
        # tolerance bumps the candidate (every skipped iteration had such a
        # component), and the solve ends once all of them in a row are
        # below it.  Frozen trajectories answer with their exact 0.0
        # without stepping.
        tolerance = model.tolerance
        limit = model.max_iterations
        iteration = 1
        settled = 0
        turn = 0
        while settled < len(trajectories) and iteration <= limit:
            trajectory = trajectories[turn][0]
            trajectory.ensure(iteration, model)
            if trajectory.delta(iteration) >= tolerance:
                iteration += 1
                settled = 0
            else:
                settled += 1
                turn = (turn + 1) % len(trajectories)
        converged = iteration <= limit
        if not converged:
            # Unconverged: the solve reports the last iteration, which every
            # component must have reached.
            iteration = limit
            for trajectory, _ in trajectories:
                trajectory.ensure(iteration, model)

        effective: Dict[str, float] = {app: 0.0 for app in apps}
        pressures: Dict[str, float] = {app: 0.0 for app in apps}
        for trajectory, members in trajectories:
            eff = trajectory.effective(iteration)
            pressure = trajectory.pressure(iteration, model)
            for i, member in enumerate(members):
                effective[member] = eff[i]
                pressures[member] = pressure[i]
        return OccupancyResult(
            effective_ways=effective,
            pressures=pressures,
            iterations=iteration,
            converged=converged,
        )
