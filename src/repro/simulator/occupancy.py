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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.apps.profile import AppProfile, FastProfileView, interp_ways
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
    kernel, :meth:`_ComponentTrajectory.step`, under the same stop
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

        The whole allocation is stepped by one :class:`_ComponentTrajectory`
        kernel.  Disconnected groups of applications never read each other's
        state, so this is the same arithmetic as solving them apart under
        the shared stop condition.
        """
        apps = allocation.apps()
        for app in apps:
            if app not in profiles:
                raise SimulationError(f"no profile registered for application {app!r}")
        kernel = _ComponentTrajectory(
            [profiles[app].llcmpkc_points for app in apps],
            [
                [w for w in range(allocation.total_ways) if allocation.masks[app] >> w & 1]
                for app in apps
            ],
        )
        # A cold solve is never replayed, so it keeps only the latest iterate.
        effective = kernel.eff[0]
        pressures: Tuple[float, ...] = ()
        converged = False
        iteration = 0
        for iteration in range(1, self.max_iterations + 1):
            effective, pressures, delta = kernel.step(effective, self)
            if delta < self.tolerance:
                converged = True
                break
        return OccupancyResult(
            effective_ways=dict(zip(apps, effective)),
            pressures=dict(zip(apps, pressures)),
            iterations=iteration,
            converged=converged,
        )


class _ComponentTrajectory:
    """The damped fixed-point kernel: the exact trajectory of one sharing group.

    Applications partition into *components* — the connected groups of the
    "shares a way with" relation.  The per-application updates of one
    component never read state from another component; the only global
    coupling is the *stop condition* (the largest change across all
    applications).  A component's value sequence is therefore a pure
    function of its members' curves and relative masks, and can be cached
    and replayed: iteration ``n`` of the global solve equals iteration ``n``
    of each component's private trajectory.

    :meth:`step` is the one iteration both :meth:`OccupancyModel.solve` (one
    kernel over the whole allocation, nothing recorded) and
    :class:`OccupancyTrajectoryCache` (one recorded trajectory per component)
    run, so the operation order results depend on lives here alone: per-way
    pressure totals accumulate over members in workload order, effective
    ways accumulate over a member's ways in ascending order, and the damped
    blend is ``(1 - damping) * old + damping * new``.  The test suite pins
    it to the dict-based reference solve.  Once an iteration changes nothing
    (``delta == 0.0``, e.g. immediately for applications alone on their
    mask), every later iteration provably repeats it, so a recorded
    trajectory is frozen instead of extended.
    """

    __slots__ = (
        "curves",
        "mask_sizes",
        "sharer_sets",
        "member_slots",
        "eff",
        "pressures",
        "deltas",
        "fixed_at",
    )

    def __init__(
        self, curves: Sequence[Sequence[float]], way_lists: Sequence[Sequence[int]]
    ) -> None:
        """``curves`` holds each member's LLCMPKC points, ``way_lists`` its
        relative ways in ascending order."""
        self.curves = list(curves)
        self.mask_sizes = [max(len(ways), 1) for ways in way_lists]
        n_rel_ways = 1 + max(max(ways) for ways in way_lists)
        sharers: List[List[int]] = [[] for _ in range(n_rel_ways)]
        for member, ways in enumerate(way_lists):
            for way in ways:
                sharers[way].append(member)
        # Ways with the same sharers carry the same pressure total and the
        # same shares (a proper cluster has one such set, a Dunn layout one
        # per overlap region), so each distinct set is split once per step
        # into a flat list of shares, and a member's new effective ways is
        # the sum of its shares over its ways in ascending order — repeated
        # adds, as in the way-by-way model (one multiply would round
        # differently).
        slot_of: Dict[Tuple[int, ...], int] = {}
        self.sharer_sets: List[Tuple[int, ...]] = []
        self.member_slots: List[List[int]] = [[] for _ in way_lists]
        for way_members in sharers:
            key = tuple(way_members)
            if key not in slot_of:
                slot_of[key] = sum(len(s) for s in self.sharer_sets)
                self.sharer_sets.append(key)
            for j, member in enumerate(key):
                self.member_slots[member].append(slot_of[key] + j)
        # Iteration 0 is the initial guess: every member owns its whole mask.
        self.eff: List[Tuple[float, ...]] = [
            tuple(float(len(ways)) for ways in way_lists)
        ]
        self.pressures: List[Tuple[float, ...]] = [()]
        self.deltas: List[float] = [0.0]
        self.fixed_at: int = 0  # 0 = not fixed yet; else first repeating iteration

    def ensure(self, n: int, model: "OccupancyModel") -> None:
        """Extend the trajectory so iteration ``n`` is available.

        The step stays pure Python on purpose: components hold a handful of
        members and a dozen ways, where inlined float arithmetic runs ~2-5x
        faster than an equivalent chain of NumPy ufunc calls (measured up to
        16 members).
        """
        while len(self.eff) <= n and not self.fixed_at:
            eff, pressures, delta = self.step(self.eff[-1], model)
            self.eff.append(eff)
            self.pressures.append(pressures)
            self.deltas.append(delta)
            if delta == 0.0:
                self.fixed_at = len(self.eff) - 1

    def step(
        self, prev: Tuple[float, ...], model: "OccupancyModel"
    ) -> Tuple[Tuple[float, ...], Tuple[float, ...], float]:
        """One damped iteration from ``prev``: (effective ways, pressures, delta)."""
        base = model.base_pressure
        damping = model.damping
        retained = 1.0 - damping
        # llcmpkc_at(max(value, 0.25)): interp_ways clips the floor to 1.0.
        pressures = tuple(
            [base + interp_ways(table, value) for table, value in zip(self.curves, prev)]
        )
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
        return tuple(blended), pressures, delta

    def _index(self, n: int) -> int:
        if self.fixed_at and n >= self.fixed_at:
            return self.fixed_at
        return n

    def delta(self, n: int) -> float:
        return self.deltas[self._index(n)]

    def effective(self, n: int) -> Tuple[float, ...]:
        return self.eff[self._index(n)]

    def pressure(self, n: int) -> Tuple[float, ...]:
        return self.pressures[self._index(n)]


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
    """

    def __init__(self, model: OccupancyModel) -> None:
        self.model = model
        self._trajectories: Dict[tuple, _ComponentTrajectory] = {}
        self._decompositions: Dict[tuple, List[Tuple[List[str], List[List[int]]]]] = {}

    def __len__(self) -> int:
        return len(self._trajectories)

    def clear(self) -> None:
        self._trajectories.clear()
        self._decompositions.clear()

    # -- persistence -------------------------------------------------------------

    def export_entries(self) -> List[Tuple[tuple, dict]]:
        """Plain-data snapshot of every cached trajectory, for persistence.

        Each entry is ``(key, state)`` where ``key`` is the component's
        ``((token, relative_mask), ...)`` identity and ``state`` holds the
        recorded iterations verbatim: ``eff`` and ``pressures`` are lists of
        per-member tuples (``pressures[0]`` is the empty placeholder of the
        initial guess), ``deltas`` the per-iteration stop-condition values and
        ``fixed_at`` the freeze point (0 when the trajectory is still live).
        """
        return [
            (
                key,
                {
                    "eff": list(trajectory.eff),
                    "pressures": list(trajectory.pressures),
                    "deltas": list(trajectory.deltas),
                    "fixed_at": trajectory.fixed_at,
                },
            )
            for key, trajectory in self._trajectories.items()
        ]

    def restore_entry(
        self,
        key: tuple,
        views: Sequence[FastProfileView],
        eff: Sequence[Sequence[float]],
        pressures: Sequence[Sequence[float]],
        deltas: Sequence[float],
        fixed_at: int,
    ) -> None:
        """Re-install one exported trajectory (inverse of :meth:`export_entries`).

        ``views`` must evaluate the same curves the component was recorded
        with (one per member, in key order); the member way lists are decoded
        from the relative masks in ``key``, which enumerate ways in ascending
        order exactly as the decomposition built them.  The restored
        trajectory replays bit-identically because the recorded iterations are
        reinstated verbatim and any further extension runs the same arithmetic
        on the same curves.
        """
        way_lists = [
            [w for w in range(int(mask).bit_length()) if (int(mask) >> w) & 1]
            for _, mask in key
        ]
        trajectory = _ComponentTrajectory([view.llcmpkc for view in views], way_lists)
        trajectory.eff = [tuple(float(v) for v in row) for row in eff]
        trajectory.pressures = [tuple(float(v) for v in row) for row in pressures]
        trajectory.deltas = [float(d) for d in deltas]
        trajectory.fixed_at = int(fixed_at)
        self._trajectories[key] = trajectory

    def _decompose(
        self, allocation: WayAllocation, alloc_token: tuple
    ) -> List[Tuple[List[str], List[List[int]]]]:
        """Mask-sharing components of an allocation: (members, relative ways).

        Pure mask structure (independent of the profiles in force), so the
        decomposition is cached per allocation token and reused across phase
        changes and runs.
        """
        cached = self._decompositions.get(alloc_token)
        if cached is not None:
            return cached
        apps = allocation.apps()
        masks = [allocation.mask_of(app) for app in apps]
        app_ways: Dict[str, List[int]] = {
            app: [w for w in range(allocation.total_ways) if mask & (1 << w)]
            for app, mask in zip(apps, masks)
        }

        # Union-find over the *distinct* masks (apps sharing a mask are
        # trivially connected; two masks connect iff they overlap).
        distinct: List[int] = []
        seen: Dict[int, int] = {}
        mask_index: List[int] = []
        for mask in masks:
            slot = seen.get(mask)
            if slot is None:
                slot = len(distinct)
                seen[mask] = slot
                distinct.append(mask)
            mask_index.append(slot)
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
        for app, slot in zip(apps, mask_index):  # members in workload order
            components.setdefault(find(slot), []).append(app)

        decomposition: List[Tuple[List[str], List[List[int]]]] = []
        for members in components.values():
            union_ways = sorted({w for m in members for w in app_ways[m]})
            rank = {w: r for r, w in enumerate(union_ways)}
            rel_lists = [[rank[w] for w in app_ways[m]] for m in members]
            decomposition.append((members, rel_lists))
        self._decompositions[alloc_token] = decomposition
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
        for members, rel_lists in self._decompose(allocation, alloc_token):
            key = tuple(
                (tokens[m], sum(1 << r for r in rel))
                for m, rel in zip(members, rel_lists)
            )
            trajectory = self._trajectories.get(key)
            if trajectory is None:
                trajectory = _ComponentTrajectory(
                    [views[m].llcmpkc for m in members], rel_lists
                )
                self._trajectories[key] = trajectory
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
            pressure = trajectory.pressure(iteration)
            for i, member in enumerate(members):
                effective[member] = eff[i]
                pressures[member] = pressure[i]
        return OccupancyResult(
            effective_ways=effective,
            pressures=pressures,
            iterations=iteration,
            converged=converged,
        )
