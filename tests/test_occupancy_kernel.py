"""The proper-cluster occupancy kernel against the way-by-way reference.

A proper cluster (every member on the same mask) is stepped by
:func:`repro.simulator.occupancy._cluster_step`, both in a cold
:meth:`OccupancyModel.solve` and in a cached component trajectory; every
other layout keeps the general sharer-set step.  The kernel must reproduce
:func:`oracles.occupancy_solve_reference` bit for bit — effective ways,
pressures, iteration count and convergence flag — so every comparison here
is on hex floats.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracles
from repro.apps import AppProfile, CurveSet
from repro.apps.catalog import build_catalog
from repro.apps.profile import FastProfileView, interp_ways
from repro.core.types import WayAllocation
from repro.hardware.cat import mask_from_range
from repro.simulator import OccupancyModel, OccupancyTrajectoryCache
from repro.simulator import occupancy


def _bits(result):
    """An occupancy result with every float in hex (bit-exact comparison)."""
    return (
        [(app, value.hex()) for app, value in result.effective_ways.items()],
        [(app, value.hex()) for app, value in result.pressures.items()],
        result.iterations,
        result.converged,
    )


def _profile(name, mpkc):
    mpkc = np.asarray(mpkc, dtype=float)
    return AppProfile(name=name, curves=CurveSet(ipc=np.ones(len(mpkc)), llcmpkc=mpkc))


def _cache_solve(model, allocation, profiles):
    tokens = {app: i for i, app in enumerate(profiles)}
    views = {app: FastProfileView(profile) for app, profile in profiles.items()}
    cache = OccupancyTrajectoryCache(model)
    return cache, cache.solve(allocation, tokens, views)


@st.composite
def proper_clusters(draw):
    """A proper cluster of 1-16 members on 1-20 ways at some cache offset.

    Curves run from one point to past the cluster's width, so the kernel
    evaluates them below one way (many members crammed into few ways) and
    beyond the table end (a curve shorter than the mask).
    """
    n_members = draw(st.integers(min_value=1, max_value=16))
    ways = draw(st.integers(min_value=1, max_value=20))
    offset = draw(st.integers(min_value=0, max_value=4))
    values = st.floats(min_value=0.0, max_value=80.0, allow_nan=False)
    profiles = {}
    for i in range(n_members):
        points = draw(st.integers(min_value=1, max_value=24))
        profiles[f"a{i}"] = _profile(
            f"a{i}", draw(st.lists(values, min_size=points, max_size=points))
        )
    model = OccupancyModel(
        damping=draw(st.sampled_from([0.3, 0.5, 1.0])),
        max_iterations=draw(st.sampled_from([1, 3, 50])),
    )
    mask = mask_from_range(offset, ways)
    allocation = WayAllocation(
        masks={app: mask for app in profiles}, total_ways=offset + ways
    )
    return model, allocation, profiles


class TestProperClusterKernel:
    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(proper_clusters())
    def test_cold_and_cached_solves_match_reference(self, case):
        model, allocation, profiles = case
        expected = _bits(oracles.occupancy_solve_reference(model, allocation, profiles))
        assert _bits(model.solve(allocation, profiles)) == expected
        cache, cached = _cache_solve(model, allocation, profiles)
        assert _bits(cached) == expected
        (trajectory,) = cache._trajectories.values()
        assert trajectory.cluster_ways == allocation.ways_of("a0")

    def test_crammed_cluster_and_short_curves(self):
        # Sixteen members in one way hold far less than a way each, and
        # two-point curves on twenty ways are read past their end: both
        # edges of the inlined interpolation are on the solve's path.
        rng = np.random.default_rng(3)
        for n_members, ways, points in ((16, 1, 11), (3, 20, 2), (5, 7, 1)):
            profiles = {
                f"a{i}": _profile(f"a{i}", np.sort(rng.uniform(0, 60, points))[::-1])
                for i in range(n_members)
            }
            allocation = WayAllocation(
                masks={app: mask_from_range(0, ways) for app in profiles}, total_ways=ways
            )
            for damping in (0.3, 0.5, 1.0):
                model = OccupancyModel(damping=damping)
                result = model.solve(allocation, profiles)
                reference = oracles.occupancy_solve_reference(model, allocation, profiles)
                assert _bits(result) == _bits(reference)
                if ways == 1:
                    assert max(result.effective_ways.values()) < 1.0
                else:
                    assert max(result.effective_ways.values()) > points

    def test_cold_cluster_solve_builds_no_trajectory(self, monkeypatch):
        catalog = build_catalog(11)
        profiles = {app: catalog[app] for app in ("lbm06", "mcf06", "gamess06")}
        model = OccupancyModel()
        expected = model.solve(
            WayAllocation(masks={app: mask_from_range(3, 4) for app in profiles}, total_ways=11),
            profiles,
        )

        def refuse(*args, **kwargs):
            raise AssertionError("a proper cluster took the general step")

        monkeypatch.setattr(occupancy, "_ComponentTrajectory", refuse)
        # The kernel is chosen from the masks alone, at any offset.
        for start in (0, 3, 7):
            allocation = WayAllocation(
                masks={app: mask_from_range(start, 4) for app in profiles}, total_ways=11
            )
            result = model.solve(allocation, profiles)
            assert {a: v.hex() for a, v in result.effective_ways.items()} == {
                a: v.hex() for a, v in expected.effective_ways.items()
            }
        split = WayAllocation(
            masks={"lbm06": mask_from_range(0, 2), "mcf06": mask_from_range(2, 9)},
            total_ways=11,
        )
        with pytest.raises(AssertionError, match="general step"):
            model.solve(split, profiles)


class TestMixedAllocations:
    @staticmethod
    def _mixed(catalog):
        """Two proper clusters, a Dunn overlap pair and a lone application."""
        masks = {
            "lbm06": mask_from_range(0, 3),
            "mcf06": mask_from_range(0, 3),
            "gamess06": mask_from_range(3, 1),
            "xalancbmk06": mask_from_range(4, 3),
            "soplex06": mask_from_range(5, 3),
            "omnetpp06": mask_from_range(8, 3),
            "namd06": mask_from_range(8, 3),
            "milc06": mask_from_range(8, 3),
        }
        return WayAllocation(masks=masks, total_ways=11), {app: catalog[app] for app in masks}

    @pytest.mark.parametrize("max_iterations", [1, 3, 50])
    def test_trajectory_cache_matches_cold_solve(self, max_iterations):
        allocation, profiles = self._mixed(build_catalog(11))
        model = OccupancyModel(max_iterations=max_iterations)
        cold = model.solve(allocation, profiles)
        assert _bits(cold) == _bits(
            oracles.occupancy_solve_reference(model, allocation, profiles)
        )
        cache, cached = _cache_solve(model, allocation, profiles)
        assert _bits(cached) == _bits(cold)
        # Both steps ran: the clusters on the kernel, the overlap on the
        # general sharer-set step.
        kinds = sorted(t.cluster_ways for t in cache._trajectories.values())
        assert kinds == [0, 1, 3, 3]
        general = [t for t in cache._trajectories.values() if not t.cluster_ways]
        assert len(general[0].sharer_sets) == 3
        # A replay from the recorded trajectories repeats the solve.
        tokens = {app: i for i, app in enumerate(profiles)}
        views = {app: FastProfileView(profile) for app, profile in profiles.items()}
        assert _bits(cache.solve(allocation, tokens, views)) == _bits(cold)


class TestInlinedInterpolation:
    @pytest.mark.parametrize("points", [1, 2, 5, 11])
    def test_pressures_equal_interp_ways_at_the_edges(self, points):
        rng = np.random.default_rng(points)
        tables = [tuple(rng.uniform(0.0, 60.0, points).tolist()) for _ in range(3)]
        model = OccupancyModel(base_pressure=0.05)
        n = float(points)
        probes = [1e-9, 0.25, 0.5, 0.999, 1.0, n - 1e-9, n, n + 1e-9, n + 1.0, 1e6]
        probes += [float(w) for w in range(1, points + 1)]
        probes += [w + 0.5 for w in range(1, points)]
        for value in probes:
            prev = [value] * len(tables)
            for ways in (1, 3):
                _, pressures, _ = occupancy._cluster_step(tables, ways, prev, model)
                assert [p.hex() for p in pressures] == [
                    (model.base_pressure + interp_ways(table, value)).hex()
                    for table in tables
                ]


class _CountingCache(OccupancyTrajectoryCache):
    """A trajectory cache counting how often the union-find path runs."""

    overlapping_calls = 0

    def _decompose_overlapping(self, allocation, distinct):
        self.overlapping_calls += 1
        return super()._decompose_overlapping(allocation, distinct)


@st.composite
def disjoint_allocations(draw):
    """Pairwise disjoint masks, non-contiguous ones included, each held by
    one or more applications in a shuffled workload order."""
    total_ways = draw(st.integers(min_value=1, max_value=16))
    n_masks = draw(st.integers(min_value=1, max_value=6))
    labels = draw(
        st.lists(
            st.integers(min_value=-1, max_value=n_masks - 1),
            min_size=total_ways,
            max_size=total_ways,
        )
    )
    masks = [
        sum(1 << w for w, label in enumerate(labels) if label == j) for j in range(n_masks)
    ]
    masks = [mask for mask in masks if mask] or [1]
    holders = draw(
        st.lists(st.sampled_from(range(len(masks))), min_size=1, max_size=12)
    )
    return WayAllocation(
        masks={f"app{i}": masks[m] for i, m in enumerate(holders)}, total_ways=total_ways
    )


@st.composite
def any_allocations(draw):
    """Arbitrary masks, overlapping (and repeated) ones included."""
    total_ways = draw(st.integers(min_value=1, max_value=12))
    masks = draw(
        st.lists(
            st.integers(min_value=1, max_value=(1 << total_ways) - 1),
            min_size=1,
            max_size=10,
        )
    )
    return WayAllocation(
        masks={f"app{i}": mask for i, mask in enumerate(masks)}, total_ways=total_ways
    )


class TestDecomposition:
    """The cache's decomposition against the union-find reference."""

    @settings(max_examples=300, deadline=None)
    @given(disjoint_allocations())
    def test_disjoint_masks_skip_union_find(self, allocation):
        cache = _CountingCache(OccupancyModel())
        token = (tuple(allocation.masks.items()), allocation.total_ways)
        assert cache._decompose(allocation, token) == oracles.decompose_reference(allocation)
        assert cache.overlapping_calls == 0
        # Cached per allocation token.
        assert cache._decompose(allocation, token) is cache._decompose(allocation, token)

    @settings(max_examples=300, deadline=None)
    @given(any_allocations())
    def test_any_masks_match_union_find(self, allocation):
        cache = _CountingCache(OccupancyModel())
        token = (tuple(allocation.masks.items()), allocation.total_ways)
        assert cache._decompose(allocation, token) == oracles.decompose_reference(allocation)
        assert cache.overlapping_calls == int(allocation.is_overlapping())
