"""Tests for the contention estimator (occupancy, bandwidth, evaluation, Whirlpool)."""

import numpy as np
import pytest

from repro.apps import build_profile, light_curves, sensitive_curves, AppProfile, CurveSet
from repro.core import ClusteringSolution, WayAllocation
from repro.errors import SimulationError
from repro.hardware import skylake_gold_6138
from repro.simulator import (
    BandwidthModel,
    ClusteringEstimator,
    EvaluationTables,
    OccupancyModel,
    combined_ipc_curve,
    combined_miss_curve,
    whirlpool_distance,
)
from repro.simulator.bandwidth import read_demand


def _contention(model, effective_ways, profiles, platform):
    """One curve read per application, then the over-commit arithmetic."""
    _, demand, stall_fraction = read_demand(effective_ways, profiles, platform)
    return model.solve_from_demand(demand, stall_fraction, platform)


class TestOccupancyModel:
    def test_singleton_cluster_gets_all_its_ways(self, platform, mix8):
        alloc = ClusteringSolution.from_groups(
            [["xalancbmk06"], list(set(mix8) - {"xalancbmk06"})], [4, 7], 11
        ).to_allocation()
        result = OccupancyModel().solve(alloc, mix8)
        assert result.effective_ways["xalancbmk06"] == pytest.approx(4.0, abs=1e-6)

    def test_effective_ways_conserved_per_way(self, platform, mix8):
        alloc = ClusteringSolution.single_cluster(list(mix8), 11).to_allocation()
        result = OccupancyModel().solve(alloc, mix8)
        assert sum(result.effective_ways.values()) == pytest.approx(11.0, rel=2e-3)

    def test_streaming_apps_grab_more_shared_space(self, platform, mix8):
        alloc = ClusteringSolution.single_cluster(list(mix8), 11).to_allocation()
        result = OccupancyModel().solve(alloc, mix8)
        assert result.effective_ways["lbm06"] > result.effective_ways["gamess06"]

    def test_converges(self, platform, mix8):
        alloc = ClusteringSolution.single_cluster(list(mix8), 11).to_allocation()
        result = OccupancyModel().solve(alloc, mix8)
        assert result.converged
        assert result.iterations <= 50

    def test_missing_profile_rejected(self, platform, mix8):
        alloc = WayAllocation(masks={"ghost": 0b1}, total_ways=11)
        with pytest.raises(SimulationError):
            OccupancyModel().solve(alloc, mix8)

    def test_invalid_configuration_rejected(self):
        with pytest.raises(SimulationError):
            OccupancyModel(max_iterations=0)
        with pytest.raises(SimulationError):
            OccupancyModel(damping=0.0)
        with pytest.raises(SimulationError):
            OccupancyModel(tolerance=-1.0)
        with pytest.raises(SimulationError):
            OccupancyModel(base_pressure=0.0)

    def test_overlapping_masks_supported(self, platform, mix8):
        masks = {name: (1 << 11) - 1 for name in mix8}
        masks["gamess06"] = 0b11
        alloc = WayAllocation(masks=masks, total_ways=11)
        result = OccupancyModel().solve(alloc, mix8)
        assert sum(result.effective_ways.values()) == pytest.approx(11.0, rel=2e-3)


class TestBandwidthModel:
    def test_no_contention_below_peak(self, platform, light_profile):
        model = BandwidthModel()
        result = _contention(model, {"a": 11.0}, {"a": light_profile}, platform)
        assert result.total_demand_gbs <= result.peak_gbs
        assert result.slowdown_factors["a"] == 1.0

    def test_saturation_slows_memory_bound_apps_most(self, platform, catalog):
        profiles = {f"lbm{i}": catalog["lbm06"].renamed(f"lbm{i}") for i in range(12)}
        profiles["light"] = catalog["gamess06"].renamed("light")
        model = BandwidthModel()
        result = _contention(model, {name: 1.0 for name in profiles}, profiles, platform)
        assert result.total_demand_gbs > result.peak_gbs
        assert result.slowdown_factors["lbm0"] > result.slowdown_factors["light"]

    def test_factor_capped(self, platform, catalog):
        profiles = {f"lbm{i}": catalog["lbm06"].renamed(f"lbm{i}") for i in range(60)}
        model = BandwidthModel(max_factor=2.0)
        result = _contention(model, {name: 0.5 for name in profiles}, profiles, platform)
        assert max(result.slowdown_factors.values()) <= 2.0

    def test_invalid_configuration_rejected(self):
        with pytest.raises(SimulationError):
            BandwidthModel(sensitivity=-1.0)
        with pytest.raises(SimulationError):
            BandwidthModel(max_factor=0.5)

    def test_total_demand_is_a_left_fold(self, platform):
        # builtin sum() compensates float rounding from Python 3.12 on and
        # would give 1.0 here; the left fold gives the same bits everywhere.
        demand = {f"a{i}": 0.1 for i in range(10)}
        result = BandwidthModel().solve_from_demand(
            demand, {app: 0.5 for app in demand}, platform
        )
        assert result.total_demand_gbs == 0.9999999999999999

    def test_overcommit_property(self, platform, streaming_profile):
        result = _contention(
            BandwidthModel(), {"a": 1.0}, {"a": streaming_profile}, platform
        )
        assert result.overcommit == pytest.approx(
            result.total_demand_gbs / platform.peak_bw_gbs
        )


class TestClusteringEstimator:
    def test_unknown_application_in_allocation_raises(self, estimator):
        allocation = WayAllocation(
            masks={"gamess06": 0b11, "nosuch06": 0b1100}, total_ways=11
        )
        with pytest.raises(SimulationError) as info:
            estimator.evaluate_allocation(allocation)
        assert str(info.value) == "no profile registered for application 'nosuch06'"

    def test_unpartitioned_baseline_hurts_sensitive_apps(self, estimator):
        estimate = estimator.evaluate_unpartitioned()
        assert estimate.slowdowns["xalancbmk06"] > estimate.slowdowns["gamess06"]
        assert estimate.unfairness > 1.1

    def test_isolating_aggressors_improves_fairness(self, estimator, mix8):
        shared = estimator.evaluate_unpartitioned()
        streaming = ["lbm06", "libquantum06"]
        others = [name for name in mix8 if name not in streaming]
        clustering = ClusteringSolution.from_groups([streaming, others], [1, 10], 11)
        isolated = estimator.evaluate(clustering)
        assert isolated.unfairness < shared.unfairness

    def test_slowdowns_are_at_least_one(self, estimator, mix8):
        estimate = estimator.evaluate_unpartitioned()
        assert all(value >= 1.0 - 1e-9 for value in estimate.slowdowns.values())

    def test_full_private_cache_means_no_cache_slowdown(self, platform, catalog):
        profiles = {"xalancbmk06": catalog["xalancbmk06"]}
        estimator = ClusteringEstimator(platform, profiles)
        estimate = estimator.evaluate_unpartitioned()
        assert estimate.slowdowns["xalancbmk06"] == pytest.approx(1.0, abs=1e-6)

    def test_more_ways_never_hurt_a_singleton_cluster(self, platform, catalog):
        profiles = {
            "xalancbmk06": catalog["xalancbmk06"],
            "lbm06": catalog["lbm06"],
        }
        estimator = ClusteringEstimator(platform, profiles)
        slow = []
        for ways in (1, 3, 6, 10):
            clustering = ClusteringSolution.from_groups(
                [["xalancbmk06"], ["lbm06"]], [ways, 11 - ways], 11
            )
            slow.append(estimator.evaluate(clustering).slowdowns["xalancbmk06"])
        assert all(b <= a + 1e-9 for a, b in zip(slow, slow[1:]))

    def test_metrics_consistent_with_slowdowns(self, estimator):
        estimate = estimator.evaluate_unpartitioned()
        values = list(estimate.slowdowns.values())
        assert estimate.metrics.unfairness == pytest.approx(max(values) / min(values))
        assert estimate.metrics.stp == pytest.approx(sum(1.0 / v for v in values))

    def test_evaluate_requires_known_profiles(self, estimator):
        clustering = ClusteringSolution.single_cluster(["ghost"], 11)
        with pytest.raises(SimulationError):
            estimator.evaluate(clustering)

    def test_slowdown_tables_match_profiles(self, estimator, mix8):
        tables = estimator.slowdown_tables()
        assert set(tables) == set(mix8)
        assert tables["xalancbmk06"][0] > tables["xalancbmk06"][-1]
        assert tables["xalancbmk06"][-1] == pytest.approx(1.0)

    def test_empty_estimator_rejected(self, platform):
        with pytest.raises(SimulationError):
            ClusteringEstimator(platform, {})

    def test_overlapping_allocation_evaluation(self, estimator, mix8):
        masks = {name: (1 << 11) - 1 for name in mix8}
        masks["xalancbmk06"] = 0b111
        estimate = estimator.evaluate_allocation(
            WayAllocation(masks=masks, total_ways=11)
        )
        assert estimate.slowdowns["xalancbmk06"] >= 1.0


class TestWhirlpool:
    def test_similar_curves_have_small_distance(self, catalog):
        lbm = combined_miss_curve([catalog["lbm06"]], 11)
        lbm17 = combined_miss_curve([catalog["lbm17"]], 11)
        xalanc = combined_miss_curve([catalog["xalancbmk06"]], 11)
        assert whirlpool_distance(lbm, lbm17) < whirlpool_distance(lbm, xalanc)

    def test_combined_miss_curve_decreases_with_ways_for_sensitive(self, catalog):
        curve = combined_miss_curve([catalog["xalancbmk06"], catalog["soplex06"]], 11)
        assert curve[0] > curve[-1]

    def test_combined_ipc_curve_increases_with_ways(self, catalog):
        curve = combined_ipc_curve([catalog["xalancbmk06"], catalog["soplex06"]], 11)
        assert curve[-1] >= curve[0]

    def test_combined_ipc_curve_is_a_left_fold(self):
        # Ten members whose IPC is 0.1 at every way count: builtin sum()
        # compensates float rounding from Python 3.12 on and would give 1.0;
        # the left fold gives the same bits everywhere.
        flat = AppProfile(
            name="flat", curves=CurveSet(ipc=np.full(11, 0.1), llcmpkc=np.full(11, 0.1))
        )
        curve = combined_ipc_curve([flat] * 10, 11)
        assert curve.tolist() == [0.9999999999999999] * 11

    def test_distance_is_symmetric(self, catalog):
        a = combined_miss_curve([catalog["lbm06"]], 11)
        b = combined_miss_curve([catalog["omnetpp06"]], 11)
        assert whirlpool_distance(a, b) == pytest.approx(whirlpool_distance(b, a))

    def test_distance_of_identical_curves_is_zero(self, catalog):
        a = combined_miss_curve([catalog["lbm06"]], 11)
        assert whirlpool_distance(a, a) == pytest.approx(0.0)

    def test_empty_cluster_rejected(self):
        with pytest.raises(SimulationError):
            combined_miss_curve([], 11)

    def test_mismatched_curves_rejected(self):
        with pytest.raises(SimulationError):
            whirlpool_distance([1.0, 2.0], [1.0, 2.0, 3.0])


class TestEvaluationTablesEviction:
    """max_entries bounds the estimate cache without changing any result."""

    def _mix(self, platform, count=4):
        names = ["lbm06", "xalancbmk06", "gamess06", "omnetpp06"][:count]
        return {name: build_profile(name, platform.llc_ways) for name in names}

    def _allocations(self, platform, profiles):
        apps = list(profiles)
        allocations = []
        for split in range(1, len(apps)):
            left = ClusteringSolution.single_cluster(apps[:split], platform.llc_ways // 2)
            masks = dict(left.to_allocation().masks)
            high = ((1 << (platform.llc_ways - platform.llc_ways // 2)) - 1) << (
                platform.llc_ways // 2
            )
            for app in apps[split:]:
                masks[app] = high
            allocations.append(
                WayAllocation(masks=masks, total_ways=platform.llc_ways)
            )
        return allocations

    def test_rejects_non_positive_bound(self):
        platform = skylake_gold_6138()
        with pytest.raises(SimulationError):
            EvaluationTables(platform, max_entries=0)

    def test_cache_never_exceeds_bound(self):
        platform = skylake_gold_6138()
        profiles = self._mix(platform)
        tables = EvaluationTables(platform, max_entries=2)
        for allocation in self._allocations(platform, profiles):
            tables.evaluate(allocation, profiles)
        assert tables.cache_sizes()["estimates"] <= 2

    def test_results_bit_identical_with_and_without_bound(self):
        platform = skylake_gold_6138()
        profiles = self._mix(platform)
        unbounded = EvaluationTables(platform)
        bounded = EvaluationTables(platform, max_entries=1)
        allocations = self._allocations(platform, profiles)
        # Evaluate each twice with the tiny cache: the second pass re-derives
        # evicted entries and must land on the exact same floats.
        for _ in range(2):
            for allocation in allocations:
                reference = unbounded.evaluate(allocation, profiles)
                evicted = bounded.evaluate(allocation, profiles)
                assert evicted.slowdowns == reference.slowdowns
                assert evicted.metrics == reference.metrics

    def test_lru_keeps_recently_used_entries(self):
        platform = skylake_gold_6138()
        profiles = self._mix(platform)
        a, b, c = self._allocations(platform, profiles)
        tables = EvaluationTables(platform, max_entries=2)
        first = tables.evaluate(a, profiles)
        tables.evaluate(b, profiles)
        # Touch `a` so `b` is the LRU victim when `c` arrives.
        assert tables.evaluate(a, profiles) is first
        tables.evaluate(c, profiles)
        assert tables.evaluate(a, profiles) is first  # still cached

    def test_engine_config_wires_the_bound_through(self):
        from repro.runtime import EngineConfig, RuntimeEngine, StockLinuxDriver
        from repro.workloads import workload_by_name

        platform = skylake_gold_6138()
        workload = workload_by_name("P1")
        config = EngineConfig(
            instructions_per_run=2e8,
            min_completions=1,
            record_traces=False,
            max_table_entries=16,
        )
        engine = RuntimeEngine(
            platform,
            workload.phased_profiles(platform.llc_ways),
            StockLinuxDriver(),
            config,
        )
        assert engine.tables is not None and engine.tables.max_entries == 16
        engine.run(workload.name)
        assert engine.tables.cache_sizes()["estimates"] <= 16

    def test_engine_config_rejects_bad_bound(self):
        from repro.runtime import EngineConfig

        with pytest.raises(SimulationError):
            EngineConfig(max_table_entries=0)
