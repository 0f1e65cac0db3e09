"""Bit-identity of the incremental evaluation layer and the runtime engine.

The incremental paths (FastProfileView, the occupancy trajectory cache,
EvaluationTables, the vectorized runtime-engine loop, executor batches) must
reproduce the reference implementations *exactly* — the cold
ClusteringEstimator and the oracles in ``tests/oracles.py``: same floats,
same iteration counts, same traces — not merely approximately.  Every
assertion in this module therefore uses strict equality.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracles
from repro.apps import AppProfile, CurveSet
from repro.apps.catalog import build_catalog
from repro.apps.profile import (
    FastProfileView,
    bandwidth_gbs_from_llcmpkc,
    interp_ways,
    stall_fraction_from_llcmpkc,
)
from repro.core.types import WayAllocation
from repro.errors import ProfileError, SimulationError
from repro.hardware import skylake_gold_6138
from repro.hardware.cat import mask_from_range
from repro.metrics import compute_metrics
from repro.runtime import (
    DunnUserLevelDaemon,
    EngineConfig,
    LfocSchedulerPlugin,
    MonitorConfig,
    RunSpec,
    RuntimeEngine,
    SerialExecutor,
    StockLinuxDriver,
)
from repro.runtime.executors import resolve_jobs
from repro.simulator import (
    ClusteringEstimator,
    EvaluationTables,
    OccupancyModel,
    OccupancyTrajectoryCache,
    ProfileSnapshot,
)
from repro.workloads import Workload


QUICK_MONITOR = MonitorConfig(warmup_samples=2, history_window=3)

FAST = EngineConfig(
    instructions_per_run=8.0e8,
    min_completions=2,
    partition_interval_s=0.05,
    record_traces=True,
    max_simulated_seconds=120.0,
)


@pytest.fixture(scope="module")
def platform():
    return skylake_gold_6138()


@pytest.fixture(scope="module")
def phased_workload():
    # mcf06 and xalancbmk06 carry real phase sequences, lbm06 streams,
    # gamess06 is light: phase boundaries, sampling sweeps and repartitions
    # all occur within the FAST budget.
    return Workload("inc-mix", ("mcf06", "xalancbmk06", "lbm06", "gamess06"))


def _random_allocation(rng, apps, llc_ways):
    masks = {}
    for app in apps:
        start = int(rng.integers(0, llc_ways))
        width = int(rng.integers(1, llc_ways - start + 1))
        masks[app] = mask_from_range(start, width)
    return WayAllocation(masks=masks, total_ways=llc_ways)


@st.composite
def occupancy_cases(draw):
    """Random profiles, allocation and model parameters for the occupancy solve.

    Allocations come in three shapes: Dunn-style (clusters laid out
    consecutively, each spilling into the next), uniform clusters (disjoint
    ranges whose members share one mask, what the static solvers evaluate)
    and arbitrary non-empty masks.  Curves may be shorter or longer than the
    cache, down to a single way.
    """
    n_ways = draw(st.integers(min_value=1, max_value=14))
    n_apps = draw(st.integers(min_value=1, max_value=7))
    apps = [f"a{i}" for i in range(n_apps)]
    values = st.floats(min_value=0.0, max_value=80.0, allow_nan=False)
    profiles = {}
    for app in apps:
        points = draw(st.integers(min_value=1, max_value=14))
        mpkc = draw(st.lists(values, min_size=points, max_size=points))
        profiles[app] = AppProfile(
            name=app, curves=CurveSet(ipc=np.ones(points), llcmpkc=np.array(mpkc))
        )
    shape = draw(st.sampled_from(["dunn", "uniform", "random"]))
    if shape == "random":
        masks = {
            app: draw(st.integers(min_value=1, max_value=(1 << n_ways) - 1))
            for app in apps
        }
    else:
        k = draw(st.integers(min_value=1, max_value=min(n_apps, n_ways)))
        cuts = sorted(draw(st.permutations(range(1, n_ways)))[: k - 1])
        bounds = [0] + cuts + [n_ways]
        spill = draw(st.integers(min_value=0, max_value=2)) if shape == "dunn" else 0
        cluster_masks = [
            mask_from_range(lo, min(hi + spill, n_ways) - lo)
            for lo, hi in zip(bounds, bounds[1:])
        ]
        masks = {
            app: cluster_masks[draw(st.integers(min_value=0, max_value=k - 1))]
            for app in apps
        }
    model = OccupancyModel(
        max_iterations=draw(st.integers(min_value=1, max_value=60)),
        tolerance=draw(st.sampled_from([1e-12, 1e-8, 1e-4, 1e-2, 0.5])),
        damping=draw(st.floats(min_value=0.05, max_value=1.0)),
        base_pressure=draw(st.floats(min_value=1e-3, max_value=5.0)),
    )
    return model, WayAllocation(masks=masks, total_ways=n_ways), profiles


def run_result_fields(result):
    """Everything a RunResult records, as an exactly-comparable structure."""
    return {
        "policy": result.policy,
        "workload": result.workload,
        "duration": result.duration_s,
        "stats": {
            name: (
                stats.completion_times,
                stats.alone_time,
                stats.instructions_retired,
                stats.samples_taken,
                stats.sampling_mode_entries,
                stats.class_changes,
            )
            for name, stats in result.app_stats.items()
        },
        "traces": result.traces,
        "repartitions": [
            (event.time_s, event.reason, event.masks) for event in result.repartitions
        ],
        "final_masks": dict(result.final_allocation.masks),
    }


class TestFastProfileView:
    def test_interpolation_pinned_to_np_interp(self, platform):
        # AppProfile and FastProfileView share interp_ways, so each is pinned
        # to np.interp itself rather than to the other.
        rng = np.random.default_rng(5)
        catalog = build_catalog(platform.llc_ways)
        profiles = list(catalog.values())[:8] + [
            AppProfile(
                name=f"rand{n}",
                curves=CurveSet(
                    ipc=rng.uniform(0.2, 3.0, size=n), llcmpkc=rng.uniform(0.0, 60.0, size=n)
                ),
            )
            for n in (1, 2, 5, 20)
        ]
        for profile in profiles:
            n = profile.n_ways
            view = FastProfileView(profile)
            points = np.concatenate(
                [
                    rng.random(300) * (n + 2),  # dense, incl. above n_ways
                    np.arange(1, n + 1, dtype=float),  # exact grid points
                    rng.random(20),  # below one way
                    [1e-9, 0.25, 1.0, float(n), n + 1e-9, 1e6],
                ]
            )
            for x in points:
                x = float(x)
                if x <= 0.0:
                    continue
                ipc = oracles.interp_reference(profile.curves.ipc, x)
                mpkc = oracles.interp_reference(profile.curves.llcmpkc, x)
                assert interp_ways(profile.ipc_points, x) == ipc
                assert interp_ways(profile.llcmpkc_points, x) == mpkc
                assert profile.ipc_at(x) == view.ipc_at(x) == ipc
                assert profile.llcmpkc_at(x) == view.llcmpkc_at(x) == mpkc
                assert stall_fraction_from_llcmpkc(
                    view.llcmpkc_at(x), platform
                ) == profile.stall_fraction_at(x, platform)
                assert bandwidth_gbs_from_llcmpkc(
                    view.llcmpkc_at(x), view.bytes_per_miss, platform
                ) == profile.bandwidth_gbs_at(x, platform)

    def test_rejects_non_positive_ways(self, platform):
        profile = next(iter(build_catalog(platform.llc_ways).values()))
        view = FastProfileView(profile)
        for ways in (0.0, -1.0, float("nan")):
            for accessor in (
                profile.llcmpkc_at,
                profile.ipc_at,
                view.llcmpkc_at,
                view.ipc_at,
            ):
                with pytest.raises(ProfileError):
                    accessor(ways)


class TestShortMean:
    def test_bitwise_equal_to_np_mean(self):
        from repro.metrics.aggregate import short_mean

        rng = np.random.default_rng(7)
        for n in list(range(1, 12)) + [20]:
            for _ in range(50):
                values = [
                    float(v) for v in rng.random(n) * rng.choice([1e-3, 1.0, 1e3])
                ]
                assert short_mean(values) == float(np.mean(values))

    def test_empty_rejected(self):
        from repro.errors import ReproError
        from repro.metrics.aggregate import short_mean

        with pytest.raises(ReproError):
            short_mean([])


class TestTrajectoryCacheEquivalence:
    def test_matches_reference_occupancy_solve(self, platform):
        rng = np.random.default_rng(11)
        workload = Workload("occ-mix", ("lbm06", "xalancbmk06", "soplex06", "gamess06"))
        profiles = workload.profiles(platform.llc_ways)
        model = OccupancyModel()
        cache = OccupancyTrajectoryCache(model)
        tables = EvaluationTables(platform, occupancy_model=model)
        for _ in range(30):
            allocation = _random_allocation(rng, list(profiles), platform.llc_ways)
            tokens = {a: tables.token_for(profiles[a]) for a in profiles}
            views = {a: tables.view_for(profiles[a]) for a in profiles}
            reference = oracles.occupancy_solve_reference(model, allocation, profiles)
            for result in (
                model.solve(allocation, profiles),
                cache.solve(allocation, tokens, views),
            ):
                assert result == reference

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(occupancy_cases())
    def test_property_parity_with_reference(self, case):
        model, allocation, profiles = case
        reference = oracles.occupancy_solve_reference(model, allocation, profiles)
        tokens = {app: i for i, app in enumerate(profiles)}
        views = {app: FastProfileView(profile) for app, profile in profiles.items()}
        assert model.solve(allocation, profiles) == reference
        assert OccupancyTrajectoryCache(model).solve(allocation, tokens, views) == reference

    @staticmethod
    def _staggered(platform, reverse):
        """Three components converging at iterations 1, 15 and 16."""
        catalog = build_catalog(platform.llc_ways)
        masks = {
            "gamess06": mask_from_range(0, 2),
            "lbm06": mask_from_range(2, 3),
            "xalancbmk06": mask_from_range(2, 3),
            "mcf06": mask_from_range(5, 4),
            "soplex06": mask_from_range(7, 4),
            "omnetpp06": mask_from_range(5, 6),
        }
        order = list(masks)[::-1] if reverse else list(masks)
        allocation = WayAllocation(
            masks={app: masks[app] for app in order}, total_ways=platform.llc_ways
        )
        return allocation, {app: catalog[app] for app in order}

    @staticmethod
    def _cache_solve(cache, profiles, allocation):
        tokens = {app: i for i, app in enumerate(sorted(profiles))}
        views = {app: FastProfileView(profile) for app, profile in profiles.items()}
        return cache.solve(allocation, tokens, views)

    @staticmethod
    def _assert_recorded_up_to(cache, iterations):
        # Every component holds exactly the iterations the solve needed (or
        # stops where it froze), as the per-iteration scan recorded them.
        for trajectory in cache._trajectories.values():
            frozen = trajectory.fixed_at
            expected = min(frozen, iterations) if frozen else iterations
            assert trajectory.length == expected + 1

    @pytest.mark.parametrize("reverse", [False, True], ids=["early-first", "late-first"])
    def test_components_converging_at_different_iterations(self, platform, reverse):
        allocation, profiles = self._staggered(platform, reverse)
        model = OccupancyModel()
        alone = {
            model.solve(
                WayAllocation(
                    masks={app: allocation.masks[app] for app in group},
                    total_ways=platform.llc_ways,
                ),
                profiles,
            ).iterations
            for group in (
                ["gamess06"],
                ["lbm06", "xalancbmk06"],
                ["mcf06", "soplex06", "omnetpp06"],
            )
        }
        assert alone == {1, 15, 16}
        cold = model.solve(allocation, profiles)
        assert cold.converged and cold.iterations == 16
        cache = OccupancyTrajectoryCache(model)
        assert self._cache_solve(cache, profiles, allocation) == cold
        assert cold == oracles.occupancy_solve_reference(model, allocation, profiles)
        self._assert_recorded_up_to(cache, cold.iterations)
        # Replaying the recorded trajectories gives the same solve.
        assert self._cache_solve(cache, profiles, allocation) == cold

    @pytest.mark.parametrize("reverse", [False, True], ids=["early-first", "late-first"])
    def test_unconverged_solve_matches_cold(self, platform, reverse):
        allocation, profiles = self._staggered(platform, reverse)
        model = OccupancyModel(max_iterations=3)
        cold = model.solve(allocation, profiles)
        assert not cold.converged and cold.iterations == 3
        cache = OccupancyTrajectoryCache(model)
        assert self._cache_solve(cache, profiles, allocation) == cold
        assert cold == oracles.occupancy_solve_reference(model, allocation, profiles)
        self._assert_recorded_up_to(cache, 3)

    def test_trajectories_are_reused(self, platform):
        workload = Workload("occ-mix2", ("lbm06", "xalancbmk06"))
        profiles = workload.profiles(platform.llc_ways)
        model = OccupancyModel()
        cache = OccupancyTrajectoryCache(model)
        tables = EvaluationTables(platform, occupancy_model=model)
        tokens = {a: tables.token_for(profiles[a]) for a in profiles}
        views = {a: tables.view_for(profiles[a]) for a in profiles}
        shared = WayAllocation(
            masks={a: platform.full_mask for a in profiles},
            total_ways=platform.llc_ways,
        )
        cache.solve(shared, tokens, views)
        first = len(cache)
        # The same cluster at a different position reuses the trajectory.
        low = WayAllocation(
            masks={a: mask_from_range(0, 4) for a in profiles},
            total_ways=platform.llc_ways,
        )
        high = WayAllocation(
            masks={a: mask_from_range(7, 4) for a in profiles},
            total_ways=platform.llc_ways,
        )
        cache.solve(low, tokens, views)
        grown = len(cache)
        cache.solve(high, tokens, views)
        assert grown > first
        assert len(cache) == grown  # shifted cluster hit the cached trajectory


class TestEstimatorBackends:
    """The cold estimator and the shared evaluation tables agree exactly."""

    def test_incremental_estimates_bit_identical(self, platform):
        rng = np.random.default_rng(23)
        workload = Workload(
            "est-mix", ("lbm06", "xalancbmk06", "soplex06", "gamess06", "omnetpp06")
        )
        profiles = workload.profiles(platform.llc_ways)
        reference = ClusteringEstimator(platform, profiles)
        tables = EvaluationTables(platform)
        for _ in range(25):
            allocation = _random_allocation(rng, list(profiles), platform.llc_ways)
            ref = reference.evaluate_allocation(allocation)
            inc = tables.evaluate(allocation, profiles)
            assert inc.slowdowns == ref.slowdowns
            assert inc.ipcs == ref.ipcs
            assert inc.effective_ways == ref.effective_ways
            assert inc.bandwidth.demand_gbs == ref.bandwidth.demand_gbs
            assert inc.bandwidth.slowdown_factors == ref.bandwidth.slowdown_factors
            assert inc.metrics.unfairness == ref.metrics.unfairness
            assert inc.metrics.stp == ref.metrics.stp
            assert inc.metrics.antt == ref.metrics.antt
            assert inc.metrics.jain == ref.metrics.jain

    def test_repeated_evaluation_is_cached(self, platform):
        workload = Workload("est-mix2", ("lbm06", "gamess06"))
        profiles = workload.profiles(platform.llc_ways)
        tables = EvaluationTables(platform)
        allocation = WayAllocation(
            masks={a: platform.full_mask for a in profiles},
            total_ways=platform.llc_ways,
        )
        first = tables.evaluate(allocation, profiles)
        again = tables.evaluate(allocation, profiles)
        assert again is first  # a lookup, not a recomputation
        assert tables.cache_sizes()["estimates"] == 1

    def test_unknown_backend_rejected(self, platform):
        # The estimator has a single (cold) path: backend/tables are gone.
        profiles = Workload("e", ("lbm06",)).profiles(platform.llc_ways)
        with pytest.raises(TypeError):
            ClusteringEstimator(platform, profiles, backend="incremental")
        with pytest.raises(TypeError):
            ClusteringEstimator(platform, profiles, tables=EvaluationTables(platform))

    def test_mismatched_shared_tables_rejected(self, platform, phased_workload):
        tables = EvaluationTables(platform, occupancy_model=OccupancyModel(damping=0.9))
        with pytest.raises(SimulationError):
            RuntimeEngine(
                platform,
                phased_workload.phased_profiles(platform.llc_ways),
                StockLinuxDriver(),
                FAST,
                tables=tables,
            )

    def test_token_sharing_across_rebuilt_profiles(self, platform):
        workload = Workload("tok", ("lbm06", "mcf06"))
        tables = EvaluationTables(platform)
        first = workload.phased_profiles(platform.llc_ways)
        second = workload.phased_profiles(platform.llc_ways)
        snap_a = ProfileSnapshot(first)
        snap_b = ProfileSnapshot(second)
        for name in snap_a.apps:
            for phase_a, phase_b in zip(
                snap_a.phase_profiles[name], snap_b.phase_profiles[name]
            ):
                assert phase_a is not phase_b
                assert tables.token_for(phase_a) == tables.token_for(phase_b)


class TestEngineBackendEquivalence:
    @pytest.mark.parametrize(
        "driver_factory",
        [
            StockLinuxDriver,
            DunnUserLevelDaemon,
            lambda: LfocSchedulerPlugin(monitor_config=QUICK_MONITOR),
        ],
        ids=["stock", "dunn", "lfoc"],
    )
    def test_run_results_bit_identical(self, platform, phased_workload, driver_factory):
        reference = oracles.run_reference(
            platform,
            phased_workload.phased_profiles(platform.llc_ways),
            driver_factory(),
            FAST,
            phased_workload.name,
        )
        incremental = RuntimeEngine(
            platform,
            phased_workload.phased_profiles(platform.llc_ways),
            driver_factory(),
            FAST,
        ).run(phased_workload.name)
        assert run_result_fields(incremental) == run_result_fields(reference)

    def test_lfoc_run_exercises_phases_and_sampling(self, platform):
        # Same mix/budget as the reference-loop phase-tracking test:
        # mcf06 alternates between sensitive and streaming phases and must be
        # re-sampled beyond its initial classification.
        workload = Workload("inc-phased", ("mcf06", "gamess06", "lbm06", "namd06"))
        config = EngineConfig(
            instructions_per_run=1.6e9,
            min_completions=1,
            partition_interval_s=0.05,
            record_traces=False,
            max_simulated_seconds=200.0,
        )
        engine = RuntimeEngine(
            platform,
            workload.phased_profiles(platform.llc_ways),
            LfocSchedulerPlugin(monitor_config=QUICK_MONITOR),
            config,
        )
        result = engine.run(workload.name)
        # The equivalence above is only meaningful if the dynamic machinery
        # actually fired: sampling sweeps ran and the phased app re-sampled.
        assert result.total_sampling_entries() >= len(workload.benchmarks)
        assert result.app_stats["mcf06.0"].sampling_mode_entries >= 2
        assert result.n_repartitions > 3

    def test_shared_tables_do_not_change_results(self, platform, phased_workload):
        config = FAST
        tables = EvaluationTables(platform)
        solo = RuntimeEngine(
            platform,
            phased_workload.phased_profiles(platform.llc_ways),
            DunnUserLevelDaemon(),
            config,
        ).run(phased_workload.name)
        warm_a = RuntimeEngine(
            platform,
            phased_workload.phased_profiles(platform.llc_ways),
            DunnUserLevelDaemon(),
            config,
            tables=tables,
        ).run(phased_workload.name)
        sizes_after_first = tables.cache_sizes()
        warm_b = RuntimeEngine(
            platform,
            phased_workload.phased_profiles(platform.llc_ways),
            DunnUserLevelDaemon(),
            config,
            tables=tables,
        ).run(phased_workload.name)
        assert run_result_fields(warm_a) == run_result_fields(solo)
        assert run_result_fields(warm_b) == run_result_fields(solo)
        assert sizes_after_first["estimates"] > 0
        # The second identical run adds no new table entries.
        assert tables.cache_sizes() == sizes_after_first

    def test_reference_backend_removed(self):
        with pytest.raises(SimulationError, match="tests/oracles.py"):
            replace(FAST, backend="reference")

    def test_invalid_backend_rejected(self):
        with pytest.raises(SimulationError):
            EngineConfig(backend="turbo")


class TestLazyEstimateMetrics:
    """ClusterEstimate.metrics is computed on first use, never by the engine."""

    @staticmethod
    def _metric_bits(metrics):
        return [
            float(getattr(metrics, name)).hex()
            for name in ("unfairness", "stp", "antt", "jain")
        ]

    def test_engine_run_leaves_metrics_uncomputed(self, platform, phased_workload):
        tables = EvaluationTables(platform)
        RuntimeEngine(
            platform,
            phased_workload.phased_profiles(platform.llc_ways),
            LfocSchedulerPlugin(monitor_config=QUICK_MONITOR),
            FAST,
            tables=tables,
        ).run(phased_workload.name)
        estimates = list(tables._estimates.values())
        assert len(estimates) > 1
        assert not any("metrics" in vars(estimate) for estimate in estimates)
        for estimate in estimates:
            metrics = estimate.metrics
            assert metrics is estimate.metrics  # computed once, then cached
            expected = compute_metrics(estimate.slowdowns)
            assert metrics.slowdowns == expected.slowdowns
            assert self._metric_bits(metrics) == self._metric_bits(expected)


def _serial_batch(platform, specs, config=None):
    """Run ``specs`` in order through an in-process executor."""
    with SerialExecutor() as executor:
        executor.prepare(platform, default_config=config)
        return executor.map_specs(specs)


class TestBatchRunner:
    """Batches of RunSpecs through the in-process executor."""

    def test_batch_matches_direct_runs(self, platform, phased_workload):
        config = EngineConfig(
            instructions_per_run=6.0e8,
            min_completions=1,
            partition_interval_s=0.05,
            record_traces=False,
        )
        specs = [
            RunSpec(workload=phased_workload, driver_cls=StockLinuxDriver),
            RunSpec(workload=phased_workload, driver_cls=DunnUserLevelDaemon),
        ]
        batch = _serial_batch(platform, specs, config)
        direct = [
            RuntimeEngine(
                platform,
                phased_workload.phased_profiles(platform.llc_ways),
                spec.driver_cls(),
                config,
            ).run(phased_workload.name)
            for spec in specs
        ]
        assert [run_result_fields(r) for r in batch] == [
            run_result_fields(r) for r in direct
        ]

    def test_batch_respects_multirun_backend(self, platform, phased_workload):
        config = EngineConfig(
            instructions_per_run=6.0e8,
            min_completions=1,
            partition_interval_s=0.05,
            record_traces=False,
            backend="multirun",
        )
        specs = [RunSpec(workload=phased_workload, driver_cls=StockLinuxDriver)]
        (result,) = _serial_batch(platform, specs, config)
        assert result.policy == "Stock-Linux"

    def test_empty_batch(self, platform):
        assert _serial_batch(platform, []) == []

    def test_invalid_jobs_rejected(self, platform, phased_workload):
        specs = [RunSpec(workload=phased_workload, driver_cls=StockLinuxDriver)]
        with pytest.raises(SimulationError):
            resolve_jobs(0, len(specs))

    def test_conflicting_workload_names_rejected(self, platform):
        specs = [
            RunSpec(
                workload=Workload("same", ("lbm06", "gamess06")),
                driver_cls=StockLinuxDriver,
            ),
            RunSpec(
                workload=Workload("same", ("mcf06", "namd06")),
                driver_cls=StockLinuxDriver,
            ),
        ]
        with pytest.raises(SimulationError):
            _serial_batch(platform, specs)


class TestFig7Backends:
    def test_summary_rows_bit_identical_and_jobs_invariant(self, platform):
        from repro.analysis import fig7_dynamic_study

        workloads = [Workload("f7-mix", ("mcf06", "lbm06", "xalancbmk06", "gamess06"))]
        config = EngineConfig(
            instructions_per_run=6.0e8, min_completions=1, record_traces=False
        )
        reference = oracles.reference_fig7_rows(workloads, config, platform)
        incremental = fig7_dynamic_study(
            workloads, engine_config=config, platform=platform
        )
        multirun = fig7_dynamic_study(
            workloads,
            engine_config=replace(config, backend="multirun"),
            platform=platform,
        )
        assert incremental == reference
        assert multirun == reference
