"""Differential-oracle suite: production drivers and engine vs. the oracles.

Every test here runs the *same* seeded randomized workload (or decision
input) through the production implementations and the reference oracles in
``tests/oracles.py`` and asserts bit-identical outcomes — study rows,
``choose_k`` decisions, allocation masks, traces, repartition events.  The
fuzz breadth is CI-bounded and controlled by the ``--oracle-seeds`` pytest
option for deep local runs.
"""

from dataclasses import replace

import numpy as np
import pytest

import oracles
from repro.core.classification import AppClass
from repro.hardware import skylake_gold_6138
from repro.policies import DunnPolicy, LfocPolicy
from repro.runtime import DunnUserLevelDaemon, LfocSchedulerPlugin
from repro.workloads import Workload, random_workload


@pytest.fixture(scope="module")
def platform():
    return skylake_gold_6138()


class TestEngineDriverCrossProduct:
    """Randomized phased workloads through every backend combination."""

    @pytest.mark.parametrize("driver_name", oracles.DRIVER_NAMES)
    def test_runs_bit_identical_to_reference_baseline(self, oracle_seeds, driver_name):
        for seed in oracle_seeds:
            workload = oracles.random_phased_workload(seed)
            baseline = oracles.differential_run(
                workload, driver_name, "reference", "reference"
            )
            for engine_backend, driver_backend in oracles.BACKEND_COMBINATIONS:
                candidate = oracles.differential_run(
                    workload, driver_name, engine_backend, driver_backend
                )
                oracles.assert_identical(
                    candidate,
                    baseline,
                    f"{workload.name}/{driver_name} "
                    f"(engine={engine_backend}, driver={driver_backend})",
                )
            # Tables that keep two entries each evict on almost every solve.
            evicting = oracles.differential_run(
                workload,
                driver_name,
                "incremental",
                "incremental",
                config=replace(oracles.ORACLE_CONFIG, max_table_entries=2),
            )
            oracles.assert_identical(
                evicting, baseline, f"{workload.name}/{driver_name} (max_table_entries=2)"
            )

    def test_oracle_workloads_are_reproducible_and_phased(self, oracle_seeds):
        for seed in oracle_seeds:
            again = oracles.random_phased_workload(seed)
            assert again.benchmarks == oracles.random_phased_workload(seed).benchmarks
            assert again.has_phased_benchmarks()


class TestWideMixes:
    """Fig. 7 runs 12 and 16 applications; the seeded oracle mixes stop at 8."""

    @pytest.mark.parametrize("driver_name", oracles.DRIVER_NAMES)
    @pytest.mark.parametrize("kind", ["P", "S"])
    @pytest.mark.parametrize("size", [12, 16])
    def test_engine_bit_identical_to_reference(self, platform, size, kind, driver_name):
        workload = random_workload(
            f"wide-{kind}{size}", size, kind=kind, rng=np.random.default_rng(size)
        )
        config = replace(oracles.ORACLE_CONFIG, min_completions=2)
        assert config.record_traces
        baseline = oracles.differential_run(
            workload,
            driver_name,
            "reference",
            "incremental",
            platform=platform,
            config=config,
        )
        candidate = oracles.differential_run(
            workload,
            driver_name,
            "incremental",
            "incremental",
            platform=platform,
            config=config,
        )
        assert all(baseline["traces"].values())
        oracles.assert_identical(
            candidate, baseline, f"{workload.name}/{driver_name} (RuntimeEngine)"
        )


class TestMultiRunGroupOracle:
    """Grouped multi-run execution must match the reference loop bit for bit."""

    def test_grouped_runs_bit_identical_to_serial(self, oracle_seeds):
        workloads = [oracles.random_phased_workload(seed) for seed in oracle_seeds]
        grouped = oracles.differential_group_run(workloads, oracles.DRIVER_NAMES)
        index = 0
        for workload in workloads:
            for driver_name in oracles.DRIVER_NAMES:
                baseline = oracles.differential_run(
                    workload, driver_name, "reference", "reference"
                )
                oracles.assert_identical(
                    grouped[index],
                    baseline,
                    f"{workload.name}/{driver_name} (multirun group)",
                )
                index += 1

    def test_study_rows_identical_under_multirun_backend(self, platform):
        from repro.analysis import fig7_dynamic_study
        from repro.runtime import EngineConfig

        workloads = [
            Workload("f7-mr-a", ("mcf06", "lbm06", "xalancbmk06", "gamess06")),
            Workload("f7-mr-b", ("soplex06", "omnetpp06", "namd06", "sjeng06")),
        ]
        config = EngineConfig(
            instructions_per_run=6.0e8, min_completions=1, record_traces=False
        )
        per_run = fig7_dynamic_study(workloads, engine_config=config, platform=platform)
        multirun = fig7_dynamic_study(
            workloads,
            engine_config=replace(config, backend="multirun"),
            platform=platform,
        )
        assert multirun == per_run

    def test_mixed_size_stack_bit_identical_to_serial(self, platform):
        """Workloads of different application counts share one padded stack."""
        from repro.analysis import fig7_dynamic_study
        from repro.runtime import EngineConfig

        workloads = [
            Workload("f7-mix-a", ("mcf06", "lbm06", "xalancbmk06", "gamess06")),
            Workload(
                "f7-mix-b",
                (
                    "soplex06",
                    "omnetpp06",
                    "namd06",
                    "sjeng06",
                    "mcf06",
                    "lbm06",
                ),
            ),
        ]
        config = EngineConfig(
            instructions_per_run=6.0e8, min_completions=1, record_traces=False
        )
        per_run = fig7_dynamic_study(workloads, engine_config=config, platform=platform)
        multirun = fig7_dynamic_study(
            workloads,
            engine_config=replace(config, backend="multirun"),
            platform=platform,
        )
        assert multirun == per_run

    def test_grouping_merges_configs_and_chunks_for_parallelism(self):
        from dataclasses import dataclass

        from repro.runtime import EngineConfig, group_run_specs

        @dataclass(frozen=True)
        class Spec:
            config: EngineConfig

        a = EngineConfig(instructions_per_run=1.0e8)
        b = EngineConfig(instructions_per_run=2.0e8)
        specs = [Spec(a), Spec(a), Spec(b), Spec(a), Spec(b)]

        groups, scatter = group_run_specs(specs)
        assert [g.config for g in groups] == [a, b]
        assert scatter == [[0, 1, 3], [2, 4]]

        groups, scatter = group_run_specs(specs, jobs=2)
        # Each config's bucket splits into balanced contiguous chunks.
        assert [len(g.members) for g in groups] == [1, 2, 1, 1]
        assert scatter == [[0], [1, 3], [2], [4]]
        flat = sorted(i for part in scatter for i in part)
        assert flat == list(range(len(specs)))


class TestStudyRowsDifferential:
    """The fig6/fig7 analysis rows must match the oracles'."""

    def test_fig7_rows_identical_across_driver_backends(self, platform):
        from repro.analysis import fig7_dynamic_study
        from repro.runtime import EngineConfig

        workloads = [Workload("f7-diff", ("mcf06", "lbm06", "xalancbmk06", "gamess06"))]
        config = EngineConfig(
            instructions_per_run=6.0e8, min_completions=1, record_traces=False
        )
        oracle_drivers = {
            "Dunn": oracles.ReferenceDunnDaemon,
            "LFOC": oracles.ReferenceLfocDriver,
        }
        reference = oracles.reference_fig7_rows(
            workloads, config, platform, drivers=oracle_drivers
        )
        production = fig7_dynamic_study(
            workloads, engine_config=config, platform=platform
        )
        assert production == reference
        # The oracle drivers also ride the production engine and study layer.
        assert (
            fig7_dynamic_study(
                workloads, engine_config=config, platform=platform, drivers=oracle_drivers
            )
            == reference
        )

    def test_fig7_rows_on_catalog_workloads_match_reference_loop(self, platform):
        """One 8-app, two 12-app and two 16-app Fig. 7 mixes at the study's
        run length: the production engine's rows equal the reference loop's."""
        from repro.analysis import fig7_dynamic_study
        from repro.runtime import EngineConfig
        from repro.workloads import dynamic_study_workloads

        names = ("P1", "P6", "S8", "P11", "S15")
        workloads = [w for w in dynamic_study_workloads() if w.name in names]
        assert [w.name for w in workloads] == list(names)
        config = EngineConfig(
            instructions_per_run=1.0e9, min_completions=2, record_traces=False
        )
        reference = oracles.reference_fig7_rows(workloads, config, platform)
        assert (
            fig7_dynamic_study(workloads, engine_config=config, platform=platform)
            == reference
        )
        # The oracle drivers on the production engine give the same rows.
        oracle_drivers = {
            "Dunn": oracles.ReferenceDunnDaemon,
            "LFOC": oracles.ReferenceLfocDriver,
        }
        assert (
            fig7_dynamic_study(
                workloads, engine_config=config, platform=platform, drivers=oracle_drivers
            )
            == reference
        )

    def test_fig6_rows_identical_across_policy_backends(self, platform):
        from repro.analysis import fig6_static_study

        workloads = [Workload("f6-diff", ("lbm06", "xalancbmk06", "soplex06", "gamess06"))]
        reference = fig6_static_study(
            workloads,
            policies=[oracles.ReferenceDunnPolicy(), oracles.ReferenceLfocPolicy()],
            platform=platform,
        )
        production = fig6_static_study(
            workloads, policies=[DunnPolicy(), LfocPolicy()], platform=platform
        )
        assert production == reference


class TestChooseKDecisionOracle:
    """Decision-level fuzz: the k-selection must be implementation-independent."""

    def test_decisions_identical_on_adversarial_vectors(self, oracle_seeds):
        for seed in oracle_seeds:
            rng = np.random.default_rng(1000 + seed)
            incremental = DunnPolicy()
            reference = oracles.ReferenceDunnPolicy()
            for _ in range(150):
                values = oracles.random_stall_vector(rng)
                k_inc, labels_inc = incremental.choose_k(values)
                k_ref, labels_ref = reference.choose_k(values)
                assert k_inc == k_ref, (values, k_inc, k_ref)
                assert np.array_equal(labels_inc, labels_ref), values

    def test_allocations_identical_on_adversarial_vectors(self, oracle_seeds, platform):
        for seed in oracle_seeds:
            rng = np.random.default_rng(2000 + seed)
            incremental = DunnPolicy()
            reference = oracles.ReferenceDunnPolicy()
            for _ in range(60):
                values = oracles.random_stall_vector(rng)
                apps = [f"app{i}" for i in range(values.size)]
                alloc_inc = incremental.allocation_for_values(apps, values, platform)
                alloc_ref = reference.allocation_for_values(apps, values, platform)
                assert alloc_inc.masks == alloc_ref.masks, values
                assert alloc_inc.total_ways == alloc_ref.total_ways


class TestLfocPartitioningOracle:
    """Algorithm 1 decisions under synthetic classification churn."""

    def _random_table(self, rng, n_ways):
        # Monotone non-increasing slowdown table (more ways -> less slowdown).
        steps = rng.random(n_ways) * 0.4
        table = 1.0 + np.cumsum(steps[::-1])[::-1]
        return [float(x) for x in table]

    def test_partitioning_identical_under_churn(self, oracle_seeds, platform):
        classes = (AppClass.STREAMING, AppClass.SENSITIVE, AppClass.LIGHT)
        for seed in oracle_seeds:
            rng = np.random.default_rng(3000 + seed)
            apps = [f"app{i}" for i in range(int(rng.integers(3, 9)))]
            incremental = LfocSchedulerPlugin()
            reference = oracles.ReferenceLfocDriver()
            incremental.on_start(apps, platform)
            reference.on_start(apps, platform)
            for _ in range(40):
                # Mutate a random subset of classifications identically.
                for app in apps:
                    if rng.random() < 0.3:
                        app_class = classes[int(rng.integers(0, len(classes)))]
                        table = (
                            self._random_table(rng, platform.llc_ways)
                            if app_class is AppClass.SENSITIVE
                            else None
                        )
                        for driver in (incremental, reference):
                            driver.monitors[app].set_classification(
                                app_class, slowdown_table=table
                            )
                alloc_inc = incremental._run_partitioning()
                alloc_ref = reference._run_partitioning()
                assert alloc_inc.masks == alloc_ref.masks
        # The version fast path and the fingerprint cache must actually have
        # fired for the comparison above to mean anything.
        stats = incremental.decision_stats()
        assert stats["partition_fast_hits"] + stats["decision_cache_hits"] > 0


def _stall_metrics(stall):
    from repro.hardware.pmc import DerivedMetrics

    return DerivedMetrics(
        ipc=1.0,
        llcmpkc=5.0,
        llcmpki=5.0,
        stall_fraction=stall,
        instructions=100e6,
        cycles=100e6,
    )


class TestDecisionCacheSoundness:
    """The caches must change cost, never results."""

    def test_dunn_caches_hit_on_repeated_windows(self, platform):
        # Repeated-window scenario through the *public* driver interface.
        # Real fig7 runs record zero hits for both Dunn caches, which is
        # structural (samples always arrive between 500 ms intervals, and
        # windows accumulated over varying event chunks never bit-recur);
        # this drives the two situations where hits are possible:
        # an interval with no intervening samples (version fast path), and
        # windows refilled with identical values, whose rolling means — and
        # therefore the allocation-cache fingerprint — recur exactly.
        daemon = DunnUserLevelDaemon(history_window=3)
        daemon.on_start(["a", "b", "c"], platform)
        stalls = {"a": 0.1, "b": 0.7, "c": 0.75}
        for app, value in stalls.items():
            daemon.on_sample(app, _stall_metrics(value), 11.0, 0.0)
        assert daemon.on_interval(0.5) is not None
        assert daemon.decision_stats()["intervals_computed"] == 1
        # No sample since the decision: the window version is unchanged.
        daemon.on_interval(1.0)
        assert daemon.decision_stats()["interval_fast_hits"] == 1
        # Fill every window with a constant value (stationary phase)...
        for _ in range(3):
            for app, value in stalls.items():
                daemon.on_sample(app, _stall_metrics(value), 11.0, 1.2)
        first = daemon.on_interval(1.5)
        assert daemon.decision_stats()["allocation_cache_hits"] == 0
        # ...then refill it identically: versions advanced (no fast path),
        # but the means are bit-identical, so the fingerprint cache hits.
        for _ in range(3):
            for app, value in stalls.items():
                daemon.on_sample(app, _stall_metrics(value), 11.0, 1.7)
        again = daemon.on_interval(2.0)
        assert again is first
        stats = daemon.decision_stats()
        assert stats["allocation_cache_hits"] == 1
        assert stats["interval_fast_hits"] == 1
        # The daemon no longer reports the DunnPolicy choose_k counters: its
        # allocation cache shares their key and fronts them, so they could
        # never hit through the daemon (dead weight in benchmark records).
        assert "choose_k_cache_hits" not in stats

    def test_dunn_interval_fast_path_returns_same_allocation(self, platform):
        daemon = DunnUserLevelDaemon()
        daemon.on_start(["a", "b", "c"], platform)
        stalls = {"a": 0.1, "b": 0.7, "c": 0.75}
        first = daemon.decider.allocation_for(stalls, platform)
        again = daemon.decider.allocation_for(stalls, platform)
        assert again is first  # fingerprint hit, not a recomputation
        assert daemon.decision_stats()["allocation_cache_hits"] == 1

    def test_dunn_choose_k_cache_is_value_keyed(self):
        policy = DunnPolicy()
        values = np.array([0.1, 0.12, 0.8, 0.82])
        k1, labels1 = policy.choose_k(values)
        k2, labels2 = policy.choose_k(np.array([0.1, 0.12, 0.8, 0.82]))
        assert (k1, list(labels1)) == (k2, list(labels2))
        assert policy.decision_cache_hits == 1
        assert policy.decisions_computed == 1
        # A different vector misses.
        policy.choose_k(np.array([0.2, 0.3, 0.9, 0.95]))
        assert policy.decisions_computed == 2

    def test_reference_backend_never_caches(self, platform):
        policy = oracles.ReferenceDunnPolicy()
        values = np.array([0.1, 0.12, 0.8, 0.82])
        policy.choose_k(values)
        policy.choose_k(values)
        assert policy.decision_cache_hits == 0
        assert policy.decisions_computed == 2
        # The oracle daemon re-clusters at every interval, samples or not.
        daemon = oracles.ReferenceDunnDaemon()
        daemon.on_start(["a", "b"], platform)
        for app, value in (("a", 0.1), ("b", 0.7)):
            daemon.on_sample(app, _stall_metrics(value), 11.0, 0.0)
        first = daemon.on_interval(0.5)
        again = daemon.on_interval(1.0)
        assert again.masks == first.masks and again is not first
        assert daemon.decision_stats() == {
            "intervals_computed": 2,
            "interval_fast_hits": 0,
            "allocation_cache_hits": 0,
        }

    def test_lfoc_restart_does_not_serve_previous_runs_allocation(self, platform):
        # Regression: the version fast path must reset on on_start.  A first
        # partitioning before any sweep records an all-zero version vector;
        # a second run's fresh monitors are also all version 0 and must not
        # match it.
        driver = LfocSchedulerPlugin()
        driver.on_start(["a", "b", "c"], platform)
        first = driver._run_partitioning()
        assert set(first.masks) == {"a", "b", "c"}
        driver.on_start(["x", "y", "z"], platform)
        second = driver._run_partitioning()
        assert set(second.masks) == {"x", "y", "z"}

    def test_dunn_restart_on_other_platform_does_not_reuse_allocations(self):
        # Regression: the allocation cache key is (apps, stall values) only,
        # so a restart on a different platform must not hit it.
        from repro.hardware import small_test_platform

        big = skylake_gold_6138()
        small = small_test_platform(ways=4, cores=4)
        daemon = DunnUserLevelDaemon()
        stalls = {"a": 0.1, "b": 0.7, "c": 0.75}
        daemon.on_start(list(stalls), big)
        assert daemon.decider.allocation_for(stalls, big).total_ways == big.llc_ways
        daemon.on_start(list(stalls), small)
        again = daemon.decider.allocation_for(stalls, small)
        assert again.total_ways == small.llc_ways
        assert daemon.decision_stats()["allocation_cache_hits"] == 0

    def test_lfoc_table_token_registry_is_bounded(self, platform):
        from repro.core import LfocDecisionCache

        cache = LfocDecisionCache(max_entries=2)
        n_ways = platform.llc_ways
        for i in range(10 * cache.max_table_tokens):
            cache.table_token([1.0 + i] * n_ways)
        assert len(cache._table_tokens) <= cache.max_table_tokens
        # Tokens are never reused: a re-interned (evicted) table gets a new
        # id, so stale fingerprints cannot collide with live ones.
        first = cache.table_token([1.0] * n_ways)
        assert first != 0
        # And an evicted-then-recomputed decision still matches by value.
        table = [2.0] * n_ways
        solution = cache.solution_for([], ["s"], [], n_ways, {"s": table})
        for i in range(cache.max_table_tokens + 1):
            cache.table_token([100.0 + i] * n_ways)
        again = cache.solution_for([], ["s"], [], n_ways, {"s": table})
        assert again.to_allocation().masks == solution.to_allocation().masks

    def test_lfoc_allocation_for_survives_token_eviction_mid_call(self, platform):
        # Regression: with more distinct sensitive tables than the token
        # registry holds, fingerprinting twice in one call used to change
        # the key mid-operation and raise KeyError.
        from repro.core import LfocDecisionCache

        cache = LfocDecisionCache(max_entries=1)  # token capacity 8
        n_ways = platform.llc_ways
        sensitive = [f"s{i}" for i in range(cache.max_table_tokens + 1)]
        tables = {
            app: [2.0 + i] + [1.0] * (n_ways - 1) for i, app in enumerate(sensitive)
        }
        allocation = cache.allocation_for([], sensitive, [], n_ways, tables)
        assert set(allocation.masks) == set(sensitive)

    def test_invalid_backends_rejected(self):
        """The removed ``backend`` options are rejected, not silently ignored."""
        for cls in (DunnPolicy, LfocPolicy, DunnUserLevelDaemon, LfocSchedulerPlugin):
            with pytest.raises(TypeError):
                cls(backend="reference")
