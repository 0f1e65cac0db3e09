"""In-memory behaviour of the shared :class:`EvaluationTables`.

The tables are a per-process cache and nothing else: a table set answers an
evaluation with exactly the floats the dict-based estimator computes, shares
its derived tables between profile copies through value-fingerprint tokens,
and lives for one worker context install (``clear_worker_tables``).  A spec
that still names the removed warm-start file is refused by name.
"""

from __future__ import annotations

import pytest

from repro.apps import build_profile
from repro.core.types import ClusteringSolution, WayAllocation
from repro.errors import SimulationError, SpecError
from repro.experiments.io import load_study_spec
from repro.hardware import skylake_gold_6138, small_test_platform
from repro.metrics import compute_metrics
from repro.runtime import EngineConfig, RuntimeEngine, StockLinuxDriver
from repro.runtime.executors import base as executors_base
from repro.runtime.executors import worker_tables
from repro.runtime.executors.base import clear_worker_tables
from repro.simulator import (
    BandwidthModel,
    ClusteringEstimator,
    EvaluationTables,
    OccupancyModel,
)
from repro.simulator.estimator import tables_signature
from repro.workloads import workload_by_name


def _leaf_floats(estimate):
    """Every float an estimate carries, labelled and in hex (bit-exact)."""
    leaves = []
    for name, mapping in (
        ("slowdown", estimate.slowdowns),
        ("ipc", estimate.ipcs),
        ("eff", estimate.effective_ways),
        ("occ_eff", estimate.occupancy.effective_ways),
        ("occ_pressure", estimate.occupancy.pressures),
        ("bw_demand", estimate.bandwidth.demand_gbs),
        ("bw_factor", estimate.bandwidth.slowdown_factors),
        ("metric_slowdown", estimate.metrics.slowdowns),
    ):
        for app, value in mapping.items():
            leaves.append((name, app, float(value).hex()))
    leaves.append(("bw_total", "", float(estimate.bandwidth.total_demand_gbs).hex()))
    leaves.append(("bw_peak", "", float(estimate.bandwidth.peak_gbs).hex()))
    for metric in ("unfairness", "stp", "antt", "jain"):
        leaves.append((metric, "", float(getattr(estimate.metrics, metric)).hex()))
    leaves.append(("iterations", "", estimate.occupancy.iterations))
    leaves.append(("converged", "", estimate.occupancy.converged))
    leaves.append(("masks", "", tuple(estimate.allocation.masks.items())))
    return leaves


def _workload_allocations(apps, total_ways):
    """Stock, partitioned and Dunn-style overlapping allocations."""
    n = len(apps)
    stock = ClusteringSolution.single_cluster(apps, total_ways).to_allocation()
    ways = [total_ways // n] * n
    for i in range(total_ways - sum(ways)):
        ways[i] += 1
    partitioned = ClusteringSolution.from_partitioning(
        apps, ways, total_ways
    ).to_allocation()
    full = (1 << total_ways) - 1
    overlapping = WayAllocation(
        masks={
            app: full if i % 2 == 0 else (1 << max(total_ways // 2, 1)) - 1
            for i, app in enumerate(apps)
        },
        total_ways=total_ways,
    )
    return [stock, partitioned, overlapping]


ALLOCATION_KINDS = ["stock", "partitioned", "overlapping"]


@pytest.fixture()
def warmed_tables(platform, mix8):
    tables = EvaluationTables(platform)
    estimates = {}
    for index, allocation in enumerate(
        _workload_allocations(list(mix8), platform.llc_ways)
    ):
        estimates[index] = tables.evaluate(allocation, mix8)
    return tables, estimates


@pytest.fixture()
def fresh_worker_cache():
    clear_worker_tables()
    yield
    clear_worker_tables()


class TestMatchesReferenceEstimator:
    @pytest.mark.parametrize("kind", range(3), ids=ALLOCATION_KINDS)
    def test_estimate_bit_identical_to_dict_estimator(self, platform, mix8, kind):
        allocation = _workload_allocations(list(mix8), platform.llc_ways)[kind]
        reference = ClusteringEstimator(platform, mix8).evaluate_allocation(allocation)
        estimate = EvaluationTables(platform).evaluate(allocation, mix8)
        assert _leaf_floats(estimate) == _leaf_floats(reference)


class TestSharedReuse:
    def test_rebuilt_profiles_hit_the_cached_estimates(self, warmed_tables, platform, mix8):
        """Fresh profile objects (as a new run rebuilds them) hit the same
        tokens and estimates: no table grows and every bit matches."""
        tables, estimates = warmed_tables
        before = tables.cache_sizes()
        for index, allocation in enumerate(
            _workload_allocations(list(mix8), platform.llc_ways)
        ):
            rebuilt = {name: build_profile(name, platform.llc_ways) for name in mix8}
            estimate = tables.evaluate(allocation, rebuilt)
            assert estimate is estimates[index]
        assert tables.cache_sizes() == before

    def test_recompute_from_cached_trajectories_matches(self, warmed_tables, platform, mix8):
        """With the estimates dropped, the cached trajectories still reproduce
        every estimate exactly, and no new trajectory is solved."""
        tables, estimates = warmed_tables
        tables._estimates.clear()
        components_before = tables.cache_sizes()["components"]
        for index, allocation in enumerate(
            _workload_allocations(list(mix8), platform.llc_ways)
        ):
            estimate = tables.evaluate(allocation, mix8)
            assert estimate is not estimates[index]
            assert _leaf_floats(estimate) == _leaf_floats(estimates[index])
        assert tables.cache_sizes()["components"] == components_before

    def test_tokens_are_shared_by_value(self, warmed_tables, platform, mix8):
        tables, _ = warmed_tables
        profiles_before = tables.cache_sizes()["profiles"]
        for name, profile in mix8.items():
            token = tables.token_for(profile)
            assert tables.token_for(build_profile(name, platform.llc_ways)) == token
            view = tables.view_for(profile)
            assert list(view.ipc) == profile.curves.ipc.tolist()
            assert list(view.llcmpkc) == profile.curves.llcmpkc.tolist()
            assert view.ipc_alone == profile.ipc_alone
        assert tables.cache_sizes()["profiles"] == profiles_before

    def test_metrics_are_computed_on_first_use(self, warmed_tables):
        tables, _ = warmed_tables
        cached = list(tables._estimates.values())
        assert cached
        assert not any("metrics" in vars(estimate) for estimate in cached)
        for estimate in cached:
            expected = compute_metrics(estimate.slowdowns)
            for name in ("unfairness", "stp", "antt", "jain"):
                assert float(getattr(estimate.metrics, name)).hex() == float(
                    getattr(expected, name)
                ).hex()
            assert "metrics" in vars(estimate)

    def test_new_tables_are_empty(self, platform):
        assert EvaluationTables(platform).cache_sizes() == {
            "estimates": 0,
            "components": 0,
            "profiles": 0,
        }

    def test_clear_drops_evaluations_but_keeps_tokens(self, warmed_tables, mix8):
        tables, _ = warmed_tables
        tokens = {name: tables.token_for(profile) for name, profile in mix8.items()}
        tables.engine_vectors.put("key", "value")
        profiles = tables.cache_sizes()["profiles"]
        tables.clear()
        assert tables.cache_sizes() == {
            "estimates": 0,
            "components": 0,
            "profiles": profiles,
        }
        assert len(tables.engine_vectors) == 0
        assert {name: tables.token_for(p) for name, p in mix8.items()} == tokens

    def test_evaluate_tokens_shares_the_estimate_cache(self, warmed_tables, platform, mix8):
        tables, estimates = warmed_tables
        tokens = {name: tables.token_for(profile) for name, profile in mix8.items()}
        for index, allocation in enumerate(
            _workload_allocations(list(mix8), platform.llc_ways)
        ):
            assert tables.evaluate_tokens(allocation, tokens) is estimates[index]

    def test_evaluate_tokens_rejects_an_unknown_token(self, warmed_tables, platform, mix8):
        tables, _ = warmed_tables
        tokens = {name: tables.token_for(profile) for name, profile in mix8.items()}
        tokens[next(iter(mix8))] = tables.cache_sizes()["profiles"] + 7
        allocation = _workload_allocations(list(mix8), platform.llc_ways)[0]
        with pytest.raises(SimulationError, match="unknown profile token"):
            tables.evaluate_tokens(allocation, tokens)

    def test_evaluate_tokens_rejects_a_missing_application(self, warmed_tables, platform, mix8):
        tables, _ = warmed_tables
        missing = next(iter(mix8))
        tokens = {
            name: tables.token_for(profile)
            for name, profile in mix8.items()
            if name != missing
        }
        allocation = _workload_allocations(list(mix8), platform.llc_ways)[0]
        with pytest.raises(SimulationError, match="no profile token"):
            tables.evaluate_tokens(allocation, tokens)

    def test_evaluate_rejects_a_missing_profile(self, platform, mix8):
        missing = next(iter(mix8))
        profiles = {name: p for name, p in mix8.items() if name != missing}
        allocation = _workload_allocations(list(mix8), platform.llc_ways)[0]
        with pytest.raises(SimulationError, match="no profile registered"):
            EvaluationTables(platform).evaluate(allocation, profiles)


class TestParamsSignature:
    def test_default_tables_match_the_default_signature(self, platform):
        assert EvaluationTables(platform).params_signature() == tables_signature(platform)

    @pytest.mark.parametrize(
        "occupancy, bandwidth",
        [
            ({"max_iterations": 20}, {}),
            ({"tolerance": 1e-6}, {}),
            ({"damping": 0.25}, {}),
            ({"base_pressure": 0.1}, {}),
            ({}, {"sensitivity": 0.5}),
            ({}, {"max_factor": 2.0}),
        ],
        ids=[
            "max_iterations",
            "tolerance",
            "damping",
            "base_pressure",
            "sensitivity",
            "max_factor",
        ],
    )
    def test_every_model_parameter_changes_the_signature(
        self, platform, occupancy, bandwidth
    ):
        tables = EvaluationTables(
            platform,
            occupancy_model=OccupancyModel(**occupancy),
            bandwidth_model=BandwidthModel(**bandwidth),
        )
        assert tables.params_signature() != tables_signature(platform)
        assert tables.params_signature() == tables_signature(
            platform, tables.occupancy_model, tables.bandwidth_model
        )

    def test_platform_changes_the_signature(self, platform):
        other = small_test_platform(ways=4, cores=4)
        assert EvaluationTables(other).params_signature() != tables_signature(platform)

    def test_engine_refuses_tables_of_other_parameters(self, platform):
        workload = workload_by_name("P1")
        phased = workload.phased_profiles(platform.llc_ways)
        foreign = EvaluationTables(platform, bandwidth_model=BandwidthModel(max_factor=2.0))
        with pytest.raises(SimulationError, match="different platform or model"):
            RuntimeEngine(platform, phased, StockLinuxDriver(), tables=foreign)
        shared = EvaluationTables(platform)
        engine = RuntimeEngine(platform, phased, StockLinuxDriver(), tables=shared)
        assert engine.tables is shared


class TestWorkerTables:
    def test_clear_worker_tables_starts_cold(self, fresh_worker_cache, platform, mix8):
        tables = worker_tables(platform)
        tables.evaluate(_workload_allocations(list(mix8), platform.llc_ways)[0], mix8)
        assert worker_tables(platform) is tables
        clear_worker_tables()
        cold = worker_tables(platform)
        assert cold is not tables
        assert cold.cache_sizes() == {"estimates": 0, "components": 0, "profiles": 0}

    def test_equal_platforms_are_told_apart_by_identity(self, fresh_worker_cache):
        first, second = skylake_gold_6138(), skylake_gold_6138()
        assert first == second and first is not second
        assert worker_tables(first) is not worker_tables(second)
        assert worker_tables(first).platform is first
        assert worker_tables(second).platform is second

    def test_cache_drops_its_oldest_table_set_when_full(self, fresh_worker_cache, platform):
        bound = executors_base._TABLES_CACHE_MAX
        oldest = worker_tables(platform, 1)
        for entries in range(2, bound + 1):
            worker_tables(platform, entries)
        assert len(executors_base._TABLES_CACHE) == bound
        assert worker_tables(platform, 1) is oldest
        worker_tables(platform, bound + 1)
        assert len(executors_base._TABLES_CACHE) == bound
        assert worker_tables(platform, 1) is not oldest


class TestWarmStartFileRemoved:
    def test_engine_config_has_no_tables_path(self):
        with pytest.raises(TypeError):
            EngineConfig(tables_path="fig7.tables")

    def test_toml_study_naming_tables_path_is_refused(self, tmp_path):
        path = tmp_path / "study.toml"
        path.write_text(
            "schema = 1\n"
            'name = "warm"\n'
            "\n"
            "[[scenarios]]\n"
            'name = "dynamic"\n'
            'kind = "dynamic"\n'
            "seeds = [0]\n"
            'platform = "skylake_gold_6138"\n'
            "\n"
            "[scenarios.engine]\n"
            'tables_path = "fig7.tables"\n'
            "\n"
            "[[scenarios.workloads]]\n"
            'source = "suite"\n'
            'suite = "dynamic_study"\n'
            'names = ["P1"]\n'
            "\n"
            "[[scenarios.policies]]\n"
            'name = "lfoc"\n'
        )
        with pytest.raises(SpecError, match="EngineSpec.tables_path was removed"):
            load_study_spec(path)
