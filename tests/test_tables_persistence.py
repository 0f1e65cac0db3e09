"""Round-trip tests for the persisted :class:`EvaluationTables` format.

The warm-start path (``save``/``load``) must restore the token registry, the
occupancy trajectories and the full-estimate cache *bit for bit*: a loaded
table answering an evaluation must return exactly the floats the saving
process computed, and profiles rebuilt from scratch in the loading process
must re-attach to the persisted tokens through their value fingerprints.
"""

from __future__ import annotations

import pytest

from repro.apps import build_profile
from repro.core.types import ClusteringSolution, WayAllocation
from repro.errors import SimulationError
from repro.hardware import small_test_platform
from repro.simulator import BandwidthModel, EvaluationTables, OccupancyModel


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


@pytest.fixture()
def warmed_tables(platform, mix8):
    tables = EvaluationTables(platform)
    estimates = {}
    for index, allocation in enumerate(
        _workload_allocations(list(mix8), platform.llc_ways)
    ):
        estimates[index] = tables.evaluate(allocation, mix8)
    return tables, estimates


class TestRoundTrip:
    def test_sizes_and_estimates_bit_identical(
        self, warmed_tables, platform, mix8, tmp_path
    ):
        tables, estimates = warmed_tables
        path = str(tmp_path / "tables.repro")
        tables.save(path)
        loaded = EvaluationTables.load(path, platform)
        assert loaded.cache_sizes() == tables.cache_sizes()

        before = loaded.cache_sizes()
        for index, allocation in enumerate(
            _workload_allocations(list(mix8), platform.llc_ways)
        ):
            # Fresh profile objects (as a new process would rebuild them)
            # must hit the persisted tokens and estimates.
            rebuilt = {
                name: build_profile(name, platform.llc_ways) for name in mix8
            }
            estimate = loaded.evaluate(allocation, rebuilt)
            assert _leaf_floats(estimate) == _leaf_floats(estimates[index])
        assert loaded.cache_sizes() == before  # pure cache hits, no growth

    def test_recompute_from_warm_trajectories_matches(
        self, warmed_tables, platform, mix8, tmp_path
    ):
        """With estimates dropped, warm trajectories still reproduce exactly."""
        tables, estimates = warmed_tables
        path = str(tmp_path / "tables.repro")
        tables.save(path)
        loaded = EvaluationTables.load(path, platform)
        loaded._estimates.clear()
        components_before = loaded.cache_sizes()["components"]
        for index, allocation in enumerate(
            _workload_allocations(list(mix8), platform.llc_ways)
        ):
            estimate = loaded.evaluate(allocation, mix8)
            assert _leaf_floats(estimate) == _leaf_floats(estimates[index])
        assert loaded.cache_sizes()["components"] == components_before

    def test_tokens_reattach_by_value(self, warmed_tables, platform, mix8, tmp_path):
        tables, _ = warmed_tables
        path = str(tmp_path / "tables.repro")
        tables.save(path)
        loaded = EvaluationTables.load(path, platform)
        profiles_before = loaded.cache_sizes()["profiles"]
        for name, profile in mix8.items():
            token = loaded.token_for(profile)
            assert tables.token_for(profile) == token
            view = loaded.view_for_token(token)
            assert view.ipc == profile.curves.ipc.tolist()
            assert view.llcmpkc == profile.curves.llcmpkc.tolist()
            assert view.ipc_alone == profile.ipc_alone
        assert loaded.cache_sizes()["profiles"] == profiles_before

    def test_lazy_metrics_survive_round_trip(self, warmed_tables, platform, tmp_path):
        tables, _ = warmed_tables
        path = str(tmp_path / "tables.repro")
        tables.save(path)
        loaded = EvaluationTables.load(path, platform)
        restored = list(loaded._estimates.values())
        assert restored
        assert not any("metrics" in vars(estimate) for estimate in restored)
        for original, again in zip(tables._estimates.values(), restored):
            for name in ("unfairness", "stp", "antt", "jain"):
                assert float(getattr(again.metrics, name)).hex() == float(
                    getattr(original.metrics, name)
                ).hex()
            assert again.metrics.slowdowns == original.metrics.slowdowns

    def test_empty_tables_round_trip(self, platform, tmp_path):
        tables = EvaluationTables(platform)
        path = str(tmp_path / "empty.repro")
        tables.save(path)
        loaded = EvaluationTables.load(path, platform)
        assert loaded.cache_sizes() == {
            "estimates": 0,
            "components": 0,
            "profiles": 0,
        }


class TestRejection:
    def test_platform_mismatch(self, warmed_tables, tmp_path):
        tables, _ = warmed_tables
        path = str(tmp_path / "tables.repro")
        tables.save(path)
        other = small_test_platform(ways=4, cores=4)
        with pytest.raises(SimulationError, match="different platform"):
            EvaluationTables.load(path, other)

    def test_model_parameter_mismatch(self, warmed_tables, platform, tmp_path):
        tables, _ = warmed_tables
        path = str(tmp_path / "tables.repro")
        tables.save(path)
        with pytest.raises(SimulationError, match="different platform"):
            EvaluationTables.load(
                path, platform, occupancy_model=OccupancyModel(damping=0.7)
            )
        with pytest.raises(SimulationError, match="different platform"):
            EvaluationTables.load(
                path, platform, bandwidth_model=BandwidthModel(sensitivity=2.0)
            )

    def test_corruption_detected(self, warmed_tables, platform, tmp_path):
        tables, _ = warmed_tables
        path = tmp_path / "tables.repro"
        tables.save(str(path))
        blob = bytearray(path.read_bytes())
        blob[-5] ^= 0xFF  # flip a payload byte
        corrupt = tmp_path / "corrupt.repro"
        corrupt.write_bytes(bytes(blob))
        with pytest.raises(SimulationError, match="CRC"):
            EvaluationTables.load(str(corrupt), platform)

    def test_truncation_and_bad_magic(self, warmed_tables, platform, tmp_path):
        tables, _ = warmed_tables
        path = tmp_path / "tables.repro"
        tables.save(str(path))
        blob = path.read_bytes()
        truncated = tmp_path / "truncated.repro"
        truncated.write_bytes(blob[: len(blob) - 64])
        with pytest.raises(SimulationError):
            EvaluationTables.load(str(truncated), platform)
        garbage = tmp_path / "garbage.repro"
        garbage.write_bytes(b"NOTATABLE" + blob)
        with pytest.raises(SimulationError, match="magic"):
            EvaluationTables.load(str(garbage), platform)
        with pytest.raises(SimulationError):
            EvaluationTables.load(str(tmp_path / "missing.repro"), platform)
