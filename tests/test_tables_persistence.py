"""Round-trip tests for the persisted :class:`EvaluationTables` format.

The warm-start path (``save``/``load``) must restore the token registry, the
occupancy trajectories and the full-estimate cache *bit for bit*: a loaded
table answering an evaluation must return exactly the floats the saving
process computed, and profiles rebuilt from scratch in the loading process
must re-attach to the persisted tokens through their value fingerprints.
"""

from __future__ import annotations

import json
import struct

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

    def test_load_keeps_the_most_recent_entries_of_each_table(
        self, warmed_tables, platform, mix8, tmp_path
    ):
        """A bounded load keeps the last ``max_entries`` saved entries of
        each table, in saved order, and the whole token registry."""
        tables, estimates = warmed_tables
        path = str(tmp_path / "tables.repro")
        tables.save(path)
        loaded = EvaluationTables.load(path, platform, max_entries=1)
        assert loaded.cache_sizes() == {
            "estimates": 1,
            "components": 1,
            "profiles": tables.cache_sizes()["profiles"],
        }
        (kept,) = loaded.occupancy_cache.export_entries()
        assert kept[0] == tables.occupancy_cache.export_entries()[-1][0]
        # The kept estimate is the last one evaluated; the others recompute
        # with the same bits from the kept trajectory and fresh ones.
        (restored,) = loaded._estimates.values()
        assert _leaf_floats(restored) == _leaf_floats(estimates[len(estimates) - 1])
        for index, allocation in enumerate(
            _workload_allocations(list(mix8), platform.llc_ways)
        ):
            estimate = loaded.evaluate(allocation, mix8)
            assert _leaf_floats(estimate) == _leaf_floats(estimates[index])
            assert max(loaded.cache_sizes()["estimates"], len(loaded.occupancy_cache)) <= 1

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


def _rewrite_header(source, target, edit):
    """Copy a saved tables file, applying ``edit`` to its JSON header.

    The payload is copied unchanged (its CRC still matches) and re-aligned
    after the edited header, as ``EvaluationTables.save`` lays it out.
    """
    blob = source.read_bytes()
    (length,) = struct.unpack("<Q", blob[8:16])
    header = json.loads(blob[16 : 16 + length])
    start = 16 + length
    payload = blob[start + (-start) % 64 :]
    edit(header)
    encoded = json.dumps(header, separators=(",", ":")).encode("utf-8")
    padding = b"\0" * ((-(16 + len(encoded))) % 64)
    target.write_bytes(
        blob[:8] + struct.pack("<Q", len(encoded)) + encoded + padding + payload
    )


class TestTrajectoryHeader:
    """The payload CRC does not cover the header: its structure is checked."""

    @pytest.fixture()
    def saved(self, warmed_tables, tmp_path):
        tables, _ = warmed_tables
        path = tmp_path / "tables.repro"
        tables.save(str(path))
        return path

    @staticmethod
    def _live_index(path, min_length):
        """A live (unfrozen) trajectory of at least ``min_length`` iterations."""
        blob = path.read_bytes()
        (length,) = struct.unpack("<Q", blob[8:16])
        header = json.loads(blob[16 : 16 + length])
        for index, meta in enumerate(header["trajectories"]):
            if meta["fixed_at"] == 0 and meta["length"] >= min_length:
                return index
        raise AssertionError("no live trajectory long enough")

    def _load_edited(self, saved, platform, tmp_path, index, edit):
        edited = tmp_path / "edited.repro"
        _rewrite_header(saved, edited, lambda header: edit(header["trajectories"][index]))
        return EvaluationTables.load(str(edited), platform)

    def test_unedited_rewrite_loads(self, saved, platform, tmp_path):
        loaded = self._load_edited(saved, platform, tmp_path, 0, lambda meta: None)
        assert loaded.cache_sizes()["components"] > 0

    def test_empty_key(self, saved, platform, tmp_path):
        with pytest.raises(SimulationError, match="trajectory 0 .*empty key"):
            self._load_edited(saved, platform, tmp_path, 0, lambda m: m.update(key=[]))

    @pytest.mark.parametrize("mask", [0, -3])
    def test_non_positive_mask(self, saved, platform, tmp_path, mask):
        def edit(meta):
            meta["key"][0][1] = mask

        with pytest.raises(SimulationError, match="trajectory 0 .*non-positive"):
            self._load_edited(saved, platform, tmp_path, 0, edit)

    def test_length_below_one(self, saved, platform, tmp_path):
        def edit(meta):
            meta.update(length=0, fixed_at=0)

        with pytest.raises(SimulationError, match="trajectory 0 .*length 0"):
            self._load_edited(saved, platform, tmp_path, 0, edit)

    @pytest.mark.parametrize("past_end", [False, True], ids=["inside", "past-end"])
    def test_freeze_point_not_the_last_iteration(self, saved, platform, tmp_path, past_end):
        # A live trajectory marked frozen at iteration 1 would replay
        # iteration 1 for every later one.
        index = self._live_index(saved, 3)

        def edit(meta):
            meta["fixed_at"] = meta["length"] if past_end else 1

        with pytest.raises(
            SimulationError, match=f"trajectory {index} .*neither 0 nor its last iteration"
        ):
            self._load_edited(saved, platform, tmp_path, index, edit)

    def test_freeze_point_with_nonzero_delta(self, saved, platform, tmp_path):
        index = self._live_index(saved, 2)

        def edit(meta):
            meta["fixed_at"] = meta["length"] - 1

        with pytest.raises(SimulationError, match=f"trajectory {index} .*not 0.0"):
            self._load_edited(saved, platform, tmp_path, index, edit)


class TestWarmStartStudy:
    """A dynamic study warm-started through ``EngineSpec.tables_path``.

    The tables a cold serial study leaves in its process are saved, then
    loaded by a serial study in this process and by the workers of a fresh
    spawn pool.  Every run then reads its estimates, miss rates and stall
    fractions included, off restored entries, and the rows must equal the
    cold study's.
    """

    @staticmethod
    def _spec(tables_path=None):
        from repro.experiments import (
            EngineSpec,
            PolicySpec,
            ScenarioSpec,
            StudySpec,
            WorkloadSpec,
        )

        return StudySpec(
            name="warm-start",
            scenarios=(
                ScenarioSpec(
                    name="dyn",
                    kind="dynamic",
                    workloads=(WorkloadSpec(suite="dynamic_study", names=("P1",)),),
                    policies=(
                        PolicySpec("dunn", label="Dunn"),
                        PolicySpec("lfoc", label="LFOC"),
                    ),
                    engine=EngineSpec(
                        instructions_per_run=6e8,
                        min_completions=1,
                        tables_path=tables_path,
                    ),
                ),
            ),
        )

    def test_serial_and_spawn_pool_rows_equal_the_cold_study(self, tmp_path):
        from repro.experiments import run_study
        from repro.runtime import PoolExecutor, SerialExecutor
        from repro.runtime.executors import base

        def serial_study(spec):
            """Rows and process tables of a serial study (a context install
            clears the tables and closing the executor drops them)."""
            with SerialExecutor() as executor:
                rows = run_study(spec, executor=executor).rows()
                ((_, tables),) = base._TABLES_CACHE.values()
                return rows, tables

        cold_rows, cold_tables = serial_study(self._spec())
        path = str(tmp_path / "study.tables")
        cold_tables.save(path)
        saved_estimates = cold_tables.cache_sizes()["estimates"]
        assert saved_estimates > 0

        warm_rows, warm_tables = serial_study(self._spec(path))
        assert warm_rows == cold_rows
        # Every estimate the warm runs asked for was a restored one.
        assert warm_tables.cache_sizes()["estimates"] == saved_estimates

        with PoolExecutor(jobs=2) as executor:
            pool_rows = run_study(self._spec(path), executor=executor).rows()
        assert pool_rows == cold_rows
