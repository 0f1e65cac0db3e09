"""The compact occupancy trajectory cache against its recording oracle.

:class:`~repro.simulator.occupancy.OccupancyTrajectoryCache` stores each
component trajectory as flat float buffers and derives pressures on replay.
:class:`oracles.RecordingTrajectoryCache` records every iteration as tuples
of effective ways and pressures.  Every solve and every stored trajectory
must match between the two bit for bit, and the compact storage must stay
within its footprint bound.
"""

import sys
from array import array

import numpy as np
import pytest

import oracles
from repro.apps.catalog import build_catalog
from repro.apps.profile import FastProfileView
from repro.core.types import WayAllocation
from repro.hardware.cat import mask_from_range
from repro.runtime import (
    DunnUserLevelDaemon,
    EngineConfig,
    LfocSchedulerPlugin,
    RuntimeEngine,
    StockLinuxDriver,
)
from repro.simulator import EvaluationTables, OccupancyModel, OccupancyTrajectoryCache
from repro.workloads import random_workload

#: The perfbench Fig. 7 engine settings: two completions of 1e9 instructions.
FIG7_CONFIG = EngineConfig(instructions_per_run=1.0e9, min_completions=2)


def _bits(result):
    """An occupancy result with every float in hex (bit-exact comparison)."""
    return (
        [(app, value.hex()) for app, value in result.effective_ways.items()],
        [(app, value.hex()) for app, value in result.pressures.items()],
        result.iterations,
        result.converged,
    )


def _trajectory_bits(cache):
    """Every trajectory stored in ``cache``, least recently used first, in hex.

    Each is its component key, the effective ways of every recorded
    iteration, the pressures of iterations 1 and on (recorded by the oracle,
    derived by the compact cache), the deltas and the freeze point.
    """
    model = cache.model
    dumped = []
    for key, trajectory in cache._trajectories.items():
        length = len(trajectory.deltas)
        dumped.append(
            (
                key,
                [[v.hex() for v in trajectory.effective(n)] for n in range(length)],
                [[v.hex() for v in trajectory.pressure(n, model)] for n in range(1, length)],
                [d.hex() for d in trajectory.deltas],
                trajectory.fixed_at,
            )
        )
    return dumped


def _solve_both(model, allocations, profiles):
    """Solve ``allocations`` in order through both caches; compare each."""
    tokens = {app: i for i, app in enumerate(sorted(profiles))}
    views = {app: FastProfileView(profile) for app, profile in profiles.items()}
    compact = OccupancyTrajectoryCache(model)
    recording = oracles.RecordingTrajectoryCache(model)
    for allocation in allocations:
        expected = recording.solve(allocation, tokens, views)
        assert _bits(compact.solve(allocation, tokens, views)) == _bits(expected)
        assert expected == oracles.occupancy_solve_reference(model, allocation, profiles)
    assert _trajectory_bits(compact) == _trajectory_bits(recording)
    return compact


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


class TestSolvesMatchRecordingOracle:
    @pytest.mark.parametrize("reverse", [False, True], ids=["early-first", "late-first"])
    def test_staggered_components(self, platform, reverse):
        allocation, profiles = _staggered(platform, reverse)
        # Solved twice: the second solve replays the recorded trajectories.
        _solve_both(OccupancyModel(), [allocation, allocation], profiles)

    @pytest.mark.parametrize("reverse", [False, True], ids=["early-first", "late-first"])
    def test_unconverged(self, platform, reverse):
        allocation, profiles = _staggered(platform, reverse)
        model = OccupancyModel(max_iterations=3)
        assert not model.solve(allocation, profiles).converged
        # The replay extends nothing past the iteration limit.
        _solve_both(model, [allocation, allocation], profiles)

    def test_dunn_overlaps_and_replays(self, platform):
        catalog = build_catalog(platform.llc_ways)
        rng = np.random.default_rng(5)
        apps = ["lbm06", "xalancbmk06", "soplex06", "gamess06", "mcf06", "omnetpp06"]
        profiles = {app: catalog[app] for app in apps}
        allocations = []
        for _ in range(40):
            # Dunn-style nested masks from way 0, plus arbitrary overlaps.
            masks = {}
            for app in apps:
                if rng.random() < 0.5:
                    masks[app] = mask_from_range(0, int(rng.integers(1, platform.llc_ways + 1)))
                else:
                    start = int(rng.integers(0, platform.llc_ways))
                    width = int(rng.integers(1, platform.llc_ways - start + 1))
                    masks[app] = mask_from_range(start, width)
            allocations.append(WayAllocation(masks=masks, total_ways=platform.llc_ways))
        # Each allocation twice, the repeats after the whole sweep.
        _solve_both(OccupancyModel(), allocations + allocations, profiles)


def _logged(cache):
    """Record every result ``cache.solve`` returns, in call order."""
    log = []
    solve = cache.solve

    def logged(*args, **kwargs):
        result = solve(*args, **kwargs)
        log.append(_bits(result))
        return result

    cache.solve = logged
    return log


def _dynamic_study(platform, tables, workloads):
    """Every workload under Stock-Linux, Dunn and LFOC over shared tables."""
    fields = []
    for workload in workloads:
        profiles = workload.phased_profiles(platform.llc_ways)
        for driver in (StockLinuxDriver(), DunnUserLevelDaemon(), LfocSchedulerPlugin()):
            engine = RuntimeEngine(platform, profiles, driver, FIG7_CONFIG, tables=tables)
            fields.append(oracles.run_fields(engine.run(workload.name)))
    return fields


@pytest.fixture(scope="module")
def fig7_workloads():
    """One P and one S mix at the largest Fig. 7 size."""
    return [
        random_workload("traj-P16", 16, kind="P", seed=3),
        random_workload("traj-S16", 16, kind="S", seed=4),
    ]


@pytest.fixture(scope="module")
def fig7_tables(platform, fig7_workloads):
    """The same dynamic study through the compact cache and the oracle."""
    compact = EvaluationTables(platform)
    recording = EvaluationTables(platform)
    recording.occupancy_cache = oracles.RecordingTrajectoryCache(
        recording.occupancy_model, max_entries=recording.max_entries
    )
    logs = [_logged(tables.occupancy_cache) for tables in (compact, recording)]
    fields = [
        _dynamic_study(platform, tables, fig7_workloads) for tables in (compact, recording)
    ]
    return compact, recording, logs, fields


class TestFig7SizedStudy:
    def test_runs_and_every_solve_match(self, fig7_tables):
        compact, recording, (compact_log, recording_log), fields = fig7_tables
        assert fields[0] == fields[1]
        assert compact_log and compact_log == recording_log
        assert _trajectory_bits(compact.occupancy_cache) == _trajectory_bits(
            recording.occupancy_cache
        )

    def test_footprint_is_flat_buffers(self, fig7_tables):
        """At most 8 bytes per recorded value plus a constant per trajectory."""
        compact, _, _, _ = fig7_tables
        trajectories = list(compact.occupancy_cache._trajectories.values())
        assert trajectories
        stored = 0
        values = 0
        for trajectory in trajectories:
            assert not hasattr(trajectory, "pressures")
            for buffer in (trajectory.eff, trajectory.deltas):
                assert type(buffer) is array and buffer.typecode == "d"
                stored += sys.getsizeof(buffer)
                values += len(buffer)
            assert len(trajectory.deltas) == trajectory.length
            assert len(trajectory.eff) == trajectory.length * trajectory.members
        # The constant covers two array headers and the growth slack of
        # array.extend (at most a sixteenth of a buffer, and a buffer holds
        # at most max_iterations + 1 rows).  Recorded as two tuples of boxed
        # floats per iteration, every value costs 64 bytes or more.
        assert stored <= 8 * values + 512 * len(trajectories)
