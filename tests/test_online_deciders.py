"""The online decision cores shared by the engine drivers and the service.

:class:`~repro.policies.online.LfocDecider` and
:class:`~repro.policies.online.DunnDecider` each own a fast-path key, a memo
cache and two counters.  These tests pin where the key resets (engine
``on_start``, a service reboot ``hello``), that tenant churn misses the fast
path, and that the counters read the same values the engine drivers and the
host sessions reported when each kept its own copy of the decision code.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

import oracles
from repro.core.classification import AppClass
from repro.hardware import skylake_gold_6138
from repro.policies.online import DunnDecider, LfocDecider
from repro.runtime import DunnUserLevelDaemon, LfocSchedulerPlugin, RuntimeEngine
from repro.service import ServiceCore, protocol
from repro.service.agent import LocalTransport, drive_host
from repro.service.simhost import SimulatedHost, churn_schedule, host_seed


@pytest.fixture(scope="module")
def platform():
    return skylake_gold_6138()


def _entry(app, stall=0.25, llcmpkc=1.0):
    return {"app": app, "llcmpkc": llcmpkc, "stall_fraction": stall,
            "effective_ways": 11}


def _streaming(app):
    return {"app": app, "class": AppClass.STREAMING.value,
            "slowdown_table": None, "critical_size": None}


def _core(policy, frames):
    """A core that said hello for host ``h`` and handled ``frames``."""
    core = ServiceCore(policy=policy)
    core.handle_hello(protocol.host_hello("h", 1, 0)[1])
    for kind, payload in frames:
        core.handle("h", kind, payload)
    return core


def _counters(decider):
    return decider.decisions_computed, decider.decision_fast_hits


class TestLfocDecider:
    def test_an_unchanged_key_is_a_fast_hit(self, platform):
        driver = LfocSchedulerPlugin()
        driver.on_start(["a", "b"], platform)
        decider = driver.decider
        first = decider.decide(["a", "b"], driver.monitors, platform.llc_ways, "k")
        again = decider.decide(["a", "b"], driver.monitors, platform.llc_ways, "k")
        assert again is first
        assert _counters(decider) == (1, 1)
        decider.decide(["a", "b"], driver.monitors, platform.llc_ways, "other")
        assert _counters(decider) == (2, 1)

    def test_a_churned_live_set_misses_the_fast_path(self):
        core = _core("lfoc", [
            protocol.app_arrive(1, "a"),
            protocol.app_arrive(2, "b"),
            protocol.monitor_samples(3, [_entry("a")], [_streaming("a")]),
        ])
        decider = core.sessions["h"].decider
        assert _counters(decider) == (3, 0)
        # No classification changes, but the tenants do: each churn frame
        # decides afresh (the fingerprint cache answers the recurring set).
        hits = decider.cache.hits
        core.handle("h", *protocol.app_depart(4, "b"))
        core.handle("h", *protocol.app_arrive(5, "b"))
        assert _counters(decider) == (5, 0)
        assert decider.cache.hits == hits + 1
        core.handle("h", *protocol.monitor_samples(6, [_entry("b")], []))
        assert _counters(decider) == (5, 1)

    def test_engine_on_start_resets_the_key(self, platform):
        driver = LfocSchedulerPlugin()
        driver.on_start(["a", "b"], platform)
        driver._run_partitioning()
        driver._run_partitioning()
        assert _counters(driver.decider) == (1, 1)
        # A new run's monitors restart at version 0, which is the key the
        # first run recorded: it must not be served from the fast path.
        driver.on_start(["a", "b"], platform)
        driver._run_partitioning()
        assert _counters(driver.decider) == (2, 1)

    def test_a_reboot_hello_resets_the_key(self):
        frames = [
            protocol.app_arrive(1, "a"),
            protocol.monitor_samples(2, [_entry("a")], [_streaming("a")]),
        ]
        core = _core("lfoc", frames)
        session = core.sessions["h"]
        assert _counters(session.decider) == (2, 0)
        core.handle_hello(protocol.host_hello("h", 2, 0)[1])
        # The parked monitor comes back with its version: the key equals the
        # one before the reboot, yet the rebooted host must get its masks.
        _, reply = core.handle("h", *protocol.app_arrive(1, "a"))
        assert _counters(session.decider) == (3, 0)
        assert reply["masks"] is not None

    def test_drop_memos_forgets_the_fingerprint_cache(self):
        decider = LfocDecider()
        cache = decider.cache
        decider.drop_memos()
        assert decider.cache is not cache and len(decider.cache) == 0


class TestDunnDecider:
    def test_window_changes_and_churn_miss_the_fast_path(self, platform):
        decider = DunnDecider()
        decider.reset(["a", "b"])
        assert decider.decide(platform) is None  # no sample yet
        decider.observe("a", 0.25)
        assert decider.decide(platform) is None
        decider.observe("b", 0.75)
        first = decider.decide(platform)
        assert decider.decide(platform) is first
        assert (decider.decisions_computed, decider.window_fast_hits) == (1, 1)
        decider.remove("b")
        only_a = decider.decide(platform)
        assert set(only_a.masks) == {"a"}
        decider.add("b", [0.75])
        again = decider.decide(platform)
        # The means recur bit for bit: the LRU answers, not the fast path.
        assert again is first
        assert _counters(decider) == (2, 2)
        assert decider.window_fast_hits == 1

    def test_engine_on_start_resets_windows_key_and_lru(self, platform):
        driver = DunnUserLevelDaemon()
        driver.on_start(["a", "b"], platform)
        for app, stall in (("a", 0.25), ("b", 0.75)):
            driver.decider.observe(app, stall)
        driver.on_interval(0.5)
        driver.on_start(["a", "b"], platform)
        assert driver.on_interval(1.0) is None  # fresh, empty windows
        for app, stall in (("a", 0.25), ("b", 0.75)):
            driver.decider.observe(app, stall)
        driver.on_interval(1.5)
        assert driver.decision_stats() == {
            "intervals_computed": 2,
            "interval_fast_hits": 0,
            "allocation_cache_hits": 0,
        }

    def test_a_reboot_hello_clears_the_windows_and_keeps_the_lru(self):
        frames = [
            protocol.app_arrive(1, "a"),
            protocol.monitor_samples(2, [_entry("a")], []),
        ]
        core = _core("dunn", frames)
        decider = core.sessions["h"].decider
        assert _counters(decider) == (1, 0)
        core.handle_hello(protocol.host_hello("h", 2, 0)[1])
        assert decider.stalls == {}
        _, reply = core.handle("h", *protocol.app_arrive(1, "a"))
        assert reply["masks"] is None  # no sample since the reboot
        _, reply = core.handle("h", *protocol.monitor_samples(2, [_entry("a")], []))
        assert _counters(decider) == (1, 1)  # the same mean: an LRU hit
        assert reply["masks"] is not None  # pushed again to the new boot

    def test_restore_keeps_the_windows_and_drops_the_memos(self):
        frames = [
            protocol.app_arrive(1, "a"),
            protocol.monitor_samples(2, [_entry("a", 0.5)], []),
        ]
        core = _core("dunn", frames)
        state = core.to_state()
        assert state["sessions"]["h"]["history_window"] == DunnDecider.WINDOW
        restored = ServiceCore.from_state(state).sessions["h"].decider
        assert list(restored.stalls["a"]) == [0.5]
        assert restored.stalls["a"].maxlen == DunnDecider.WINDOW
        assert len(restored._allocations) == 0


class TestCountersMatchThePerPathValues:
    """Counter values the engine drivers and the host sessions reported when
    each kept its own decision code, on the same inputs."""

    def test_engine_drivers(self, platform):
        workload = oracles.random_phased_workload(2)
        profiles = workload.phased_profiles(platform.llc_ways)
        # Intervals shorter than the sampling period, so the fast paths fire;
        # two runs per driver, so the reset points are crossed too.
        config = replace(oracles.ORACLE_CONFIG, partition_interval_s=0.02)
        lfoc = LfocSchedulerPlugin(monitor_config=oracles.ORACLE_MONITOR)
        dunn = DunnUserLevelDaemon()
        for driver in (lfoc, dunn):
            for _ in range(2):
                RuntimeEngine(platform, profiles, driver, config).run(workload.name)
        assert lfoc.decision_stats() == {
            "partitions_computed": 10,
            "partition_fast_hits": 16,
            "decision_cache_hits": 8,
            "decision_cache_misses": 2,
        }
        assert dunn.decision_stats() == {
            "intervals_computed": 40,
            "interval_fast_hits": 2,
            "allocation_cache_hits": 8,
        }

    @pytest.mark.parametrize(
        "policy, counters, decisions",
        [("lfoc", (12, 10), 22), ("dunn", (13, 0), 21)],
    )
    def test_service_sessions(self, policy, counters, decisions):
        core = ServiceCore(policy=policy)
        for host_id in ("host0", "host1"):
            host = SimulatedHost("S1", seed=host_seed(3, host_id))
            churn = churn_schedule(host.apps, 12, host_seed(3, host_id))
            drive_host(host, LocalTransport(core, host_id), batches=12, churn=churn)
        assert len(core.replay) == decisions
        for session in core.sessions.values():
            summary = session.summary()
            assert (summary["decisions_computed"], summary["decision_fast_hits"]) == (
                counters
            )

    def test_dunn_service_fast_hits(self):
        """Both Dunn memos, through the service: one computed answer per
        new mean vector, a hit for a recurring one and for an unchanged
        window."""
        core = _core("dunn", [])
        frames = [
            protocol.app_arrive(1, "a"),
            protocol.app_arrive(2, "b"),
            protocol.monitor_samples(3, [_entry("a"), _entry("b", 0.75)], []),
            protocol.monitor_samples(4, [_entry("a"), _entry("b", 0.75)], []),
            protocol.app_arrive(5, "a"),  # already live: nothing changes
            protocol.app_depart(6, "b"),
            protocol.app_arrive(7, "b"),
            protocol.monitor_samples(8, [_entry("a"), _entry("b", 0.75)], []),
        ]
        trace = []
        for kind, payload in frames:
            core.handle("h", kind, payload)
            summary = core.sessions["h"].summary()
            trace.append((summary["decisions_computed"], summary["decision_fast_hits"]))
        assert trace == [
            (0, 0), (0, 0), (1, 0), (1, 1), (1, 2), (2, 2), (2, 2), (2, 3),
        ]
        assert core.sessions["h"].decider.window_fast_hits == 1
        assert len(core.replay) == 3
