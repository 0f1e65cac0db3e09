"""Tests for the CMT occupancy monitor and the PMC model."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ReproError, RmidExhaustedError
from repro.hardware import (
    CmtMonitor,
    CounterDelta,
    CounterSnapshot,
    PmcSampler,
    derive_metrics,
    skylake_gold_6138,
    small_test_platform,
    window_metrics,
)

_COUNTS = st.floats(min_value=0.0, max_value=1e12, allow_nan=False)
_ANY = st.floats(min_value=-1e12, max_value=1e12, allow_nan=False)


class TestCmtMonitor:
    def test_assign_rmid_is_stable(self):
        cmt = CmtMonitor(skylake_gold_6138())
        rmid = cmt.assign_rmid("a")
        assert cmt.assign_rmid("a") == rmid

    def test_rmid_zero_is_reserved(self):
        cmt = CmtMonitor(skylake_gold_6138())
        assert cmt.assign_rmid("a") != 0

    def test_rmid_exhaustion(self):
        plat = small_test_platform(ways=4)
        cmt = CmtMonitor(plat)
        for index in range(plat.n_rmids - 1):
            cmt.assign_rmid(f"task-{index}")
        with pytest.raises(RmidExhaustedError):
            cmt.assign_rmid("one-too-many")

    def test_release_recycles_rmid(self):
        plat = small_test_platform(ways=4)
        cmt = CmtMonitor(plat)
        for index in range(plat.n_rmids - 1):
            cmt.assign_rmid(f"task-{index}")
        cmt.release_rmid("task-0")
        cmt.assign_rmid("fresh")  # should not raise

    def test_occupancy_update_and_read(self):
        plat = skylake_gold_6138()
        cmt = CmtMonitor(plat)
        cmt.update_occupancy("a", 2.5)
        reading = cmt.read_occupancy("a")
        assert reading.occupancy_ways == pytest.approx(2.5)
        assert reading.occupancy_kb == pytest.approx(2.5 * plat.llc_way_kb)

    def test_negative_occupancy_rejected(self):
        cmt = CmtMonitor(skylake_gold_6138())
        with pytest.raises(ReproError):
            cmt.update_occupancy("a", -1.0)

    def test_read_unmonitored_task_rejected(self):
        cmt = CmtMonitor(skylake_gold_6138())
        with pytest.raises(ReproError):
            cmt.read_occupancy("ghost")

    def test_total_occupancy(self):
        cmt = CmtMonitor(skylake_gold_6138())
        cmt.update_occupancy("a", 2.0)
        cmt.update_occupancy("b", 3.0)
        assert cmt.total_occupancy_ways() == pytest.approx(5.0)
        assert cmt.n_monitored == 2

    def test_total_occupancy_is_a_left_fold(self):
        # math.fsum (and builtin sum() from Python 3.12) rounds these
        # fractional readings differently from the plain left fold.
        readings = [0.1, 0.2, 0.3]
        cmt = CmtMonitor(skylake_gold_6138())
        for task, ways in zip("abc", readings):
            cmt.update_occupancy(task, ways)
        assert cmt.total_occupancy_ways() == (0.1 + 0.2) + 0.3
        assert cmt.total_occupancy_ways() != math.fsum(readings)


class TestDerivedMetrics:
    def test_ipc_and_miss_rates(self):
        delta = CounterDelta(
            instructions=2_000_000, cycles=1_000_000, llc_misses=5_000, stalls_l2_miss=250_000
        )
        metrics = derive_metrics(delta)
        assert metrics.ipc == pytest.approx(2.0)
        assert metrics.llcmpkc == pytest.approx(5.0)
        assert metrics.llcmpki == pytest.approx(2.5)
        assert metrics.stall_fraction == pytest.approx(0.25)

    def test_stall_fraction_clamped(self):
        delta = CounterDelta(
            instructions=1_000, cycles=1_000, llc_misses=0, stalls_l2_miss=5_000
        )
        assert derive_metrics(delta).stall_fraction == 1.0

    def test_negative_delta_rejected(self):
        with pytest.raises(ReproError):
            CounterDelta(instructions=-1, cycles=1, llc_misses=0, stalls_l2_miss=0)

    @settings(max_examples=300, deadline=None)
    @given(
        instructions=_COUNTS | st.sampled_from([0.0, 0.5, 1.0]),
        cycles=_COUNTS | st.sampled_from([0.0, 0.5, 1.0]),
        llc_misses=_ANY,
        stalls=_ANY,
    )
    def test_window_metrics_bitwise_equal_to_derive_metrics(
        self, instructions, cycles, llc_misses, stalls
    ):
        expected = derive_metrics(
            CounterDelta(
                instructions=instructions,
                cycles=cycles,
                llc_misses=llc_misses,
                stalls_l2_miss=stalls,
            )
        )
        got = window_metrics(instructions, cycles, llc_misses, stalls)
        assert {k: v.hex() for k, v in got.as_dict().items()} == {
            k: v.hex() for k, v in expected.as_dict().items()
        }

    @pytest.mark.parametrize("instructions, cycles", [(-1.0, 1.0), (1.0, -0.5)])
    def test_window_metrics_rejects_what_counter_delta_rejects(
        self, instructions, cycles
    ):
        with pytest.raises(ReproError) as delta_error:
            CounterDelta(
                instructions=instructions,
                cycles=cycles,
                llc_misses=0.0,
                stalls_l2_miss=0.0,
            )
        with pytest.raises(ReproError) as window_error:
            window_metrics(instructions, cycles, 0.0, 0.0)
        assert str(window_error.value) == str(delta_error.value)

    def test_as_dict_contains_all_metrics(self):
        delta = CounterDelta(instructions=100.0, cycles=100.0, llc_misses=1.0, stalls_l2_miss=1.0)
        keys = set(derive_metrics(delta).as_dict())
        assert {"ipc", "llcmpkc", "llcmpki", "stall_fraction"} <= keys


class TestPmcSampler:
    def test_sample_returns_window_metrics(self):
        sampler = PmcSampler()
        sampler.register_task("a")
        sampler.accumulate("a", instructions=1e6, cycles=1e6, llc_misses=1e3, stalls_l2_miss=1e5)
        first = sampler.sample("a")
        assert first.ipc == pytest.approx(1.0)
        sampler.accumulate("a", instructions=3e6, cycles=1e6, llc_misses=0, stalls_l2_miss=0)
        second = sampler.sample("a")
        assert second.ipc == pytest.approx(3.0)

    def test_snapshot_delta(self):
        before = CounterSnapshot(100, 100, 10, 5)
        after = CounterSnapshot(300, 200, 15, 10)
        delta = after.delta(before)
        assert delta.instructions == 200
        assert delta.cycles == 100
        assert delta.llc_misses == 5

    def test_read_unknown_task_rejected(self):
        with pytest.raises(ReproError):
            PmcSampler().read("ghost")

    def test_accumulate_auto_registers(self):
        sampler = PmcSampler()
        sampler.accumulate("x", instructions=10, cycles=10, llc_misses=0, stalls_l2_miss=0)
        assert "x" in list(sampler.tasks())

    def test_remove_task(self):
        sampler = PmcSampler()
        sampler.register_task("a")
        sampler.remove_task("a")
        assert "a" not in list(sampler.tasks())
