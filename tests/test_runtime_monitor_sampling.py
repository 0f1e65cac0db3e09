"""Tests for the online monitor (Section 4.2 heuristics) and the sampling mode."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import AppClass, ClassificationThresholds
from repro.errors import SimulationError
from repro.hardware.pmc import DerivedMetrics
from repro.runtime import AppMonitor, MonitorConfig, SamplingConfig, SamplingSession
from repro.runtime.monitor import BankMonitor, MonitorBank


def metrics(ipc=1.0, llcmpkc=1.0, stall=0.05):
    return DerivedMetrics(
        ipc=ipc,
        llcmpkc=llcmpkc,
        llcmpki=llcmpkc / max(ipc, 1e-9),
        stall_fraction=stall,
        instructions=100e6,
        cycles=100e6 / max(ipc, 1e-9),
    )


class TestAppMonitor:
    def test_warmup_samples_are_ignored(self):
        monitor = AppMonitor("a", MonitorConfig(warmup_samples=3))
        for _ in range(3):
            assert monitor.observe(metrics(llcmpkc=50.0), 11.0) is False
        assert not monitor.warmed_up or monitor.average_llcmpkc() == 0.0

    def test_unknown_app_requests_sampling_after_warmup(self):
        monitor = AppMonitor("a", MonitorConfig(warmup_samples=1))
        assert monitor.observe(metrics(), 11.0) is False  # warm-up sample
        assert monitor.observe(metrics(), 11.0) is True

    def test_light_app_resampled_when_memory_intensive(self):
        monitor = AppMonitor("a", MonitorConfig(warmup_samples=0, history_window=3))
        monitor.set_classification(AppClass.LIGHT)
        triggered = [monitor.observe(metrics(llcmpkc=30.0, stall=0.6), 5.0) for _ in range(3)]
        assert triggered[-1] is True

    def test_light_app_not_resampled_when_quiet(self):
        monitor = AppMonitor("a", MonitorConfig(warmup_samples=0, history_window=3))
        monitor.set_classification(AppClass.LIGHT)
        triggered = [monitor.observe(metrics(llcmpkc=0.5, stall=0.05), 5.0) for _ in range(5)]
        assert not any(triggered)

    def test_streaming_app_resampled_when_misses_drop(self):
        monitor = AppMonitor("a", MonitorConfig(warmup_samples=0, history_window=3))
        monitor.set_classification(AppClass.STREAMING)
        triggered = [monitor.observe(metrics(llcmpkc=1.0), 1.0) for _ in range(3)]
        assert triggered[-1] is True

    def test_streaming_app_stable_when_misses_high(self):
        monitor = AppMonitor("a", MonitorConfig(warmup_samples=0, history_window=3))
        monitor.set_classification(AppClass.STREAMING)
        triggered = [monitor.observe(metrics(llcmpkc=30.0), 1.0) for _ in range(5)]
        assert not any(triggered)

    def test_sensitive_app_resampled_when_quiet_below_critical_size(self):
        monitor = AppMonitor("a", MonitorConfig(warmup_samples=0, history_window=3))
        monitor.set_classification(AppClass.SENSITIVE, slowdown_table=[1.2] * 11, critical_size=6)
        triggered = [
            monitor.observe(metrics(llcmpkc=0.5, stall=0.05), 2.0) for _ in range(3)
        ]
        assert triggered[-1] is True

    def test_sensitive_app_resampled_when_thrashing_above_critical_size(self):
        monitor = AppMonitor("a", MonitorConfig(warmup_samples=0, history_window=3))
        monitor.set_classification(AppClass.SENSITIVE, slowdown_table=[1.2] * 11, critical_size=3)
        triggered = [
            monitor.observe(metrics(llcmpkc=25.0, stall=0.8), 8.0) for _ in range(3)
        ]
        assert triggered[-1] is True

    def test_sensitive_app_stable_in_expected_regime(self):
        monitor = AppMonitor("a", MonitorConfig(warmup_samples=0, history_window=3))
        monitor.set_classification(AppClass.SENSITIVE, slowdown_table=[1.2] * 11, critical_size=4)
        triggered = [
            monitor.observe(metrics(llcmpkc=6.0, stall=0.4), 6.0) for _ in range(5)
        ]
        assert not any(triggered)

    def test_no_trigger_while_in_sampling_mode(self):
        monitor = AppMonitor("a", MonitorConfig(warmup_samples=0))
        monitor.begin_sampling()
        assert monitor.observe(metrics(llcmpkc=50.0), 1.0) is False
        assert monitor.sampling_mode_entries == 1

    def test_class_changes_counted(self):
        monitor = AppMonitor("a", MonitorConfig(warmup_samples=0))
        monitor.set_classification(AppClass.LIGHT)
        monitor.set_classification(AppClass.STREAMING)
        monitor.set_classification(AppClass.STREAMING)
        assert monitor.class_changes == 2

    def test_snapshot_fields(self):
        monitor = AppMonitor("a")
        snapshot = monitor.snapshot()
        assert snapshot["class"] == "unknown"
        assert "avg_llcmpkc" in snapshot

    def test_invalid_config_rejected(self):
        with pytest.raises(SimulationError):
            MonitorConfig(warmup_samples=-1)
        with pytest.raises(SimulationError):
            MonitorConfig(history_window=0)


_CLASSES = (AppClass.UNKNOWN, AppClass.LIGHT, AppClass.STREAMING, AppClass.SENSITIVE)

# Values clustered around the Section 4.2 thresholds (streaming_llcmpkc=10,
# stall_fraction_high=0.25, low_llcmpkc=3) so the trigger comparisons are
# exercised on both sides of — and exactly at — every boundary.
_VALUES = st.one_of(
    st.sampled_from([0.0, 0.05, 0.249, 0.25, 0.251, 2.99, 3.0, 9.99, 10.0, 10.01, 30.0]),
    st.floats(min_value=0.0, max_value=60.0, allow_nan=False, width=64),
)


@st.composite
def _monitor_scripts(draw):
    n_apps = draw(st.integers(min_value=1, max_value=4))
    config = MonitorConfig(
        warmup_samples=draw(st.integers(min_value=0, max_value=4)),
        # 8/9 cross the pairwise cutover (short_mean fallback per read).
        history_window=draw(st.sampled_from([1, 2, 3, 5, 8, 9])),
    )
    sample = st.tuples(_VALUES, _VALUES, _VALUES)  # (llcmpkc, stall, ways)
    step = st.one_of(
        st.tuples(
            st.just("observe"),
            st.lists(sample, min_size=n_apps, max_size=n_apps),
            st.lists(st.booleans(), min_size=n_apps, max_size=n_apps),
        ),
        st.tuples(st.just("begin"), st.integers(0, n_apps - 1)),
        st.tuples(
            st.just("classify"),
            st.integers(0, n_apps - 1),
            st.sampled_from(_CLASSES),
            st.one_of(st.none(), st.integers(min_value=0, max_value=6)),
        ),
        # Session churn: the app departs and re-arrives (arrive → depart →
        # arrive), which is reset_for_restart on both paths — classification
        # and lifetime counters survive, warm-up and windows restart.
        st.tuples(st.just("restart"), st.integers(0, n_apps - 1)),
    )
    steps = draw(st.lists(step, min_size=1, max_size=40))
    return n_apps, config, steps


#: The bank attributes holding one entry per row.
_PER_ROW_ATTRS = (
    "warmup_remaining",
    "samples_seen",
    "class_code",
    "in_sampling_mode",
    "classification_version",
    "class_changes",
    "sampling_mode_entries",
    "critical_eval",
    "critical_size",
    "slowdown_tables",
    "_win_values",
    "_win_partials",
    "_win_start",
    "_win_live",
)
#: Their ``MonitorBank.state_dict`` keys.
_PER_ROW_STATE = tuple(attr.lstrip("_") for attr in _PER_ROW_ATTRS)
#: Rows a grown bank ends with: past the doublings to 2, 4, 8, 16 and 32.
_GROWN_ROWS = 20


@st.composite
def _growth_scripts(draw):
    config = MonitorConfig(
        warmup_samples=draw(st.integers(min_value=0, max_value=3)),
        history_window=draw(st.sampled_from([1, 2, 3, 5])),
    )
    sample = st.tuples(_VALUES, _VALUES, _VALUES)  # (llcmpkc, stall, ways)
    row = st.integers(0, _GROWN_ROWS - 1)  # taken modulo the grown length
    step = st.one_of(
        st.tuples(st.just("add"), st.integers(1, 4)),
        st.tuples(
            st.just("observe"),
            st.lists(sample, min_size=_GROWN_ROWS, max_size=_GROWN_ROWS),
            st.lists(st.booleans(), min_size=_GROWN_ROWS, max_size=_GROWN_ROWS),
        ),
        st.tuples(
            st.just("observe_all"),
            st.lists(sample, min_size=_GROWN_ROWS, max_size=_GROWN_ROWS),
        ),
        st.tuples(st.just("observe_row"), row, sample),
        st.tuples(
            st.just("classify"),
            row,
            st.sampled_from(_CLASSES),
            st.one_of(st.none(), st.integers(min_value=0, max_value=6)),
        ),
        st.tuples(st.just("begin"), row),
    )
    return config, draw(st.lists(step, min_size=1, max_size=40))


class TestGrownBank:
    """A bank grown row by row through ``add_row`` behaves exactly like one
    built with every name at once and driven the same way."""

    @staticmethod
    def _assert_grown_matches(grown, full):
        rows = len(grown)
        for attr in _PER_ROW_ATTRS:
            assert len(getattr(grown, attr)) == rows, attr
        mine, theirs = grown.state_dict(), full.state_dict()
        for key, value in mine.items():
            if key in _PER_ROW_STATE or key == "names":
                assert value == theirs[key][:rows], key
            else:
                assert value == theirs[key], key

    @settings(max_examples=40, deadline=None)
    @given(_growth_scripts())
    def test_grown_bank_equals_a_bank_built_at_once(self, script):
        config, steps = script
        names = [f"app{i}" for i in range(_GROWN_ROWS)]
        full = MonitorBank(names, config)
        grown = MonitorBank(names[:1], config)
        for step in steps:
            rows = len(grown)
            if step[0] == "add":
                for name in names[rows : rows + step[1]]:
                    assert grown.add_row(name) == full.row_index(name)
            elif step[0] == "observe":
                _, samples, included = step
                picked = [i for i in range(rows) if included[i]]
                if picked:
                    columns = [[samples[i][c] for i in picked] for c in range(3)]
                    assert list(grown.observe_batch(*columns, rows=picked)) == list(
                        full.observe_batch(*columns, rows=picked)
                    )
            elif step[0] == "observe_all":
                columns = [[sample[c] for sample in step[1][:rows]] for c in range(3)]
                assert list(grown.observe_batch(*columns)) == list(
                    full.observe_batch(*columns, rows=list(range(rows)))
                )
            elif step[0] == "observe_row":
                _, row, sample = step
                row %= rows
                assert grown.observe_row(row, *sample) == full.observe_row(row, *sample)
            elif step[0] == "classify":
                _, row, app_class, critical = step
                row %= rows
                table = [1.2] * 4 if app_class is AppClass.SENSITIVE else None
                for bank in (grown, full):
                    bank.set_classification(
                        row, app_class, slowdown_table=table, critical_size=critical
                    )
            else:
                row = step[1] % rows
                grown.begin_sampling(row)
                full.begin_sampling(row)
            self._assert_grown_matches(grown, full)
        restored = MonitorBank.from_state(grown.state_dict())
        assert restored.state_dict() == grown.state_dict()
        for name in names[len(grown):]:
            grown.add_row(name)
            restored.add_row(name)
        assert grown.state_dict() == full.state_dict() == restored.state_dict()
        llc, stl, eff = [5.0] * _GROWN_ROWS, [0.3] * _GROWN_ROWS, [4.0] * _GROWN_ROWS
        expected = list(full.observe_batch(llc, stl, eff))
        assert list(grown.observe_batch(llc, stl, eff)) == expected
        assert list(restored.observe_batch(llc, stl, eff)) == expected


class TestMonitorBankEquivalence:
    """The fused bank must reproduce the scalar AppMonitor bit for bit."""

    @staticmethod
    def _assert_rows_match(bank, monitors):
        for name, monitor in monitors.items():
            view = bank.monitor(name)
            assert isinstance(view, BankMonitor)
            assert view.name == monitor.name
            assert view.app_class is monitor.app_class
            assert view.warmup_remaining == monitor.warmup_remaining
            assert view.warmed_up == monitor.warmed_up
            assert view.in_sampling_mode == monitor.in_sampling_mode
            assert view.samples_seen == monitor.samples_seen
            assert view.class_changes == monitor.class_changes
            assert view.sampling_mode_entries == monitor.sampling_mode_entries
            assert view.classification_version == monitor.classification_version
            assert view.slowdown_table == monitor.slowdown_table
            assert view.critical_size == monitor.critical_size
            # Window contents and means, bit for bit.
            row = bank.row_index(name)
            assert bank.window(row, 0) == monitor._history.window(0)
            assert bank.window(row, 1) == monitor._history.window(1)
            assert view.average_llcmpkc() == monitor.average_llcmpkc()
            assert view.average_stall_fraction() == monitor.average_stall_fraction()
            assert view.snapshot() == monitor.snapshot()

    @settings(max_examples=60, deadline=None)
    @given(_monitor_scripts())
    def test_observe_batch_bit_identical_to_scalar_observe(self, script):
        n_apps, config, steps = script
        names = [f"app{i}" for i in range(n_apps)]
        monitors = {name: AppMonitor(name, config) for name in names}
        bank = MonitorBank(names, config)
        for step in steps:
            if step[0] == "observe":
                _, samples, included = step
                rows = [i for i in range(n_apps) if included[i]]
                if not rows:
                    continue
                scalar = [
                    monitors[names[i]].observe(
                        metrics(llcmpkc=samples[i][0], stall=samples[i][1]),
                        samples[i][2],
                    )
                    for i in rows
                ]
                fused = bank.observe_batch(
                    [samples[i][0] for i in rows],
                    [samples[i][1] for i in rows],
                    [samples[i][2] for i in rows],
                    rows=rows,
                )
                assert list(fused) == scalar
            elif step[0] == "begin":
                _, i = step
                monitors[names[i]].begin_sampling()
                bank.monitor(names[i]).begin_sampling()
            elif step[0] == "restart":
                _, i = step
                monitors[names[i]].reset_for_restart()
                bank.monitor(names[i]).reset_for_restart()
            else:
                _, i, app_class, critical = step
                table = [1.2] * 4 if app_class is AppClass.SENSITIVE else None
                monitors[names[i]].set_classification(
                    app_class, slowdown_table=table, critical_size=critical
                )
                bank.monitor(names[i]).set_classification(
                    app_class, slowdown_table=table, critical_size=critical
                )
            self._assert_rows_match(bank, monitors)

    @settings(max_examples=25, deadline=None)
    @given(_monitor_scripts())
    def test_state_round_trip_preserves_bit_identical_behaviour(self, script):
        """state_dict → JSON → from_state is an exact restore: the restored
        bank's rows match the scalar reference and keep matching under
        further ingestion (the property daemon snapshot/restore rests on)."""
        import json as _json

        n_apps, config, steps = script
        names = [f"app{i}" for i in range(n_apps)]
        monitors = {name: AppMonitor(name, config) for name in names}
        bank = MonitorBank(names, config)
        for step in steps:
            if step[0] == "observe":
                _, samples, included = step
                rows = [i for i in range(n_apps) if included[i]]
                if not rows:
                    continue
                for i in rows:
                    monitors[names[i]].observe(
                        metrics(llcmpkc=samples[i][0], stall=samples[i][1]),
                        samples[i][2],
                    )
                bank.observe_batch(
                    [samples[i][0] for i in rows],
                    [samples[i][1] for i in rows],
                    [samples[i][2] for i in rows],
                    rows=rows,
                )
            elif step[0] == "begin":
                monitors[names[step[1]]].begin_sampling()
                bank.monitor(names[step[1]]).begin_sampling()
            elif step[0] == "restart":
                monitors[names[step[1]]].reset_for_restart()
                bank.monitor(names[step[1]]).reset_for_restart()
            else:
                _, i, app_class, critical = step
                table = [1.2] * 4 if app_class is AppClass.SENSITIVE else None
                monitors[names[i]].set_classification(
                    app_class, slowdown_table=table, critical_size=critical
                )
                bank.monitor(names[i]).set_classification(
                    app_class, slowdown_table=table, critical_size=critical
                )
        # Through actual JSON text, exactly as the snapshot file does it.
        restored = MonitorBank.from_state(
            _json.loads(_json.dumps(bank.state_dict(), sort_keys=True))
        )
        self._assert_rows_match(restored, monitors)
        # The restore is behavioural, not just structural: further fused
        # ingestion stays bit-identical to the scalar reference.
        for extra in range(3):
            llc = [1.0 + extra + i for i in range(n_apps)]
            stl = [0.1 * (extra + 1)] * n_apps
            eff = [4.0] * n_apps
            scalar = [
                monitors[name].observe(metrics(llcmpkc=llc[i], stall=stl[i]), eff[i])
                for i, name in enumerate(names)
            ]
            assert list(restored.observe_batch(llc, stl, eff)) == scalar
        self._assert_rows_match(restored, monitors)

    def test_add_row_grows_the_bank_without_disturbing_existing_rows(self):
        config = MonitorConfig(warmup_samples=1, history_window=3)
        bank = MonitorBank(["a"], config)
        reference = {"a": AppMonitor("a", config)}
        for i in range(4):
            reference["a"].observe(metrics(llcmpkc=5.0 + i, stall=0.3), 4.0)
            bank.observe_batch([5.0 + i], [0.3], [4.0])
        row = bank.add_row("b")
        assert row == 1 and len(bank) == 2
        reference["b"] = AppMonitor("b", config)
        self._assert_rows_match(bank, reference)
        # The grown bank ingests across old and new rows in one fused call.
        scalar = [
            reference["a"].observe(metrics(llcmpkc=12.0, stall=0.1), 6.0),
            reference["b"].observe(metrics(llcmpkc=0.5, stall=0.02), 6.0),
        ]
        assert list(bank.observe_batch([12.0, 0.5], [0.1, 0.02], [6.0, 6.0])) == scalar
        self._assert_rows_match(bank, reference)
        with pytest.raises(SimulationError):
            bank.add_row("a")  # duplicate names stay rejected after growth

    def test_from_state_rejects_malformed_state(self):
        bank = MonitorBank(["a", "b"])
        state = bank.state_dict()
        broken = dict(state)
        broken.pop("names")
        with pytest.raises(SimulationError, match="malformed monitor bank state"):
            MonitorBank.from_state(broken)
        truncated = dict(state)
        truncated["warmup_remaining"] = [0]  # row count mismatch
        with pytest.raises(SimulationError):
            MonitorBank.from_state(truncated)

    @pytest.mark.parametrize("field", _PER_ROW_STATE)
    def test_from_state_rejects_a_short_per_row_field(self, field):
        state = MonitorBank(["a", "b", "c"]).state_dict()
        state[field] = state[field][:1]
        with pytest.raises(SimulationError, match=f"monitor bank state {field} "):
            MonitorBank.from_state(state)

    @pytest.mark.parametrize("field", ["win_values", "win_partials"])
    def test_from_state_rejects_a_window_of_the_wrong_depth(self, field):
        state = MonitorBank(["a", "b"], MonitorConfig(history_window=3)).state_dict()
        state[field] = [rows[:2] for rows in state[field]]
        with pytest.raises(SimulationError, match=f"monitor bank state {field} "):
            MonitorBank.from_state(state)

    def test_warmup_boundary_and_sampling_reset_and_short_window(self):
        # The three named edge cases, deterministically: a sample batch that
        # straddles the warm-up boundary, a sampling-mode reset that clears
        # the window mid-run, and decisions taken while the history is still
        # shorter than the window.
        config = MonitorConfig(warmup_samples=2, history_window=5)
        names = ["a", "b"]
        monitors = {name: AppMonitor(name, config) for name in names}
        bank = MonitorBank(names, config)
        monitors["b"].set_classification(AppClass.LIGHT)
        bank.monitor("b").set_classification(AppClass.LIGHT)
        for sample_index in range(8):
            llc = [0.5 + sample_index, 30.0]
            stl = [0.01 * sample_index, 0.6]
            eff = [4.0, 4.0]
            scalar = [
                monitors[name].observe(metrics(llcmpkc=llc[i], stall=stl[i]), eff[i])
                for i, name in enumerate(names)
            ]
            assert list(bank.observe_batch(llc, stl, eff)) == scalar
            if sample_index == 5:  # reset mid-run: window restarts from empty
                monitors["a"].begin_sampling()
                bank.monitor("a").begin_sampling()
        self._assert_rows_match(bank, monitors)

    def test_bank_rejects_bad_inputs(self):
        bank = MonitorBank(["a", "b"])
        with pytest.raises(SimulationError):
            bank.observe_batch([1.0], [0.1], [2.0, 3.0], rows=[0])
        with pytest.raises(SimulationError):
            bank.row_index("nope")
        with pytest.raises(SimulationError):
            MonitorBank([])
        with pytest.raises(SimulationError):
            MonitorBank(["a", "a"])


class TestSamplingSession:
    def test_sampling_partition_grows_upwards(self):
        session = SamplingSession("a", ["b", "c"], 11)
        assert session.current_ways == 1
        allocation = session.current_allocation()
        assert allocation.mask_of("a") == 0b1
        assert allocation.mask_of("b") == allocation.mask_of("c")
        session.record_step(metrics(ipc=0.6, llcmpkc=20.0))
        assert session.current_ways == 2

    def test_early_stop_on_low_miss_rate(self):
        session = SamplingSession("a", ["b"], 11)
        session.record_step(metrics(ipc=1.0, llcmpkc=0.5))
        assert session.finished
        outcome = session.outcome()
        assert outcome.app_class in (AppClass.LIGHT, AppClass.SENSITIVE)
        assert outcome.ways_visited == (1,)

    def test_streaming_detected_with_few_steps(self):
        session = SamplingSession("a", ["b"], 11)
        session.record_step(metrics(ipc=0.5, llcmpkc=30.0))
        session.record_step(metrics(ipc=0.502, llcmpkc=30.0))
        assert session.finished
        assert session.outcome().app_class is AppClass.STREAMING
        assert len(session.outcome().ways_visited) == 2

    def test_sensitive_full_sweep_builds_slowdown_table(self):
        session = SamplingSession("a", ["b"], 11)
        way = 1
        while not session.finished:
            ipc = 1.0 - 0.5 / way  # keeps improving: sensitive shape
            session.record_step(metrics(ipc=ipc, llcmpkc=25.0 / way))
            way += 1
        outcome = session.outcome()
        assert outcome.app_class is AppClass.SENSITIVE
        table = outcome.slowdown_table
        assert len(table) == 11
        assert table[0] > table[-1]
        assert outcome.critical_size >= 1

    def test_cannot_record_after_finish(self):
        session = SamplingSession("a", ["b"], 11)
        session.record_step(metrics(llcmpkc=0.1))
        with pytest.raises(SimulationError):
            session.record_step(metrics())

    def test_outcome_requires_finished_sweep(self):
        session = SamplingSession("a", ["b"], 11)
        with pytest.raises(SimulationError):
            session.outcome()

    def test_needs_at_least_two_ways(self):
        with pytest.raises(SimulationError):
            SamplingSession("a", ["b"], 1)

    def test_invalid_config_rejected(self):
        with pytest.raises(SimulationError):
            SamplingConfig(instructions_per_step=0)
        with pytest.raises(SimulationError):
            SamplingConfig(flat_ipc_gain=2.0)
