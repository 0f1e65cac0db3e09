"""Tests for the fairness/throughput metrics and aggregation helpers."""

import numpy as np
import pytest

from repro.errors import ReproError
from oracles import RollingMeanWindow
from repro.metrics import (
    antt,
    short_mean,
    average_percent_reduction,
    compute_metrics,
    geometric_mean,
    jain_index,
    normalise,
    normalised_series,
    percent_reduction,
    slowdown_from_ipc,
    slowdown_from_times,
    stp,
    unfairness,
)
from repro.metrics.aggregate import RollingMeanRing


class TestSlowdown:
    def test_from_ipc(self):
        assert slowdown_from_ipc(2.0, 1.0) == pytest.approx(2.0)

    def test_from_times(self):
        assert slowdown_from_times(30.0, 20.0) == pytest.approx(1.5)

    def test_rejects_non_positive(self):
        with pytest.raises(ReproError):
            slowdown_from_ipc(0.0, 1.0)
        with pytest.raises(ReproError):
            slowdown_from_times(1.0, 0.0)


class TestUnfairnessAndStp:
    def test_unfairness_is_max_over_min(self):
        assert unfairness([1.0, 1.5, 3.0]) == pytest.approx(3.0)

    def test_perfectly_fair_workload(self):
        assert unfairness([1.3, 1.3, 1.3]) == pytest.approx(1.0)

    def test_stp_is_sum_of_reciprocal_slowdowns(self):
        assert stp([1.0, 2.0, 4.0]) == pytest.approx(1.0 + 0.5 + 0.25)

    def test_stp_equals_n_without_slowdown(self):
        assert stp([1.0] * 8) == pytest.approx(8.0)

    def test_antt_is_mean_slowdown(self):
        assert antt([1.0, 2.0]) == pytest.approx(1.5)

    def test_jain_index_bounds(self):
        assert jain_index([1.0, 1.0, 1.0]) == pytest.approx(1.0)
        skewed = jain_index([1.0, 10.0, 10.0, 10.0])
        assert 0.0 < skewed < 1.0

    def test_empty_input_rejected(self):
        with pytest.raises(ReproError):
            unfairness([])

    def test_negative_slowdowns_rejected(self):
        with pytest.raises(ReproError):
            stp([1.0, -2.0])

    def test_compute_metrics_bundle(self):
        metrics = compute_metrics({"a": 1.0, "b": 2.0})
        assert metrics.unfairness == pytest.approx(2.0)
        assert metrics.stp == pytest.approx(1.5)
        assert metrics.worst_app() == "b"
        assert metrics.n_apps == 2
        assert set(metrics.as_dict()) >= {"unfairness", "stp", "antt", "jain"}

    def test_compute_metrics_empty_rejected(self):
        with pytest.raises(ReproError):
            compute_metrics({})


class TestFairnessEdgeCases:
    """Degenerate mixes the tournament judge leans on: single-app scenarios
    and perfectly tied line-ups must produce exact, not approximate, values."""

    def test_single_app_mix_is_exactly_fair(self):
        # One app competes with nobody: max/min collapses to exactly 1.0
        # regardless of its absolute slowdown.
        for slowdown in (1.0, 1.7, 42.0):
            assert unfairness([slowdown]) == 1.0
            assert jain_index([slowdown]) == pytest.approx(1.0)

    def test_single_app_compute_metrics(self):
        metrics = compute_metrics({"solo": 2.5})
        assert metrics.unfairness == 1.0
        assert metrics.stp == pytest.approx(1.0 / 2.5)
        assert metrics.antt == pytest.approx(2.5)
        assert metrics.worst_app() == "solo"
        assert metrics.n_apps == 1

    def test_identical_slowdowns_tie_exactly(self):
        # Two policies producing identical per-app slowdowns must yield
        # bit-equal metrics — this is what makes a tournament "tie" exact
        # rather than an epsilon accident.
        mix_a = {"x": 1.4, "y": 1.4, "z": 1.4}
        mix_b = {"z": 1.4, "x": 1.4, "y": 1.4}  # ordering must not matter
        a = compute_metrics(mix_a)
        b = compute_metrics(mix_b)
        assert a.unfairness == b.unfairness == 1.0
        assert a.stp == b.stp
        assert a.antt == b.antt
        assert a.jain == b.jain == pytest.approx(1.0)

    def test_near_tie_is_not_a_tie(self):
        # An epsilon-sized imbalance must register as unfairness > 1, never
        # be rounded away.
        assert unfairness([1.0, 1.0 + 1e-9]) > 1.0

    def test_extreme_skew_stays_finite(self):
        values = [1.0, 1e6]
        assert unfairness(values) == pytest.approx(1e6)
        assert 0.0 < jain_index(values) < 1.0
        assert stp(values) == pytest.approx(1.0 + 1e-6)


class TestAggregation:
    def test_geometric_mean(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)
        assert geometric_mean([3.0]) == pytest.approx(3.0)

    def test_geometric_mean_rejects_non_positive(self):
        with pytest.raises(ReproError):
            geometric_mean([1.0, 0.0])
        with pytest.raises(ReproError):
            geometric_mean([])

    def test_normalise(self):
        assert normalise(0.8, 1.0) == pytest.approx(0.8)
        with pytest.raises(ReproError):
            normalise(1.0, 0.0)

    def test_percent_reduction(self):
        assert percent_reduction(0.8, 1.0) == pytest.approx(20.0)
        assert percent_reduction(1.2, 1.0) == pytest.approx(-20.0)

    def test_average_percent_reduction(self):
        values = {"w1": 0.9, "w2": 0.7}
        baselines = {"w1": 1.0, "w2": 1.0}
        assert average_percent_reduction(values, baselines) == pytest.approx(20.0)

    def test_average_requires_matching_keys(self):
        with pytest.raises(ReproError):
            average_percent_reduction({"a": 1.0}, {"b": 1.0})

    def test_normalised_series(self):
        values = {"w1": 2.0, "w2": 3.0}
        baselines = {"w1": 4.0, "w2": 6.0}
        assert normalised_series(values, baselines) == {
            "w1": pytest.approx(0.5),
            "w2": pytest.approx(0.5),
        }


class TestRollingMeanWindow:
    """The monitors' O(1)-read rolling mean must be bit-identical to np.mean."""

    def test_bit_identical_to_np_mean_across_window_sizes(self):
        rng = np.random.default_rng(42)
        for maxlen in range(1, 11):
            window = RollingMeanWindow(maxlen)
            history = []
            for value in rng.uniform(0.0, 500.0, size=64):
                window.append(value)
                history.append(float(value))
                tail = history[-maxlen:]
                assert window.mean() == float(np.mean(tail)), (maxlen, len(history))

    def test_matches_short_mean_exactly(self):
        rng = np.random.default_rng(7)
        window = RollingMeanWindow(5)
        history = []
        for value in rng.normal(100.0, 30.0, size=40):
            window.append(value)
            history.append(float(value))
            assert window.mean() == short_mean(history[-5:])

    def test_clear_restarts_the_window(self):
        window = RollingMeanWindow(3)
        for value in (1.0, 2.0, 3.0, 4.0):
            window.append(value)
        window.clear()
        assert len(window) == 0
        window.append(10.0)
        assert window.mean() == 10.0
        assert not window.full

    def test_len_iter_and_full(self):
        window = RollingMeanWindow(2)
        window.append(1.0)
        assert len(window) == 1 and not window.full
        window.append(2.0)
        window.append(3.0)
        assert len(window) == 2 and window.full
        assert list(window) == [2.0, 3.0]

    def test_negative_zero_matches_reduction_seed(self):
        window = RollingMeanWindow(4)
        window.append(-0.0)
        assert window.mean() == float(np.mean([-0.0]))

    def test_rejects_empty_reads_and_bad_lengths(self):
        with pytest.raises(ReproError):
            RollingMeanWindow(0)
        with pytest.raises(ReproError):
            RollingMeanWindow(5).mean()

    def test_large_windows_fall_back_to_short_mean(self):
        rng = np.random.default_rng(3)
        window = RollingMeanWindow(12)
        history = []
        for value in rng.uniform(0.0, 50.0, size=30):
            window.append(value)
            history.append(float(value))
            assert window.mean() == float(np.mean(history[-12:]))

    def test_ring_columns_match_the_window_oracle(self):
        rng = np.random.default_rng(11)
        for maxlen in (1, 3, 7, 8, 12):
            ring = RollingMeanRing(maxlen, 2)
            windows = [RollingMeanWindow(maxlen), RollingMeanWindow(maxlen)]
            for row in rng.uniform(-5.0, 500.0, size=(40, 2)):
                ring.append(row)
                for column, window in enumerate(windows):
                    window.append(row[column])
                    assert ring.mean(column) == window.mean(), (maxlen, column)
                assert list(ring.means()) == [w.mean() for w in windows]
