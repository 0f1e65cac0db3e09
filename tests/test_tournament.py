"""Tests for the policy tournament harness: grid generation, paired
statistics, leaderboard verdicts, regression gates and the CLI."""

import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.errors import ReproError, SpecError
from repro.experiments import ScenarioSpec
from repro.experiments.study import BASELINE_LABEL
from repro.tournament import (
    PRIMARY_METRIC,
    SECONDARY_METRIC,
    StatsSpec,
    SuiteSpec,
    TournamentResult,
    TournamentSpec,
    baseline_from_result,
    bootstrap_mean_ci,
    build_result,
    check_regression,
    compare_paired,
    dump_tournament_spec,
    judge_study,
    load_baseline,
    load_tournament_spec,
    nerf_rows,
    rejudge,
    run_tournament,
    sign_test_p,
    stat_seed,
    write_baseline,
)

SETTINGS = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


# -- stats ----------------------------------------------------------------------


class TestStatSeed:
    def test_deterministic_and_order_sensitive(self):
        assert stat_seed(7, "lfoc", "unfairness") == stat_seed(7, "lfoc", "unfairness")
        assert stat_seed(7, "lfoc", "unfairness") != stat_seed(7, "unfairness", "lfoc")
        assert stat_seed(7, "lfoc") != stat_seed(8, "lfoc")

    def test_distinct_streams_per_statistic(self):
        seeds = {
            stat_seed(0, label, metric)
            for label in ("LFOC", "Dunn", "Best-Static")
            for metric in (PRIMARY_METRIC, SECONDARY_METRIC)
        }
        assert len(seeds) == 6


class TestBootstrapCI:
    def test_single_value_collapses_to_point(self):
        ci = bootstrap_mean_ci([2.5], seed=1)
        assert ci.mean == ci.lo == ci.hi == 2.5
        assert ci.width == 0.0

    def test_deterministic_across_calls(self):
        values = [1.0, 1.2, 0.9, 1.5, 1.1]
        a = bootstrap_mean_ci(values, resamples=200, seed=42)
        b = bootstrap_mean_ci(values, resamples=200, seed=42)
        assert (a.mean, a.lo, a.hi) == (b.mean, b.lo, b.hi)

    def test_seed_changes_the_interval(self):
        values = [1.0, 1.2, 0.9, 1.5, 1.1]
        a = bootstrap_mean_ci(values, resamples=200, seed=1)
        b = bootstrap_mean_ci(values, resamples=200, seed=2)
        assert (a.lo, a.hi) != (b.lo, b.hi)  # same mean, different resamples
        assert a.mean == b.mean

    def test_rejects_bad_inputs(self):
        with pytest.raises(ReproError):
            bootstrap_mean_ci([])
        with pytest.raises(ReproError):
            bootstrap_mean_ci([1.0, float("nan")])
        with pytest.raises(ReproError):
            bootstrap_mean_ci([1.0, 2.0], resamples=0)
        with pytest.raises(ReproError):
            bootstrap_mean_ci([1.0, 2.0], confidence=1.0)

    @SETTINGS
    @given(
        values=st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            min_size=1,
            max_size=30,
        ),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_interval_brackets_and_stays_in_hull(self, values, seed):
        ci = bootstrap_mean_ci(values, resamples=100, seed=seed)
        assert ci.lo <= ci.hi
        # Bootstrap means are convex combinations of the sample.
        assert ci.lo >= min(values) - 1e-9 * max(1.0, abs(min(values)))
        assert ci.hi <= max(values) + 1e-9 * max(1.0, abs(max(values)))
        assert ci.mean == pytest.approx(float(np.mean(values)))

    def test_coverage_on_known_distribution(self):
        # ~95% of seeded bootstrap CIs over N(0,1) samples must contain the
        # true mean 0.  Percentile bootstrap under-covers slightly at n=25,
        # so accept a generous band — the point is catching gross breakage
        # (e.g. quantiles on the wrong axis), not certifying exact coverage.
        rng = np.random.default_rng(20190805)
        trials, hits = 150, 0
        for trial in range(trials):
            sample = rng.normal(0.0, 1.0, size=25)
            ci = bootstrap_mean_ci(sample, resamples=400, confidence=0.95, seed=trial)
            if ci.lo <= 0.0 <= ci.hi:
                hits += 1
        assert 0.85 <= hits / trials <= 1.0

    def test_narrower_at_lower_confidence(self):
        values = list(np.random.default_rng(3).normal(0, 1, size=40))
        wide = bootstrap_mean_ci(values, resamples=500, confidence=0.99, seed=9)
        narrow = bootstrap_mean_ci(values, resamples=500, confidence=0.5, seed=9)
        assert narrow.width < wide.width


class TestSignTest:
    def test_no_information_is_p_one(self):
        assert sign_test_p(0, 0) == 1.0

    def test_exact_binomial_tails(self):
        # 5-0: 2 * C(5,0)/2^5 = 1/16.
        assert sign_test_p(5, 0) == pytest.approx(2 * 1 / 32)
        # 4-1: 2 * (C(5,0)+C(5,1))/2^5 = 12/32.
        assert sign_test_p(4, 1) == pytest.approx(12 / 32)
        # 8-2: 2 * (C(10,0)+C(10,1)+C(10,2))/2^10.
        expected = 2 * (1 + 10 + 45) / 2**10
        assert sign_test_p(8, 2) == pytest.approx(expected)

    def test_symmetric_and_clamped(self):
        assert sign_test_p(3, 7) == sign_test_p(7, 3)
        assert sign_test_p(1, 1) == 1.0  # raw two-sided tail exceeds 1

    def test_rejects_negative_counts(self):
        with pytest.raises(ReproError):
            sign_test_p(-1, 0)

    @SETTINGS
    @given(
        wins=st.integers(min_value=0, max_value=40),
        losses=st.integers(min_value=0, max_value=40),
    )
    def test_is_a_probability_and_symmetric(self, wins, losses):
        p = sign_test_p(wins, losses)
        assert 0.0 < p <= 1.0
        assert p == sign_test_p(losses, wins)
        # More lopsided records are never less significant.
        if wins > losses:
            assert sign_test_p(wins + 1, losses) <= p


class TestComparePaired:
    def test_counts_wins_losses_ties(self):
        a = [1.0, 2.0, 3.0, 5.0]
        b = [2.0, 2.0, 2.0, 2.0]
        cmp = compare_paired("A", "B", a, b, metric="m", better="lower", seed=1)
        assert (cmp.wins, cmp.losses, cmp.ties) == (1, 2, 1)
        assert cmp.n == 4
        assert cmp.delta.mean == pytest.approx(np.mean(np.array(a) - np.array(b)))
        assert cmp.p_value == sign_test_p(1, 2)

    def test_better_higher_flips_direction(self):
        cmp = compare_paired(
            "A", "B", [2.0, 3.0], [1.0, 1.0], metric="m", better="higher", seed=1
        )
        assert (cmp.wins, cmp.losses, cmp.ties) == (2, 0, 0)

    def test_tie_epsilon_is_respected(self):
        cmp = compare_paired(
            "A", "B", [1.0], [1.0 + 1e-13], metric="m", seed=1
        )
        assert cmp.ties == 1
        cmp = compare_paired(
            "A", "B", [1.0], [1.0 + 1e-13], metric="m", seed=1, tie_epsilon=0.0
        )
        assert cmp.ties == 0 and cmp.wins == 1

    def test_rejects_mismatched_or_empty(self):
        with pytest.raises(ReproError):
            compare_paired("A", "B", [1.0], [1.0, 2.0], metric="m")
        with pytest.raises(ReproError):
            compare_paired("A", "B", [], [], metric="m")
        with pytest.raises(ReproError):
            compare_paired("A", "B", [1.0], [1.0], metric="m", better="sideways")


# -- grid -----------------------------------------------------------------------


class TestSuiteSpec:
    def test_validation(self):
        with pytest.raises(SpecError):
            SuiteSpec(size=1)
        with pytest.raises(SpecError):
            SuiteSpec(size=4, kind="X")
        with pytest.raises(SpecError):
            SuiteSpec(size=4, count=0)

    def test_axis_label_defaults_and_overrides(self):
        assert SuiteSpec(size=6).axis_label == "S6"
        assert SuiteSpec(size=6, kind="P").axis_label == "P6"
        assert SuiteSpec(size=6, label="mix").axis_label == "mix"

    def test_workload_specs_draws_are_distinct(self):
        suite = SuiteSpec(size=4, count=3, seed=100)
        specs = suite.workload_specs()
        assert [s.name for s in specs] == ["S4w0", "S4w1", "S4w2"]
        seeds = [s.seed for s in specs]
        assert len(set(seeds)) == 3 and seeds[0] == 100

    def test_round_trip(self):
        suite = SuiteSpec(size=8, kind="P", count=2, seed=5, label="heavy")
        assert SuiteSpec.from_dict(suite.to_dict()) == suite
        with pytest.raises(SpecError):
            SuiteSpec.from_dict({"size": 4, "bogus": 1})


class TestStatsSpec:
    def test_validation(self):
        with pytest.raises(SpecError):
            StatsSpec(resamples=0)
        with pytest.raises(SpecError):
            StatsSpec(confidence=1.5)
        with pytest.raises(SpecError):
            StatsSpec(tie_epsilon=-1.0)

    def test_round_trip_omits_defaults(self):
        assert StatsSpec().to_dict() == {}
        stats = StatsSpec(resamples=200, seed=9)
        assert StatsSpec.from_dict(stats.to_dict()) == stats


class TestTournamentSpec:
    def _spec(self, **overrides):
        defaults = dict(
            name="t",
            policies=("lfoc", "dunn"),
            suites=(SuiteSpec(size=4),),
            seeds=2,
        )
        defaults.update(overrides)
        return TournamentSpec(**defaults)

    def test_needs_two_policies(self):
        with pytest.raises(SpecError, match="at least two"):
            self._spec(policies=("lfoc",))

    def test_rejects_a_negative_first_seed(self):
        with pytest.raises(SpecError, match="TournamentSpec.seed0 must be >= 0"):
            self._spec(seed0=-1)

    def test_rejects_duplicate_suite_labels(self):
        with pytest.raises(SpecError, match="unique"):
            self._spec(suites=(SuiteSpec(size=4), SuiteSpec(size=4)))

    def test_rejects_bad_kind_and_seeds(self):
        with pytest.raises(SpecError):
            self._spec(kind="both")
        with pytest.raises(SpecError):
            self._spec(seeds=0)

    def test_grid_cells_and_scenario_count(self):
        spec = self._spec(
            suites=(SuiteSpec(size=4), SuiteSpec(size=6)),
            platforms=("skylake_gold_6138", {"preset": "skylake_gold_6138", "llc_ways": 20, "label": "w20"}),
            seeds=3,
        )
        cells = spec.grid_cells()
        assert [name for name, *_ in cells] == [
            "S4@skylake_gold_6138", "S4@w20", "S6@skylake_gold_6138", "S6@w20",
        ]
        assert spec.n_scenarios() == 2 * 2 * 3
        # Single platform keeps the short scenario name.
        assert [name for name, *_ in self._spec().grid_cells()] == ["S4"]

    def test_rejects_duplicate_platform_labels(self):
        spec = self._spec(
            platforms=("skylake_gold_6138", {"preset": "skylake_gold_6138"})
        )
        with pytest.raises(SpecError, match="unique"):
            spec.grid_cells()

    def test_pairing_is_structural(self):
        # Every scenario replica carries the full policy line-up over the
        # same workload draws: that IS the paired-seed guarantee.
        spec = self._spec(seeds=3, seed0=10)
        study = spec.to_study_spec()
        assert len(study.scenarios) == 1
        scenario = study.scenarios[0]
        assert isinstance(scenario, ScenarioSpec)
        assert scenario.seeds == (10, 11, 12)
        assert [p.name for p in scenario.policies] == ["lfoc", "dunn"]
        assert len(scenario.workloads) == 1  # one draw shared by all policies

    def test_dict_round_trip(self):
        spec = self._spec(
            seeds=4,
            seed0=7,
            stats=StatsSpec(resamples=100),
            reference="Dunn",
            description="round trip",
        )
        clone = TournamentSpec.from_dict(spec.to_dict())
        assert clone.to_dict() == spec.to_dict()
        assert clone.stats == spec.stats
        assert clone.reference == "Dunn"

    def test_from_dict_rejects_unknown_keys_and_schema(self):
        data = self._spec().to_dict()
        with pytest.raises(SpecError, match="unknown"):
            TournamentSpec.from_dict({**data, "bogus": 1})
        with pytest.raises(SpecError, match="schema"):
            TournamentSpec.from_dict({**data, "schema": 99})

    def test_solver_table_rejects_removed_backend_key(self, tmp_path):
        data = self._spec().to_dict()
        data["solver"] = {"backend": "tabulated", "exact_limit": 5}
        with pytest.raises(SpecError, match="SolverSpec.backend was removed"):
            TournamentSpec.from_dict(data)
        path = tmp_path / "spec.toml"
        dump_tournament_spec(self._spec(), path)
        path.write_text(path.read_text() + '\n[solver]\nbackend = "reference"\n')
        with pytest.raises(SpecError, match="SolverSpec.backend was removed"):
            load_tournament_spec(path)

    def test_from_dict_rejects_unknown_policy_eagerly(self):
        data = self._spec().to_dict()
        data["policies"] = [{"name": "no_such_policy"}]
        with pytest.raises(SpecError):
            TournamentSpec.from_dict(data)

    @pytest.mark.parametrize("suffix", [".toml", ".json"])
    def test_file_round_trip(self, tmp_path, suffix):
        spec = self._spec(stats=StatsSpec(resamples=150, seed=3))
        path = tmp_path / f"spec{suffix}"
        dump_tournament_spec(spec, path)
        assert load_tournament_spec(path).to_dict() == spec.to_dict()

    def test_rejects_unknown_extension(self, tmp_path):
        with pytest.raises(SpecError, match=".toml or .json"):
            dump_tournament_spec(self._spec(), tmp_path / "spec.yaml")
        bad = tmp_path / "spec.yaml"
        bad.write_text("name: nope\n")
        with pytest.raises(SpecError, match=".toml or .json"):
            load_tournament_spec(bad)
        with pytest.raises(SpecError, match="cannot read"):
            load_tournament_spec(tmp_path / "missing.toml")


# -- leaderboard ----------------------------------------------------------------


def _synthetic_rows(table, kind="static"):
    """Rows for ``{policy: {unit: (unfairness, stp)}}`` synthetic verdicts."""
    rows = []
    for policy, units in table.items():
        for (scenario_id, workload), (unf, stp_value) in units.items():
            rows.append(
                {
                    "scenario_id": scenario_id,
                    "workload": workload,
                    "policy": policy,
                    "seed": 0,
                    "normalized_unfairness": unf,
                    "normalized_stp": stp_value,
                }
            )
    return rows


_UNITS = [("g#s0", "w0"), ("g#s1", "w0"), ("h#s0", "w0"), ("h#s1", "w0")]


def _three_policy_rows():
    return _synthetic_rows(
        {
            "LFOC": dict(zip(_UNITS, [(0.80, 1.05), (0.82, 1.04), (0.78, 1.06), (0.81, 1.05)])),
            "Dunn": dict(zip(_UNITS, [(0.95, 1.01), (0.97, 1.00), (0.94, 1.02), (0.96, 1.01)])),
            BASELINE_LABEL: dict(zip(_UNITS, [(1.0, 1.0)] * 4)),
        }
    )


class TestBuildResult:
    def test_ranks_and_reference_defaults(self):
        result = build_result("demo", _three_policy_rows(), stats=StatsSpec(resamples=100))
        assert result.reference == "LFOC"  # first non-baseline label
        assert result.policies() == ["LFOC", "Dunn", BASELINE_LABEL]
        assert [s.rank for s in result.standings] == [1, 2, 3]
        assert result.standings[0].policy == "LFOC"
        assert result.n_units == result.n_complete_units == 4
        # The reference's own row carries no vs-ref record.
        ref = result.standing("LFOC")
        assert ref.wins is None and ref.p_value is None
        dunn = result.standing("Dunn")
        assert (dunn.wins, dunn.losses, dunn.ties) == (0, 4, 0)
        assert dunn.p_value == pytest.approx(sign_test_p(0, 4))
        # Full pairwise head-to-head: C(3, 2) records.
        assert len(result.head_to_head) == 3

    def test_explicit_reference_and_unknown_reference(self):
        result = build_result(
            "demo", _three_policy_rows(), stats=StatsSpec(resamples=50),
            reference="Dunn",
        )
        assert result.standing("LFOC").wins == 4
        with pytest.raises(SpecError, match="reference"):
            build_result("demo", _three_policy_rows(), reference="nope")

    def test_incomplete_units_are_excluded(self):
        rows = _three_policy_rows()
        # Drop Dunn's row on one unit: that unit must leave the statistics.
        rows = [
            r for r in rows
            if not (r["policy"] == "Dunn" and r["scenario_id"] == "h#s1")
        ]
        failures = [{"label": "Dunn", "scenario_id": "h#s1"}]
        result = build_result(
            "demo", rows, failures, stats=StatsSpec(resamples=50)
        )
        assert result.n_units == 4
        assert result.n_complete_units == 3
        assert all(s.n == 3 for s in result.standings)
        assert result.failures == failures
        assert "Degraded" in result.render_markdown()

    def test_no_complete_unit_raises(self):
        rows = [r for r in _three_policy_rows() if r["policy"] != "Dunn"]
        rows += _synthetic_rows({"Dunn": {("x#s0", "w9"): (0.9, 1.0)}})
        with pytest.raises(SpecError, match="no unit"):
            build_result("demo", rows)

    def test_duplicate_and_malformed_rows_raise(self):
        rows = _three_policy_rows()
        with pytest.raises(SpecError, match="duplicate"):
            build_result("demo", rows + [rows[0]])
        with pytest.raises(SpecError, match="missing field"):
            build_result("demo", [{"policy": "LFOC"}])
        with pytest.raises(SpecError, match="no rows"):
            build_result("demo", [])
        broken = _three_policy_rows()
        del broken[0]["normalized_stp"]
        with pytest.raises(SpecError, match="usable"):
            build_result("demo", broken)

    def test_verdict_is_deterministic(self):
        a = build_result("demo", _three_policy_rows(), stats=StatsSpec(resamples=100))
        b = build_result("demo", _three_policy_rows(), stats=StatsSpec(resamples=100))
        assert [s.as_dict() for s in a.standings] == [s.as_dict() for s in b.standings]
        assert a.head_to_head == b.head_to_head

    def test_markdown_rendering(self):
        result = build_result("demo", _three_policy_rows(), stats=StatsSpec(resamples=50))
        text = result.render_markdown()
        assert "# Tournament `demo`" in text
        assert "| 1 | LFOC " in text
        assert "Head-to-head" in text
        assert "Degraded" not in text

    def test_report_dict_shape(self):
        result = build_result("demo", _three_policy_rows(), stats=StatsSpec(resamples=50))
        report = result.to_report_dict()
        assert report["reference"] == "LFOC"
        assert len(report["standings"]) == 3
        assert {h["metric"] for h in report["head_to_head"]} == {PRIMARY_METRIC}
        json.dumps(report)  # must be JSON-ready as-is


class TestResultPersistence:
    def test_save_load_round_trip(self, tmp_path):
        result = build_result(
            "demo", _three_policy_rows(), [{"label": "x", "scenario_id": "y"}],
            stats=StatsSpec(resamples=50), description="round trip",
        )
        path = tmp_path / "verdict.jsonl"
        result.save(path)
        clone = TournamentResult.load(path)
        assert clone.name == result.name
        assert clone.stats == result.stats
        assert clone.reference == result.reference
        assert [s.as_dict() for s in clone.standings] == [
            s.as_dict() for s in result.standings
        ]
        assert clone.head_to_head == result.head_to_head
        assert clone.rows == result.rows
        assert clone.failures == result.failures
        assert (clone.n_units, clone.n_complete_units) == (4, 4)
        assert clone.description == "round trip"

    def test_corrupted_row_crc_is_detected(self, tmp_path):
        result = build_result("demo", _three_policy_rows(), stats=StatsSpec(resamples=50))
        path = tmp_path / "verdict.jsonl"
        result.save(path)
        lines = path.read_text().splitlines()
        index = next(i for i, l in enumerate(lines) if '"record": "row"' in l)
        lines[index] = lines[index].replace("0.8,", "0.9,", 1)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SpecError, match="CRC"):
            TournamentResult.load(path)

    def test_load_rejects_headerless_and_unknown_records(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"record": "standing", "policy": "x"}\n')
        with pytest.raises(SpecError, match="header"):
            TournamentResult.load(path)
        path.write_text("")
        with pytest.raises(SpecError, match="header"):
            TournamentResult.load(path)
        path.write_text('{"record": "tournament", "name": "t"}\n{"record": "wat"}\n')
        with pytest.raises(SpecError, match="unknown record"):
            TournamentResult.load(path)


# -- gates ----------------------------------------------------------------------


class TestGates:
    def _result(self):
        return build_result(
            "gated", _three_policy_rows(), stats=StatsSpec(resamples=100)
        )

    def test_baseline_round_trip(self, tmp_path):
        result = self._result()
        baseline = baseline_from_result(result)
        assert set(baseline["policies"]) == {"LFOC", "Dunn", BASELINE_LABEL}
        path = tmp_path / "baseline.json"
        write_baseline(result, path)
        assert load_baseline(path) == baseline

    def test_load_baseline_rejects_garbage(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text("not json")
        with pytest.raises(SpecError, match="JSON"):
            load_baseline(path)
        path.write_text('{"record": "something_else"}')
        with pytest.raises(SpecError, match="not a tournament baseline"):
            load_baseline(path)
        path.write_text('{"record": "tournament_baseline", "policies": {}}')
        with pytest.raises(SpecError, match="pins no policies"):
            load_baseline(path)
        path.write_text(
            '{"record": "tournament_baseline", "policies": {"LFOC": {"n": 4}}}'
        )
        with pytest.raises(SpecError, match="missing"):
            load_baseline(path)

    def test_identical_result_passes(self):
        result = self._result()
        assert check_regression(result, baseline_from_result(result)) == []

    def test_nerf_trips_the_gate(self):
        result = self._result()
        baseline = baseline_from_result(result)
        nerfed = rejudge(result, nerf_rows(result.rows, "LFOC", 1.5))
        violations = check_regression(nerfed, baseline)
        checks = {(v["policy"], v["check"]) for v in violations}
        assert ("LFOC", "unfairness") in checks
        assert ("LFOC", "stp") in checks
        # Only the nerfed policy violates.
        assert {v["policy"] for v in violations} == {"LFOC"}

    def test_margin_absorbs_the_nerf(self):
        result = self._result()
        baseline = baseline_from_result(result)
        nerfed = rejudge(result, nerf_rows(result.rows, "LFOC", 1.5))
        assert check_regression(nerfed, baseline, margin=10.0) == []
        with pytest.raises(SpecError, match="margin"):
            check_regression(nerfed, baseline, margin=-0.1)

    def test_missing_policy_violates(self):
        result = self._result()
        baseline = baseline_from_result(result)
        shrunk = rejudge(
            result, [r for r in result.rows if r["policy"] != "Dunn"]
        )
        violations = check_regression(shrunk, baseline)
        assert any(
            v["policy"] == "Dunn" and v["check"] == "present" for v in violations
        )

    def test_improvement_never_violates(self):
        result = self._result()
        improved_rows = []
        for row in result.rows:
            row = dict(row)
            if row["policy"] == "LFOC":
                row["normalized_unfairness"] *= 0.5
                row["normalized_stp"] *= 1.5
            improved_rows.append(row)
        improved = rejudge(result, improved_rows)
        assert check_regression(improved, baseline_from_result(result)) == []

    def test_nerf_rows_validation(self):
        result = self._result()
        with pytest.raises(SpecError, match="factor"):
            nerf_rows(result.rows, "LFOC", 1.0)
        with pytest.raises(SpecError, match="no rows"):
            nerf_rows(result.rows, "NoSuchPolicy", 2.0)

    def test_rejudge_reproduces_the_verdict(self):
        result = self._result()
        again = rejudge(result)
        assert [s.as_dict() for s in again.standings] == [
            s.as_dict() for s in result.standings
        ]
        assert again.reference == result.reference


# -- runner (end to end, tiny grids) --------------------------------------------


def _tiny_spec(**overrides):
    defaults = dict(
        name="tiny",
        policies=("lfoc", "best_static"),
        suites=(SuiteSpec(size=4, seed=3),),
        seeds=2,
        stats=StatsSpec(resamples=50, seed=11),
    )
    defaults.update(overrides)
    return TournamentSpec(**defaults)


class TestRunTournament:
    def test_end_to_end_serial(self):
        spec = _tiny_spec()
        result = run_tournament(spec)
        assert set(result.policies()) == {"LFOC", "Best-Static", BASELINE_LABEL}
        assert result.reference == "LFOC"
        assert result.n_units == result.n_complete_units == 2
        assert result.n_complete_units == spec.n_scenarios()  # 1 workload/cell
        assert len(result.rows) == 3 * 2
        assert result.spec == spec.to_dict()
        # The baseline policy normalises to exactly 1.0 on every unit.
        stock = result.standing(BASELINE_LABEL)
        assert stock.mean_unfairness == 1.0 and stock.mean_stp == 1.0

    def test_mapping_input_is_coerced(self):
        result = run_tournament(_tiny_spec().to_dict())
        assert result.name == "tiny"
        with pytest.raises(SpecError, match="TournamentSpec or mapping"):
            run_tournament(42)

    def test_serial_and_pool_verdicts_are_bit_identical(self, tmp_path):
        spec = _tiny_spec(name="xexec")
        serial = run_tournament(spec)
        pooled = run_tournament(spec, executor="pool", jobs=2)
        assert [s.as_dict() for s in serial.standings] == [
            s.as_dict() for s in pooled.standings
        ]
        assert serial.head_to_head == pooled.head_to_head
        assert serial.rows == pooled.rows
        # And the persisted artifacts match byte for byte.
        a, b = tmp_path / "serial.jsonl", tmp_path / "pool.jsonl"
        serial.save(a)
        pooled.save(b)
        assert a.read_bytes() == b.read_bytes()

    def test_judge_study_matches_run_tournament(self):
        from repro.experiments import run_study

        spec = _tiny_spec()
        study = run_study(spec.to_study_spec())
        direct = judge_study(spec, study)
        wrapped = run_tournament(spec)
        assert [s.as_dict() for s in direct.standings] == [
            s.as_dict() for s in wrapped.standings
        ]


# -- CLI ------------------------------------------------------------------------


class TestTournamentCli:
    @pytest.fixture()
    def spec_path(self, tmp_path):
        path = tmp_path / "spec.json"
        dump_tournament_spec(_tiny_spec(name="cli"), path)
        return path

    def test_run_report_gate_cycle(self, tmp_path, spec_path, capsys):
        out = tmp_path / "verdict.jsonl"
        board = tmp_path / "board.md"
        assert main(
            ["tournament", "run", str(spec_path), "--out", str(out),
             "--markdown", str(board)]
        ) == 0
        assert "# Tournament `cli`" in capsys.readouterr().out
        assert out.exists() and board.read_text().startswith("# Tournament")

        assert main(["tournament", "report", str(out)]) == 0
        json_path = tmp_path / "report.json"
        assert main(
            ["tournament", "report", str(out), "--json", str(json_path)]
        ) == 0
        report = json.loads(json_path.read_text())
        assert report["name"] == "cli"
        capsys.readouterr()

        baseline = tmp_path / "baseline.json"
        assert main(
            ["tournament", "gate", str(out), "--baseline", str(baseline),
             "--update"]
        ) == 0
        assert main(
            ["tournament", "gate", str(out), "--baseline", str(baseline)]
        ) == 0
        assert "gate OK" in capsys.readouterr().out

        # A deliberately nerfed policy must fail the gate, loudly.
        assert main(
            ["tournament", "gate", str(out), "--baseline", str(baseline),
             "--nerf", "LFOC", "--nerf-factor", "1.5"]
        ) == 1
        assert "gate FAILED" in capsys.readouterr().out

    def test_run_checkpoint_resume(self, tmp_path, spec_path, capsys):
        checkpoint = tmp_path / "ckpt.jsonl"
        assert main(
            ["tournament", "run", str(spec_path), "--checkpoint", str(checkpoint)]
        ) == 0
        assert checkpoint.exists()
        capsys.readouterr()
        # Resume over a complete checkpoint recomputes nothing and re-judges.
        assert main(
            ["tournament", "run", str(spec_path), "--checkpoint",
             str(checkpoint), "--resume"]
        ) == 0
        assert "# Tournament `cli`" in capsys.readouterr().out

    def test_run_flag_validation(self, spec_path):
        with pytest.raises(SpecError, match="--executor"):
            main(["tournament", "run", str(spec_path), "--workers", "2"])
        with pytest.raises(SpecError, match="--checkpoint"):
            main(["tournament", "run", str(spec_path), "--resume"])
        with pytest.raises(SpecError, match="TournamentSpec.jobs must be >= 1, got -1"):
            main(["tournament", "run", str(spec_path), "--jobs", "-1"])
        with pytest.raises(SpecError, match="--fault-tolerance"):
            main(
                ["tournament", "run", str(spec_path),
                 "--fault-tolerance", "{not json"]
            )
