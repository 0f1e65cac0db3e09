"""Tests for the figure/table builders, the reporting layer and the CLI."""

import pytest

from repro.analysis import (
    fig1_curves,
    fig2_optimal_breakdown,
    fig3_clustering_vs_partitioning,
    fig4_fotonik3d_trace,
    fig5_workload_matrix,
    fig6_static_study,
    fig7_dynamic_study,
    format_table,
    render_fig1,
    render_fig2,
    render_fig3,
    render_fig6,
    render_fig7,
    render_table1,
    render_table2,
    summarize_dynamic_study,
    summarize_static_study,
    table1_classification,
    table2_algorithm_cost,
)
from repro.cli import build_parser, main
from repro.policies import DunnPolicy, LfocPolicy
from repro.runtime import EngineConfig
from repro.workloads import s_workloads, workload_by_name


class TestFigureBuilders:
    def test_fig1_contains_both_benchmarks(self):
        data = fig1_curves()
        assert set(data) == {"lbm06", "xalancbmk06"}
        assert len(data["lbm06"]["ways"]) == 11
        # Fig. 1 shape: lbm flat & miss heavy, xalancbmk steep.
        assert max(data["lbm06"]["slowdown"]) < 1.06
        assert data["xalancbmk06"]["slowdown"][0] > 1.5

    def test_table1_covers_catalogue(self):
        classes = table1_classification()
        assert len(classes) == 34
        assert classes["lbm06"] == "streaming"
        assert classes["xalancbmk06"] == "sensitive"
        assert classes["gamess06"] == "light"

    def test_fig2_breakdown_structure(self):
        breakdown = fig2_optimal_breakdown(n_workloads=2, workload_size=5)
        assert "cluster_count" in breakdown
        assert set(breakdown) == {"cluster_count", "streaming", "sensitive", "light"}
        assert sum(breakdown["cluster_count"].values()) > 0

    def test_fig3_ratio_structure(self):
        ratios = fig3_clustering_vs_partitioning(app_counts=(4, 5), workloads_per_count=2)
        assert set(ratios) == {4, 5}
        # Partitioning can never be fairer than clustering (it is a subset).
        assert all(r >= 1.0 - 1e-9 for r in ratios.values())

    def test_fig4_trace_shows_phase_transition(self):
        trace = fig4_fotonik3d_trace(instructions=1.0e9)
        assert len(trace["time_s"]) == len(trace["llcmpkc"])
        assert min(trace["llcmpkc"]) < 10.0 < max(trace["llcmpkc"])

    def test_fig5_matrix_shape(self):
        matrix = fig5_workload_matrix()
        assert len(matrix) == 36

    def test_fig6_rows_include_stock_baseline(self):
        workloads = [workload_by_name("S1")]
        rows = fig6_static_study(workloads, policies=[LfocPolicy()])
        policies = {row.policy for row in rows}
        assert policies == {"Stock-Linux", "LFOC"}
        stock = [r for r in rows if r.policy == "Stock-Linux"][0]
        assert stock.normalized_unfairness == 1.0

    def test_fig7_rows_and_summary(self):
        workloads = [workload_by_name("P1")]
        config = EngineConfig(
            instructions_per_run=6e8, min_completions=1, record_traces=False
        )
        rows = fig7_dynamic_study(workloads, engine_config=config)
        assert {row.policy for row in rows} == {"Stock-Linux", "Dunn", "LFOC"}
        summary = summarize_dynamic_study(rows)
        assert "LFOC" in summary

    def test_table2_lfoc_is_much_cheaper_than_kpart(self):
        costs = table2_algorithm_cost(app_counts=(4, 8), repetitions=2)
        for count in (4, 8):
            assert costs[count]["lfoc_s"] < costs[count]["kpart_s"]
            assert costs[count]["ratio"] > 1.0


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [[1, 2], [333, 4]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")

    def test_renderers_produce_text(self):
        assert "lbm06" in render_fig1(fig1_curves())
        assert "streaming" in render_table1(table1_classification())
        breakdown = fig2_optimal_breakdown(n_workloads=1, workload_size=4)
        assert "cluster size" in render_fig2(breakdown)
        assert "4" in render_fig3({4: 1.1})
        costs = {4: {"lfoc_s": 1e-5, "kpart_s": 1e-3, "ratio": 100.0}}
        assert "100x" in render_table2(costs)

    def test_summarize_static_study(self):
        rows = fig6_static_study([workload_by_name("S1")], policies=[LfocPolicy(), DunnPolicy()])
        summary = summarize_static_study(rows)
        assert summary["Stock-Linux"]["mean_norm_unfairness"] == pytest.approx(1.0)
        assert "LFOC" in summary and "Dunn" in summary
        assert "mean_unfairness_reduction_pct" in summary["LFOC"]

    def test_render_fig6_and_fig7(self):
        rows = fig6_static_study([workload_by_name("S1")], policies=[LfocPolicy()])
        assert "S1" in render_fig6(rows)
        config = EngineConfig(instructions_per_run=4e8, min_completions=1, record_traces=False)
        dynamic_rows = fig7_dynamic_study(
            [workload_by_name("P1")], engine_config=config, drivers={}
        )
        assert "P1" in render_fig7(dynamic_rows)


class TestCli:
    def test_parser_knows_every_experiment(self, capsys):
        parser = build_parser()
        for command in ("fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "table1", "table2"):
            args = parser.parse_args([command])
            assert args.command == command
        # Count flags refuse values below 1 instead of printing empty or NaN tables.
        for command, flag in (
            ("table2", "--repetitions"), ("fig3", "--per-size"), ("fig2", "--workloads")
        ):
            with pytest.raises(SystemExit) as exc_info:
                parser.parse_args([command, flag, "0"])
            assert exc_info.value.code == 2
            assert f"argument {flag}: must be >= 1, got 0" in capsys.readouterr().err
        # fig6 refuses a size cap that would leave no workload at all.
        with pytest.raises(SystemExit) as exc_info:
            parser.parse_args(["fig6", "--max-size", "7"])
        assert exc_info.value.code == 2
        assert (
            "argument --max-size: must be >= 8 (the smallest static-study workload), got 7"
            in capsys.readouterr().err
        )

    def test_fig1_command(self, capsys):
        assert main(["fig1"]) == 0
        out = capsys.readouterr().out
        assert "xalancbmk06" in out

    def test_table1_command(self, capsys):
        assert main(["table1"]) == 0
        assert "streaming" in capsys.readouterr().out

    def test_fig5_command(self, capsys):
        assert main(["fig5"]) == 0
        assert "S1" in capsys.readouterr().out

    def test_fig6_command_prints_the_same_at_any_jobs(self, capsys):
        """fig6 runs the registered line-up, which worker processes accept."""
        assert main(["fig6", "--max-size", "8"]) == 0
        serial = capsys.readouterr().out
        assert main(["fig6", "--max-size", "8", "--jobs", "2"]) == 0
        assert capsys.readouterr().out == serial
        for policy in ("Stock-Linux", "Dunn", "KPart", "LFOC", "Best-Static"):
            assert policy in serial

    def test_table2_command_small(self, capsys):
        assert main(["table2", "--sizes", "4", "--repetitions", "1"]) == 0
        assert "KPart" in capsys.readouterr().out


class TestSpecCli:
    SPEC_TOML = """\
schema = 1
name = "cli-smoke"

[[scenarios]]
name = "stat"
kind = "static"

[[scenarios.workloads]]
source = "suite"
suite = "s"
names = ["S1"]

[[scenarios.policies]]
name = "lfoc"
"""

    def test_run_command_prints_rows_and_saves(self, capsys, tmp_path):
        spec_path = tmp_path / "study.toml"
        spec_path.write_text(self.SPEC_TOML, encoding="utf-8")
        out_path = tmp_path / "rows.jsonl"
        assert main(["run", str(spec_path), "--out", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "scenario stat" in out
        assert "LFOC" in out and "Stock-Linux" in out
        from repro.experiments import StudyResult

        result = StudyResult.load(out_path)
        assert result.name == "cli-smoke"
        assert {row["policy"] for row in result.rows()} == {"Stock-Linux", "LFOC"}

    def test_run_command_with_executor_and_checkpoint(self, capsys, tmp_path):
        spec_path = tmp_path / "study.toml"
        spec_path.write_text(self.SPEC_TOML, encoding="utf-8")
        checkpoint = tmp_path / "ckpt.jsonl"
        assert (
            main(
                [
                    "run", str(spec_path),
                    "--executor", "serial",
                    "--checkpoint", str(checkpoint),
                ]
            )
            == 0
        )
        capsys.readouterr()
        from repro.experiments import StudyResult

        first = StudyResult.load(checkpoint)
        assert {row["policy"] for row in first.rows()} == {"Stock-Linux", "LFOC"}
        # A resumed run skips the completed scenario and changes nothing.
        assert (
            main(
                [
                    "run", str(spec_path),
                    "--executor", "serial",
                    "--checkpoint", str(checkpoint),
                    "--resume",
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert StudyResult.load(checkpoint).rows() == first.rows()

    def test_run_command_rejects_unknown_executor(self, tmp_path):
        from repro.errors import SpecError

        spec_path = tmp_path / "study.toml"
        spec_path.write_text(self.SPEC_TOML, encoding="utf-8")
        with pytest.raises(SpecError, match="unknown executor"):
            main(["run", str(spec_path), "--executor", "quantum"])

    def test_executor_flags_require_executor(self, tmp_path):
        from repro.errors import SpecError

        spec_path = tmp_path / "study.toml"
        spec_path.write_text(self.SPEC_TOML, encoding="utf-8")
        with pytest.raises(SpecError, match="--executor"):
            main(["run", str(spec_path), "--workers", "4"])

    def test_resume_requires_checkpoint(self, tmp_path):
        from repro.errors import SpecError

        spec_path = tmp_path / "study.toml"
        spec_path.write_text(self.SPEC_TOML, encoding="utf-8")
        with pytest.raises(SpecError, match="--checkpoint"):
            main(["run", str(spec_path), "--resume"])

    def test_jobs_override_is_checked_by_the_spec_rule(self, tmp_path):
        from repro.errors import SpecError

        spec_path = tmp_path / "study.toml"
        spec_path.write_text(self.SPEC_TOML, encoding="utf-8")
        with pytest.raises(SpecError, match="StudySpec.jobs must be >= 1, got -1"):
            main(["run", str(spec_path), "--jobs", "-1"])

    def test_worker_command_requires_valid_address(self):
        from repro.errors import SimulationError

        with pytest.raises(SimulationError, match="host:port"):
            main(["worker", "--connect", "nonsense"])

    def test_removed_unsafe_pickle_flags_are_usage_errors(self, capsys, tmp_path):
        spec_path = tmp_path / "study.toml"
        spec_path.write_text(self.SPEC_TOML, encoding="utf-8")
        for argv, removed in (
            (["run", str(spec_path), "--executor", "tcp", "--unsafe-pickle"],
             "--unsafe-pickle"),
            (["worker", "--connect", "127.0.0.1:7070", "--unsafe-pickle"],
             "--unsafe-pickle"),
            (["serve", "--monitor-backend", "bank"], "--monitor-backend bank"),
        ):
            with pytest.raises(SystemExit) as exc_info:
                main(argv)
            assert exc_info.value.code == 2
            assert f"unrecognized arguments: {removed}" in capsys.readouterr().err

    def test_run_command_rejects_bad_spec(self, tmp_path):
        from repro.errors import SpecError

        spec_path = tmp_path / "study.toml"
        spec_path.write_text('name = "x"\nscnarios = []\n', encoding="utf-8")
        with pytest.raises(SpecError, match="scnarios"):
            main(["run", str(spec_path)])

    def test_sweep_command(self, capsys, tmp_path):
        spec_out = tmp_path / "sweep.toml"
        assert (
            main(
                [
                    "sweep",
                    "--kind", "static",
                    "--policies", "lfoc",
                    "--workloads", "S1",
                    "--dump-spec", str(spec_out),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "LFOC" in out
        from repro.experiments import load_study_spec

        spec = load_study_spec(spec_out)
        assert spec.scenarios[0].kind == "static"
