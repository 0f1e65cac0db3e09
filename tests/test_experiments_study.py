"""Tests for run_study: fig6/fig7 equivalence pins, persistence, aggregation.

The GOLDEN_* tables below were captured from ``fig6_static_study`` /
``fig7_dynamic_study`` **before** they were refactored into spec-driven
wrappers (``float.hex()`` of every metric).  They pin two guarantees at once:
the wrappers still reproduce the pre-refactor rows bit for bit, and a study
defined purely as data (TOML included) lowers to the exact same computation.
"""

import numpy as np
import pytest

from repro.analysis.figures import fig6_static_study, fig7_dynamic_study
from repro.errors import SpecError
from repro.experiments import (
    BASELINE_LABEL,
    EngineSpec,
    PolicySpec,
    ScenarioSpec,
    StudyResult,
    StudySpec,
    WorkloadSpec,
    build_sweep_study,
    load_study_spec,
    run_study,
    study_to_toml,
)
from repro.runtime import EngineConfig
from repro.workloads import workload_by_name

# fig6_static_study([S1]) with the default policy line-up, pre-refactor.
GOLDEN_FIG6_S1 = [
    ("Stock-Linux", "0x1.69cee55481879p+0", "0x1.d14093a21e284p+2",
     "0x1.0000000000000p+0", "0x1.0000000000000p+0"),
    ("Dunn", "0x1.8446e84239767p+0", "0x1.d40f83c425702p+2",
     "0x1.12ba6a7956185p+0", "0x1.018b967c928f1p+0"),
    ("KPart", "0x1.259b11ed939bbp+0", "0x1.e48d5468c341dp+2",
     "0x1.9f7c591061645p-1", "0x1.0a9e98801fde9p+0"),
    ("LFOC", "0x1.1b9b110c37e77p+0", "0x1.e48ca8dd0b13ep+2",
     "0x1.9155a6666d77cp-1", "0x1.0a9e3a1bfa0b1p+0"),
    ("Best-Static", "0x1.1b9b110c37e77p+0", "0x1.e48ca8dd0b13ep+2",
     "0x1.9155a6666d77cp-1", "0x1.0a9e3a1bfa0b1p+0"),
]

# fig7_dynamic_study([P1], EngineConfig(6e8, min_completions=1,
# record_traces=False)), pre-refactor.
GOLDEN_FIG7_P1 = [
    ("Stock-Linux", "0x1.9bda1b7d8466cp+0", "0x1.ac2dae25dc2bap+2",
     "0x1.0000000000000p+0", "0x1.0000000000000p+0", 1, 0),
    ("Dunn", "0x1.a1c4469c6a8dbp+0", "0x1.ab8759a39d658p+2",
     "0x1.03ad2e3fcfb5ep+0", "0x1.ff391bcbea8b5p-1", 2, 0),
    ("LFOC", "0x1.a0a5dd7e884fdp+0", "0x1.ac82bc53da526p+2",
     "0x1.02fb271f9c260p+0", "0x1.0032da6180a27p+0", 39, 11),
]

FIG7_CONFIG = dict(instructions_per_run=6e8, min_completions=1, record_traces=False)


class TestFigureEquivalence:
    def test_fig6_wrapper_reproduces_pre_refactor_rows(self):
        rows = fig6_static_study([workload_by_name("S1")])
        assert len(rows) == len(GOLDEN_FIG6_S1)
        for row, (policy, unf, stp, n_unf, n_stp) in zip(rows, GOLDEN_FIG6_S1):
            assert (row.workload, row.size) == ("S1", 8)
            assert row.policy == policy
            assert row.unfairness.hex() == unf
            assert row.stp.hex() == stp
            assert row.normalized_unfairness.hex() == n_unf
            assert row.normalized_stp.hex() == n_stp

    def test_fig7_wrapper_reproduces_pre_refactor_rows(self):
        rows = fig7_dynamic_study(
            [workload_by_name("P1")], engine_config=EngineConfig(**FIG7_CONFIG)
        )
        assert len(rows) == len(GOLDEN_FIG7_P1)
        for row, (policy, unf, stp, n_unf, n_stp, reps, entries) in zip(
            rows, GOLDEN_FIG7_P1
        ):
            assert (row.workload, row.size) == ("P1", 8)
            assert row.policy == policy
            assert row.unfairness.hex() == unf
            assert row.stp.hex() == stp
            assert row.normalized_unfairness.hex() == n_unf
            assert row.normalized_stp.hex() == n_stp
            assert row.repartitions == reps
            assert row.sampling_entries == entries

    def test_pure_data_study_matches_the_golden_rows(self, tmp_path):
        """A TOML study with no Python components reproduces Fig. 7 exactly."""
        spec = StudySpec(
            name="fig7-toml",
            scenarios=(
                ScenarioSpec(
                    name="dyn",
                    kind="dynamic",
                    workloads=(WorkloadSpec(suite="dynamic_study", names=("P1",)),),
                    policies=(
                        PolicySpec("dunn", label="Dunn"),
                        PolicySpec("lfoc", label="LFOC"),
                    ),
                    engine=EngineSpec(**FIG7_CONFIG),
                ),
            ),
        )
        path = tmp_path / "fig7.toml"
        path.write_text(study_to_toml(spec), encoding="utf-8")
        result = run_study(load_study_spec(path))
        rows = result.rows()
        assert len(rows) == len(GOLDEN_FIG7_P1)
        for row, (policy, unf, stp, n_unf, n_stp, reps, entries) in zip(
            rows, GOLDEN_FIG7_P1
        ):
            assert row["policy"] == policy
            assert row["unfairness"].hex() == unf
            assert row["stp"].hex() == stp
            assert row["normalized_unfairness"].hex() == n_unf
            assert row["normalized_stp"].hex() == n_stp
            assert (row["repartitions"], row["sampling_entries"]) == (reps, entries)

    def test_static_spec_matches_fig6_wrapper(self):
        spec = StudySpec(
            name="fig6-spec",
            scenarios=(
                ScenarioSpec(
                    name="stat",
                    kind="static",
                    workloads=(WorkloadSpec(suite="s", names=("S2",)),),
                    policies=(PolicySpec("dunn"), PolicySpec("lfoc")),
                ),
            ),
        )
        from repro.policies import DunnPolicy, LfocPolicy

        direct = fig6_static_study(
            [workload_by_name("S2")], policies=[DunnPolicy(), LfocPolicy()]
        )
        rows = run_study(spec).rows()
        assert [(r["policy"], r["unfairness"], r["stp"]) for r in rows] == [
            (d.policy, d.unfairness, d.stp) for d in direct
        ]


class TestRunStudy:
    def test_accepts_plain_mappings(self):
        data = {
            "name": "m",
            "scenarios": [
                {
                    "name": "s",
                    "kind": "static",
                    "workloads": [{"suite": "s", "names": ["S1"]}],
                    "policies": ["lfoc"],
                }
            ],
        }
        result = run_study(data)
        assert {row["policy"] for row in result.rows()} == {BASELINE_LABEL, "LFOC"}
        assert result.spec is not None and result.spec["name"] == "m"

    def test_rejects_other_types(self):
        with pytest.raises(SpecError, match="StudySpec"):
            run_study(42)

    def test_baseline_row_is_always_first_per_workload(self):
        spec = StudySpec(
            name="b",
            scenarios=(
                ScenarioSpec(
                    name="s",
                    kind="static",
                    workloads=(WorkloadSpec(suite="s", names=("S1", "S2")),),
                    policies=(PolicySpec("lfoc"),),
                ),
            ),
        )
        rows = run_study(spec).rows()
        assert [r["policy"] for r in rows] == [BASELINE_LABEL, "LFOC"] * 2
        assert all(r["scenario_id"] == "s" and r["seed"] == 0 for r in rows)

    def test_duplicate_workload_names_rejected(self):
        spec = StudySpec(
            name="d",
            scenarios=(
                ScenarioSpec(
                    name="s",
                    kind="static",
                    workloads=(
                        WorkloadSpec(suite="s", names=("S1",)),
                        WorkloadSpec(suite="s", names=("S1",)),
                    ),
                ),
            ),
        )
        with pytest.raises(SpecError, match="unique"):
            run_study(spec)

    def test_seed_replication_and_scenario_ids(self):
        spec = StudySpec(
            name="seeds",
            scenarios=(
                ScenarioSpec(
                    name="rnd",
                    kind="static",
                    workloads=(WorkloadSpec(source="random", size=4, seed=10),),
                    policies=(PolicySpec("lfoc"),),
                    seeds=(0, 1),
                ),
            ),
        )
        result = run_study(spec)
        assert result.scenario_ids() == ["rnd#s0", "rnd#s1"]
        first, second = result.scenarios
        assert first.workloads != second.workloads  # different random draws
        assert {row["seed"] for row in first.rows} == {0}
        assert {row["seed"] for row in second.rows} == {1}
        # Aggregation across seeds: one entry per policy, averaged over both.
        summary = result.aggregate()
        assert set(summary) == {BASELINE_LABEL, "LFOC"}
        per_seed = result.aggregate(by=("policy", "seed"))
        assert set(per_seed) == {
            (BASELINE_LABEL, 0), (BASELINE_LABEL, 1), ("LFOC", 0), ("LFOC", 1),
        }
        # Every metric reports mean, spread and sample count per group.
        lfoc = summary["LFOC"]
        for metric in ("normalized_unfairness", "normalized_stp"):
            assert set(lfoc) >= {f"mean_{metric}", f"std_{metric}", f"n_{metric}"}
            assert lfoc[f"n_{metric}"] == 2.0
            assert lfoc[f"std_{metric}"] >= 0.0
        values = [
            row["normalized_unfairness"]
            for row in result.rows()
            if row["policy"] == "LFOC"
        ]
        assert lfoc["std_normalized_unfairness"] == pytest.approx(
            float(np.std(values))
        )
        # Single-sample groups have zero spread, not NaN.
        single = per_seed[("LFOC", 0)]
        assert single["n_normalized_unfairness"] == 1.0
        assert single["std_normalized_unfairness"] == 0.0

    def test_aggregate_unknown_field_raises(self):
        spec = StudySpec(
            name="a",
            scenarios=(
                ScenarioSpec(
                    name="s",
                    kind="static",
                    workloads=(WorkloadSpec(suite="s", names=("S1",)),),
                ),
            ),
        )
        result = run_study(spec)
        with pytest.raises(SpecError, match="no field"):
            result.aggregate(by=("nonexistent",))

    def test_inline_components_run_but_do_not_serialize(self):
        from repro.policies import LfocPolicy

        spec = StudySpec(
            name="inline",
            scenarios=(
                ScenarioSpec(
                    name="s",
                    kind="static",
                    workloads=(WorkloadSpec(suite="s", names=("S1",)),),
                    policies=(PolicySpec.inline(LfocPolicy(), label="mine"),),
                ),
            ),
        )
        result = run_study(spec)
        assert {row["policy"] for row in result.rows()} == {BASELINE_LABEL, "mine"}
        assert result.spec is None  # not serializable, recorded as such


class TestStudyResultStore:
    def _small_result(self) -> StudyResult:
        return run_study(
            StudySpec(
                name="store",
                description="persistence fixture",
                scenarios=(
                    ScenarioSpec(
                        name="s",
                        kind="static",
                        workloads=(WorkloadSpec(suite="s", names=("S1",)),),
                        policies=(PolicySpec("lfoc"),),
                    ),
                ),
            )
        )

    def test_save_load_round_trip(self, tmp_path):
        result = self._small_result()
        path = tmp_path / "rows.jsonl"
        result.save(path)
        reloaded = StudyResult.load(path)
        assert reloaded.name == result.name
        assert reloaded.description == result.description
        assert reloaded.spec == result.spec
        assert reloaded.scenario_ids() == result.scenario_ids()
        assert reloaded.rows() == result.rows()

    def test_getitem_by_scenario_id(self):
        result = self._small_result()
        assert result["s"].kind == "static"
        with pytest.raises(KeyError, match="nope"):
            result["nope"]

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n", encoding="utf-8")
        with pytest.raises(SpecError, match="JSONL"):
            StudyResult.load(path)
        path.write_text('{"record": "row", "scenario_id": "x"}\n', encoding="utf-8")
        with pytest.raises(SpecError):
            StudyResult.load(path)

    def test_load_requires_header(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("", encoding="utf-8")
        with pytest.raises(SpecError, match="header"):
            StudyResult.load(path)


class TestSweep:
    def test_build_sweep_study_shapes(self):
        spec = build_sweep_study(
            "sw",
            "static",
            ["dunn", "lfoc"],
            ["S1", "S2"],
            ways=[11, 8],
            seeds=[0, 1],
        )
        assert [s.name for s in spec.scenarios] == ["static-w11", "static-w8"]
        for scenario in spec.scenarios:
            assert scenario.seeds == (0, 1)
            assert [p.name for p in scenario.policies] == ["dunn", "lfoc"]
        # The whole sweep spec stays serializable.
        assert study_to_toml(spec)

    def test_sweep_accepts_suite_names(self):
        spec = build_sweep_study("sw", "dynamic", ["dunn"], ["dynamic_study"])
        assert spec.scenarios[0].workloads[0].suite == "dynamic_study"

    def test_sweep_over_ways_runs(self):
        spec = build_sweep_study(
            "sw", "static", ["lfoc"], ["S1"], ways=[11, 8], jobs=1
        )
        result = run_study(spec)
        assert result.scenario_ids() == ["static-w11", "static-w8"]
        # A narrower cache changes the numbers — both scenarios computed.
        rows11 = result["static-w11"].rows
        rows8 = result["static-w8"].rows
        assert rows11[0]["unfairness"] != rows8[0]["unfairness"]


class TestLoadRobustness:
    def test_malformed_scenario_record_raises_spec_error(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"record": "study", "name": "x", "description": "", "spec": null}\n'
            '{"record": "scenario", "scenario": "s", "scenario_id": "s", '
            '"kind": "static", "seed": 0, "workloads": [], "extra": 1}\n',
            encoding="utf-8",
        )
        with pytest.raises(SpecError, match="scenario record keys"):
            StudyResult.load(path)


class TestExecutorSelection:
    def _spec(self, executor=None):
        return StudySpec(
            name="sel",
            scenarios=(
                ScenarioSpec(
                    name="s",
                    kind="static",
                    workloads=(WorkloadSpec(suite="s", names=("S1",)),),
                ),
            ),
            executor=executor,
        )

    def test_explicit_jobs_overrides_spec_executor(self):
        from repro.experiments import ExecutorSpec
        from repro.experiments.study import _resolve_executor
        from repro.runtime import PoolExecutor, SerialExecutor

        spec = self._spec(ExecutorSpec(name="pool", workers=4))
        # --jobs 1 must win over the spec's [executor] table (the historical
        # contract: jobs overrides whatever the spec says about execution).
        chosen, owned = _resolve_executor(spec, None, 1, True)
        assert isinstance(chosen, SerialExecutor) and owned
        # Without an explicit jobs, the spec's executor is honoured.
        chosen, owned = _resolve_executor(spec, None, spec.jobs, False)
        assert isinstance(chosen, PoolExecutor) and chosen.jobs == 4 and owned
        chosen.close()
        # An explicit executor argument beats both.
        chosen, owned = _resolve_executor(spec, "serial", 8, True)
        assert isinstance(chosen, SerialExecutor) and owned

    def test_caller_owned_executor_not_closed(self):
        from repro.runtime import SerialExecutor

        live = SerialExecutor()
        result = run_study(self._spec(), executor=live)
        assert {row["policy"] for row in result.rows()} == {BASELINE_LABEL}
        # Still usable: run_study must not have closed a caller-owned executor.
        result2 = run_study(self._spec(), executor=live)
        assert result2.rows() == result.rows()

    def test_executor_spec_round_trips_with_study(self):
        from repro.experiments import ExecutorSpec

        spec = self._spec(
            ExecutorSpec(
                name="tcp",
                workers=2,
                bind="127.0.0.1:7070",
                task_timeout_s=120.0,
                max_retries=5,
            )
        )
        reloaded = StudySpec.from_dict(spec.to_dict())
        assert reloaded.executor == spec.executor
        assert reloaded.executor.task_timeout_s == 120.0

    def test_executor_spec_rejects_unknown_names_and_keys(self):
        from repro.errors import SpecError
        from repro.experiments import ExecutorSpec

        with pytest.raises(SpecError, match="unknown executor"):
            ExecutorSpec.from_dict({"name": "quantum"})
        with pytest.raises(SpecError, match="unknown key"):
            ExecutorSpec.from_dict({"name": "serial", "threads": 4})
        with pytest.raises(SpecError, match="task_timeout_s"):
            ExecutorSpec(name="tcp", task_timeout_s=0.0)


class TestWorkerTableCache:
    def test_per_spec_max_table_entries_is_honoured(self):
        """Specs with different table bounds get distinct table sets.

        The per-worker cache is keyed by ``(id(platform), max_entries)``, so
        interleaved runners with different bounds (or platforms) can never
        silently share or clobber each other's table state — and repeated
        batches still produce identical results.
        """
        from repro.runtime import EngineConfig, RunSpec, SerialExecutor, StockLinuxDriver
        from repro.runtime.executors import worker_tables
        from repro.hardware import skylake_gold_6138
        from repro.workloads import workload_by_name

        platform = skylake_gold_6138()
        workload = workload_by_name("P1")
        base = dict(instructions_per_run=2e8, min_completions=1, record_traces=False)
        specs = [
            RunSpec(
                workload=workload,
                driver_cls=StockLinuxDriver,
                config=EngineConfig(**base),
                label="unbounded",
            ),
            RunSpec(
                workload=workload,
                driver_cls=StockLinuxDriver,
                config=EngineConfig(**base, max_table_entries=2),
                label="bounded",
            ),
        ]
        def run_batch():
            with SerialExecutor() as executor:
                executor.prepare(platform)
                return executor.map_specs(specs)

        results = run_batch()
        assert len(results) == 2
        # Distinct bounds map to distinct table sets for the same platform...
        unbounded = worker_tables(platform, None)
        bounded = worker_tables(platform, 2)
        assert unbounded is not bounded
        assert bounded.max_entries == 2 and unbounded.max_entries is None
        # ...the cache is stable across lookups (interleaved runners share)...
        assert worker_tables(platform, 2) is bounded
        # ...and results do not depend on whatever table state accumulated.
        r1 = run_batch()
        assert results[0].slowdowns() == r1[0].slowdowns()
        assert results[1].slowdowns() == r1[1].slowdowns()

    def test_cache_distinguishes_platforms_by_identity(self):
        from repro.hardware import skylake_gold_6138
        from repro.runtime.executors import worker_tables

        a, b = skylake_gold_6138(), skylake_gold_6138()
        assert worker_tables(a, None) is not worker_tables(b, None)
        assert worker_tables(a, None) is worker_tables(a, None)

    def test_cache_is_dropped_when_the_executor_closes(self):
        """The historical end-of-batch table reset: no retention after close."""
        from repro.hardware import skylake_gold_6138
        from repro.runtime import SerialExecutor
        import repro.runtime.executors.base as base_mod

        platform = skylake_gold_6138()
        with SerialExecutor() as executor:
            executor.prepare(platform)
            base_mod.worker_tables(platform, None)
            assert base_mod._TABLES_CACHE
        assert base_mod._TABLES_CACHE == {}


class TestFaultTolerance:
    """Graceful degradation: retry budgets, quarantine, failure records."""

    FAILING_SPEC = {
        "name": "degraded",
        "scenarios": [
            {
                "name": "dyn",
                "kind": "dynamic",
                "workloads": [{"suite": "all", "names": ["S1"]}],
                "policies": [
                    {"name": "dunn"},
                    {"name": "kaboom-driver", "label": "Bad"},
                ],
                "engine": {
                    "instructions_per_run": 2.0e8,
                    "min_completions": 1,
                    "record_traces": False,
                },
            }
        ],
    }

    @pytest.fixture(autouse=True, scope="class")
    def kaboom_driver(self):
        from repro.experiments.registry import DRIVERS, register_driver
        from repro.runtime.scheduler import StockLinuxDriver

        if "kaboom-driver" in DRIVERS:
            return

        class KaboomDriver(StockLinuxDriver):
            name = "Kaboom"

            def on_start(self, apps, platform):
                raise RuntimeError("kaboom")

        register_driver("kaboom-driver", KaboomDriver)

    def test_quarantine_keeps_the_study_alive(self):
        result = run_study(
            self.FAILING_SPEC,
            fault_tolerance={"max_attempts": 2, "backoff_s": 0.0},
        )
        # The healthy drivers' rows survive, the poison run is quarantined.
        assert sorted({row["policy"] for row in result.rows()}) == [
            "Dunn",
            "Stock-Linux",
        ]
        (failure,) = result.failures()
        assert failure["label"] == "Bad@S1"
        assert failure["kind"] == "RuntimeError"
        assert failure["message"] == "kaboom"
        assert failure["attempts"] == 2
        assert failure["workload"] == "S1"
        assert failure["scenario_id"] == "dyn"

    def test_failure_records_round_trip_through_the_store(self, tmp_path):
        result = run_study(
            self.FAILING_SPEC,
            fault_tolerance={"max_attempts": 1, "backoff_s": 0.0},
        )
        path = tmp_path / "degraded.jsonl"
        result.save(path)
        loaded = StudyResult.load(path)
        assert loaded.rows() == result.rows()
        assert loaded.failures() == result.failures()

    def test_spec_level_fault_tolerance_and_kwarg_override(self):
        spec = dict(self.FAILING_SPEC)
        spec["fault_tolerance"] = {"max_attempts": 1, "backoff_s": 0.0}
        result = run_study(spec)
        (failure,) = result.failures()
        assert failure["attempts"] == 1
        # The kwarg wins over the spec.
        result = run_study(
            spec, fault_tolerance={"max_attempts": 3, "backoff_s": 0.0}
        )
        (failure,) = result.failures()
        assert failure["attempts"] == 3
        # fault_tolerance=False disables the layer entirely: first error aborts.
        with pytest.raises(Exception, match="kaboom"):
            run_study(spec, fault_tolerance=False)

    def test_quarantine_false_reraises_after_the_budget(self):
        from repro.errors import SimulationError

        with pytest.raises(SimulationError, match="kaboom"):
            run_study(
                self.FAILING_SPEC,
                fault_tolerance={
                    "max_attempts": 2,
                    "backoff_s": 0.0,
                    "quarantine": False,
                },
            )

    def test_without_tolerance_failures_still_abort(self):
        with pytest.raises(Exception, match="kaboom"):
            run_study(self.FAILING_SPEC)
