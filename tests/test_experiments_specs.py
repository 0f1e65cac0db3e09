"""Tests for the declarative spec layer: round-trips, registries, error paths."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SpecError
from repro.experiments import (
    EngineSpec,
    PolicySpec,
    Registry,
    ScenarioSpec,
    SolverSpec,
    StudySpec,
    WorkloadSpec,
    grid,
    load_study_spec,
    resolve_platform,
    resolve_policy,
    study_from_json,
    study_from_toml,
    study_to_json,
    study_to_toml,
    toml_dumps,
)
from repro.policies import LfocPolicy


def rich_study() -> StudySpec:
    """A study exercising every spec type and both scenario kinds."""
    return StudySpec(
        name="rich",
        description="round-trip fixture",
        jobs=2,
        scenarios=(
            ScenarioSpec(
                name="static",
                kind="static",
                workloads=(
                    WorkloadSpec(suite="s", names=("S1", "S3"), max_size=12),
                    WorkloadSpec(
                        source="explicit",
                        name="mix",
                        benchmarks=("lbm06", "xalancbmk06", "gamess06"),
                        kind="custom",
                    ),
                ),
                policies=(
                    PolicySpec("dunn"),
                    PolicySpec("best_static", params={"exact_limit": 5}, label="Best"),
                ),
                solver=SolverSpec(exact_limit=6, local_search_iterations=50),
                platform={"preset": "skylake_gold_6138", "llc_ways": 8},
            ),
            ScenarioSpec(
                name="dynamic",
                kind="dynamic",
                workloads=(WorkloadSpec(source="random", size=4, kind="P", seed=3),),
                policies=(PolicySpec("lfoc", label="LFOC"),),
                engine=EngineSpec(
                    instructions_per_run=5e8,
                    min_completions=1,
                    backend="multirun",
                    max_table_entries=128,
                ),
                seeds=(0, 1),
            ),
        ),
    )


class TestRoundTrips:
    def test_dict_round_trip(self):
        spec = rich_study()
        assert StudySpec.from_dict(spec.to_dict()) == spec

    def test_json_round_trip(self):
        spec = rich_study()
        assert study_from_json(study_to_json(spec)) == spec

    def test_toml_round_trip(self):
        spec = rich_study()
        assert study_from_toml(study_to_toml(spec)) == spec

    def test_file_round_trip_both_formats(self, tmp_path):
        from repro.experiments import dump_study_spec

        spec = rich_study()
        for suffix in (".toml", ".json"):
            path = tmp_path / f"study{suffix}"
            dump_study_spec(spec, path)
            assert load_study_spec(path) == spec

    def test_toml_dumps_is_parseable_toml(self):
        from repro.experiments.io import tomllib

        if tomllib is None:  # pragma: no cover - Python 3.10 without tomli
            pytest.skip("no TOML reader available")
        data = {
            "name": "x",
            "flag": True,
            "pi": 3.25,
            "count": 4,
            "items": [1, 2, 3],
            "nested": {"a": "b", "deep": {"c": 1.5}},
            "rows": [{"k": "v1"}, {"k": "v2", "n": 2}],
        }
        assert tomllib.loads(toml_dumps(data)) == data

    @settings(max_examples=25, deadline=None)
    @given(
        instructions=st.floats(min_value=1e6, max_value=1e12),
        completions=st.integers(min_value=1, max_value=5),
        interval=st.floats(min_value=0.01, max_value=10.0),
        traces=st.booleans(),
        backend=st.sampled_from(["incremental", "multirun"]),
        max_entries=st.one_of(st.none(), st.integers(min_value=1, max_value=10_000)),
    )
    def test_engine_spec_property_round_trip(
        self, instructions, completions, interval, traces, backend, max_entries
    ):
        spec = EngineSpec(
            instructions_per_run=instructions,
            min_completions=completions,
            partition_interval_s=interval,
            record_traces=traces,
            backend=backend,
            max_table_entries=max_entries,
        )
        assert EngineSpec.from_dict(spec.to_dict()) == spec

    @settings(max_examples=25, deadline=None)
    @given(
        size=st.integers(min_value=2, max_value=16),
        kind=st.sampled_from(["S", "P"]),
        seed=st.integers(min_value=0, max_value=1_000_000),
    )
    def test_workload_spec_property_round_trip(self, size, kind, seed):
        spec = WorkloadSpec(source="random", size=size, kind=kind, seed=seed)
        assert WorkloadSpec.from_dict(spec.to_dict()) == spec

    def test_engine_spec_config_round_trip(self):
        spec = EngineSpec(instructions_per_run=7e8, min_completions=2, max_table_entries=9)
        config = spec.to_config()
        assert config.instructions_per_run == 7e8
        assert config.max_table_entries == 9
        assert EngineSpec.from_config(config) == spec

    def test_jobs_none_encodes_as_zero(self):
        spec = StudySpec(
            name="j",
            jobs=None,
            scenarios=(
                ScenarioSpec(
                    name="s",
                    kind="static",
                    workloads=(WorkloadSpec(suite="s", names=("S1",)),),
                ),
            ),
        )
        data = spec.to_dict()
        assert data["jobs"] == 0
        assert StudySpec.from_dict(data).jobs is None


class TestValidationErrors:
    def test_unknown_top_level_key(self):
        with pytest.raises(SpecError, match="unknown key 'nam'"):
            StudySpec.from_dict({"nam": "x", "scenarios": []})

    def test_unknown_scenario_key(self):
        data = rich_study().to_dict()
        data["scenarios"][0]["policy"] = []
        with pytest.raises(SpecError, match="'policy'"):
            StudySpec.from_dict(data)

    def test_unknown_engine_key(self):
        with pytest.raises(SpecError, match="EngineSpec"):
            EngineSpec.from_dict({"instructions": 1e9})

    def test_unknown_workload_key_lists_allowed(self):
        with pytest.raises(SpecError, match="allowed keys"):
            WorkloadSpec.from_dict({"suite": "s", "benchmark": ["lbm06"]})

    def test_unknown_policy_name_lists_registered(self):
        with pytest.raises(SpecError, match="registered policy"):
            resolve_policy(PolicySpec("definitely-not-registered"))

    def test_unknown_suite_name(self):
        with pytest.raises(SpecError, match="unknown workload suite"):
            WorkloadSpec(suite="nope").resolve()

    def test_unknown_workload_in_suite(self):
        with pytest.raises(SpecError, match="S999"):
            WorkloadSpec(suite="s", names=("S999",)).resolve()

    def test_unknown_engine_backend(self):
        with pytest.raises(SpecError, match="engine backend"):
            EngineSpec(backend="warp-drive").to_config()

    def test_removed_reference_engine_backend(self):
        with pytest.raises(SpecError, match="'reference' was removed"):
            EngineSpec.from_dict({"backend": "reference"})

    def test_removed_policy_backend_param(self):
        for name in ("dunn", "lfoc", "best_static"):
            with pytest.raises(SpecError, match="rejected params"):
                resolve_policy(PolicySpec(name, params={"backend": "reference"}))

    def test_unknown_solver_backend(self):
        with pytest.raises(SpecError, match="solver backend"):
            SolverSpec.from_dict({"backend": "quantum"})

    def test_removed_solver_backend_key(self):
        for backend in ("tabulated", "reference"):
            with pytest.raises(SpecError, match="SolverSpec.backend was removed"):
                SolverSpec.from_dict({"backend": backend, "exact_limit": 5})
        # The scenario solver table of a study spec gets the same refusal.
        data = rich_study().to_dict()
        data["scenarios"][0]["solver"] = {"backend": "tabulated"}
        with pytest.raises(SpecError, match="SolverSpec.backend was removed"):
            StudySpec.from_dict(data)

    def test_unknown_platform_preset(self):
        with pytest.raises(SpecError, match="platform preset"):
            resolve_platform("commodore64")

    def test_unknown_platform_override_field(self):
        with pytest.raises(SpecError, match="PlatformSpec field"):
            resolve_platform({"ways": 8})

    def test_platform_override_applies(self):
        platform = resolve_platform({"preset": "skylake_gold_6138", "llc_ways": 8})
        assert platform.llc_ways == 8

    def test_bad_scenario_kind(self):
        with pytest.raises(SpecError, match="kind"):
            ScenarioSpec(
                name="x", kind="quantum", workloads=(WorkloadSpec(suite="s"),)
            )

    def test_bad_workload_source(self):
        with pytest.raises(SpecError, match="source"):
            WorkloadSpec(source="oracle")

    def test_random_needs_size(self):
        with pytest.raises(SpecError, match="size"):
            WorkloadSpec(source="random")

    def test_explicit_needs_benchmarks(self):
        with pytest.raises(SpecError, match="benchmarks"):
            WorkloadSpec(source="explicit", name="m")

    def test_duplicate_scenario_names(self):
        scenario = ScenarioSpec(
            name="dup", kind="static", workloads=(WorkloadSpec(suite="s"),)
        )
        with pytest.raises(SpecError, match="unique"):
            StudySpec(name="x", scenarios=(scenario, scenario))

    def test_empty_scenarios(self):
        with pytest.raises(SpecError, match="no scenarios"):
            StudySpec(name="x", scenarios=())

    def test_unsupported_schema_version(self):
        data = rich_study().to_dict()
        data["schema"] = 99
        with pytest.raises(SpecError, match="schema version"):
            StudySpec.from_dict(data)

    def test_inline_policy_refuses_to_serialize(self):
        spec = PolicySpec.inline(LfocPolicy())
        with pytest.raises(SpecError, match="inline"):
            spec.to_dict()
        # ... but resolves to the wrapped instance.
        policy = resolve_policy(spec)
        assert isinstance(policy, LfocPolicy)

    def test_bad_policy_params(self):
        with pytest.raises(SpecError, match="rejected params"):
            resolve_policy(PolicySpec("dunn", params={"warp_factor": 9}))


class TestRegistry:
    def test_decorator_and_direct_registration(self):
        reg = Registry("widget")

        @reg.register("a")
        def make_a():
            return "A"

        reg.register("b", lambda: "B")
        assert reg.resolve("a")() == "A"
        assert reg.resolve("b")() == "B"
        assert reg.names() == ["a", "b"]
        assert "a" in reg and "zzz" not in reg

    def test_duplicate_registration_rejected(self):
        reg = Registry("widget")
        reg.register("a", lambda: None)
        with pytest.raises(SpecError, match="duplicate"):
            reg.register("a", lambda: None)

    def test_unknown_name_lists_alternatives(self):
        reg = Registry("widget")
        reg.register("alpha", lambda: None)
        with pytest.raises(SpecError, match="'alpha'"):
            reg.resolve("beta")

    def test_builtin_registries_are_populated(self):
        from repro.experiments import (
            DRIVERS,
            ENGINE_BACKENDS,
            PLATFORMS,
            POLICIES,
            WORKLOAD_SUITES,
        )
        import repro.experiments as experiments

        assert {"dunn", "kpart", "lfoc", "best_static", "stock"} <= set(POLICIES.names())
        assert {"dunn", "lfoc", "stock", "static"} <= set(DRIVERS.names())
        assert {"s", "p", "all", "dynamic_study"} <= set(WORKLOAD_SUITES.names())
        assert set(ENGINE_BACKENDS.names()) == {"incremental", "multirun"}
        # One exact solver: no solver-backend registry to extend.
        assert not hasattr(experiments, "SOLVER_BACKENDS")
        assert not hasattr(experiments, "register_solver_backend")
        assert "skylake_gold_6138" in PLATFORMS


class TestWorkloadResolution:
    def test_suite_filter_keeps_requested_order(self):
        workloads = WorkloadSpec(suite="s", names=("S3", "S1")).resolve()
        assert [w.name for w in workloads] == ["S3", "S1"]

    def test_suite_max_size_filters(self):
        workloads = WorkloadSpec(suite="s", max_size=8).resolve()
        assert workloads and all(w.size <= 8 for w in workloads)

    def test_explicit_rebuilds_the_same_workload(self):
        from repro.workloads import workload_by_name

        original = workload_by_name("S1")
        rebuilt = WorkloadSpec.from_workload(original).resolve()
        assert rebuilt == [original]

    def test_random_seed_offset_changes_the_draw(self):
        base = WorkloadSpec(source="random", size=4, seed=5)
        first = base.resolve()[0]
        replica = base.resolve(seed_offset=1)[0]
        assert first.name != replica.name
        assert first.size == replica.size == 4


class TestGrid:
    def test_cartesian_product_order(self):
        points = grid(policy=["a", "b"], seed=[0, 1])
        assert points == [
            {"policy": "a", "seed": 0},
            {"policy": "a", "seed": 1},
            {"policy": "b", "seed": 0},
            {"policy": "b", "seed": 1},
        ]

    def test_empty_axes(self):
        assert grid() == [{}]
        with pytest.raises(SpecError, match="empty"):
            grid(ways=[])


class TestEagerLoadValidation:
    """Typos must fail at load time, not after hours of scenario 1."""

    def _scenario(self, **overrides):
        data = {
            "name": "s",
            "kind": "static",
            "workloads": [{"suite": "s", "names": ["S1"]}],
            "policies": ["lfoc"],
        }
        data.update(overrides)
        return data

    def test_seeds_must_be_a_list(self):
        with pytest.raises(SpecError, match="seeds must be a list"):
            ScenarioSpec.from_dict(self._scenario(seeds=3))

    def test_seed_entries_must_be_integers(self):
        with pytest.raises(SpecError, match="seeds must be a list"):
            ScenarioSpec.from_dict(self._scenario(seeds="01"))  # strings rejected
        with pytest.raises(SpecError, match="seeds entries"):
            ScenarioSpec.from_dict(self._scenario(seeds=[0, "1"]))

    def test_unknown_policy_name_fails_at_load(self):
        with pytest.raises(SpecError, match="unknown policy 'lfcc'"):
            ScenarioSpec.from_dict(self._scenario(policies=["lfcc"]))

    def test_unknown_driver_name_fails_at_load(self):
        data = self._scenario(kind="dynamic", policies=["dunnn"])
        with pytest.raises(SpecError, match="unknown policy driver"):
            ScenarioSpec.from_dict(data)

    def test_unknown_suite_fails_at_load(self):
        data = self._scenario(workloads=[{"suite": "dynamc_study"}])
        with pytest.raises(SpecError, match="unknown workload suite"):
            ScenarioSpec.from_dict(data)

    def test_inline_driver_class_names_the_class(self):
        from repro.runtime import DunnUserLevelDaemon

        spec = PolicySpec.inline(DunnUserLevelDaemon)
        assert spec.name == "<inline:DunnUserLevelDaemon>"
        spec = PolicySpec.inline(LfocPolicy())
        assert spec.name == "<inline:LfocPolicy>"


class TestStrictWorkloadFields:
    """Fields that are dead for the chosen source are rejected, not ignored."""

    def test_explicit_rejects_suite_filters(self):
        with pytest.raises(SpecError, match="do not use 'max_size'"):
            WorkloadSpec(
                source="explicit", name="m", benchmarks=("lbm06",), max_size=4
            )

    def test_random_rejects_names_filter(self):
        with pytest.raises(SpecError, match="'names'"):
            WorkloadSpec(source="random", size=4, names=("S1",))

    def test_suite_rejects_seed(self):
        with pytest.raises(SpecError, match="'seed'"):
            WorkloadSpec(suite="s", seed=3)

    def test_explicit_benchmark_typos_fail_at_load(self):
        data = {
            "name": "s",
            "kind": "static",
            "workloads": [
                {"source": "explicit", "name": "mix", "benchmarks": ["lbm6"]}
            ],
        }
        with pytest.raises(SpecError, match="lbm6"):
            ScenarioSpec.from_dict(data)

    def test_suite_names_typos_fail_at_load(self):
        data = {
            "name": "s",
            "kind": "static",
            "workloads": [{"suite": "s", "names": ["S99"]}],
        }
        with pytest.raises(SpecError, match="S99"):
            ScenarioSpec.from_dict(data)


class TestStrictValueCoercion:
    def test_engine_spec_rejects_non_numeric_strings(self):
        with pytest.raises(SpecError, match="min_completions"):
            EngineSpec.from_dict({"min_completions": "three"})
        with pytest.raises(SpecError, match="instructions_per_run"):
            EngineSpec.from_dict({"instructions_per_run": "1e9"})
        with pytest.raises(SpecError, match="record_traces"):
            EngineSpec.from_dict({"record_traces": "yes"})

    def test_engine_spec_rejects_bools_as_numbers(self):
        with pytest.raises(SpecError, match="min_completions"):
            EngineSpec.from_dict({"min_completions": True})

    def test_solver_spec_rejects_non_integers(self):
        with pytest.raises(SpecError, match="exact_limit"):
            SolverSpec.from_dict({"exact_limit": "x"})

    def test_empty_seeds_list_is_an_error(self):
        data = {
            "name": "s",
            "kind": "static",
            "workloads": [{"suite": "s", "names": ["S1"]}],
            "seeds": [],
        }
        with pytest.raises(SpecError, match="no seeds"):
            ScenarioSpec.from_dict(data)


class TestNullAndCollisionHandling:
    def test_null_required_ints_raise_spec_error(self):
        with pytest.raises(SpecError, match="min_completions"):
            EngineSpec.from_dict({"min_completions": None})
        with pytest.raises(SpecError, match="exact_limit"):
            SolverSpec.from_dict({"exact_limit": None})

    def test_null_seed_entry_raises_spec_error(self):
        data = {
            "name": "s",
            "kind": "static",
            "workloads": [{"suite": "s", "names": ["S1"]}],
            "seeds": [None],
        }
        with pytest.raises(SpecError, match="seeds entries"):
            ScenarioSpec.from_dict(data)

    def test_bare_decorator_misuse_raises(self):
        reg = Registry("widget")
        with pytest.raises(SpecError, match="bare @register"):

            @reg.register
            def factory():
                return None

    def test_scenario_id_collision_with_seed_replicas(self):
        seeded = ScenarioSpec(
            name="dyn",
            kind="static",
            workloads=(WorkloadSpec(source="random", size=4),),
            seeds=(0, 1),
        )
        literal = ScenarioSpec(
            name="dyn#s0",
            kind="static",
            workloads=(WorkloadSpec(suite="s", names=("S1",)),),
        )
        with pytest.raises(SpecError, match="collides|named"):
            StudySpec(name="x", scenarios=(seeded, literal))
        with pytest.raises(SpecError, match="collides|named"):
            StudySpec(name="x", scenarios=(literal, seeded))


class TestEmptyWorkloadSweeps:
    def test_fig6_empty_workloads_returns_empty(self):
        from repro.analysis.figures import fig6_static_study, fig7_dynamic_study

        assert fig6_static_study([]) == []
        assert fig7_dynamic_study([]) == []
