"""The one spec codec: field-derived schema, the one file loader, boundary errors.

The hypothesis strategies here are derived from each class's field plan
(:func:`repro.experiments.schema.spec_fields`): the annotation picks the
value strategy and the ``metadata`` bounds and choices narrow it.  Only the
fields whose valid values live in a registry (policy, executor and backend
names, suites, benchmarks, platforms) get hand-written strategies.
"""

from __future__ import annotations

import collections.abc
import importlib
import json
import sys
import types
import typing
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.errors import SpecError
from repro.experiments import (
    EngineSpec,
    ExecutorSpec,
    PolicySpec,
    ScenarioSpec,
    ServiceSpec,
    SolverSpec,
    StudySpec,
    WorkloadSpec,
    load_study_spec,
    resolve_platform,
    toml_dumps,
)
from repro.experiments import io as spec_io
from repro.experiments.io import parse_spec_text, read_spec_file
from repro.experiments.schema import Spec, spec_fields
from repro.experiments.specs import FaultToleranceSpec
from repro.tournament import (
    StatsSpec,
    SuiteSpec,
    TournamentSpec,
    load_tournament_spec,
)

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"

SPEC_CLASSES = (
    WorkloadSpec,
    PolicySpec,
    EngineSpec,
    SolverSpec,
    ExecutorSpec,
    ServiceSpec,
    FaultToleranceSpec,
    ScenarioSpec,
    StudySpec,
    SuiteSpec,
    StatsSpec,
    TournamentSpec,
)

# ---------------------------------------------------------------------------
# Strategies derived from the field plan
# ---------------------------------------------------------------------------

_TEXT = st.text(alphabet="abcxyz-_ 09", min_size=1, max_size=8)
_SCALAR = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 64), st.floats(-10, 1e3), _TEXT
)
_PLATFORMS = st.sampled_from(
    ["skylake_gold_6138", {"preset": "skylake_gold_6138", "llc_ways": 8}]
)
_WORKLOAD = st.one_of(
    st.builds(
        WorkloadSpec,
        suite=st.sampled_from(["s", "dynamic_study"]),
        names=st.sampled_from([None, ("S1",), ("S1", "P1")]),
    ).filter(lambda w: w.suite == "dynamic_study" or w.names != ("S1", "P1")),
    st.builds(
        WorkloadSpec,
        source=st.just("explicit"),
        name=_TEXT,
        benchmarks=st.sampled_from([("lbm06",), ("lbm06", "gamess06")]),
        kind=st.one_of(st.none(), _TEXT),
    ),
    st.builds(
        WorkloadSpec,
        source=st.just("random"),
        size=st.integers(2, 8),
        kind=st.sampled_from([None, "S", "P"]),
        seed=st.one_of(st.none(), st.integers(0, 10_000)),
        name=st.one_of(st.none(), _TEXT),
    ),
)

#: Fields whose valid values come from a registry or span other fields.
OVERRIDES = {
    (PolicySpec, "name"): st.sampled_from(["lfoc", "dunn", "stock"]),
    (PolicySpec, "params"): st.dictionaries(_TEXT, _SCALAR, max_size=2),
    (EngineSpec, "backend"): st.sampled_from(["incremental", "multirun"]),
    (ExecutorSpec, "name"): st.sampled_from(["serial", "pool", "tcp", "supervised"]),
    (ExecutorSpec, "bind"): st.sampled_from([None, "127.0.0.1:0", "localhost:7070"]),
    (ExecutorSpec, "chaos"): st.sampled_from([None, {}, {"kill_runs": [1]}]),
    (ServiceSpec, "bind"): st.sampled_from(["127.0.0.1:0", "0.0.0.0:7080"]),
    (ServiceSpec, "agent_chaos"): st.sampled_from([None, {"agent_kill_batches": [3]}]),
    (ServiceSpec, "workload"): st.sampled_from([None, "S1", "P12"]),
    (ScenarioSpec, "platform"): _PLATFORMS,
    (ScenarioSpec, "seeds"): st.lists(st.integers(0, 50), min_size=1, max_size=3, unique=True).map(tuple),
    (TournamentSpec, "platforms"): st.lists(_PLATFORMS, min_size=1, max_size=2, unique_by=str).map(tuple),
    (TournamentSpec, "policies"): st.lists(
        st.sampled_from(["lfoc", "dunn", "stock"]), min_size=2, max_size=3, unique=True
    ).map(lambda names: tuple(PolicySpec(n) for n in names)),
}


def _bounded(meta, low, high):
    low = max(low, meta.get("ge", low), meta.get("gt", low - 1) + 1)
    return low, max(low, high)


def values(tp, meta) -> st.SearchStrategy:
    """Valid values of one annotation under its field metadata."""
    if "choices" in meta:
        return st.sampled_from(meta["choices"])
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is typing.Union:
        inner = next(a for a in args if a is not type(None))
        return st.one_of(st.none(), values(inner, meta))
    if origin is tuple:
        return st.lists(values(args[0], {}), min_size=1, max_size=3).map(tuple)
    if origin is collections.abc.Mapping:
        return st.dictionaries(_TEXT, _SCALAR, max_size=2)
    if isinstance(tp, type) and issubclass(tp, Spec):
        return specs(tp)
    if tp is bool:
        return st.booleans()
    if tp is int:
        return st.integers(*_bounded(meta, -5, 40))
    if tp is float:
        low = meta.get("ge", meta.get("gt", -1e3))
        return st.floats(
            low,
            meta.get("lt", 1e6),
            exclude_min="gt" in meta,
            exclude_max="lt" in meta,
            allow_nan=False,
        )
    if tp is str:
        return st.one_of(st.just(""), _TEXT) if meta.get("blank") else _TEXT
    raise AssertionError(f"no strategy for {tp!r}")  # pragma: no cover


def _field_values(cls, f) -> st.SearchStrategy:
    override = OVERRIDES.get((cls, f.name))
    return override if override is not None else values(f.type, f.meta)


@st.composite
def _build(draw, cls):
    kwargs = {}
    for f in spec_fields(cls):
        if not f.required and draw(st.booleans()):
            continue  # keep the default
        kwargs[f.name] = draw(_field_values(cls, f))
    try:
        return cls(**kwargs)
    except SpecError:
        assume(False)


def specs(cls) -> st.SearchStrategy:
    """Valid instances of one spec class."""
    if cls is WorkloadSpec:
        return _WORKLOAD
    return st.deferred(lambda: _build(cls))


def mappings(cls) -> st.SearchStrategy:
    """Arbitrary mappings over the class's keys: junk, valid values and
    nested mappings, plus stray keys."""
    plan = spec_fields(cls)
    junk = st.recursive(
        _SCALAR | st.floats(allow_nan=True, allow_infinity=True),
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.one_of(_TEXT, st.integers()), inner, max_size=3),
        max_leaves=6,
    )
    entries = [
        st.tuples(
            st.just(f.name),
            st.one_of(
                junk,
                _field_values(cls, f).map(
                    lambda v: v.to_dict() if isinstance(v, Spec) else v
                ),
            ),
        )
        for f in plan
    ]
    entries.append(st.tuples(st.sampled_from(["schema", "backend", "bogus"]), junk))
    return st.lists(st.one_of(entries), max_size=len(plan) + 1).map(dict)


FUZZ = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


class TestDerivedProperties:
    @pytest.mark.parametrize("cls", SPEC_CLASSES, ids=lambda c: c.__name__)
    def test_any_mapping_gives_a_spec_or_a_spec_error(self, cls):
        @FUZZ
        @given(data=mappings(cls))
        def check(data):
            try:
                spec = cls.from_dict(data)
            except SpecError:
                return
            assert isinstance(spec, cls)

        check()

    @pytest.mark.parametrize("cls", SPEC_CLASSES, ids=lambda c: c.__name__)
    def test_dict_round_trip(self, cls):
        @FUZZ
        @given(spec=specs(cls))
        def check(spec):
            data = spec.to_dict()
            assert cls.from_dict(data) == spec
            assert cls.from_dict(json.loads(json.dumps(data))) == spec

        check()

    def test_every_spec_class_is_covered(self):
        import repro.experiments.specs as specs_module
        import repro.tournament.grid as grid_module

        found = {
            obj
            for module in (specs_module, grid_module)
            for obj in vars(module).values()
            if isinstance(obj, type) and issubclass(obj, Spec) and obj is not Spec
        }
        assert found == set(SPEC_CLASSES)


# ---------------------------------------------------------------------------
# Examples and the one loader
# ---------------------------------------------------------------------------


def _spec_class(data) -> type:
    if "service" in data:
        return ServiceSpec
    return TournamentSpec if "suites" in data else StudySpec


def _load_example(path: Path):
    data = read_spec_file(path, "example")
    cls = _spec_class(data)
    return cls, cls.from_dict(data.get("service", data))


class TestExamples:
    @pytest.mark.parametrize(
        "path", sorted(EXAMPLES.glob("*.toml")), ids=lambda p: p.name
    )
    def test_example_round_trips_through_toml_and_json(self, path):
        cls, spec = _load_example(path)
        data = spec.to_dict()
        assert cls.from_dict(data) == spec
        assert cls.from_dict(parse_spec_text(toml_dumps(data), "toml")) == spec
        assert cls.from_dict(parse_spec_text(json.dumps(data), "json")) == spec

    def test_every_kind_of_example_is_covered(self):
        kinds = {_load_example(p)[0] for p in EXAMPLES.glob("*.toml")}
        assert kinds == {StudySpec, TournamentSpec, ServiceSpec}

    def test_service_loader_names_missing_and_malformed_files(self, tmp_path):
        with pytest.raises(SpecError, match="cannot read service spec"):
            ServiceSpec.load(str(tmp_path / "missing.toml"))
        bad = tmp_path / "bad.json"
        bad.write_text("{nope", encoding="utf-8")
        with pytest.raises(SpecError, match="service spec is not valid JSON"):
            ServiceSpec.load(str(bad))
        bad_toml = tmp_path / "bad.toml"
        bad_toml.write_text("[service\n", encoding="utf-8")
        with pytest.raises(SpecError, match="service spec is not valid TOML"):
            ServiceSpec.load(str(bad_toml))
        with pytest.raises(SpecError, match=".toml or .json"):
            ServiceSpec.load(str(tmp_path / "service.yaml"))

    def test_every_loader_reads_toml_with_only_tomli(self, monkeypatch):
        """Python 3.10: no stdlib tomllib, the tomli backport installed."""
        stdlib = spec_io.tomllib
        tomli = types.ModuleType("tomli")
        tomli.loads = stdlib.loads
        tomli.TOMLDecodeError = stdlib.TOMLDecodeError
        monkeypatch.setitem(sys.modules, "tomllib", None)
        monkeypatch.setitem(sys.modules, "tomli", tomli)
        try:
            importlib.reload(spec_io)
            assert spec_io.tomllib is tomli
            assert load_study_spec(EXAMPLES / "study_fig7.toml").name == "fig7-smoke"
            assert load_tournament_spec(EXAMPLES / "tournament_small.toml").name == "small"
            assert ServiceSpec.load(str(EXAMPLES / "service_session.toml")).workload == "S1"
        finally:
            monkeypatch.undo()
            importlib.reload(spec_io)
        assert spec_io.tomllib is stdlib


# ---------------------------------------------------------------------------
# Boundary errors found in the hand-written codecs
# ---------------------------------------------------------------------------


class TestBoundaryErrors:
    def test_service_snapshot_period_must_be_a_number(self):
        with pytest.raises(SpecError, match="snapshot_every_s must be a number"):
            ServiceSpec.from_dict({"snapshot_every_s": "abc"})
        with pytest.raises(SpecError, match="snapshot_every_s must be a number"):
            ServiceSpec.from_dict({"snapshot_every_s": True})
        assert ServiceSpec.from_dict({"snapshot_every_s": 2}).snapshot_every_s == 2.0

    @pytest.mark.parametrize("bind", [5, "nonsense", "127.0.0.1:99999"])
    def test_service_bind_is_parsed(self, bind):
        with pytest.raises(SpecError, match="service bind is invalid"):
            ServiceSpec.from_dict({"bind": bind})
        with pytest.raises(SpecError, match="service bind is invalid"):
            ServiceSpec(bind=bind)

    def test_policy_name_and_label_must_be_strings(self):
        with pytest.raises(SpecError, match="PolicySpec.name"):
            PolicySpec(name=5)
        with pytest.raises(SpecError, match="PolicySpec.name"):
            PolicySpec.from_dict({"name": 5})
        with pytest.raises(SpecError, match="PolicySpec.label"):
            PolicySpec.from_dict({"name": "lfoc", "label": 5})

    def test_study_jobs_and_description_are_checked(self):
        data = {
            "name": "j",
            "scenarios": [
                {"name": "s", "kind": "static", "workloads": [{"suite": "s"}]}
            ],
        }
        with pytest.raises(SpecError, match="StudySpec.jobs must be >= 1"):
            StudySpec.from_dict({**data, "jobs": -1})
        with pytest.raises(SpecError, match="StudySpec.description"):
            StudySpec.from_dict({**data, "description": 5})
        # 0 stands for "all CPUs" in files and in direct construction alike.
        assert StudySpec.from_dict({**data, "jobs": 0}).jobs is None
        spec = StudySpec.from_dict(data)
        assert StudySpec(name="j", scenarios=spec.scenarios, jobs=0).jobs is None

    def test_serve_is_validated_like_the_service_spec(self):
        with pytest.raises(SpecError, match="ServiceSpec.batches must be >= 1"):
            ServiceSpec(batches=0)
        with pytest.raises(SpecError, match="ServiceSpec.batches must be >= 1"):
            main(["serve", "--batches", "0", "--supervise", "1",
                  "--workload", "S1", "--quiet"])
        with pytest.raises(SpecError, match="service bind is invalid"):
            main(["serve", "--bind", "nonsense", "--quiet"])

    def test_serve_refuses_an_unknown_workload_before_any_agent_spawns(self, monkeypatch):
        from repro.service.daemon import PartitionDaemon

        def spawn(*args, **kwargs):
            raise AssertionError("the daemon started before its workload was checked")

        monkeypatch.setattr(PartitionDaemon, "__init__", spawn)
        with pytest.raises(SpecError, match="ServiceSpec.workload 'S99' is not an evaluation workload"):
            main(["serve", "--supervise", "1", "--workload", "S99", "--quiet"])

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--batches", "0"], "ServiceSpec.batches must be >= 1"),
            (["--batches", "-3"], "ServiceSpec.batches must be >= 1"),
            (["--ways", "0"], "ServiceSpec.ways must be >= 1"),
            (["--workload", ""], "ServiceSpec.workload must be a non-empty string"),
            (["--workload", "S99"], "ServiceSpec.workload 'S99' is not an evaluation workload"),
        ],
    )
    def test_agent_is_validated_like_the_service_spec(self, monkeypatch, flags, message):
        import repro.service.agent as agent

        def connect(*args, **kwargs):
            raise AssertionError("the agent connected before its flags were checked")

        monkeypatch.setattr(agent, "run_agent", connect)
        argv = ["agent", "--connect", "127.0.0.1:9", "--workload", "S1", *flags]
        with pytest.raises(SpecError, match=message):
            main(argv)

    def test_serve_chaos_error_names_its_flag(self):
        with pytest.raises(SpecError, match="^--agent-chaos is not valid JSON"):
            main(["serve", "--agent-chaos", "{bad", "--supervise", "1",
                  "--workload", "S1", "--quiet"])

    @pytest.mark.parametrize("value", ["x", 0])
    def test_platform_override_errors_name_the_field(self, value):
        with pytest.raises(SpecError, match="llc_ways"):
            resolve_platform({"llc_ways": value})

    @pytest.mark.parametrize(
        "key, value", [("llc_ways", 2.5), ("llc_ways", True), ("n_cores", "4"), ("freq_ghz", "x")]
    )
    def test_platform_override_types_are_checked(self, key, value):
        with pytest.raises(SpecError, match=f"platform override '{key}' must be"):
            resolve_platform({key: value})

    def test_platform_override_int_for_float_is_normalised(self):
        platform = resolve_platform({"freq_ghz": 3, "llc_ways": 8})
        assert platform.freq_ghz == 3.0 and isinstance(platform.freq_ghz, float)
        assert platform.llc_ways == 8

    def test_scenario_seeds_must_be_non_negative(self):
        data = {"name": "neg", "kind": "static", "workloads": [{"suite": "s"}], "seeds": [0, -1]}
        with pytest.raises(SpecError, match=r"scenario 'neg' seeds must be >= 0, got -1"):
            ScenarioSpec.from_dict(data)

    def test_engine_ranges_are_spec_errors(self):
        with pytest.raises(SpecError, match="EngineSpec.min_completions must be >= 1"):
            EngineSpec.from_dict({"min_completions": 0})
        with pytest.raises(SpecError, match="EngineSpec.instructions_per_run"):
            EngineSpec(instructions_per_run=0.0)

    def test_random_workload_seed_must_be_non_negative(self):
        with pytest.raises(SpecError, match="WorkloadSpec.seed must be >= 0"):
            WorkloadSpec.from_dict({"source": "random", "size": 4, "seed": -1})
        with pytest.raises(SpecError, match="SuiteSpec.seed must be >= 0"):
            SuiteSpec(size=4, seed=-1)

    def test_tombstone_messages_are_unchanged(self):
        messages = {
            lambda: EngineSpec.from_dict({"backend": "reference"}):
                "EngineSpec.backend 'reference' was removed (the reference "
                "engine loop is a test oracle); use 'incremental' or 'multirun'",
            lambda: SolverSpec.from_dict({"backend": "tabulated"}):
                "SolverSpec.backend was removed (the tabulated scorer is the "
                "only solver backend; the per-candidate reference search is a "
                "test oracle); drop the 'backend' key from the solver table",
            lambda: ExecutorSpec.from_dict({"name": "tcp", "unsafe_pickle": True}):
                "ExecutorSpec.unsafe_pickle was removed (the safe codec is the "
                "only wire codec; the pickle codec is gone); drop the "
                "'unsafe_pickle' key from the executor table",
            lambda: ServiceSpec.from_dict({"monitor_backend": "bank"}):
                "ServiceSpec.monitor_backend was removed (the fused MonitorBank "
                "is the only monitor ingest; the per-AppMonitor reference ingest "
                "is a test oracle); drop the 'monitor_backend' key from the "
                "service table",
            lambda: EngineSpec.from_dict({"tables_path": "fig7.tables"}):
                "EngineSpec.tables_path was removed (evaluation tables are "
                "in-memory only; the persisted warm-start file is gone); drop "
                "the 'tables_path' key from the engine table",
        }
        for call, message in messages.items():
            with pytest.raises(SpecError) as info:
                call()
            assert str(info.value) == message


class TestTournamentPlatforms:
    def test_preset_only_mapping_is_the_preset_name(self):
        base = dict(name="t", policies=("lfoc", "dunn"), suites=(SuiteSpec(size=4),))
        named = TournamentSpec(**base, platforms=("skylake_gold_6138",))
        mapped = TournamentSpec(**base, platforms=({"preset": "skylake_gold_6138"},))
        assert named == mapped
        assert named.to_dict()["platforms"] == [{"preset": "skylake_gold_6138"}]
        assert TournamentSpec.from_dict(named.to_dict()) == named

    def test_example_tournament_round_trips(self):
        spec = load_tournament_spec(EXAMPLES / "tournament_small.toml")
        assert TournamentSpec.from_dict(spec.to_dict()) == spec
