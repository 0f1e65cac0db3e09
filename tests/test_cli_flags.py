"""Table tests of the ``lfoc-repro`` flags: each argv reaches the same call.

Every flag the parser accepts is parsed with representative values, and the
call the command makes with them (a builder, ``run_study``,
``run_tournament``, ``run_worker``, ``run_agent`` or the service spec it
serves) is captured instead of run and compared with the call built by hand
through the Python API.
"""

from __future__ import annotations

import argparse
import dataclasses
from pathlib import Path
from types import SimpleNamespace

import pytest

import repro.cli as cli
import repro.runtime.executors as executors
import repro.service.agent as agent_module
import repro.tournament as tournament
from repro.cli import main
from repro.experiments import (
    EngineSpec,
    ExecutorSpec,
    ServiceSpec,
    build_sweep_study,
    load_study_spec,
)
from repro.experiments.schema import Spec
from repro.experiments.specs import FaultToleranceSpec
from repro.runtime import EngineConfig
from repro.runtime.executors import FaultPlan
from repro.tournament import load_tournament_spec
from repro.workloads import dynamic_study_workloads, static_study_workloads

ROOT = Path(__file__).resolve().parents[1]
TOURNAMENT_SPEC = str(ROOT / "examples" / "tournament_small.toml")

STUDY_TOML = """\
schema = 1
name = "cli-table"

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


class Called(Exception):
    """Raised by a captured callee in place of running it."""

    def __init__(self, target, *args, **kwargs):
        super().__init__(target)
        self.call = (target, plain(args), plain(kwargs))


def plain(value):
    """Comparable image of a call argument."""
    if isinstance(value, (Spec, FaultPlan)):
        return value.to_dict()
    if isinstance(value, EngineConfig):
        return dataclasses.asdict(value)
    if isinstance(value, dict):
        return {key: plain(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [plain(item) for item in value]
    return value


def names(workloads):
    return [w.name for w in workloads]


@pytest.fixture()
def capture(monkeypatch):
    def raiser(target, skip=0):
        """A callee that raises its call, minus the first ``skip`` arguments."""

        def call(*args, **kwargs):
            raise Called(target, *args[skip:], **kwargs)

        return call

    for name in (
        "fig2_optimal_breakdown",
        "fig3_clustering_vs_partitioning",
        "table2_algorithm_cost",
        "run_study",
    ):
        monkeypatch.setattr(cli, name, raiser(name))

    def fig6(workloads, *, jobs):
        raise Called("fig6_static_study", names(workloads), jobs=jobs)

    def fig7(workloads, *, engine_config, jobs):
        raise Called(
            "fig7_dynamic_study", names(workloads), engine_config=engine_config, jobs=jobs
        )

    monkeypatch.setattr(cli, "fig6_static_study", fig6)
    monkeypatch.setattr(cli, "fig7_dynamic_study", fig7)
    monkeypatch.setattr(tournament, "run_tournament", raiser("run_tournament"))
    monkeypatch.setattr(executors, "run_worker", raiser("run_worker"))
    monkeypatch.setattr(agent_module, "run_agent", raiser("run_agent"))

    def create(self, *, quiet=True):
        return SimpleNamespace(
            address=("127.0.0.1", 1), restored=False, supervise=self.supervise, quiet=quiet
        )

    def serve(self, daemon, *, until_byes=None, max_seconds=None):
        raise Called(
            "serve", self, quiet=daemon.quiet, until_byes=until_byes, max_seconds=max_seconds
        )

    monkeypatch.setattr(ServiceSpec, "create", create)
    monkeypatch.setattr(ServiceSpec, "serve", serve)
    monkeypatch.setattr(
        tournament.TournamentResult, "load", classmethod(lambda cls, path: SimpleNamespace(rows=[]))
    )
    monkeypatch.setattr(tournament, "load_baseline", lambda path: f"baseline:{path}")
    for name in ("check_regression", "write_baseline", "nerf_rows"):
        monkeypatch.setattr(tournament, name, raiser(name, skip=1))


def _engine(instructions=1.0e9, min_completions=2):
    return EngineSpec(
        instructions_per_run=instructions, min_completions=min_completions, record_traces=False
    )


STUDY = object()  # stands for the loaded study spec file
TOURNAMENT = object()  # stands for the loaded tournament spec file
ENGINE_FIG7 = EngineConfig(instructions_per_run=1.0e9, min_completions=2, record_traces=False)


def _cases():
    plan = '{"drop_frames": [3], "corrupt_frames": [1]}'
    agent_plan = '{"agent_kill_batches": [3], "agent_corrupt_frames": [5]}'
    return [
        # -- figure / table builders --
        (["fig2"], ("fig2_optimal_breakdown", (8, 8), {})),
        (["fig2", "--workloads", "3", "--size", "5"], ("fig2_optimal_breakdown", (3, 5), {})),
        (["fig3"], ("fig3_clustering_vs_partitioning", ([4, 5, 6, 7, 8], 3), {})),
        (
            ["fig3", "--sizes", "4", "5", "--per-size", "2"],
            ("fig3_clustering_vs_partitioning", ([4, 5], 2), {}),
        ),
        (
            ["fig6"],
            ("fig6_static_study", (names(static_study_workloads()),),
             dict(jobs=1)),
        ),
        (
            ["fig6", "--max-size", "8", "--jobs", "0"],
            ("fig6_static_study", (names(static_study_workloads(max_size=8)),),
             dict(jobs=None)),
        ),
        (
            ["fig7"],
            ("fig7_dynamic_study", (names(dynamic_study_workloads()),),
             dict(engine_config=ENGINE_FIG7, jobs=1)),
        ),
        (
            ["fig7", "--quick", "--instructions", "5e8", "--jobs", "2"],
            ("fig7_dynamic_study",
             (names(w for w in dynamic_study_workloads() if w.size <= 8),),
             dict(engine_config=dataclasses.replace(ENGINE_FIG7, instructions_per_run=5e8),
                  jobs=2)),
        ),
        (["table2"], ("table2_algorithm_cost", ([4, 5, 6, 7, 8, 9, 10, 11], 5), {})),
        (
            ["table2", "--sizes", "4", "6", "--repetitions", "2"],
            ("table2_algorithm_cost", ([4, 6], 2), {}),
        ),
        # -- run --
        (["run", "{study}"],
         ("run_study", (STUDY,), dict(executor=None, checkpoint=None, resume=False))),
        (["run", "{study}", "--jobs", "3"],
         ("run_study", (STUDY,), dict(jobs=3, executor=None, checkpoint=None, resume=False))),
        (["run", "{study}", "--jobs", "0"],
         ("run_study", (STUDY,), dict(jobs=None, executor=None, checkpoint=None,
                                      resume=False))),
        (
            ["run", "{study}", "--executor", "tcp", "--workers", "2",
             "--bind", "127.0.0.1:7070", "--task-timeout", "30",
             "--heartbeat-grace", "12.5", "--chaos", plan],
            ("run_study", (STUDY,), dict(
                executor=ExecutorSpec(
                    name="tcp", workers=2, bind="127.0.0.1:7070", task_timeout_s=30.0,
                    heartbeat_grace_s=12.5, chaos={"drop_frames": [3], "corrupt_frames": [1]},
                ),
                checkpoint=None, resume=False,
            )),
        ),
        (
            ["run", "{study}", "--executor", "pool",
             "--fault-tolerance", '{"max_attempts": 2, "backoff_s": 0.1}',
             "--checkpoint", "{tmp}/ckpt.jsonl", "--resume", "--out", "{tmp}/rows.jsonl"],
            ("run_study", (STUDY,), dict(
                executor=ExecutorSpec(name="pool"), checkpoint="{tmp}/ckpt.jsonl", resume=True,
                fault_tolerance=FaultToleranceSpec(max_attempts=2, backoff_s=0.1),
            )),
        ),
        (["run", "{study}", "--fault-tolerance", "true"],
         ("run_study", (STUDY,), dict(executor=None, checkpoint=None, resume=False,
                                      fault_tolerance=FaultToleranceSpec()))),
        (["run", "{study}", "--fault-tolerance", "false"],
         ("run_study", (STUDY,), dict(executor=None, checkpoint=None, resume=False,
                                      fault_tolerance=None))),
        # -- worker --
        (["worker", "--connect", "127.0.0.1:7070"],
         ("run_worker", ("127.0.0.1:7070",),
          dict(max_runs=None, crash_after=None, quiet=False, chaos=None))),
        (
            ["worker", "--connect", "127.0.0.1:7070", "--max-runs", "4", "--crash-after", "1",
             "--chaos", '{"kill_runs": [0], "duplicate_results": [2]}', "--quiet"],
            ("run_worker", ("127.0.0.1:7070",), dict(
                max_runs=4, crash_after=1, quiet=True,
                chaos=FaultPlan.from_dict({"kill_runs": [0], "duplicate_results": [2]}),
            )),
        ),
        # -- serve --
        (["serve"],
         ("serve", (ServiceSpec(),), dict(quiet=False, until_byes=None, max_seconds=None))),
        (["serve", "--once"],
         ("serve", (ServiceSpec(),), dict(quiet=False, until_byes=1, max_seconds=None))),
        (
            ["serve", "--bind", "127.0.0.1:7080", "--policy", "dunn", "--ways", "8",
             "--supervise", "2", "--workload", "S1", "--batches", "12", "--seed", "3",
             "--agent-chaos", '{"agent_kill_batches": [3]}',
             "--replay-log", "{tmp}/replay.jsonl", "--snapshot", "{tmp}/daemon.snapshot",
             "--snapshot-every", "1", "--max-seconds", "30", "--quiet"],
            ("serve", (ServiceSpec(
                bind="127.0.0.1:7080", policy="dunn", ways=8, supervise=2, workload="S1",
                batches=12, seed=3, agent_chaos={"agent_kill_batches": [3]},
                replay_log="{tmp}/replay.jsonl", snapshot="{tmp}/daemon.snapshot",
                snapshot_every_s=1.0,
            ),), dict(quiet=True, until_byes=2, max_seconds=30.0)),
        ),
        # -- agent --
        (
            ["agent", "--connect", "127.0.0.1:7080", "--workload", "S1"],
            ("run_agent", (("127.0.0.1", 7080),), dict(
                host_id="host0", workload="S1", batches=50, seed=0, n_ways=None, chaos=None,
                quiet=False,
            )),
        ),
        (
            ["agent", "--connect", "127.0.0.1:7080", "--host-id", "h3", "--workload", "P2",
             "--batches", "7", "--seed", "4", "--ways", "8", "--chaos", agent_plan, "--quiet"],
            ("run_agent", (("127.0.0.1", 7080),), dict(
                host_id="h3", workload="P2", batches=7, seed=4, n_ways=8,
                chaos=FaultPlan.from_dict(
                    {"agent_kill_batches": [3], "agent_corrupt_frames": [5]}
                ).to_dict(),
                quiet=True,
            )),
        ),
        # -- tournament --
        (["tournament", "run", "{tournament}"],
         ("run_tournament", (TOURNAMENT,), dict(executor=None, checkpoint=None, resume=False))),
        (["tournament", "run", "{tournament}", "--jobs", "3"],
         ("run_tournament", (TOURNAMENT,),
          dict(jobs=3, executor=None, checkpoint=None, resume=False))),
        (
            ["tournament", "run", "{tournament}", "--jobs", "0", "--executor", "supervised",
             "--workers", "2", "--bind", "127.0.0.1:0", "--fault-tolerance", "true",
             "--checkpoint", "{tmp}/ckpt.jsonl", "--resume", "--out", "{tmp}/verdict.jsonl",
             "--markdown", "{tmp}/board.md"],
            ("run_tournament", (TOURNAMENT,), dict(
                jobs=None, executor=ExecutorSpec(name="supervised", workers=2, bind="127.0.0.1:0"),
                checkpoint="{tmp}/ckpt.jsonl", resume=True, fault_tolerance=FaultToleranceSpec(),
            )),
        ),
        (["tournament", "gate", "{tmp}/v.jsonl", "--baseline", "{tmp}/b.json"],
         ("check_regression", ("baseline:{tmp}/b.json",), dict(margin=0.0))),
        (["tournament", "gate", "{tmp}/v.jsonl", "--baseline", "{tmp}/b.json",
          "--margin", "0.05"],
         ("check_regression", ("baseline:{tmp}/b.json",), dict(margin=0.05))),
        (["tournament", "gate", "{tmp}/v.jsonl", "--baseline", "{tmp}/b.json", "--update"],
         ("write_baseline", ("{tmp}/b.json",), {})),
        (["tournament", "gate", "{tmp}/v.jsonl", "--baseline", "{tmp}/b.json",
          "--nerf", "LFOC", "--nerf-factor", "1.5"],
         ("nerf_rows", ("LFOC", 1.5), {})),
        (["tournament", "gate", "{tmp}/v.jsonl", "--baseline", "{tmp}/b.json",
          "--nerf", "LFOC"],
         ("nerf_rows", ("LFOC", 1.25), {})),
        # -- sweep --
        (
            ["sweep"],
            ("run_study", (build_sweep_study(
                "sweep", "static", ["dunn", "lfoc"], ["S1"], engine=_engine(), jobs=1
            ),), {}),
        ),
        (
            ["sweep", "--name", "sw", "--kind", "dynamic", "--policies", "lfoc",
             "--workloads", "S1", "P1", "--ways", "6", "8", "--seeds", "0", "1",
             "--instructions", "5e8", "--min-completions", "1", "--jobs", "0",
             "--out", "{tmp}/rows.jsonl", "--dump-spec", "{tmp}/sweep.toml"],
            ("run_study", (build_sweep_study(
                "sw", "dynamic", ["lfoc"], ["S1", "P1"], ways=[6, 8], seeds=[0, 1],
                engine=_engine(5e8, 1), jobs=None,
            ),), {}),
        ),
        (
            ["sweep", "--jobs", "2"],
            ("run_study", (build_sweep_study(
                "sweep", "static", ["dunn", "lfoc"], ["S1"], engine=_engine(), jobs=2
            ),), {}),
        ),
    ]


CASES = _cases()


@pytest.mark.parametrize(
    "argv, expected", CASES, ids=[" ".join(argv)[:60] for argv, _ in CASES]
)
def test_flags_reach_the_same_call(argv, expected, capture, tmp_path, capsys):
    study_path = tmp_path / "study.toml"
    study_path.write_text(STUDY_TOML, encoding="utf-8")
    fill = {"{study}": str(study_path), "{tournament}": TOURNAMENT_SPEC, "{tmp}": str(tmp_path)}

    def subst(value):
        if value is STUDY:
            return load_study_spec(study_path)
        if value is TOURNAMENT:
            return load_tournament_spec(TOURNAMENT_SPEC)
        if isinstance(value, str):
            for key, text in fill.items():
                value = value.replace(key, text)
            return value
        if isinstance(value, Spec):
            return value.from_dict(subst(value.to_dict()))
        if isinstance(value, dict):
            return {key: subst(item) for key, item in value.items()}
        if isinstance(value, (list, tuple)):
            return type(value)(subst(item) for item in value)
        return value

    with pytest.raises(Called) as caught:
        main([subst(arg) for arg in argv])
    capsys.readouterr()
    target, args, kwargs = expected
    assert caught.value.call == (target, plain(subst(args)), plain(subst(kwargs)))


def _generated_flags():
    """``(command, flag, action)`` of every flag built from a spec field."""
    stack = [("", cli.build_parser())]
    while stack:
        command, parser = stack.pop()
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                stack.extend(
                    (f"{command} {name}".strip(), child) for name, child in action.choices.items()
                )
            elif hasattr(action, "spec_field"):
                yield command, action.option_strings[0], action


def test_generated_flags_take_defaults_and_choices_from_their_field():
    flags = {}
    for command, flag, action in _generated_flags():
        field = action.spec_field
        assert action.default is None, (command, flag)
        assert action.choices == field.meta.get("choices"), (command, flag)
        assert action.help == field.meta["help"], (command, flag)
        flags.setdefault(command, []).append(flag)
    service = ["--bind", "--policy", "--ways", "--supervise", "--workload", "--batches",
               "--seed", "--agent-chaos", "--replay-log", "--snapshot", "--snapshot-every"]
    execution = ["--jobs", "--executor", "--workers", "--bind"]
    assert flags == {
        "fig7": ["--instructions"],
        "run": [*execution, "--task-timeout", "--heartbeat-grace", "--chaos",
                "--fault-tolerance"],
        "serve": service,
        "agent": ["--workload", "--batches", "--seed", "--ways"],
        "tournament run": [*execution, "--fault-tolerance"],
        "sweep": ["--instructions", "--min-completions"],
    }


def test_only_address_flags_read_host_port():
    metavars = {
        (command, flag): action.metavar for command, flag, action in _generated_flags()
    }
    assert {key for key, metavar in metavars.items() if metavar == "HOST:PORT"} == {
        ("run", "--bind"), ("tournament run", "--bind"), ("serve", "--bind"),
    }
    assert metavars["serve", "--workload"] == metavars["agent", "--workload"] == "WORKLOAD"
