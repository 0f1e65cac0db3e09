"""Command-line interface: ``lfoc-repro``.

A thin front-end over the analysis builders so the experiments can be
regenerated without writing Python:

.. code-block:: console

   $ lfoc-repro fig1                 # slowdown / LLCMPKC curves (Fig. 1)
   $ lfoc-repro table1               # benchmark classification (Table 1)
   $ lfoc-repro fig3 --sizes 4 5 6   # optimal clustering vs partitioning
   $ lfoc-repro fig6 --max-size 8    # static clustering study
   $ lfoc-repro fig7 --quick         # dynamic study on the 8-app workloads
   $ lfoc-repro table2               # LFOC vs KPart algorithm cost

and over the declarative study API, so *arbitrary* studies run from a spec
file with no Python at all:

.. code-block:: console

   $ lfoc-repro run examples/study_fig7.toml --jobs 2 --out rows.jsonl
   $ lfoc-repro sweep --kind dynamic --policies dunn lfoc \\
         --workloads P1 S1 --seeds 0 1 --out sweep.jsonl

Execution is pluggable (see ``repro.runtime.executors``): ``run`` accepts
``--executor serial|pool|tcp|supervised`` plus ``--workers``/``--bind``.
The ``supervised`` executor spawns and babysits its own local workers
(crash → respawn with backoff), so a distributed study is one command:

.. code-block:: console

   $ lfoc-repro run study.toml --executor supervised --workers 2 \\
         --checkpoint rows.jsonl

For remote hosts, the ``worker`` subcommand still turns any machine into a
run worker for a ``tcp`` coordinator:

.. code-block:: console

   $ lfoc-repro worker --connect 127.0.0.1:7070            # terminal 1 & 2
   $ lfoc-repro run study.toml --executor tcp \\
         --bind 127.0.0.1:7070 --workers 2 \\
         --checkpoint rows.jsonl                           # terminal 3

The wire protocol is schema-versioned and safe (one codec, no opt-ins).
``--chaos`` takes a JSON fault plan for deterministic resilience drills.

The online partitioning service (see ``repro.service``) reuses the same
wire stack as a long-lived control plane: ``serve`` runs the daemon,
``agent`` a per-host client, and ``serve --supervise N --workload S1``
spawns and babysits N local agents in one command:

.. code-block:: console

   $ lfoc-repro serve --bind 127.0.0.1:7080                # terminal 1
   $ lfoc-repro agent --connect 127.0.0.1:7080 \\
         --host-id host0 --workload S1 --batches 50        # terminal 2

``--checkpoint``/``--resume`` make long studies crash-safe: completed
scenarios are appended durably (with per-line checksums) and a re-run
skips them.

Every flag that sets a spec field is generated from that field by
:func:`_spec_flags`: the ``serve`` flags (:class:`ServiceSpec`), the host
flags of ``agent``, the execution flags of ``run`` and ``tournament run``
(``StudySpec``/``TournamentSpec`` and :class:`ExecutorSpec`) and the engine
flags of ``fig7`` and ``sweep`` (:class:`EngineSpec`).  The field's type,
choices and help make the flag, an omitted flag leaves the spec's default,
and the given flags build the spec through ``from_dict``, so every check
stays with the spec.
"""

from __future__ import annotations

import argparse
import json
import sys
import typing
from math import nan
from typing import Any, Dict, Optional, Sequence

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
from repro.experiments import (
    DYNAMIC_ROW_FIELDS,
    STATIC_ROW_FIELDS,
    EngineSpec,
    ExecutorSpec,
    ServiceSpec,
    StudyResult,
    StudySpec,
    build_sweep_study,
    dump_study_spec,
    load_study_spec,
    run_study,
)
from repro.errors import SpecError
from repro.experiments.schema import SpecField, spec_fields
from repro.tournament import TournamentSpec
from repro.version import PAPER, __version__
from repro.workloads import dynamic_study_workloads, static_study_workloads

__all__ = ["main", "build_parser"]


#: Flag names that are not their field's name (see :func:`_spec_flags`).
_RENAMED = {
    "EngineSpec.instructions_per_run": "instructions",
    "ExecutorSpec.name": "executor",
}

#: The engine of ``fig7`` and ``sweep`` before their flags apply.
_ENGINE_PRESET = dict(instructions_per_run=1.0e9, min_completions=2, record_traces=False)


def _flag(f: SpecField) -> str:
    name = _RENAMED.get(f.where) or f.name.removesuffix("_s").replace("_", "-")
    return f"--{name}"


class _JsonText:
    """``type=`` of the mapping flags: JSON text, whose parse error names the flag."""

    def __init__(self, flag: str) -> None:
        self.flag = flag

    def __call__(self, text: str) -> Any:
        try:
            return json.loads(text)
        except ValueError as exc:
            raise SpecError(f"{self.flag} is not valid JSON: {exc}") from exc


def _count(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _static_max_size(text: str) -> int:
    """``--max-size`` of fig6: at least the smallest static-study workload."""
    value, smallest = int(text), min(w.size for w in static_study_workloads())
    if value < smallest:
        raise argparse.ArgumentTypeError(
            f"must be >= {smallest} (the smallest static-study workload), got {value}"
        )
    return value


def _spec_flags(parser, cls: type, names: Sequence[str] = (), *, required: Sequence[str] = ()):
    """Add one flag per listed field of spec class ``cls`` (all fields if none).

    The flag is the field name with ``_`` as ``-`` and a trailing ``_s``
    dropped, unless :data:`_RENAMED` names it.  Its type is the field's
    scalar type (JSON text for mappings and nested specs), its choices and
    help come from the field's metadata, and its default is ``None``: the
    spec's own default.  The value is stored under the field's qualified
    name (``ServiceSpec.batches``), where :func:`_given` reads it.
    """
    plan = {f.name: f for f in spec_fields(cls)}
    for f in [plan[name] for name in names] if names else plan.values():
        flag, tp, choices = _flag(f), f.type, f.meta.get("choices")
        if typing.get_origin(tp) is typing.Union:
            tp = next(a for a in typing.get_args(tp) if a is not type(None))
        if tp not in (int, float, str):
            tp, metavar = _JsonText(flag), "JSON"
        elif choices is not None:
            metavar = None
        elif tp is int:
            metavar = "N"
        elif f.name == "bind":
            metavar = "HOST:PORT"
        else:
            metavar = "S" if f.name.endswith("_s") else flag[2:].upper().replace("-", "_")
        action = parser.add_argument(
            flag,
            dest=f.where,
            type=tp,
            choices=choices,
            metavar=metavar,
            required=f.name in required,
            help=f.meta.get("help"),
        )
        action.spec_field = f


def _given(args: argparse.Namespace, cls: type) -> Dict[str, Any]:
    """The fields of ``cls`` whose flags were given, by field name."""
    values = ((f.name, getattr(args, f.where, None)) for f in spec_fields(cls))
    return {name: value for name, value in values if value is not None}


def _spec_from_flags(cls: type, args: argparse.Namespace, **base: Any):
    """``cls`` from ``base`` and the given flags, checked by ``cls.from_dict``."""
    return cls.from_dict({**base, **_given(args, cls)})


def _execution_flags(parser, cls: type, label: str, executor: Sequence[str]) -> None:
    """The spec and execution flags ``run`` and ``tournament run`` share."""
    parser.add_argument("spec", help=f"path to the {label} spec (.toml or .json)")
    _spec_flags(parser, cls, ("jobs",))
    _spec_flags(parser, ExecutorSpec, ("name", "workers", "bind", *executor))
    _spec_flags(parser, cls, ("fault_tolerance",))
    parser.add_argument(
        "--checkpoint",
        default=None,
        metavar="FILE",
        help="durably append each completed scenario to this JSONL file (crash-safe)",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="skip scenarios already completed in --checkpoint instead of starting fresh",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lfoc-repro",
        description=f"Reproduction harness for: {PAPER}",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("fig1", help="slowdown and LLCMPKC curves (Fig. 1)")
    sub.add_parser("table1", help="benchmark classification (Table 1)")

    fig2 = sub.add_parser("fig2", help="optimal clustering breakdown (Fig. 2)")
    fig2.add_argument("--workloads", type=_count, default=8, help="number of random mixes")
    fig2.add_argument("--size", type=int, default=8, help="applications per mix")

    fig3 = sub.add_parser("fig3", help="optimal clustering vs partitioning (Fig. 3)")
    fig3.add_argument("--sizes", type=int, nargs="+", default=[4, 5, 6, 7, 8])
    fig3.add_argument("--per-size", type=_count, default=3, help="workloads per size")

    sub.add_parser("fig4", help="LLCMPKC phase trace of fotonik3d (Fig. 4)")
    sub.add_parser("fig5", help="workload composition matrix (Fig. 5)")

    jobs_kwargs = dict(
        type=int,
        default=1,
        metavar="N",
        help="local worker processes for the run batch (0 = all CPUs but one; "
        "results are independent of this knob)",
    )

    fig6 = sub.add_parser("fig6", help="static clustering study (Fig. 6)")
    fig6.add_argument(
        "--max-size", type=_static_max_size, default=None, help="largest workload size"
    )
    fig6.add_argument("--jobs", **jobs_kwargs)

    fig7 = sub.add_parser("fig7", help="dynamic policy study (Fig. 7)")
    fig7.add_argument("--quick", action="store_true", help="only the 8-app workloads")
    _spec_flags(fig7, EngineSpec, ("instructions_per_run",))
    fig7.add_argument("--jobs", **jobs_kwargs)

    table2 = sub.add_parser("table2", help="algorithm execution cost (Table 2)")
    table2.add_argument("--sizes", type=int, nargs="+", default=[4, 5, 6, 7, 8, 9, 10, 11])
    table2.add_argument("--repetitions", type=_count, default=5)

    run = sub.add_parser(
        "run", help="run a declarative study from a .toml/.json spec file"
    )
    _execution_flags(
        run, StudySpec, "study", ("task_timeout_s", "heartbeat_grace_s", "chaos")
    )
    run.add_argument(
        "--out", default=None, metavar="FILE", help="save the result rows as JSONL"
    )

    worker = sub.add_parser(
        "worker",
        help="serve runs for a tcp-executor coordinator (repro run --executor tcp)",
    )
    worker.add_argument(
        "--connect",
        required=True,
        metavar="HOST:PORT",
        help="coordinator address to join",
    )
    worker.add_argument(
        "--max-runs",
        type=int,
        default=None,
        metavar="N",
        help="disconnect cleanly after N runs (rolling restarts, tests)",
    )
    worker.add_argument(
        "--crash-after",
        type=int,
        default=None,
        metavar="N",
        help="fault injection: die without replying when run N+1 arrives "
        "(exercises the coordinator's retry path)",
    )
    worker.add_argument(
        "--chaos",
        type=_JsonText("--chaos"),
        default=None,
        metavar="JSON",
        help="worker-side fault plan as JSON, e.g. "
        '\'{"kill_runs": [0], "duplicate_results": [2]}\'',
    )
    worker.add_argument(
        "--quiet", action="store_true", help="suppress per-run log lines"
    )

    serve = sub.add_parser(
        "serve",
        help="run the online partitioning daemon (long-lived control plane)",
    )
    _spec_flags(serve, ServiceSpec)
    serve.add_argument(
        "--once",
        action="store_true",
        help="without --supervise: exit after the first host session "
        "completes (with --supervise the daemon always exits once every "
        "supervised agent finished)",
    )
    serve.add_argument(
        "--max-seconds",
        type=float,
        default=None,
        metavar="S",
        help="hard deadline for the whole serve run",
    )
    serve.add_argument(
        "--quiet", action="store_true", help="suppress the summary line"
    )

    agent = sub.add_parser(
        "agent",
        help="run one simulated-host agent against a partitioning daemon",
    )
    agent.add_argument(
        "--connect",
        required=True,
        metavar="HOST:PORT",
        help="daemon address to join (from `serve`)",
    )
    agent.add_argument(
        "--host-id",
        default="host0",
        metavar="ID",
        help="stable host identity; the same agent process reconnecting "
        "resumes its daemon-side session mid-epoch, a respawned process "
        "(new boot token) restarts it with a bumped epoch",
    )
    _spec_flags(
        agent, ServiceSpec, ("workload", "batches", "seed", "ways"), required=("workload",)
    )
    agent.add_argument(
        "--chaos",
        type=_JsonText("--chaos"),
        default=None,
        metavar="JSON",
        help="agent-side fault plan as JSON, e.g. "
        '\'{"agent_kill_batches": [3], "agent_corrupt_frames": [5]}\'',
    )
    agent.add_argument(
        "--quiet", action="store_true", help="suppress the summary line"
    )

    tournament = sub.add_parser(
        "tournament",
        help="policy tournaments: seeded scenario grids, paired statistical "
        "verdicts, CI regression gates",
    )
    tsub = tournament.add_subparsers(dest="tournament_command", required=True)

    trun = tsub.add_parser(
        "run", help="run a tournament from a .toml/.json spec and judge it"
    )
    _execution_flags(trun, TournamentSpec, "tournament", ())
    trun.add_argument(
        "--out",
        default=None,
        metavar="FILE",
        help="save the full verdict (standings, head-to-head, rows) as JSONL",
    )
    trun.add_argument(
        "--markdown",
        default=None,
        metavar="FILE",
        help="also write the rendered leaderboard as Markdown",
    )

    treport = tsub.add_parser(
        "report", help="re-render a saved tournament verdict"
    )
    treport.add_argument("result", help="verdict JSONL from `tournament run --out`")
    treport.add_argument(
        "--markdown", default=None, metavar="FILE", help="write the Markdown render"
    )
    treport.add_argument(
        "--json",
        default=None,
        metavar="FILE",
        help="write the machine-readable report (standings + head-to-head)",
    )

    tgate = tsub.add_parser(
        "gate",
        help="check a verdict against a committed baseline; exit 1 on "
        "regression beyond the bootstrap noise band",
    )
    tgate.add_argument("result", help="verdict JSONL from `tournament run --out`")
    tgate.add_argument(
        "--baseline",
        required=True,
        metavar="FILE",
        help="baseline JSON file (commit it next to the spec)",
    )
    tgate.add_argument(
        "--update",
        action="store_true",
        help="bless this verdict: (re)write the baseline instead of checking",
    )
    tgate.add_argument(
        "--margin",
        type=float,
        default=0.0,
        metavar="X",
        help="extra absolute slack beyond the CI non-overlap test",
    )
    tgate.add_argument(
        "--nerf",
        default=None,
        metavar="POLICY",
        help="drill knob: degrade POLICY's rows by --nerf-factor before "
        "judging, to prove the gate trips (CI uses this)",
    )
    tgate.add_argument(
        "--nerf-factor",
        type=float,
        default=1.25,
        metavar="F",
        help="degradation factor for --nerf (unfairness x F, STP / F)",
    )

    sweep = sub.add_parser(
        "sweep", help="run a policy x workload x ways x seeds parameter sweep"
    )
    sweep.add_argument("--name", default="sweep", help="study name")
    sweep.add_argument(
        "--kind", choices=("static", "dynamic"), default="static",
        help="scenario kind: estimator evaluation (static) or engine runs (dynamic)",
    )
    sweep.add_argument(
        "--policies", nargs="+", default=["dunn", "lfoc"], metavar="POLICY",
        help="registered policy/driver names (stock Linux is the implicit baseline)",
    )
    sweep.add_argument(
        "--workloads", nargs="+", default=["S1"], metavar="W",
        help="workload names (S7, P12...) or registered suite names (s, p, "
        "dynamic_study...)",
    )
    sweep.add_argument(
        "--ways", type=int, nargs="+", default=None, metavar="N",
        help="LLC way counts to sweep (one scenario per value; default: "
        "the platform's native 11)",
    )
    sweep.add_argument(
        "--seeds", type=int, nargs="+", default=None, metavar="S",
        help="seed replicas per scenario (offsets random workload specs)",
    )
    _spec_flags(sweep, EngineSpec, ("instructions_per_run", "min_completions"))
    sweep.add_argument("--jobs", **jobs_kwargs)
    sweep.add_argument(
        "--out", default=None, metavar="FILE", help="save the result rows as JSONL"
    )
    sweep.add_argument(
        "--dump-spec", default=None, metavar="FILE",
        help="also write the generated study spec (.toml or .json)",
    )
    return parser


def _format_cell(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.4f}"
    return str(value)


def _print_means(summary: Dict[str, Dict[str, float]], prefix: str = "mean_norm_") -> None:
    """The per-policy table of mean normalised unfairness and STP."""
    rows = [
        [p, f"{s.get(prefix + 'unfairness', nan):.3f}", f"{s.get(prefix + 'stp', nan):.3f}"]
        for p, s in summary.items()
    ]
    print(format_table(["policy", "mean norm. unfairness", "mean norm. STP"], rows))


def _print_degraded(failures: Sequence[Any]) -> None:
    """Surface quarantined runs loudly: a degraded study must not look clean.

    The per-scenario quarantine lines scroll away on long studies; this
    summary sits right next to the aggregate table so missing rows are
    impossible to miss before anyone trusts the means.
    """
    if not failures:
        return
    preview = ", ".join(
        f"{f.get('label')} ({f.get('scenario_id')})" for f in failures[:3]
    )
    if len(failures) > 3:
        preview += f", ... {len(failures) - 3} more"
    print(
        f"\n! DEGRADED STUDY: {len(failures)} run(s) quarantined after "
        f"exhausting retries — {preview}. Their rows are missing from every "
        "aggregate above."
    )


def _print_study(result: StudyResult) -> None:
    """Render every scenario's rows plus the cross-seed policy aggregate."""
    for scenario in result.scenarios:
        fields = STATIC_ROW_FIELDS if scenario.kind == "static" else DYNAMIC_ROW_FIELDS
        print(f"# scenario {scenario.scenario_id} ({scenario.kind}, seed {scenario.seed})")
        rows = [[_format_cell(row.get(f, "")) for f in fields] for row in scenario.rows]
        print(format_table(list(fields), rows))
        for failure in scenario.failures:
            print(
                f"! quarantined {failure.get('label')}: {failure.get('kind')} "
                f"after {failure.get('attempts')} attempts — "
                f"{failure.get('message')}"
            )
        print()
    print("# aggregate (mean over workloads, scenarios and seeds)")
    _print_means(result.aggregate(), "mean_normalized_")
    _print_degraded(result.failures())


def _report_study(result: StudyResult, out: Optional[str]) -> int:
    _print_study(result)
    if out:
        result.save(out)
        print(f"\nsaved {len(result.rows())} rows to {out}")
    return 0


def _fault_plan(data: Any):
    from repro.runtime.executors import FaultPlan

    return None if data is None else FaultPlan.from_dict(data)


def _execution(args: argparse.Namespace, cls: type) -> Dict[str, Any]:
    """``run_study``/``run_tournament`` keywords from the execution flags.

    ``--jobs`` and ``--fault-tolerance`` override the fields of spec class
    ``cls`` and are decoded by its rules; the executor flags build an
    :class:`ExecutorSpec`, so they need ``--executor``.
    """
    executor = _given(args, ExecutorSpec)
    if executor and "name" not in executor:
        flags = "/".join(_flag(f) for f in spec_fields(ExecutorSpec) if f.name in executor)
        raise SpecError(
            f"{flags} configure the executor selected by --executor; pass "
            "--executor as well (or set them in the spec's [executor] table)"
        )
    if args.resume and args.checkpoint is None:
        raise SpecError(
            "--resume reads completed scenarios from --checkpoint; pass "
            "--checkpoint FILE as well"
        )
    extra: Dict[str, Any] = dict(
        executor=ExecutorSpec.from_dict(executor) if executor else None,
        checkpoint=args.checkpoint,
        resume=args.resume,
    )
    plan = {f.name: f for f in spec_fields(cls)}
    for name, value in _given(args, cls).items():
        extra[name] = plan[name].decode(value)
    return extra


def _run_study_command(args: argparse.Namespace) -> int:
    extra = _execution(args, StudySpec)
    return _report_study(run_study(load_study_spec(args.spec), **extra), args.out)


def _worker_command(args: argparse.Namespace) -> int:
    from repro.runtime.executors import run_worker

    return run_worker(
        args.connect,
        max_runs=args.max_runs,
        crash_after=args.crash_after,
        quiet=args.quiet,
        chaos=_fault_plan(args.chaos),
    )


def _serve_command(args: argparse.Namespace) -> int:
    import signal

    spec = _spec_from_flags(ServiceSpec, args)
    daemon = spec.create(quiet=args.quiet)
    host, port = daemon.address
    if not args.quiet:
        print(f"partitioning daemon listening on {host}:{port}", flush=True)
        if daemon.restored:
            print(f"restored daemon state from {spec.snapshot}", flush=True)
    if daemon.supervise:
        until: Optional[int] = daemon.supervise  # exit when every agent finished
    elif args.once:
        until = 1
    else:
        until = None  # serve until --max-seconds, SIGTERM or Ctrl-C

    previous_sigterm = signal.getsignal(signal.SIGTERM)

    def _on_sigterm(_signum, _frame) -> None:  # pragma: no cover - signal path
        # Orderly shutdown: run() exits at the next pump boundary and
        # close() takes the final snapshot.
        daemon.request_stop()

    try:
        signal.signal(signal.SIGTERM, _on_sigterm)
    except ValueError:  # pragma: no cover - non-main thread (embedding)
        previous_sigterm = None
    try:
        summary = spec.serve(daemon, until_byes=until, max_seconds=args.max_seconds)
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        summary = daemon.summary()
    finally:
        if previous_sigterm is not None:
            signal.signal(signal.SIGTERM, previous_sigterm)
    if not args.quiet:
        print(
            f"served {summary['hosts']} host(s), {summary['decisions']} mask "
            f"decisions, {summary['frame_errors']} frame errors"
        )
        if spec.replay_log:
            print(f"saved replay log to {spec.replay_log}")
    return 0


def _agent_command(args: argparse.Namespace) -> int:
    from repro.runtime.executors.tcp import parse_address
    from repro.service.agent import run_agent

    spec = _spec_from_flags(ServiceSpec, args)
    chaos = _fault_plan(args.chaos)
    return run_agent(
        parse_address(args.connect),
        host_id=args.host_id,
        workload=spec.workload,
        batches=spec.batches,
        seed=spec.seed,
        n_ways=spec.ways,
        chaos=chaos.to_dict() if chaos is not None else None,
        quiet=args.quiet,
    )


def _print_verdict(result: Any, markdown_path: Optional[str]) -> None:
    """Print a tournament's leaderboard; also write it to ``markdown_path``."""
    markdown = result.render_markdown()
    print(markdown, end="")
    _print_degraded(result.failures)
    if markdown_path:
        with open(markdown_path, "w", encoding="utf-8") as handle:
            handle.write(markdown)
        print(f"\nwrote leaderboard to {markdown_path}")


def _tournament_run_command(args: argparse.Namespace) -> int:
    from repro.tournament import load_tournament_spec, run_tournament

    extra = _execution(args, TournamentSpec)
    result = run_tournament(load_tournament_spec(args.spec), **extra)
    _print_verdict(result, args.markdown)
    if args.out:
        result.save(args.out)
        print(
            f"\nsaved verdict ({len(result.standings)} standings, "
            f"{len(result.rows)} rows) to {args.out}"
        )
    return 0


def _tournament_report_command(args: argparse.Namespace) -> int:
    from repro.tournament import TournamentResult

    result = TournamentResult.load(args.result)
    _print_verdict(result, args.markdown)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(result.to_report_dict(), handle, indent=2)
            handle.write("\n")
        print(f"\nwrote machine-readable report to {args.json}")
    return 0


def _tournament_gate_command(args: argparse.Namespace) -> int:
    from repro.tournament import (
        TournamentResult,
        check_regression,
        load_baseline,
        nerf_rows,
        rejudge,
        write_baseline,
    )

    result = TournamentResult.load(args.result)
    if args.nerf is not None:
        result = rejudge(result, nerf_rows(result.rows, args.nerf, args.nerf_factor))
        print(
            f"(drill) nerfed {args.nerf!r} by x{args.nerf_factor:g} before judging"
        )
    if args.update:
        write_baseline(result, args.baseline)
        print(
            f"blessed tournament {result.name!r} "
            f"({len(result.standings)} policies, {result.n_complete_units} "
            f"paired units) as baseline {args.baseline}"
        )
        return 0
    baseline = load_baseline(args.baseline)
    violations = check_regression(result, baseline, margin=args.margin)
    if not violations:
        print(
            f"gate OK: {len(result.standings)} policies within the noise "
            f"band of baseline {args.baseline}"
        )
        return 0
    print(f"gate FAILED: {len(violations)} regression(s) vs {args.baseline}")
    for violation in violations:
        print(f"  - [{violation['policy']}/{violation['check']}] {violation['message']}")
    return 1


def _tournament_command(args: argparse.Namespace) -> int:
    if args.tournament_command == "run":
        return _tournament_run_command(args)
    if args.tournament_command == "report":
        return _tournament_report_command(args)
    return _tournament_gate_command(args)


def _sweep_command(args: argparse.Namespace) -> int:
    engine = _spec_from_flags(EngineSpec, args, **_ENGINE_PRESET)
    spec = build_sweep_study(
        args.name,
        args.kind,
        args.policies,
        args.workloads,
        ways=args.ways,
        seeds=args.seeds,
        engine=engine,
        jobs=args.jobs or None,
    )
    if args.dump_spec:
        dump_study_spec(spec, args.dump_spec)
        print(f"wrote study spec to {args.dump_spec}\n")
    return _report_study(run_study(spec), args.out)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "fig1":
        print(render_fig1(fig1_curves()))
    elif args.command == "table1":
        print(render_table1(table1_classification()))
    elif args.command == "fig2":
        print(render_fig2(fig2_optimal_breakdown(args.workloads, args.size)))
    elif args.command == "fig3":
        print(
            render_fig3(
                fig3_clustering_vs_partitioning(args.sizes, args.per_size)
            )
        )
    elif args.command == "fig4":
        trace = fig4_fotonik3d_trace()
        rows = [
            [f"{t:.3f}", f"{m:.1f}"] for t, m in zip(trace["time_s"], trace["llcmpkc"])
        ]
        print(format_table(["time (s)", "LLCMPKC"], rows))
    elif args.command == "fig5":
        matrix = fig5_workload_matrix()
        rows = [
            [name, ", ".join(f"{b}x{c}" for b, c in sorted(counts.items()))]
            for name, counts in matrix.items()
        ]
        print(format_table(["workload", "composition"], rows))
    elif args.command == "fig6":
        workloads = static_study_workloads(max_size=args.max_size)
        rows = fig6_static_study(workloads, jobs=args.jobs or None)
        print(render_fig6(rows))
        print()
        _print_means(summarize_static_study(rows))
    elif args.command == "fig7":
        workloads = dynamic_study_workloads()
        if args.quick:
            workloads = [w for w in workloads if w.size <= 8]
        config = _spec_from_flags(EngineSpec, args, **_ENGINE_PRESET).to_config()
        rows = fig7_dynamic_study(workloads, engine_config=config, jobs=args.jobs or None)
        print(render_fig7(rows))
        print()
        _print_means(summarize_dynamic_study(rows))
    elif args.command == "table2":
        print(render_table2(table2_algorithm_cost(args.sizes, args.repetitions)))
    elif args.command == "run":
        return _run_study_command(args)
    elif args.command == "worker":
        return _worker_command(args)
    elif args.command == "serve":
        return _serve_command(args)
    elif args.command == "agent":
        return _agent_command(args)
    elif args.command == "sweep":
        return _sweep_command(args)
    elif args.command == "tournament":
        return _tournament_command(args)
    else:  # pragma: no cover - argparse enforces the choices
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
