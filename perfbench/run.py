#!/usr/bin/env python3
"""The repository benchmark: one command, four workloads, per-layer tracing.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fig7_dynamic --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.  ``--trace 1``
alternates untraced and traced repetitions and reports the per-layer
metrics of the traced ones plus ``trace.overhead_s`` (traced minus untraced
job time).  Either way the outputs are checked: rows and decision logs must
repeat across repetitions, match the digests pinned in ``pins.json`` for a
pinned seed, and match their serial or offline oracle.  The human-readable
report goes to stdout first; the last line is one JSON object.  Each result
is also appended to ``perfbench/results/history.jsonl`` with provenance.

Exit status: 0 when every check passed, 1 when a check failed (the JSON
line then says ``"correct": false``), 2 when the package sources are
missing or the arguments are wrong.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS_DIR = BENCH_DIR / "results"
WORK_DIR = BENCH_DIR / ".work"
PINS = BENCH_DIR / "pins.json"

WORKLOAD_NAMES = ("fig7_dynamic", "fig6_static", "service_drain", "study_tcp")
#: Repetitions run even when ``--seconds`` is already spent.
MIN_REPS = 3
#: Set-up probes per run; ``setup_s`` is their median.
SETUP_PROBES = 5
#: Wall time of :func:`kernel_s` on the reference host (2-vCPU Intel Xeon,
#: quiet).  Job and set-up times are scaled to that host speed.
KERNEL_REF_S = 0.065
#: The jobs slow down less than the kernel when the host is busy: their
#: times move as the kernel's time to this power.  Fitted on ten-seed sets
#: of each gated workload, where it gave the least spread of ``job_s``.
KERNEL_EXPONENT = 0.8


def _load_package() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: the package sources are missing ({SRC / 'repro'}); "
            "run the benchmark from a full checkout of the repository",
            file=sys.stderr,
        )
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))


def _setup_probe(workload: str, seed: int) -> None:
    """One cold set-up: imports plus input generation (timed by the parent)."""
    _load_package()
    import workloads as wl

    wl.build_workloads(str(WORK_DIR))[workload].setup(seed)


def kernel_s() -> float:
    """Wall time of a fixed interpreter and small-array NumPy kernel.

    It shares no code with the package, so a change to the package never
    moves it; only the speed the host gives this process does.
    """
    import numpy

    gc.disable()
    try:
        start = time.perf_counter()
        table = {}
        total = 0.0
        for i in range(120000):
            key = i % 977
            table[key] = table.get(key, 0.0) + i * 0.5
            total += table[key] % 7.0
        array = numpy.arange(16, dtype=float)
        for _ in range(12000):
            array = numpy.sqrt(array * 1.0001 + 1.0)
            array.sum()
        return time.perf_counter() - start
    finally:
        gc.enable()


class HostClock:
    """Scales timed blocks to the reference host speed.

    The kernel runs after every block, so each block sits between two
    kernel readings; their mean over ``KERNEL_REF_S`` is the host's
    slowdown during the block, and the block's time is divided by that
    slowdown to the power ``KERNEL_EXPONENT``.
    """

    def __init__(self) -> None:
        self.kernels = [kernel_s()]

    def scale(self, seconds: float) -> float:
        self.kernels.append(kernel_s())
        slowdown = (self.kernels[-2] + self.kernels[-1]) / (2 * KERNEL_REF_S)
        return seconds / slowdown**KERNEL_EXPONENT


def measure_setup(workload: str, seed: int) -> float:
    """Median scaled wall time of fresh interpreters that import the
    package and build the workload's inputs."""
    clock = HostClock()
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            check=True,
            cwd=str(ROOT),
            timeout=120,
        )
        times.append(clock.scale(time.perf_counter() - start))
    return statistics.median(times)


def provenance() -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=str(ROOT), capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy

    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def layer_metrics(tracer, job) -> dict:
    """The per-layer metrics of one traced repetition."""
    calls, inclusive, busy = tracer.calls, tracer.inclusive, tracer.busy
    own, counters, figures = tracer.self_time, tracer.counters, job.layer_figures

    def calls_of(*names):
        return float(sum(calls.get(n, 0) for n in names))

    solves = calls_of("occupancy.cache_solve", "occupancy.model_solve")
    map_s = busy.get("executor.map", 0.0)
    return {
        "occupancy.busy_s": busy.get("occupancy", 0.0),
        "occupancy.solves": solves,
        "occupancy.iterations_per_solve": (
            counters.get("occupancy.iterations", 0) / solves if solves else 0.0
        ),
        "occupancy.unconverged": float(counters.get("occupancy.unconverged", 0)),
        "estimator.busy_s": busy.get("estimator", 0.0),
        "estimator.self_s": own.get("estimator", 0.0),
        "estimator.calls": calls_of(
            "estimator.evaluate_tokens", "estimator.evaluate_allocation"
        ),
        "engine.busy_s": busy.get("engine", 0.0),
        "engine.self_s": own.get("engine", 0.0),
        "engine.runs": float(counters.get("engine.runs", 0)),
        "driver.busy_s": busy.get("driver", 0.0),
        "driver.calls": calls_of(
            "driver.lfoc_sample", "driver.lfoc_interval",
            "driver.dunn_sample", "driver.dunn_interval",
        ),
        "driver.repartitions": figures.get("driver.repartitions", 0.0),
        "monitor.busy_s": busy.get("monitor", 0.0),
        "monitor.observes": calls_of(
            "monitor.observe_row", "monitor.observe_batch", "monitor.observe"
        ),
        "monitor.rows": figures.get("monitor.rows", 0.0),
        "cat.busy_s": busy.get("cat", 0.0),
        "cat.applies": calls_of("cat.apply"),
        "policy.lfoc_s": inclusive.get("policy.lfoc", 0.0),
        "policy.dunn_s": inclusive.get("policy.dunn", 0.0),
        "policy.kpart_s": inclusive.get("policy.kpart", 0.0),
        "policy.best_static_s": inclusive.get("policy.best_static", 0.0),
        "solver.bnb_s": inclusive.get("solver.bnb", 0.0),
        "solver.local_search_s": inclusive.get("solver.local_search", 0.0),
        "solver.candidates": float(counters.get("solver.candidates", 0)),
        "executor.start_s": busy.get("executor.start", 0.0),
        "executor.map_s": map_s,
        "executor.tasks": float(counters.get("executor.tasks", 0)),
        "study.self_s": (
            inclusive["study.run"] - map_s if "study.run" in inclusive else 0.0
        ),
        "codec.busy_s": busy.get("codec", 0.0),
        "codec.bytes": float(counters.get("codec.bytes", 0)),
        "protocol.check_s": busy.get("protocol", 0.0),
        "session.drain_s": busy.get("session", 0.0),
        "session.self_s": own.get("session", 0.0),
        "decide.busy_s": busy.get("decide", 0.0),
        "session.decisions_computed": figures.get("session.decisions_computed", 0.0),
        "session.decision_fast_hits": figures.get("session.decision_fast_hits", 0.0),
        "replay.append_s": busy.get("replay", 0.0),
        "replay.decisions": float(counters.get("replay.decisions", 0)),
        "snapshot.save_s": busy.get("snapshot", 0.0),
        "snapshot.bytes": float(counters.get("snapshot.bytes", 0)),
        "loadgen_s": figures.get("loadgen_s", 0.0),
    }


def load_pins() -> dict:
    with open(PINS, encoding="utf-8") as handle:
        return json.load(handle)


def run(args) -> int:
    import tracing
    import workloads as wl

    workload = wl.build_workloads(str(WORK_DIR))[args.workload]
    pins = load_pins()
    setup_s = measure_setup(args.workload, args.seed)
    inputs = workload.setup(args.seed)

    # The first job is the warm-up: it fills process-wide caches, is checked
    # against the oracles and is not timed.
    first = workload.job(inputs)
    problems = list(first.problems) + workload.check(inputs, first)
    pinned = pins["digests"].get(str(args.seed), {}).get(args.workload)
    if pinned is not None and pinned != first.digest:
        problems.append(
            f"digest {first.digest} does not match the pinned {pinned} "
            f"for seed {args.seed}"
        )

    untraced = []
    traced = []
    # Job times scaled to the reference host speed.
    untraced_s = []
    traced_s = []
    layers = []
    absent = []
    tracer = tracing.Tracer() if args.trace else None
    clock = HostClock()
    deadline = time.perf_counter() + args.seconds
    # Stop before a repetition that would overrun the deadline (estimated
    # from the fastest one so far), so a run lasts about --seconds.
    estimate = 0.0
    # Outputs that must repeat: every job's equals the first job's, or, when
    # each repetition has its own inputs, a traced job's equals the untraced
    # job's of the same repetition.
    pairs = []
    while len(untraced) < MIN_REPS or time.perf_counter() + estimate < deadline:
        start = time.perf_counter()
        rep = len(untraced) + 1
        untraced.append(workload.job(inputs, rep=rep))
        untraced_s.append(clock.scale(untraced[-1].job_s))
        expected = untraced[-1] if workload.per_repetition else first
        pairs.append((untraced[-1], expected))
        if tracer is not None:
            tracer.reset()
            with tracing.installed(tracer) as missing:
                job = workload.job(inputs, tracer, rep=rep)
            traced_s.append(clock.scale(job.job_s))
            absent = missing
            traced.append(job)
            layers.append(layer_metrics(tracer, job))
            pairs.append((job, expected))
        elapsed = time.perf_counter() - start
        estimate = elapsed if not estimate else min(estimate, elapsed)
    runs = untraced + traced
    for job, expected in pairs:
        if job.digest != expected.digest:
            problems.append(f"digest {job.digest} differs from {expected.digest}")
            break
    for job in runs:
        problems.extend(job.problems)
    attempted = sum(job.attempted for job in runs)
    failed = sum(job.failed for job in runs)
    if failed:
        problems.append(f"{failed} of {attempted} items failed")

    median = statistics.median
    job_s = median(untraced_s)
    report = [
        f"workload {args.workload} (seed {args.seed}): {workload.why}",
        f"repetitions: {len(untraced)} untraced"
        + (f", {len(traced)} traced" if traced else ""),
        f"output digest: {first.digest}"
        + (" (pinned)" if pinned is not None else " (seed not pinned)"),
    ]
    figures = {"host_slowdown": median(clock.kernels) / KERNEL_REF_S}
    for key in untraced[0].figures:
        figures[key] = median([job.figures[key] for job in untraced])
    if untraced[0].drains:
        drains = [d for job in untraced for d in job.drains]
        figures["drain_p50_ms"] = 1e3 * statistics.median(drains)
        figures["drain_p95_ms"] = 1e3 * wl.percentile(drains, 0.95)
        figures["drain_samples"] = float(len(drains))
    figures["error_rate"] = failed / attempted

    if args.trace:
        metrics = {}
        for key in layers[0]:
            metrics[key] = {"value": median([m[key] for m in layers]), "unit": _unit(key)}
        metrics["trace.overhead_s"] = {
            "value": median(traced_s) - job_s,
            "unit": "s",
        }
        spans_path = RESULTS_DIR / f"spans-{args.workload}.csv.gz"
        tracer.write_spans(str(spans_path))
        report.append(
            f"spans of the last traced repetition: {tracer.span_count()} "
            f"written to {spans_path.relative_to(ROOT)}"
        )
        if absent:
            report.append(f"absent entry points: {', '.join(absent)}")
    else:
        metrics = {
            "job_s": {"value": job_s, "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MiB"},
        }
    for name, entry in metrics.items():
        report.append(f"  {name:<32} {entry['value']:>14.6g} {entry['unit']}")
    report.append("  workload figures (sim = simulated model, unvalidated):")
    for name, value in figures.items():
        report.append(f"  {name:<32} {value:>14.6g} {_figure_unit(name)}")
    for problem in problems:
        report.append(f"CHECK FAILED: {problem}")
    correct = not problems
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    _append_history(args, workload.why, result, figures, absent, untraced, clock)
    print("\n".join(report))
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes"):
        return "B"
    if name == "occupancy.iterations_per_solve":
        return "iter/solve"
    return "count"


_FIGURE_UNITS = {
    "host_slowdown": "ratio",
    "study_s": "s",
    "server_s": "s",
    "frames_per_s": "1/s",
    "drain_p50_ms": "ms",
    "drain_p95_ms": "ms",
    "drain_samples": "count",
    "drains": "count",
    "snapshots": "count",
    "error_rate": "ratio",
}


def _figure_unit(name: str) -> str:
    return _FIGURE_UNITS.get(name, "ratio (sim)")


def _append_history(args, why, result, figures, absent, untraced, clock) -> None:
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    record = {
        "time": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "workload": args.workload,
        "why": why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": provenance(),
        "figures": figures,
        "job_s_each": [job.job_s for job in untraced],
        "kernel_s_each": clock.kernels,
        "absent": list(absent),
        **result,
    }
    with open(RESULTS_DIR / "history.jsonl", "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the pinned default seed)")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed is None:
        args.seed = load_pins()["default_seed"]
    if args.setup_probe:
        _setup_probe(args.workload, args.seed)
        return 0
    _load_package()
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
