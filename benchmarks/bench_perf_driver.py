"""Policy-driver benchmark: the production decision layer vs. the oracles.

Times the Fig. 7-style dynamic study — every workload under Stock-Linux,
Dunn and LFOC — once with the reference oracle drivers from
``tests/oracles.py`` (per-interval silhouette loops, ``np.quantile`` k-means
seeding, Algorithm 1 re-run every interval) and once with the production
drivers (vectorized silhouette/k-means, monitor-version fast paths,
fingerprint-keyed decision caches), and writes a machine-readable
``BENCH_driver.json`` at the repository root.  Both arms run the production
engine, so the difference isolates the driver layer.

Three timings are recorded per arm:

* ``decision_s`` — time inside the drivers' partitioning-decision entry
  points (``on_start`` + ``on_interval``), the layer this benchmark gates
  (the headline ``decision_speedup``);
* ``entry_s`` — time inside *all* driver callbacks, including the
  per-sample monitoring path (``on_sample``), which is shared machinery the
  incremental layer does not touch;
* ``wall_s`` — wall clock of the whole study arm.

The run *fails* if the two arms disagree on any run result — completion
times, traces, repartition masks, final allocations — because speed means
nothing if the decisions differ.

Usage::

    python benchmarks/bench_perf_driver.py            # quick: 8/12/16-app mix
    python benchmarks/bench_perf_driver.py --full     # the whole Fig. 7 set
    python benchmarks/bench_perf_driver.py --min-speedup 3   # also gate speed

or through pytest (explicit path, the tier-1 run does not collect bench_*)::

    PYTHONPATH=src python -m pytest benchmarks/bench_perf_driver.py -q
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULT_PATH = REPO_ROOT / "BENCH_driver.json"
# The reference arm's drivers are test oracles.
sys.path.insert(0, str(REPO_ROOT / "tests"))

#: Quick selection: a slice of the Fig. 7 x-axis at every workload size
#: (one 8-app mix plus P/S representatives of the 12- and 16-app sizes),
#: matching ``bench_perf_engine.py``.
QUICK_WORKLOADS = ["P1", "P6", "S8", "P11", "S15"]


def _workloads(full: bool):
    from repro.workloads import dynamic_study_workloads

    workloads = dynamic_study_workloads()
    if full:
        return workloads
    selected = {name: None for name in QUICK_WORKLOADS}
    return [w for w in workloads if w.name in selected]


class _TimedDriver:
    """Transparent proxy accumulating time spent inside driver callbacks."""

    def __init__(self, inner):
        self.inner = inner
        self.decision_s = 0.0
        self.entry_s = 0.0
        self.name = inner.name
        self.normal_sample_window = inner.normal_sample_window
        self.sampling_sample_window = inner.sampling_sample_window

    def on_start(self, apps, platform):
        t0 = time.perf_counter()
        result = self.inner.on_start(apps, platform)
        elapsed = time.perf_counter() - t0
        self.decision_s += elapsed
        self.entry_s += elapsed
        return result

    def on_sample(self, app, metrics, effective_ways, now):
        t0 = time.perf_counter()
        result = self.inner.on_sample(app, metrics, effective_ways, now)
        self.entry_s += time.perf_counter() - t0
        return result

    def on_interval(self, now):
        t0 = time.perf_counter()
        result = self.inner.on_interval(now)
        elapsed = time.perf_counter() - t0
        self.decision_s += elapsed
        self.entry_s += elapsed
        return result

    def sample_window(self, app):
        return self.inner.sample_window(app)

    def describe_state(self):
        return self.inner.describe_state()


def _run_fields(result):
    """Everything a RunResult records, as an exactly-comparable structure."""
    return {
        "policy": result.policy,
        "workload": result.workload,
        "duration": result.duration_s,
        "stats": {
            name: (
                stats.completion_times,
                stats.alone_time,
                stats.instructions_retired,
                stats.samples_taken,
                stats.sampling_mode_entries,
                stats.class_changes,
            )
            for name, stats in result.app_stats.items()
        },
        "traces": result.traces,
        "repartitions": [
            (event.time_s, event.reason, event.masks) for event in result.repartitions
        ],
        "final_masks": dict(result.final_allocation.masks),
    }


def _run_arm(workloads, backend: str):
    """One study arm: every workload under every driver, instrumented.

    ``backend`` is ``"reference"`` (the oracle drivers) or ``"incremental"``
    (the production drivers).
    """
    import oracles
    from repro.hardware import skylake_gold_6138
    from repro.runtime import (
        DunnUserLevelDaemon,
        EngineConfig,
        LfocSchedulerPlugin,
        RuntimeEngine,
        StockLinuxDriver,
    )
    from repro.simulator import EvaluationTables

    platform = skylake_gold_6138()
    config = EngineConfig(
        instructions_per_run=1.0e9, min_completions=2, record_traces=False
    )
    tables = EvaluationTables(platform)
    decision_s = 0.0
    entry_s = 0.0
    fields = []
    stats = []
    if backend == "reference":
        factories = (
            StockLinuxDriver,
            oracles.ReferenceDunnDaemon,
            oracles.ReferenceLfocDriver,
        )
    else:
        factories = (StockLinuxDriver, DunnUserLevelDaemon, LfocSchedulerPlugin)
    t0 = time.perf_counter()
    for workload in workloads:
        for factory in factories:
            driver = _TimedDriver(factory())
            engine = RuntimeEngine(
                platform,
                workload.phased_profiles(platform.llc_ways),
                driver,
                config,
                tables=tables,
            )
            result = engine.run(workload.name)
            decision_s += driver.decision_s
            entry_s += driver.entry_s
            fields.append(_run_fields(result))
            stats.append(
                {
                    "workload": workload.name,
                    "policy": result.policy,
                    "duration_s": result.duration_s,
                    "repartitions": len(result.repartitions),
                    "decisions": (
                        driver.inner.decision_stats()
                        if hasattr(driver.inner, "decision_stats")
                        else {}
                    ),
                }
            )
    wall_s = time.perf_counter() - t0
    return decision_s, entry_s, wall_s, fields, stats


def run_bench(full: bool = False, repeats: int = 2) -> dict:
    """Time both driver arms on the same study and compare the results.

    Each arm runs ``repeats`` times cold (fresh engine tables every time)
    and the best wall-clock is recorded — the standard way to separate the
    code's cost from background-load noise.  The result comparison uses the
    first repeat of each arm (they are deterministic).
    """
    workloads = _workloads(full)

    best = {}
    fields = {}
    stats = {}
    for backend in ("reference", "incremental"):
        times = []
        for _ in range(max(repeats, 1)):
            decision_s, entry_s, wall_s, arm_fields, arm_stats = _run_arm(
                workloads, backend
            )
            times.append((decision_s, entry_s, wall_s))
            fields.setdefault(backend, arm_fields)
            stats.setdefault(backend, arm_stats)
        best[backend] = tuple(min(values) for values in zip(*times))

    match = fields["incremental"] == fields["reference"]
    ref_dec, ref_entry, ref_wall = best["reference"]
    inc_dec, inc_entry, inc_wall = best["incremental"]
    return {
        "benchmark": "policy drivers vs. reference oracles (fig7 dynamic study)",
        "scale": "full" if full else "quick",
        "workloads": [w.name for w in workloads],
        "sizes": sorted({w.size for w in workloads}),
        "runs": len(fields["reference"]),
        "repeats": max(repeats, 1),
        "reference": {
            "decision_s": round(ref_dec, 4),
            "entry_s": round(ref_entry, 4),
            "wall_s": round(ref_wall, 4),
        },
        "incremental": {
            "decision_s": round(inc_dec, 4),
            "entry_s": round(inc_entry, 4),
            "wall_s": round(inc_wall, 4),
        },
        "decision_speedup": round(ref_dec / inc_dec, 2),
        "entry_speedup": round(ref_entry / inc_entry, 2),
        "wall_speedup": round(ref_wall / inc_wall, 2),
        "results_match": match,
        "decision_stats": stats["incremental"],
    }


def _render(record: dict) -> str:
    ref = record["reference"]
    inc = record["incremental"]
    return "\n".join(
        [
            f"drivers vs. oracles on {len(record['workloads'])} workloads "
            f"(sizes {record['sizes']}, {record['runs']} runs, "
            f"{record['scale']} scale)",
            f"  decision layer:  reference {ref['decision_s']:.3f}s  "
            f"incremental {inc['decision_s']:.3f}s   "
            f"speedup {record['decision_speedup']:.1f}x",
            f"  driver entries:  reference {ref['entry_s']:.3f}s  "
            f"incremental {inc['entry_s']:.3f}s   "
            f"speedup {record['entry_speedup']:.1f}x",
            f"  study wall:      reference {ref['wall_s']:.3f}s  "
            f"incremental {inc['wall_s']:.3f}s   "
            f"speedup {record['wall_speedup']:.1f}x",
            f"  results identical: {record['results_match']}",
        ]
    )


def _write_results(record: dict) -> None:
    RESULT_PATH.write_text(json.dumps(record, indent=2) + "\n")
    print(_render(record))
    print(f"wrote {RESULT_PATH}")


def test_driver_backend_equivalence():
    """Pytest entry point: quick-scale run, all run results must match exactly.

    Deliberately no wall-clock assertion here — timing gates belong to
    ``main(--min-speedup)`` where the caller opts in (a loaded machine must
    not turn a correctness test red).  The measured speedups are still
    recorded in ``BENCH_driver.json``.
    """
    record = run_bench(full=False, repeats=1)
    _write_results(record)
    assert record["results_match"], "incremental drivers disagree with reference"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--full", action="store_true", help="whole Fig. 7 selection")
    parser.add_argument(
        "--repeats",
        type=int,
        default=2,
        help="timing repetitions per arm (best run is recorded)",
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=None,
        help="fail unless the decision-layer speedup reaches this factor",
    )
    args = parser.parse_args(argv)
    record = run_bench(full=args.full, repeats=args.repeats)
    _write_results(record)
    if not record["results_match"]:
        print("FAIL: incremental drivers disagree with the reference results")
        return 1
    if args.min_speedup is not None and record["decision_speedup"] < args.min_speedup:
        print(f"FAIL: decision-layer speedup below {args.min_speedup}x")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
