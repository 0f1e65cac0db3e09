"""Multi-run engine benchmark: batched cross-run simulation.

Times a Fig. 7-style dynamic study — every workload under Stock-Linux, Dunn
and LFOC — two ways, both with ``jobs=1`` so the comparison isolates the
engine, not process-level parallelism:

* **per-run incremental** — the serial baseline: one ``RuntimeEngine`` per
  (workload, driver) pair, sharing in-process evaluation tables;
* **multirun** — the same batch lowered onto grouped
  :class:`~repro.runtime.multirun.MultiRunEngine` stacks, tables built from
  scratch.

Both arms must produce byte-identical study rows — the run *fails* on any
mismatch.  Results land in ``BENCH_multirun.json`` at the repository root.

Usage::

    python benchmarks/bench_perf_multirun.py --quick      # default selection
    python benchmarks/bench_perf_multirun.py --full       # whole Fig. 7 set

or through pytest (explicit path, the tier-1 run does not collect bench_*)::

    PYTHONPATH=src python -m pytest benchmarks/bench_perf_multirun.py -q
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import replace
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULT_PATH = REPO_ROOT / "BENCH_multirun.json"

#: Quick selection: a slice of the Fig. 7 x-axis at every workload size.
QUICK_WORKLOADS = ["P1", "P6", "S8", "P11", "S15"]


def _workloads(full: bool):
    from repro.workloads import dynamic_study_workloads

    workloads = dynamic_study_workloads()
    if full:
        return workloads
    selected = {name: None for name in QUICK_WORKLOADS}
    return [w for w in workloads if w.name in selected]


def _timed_study(workloads, config, repeats, backend):
    from repro.analysis import fig7_dynamic_study

    config = replace(config, backend=backend)
    rows = None
    best = float("inf")
    for _ in range(max(repeats, 1)):
        t0 = time.perf_counter()
        rows = fig7_dynamic_study(workloads, engine_config=config, jobs=1)
        best = min(best, time.perf_counter() - t0)
    return rows, best


def run_bench(full: bool = False, repeats: int = 2) -> dict:
    """Time both arms on the same study and compare every row."""
    from repro.runtime import EngineConfig

    workloads = _workloads(full)
    config = EngineConfig(
        instructions_per_run=1.0e9, min_completions=2, record_traces=False
    )

    baseline_rows, baseline_s = _timed_study(
        workloads, config, repeats, backend="incremental"
    )
    cold_rows, cold_s = _timed_study(workloads, config, repeats, backend="multirun")

    return {
        "benchmark": "multi-run engine (fig7 dynamic study)",
        "scale": "full" if full else "quick",
        "workloads": [w.name for w in workloads],
        "sizes": sorted({w.size for w in workloads}),
        "runs": len(baseline_rows),
        "jobs": 1,
        "repeats": max(repeats, 1),
        "per_run_incremental_s": round(baseline_s, 4),
        "multirun_cold_s": round(cold_s, 4),
        "speedup_cold": round(baseline_s / cold_s, 2),
        "rows_match": cold_rows == baseline_rows,
        "summary": [
            {
                "workload": row.workload,
                "policy": row.policy,
                "unfairness": row.unfairness,
                "stp": row.stp,
            }
            for row in baseline_rows
        ],
    }


def _render(record: dict) -> str:
    lines = [
        f"multi-run engine on {len(record['workloads'])} workloads "
        f"(sizes {record['sizes']}, {record['runs']} study rows, "
        f"{record['scale']} scale, jobs={record['jobs']})",
        f"  per-run incremental: {record['per_run_incremental_s']:.3f}s",
        f"  multirun cold:       {record['multirun_cold_s']:.3f}s   "
        f"speedup {record['speedup_cold']:.1f}x",
        f"  rows identical: {record['rows_match']}",
    ]
    return "\n".join(lines)


def _write_results(record: dict) -> None:
    RESULT_PATH.write_text(json.dumps(record, indent=2) + "\n")
    print(_render(record))
    print(f"wrote {RESULT_PATH}")


def test_multirun_equivalence():
    """Pytest entry point: quick-scale run, both arms' rows must match.

    No wall-clock assertion: the measured speedup is recorded in
    ``BENCH_multirun.json``.
    """
    record = run_bench(full=False, repeats=1)
    _write_results(record)
    assert record["rows_match"], "multirun study rows diverged from per-run"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="quick workload selection (the default; kept for explicit CI use)",
    )
    parser.add_argument("--full", action="store_true", help="whole Fig. 7 selection")
    parser.add_argument(
        "--repeats",
        type=int,
        default=2,
        help="timing repetitions per arm (best run is recorded)",
    )
    args = parser.parse_args(argv)
    record = run_bench(full=args.full, repeats=args.repeats)
    _write_results(record)
    if not record["rows_match"]:
        print("FAIL: multirun study rows diverged from the per-run baseline")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
