"""Runtime-engine benchmark: the production engine vs. the reference loop.

Times a Fig. 7-style dynamic study — every workload under Stock-Linux, Dunn
and LFOC — once through the original per-event reference loop (the
``run_reference`` oracle in ``tests/oracles.py``) and once through
``fig7_dynamic_study`` on the production engine (vectorized struct-of-arrays
state plus shared evaluation tables, batched through an executor), and
writes a machine-readable ``BENCH_engine.json`` at the repository root so the
performance trajectory can be tracked across PRs.  The run *fails* if the two
arms disagree on any study row — speed means nothing if the answers differ.

Usage::

    python benchmarks/bench_perf_engine.py            # quick: 8/12/16-app mix
    python benchmarks/bench_perf_engine.py --full     # the whole Fig. 7 set
    python benchmarks/bench_perf_engine.py --jobs 4   # batch across processes
    python benchmarks/bench_perf_engine.py --min-speedup 5   # also gate speed

or through pytest (explicit path, the tier-1 run does not collect bench_*)::

    PYTHONPATH=src python -m pytest benchmarks/bench_perf_engine.py -q
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULT_PATH = REPO_ROOT / "BENCH_engine.json"
# The reference arm is a test oracle.
sys.path.insert(0, str(REPO_ROOT / "tests"))

#: Quick selection: a slice of the Fig. 7 x-axis at every workload size
#: (one 8-app mix plus P/S representatives of the 12- and 16-app sizes).
QUICK_WORKLOADS = ["P1", "P6", "S8", "P11", "S15"]


def _workloads(full: bool):
    from repro.workloads import dynamic_study_workloads

    workloads = dynamic_study_workloads()
    if full:
        return workloads
    selected = {name: None for name in QUICK_WORKLOADS}
    return [w for w in workloads if w.name in selected]


def run_bench(full: bool = False, jobs: int = 1, repeats: int = 2) -> dict:
    """Time both engine arms on the same study and compare the rows.

    Each arm runs ``repeats`` times cold (fresh tables every time) and the
    best wall-clock is recorded — the standard way to separate the code's
    cost from background-load noise.
    """
    import oracles
    from repro.analysis import fig7_dynamic_study
    from repro.runtime import EngineConfig

    workloads = _workloads(full)
    config = EngineConfig(
        instructions_per_run=1.0e9, min_completions=2, record_traces=False
    )

    reference_rows = None
    reference_s = float("inf")
    for _ in range(max(repeats, 1)):
        t0 = time.perf_counter()
        reference_rows = oracles.reference_fig7_rows(workloads, config)
        reference_s = min(reference_s, time.perf_counter() - t0)

    incremental_rows = None
    incremental_s = float("inf")
    for _ in range(max(repeats, 1)):
        t0 = time.perf_counter()
        incremental_rows = fig7_dynamic_study(
            workloads, engine_config=config, jobs=jobs
        )
        incremental_s = min(incremental_s, time.perf_counter() - t0)

    match = incremental_rows == reference_rows
    return {
        "benchmark": "runtime engine vs. reference loop (fig7 dynamic study)",
        "scale": "full" if full else "quick",
        "workloads": [w.name for w in workloads],
        "sizes": sorted({w.size for w in workloads}),
        "runs": len(reference_rows),
        "jobs": jobs,
        "repeats": max(repeats, 1),
        "reference_s": round(reference_s, 4),
        "incremental_s": round(incremental_s, 4),
        "speedup": round(reference_s / incremental_s, 2),
        "rows_match": match,
        "summary": [
            {
                "workload": row.workload,
                "policy": row.policy,
                "unfairness": row.unfairness,
                "stp": row.stp,
            }
            for row in reference_rows
        ],
    }


def _render(record: dict) -> str:
    return "\n".join(
        [
            f"engine vs. reference loop on {len(record['workloads'])} workloads "
            f"(sizes {record['sizes']}, {record['runs']} study rows, "
            f"{record['scale']} scale, jobs={record['jobs']})",
            f"  reference:    {record['reference_s']:.3f}s",
            f"  incremental:  {record['incremental_s']:.3f}s   "
            f"speedup {record['speedup']:.1f}x",
            f"  rows identical: {record['rows_match']}",
        ]
    )


def _write_results(record: dict) -> None:
    RESULT_PATH.write_text(json.dumps(record, indent=2) + "\n")
    print(_render(record))
    print(f"wrote {RESULT_PATH}")


def test_engine_backend_equivalence():
    """Pytest entry point: quick-scale run, study rows must match exactly.

    Deliberately no wall-clock assertion here — timing gates belong to
    ``main(--min-speedup)`` where the caller opts in (a loaded machine must
    not turn a correctness test red).  The measured speedup is still
    recorded in ``BENCH_engine.json``.
    """
    record = run_bench(full=False, repeats=1)
    _write_results(record)
    assert record["rows_match"], "incremental engine disagrees with reference"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--full", action="store_true", help="whole Fig. 7 selection")
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for the incremental batch (results unaffected)",
    )
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
        help="fail unless the incremental speedup reaches this factor",
    )
    args = parser.parse_args(argv)
    record = run_bench(full=args.full, jobs=args.jobs, repeats=args.repeats)
    _write_results(record)
    if not record["rows_match"]:
        print("FAIL: incremental engine disagrees with the reference study rows")
        return 1
    if args.min_speedup is not None and record["speedup"] < args.min_speedup:
        print(f"FAIL: speedup below {args.min_speedup}x")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
