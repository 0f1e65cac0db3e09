"""Multi-run engine benchmark: batched cross-run simulation + warm-start tables.

Times a Fig. 7-style dynamic study — every workload under Stock-Linux, Dunn
and LFOC — three ways, all with ``jobs=1`` so the comparison isolates the
engine, not process-level parallelism:

* **per-run incremental** — the serial baseline: one ``RuntimeEngine`` per
  (workload, driver) pair, sharing in-process evaluation tables;
* **multirun (cold)** — the same batch lowered onto grouped
  :class:`~repro.runtime.multirun.MultiRunEngine` stacks, tables built from
  scratch;
* **multirun (warm)** — the same again, with the evaluation tables
  warm-started from a persisted :meth:`EvaluationTables.save` snapshot via
  ``EngineConfig.tables_path`` (the spawned-worker warm-start path).

Every arm must produce byte-identical study rows — the run *fails* on any
mismatch — and the record includes a cold-vs-warm tables comparison (build
time vs. mmap load time, file size, cache population).  Results land in
``BENCH_multirun.json`` at the repository root.

``--spawn-check`` additionally round-trips the warm start through a fresh
spawn pool: the persisted tables are loaded by worker processes that share
nothing with this one, and their rows must match the serial rows exactly.

Usage::

    python benchmarks/bench_perf_multirun.py --quick      # default selection
    python benchmarks/bench_perf_multirun.py --full       # whole Fig. 7 set
    python benchmarks/bench_perf_multirun.py --min-speedup 4 --spawn-check

or through pytest (explicit path, the tier-1 run does not collect bench_*)::

    PYTHONPATH=src python -m pytest benchmarks/bench_perf_multirun.py -q
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from collections import defaultdict
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


def _study_members(workloads, platform):
    """The fig7 study's (workload, driver) batch as multirun member triples."""
    from repro.runtime.scheduler import (
        DunnUserLevelDaemon,
        LfocSchedulerPlugin,
        StockLinuxDriver,
    )

    members = []
    for workload in workloads:
        profiles = workload.phased_profiles(platform.llc_ways)
        for factory in (StockLinuxDriver, DunnUserLevelDaemon, LfocSchedulerPlugin):
            members.append((workload.name, profiles, factory(), workload.size))
    return members


def _build_tables_snapshot(workloads, config, platform, path) -> dict:
    """Run the whole batch against one shared tables instance and persist it.

    Returns the cold-vs-warm tables comparison: the time the study spends
    *building* the tables (the warm start's savings ceiling), the time a
    fresh process spends *loading* the snapshot instead, and what the file
    holds.
    """
    from repro.runtime import MultiRunEngine
    from repro.simulator import EvaluationTables

    tables = EvaluationTables(platform, max_entries=config.max_table_entries)
    group_config = replace(config, backend="multirun")
    by_size = defaultdict(list)
    for name, profiles, driver, size in _study_members(workloads, platform):
        by_size[size].append((name, profiles, driver))
    t0 = time.perf_counter()
    for members in by_size.values():
        MultiRunEngine(platform, members, group_config, tables=tables).run()
    build_s = time.perf_counter() - t0
    tables.save(str(path))
    t0 = time.perf_counter()
    loaded = EvaluationTables.load(str(path), platform)
    load_s = time.perf_counter() - t0
    sizes = loaded.cache_sizes()
    return {
        "build_with_study_s": round(build_s, 4),
        "load_s": round(load_s, 4),
        "file_bytes": os.path.getsize(path),
        "estimates": sizes["estimates"],
        "components": sizes["components"],
        "profiles": sizes["profiles"],
    }


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


def spawn_roundtrip_check(workloads, config, tables_path, baseline_rows) -> bool:
    """Warm-start round trip through a fresh spawn pool: rows must match.

    The pool's workers share nothing with this process — each loads the
    persisted tables from ``tables_path`` on first use, so a pass proves the
    snapshot carries everything a cold process needs.
    """
    from repro.analysis import fig7_dynamic_study
    from repro.runtime import PoolExecutor

    warm = replace(config, backend="multirun", tables_path=str(tables_path))
    with PoolExecutor(jobs=2) as executor:
        rows = fig7_dynamic_study(
            workloads, engine_config=warm, executor=executor
        )
    return rows == baseline_rows


def run_bench(
    full: bool = False, repeats: int = 2, spawn_check: bool = False
) -> dict:
    """Time the three arms on the same study and compare every row."""
    from repro.hardware import skylake_gold_6138
    from repro.runtime import EngineConfig

    workloads = _workloads(full)
    platform = skylake_gold_6138()
    config = EngineConfig(
        instructions_per_run=1.0e9, min_completions=2, record_traces=False
    )

    baseline_rows, baseline_s = _timed_study(
        workloads, config, repeats, backend="incremental"
    )
    cold_rows, cold_s = _timed_study(workloads, config, repeats, backend="multirun")

    with tempfile.TemporaryDirectory(prefix="repro-tables-") as tmp:
        tables_path = Path(tmp) / "fig7.tables"
        tables = _build_tables_snapshot(workloads, config, platform, tables_path)
        warm_config = replace(config, tables_path=str(tables_path))
        warm_rows, warm_s = _timed_study(
            workloads, warm_config, repeats, backend="multirun"
        )
        spawn_ok = None
        if spawn_check:
            spawn_ok = spawn_roundtrip_check(
                workloads, config, tables_path, baseline_rows
            )

    match = cold_rows == baseline_rows and warm_rows == baseline_rows
    record = {
        "benchmark": "multi-run engine + warm-start tables (fig7 dynamic study)",
        "scale": "full" if full else "quick",
        "workloads": [w.name for w in workloads],
        "sizes": sorted({w.size for w in workloads}),
        "runs": len(baseline_rows),
        "jobs": 1,
        "repeats": max(repeats, 1),
        "per_run_incremental_s": round(baseline_s, 4),
        "multirun_cold_s": round(cold_s, 4),
        "multirun_warm_s": round(warm_s, 4),
        "speedup_cold": round(baseline_s / cold_s, 2),
        "speedup_warm": round(baseline_s / warm_s, 2),
        "rows_match": match,
        "tables": tables,
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
    if spawn_ok is not None:
        record["spawn_warm_rows_match"] = spawn_ok
    return record


def _render(record: dict) -> str:
    lines = [
        f"multi-run engine on {len(record['workloads'])} workloads "
        f"(sizes {record['sizes']}, {record['runs']} study rows, "
        f"{record['scale']} scale, jobs={record['jobs']})",
        f"  per-run incremental: {record['per_run_incremental_s']:.3f}s",
        f"  multirun cold:       {record['multirun_cold_s']:.3f}s   "
        f"speedup {record['speedup_cold']:.1f}x",
        f"  multirun warm:       {record['multirun_warm_s']:.3f}s   "
        f"speedup {record['speedup_warm']:.1f}x",
        f"  tables: built in {record['tables']['build_with_study_s']:.3f}s, "
        f"loaded in {record['tables']['load_s']:.4f}s "
        f"({record['tables']['file_bytes']} bytes, "
        f"{record['tables']['estimates']} estimates)",
        f"  rows identical: {record['rows_match']}",
    ]
    if "spawn_warm_rows_match" in record:
        lines.append(
            f"  spawn warm-start rows identical: {record['spawn_warm_rows_match']}"
        )
    return "\n".join(lines)


def _write_results(record: dict) -> None:
    RESULT_PATH.write_text(json.dumps(record, indent=2) + "\n")
    print(_render(record))
    print(f"wrote {RESULT_PATH}")


def test_multirun_equivalence():
    """Pytest entry point: quick-scale run, every arm's rows must match.

    No wall-clock assertion here (timing gates belong to
    ``main(--min-speedup)`` where the caller opts in); the measured speedups
    are still recorded in ``BENCH_multirun.json``.
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
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=None,
        help="fail unless the warm multirun speedup reaches this factor",
    )
    parser.add_argument(
        "--spawn-check",
        action="store_true",
        help="also round-trip the warm start through a fresh spawn pool",
    )
    args = parser.parse_args(argv)
    record = run_bench(
        full=args.full, repeats=args.repeats, spawn_check=args.spawn_check
    )
    _write_results(record)
    if not record["rows_match"]:
        print("FAIL: multirun study rows diverged from the per-run baseline")
        return 1
    if record.get("spawn_warm_rows_match") is False:
        print("FAIL: spawn-pool warm-start rows diverged from the baseline")
        return 1
    if args.min_speedup is not None and record["speedup_warm"] < args.min_speedup:
        print(f"FAIL: warm multirun speedup below {args.min_speedup}x")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
