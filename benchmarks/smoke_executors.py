#!/usr/bin/env python3
"""CI smoke: one study, three executors, identical rows — plus resume.

Runs the checked-in TOML study (``examples/study_fig7.toml``) under the
``serial``, ``pool`` (the ``jobs`` path: 2 supervised local workers) and
``tcp`` (2 self-spawned localhost workers) executors and fails on any
cross-executor row mismatch.

Then exercises the crash-safe checkpoint path: a two-scenario study is run
with a checkpoint, "killed" by truncating the checkpoint to its first
completed scenario, and re-run with ``resume=True`` — asserting that only
the missing scenario is recomputed, that no scenario ID is duplicated, and
that the resumed rows equal a fresh full run.

Usage:  PYTHONPATH=src python benchmarks/smoke_executors.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

from repro.experiments import load_study_spec, run_study  # noqa: E402
from repro.runtime import TCPExecutor  # noqa: E402
import repro.experiments.study as study_mod  # noqa: E402


def spawn_worker(port: int, *extra: str) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "worker",
         "--connect", f"127.0.0.1:{port}", "--quiet", *extra],
        env=env,
    )


def check(condition: bool, message: str) -> None:
    if not condition:
        print(f"FAIL: {message}", file=sys.stderr)
        sys.exit(1)
    print(f"ok: {message}")


def cross_executor_check() -> None:
    spec = load_study_spec(REPO / "examples" / "study_fig7.toml")

    serial_rows = run_study(spec, executor="serial").rows()
    check(len(serial_rows) == 6, f"serial run produced {len(serial_rows)} rows")

    pool_rows = run_study(spec, executor={"name": "pool", "workers": 2}).rows()
    check(pool_rows == serial_rows, "pool rows identical to serial rows")

    coordinator = TCPExecutor(("127.0.0.1", 0), min_workers=2)
    _host, port = coordinator.address
    workers = [spawn_worker(port), spawn_worker(port)]
    try:
        with coordinator:
            tcp_rows = run_study(spec, executor=coordinator).rows()
    finally:
        for proc in workers:
            proc.wait(timeout=120)
    check(tcp_rows == serial_rows, "tcp (2 workers) rows identical to serial rows")


def resume_check() -> None:
    base = load_study_spec(REPO / "examples" / "study_fig7.toml")
    scenario = base.scenarios[0]
    # Split the study's workloads into one scenario each, so there is a
    # completed scenario to keep and a missing one to recompute.
    spec = type(base)(
        name=base.name,
        description=base.description,
        scenarios=tuple(
            type(scenario)(
                name=f"dyn-{name}",
                kind=scenario.kind,
                workloads=(
                    type(scenario.workloads[0])(suite="dynamic_study", names=(name,)),
                ),
                policies=scenario.policies,
                engine=scenario.engine,
                solver=scenario.solver,
                platform=scenario.platform,
            )
            for name in ("P1", "S1")
        ),
    )
    checkpoint = Path(tempfile.mkdtemp()) / "smoke_rows.jsonl"
    full = run_study(spec, checkpoint=checkpoint)
    check(
        [s.scenario_id for s in full.scenarios] == ["dyn-P1", "dyn-S1"],
        "full run completed both scenarios",
    )

    # "Kill" the study after its first scenario: keep header + scenario 1.
    kept = []
    for line in checkpoint.read_text(encoding="utf-8").splitlines(keepends=True):
        kept.append(line)
        if json.loads(line).get("record") == "scenario_end":
            break
    checkpoint.write_text("".join(kept), encoding="utf-8")

    executed = []
    original = study_mod._run_scenario

    def counting(scenario, seed, executor):
        executed.append(scenario.scenario_id(seed))
        return original(scenario, seed, executor)

    study_mod._run_scenario = counting
    try:
        resumed = run_study(spec, checkpoint=checkpoint, resume=True)
    finally:
        study_mod._run_scenario = original

    check(executed == ["dyn-S1"], "resume recomputed only the missing scenario")
    ids = resumed.scenario_ids()
    check(len(ids) == len(set(ids)), "no duplicate scenario IDs after resume")
    check(resumed.rows() == full.rows(), "resumed rows equal the fresh full run")


def main() -> None:
    cross_executor_check()
    resume_check()
    print("executor smoke OK")


if __name__ == "__main__":
    main()
