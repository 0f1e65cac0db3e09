#!/usr/bin/env python3
"""CI smoke: one tournament, three executors, one byte-identical verdict —
and a regression gate that provably fires.

Runs the checked-in tournament (``examples/tournament_small.toml``: LFOC,
Dunn, Best-Static over 2 suites x 4 paired seeds) under the ``serial``,
``pool`` (the ``jobs`` path: 2 supervised local workers) and ``supervised``
(2 self-spawned local workers) executors, saves all three verdicts and
fails unless the JSONL files match
byte for byte — the leaderboard must be a pure function of the rows.

Then exercises the gate CLI end to end: the verdict must pass (exit 0)
against the committed baseline ``tournaments/baseline_small.json``, and a
``--nerf`` drill (LFOC degraded x1.5) must fail it (exit 1) with violation
records on both metrics — proving the gate watches real signal, not just
file plumbing.

Usage:  PYTHONPATH=src python benchmarks/smoke_tournament.py
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

from repro.tournament import load_tournament_spec, run_tournament  # noqa: E402

SPEC = REPO / "examples" / "tournament_small.toml"
BASELINE = REPO / "tournaments" / "baseline_small.json"


def check(condition: bool, message: str) -> None:
    if not condition:
        print(f"FAIL: {message}", file=sys.stderr)
        sys.exit(1)
    print(f"ok: {message}")


def gate_cli(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", "tournament", "gate", *args],
        env=env,
        capture_output=True,
        text=True,
    )


def main() -> None:
    spec = load_tournament_spec(SPEC)
    check(spec.n_scenarios() == 8, f"grid has {spec.n_scenarios()} scenario units")
    check(len(spec.policies) == 3, f"line-up has {len(spec.policies)} policies")

    with tempfile.TemporaryDirectory() as tmp:
        tmpdir = Path(tmp)
        verdicts = {}
        for name, executor in (
            ("serial", "serial"),
            ("pool", {"name": "pool", "workers": 2}),
            ("supervised", {"name": "supervised", "workers": 2}),
        ):
            result = run_tournament(spec, executor=executor)
            check(
                result.n_complete_units == 8 and not result.failures,
                f"{name}: 8 complete paired units, no quarantined runs",
            )
            path = tmpdir / f"{name}.jsonl"
            result.save(path)
            verdicts[name] = path

        serial_bytes = verdicts["serial"].read_bytes()
        for name in ("pool", "supervised"):
            check(
                verdicts[name].read_bytes() == serial_bytes,
                f"{name} verdict byte-identical to serial",
            )

        ranked = [line for line in serial_bytes.decode().splitlines()
                  if '"record": "standing"' in line]
        check(len(ranked) == 4, f"leaderboard has {len(ranked)} standings")

        # The committed baseline must accept the fresh verdict...
        verdict = str(verdicts["serial"])
        passed = gate_cli(verdict, "--baseline", str(BASELINE))
        check(
            passed.returncode == 0,
            f"gate passes against committed baseline "
            f"(stdout: {passed.stdout.strip().splitlines()[-1]})",
        )

        # ...and a deliberately nerfed policy must trip it, loudly.
        nerfed = gate_cli(
            verdict, "--baseline", str(BASELINE), "--nerf", "LFOC",
            "--nerf-factor", "1.5",
        )
        check(nerfed.returncode == 1, "gate fails after nerfing LFOC x1.5")
        check(
            "unfairness" in nerfed.stdout and "stp" in nerfed.stdout,
            "nerf violations name both degraded metrics",
        )

    print("smoke_tournament: all checks passed")


if __name__ == "__main__":
    main()
