"""Coordinator-side worker supervision: spawn, reap, respawn, circuit-break.

:class:`WorkerSupervisor` owns N local subprocesses speaking to a
coordinator (``repro.cli worker --connect`` by default; the partitioning
service points ``subcommand`` at ``agent`` to babysit host agents the same
way), turning the two-terminal TCP setup into a single self-contained
``supervised`` executor.  It is deliberately passive — no
threads, no signals: the coordinator's event loop calls :meth:`poll` once
per pump and the supervisor reaps exits, schedules respawns with capped
exponential backoff, and trips a crash-loop circuit breaker when a slot's
workers keep dying young.  After :meth:`retire` a slot's process may
still finish, but it is never respawned.

The breaker distinguishes *crashing* from *crash-looping* by uptime: a
worker that survived ``healthy_uptime_s`` before dying resets its slot's
backoff and crash streak (a kill mid-study is routine chaos), while
``breaker_threshold`` consecutive short-lived deaths mean the worker cannot
even start — a broken install, a bad flag — and respawning forever would
silently burn CPU, so :meth:`poll` raises instead.

``first_spawn_extra`` appends arguments to the *first* spawn of the *first*
slot only.  Chaos drills use it to give exactly one worker incarnation a
scripted failure (``--chaos '{"kill_runs": [0]}'``) whose *replacement*
comes up clean — proving the respawn path without tripping the breaker.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import SimulationError

__all__ = ["WorkerSupervisor"]


@dataclass
class _Slot:
    """One supervised worker position and its respawn bookkeeping."""

    index: int
    proc: Optional[subprocess.Popen] = None
    spawned_at: float = 0.0
    spawn_count: int = 0
    #: Next allowed spawn time (monotonic); respects the backoff.
    next_spawn_at: float = 0.0
    backoff_s: float = 0.0
    fast_crashes: int = 0
    exits: List[int] = field(default_factory=list)
    #: Set by :meth:`WorkerSupervisor.retire`: the slot's work is done, so
    #: its exit is reaped but never respawned.
    retired: bool = False


class WorkerSupervisor:
    """Keep ``count`` local worker subprocesses alive against a coordinator."""

    def __init__(
        self,
        address: Union[str, Tuple[str, int]],
        *,
        count: int = 1,
        subcommand: Sequence[str] = ("worker",),
        extra_args: Sequence[str] = (),
        slot_extra: Sequence[Sequence[str]] = (),
        first_spawn_extra: Sequence[str] = (),
        backoff_initial_s: float = 0.25,
        backoff_max_s: float = 5.0,
        breaker_threshold: int = 5,
        healthy_uptime_s: float = 1.0,
        quiet: bool = True,
    ) -> None:
        if count < 1:
            raise SimulationError("a supervisor needs at least one worker slot")
        if breaker_threshold < 1:
            raise SimulationError("breaker_threshold must be >= 1")
        if not subcommand:
            raise SimulationError("subcommand must name a repro.cli subcommand")
        if slot_extra and len(slot_extra) != count:
            raise SimulationError(
                f"slot_extra must provide one argument tuple per slot "
                f"({count}), got {len(slot_extra)}"
            )
        if isinstance(address, str):
            from repro.runtime.executors.tcp import parse_address

            address = parse_address(address)
        self.address = address
        self.count = count
        self.subcommand = tuple(subcommand)
        self.extra_args = tuple(extra_args)
        #: Per-slot arguments appended on *every* spawn of that slot (unlike
        #: ``first_spawn_extra``, which only decorates slot 0's first
        #: incarnation).  The service uses this to give each supervised host
        #: agent a stable ``--host-id`` that survives respawns.
        self.slot_extra = tuple(tuple(args) for args in slot_extra)
        self.first_spawn_extra = tuple(first_spawn_extra)
        self.backoff_initial_s = backoff_initial_s
        self.backoff_max_s = backoff_max_s
        self.breaker_threshold = breaker_threshold
        self.healthy_uptime_s = healthy_uptime_s
        self.quiet = quiet
        #: Respawns performed after a worker exit (first spawns not counted).
        self.restarts = 0
        self._slots = [_Slot(index=i) for i in range(count)]
        self._stopped = False

    # -- spawning ----------------------------------------------------------------

    def _command(self, slot: _Slot) -> List[str]:
        host, port = self.address
        cmd = [
            sys.executable,
            "-m",
            "repro.cli",
            *self.subcommand,
            "--connect",
            f"{host}:{port}",
            "--quiet",
        ]
        cmd.extend(self.extra_args)
        if self.slot_extra:
            cmd.extend(self.slot_extra[slot.index])
        if slot.index == 0 and slot.spawn_count == 0:
            cmd.extend(self.first_spawn_extra)
        return cmd

    def _environment(self) -> Dict[str, str]:
        # Workers must import `repro` no matter how the coordinator was
        # launched (editable install, plain checkout, test run).
        import repro

        env = dict(os.environ)
        src_dir = str(Path(repro.__file__).resolve().parents[1])
        previous = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            src_dir if not previous else src_dir + os.pathsep + previous
        )
        return env

    def _spawn(self, slot: _Slot, now: float) -> None:
        sink = subprocess.DEVNULL if self.quiet else None
        slot.proc = subprocess.Popen(
            self._command(slot),
            stdout=sink,
            stderr=sink,
            env=self._environment(),
        )
        slot.spawned_at = now
        slot.spawn_count += 1

    # -- the poll loop -----------------------------------------------------------

    def poll(self, now: Optional[float] = None) -> None:
        """Reap exits, respawn due slots, trip the breaker on crash loops.

        Called from the coordinator's event loop; cheap when nothing died.
        Raises :class:`~repro.errors.SimulationError` when a slot's workers
        keep dying within ``healthy_uptime_s`` of spawning.
        """
        if self._stopped:
            return
        if now is None:
            now = time.monotonic()
        for slot in self._slots:
            if slot.proc is not None:
                code = slot.proc.poll()
                if code is None:
                    if now - slot.spawned_at >= self.healthy_uptime_s:
                        # Long enough to have handshaked: the slot is
                        # healthy, forgive its past crashes.
                        slot.fast_crashes = 0
                        slot.backoff_s = 0.0
                    continue
                # The worker exited; decide how suspicious that is.
                slot.exits.append(code)
                slot.proc = None
                if slot.retired:
                    continue
                uptime = now - slot.spawned_at
                if uptime < self.healthy_uptime_s:
                    slot.fast_crashes += 1
                    slot.backoff_s = min(
                        max(slot.backoff_s * 2.0, self.backoff_initial_s),
                        self.backoff_max_s,
                    )
                else:
                    slot.fast_crashes = 0
                    slot.backoff_s = self.backoff_initial_s
                if slot.fast_crashes >= self.breaker_threshold:
                    recent = ", ".join(str(c) for c in slot.exits[-5:])
                    raise SimulationError(
                        f"worker slot {slot.index} crash-looped: "
                        f"{slot.fast_crashes} consecutive exits within "
                        f"{self.healthy_uptime_s:.1f}s of spawning (recent exit "
                        f"codes: {recent}); circuit breaker open — fix the "
                        f"worker command instead of respawning forever"
                    )
                slot.next_spawn_at = now + slot.backoff_s
            if slot.proc is None and not slot.retired and now >= slot.next_spawn_at:
                if slot.spawn_count > 0:
                    self.restarts += 1
                self._spawn(slot, now)

    def retire(self, index: int) -> None:
        """Never respawn slot ``index`` again; a running process may finish."""
        self._slots[index].retired = True

    # -- observability / lifecycle -----------------------------------------------

    def summary(self) -> Dict[str, Any]:
        return {
            "slots": self.count,
            "alive": sum(
                1
                for slot in self._slots
                if slot.proc is not None and slot.proc.poll() is None
            ),
            "restarts": self.restarts,
            "retired": [slot.index for slot in self._slots if slot.retired],
            "exit_codes": [list(slot.exits) for slot in self._slots],
        }

    def stop(self, timeout_s: float = 10.0) -> None:
        """Terminate every worker and wait; idempotent."""
        if self._stopped:
            return
        self._stopped = True
        procs = [slot.proc for slot in self._slots if slot.proc is not None]
        for proc in procs:
            if proc.poll() is None:
                proc.terminate()
        deadline = time.monotonic() + timeout_s
        for proc in procs:
            remaining = max(deadline - time.monotonic(), 0.1)
            try:
                proc.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=10.0)
        for slot in self._slots:
            slot.proc = None

    def __enter__(self) -> "WorkerSupervisor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def __del__(self):  # pragma: no cover - belt and braces
        try:
            self.stop()
        except Exception:
            pass
