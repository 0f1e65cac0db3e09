"""The worker side of the TCP executor: ``repro.cli worker --connect``.

A worker is a plain blocking loop: connect to the coordinator, introduce
itself with a ``("hello", {...})`` frame carrying its protocol version and
wire codec (always ``"safe"``), receive the batch context once
(``("context", kernel, payload)``), then execute ``("run", ticket,
task)`` frames one at a time, answering each with a ``("result", ...)`` —
or a shipped :class:`~repro.runtime.executors.base.TaskError` when the
task raises.  Frames carry plain data and the records of
:mod:`repro.runtime.executors.framing`; for extension drivers, start the
worker from a script that imports their registering module, then calls
:func:`run_worker`.
``("ping",)`` frames are answered with ``("pong",)`` between runs; EOF, a
``("shutdown",)`` frame, or the coordinator dropping the connection
mid-conversation all end the loop cleanly (exit code 0 — an in-flight run is
requeued coordinator-side, so a dropped worker did nothing wrong).  A
``("reject", reason)`` reply to the hello — version mismatch, refused codec
— is a protocol failure: the worker reports it and exits 1 so supervisors
and scripts see it.

Workers keep per-process caches (phased profiles, evaluation tables,
resolved static-study policies) through the context they receive; the
table cache is reset on every context frame, so a long-lived worker serving
many studies never accumulates stale table sets.

Fault injection for resilience tests and chaos drills: ``max_runs``
disconnects cleanly after N results, ``crash_after`` kills the process
without replying when run N+1 arrives, and a
:class:`~repro.runtime.executors.chaos.FaultPlan` scripts kills, slow
replies and duplicated results at exact run indexes.
"""

from __future__ import annotations

import os
import socket
import time
from typing import Any, Callable, Optional, Tuple, Union

from repro.errors import SimulationError
from repro.runtime.executors.base import TaskError, clear_worker_tables
from repro.runtime.executors.chaos import FaultPlan
from repro.runtime.executors.framing import (
    CODEC_SAFE,
    PROTOCOL_VERSION,
    FrameProtocolError,
    enable_keepalive,
    recv_frame,
    send_frame,
)

__all__ = ["run_worker"]


class _ProtocolError(SimulationError):
    """The coordinator spoke a frame this worker does not understand."""


def _connect(
    host: str, port: int, *, attempts: int, delay_s: float
) -> socket.socket:
    last_error: Optional[OSError] = None
    for _ in range(max(attempts, 1)):
        try:
            return socket.create_connection((host, port), timeout=10.0)
        except OSError as exc:
            last_error = exc
            time.sleep(delay_s)
    raise SimulationError(
        f"could not connect to coordinator at {host}:{port} after "
        f"{attempts} attempts: {last_error}"
    )


def run_worker(
    address: Union[str, Tuple[str, int]],
    *,
    max_runs: Optional[int] = None,
    crash_after: Optional[int] = None,
    connect_attempts: int = 40,
    connect_delay_s: float = 0.25,
    quiet: bool = False,
    chaos: Optional[FaultPlan] = None,
) -> int:
    """Serve runs for the coordinator at ``address`` until told to stop.

    Returns a process exit code (0 on clean shutdown, including connection
    loss; 1 on protocol failure).  ``address`` is ``"host:port"`` or a
    ``(host, port)`` tuple.
    """
    from repro.runtime.executors.tcp import parse_address

    host, port = parse_address(address) if isinstance(address, str) else address
    chaos = chaos or FaultPlan()

    def log(message: str) -> None:
        if not quiet:
            print(f"[worker {os.getpid()}] {message}", flush=True)

    sock = _connect(host, port, attempts=connect_attempts, delay_s=connect_delay_s)
    sock.settimeout(None)
    enable_keepalive(sock)
    log(f"connected to {host}:{port}")
    try:
        return _serve(
            sock,
            log,
            max_runs=max_runs,
            crash_after=crash_after,
            chaos=chaos,
        )
    except (_ProtocolError, FrameProtocolError) as exc:
        # A version-mismatched or corrupt coordinator conversation is a real
        # failure, not a clean shutdown: orchestration watching exit codes
        # must see it.  (Plain connection loss stays a clean exit below.)
        log(f"protocol error: {exc}")
        return 1
    except (OSError, SimulationError) as exc:
        # The coordinator vanished (or dropped this worker, e.g. after a
        # task timeout) mid-conversation.  Any run in flight is requeued on
        # the coordinator side, so this is a clean exit, not a failure.
        log(f"connection to coordinator lost ({exc}); exiting")
        return 0
    finally:
        try:
            sock.close()
        except OSError:
            pass


def _serve(
    sock: socket.socket,
    log: Callable[[str], None],
    *,
    max_runs: Optional[int],
    crash_after: Optional[int],
    chaos: FaultPlan,
) -> int:
    context: Optional[Tuple[Any, Any]] = None
    runs_done = 0
    send_frame(
        sock,
        (
            "hello",
            {"protocol": PROTOCOL_VERSION, "codec": CODEC_SAFE, "pid": os.getpid()},
        ),
    )
    while True:
        frame = recv_frame(sock)
        if frame is None:
            log("coordinator closed the connection")
            return 0
        tag = frame[0]
        if tag == "context":
            _, worker_fn, payload = frame
            context = (worker_fn, payload)
            clear_worker_tables()  # fresh tables per context
        elif tag == "ping":
            send_frame(sock, ("pong",))
        elif tag == "shutdown":
            log(f"shutdown after {runs_done} runs")
            return 0
        elif tag == "reject":
            reason = frame[1] if len(frame) > 1 else "no reason given"
            raise _ProtocolError(f"coordinator rejected this worker: {reason}")
        elif tag == "run":
            _, ticket, task = frame
            if crash_after is not None and runs_done >= crash_after:
                log(f"crash-after={crash_after} reached; dying mid-run")
                os._exit(17)
            if runs_done in chaos.kill_runs:
                log(f"chaos: scripted kill at run index {runs_done}")
                os._exit(17)
            if context is None:
                send_frame(
                    sock,
                    (
                        "error",
                        TaskError(
                            ticket=ticket,
                            label="<no-context>",
                            kind="SimulationError",
                            message="worker received a run before any context",
                        ),
                    ),
                )
                continue
            worker_fn, payload = context
            try:
                result = worker_fn(payload, task)
            except Exception as exc:
                reply = ("error", TaskError.capture(ticket, task, exc))
            else:
                reply = ("result", ticket, result)
            if runs_done in chaos.slow_runs:
                log(f"chaos: scripted slow reply at run index {runs_done}")
                time.sleep(chaos.slow_s)
            send_frame(sock, reply)
            if runs_done in chaos.duplicate_results:
                log(f"chaos: scripted duplicate reply at run index {runs_done}")
                send_frame(sock, reply)
            runs_done += 1
            if max_runs is not None and runs_done >= max_runs:
                log(f"max-runs={max_runs} reached; disconnecting")
                return 0
        else:
            raise _ProtocolError(f"unknown frame {tag!r} from coordinator")
