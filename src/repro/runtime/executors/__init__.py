"""Pluggable run-execution backends behind one protocol.

Two backends ship in the box, both producing bit-identical results:

* :class:`SerialExecutor` — in-process, the deterministic default;
* :class:`TCPExecutor` — a multi-host coordinator; workers join with
  ``python -m repro.cli worker --connect host:port``, or are spawned and
  supervised by the coordinator itself (``supervise=N`` / the
  ``supervised`` executor spec; ``jobs=N`` and the ``pool`` name are
  this too), so every worker process speaks the same checked wire.

The TCP wire protocol is schema-versioned and carries plain data and a
closed table of named records only (:mod:`repro.runtime.executors.framing`):
run specs travel with their driver's registry name and the worker kernels
by fixed names, so decoding never imports anything a peer names.  The
coordinator runs on the
single-threaded link server of :mod:`repro.runtime.executors.links`, the
same event loop as the partitioning daemon.  Resilience is testable: a seeded
:class:`FaultPlan` (:mod:`repro.runtime.executors.chaos`) scripts frame
corruption, drops, duplicates, worker kills and slow replies at exact
points, and :class:`WorkerSupervisor`
(:mod:`repro.runtime.executors.supervisor`) respawns dead workers with
capped backoff behind a crash-loop circuit breaker.

See :mod:`repro.runtime.executors.base` for the protocol
(``submit`` / ``as_completed`` / ``map_specs``) and
:data:`repro.experiments.registry.EXECUTORS` for the name registry that
makes the strategy selectable from a study spec or the CLI.
"""

from repro.runtime.executors.base import (
    Executor,
    RunContext,
    RunSpec,
    TaskError,
    Ticket,
    check_unique_workloads,
    clear_worker_tables,
    execute_run,
    resolve_jobs,
    task_label,
    worker_tables,
)
from repro.runtime.executors.chaos import FaultPlan
from repro.runtime.executors.framing import (
    CODEC_SAFE,
    PROTOCOL_VERSION,
    FrameProtocolError,
    ProtocolError,
)
from repro.runtime.executors.serial import SerialExecutor
from repro.runtime.executors.supervisor import WorkerSupervisor
from repro.runtime.executors.tcp import TCPExecutor, parse_address
from repro.runtime.executors.worker import run_worker

__all__ = [
    "Executor",
    "Ticket",
    "RunSpec",
    "RunContext",
    "TaskError",
    "SerialExecutor",
    "TCPExecutor",
    "WorkerSupervisor",
    "FaultPlan",
    "FrameProtocolError",
    "ProtocolError",
    "PROTOCOL_VERSION",
    "CODEC_SAFE",
    "execute_run",
    "worker_tables",
    "clear_worker_tables",
    "resolve_jobs",
    "check_unique_workloads",
    "task_label",
    "parse_address",
    "run_worker",
]
