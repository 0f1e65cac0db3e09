"""Multi-host TCP executor: an event-driven, single-threaded coordinator.

The coordinator listens on a TCP address; workers (``repro.cli worker
--connect host:port``) dial in, introduce themselves with a ``("hello",
{...})`` frame carrying their protocol version and wire codec, receive the
batch context exactly once, and then stream length-framed
:class:`~repro.runtime.executors.base.RunSpec` /
:class:`~repro.runtime.results.RunResult` frames.  The coordinator is a
frame handler on a :class:`~repro.runtime.executors.links.LinkServer` — one
event loop, no threads — so scheduling is deterministic and easy to reason
about: accept, read, dispatch, heartbeat, in that order.

Fault model:

* **handshake**: a worker only becomes *ready* (counted toward
  ``min_workers``, eligible for dispatch) once its hello passes version and
  codec negotiation; a mismatched worker is told why (``("reject",
  reason)``) and dropped, and a connection that never completes the
  handshake is dropped after the heartbeat grace period;
* **worker loss** (process death, connection reset) is detected by EOF on
  the socket; the lost worker's in-flight run is resubmitted to another
  worker, up to ``max_retries`` times per run.  Runs are deterministic and
  idempotent, so a retry — or a duplicate result from a worker presumed
  dead — can never change the study's rows.  A run lost more than
  ``max_retries`` times degrades into a ``WorkerLost``
  :class:`~repro.runtime.executors.base.TaskError` instead of an exception
  escaping the event loop, so the study layer can retry or quarantine it;
* **heartbeat**: idle workers are pinged every ``heartbeat_s`` seconds and
  dropped when silent for ``heartbeat_grace_s`` (a half-open connection,
  e.g. after a network partition); busy workers are covered by EOF
  detection and, optionally, ``task_timeout_s``;
* **starvation**: if work is outstanding and no worker has been ready
  for ``connect_timeout_s`` seconds, the batch fails loudly rather than
  hanging forever — naming recent drop reasons so the operator knows *why*
  workers went away;
* **supervision**: with ``supervise=N`` the coordinator spawns and babysits
  N local worker subprocesses itself (see
  :class:`~repro.runtime.executors.supervisor.WorkerSupervisor`): exits are
  reaped and respawned with capped exponential backoff, and a crash-loop
  trips a circuit breaker instead of respawning forever.  They spawn at the
  first pump, never more than the largest batch so far has runs.

Every drop is recorded by the link server (the last 256, plus a total) and
summarised by :meth:`TCPExecutor.summary`.

Determinism: :meth:`~repro.runtime.executors.base.Executor.map_specs` merges
results in submission order, so the rows of a study are bit-identical no
matter how many workers connect or in which order results arrive.  The
seeded :class:`~repro.runtime.executors.chaos.FaultPlan` hooks (scripted
frame corruption/drops/delays/duplication) ride the same invariant — chaos
changes retries and wall-clock, never rows.

Security: frames use the schema-versioned safe codec
(:mod:`repro.runtime.executors.framing`), the only wire codec; a worker
advertising any other codec is rejected by name.  Run frames are encoded
at submit time, so a task the codec refuses (an unregistered driver, say)
raises from :meth:`submit` before any frame is sent.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.errors import SimulationError
from repro.runtime.executors.base import Executor, TaskError, Ticket, task_label
from repro.runtime.executors.chaos import FaultPlan
from repro.runtime.executors.framing import CODEC_SAFE, PROTOCOL_VERSION, pack_frame
from repro.runtime.executors.links import Link, LinkServer

__all__ = ["TCPExecutor", "parse_address"]


def parse_address(text: str) -> Tuple[str, int]:
    """``"host:port"`` -> ``(host, port)`` with a clear error message."""
    host, sep, port = str(text).rpartition(":")
    if not sep or not host or not port.isdigit():
        raise SimulationError(
            f"expected an address of the form host:port, got {text!r}"
        )
    if int(port) > 65535:
        raise SimulationError(f"port {int(port)} in {text!r} is outside 0-65535")
    return host, int(port)


@dataclass(eq=False)
class _WorkerLink(Link):
    """Coordinator-side state of one connected worker.

    Liveness is judged from ``awaiting_pong_since`` (cleared by the server
    whenever the worker sends anything), so an idle coordinator gap (no
    pumping between batches) can never get a healthy worker dropped before
    it had a chance to pong.
    """

    #: True once the worker's hello passed version/codec negotiation; only
    #: ready links count toward min_workers or receive work.
    ready: bool = False
    in_flight: Optional[Ticket] = None
    dispatched_at: float = 0.0
    last_ping: float = 0.0


class TCPExecutor(Executor):
    """Fan runs out to workers on other processes, containers or hosts."""

    def __init__(
        self,
        bind: Tuple[str, int] = ("127.0.0.1", 0),
        *,
        min_workers: int = 1,
        heartbeat_s: float = 5.0,
        heartbeat_grace_s: Optional[float] = None,
        connect_timeout_s: float = 60.0,
        task_timeout_s: Optional[float] = None,
        max_retries: int = 2,
        chaos: Optional[FaultPlan] = None,
        supervise: int = 0,
        supervise_extra: Sequence[str] = (),
        supervise_first_extra: Sequence[str] = (),
    ) -> None:
        """
        Parameters
        ----------
        bind:
            ``(host, port)`` the coordinator listens on; port ``0`` picks a
            free port (read it back from :attr:`address`).
        min_workers:
            How many workers must be ready before the first dispatch.
        heartbeat_s:
            Ping cadence for idle workers.
        heartbeat_grace_s:
            How long an unanswered ping (or an unfinished handshake) is
            tolerated before the worker is declared lost.  Defaults to
            ``max(3 * heartbeat_s, 10.0)``.
        connect_timeout_s:
            How long to tolerate having outstanding work and zero workers.
        task_timeout_s:
            Optional hard per-run bound; a worker busy longer is declared
            lost and its run resubmitted (``None`` = no bound).
        max_retries:
            How many times one run may be resubmitted after worker losses
            before it degrades into a ``WorkerLost`` task error.
        chaos:
            Optional scripted coordinator-side fault plan (corrupt / drop /
            delay / duplicate received result frames at exact indexes).
        supervise:
            Spawn and babysit this many local worker subprocesses (0 = the
            classic bring-your-own-workers mode).
        supervise_extra:
            Extra ``repro.cli worker`` arguments for every supervised spawn.
        supervise_first_extra:
            Extra arguments for the *first* spawn of the *first* slot only —
            the hook chaos drills use to give exactly one worker incarnation
            a scripted failure without tripping the circuit breaker on its
            replacements.
        """
        super().__init__()
        if min_workers < 1:
            raise SimulationError("min_workers must be >= 1")
        if heartbeat_grace_s is not None and heartbeat_grace_s <= 0:
            raise SimulationError("heartbeat_grace_s must be > 0")
        if supervise < 0:
            raise SimulationError("supervise must be >= 0")
        self.min_workers = min_workers
        self.heartbeat_s = heartbeat_s
        self.heartbeat_grace_s = (
            heartbeat_grace_s
            if heartbeat_grace_s is not None
            else max(3.0 * heartbeat_s, 10.0)
        )
        self.connect_timeout_s = connect_timeout_s
        self.task_timeout_s = task_timeout_s
        self.max_retries = max_retries
        self.chaos = chaos or FaultPlan()
        self.supervise = supervise
        self.supervise_extra = tuple(supervise_extra)
        self.supervise_first_extra = tuple(supervise_first_extra)
        #: Total resubmissions performed after worker losses (a statistic).
        self.retries = 0
        #: Accepts, reads and drops the worker links; see :meth:`_on_drop`.
        self.server = LinkServer(
            bind,
            on_frame=self._handle_frame,
            on_drop=self._on_drop,
            link_type=_WorkerLink,
        )
        self._tasks: Dict[Ticket, Any] = {}
        #: Each outstanding task's encoded ("run", ticket, task) frame.
        self._run_frames: Dict[Ticket, bytes] = {}
        self._retry_count: Dict[Ticket, int] = {}
        self._ready: List[Tuple[Ticket, Any]] = []
        self._done: Set[Ticket] = set()
        self._context_blob: Optional[bytes] = None
        self._started = False
        self._no_worker_since: Optional[float] = None
        self._closed = False
        self._chaos_frames = 0  # result/error frames seen, for chaos indexing
        self._supervisor = None

    @property
    def address(self) -> Tuple[str, int]:
        """The ``(host, port)`` workers should ``--connect`` to."""
        return self.server.address

    def _ready_links(self) -> List[_WorkerLink]:
        return [link for link in self.server.links if link.ready]

    def summary(self) -> Dict[str, Any]:
        """Health counters for logs and error messages."""
        ready = len(self._ready_links())
        out: Dict[str, Any] = {
            **self.server.summary(),
            "workers": ready,
            "handshaking": len(self.server.links) - ready,
            "retries": self.retries,
        }
        if self._supervisor is not None:
            out["supervisor"] = self._supervisor.summary()
        return out

    # -- context / submission hooks ----------------------------------------------

    def _context_changed(self) -> None:
        self._context_blob = pack_frame(("context", self._worker_fn, self._payload))
        for link in self._ready_links():
            self.server.send(link, self._context_blob)

    def _submitted(self, ticket: Ticket, spec: Any) -> None:
        self._run_frames[ticket] = pack_frame(("run", ticket, spec))
        self._tasks[ticket] = spec

    def outstanding(self) -> int:
        in_flight = sum(1 for link in self.server.links if link.in_flight is not None)
        return len(self._queue) + in_flight + len(self._ready)

    def parallelism(self) -> int:
        # Connected workers when known; otherwise the floor the coordinator
        # was told to wait for (workers may still be on their way).
        return max(len(self._ready_links()), self.min_workers)

    # -- the event loop ----------------------------------------------------------

    def as_completed(
        self, *, raise_errors: bool = True
    ) -> Iterator[Tuple[Ticket, Any]]:
        while self.outstanding():
            if self._ready:
                ticket, payload = self._ready.pop(0)
                if isinstance(payload, TaskError) and raise_errors:
                    payload.raise_()
                yield ticket, payload
                continue
            self._pump()

    def _pump(self) -> None:
        """One iteration of supervise / accept / read / dispatch / heartbeat."""
        now = time.monotonic()
        self._poll_supervisor(now)
        self._check_starvation(now)
        self.server.poll(min(0.25, max(self.heartbeat_s / 4.0, 0.02)))
        self._dispatch()
        self._heartbeat(time.monotonic())

    def _poll_supervisor(self, now: float) -> None:
        if self.supervise < 1:
            return
        # Each batch is queued before its first pump: keep no more workers
        # than the largest batch so far has runs, up to ``supervise``.
        wanted = min(self.supervise, max(self.outstanding(), 1))
        if self._supervisor is None:
            from repro.runtime.executors.supervisor import WorkerSupervisor

            self._supervisor = WorkerSupervisor(
                self.address,
                count=wanted,
                extra_args=self.supervise_extra,
                first_spawn_extra=self.supervise_first_extra,
            )
        elif wanted > self._supervisor.count:
            self._supervisor.grow(wanted)
        self._supervisor.poll(now)

    def _required_workers(self) -> int:
        """Workers that must be ready before the first dispatch."""
        slots = self._supervisor.count if self._supervisor else self.min_workers
        return min(self.min_workers, slots)

    def _handle_frame(self, link: _WorkerLink, frame: Any) -> None:
        tag = frame[0]
        if not link.ready and tag != "hello":
            self.server.drop(
                link, f"frame {tag!r} before handshake completed", frame_error=True
            )
            return
        if tag == "hello":
            self._handle_hello(link, frame)
        elif tag in ("result", "error"):
            repeats = self._chaos_gate(link)
            if repeats == 0:
                return  # chaos discarded the frame (and the link)
            for _ in range(repeats):
                if tag == "result":
                    _, ticket, result = frame
                else:
                    (_, result) = frame
                    ticket = result.ticket
                if link.in_flight == ticket:
                    link.in_flight = None
                if ticket not in self._done:
                    self._done.add(ticket)
                    self._tasks.pop(ticket, None)
                    self._run_frames.pop(ticket, None)
                    self._ready.append((ticket, result))
        elif tag != "pong":  # a pong's bytes already cleared the pending ping
            self.server.drop(link, f"unknown frame {tag!r}", frame_error=True)

    def _handle_hello(self, link: _WorkerLink, frame: Any) -> None:
        if link.ready:
            self.server.drop(link, "duplicate hello", frame_error=True)
            return
        info = frame[1]
        protocol = info.get("protocol")
        codec = info.get("codec")
        reason = None
        if protocol != PROTOCOL_VERSION:
            reason = (
                f"protocol version mismatch: worker speaks {protocol!r}, "
                f"coordinator speaks {PROTOCOL_VERSION} — upgrade the older side"
            )
        elif codec != CODEC_SAFE:
            reason = f"unknown wire codec {codec!r}"
        if reason is not None:
            # The worker's exit status and log then name the real problem.
            self.server.reject(link, pack_frame(("reject", reason)), reason)
            return
        link.ready = True
        self._no_worker_since = None
        if self._context_blob is not None:
            self.server.send(link, self._context_blob)

    def _chaos_gate(self, link: _WorkerLink) -> int:
        """Apply the scripted fault plan to one received result/error frame.

        Returns how many times the frame should be processed: 0 (chaos ate
        it — and dropped the link, as real corruption would), 1 (normal) or
        2 (scripted duplicate, exercising the ticket dedup).  Indexes count
        only result/error frames: hello/pong arrival order is timing-
        dependent, result order under ``map_specs`` is not.
        """
        plan = self.chaos
        if plan.is_empty():
            return 1
        index = self._chaos_frames
        self._chaos_frames += 1
        if index in plan.delay_frames:
            time.sleep(plan.delay_s)
        if index in plan.corrupt_frames:
            self.server.drop(link, f"chaos: corrupted result frame #{index}")
            return 0
        if index in plan.drop_frames:
            self.server.drop(link, f"chaos: dropped result frame #{index}")
            return 0
        return 2 if index in plan.duplicate_frames else 1

    def _dispatch(self) -> None:
        ready_links = self._ready_links()
        if not self._started and len(ready_links) < self._required_workers():
            return
        while self._queue:
            idle = next((l for l in ready_links if l.in_flight is None), None)
            if idle is None:
                return
            ticket, _ = self._queue.popleft()
            blob = self._run_frames.get(ticket)
            if blob is None:
                continue  # a requeued run whose late result already arrived
            idle.in_flight = ticket
            idle.dispatched_at = time.monotonic()
            self._started = True
            # On send failure _on_drop requeues the ticket and the loop
            # carries on with the remaining workers.
            self.server.send(idle, blob)

    def _heartbeat(self, now: float) -> None:
        grace = self.heartbeat_grace_s
        for link in list(self.server.links):
            if not link.ready:
                if now - link.connected_at > grace:
                    self.server.drop(link, "handshake timeout")
                continue
            if link.in_flight is None:
                if now - link.last_ping >= self.heartbeat_s:
                    link.last_ping = now
                    if link.awaiting_pong_since is None:
                        link.awaiting_pong_since = now
                    self.server.send(link, pack_frame(("ping",)))
                if (
                    link.awaiting_pong_since is not None
                    and now - link.awaiting_pong_since > grace
                ):
                    # `now` predates this pump's reads and any blocking send;
                    # drain the socket once more before judging, so a pong
                    # that already arrived can never be mistaken for silence.
                    self.server.read(link)
                    if (
                        link in self.server.links
                        and link.awaiting_pong_since is not None
                        and time.monotonic() - link.awaiting_pong_since > grace
                    ):
                        self.server.drop(link, "heartbeat timeout")
            elif (
                self.task_timeout_s is not None
                and now - link.dispatched_at > self.task_timeout_s
            ):
                self.server.drop(link, "task timeout")

    def _check_starvation(self, now: float) -> None:
        """Fail loudly instead of waiting forever for workers.

        Two starved states, both bounded by ``connect_timeout_s``: no
        ready workers at all with work outstanding, and fewer than
        ``min_workers`` ready before the first dispatch (the timer resets
        whenever a worker completes its handshake).
        """
        ready_count = len(self._ready_links())
        required = self._required_workers()
        work_waiting = self.outstanding() > len(self._ready)
        starved = work_waiting and (
            ready_count == 0 or (not self._started and ready_count < required)
        )
        if not starved:
            self._no_worker_since = None
            return
        if self._no_worker_since is None:
            self._no_worker_since = now
        elif now - self._no_worker_since > self.connect_timeout_s:
            host, port = self.address
            raise SimulationError(
                f"tcp executor at {host}:{port} waited "
                f"{self.connect_timeout_s:.0f}s with only {ready_count} of "
                f"{required} required workers connected and "
                f"{len(self._queue)} runs outstanding; start workers with "
                f"`repro.cli worker --connect {host}:{port}`"
                f"{self.server.recent_drops()}"
            )

    def _on_drop(self, link: _WorkerLink, reason: str) -> None:
        """Retry-on-worker-loss: resubmit the dropped link's orphaned run."""
        ticket = link.in_flight
        link.in_flight = None
        if ticket is None or ticket in self._done:
            return
        count = self._retry_count.get(ticket, 0) + 1
        self._retry_count[ticket] = count
        self.retries += 1
        task = self._tasks.get(ticket)
        if count > self.max_retries:
            # Graceful degradation: the run becomes a structured WorkerLost
            # failure the caller sees in stream order, instead of an
            # exception escaping the event loop mid-batch.
            self._done.add(ticket)
            self._tasks.pop(ticket, None)
            self._run_frames.pop(ticket, None)
            self._ready.append(
                (
                    ticket,
                    TaskError(
                        ticket=ticket,
                        label=task_label(task),
                        kind="WorkerLost",
                        message=(
                            f"run was lost {count} times (last worker "
                            f"{link.peer}: {reason}); giving up after "
                            f"max_retries={self.max_retries}"
                        ),
                    ),
                )
            )
            return
        self._queue.appendleft((ticket, task))

    # -- lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self.server.close(parting=pack_frame(("shutdown",)))
        if self._supervisor is not None:
            self._supervisor.stop()
            self._supervisor = None
        super().close()

    def __del__(self):  # pragma: no cover - belt and braces
        try:
            self.close()
        except Exception:
            pass
