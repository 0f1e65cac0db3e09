"""The partitioning daemon: a long-lived control plane over TCP.

``repro.cli serve`` runs one :class:`PartitionDaemon`: a frame handler on
the same single-threaded
:class:`~repro.runtime.executors.links.LinkServer` event loop as the TCP
executor coordinator, and for the same reasons: no locks, no races, and
every run of the loop over the same frame sequence is deterministic,
which the replay pin depends on.

Each accepted connection must open with a validated ``host_hello``
(version-negotiated; a mismatch is answered with a courtesy ``reject``
before the drop) — except the read-only ``metrics`` request, which any
connection may send at any time and which never binds a host.  After the
handshake, sequenced frames are *gathered*: one pass of the event loop
reads every ready link, collects the sequenced frames, and feeds them to
:meth:`~repro.service.session.ServiceCore.handle_drain` as **one batch**
— which is what turns per-tick monitor ingestion into a single fused
``MonitorBank.observe_batch`` call across all hosts, the scaling move
that keeps this loop single-threaded and paper-faithful.  Each frame's
reply — always exactly one ``mask_update`` — goes straight back on its
wire.  Failure policy is the link server's: **corruption or protocol
violations cost the link, never the event loop.**  A torn frame waits
for more bytes; a garbled one raises out of
:class:`~repro.runtime.executors.framing.FrameReader` and is charged to
``frame_errors``; the agent reconnects — same boot token, so the session
*resumes* and the agent replays its unacknowledged journal suffix — and
the epoch/sequence machinery makes whatever was in flight idempotent.

With ``snapshot=PATH`` the daemon is crash-recoverable: it restores from
``PATH`` at startup when the file exists (re-parking monitors so
reconnecting agents resume mid-epoch), checkpoints periodically
(``snapshot_every_s``) at pump boundaries — where the shared bank is
always flushed — and takes a final snapshot on orderly shutdown.  Files
are CRC-guarded and replaced atomically
(:mod:`repro.service.snapshot`), so a crash mid-write costs nothing but
recency.  A scripted :class:`~repro.runtime.executors.chaos.FaultPlan`
``daemon_kill_decisions`` fault simulates exactly that crash: right
after the N-th replay-log decision lands the daemon drops every link
and dies *without* a final snapshot, and the chaos drill asserts a
restored daemon regenerates a byte-identical log.

With ``supervise=N`` the daemon babysits its own host agents through
:class:`~repro.runtime.executors.supervisor.WorkerSupervisor`
(``subcommand=("agent",)``): each slot gets a stable ``--host-id`` that
survives respawns, a slot is retired once its host's ``host_bye`` is
handled (an agent that finished is never respawned), and a scripted
:class:`~repro.runtime.executors.chaos.FaultPlan` can be handed to the
first incarnation only (``first_spawn_extra``) so one agent dies
mid-trace and its replacement comes up clean — the chaos drill CI runs.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.core.lfoc import DEFAULT_PARAMS, LfocParams
from repro.errors import SimulationError
from repro.runtime.executors.chaos import FaultPlan
from repro.runtime.executors.framing import pack_frame
from repro.runtime.executors.links import Link, LinkServer
from repro.service import protocol
from repro.service.protocol import SEQUENCED_KINDS, ServiceProtocolError, check_frame
from repro.service.replay import ReplayLog
from repro.service.session import ServiceCore
from repro.service.snapshot import load_snapshot, save_snapshot

__all__ = ["PartitionDaemon"]


@dataclass(eq=False)
class _AgentLink(Link):
    """One agent connection."""

    #: Host id, set once the handshake completes; None while pending.
    host: Optional[str] = None


class PartitionDaemon:
    """Accept host agents, keep tenant state, push CAT mask updates."""

    def __init__(
        self,
        bind: Tuple[str, int] = ("127.0.0.1", 0),
        *,
        policy: str = "lfoc",
        n_ways: Optional[int] = None,
        params: LfocParams = DEFAULT_PARAMS,
        replay: Optional[ReplayLog] = None,
        supervise: int = 0,
        workload: Optional[str] = None,
        batches: int = 50,
        seed: int = 0,
        agent_chaos: Optional[Mapping[str, Any]] = None,
        quiet: bool = True,
        snapshot: Optional[str] = None,
        snapshot_every_s: float = 5.0,
    ) -> None:
        if supervise and not workload:
            raise SimulationError(
                "supervised agents need a workload (serve --supervise N --workload W)"
            )
        self.core = ServiceCore(
            policy=policy, n_ways=n_ways, params=params, replay=replay
        )
        self.snapshot = snapshot
        self.snapshot_every_s = snapshot_every_s
        #: True when startup state came from an existing snapshot file.
        self.restored = False
        self.snapshots_written = 0
        if snapshot and os.path.exists(snapshot):
            restored = load_snapshot(snapshot)
            if restored.policy != policy:
                raise SimulationError(
                    f"snapshot {snapshot} was taken under policy "
                    f"{restored.policy!r}, daemon configured for {policy!r}"
                )
            if n_ways is not None and restored.platform.llc_ways != n_ways:
                raise SimulationError(
                    f"snapshot {snapshot} was taken with {restored.platform.llc_ways} "
                    f"LLC ways, daemon configured for {n_ways}"
                )
            self.core = restored
            self.restored = True
        self.n_ways = n_ways
        self.supervise = supervise
        self.workload = workload
        self.batches = batches
        self.seed = seed
        self.agent_chaos = dict(agent_chaos) if agent_chaos else None
        # Daemon-side faults ride in the same chaos dict the agents get;
        # the agent side ignores the daemon keys and vice versa.
        self._kill_decisions = list(
            FaultPlan.from_dict(self.agent_chaos).daemon_kill_decisions
        )
        #: True once a scripted daemon_kill fired: links dropped, listener
        #: closed, **no** final snapshot — a simulated crash.
        self.killed = False
        self.quiet = quiet
        self._stop_requested = False
        self._next_snapshot_due: Optional[float] = None
        #: Accepts, reads and drops the agent links.
        self.server = LinkServer(
            bind, on_frame=self._collect_frame, link_type=_AgentLink
        )
        #: Sequenced frames gathered by the current pump, for one drain.
        self._drain: List[Tuple[_AgentLink, str, Dict[str, Any]]] = []
        self._supervisor = None
        self._closed = False

    # -- addresses / observability -------------------------------------------------

    @property
    def address(self) -> Tuple[str, int]:
        """The ``(host, port)`` agents should ``--connect`` to."""
        return self.server.address

    @property
    def frame_errors(self) -> int:
        """Corrupt/violating frames charged to dropped links (never crashes)."""
        return self.server.frame_errors

    @property
    def replay(self) -> ReplayLog:
        return self.core.replay

    @property
    def host_ids(self) -> List[str]:
        """Stable ids of the supervised agent slots (``host0`` .. ``hostN-1``)."""
        return [f"host{i}" for i in range(self.supervise)]

    def summary(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            **self.server.summary(),
            "restored": self.restored,
            "snapshots_written": self.snapshots_written,
            **self.core.summary(),
        }
        if self._supervisor is not None:
            out["supervisor"] = self._supervisor.summary()
        return out

    def request_stop(self) -> None:
        """Ask :meth:`run` to exit at the next pump boundary (SIGTERM path)."""
        self._stop_requested = True

    # -- the event loop -------------------------------------------------------------

    def pump(self, timeout: float = 0.05) -> None:
        """One iteration: accept, gather every ready link's sequenced frames
        into one core drain (one fused ``observe_batch``), reply, then
        checkpoint / chaos / supervise."""
        self._drain = []
        self.server.poll(timeout)
        if self._drain:
            self._handle_drain(self._drain)
        self._maybe_chaos_kill()
        if self.killed:
            return
        self._maybe_snapshot()
        self._poll_supervisor()

    def run(
        self,
        *,
        until_byes: Optional[int] = None,
        max_seconds: Optional[float] = None,
    ) -> Dict[str, Any]:
        """Pump until ``until_byes`` hosts completed (or the deadline/forever).

        Completion counts hosts that *ever* sent an orderly ``host_bye`` —
        a supervisor respawning an already-finished agent cannot un-finish
        it.  Returns :meth:`summary`.
        """
        deadline = time.monotonic() + max_seconds if max_seconds else None
        try:
            while True:
                if self.killed or self._stop_requested:
                    break
                if (
                    until_byes is not None
                    and len(self.core.ever_completed) >= until_byes
                ):
                    break
                if deadline is not None and time.monotonic() >= deadline:
                    if until_byes is not None:
                        raise SimulationError(
                            f"daemon deadline after {max_seconds:.0f}s with only "
                            f"{len(self.core.ever_completed)} of {until_byes} "
                            f"host sessions completed{self.server.recent_drops()}"
                        )
                    break
                self.pump()
        finally:
            if self._supervisor is not None:
                self._supervisor.stop()
        return self.summary()

    def _poll_supervisor(self) -> None:
        if self.supervise < 1:
            return
        if self._supervisor is None:
            from repro.runtime.executors.supervisor import WorkerSupervisor

            extra = [
                "--workload",
                str(self.workload),
                "--batches",
                str(self.batches),
                "--seed",
                str(self.seed),
            ]
            if self.n_ways is not None:
                extra += ["--ways", str(self.n_ways)]
            first = (
                ("--chaos", json.dumps(self.agent_chaos)) if self.agent_chaos else ()
            )
            self._supervisor = WorkerSupervisor(
                self.address,
                count=self.supervise,
                subcommand=("agent",),
                extra_args=extra,
                slot_extra=[("--host-id", host) for host in self.host_ids],
                first_spawn_extra=first,
                quiet=self.quiet,
            )
        self._supervisor.poll()

    # -- frames ----------------------------------------------------------------------

    def _collect_frame(self, link: _AgentLink, frame: Any) -> None:
        """Handle handshake/metrics frames inline; queue sequenced frames for
        the pump's single core drain."""
        drop = self.server.drop
        try:
            kind, payload = check_frame(frame)
        except ServiceProtocolError as exc:
            drop(link, f"invalid frame: {exc}", frame_error=True)
            return
        if kind == "metrics":
            # Read-only observability: answered from any connection, bound
            # or not, without touching session state.
            try:
                reply = self.core.handle_metrics(payload)
            except ServiceProtocolError as exc:
                drop(link, f"bad metrics request: {exc}", frame_error=True)
                return
            self.server.send(link, pack_frame(reply))
            return
        if link.host is None:
            if kind != "host_hello":
                drop(link, f"{kind!r} before host_hello", frame_error=True)
                return
            try:
                reply = self.core.handle_hello(payload)
            except ServiceProtocolError as exc:
                # Courtesy reject so the agent's error names the mismatch.
                reason = str(exc)
                self.server.reject(link, pack_frame(protocol.reject(reason)), reason)
                return
            # One live link per host: a reconnecting agent's fresh hello
            # supersedes the old connection even before its EOF surfaces.
            for other in list(self.server.links):
                if other is not link and other.host == payload["host"]:
                    drop(other, "superseded by a newer connection")
            link.host = payload["host"]
            self.server.send(link, pack_frame(reply))
            return
        if kind not in SEQUENCED_KINDS:
            drop(link, f"unexpected {kind!r} after handshake", frame_error=True)
            return
        self._drain.append((link, kind, payload))

    def _handle_drain(
        self, drain: List[Tuple[_AgentLink, str, Dict[str, Any]]]
    ) -> None:
        """Feed the gathered sequenced frames to the core as one batch.

        A link superseded or dropped while its frame sat in the gather
        buffer is skipped; per-frame protocol violations cost that link
        only — the other hosts' frames in the same drain still answer.
        """
        links = self.server.links
        entries = [
            (link, kind, payload)
            for link, kind, payload in drain
            if link in links and link.host is not None
        ]
        if not entries:
            return
        results = self.core.handle_drain(
            [(link.host, kind, payload) for link, kind, payload in entries]
        )
        for (link, kind, _payload), result in zip(entries, results):
            if isinstance(result, Exception):
                self.server.drop(
                    link, f"protocol violation: {result}", frame_error=True
                )
                continue
            if link in links:
                self.server.send(link, pack_frame(result))
            if kind == "host_bye" and self._supervisor is not None:
                # The host's session is complete: a respawn would replay it.
                if link.host in self.host_ids:
                    self._supervisor.retire(self.host_ids.index(link.host))

    # -- checkpoints and scripted crashes ---------------------------------------------

    def _maybe_snapshot(self) -> None:
        """Periodic checkpoint at a pump boundary (the bank is flushed here)."""
        if not self.snapshot or self.snapshot_every_s <= 0:
            return
        now = time.monotonic()
        if self._next_snapshot_due is None:
            self._next_snapshot_due = now + self.snapshot_every_s
            return
        if now < self._next_snapshot_due:
            return
        save_snapshot(self.core, self.snapshot)
        self.snapshots_written += 1
        self._next_snapshot_due = now + self.snapshot_every_s

    def _maybe_chaos_kill(self) -> None:
        if not self._kill_decisions or self.killed:
            return
        if len(self.core.replay) <= self._kill_decisions[0]:
            return
        # Simulated hard crash: every link dies, the port closes, and —
        # crucially — no parting snapshot is written.  Restore must make do
        # with the latest periodic one (or none at all).
        self._kill_decisions.pop(0)
        self.killed = True
        for link in list(self.server.links):
            self.server.drop(link, "daemon killed by fault plan")
        self.server.stop_listening()

    # -- lifecycle -------------------------------------------------------------------

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self.snapshot and not self.killed:
            # Orderly shutdown (including SIGTERM) checkpoints first, so a
            # restarted daemon resumes exactly where this one stopped.
            save_snapshot(self.core, self.snapshot)
            self.snapshots_written += 1
        self.server.close()
        if self._supervisor is not None:
            self._supervisor.stop()

    def __enter__(self) -> "PartitionDaemon":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
