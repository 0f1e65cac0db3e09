"""Per-host tenant state and the transport-free service core.

:class:`HostSession` is the daemon's brain for one host.  Per-app monitor
state lives in one growable :class:`~repro.runtime.monitor.MonitorBank`
shared by every session (wrapped by :class:`BankIngest`), each app owning
one bank *row*; the session's ``monitors`` dict holds
:class:`~repro.runtime.monitor.BankMonitor` row views.  The bank is the
service's only ingest path: the sequential one-``AppMonitor``-per-app
ingest it replaced is the parity oracle in ``tests/oracles.py``.
Decisions flow through the incremental decision layer:

* **lfoc** — a classification version vector over the live apps guards a
  fingerprint-keyed :class:`~repro.core.lfoc.LfocDecisionCache`, so an
  unchanged classification answers without re-running Algorithm 1 and a
  *recurring* classification answers from the cache in O(changed apps);
* **dunn** — rolling stall-fraction windows per app feeding
  :meth:`~repro.policies.dunn.DunnPolicy.allocation_for_values` behind an
  LRU keyed on the exact stall vector bytes.

**Batched ingest.**  Frame handling is split into :meth:`HostSession.stage`
(sequence checks, tenant churn, classify installs, and *staging* of
monitor samples into the shared bank buffers) and
:meth:`HostSession.finish` (resolve the staged trigger mask into sweep
requests, decide, build and cache the reply).  Between the two sits one
fused :meth:`~repro.runtime.monitor.MonitorBank.observe_batch` call over
*every* staged row of *every* host — that is
:meth:`ServiceCore.handle_drain`, which the daemon feeds one batch of
frames per event-loop pass.  Rows are arithmetically independent in
``observe_batch``, so cross-host batching is bit-identical to sequential
per-app ingest; the one ordering hazard — two frames of the *same* host
in one drain — is handled by flushing before the second is staged, which
preserves exact sequential semantics (**ingest → depart → decide**, the
order :func:`~repro.service.replay.offline_replay` pins).

Sessions are **lockstep and idempotent**: every sequenced frame gets
exactly one ``mask_update`` reply; a duplicated frame (``seq <=
last_seq``) is answered with the cached reply and touches nothing; a gap
is a protocol error.  The hello handshake distinguishes resume from
restart by the *boot* token:

* an **unchanged** boot means the same host incarnation reconnected (a
  dropped link, or a daemon restart with the agent still alive): the
  session resumes mid-epoch — epoch, sequence numbers and the cached
  reply survive, so the agent can replay its unacknowledged journal
  suffix and land exactly where it left off;
* a **new** boot means the host restarted: live monitors are parked, the
  epoch bumps and sequence numbers restart — and the cached duplicate
  reply is cleared, so a reply from a previous boot epoch can never be
  replayed into the new sequence space.  Parked monitors keep their
  classification, so a re-arriving application goes through
  :meth:`~repro.runtime.monitor.BankMonitor.reset_for_restart` (warm-up
  and windows restart, the sweep outcome survives) instead of a cold
  start.

:class:`ServiceCore` aggregates the sessions of all connected hosts, the
shared bank, and the shared :class:`~repro.service.replay.ReplayLog`; its
:meth:`~ServiceCore.to_state` / :meth:`~ServiceCore.from_state` give the
daemon crash-consistent snapshot/restore.  The daemon is a socket shell
around it; the offline replay oracle calls it directly — which is what
makes the live-vs-offline determinism pin meaningful.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.caching import LruDict
from repro.core.classification import AppClass, ClassificationThresholds
from repro.core.lfoc import DEFAULT_PARAMS, LfocDecisionCache, LfocParams
from repro.errors import SimulationError
from repro.hardware.platform import PlatformSpec
from repro.metrics.aggregate import short_mean
from repro.policies.dunn import DunnPolicy
from repro.runtime.monitor import BankMonitor, MonitorBank, MonitorConfig
from repro.service import protocol
from repro.service.protocol import ServiceProtocolError
from repro.service.replay import MaskDecision, ReplayLog

__all__ = ["BankIngest", "HostSession", "ServiceCore"]

POLICIES = ("lfoc", "dunn")

#: Schema version of :meth:`ServiceCore.to_state` payloads.
STATE_VERSION = 1


class _Pending:
    """One staged sequenced frame awaiting its flush + finish."""

    __slots__ = ("kind", "seq", "staged", "triggers", "bye")

    def __init__(self, kind: str, seq: int) -> None:
        self.kind = kind
        self.seq = seq
        #: ``(app, monitor)`` per staged sample, in frame order.
        self.staged: List[Tuple[str, BankMonitor]] = []
        #: Trigger verdicts aligned with ``staged``, filled at flush time.
        self.triggers: List[Optional[bool]] = []
        self.bye = kind == "host_bye"


class BankIngest:
    """One growable :class:`MonitorBank` shared by every host session,
    plus the cross-host staging buffers of the current drain.

    Rows are allocated per ``(host, app)`` on first arrival and live for
    the life of the daemon — a departed app keeps its row so a re-arrival
    restores its classification (the park/restart path).  ``stage`` queues
    one sample for one row; ``flush`` ingests *all* queued samples through
    a single :meth:`MonitorBank.observe_batch` call and writes the trigger
    verdicts back into the pending frames they came from.
    """

    def __init__(self, config: Optional[MonitorConfig] = None) -> None:
        self.config = config or MonitorConfig()
        self.bank: Optional[MonitorBank] = None  # created with the first row
        self._row_of: Dict[Tuple[str, str], int] = {}
        self._rows: List[int] = []
        self._staged: set = set()
        self._llc: List[float] = []
        self._stl: List[float] = []
        self._eff: List[float] = []
        self._sinks: List[Tuple[_Pending, int]] = []
        self.observe_batch_calls = 0
        self.samples_ingested = 0

    def monitor(self, host: str, app: str) -> BankMonitor:
        """The row view for ``(host, app)``, allocating the row on demand."""
        key = (host, app)
        row = self._row_of.get(key)
        if row is None:
            name = f"{host}/{app}"
            if self.bank is None:
                self.bank = MonitorBank([name], self.config)
                row = 0
            else:
                row = self.bank.add_row(name)
            self._row_of[key] = row
        assert self.bank is not None
        return BankMonitor(self.bank, row)

    def stage(
        self,
        pending: _Pending,
        monitor: BankMonitor,
        llcmpkc: float,
        stall_fraction: float,
        effective_ways: float,
    ) -> None:
        row = monitor.row
        if row in self._staged:
            # Defence in depth: observe_batch must see each row once.  The
            # protocol rejects duplicate apps per frame and handle_drain
            # flushes before a host's second frame, so this cannot fire on
            # the wire paths — but a direct caller must not corrupt sums.
            self.flush()
        self._staged.add(row)
        self._rows.append(row)
        self._llc.append(float(llcmpkc))
        self._stl.append(float(stall_fraction))
        self._eff.append(float(effective_ways))
        pending.triggers.append(None)
        self._sinks.append((pending, len(pending.triggers) - 1))

    def flush(self) -> None:
        """One fused ``observe_batch`` over everything staged since the last
        flush (a no-op when nothing is staged)."""
        if not self._rows:
            return
        assert self.bank is not None
        triggers = self.bank.observe_batch(
            self._llc, self._stl, self._eff, rows=self._rows
        )
        self.observe_batch_calls += 1
        self.samples_ingested += len(self._rows)
        for (pending, position), verdict in zip(self._sinks, triggers):
            pending.triggers[position] = bool(verdict)
        self._rows, self._llc, self._stl, self._eff = [], [], [], []
        self._sinks = []
        self._staged = set()

    # -- persistence --------------------------------------------------------------

    def to_state(self) -> Dict[str, Any]:
        if self._rows:
            raise SimulationError("cannot snapshot a bank ingest mid-drain")
        rows: Dict[str, Dict[str, int]] = {}
        for (host, app), row in self._row_of.items():
            rows.setdefault(host, {})[app] = row
        return {
            "bank": self.bank.state_dict() if self.bank is not None else None,
            "rows": rows,
            "observe_batch_calls": self.observe_batch_calls,
            "samples_ingested": self.samples_ingested,
        }

    @classmethod
    def from_state(
        cls, state: Mapping[str, Any], config: Optional[MonitorConfig] = None
    ) -> "BankIngest":
        """Rebuild from :meth:`to_state`; ``config`` configures the bank
        when the image has none yet (no tenant ever arrived)."""
        bank_state = state.get("bank")
        if bank_state is not None:
            bank = MonitorBank.from_state(bank_state)
            ingest = cls(bank.config)
            ingest.bank = bank
        else:
            ingest = cls(config)
        for host, apps in state.get("rows", {}).items():
            for app, row in apps.items():
                ingest._row_of[(str(host), str(app))] = int(row)
        if ingest._row_of and ingest.bank is None:
            raise SimulationError("bank ingest state has rows but no bank")
        for (host, app), row in ingest._row_of.items():
            if ingest.bank is not None and not 0 <= row < len(ingest.bank):
                raise SimulationError(
                    f"bank ingest row {row} of {host}/{app} out of range"
                )
        ingest.observe_batch_calls = int(state.get("observe_batch_calls", 0))
        ingest.samples_ingested = int(state.get("samples_ingested", 0))
        return ingest


class HostSession:
    """Daemon-side state for one connected host."""

    def __init__(
        self,
        host: str,
        *,
        policy: str = "lfoc",
        platform: Optional[PlatformSpec] = None,
        params: LfocParams = DEFAULT_PARAMS,
        monitor_config: Optional[MonitorConfig] = None,
        history_window: int = 5,
        replay: Optional[ReplayLog] = None,
        ingest: Optional[BankIngest] = None,
    ) -> None:
        if policy not in POLICIES:
            raise SimulationError(
                f"unknown service policy {policy!r}; known: {', '.join(POLICIES)}"
            )
        self.host = host
        self.policy = policy
        self.platform = platform or PlatformSpec()
        self.monitor_config = monitor_config or MonitorConfig()
        self.replay = replay if replay is not None else ReplayLog()
        self.ingest = ingest if ingest is not None else BankIngest(self.monitor_config)
        # -- tenant state --
        self.live: List[str] = []  # arrival order (decision input order)
        self.monitors: Dict[str, BankMonitor] = {}
        self.parked: Dict[str, BankMonitor] = {}
        # -- session identity / idempotence --
        self.boot: Optional[int] = None
        self.epoch = 0
        self.last_seq = 0
        self._last_reply: Optional[Tuple[str, Dict[str, Any]]] = None
        self.completed = False
        self.duplicates_dropped = 0
        self.samples_ingested = 0
        # -- decision layer (lfoc) --
        self.params = params
        self._decision_cache = LfocDecisionCache(params=params)
        self._last_versions: Optional[Tuple[Tuple[str, int], ...]] = None
        self._last_allocation_masks: Optional[Dict[str, int]] = None
        self._last_pushed: Optional[Dict[str, int]] = None
        self.decision_fast_hits = 0
        self.decisions_computed = 0
        # -- decision layer (dunn) --
        self.history_window = history_window
        self._dunn = DunnPolicy()
        self._stalls: Dict[str, Deque[float]] = {}
        self._dunn_cache = LruDict(4096)

    # -- handshake ------------------------------------------------------------------

    def hello(self, boot: int) -> Tuple[int, int]:
        """Register a (re)connection; returns ``(epoch, last_seq)``.

        An *unchanged* boot token resumes the session mid-epoch: epoch,
        sequence numbering and the cached duplicate reply all survive, so
        the agent can replay its unacknowledged frames (after a dropped
        link or a daemon restore-from-snapshot) and continue.  A *changed*
        boot token is a host restart: every live monitor is parked
        (classification kept for the re-arrival path), the epoch bumps,
        sequence numbering restarts, and the cached reply is cleared —
        a reply cached under a previous boot must never leak into the new
        sequence space.
        """
        if self.boot != boot:
            self.epoch += 1
            self.boot = boot
            for app in self.live:
                self.parked[app] = self.monitors.pop(app)
            self.live = []
            self._stalls = {}
            self.last_seq = 0
            self._last_reply = None
            # The rebooted host starts from stock (full-mask) CAT state, so
            # the next decision must be pushed even if it matches what the
            # previous incarnation last saw.
            self._last_pushed = None
            self._last_versions = None
            self._last_allocation_masks = None
            self.completed = False
        return self.epoch, self.last_seq

    # -- sequenced frames -------------------------------------------------------------

    def handle(self, kind: str, payload: Mapping[str, Any]) -> Tuple[str, Dict[str, Any]]:
        """Process one *validated* sequenced frame; returns the reply frame.

        Single-frame path: stage, flush (one ``observe_batch`` over this
        frame's samples), finish.  The daemon's drain path amortises the
        flush over every host's frames instead — with identical results.
        """
        staged = self.stage(kind, payload)
        if not isinstance(staged, _Pending):
            return staged
        self.ingest.flush()
        return self.finish(staged)

    def stage(
        self, kind: str, payload: Mapping[str, Any]
    ) -> Union[_Pending, Tuple[str, Dict[str, Any]]]:
        """Phase 1 of a sequenced frame: checks and state mutations.

        Returns the pending record to :meth:`finish` after the shared bank
        flush — or, for duplicates, the immediate (cached) reply.
        Duplicates are answered idempotently; a gap in the sequence raises
        :class:`ServiceProtocolError` (the daemon drops the link and the
        agent re-registers).
        """
        if self.epoch == 0:
            raise ServiceProtocolError(
                f"host {self.host!r} sent {kind} before host_hello"
            )
        seq = payload["seq"]
        if seq <= self.last_seq:
            self.duplicates_dropped += 1
            if self._last_reply is None or seq != self.last_seq:
                # A stale frame from deeper in the past than the cached
                # reply (or from before a reboot): acknowledge progress
                # without replaying a reply that answered a different frame.
                return protocol.mask_update(self.epoch, self.last_seq)
            return self._last_reply
        if seq != self.last_seq + 1:
            raise ServiceProtocolError(
                f"host {self.host!r} jumped from seq {self.last_seq} to {seq}"
            )
        pending = _Pending(kind, seq)
        if kind == "app_arrive":
            self._arrive(payload["app"])
        elif kind == "app_depart":
            self._depart(payload["app"])
        elif kind == "monitor_samples":
            self._stage_samples(pending, payload["samples"], payload["classify"])
        elif kind == "host_bye":
            pass  # resolved in finish
        else:  # pragma: no cover - check_frame only admits the kinds above
            raise ServiceProtocolError(f"unexpected sequenced kind {kind!r}")
        return pending

    def finish(self, pending: _Pending) -> Tuple[str, Dict[str, Any]]:
        """Phase 2, after the bank flush: requests, decision, cached reply."""
        requests: List[str] = []
        for (app, monitor), trigger in zip(pending.staged, pending.triggers):
            if trigger and not monitor.in_sampling_mode:
                monitor.begin_sampling()
                requests.append(app)
        masks: Optional[Dict[str, int]] = None
        decision_index: Optional[int] = None
        if pending.bye:
            self.completed = True
        else:
            pushed = self._decide(pending.seq)
            if pushed is not None:
                masks, decision_index = pushed
        self.last_seq = pending.seq
        reply = protocol.mask_update(
            self.epoch, pending.seq, masks=masks, sample=requests,
            decision=decision_index,
        )
        self._last_reply = reply
        return reply

    # -- tenant churn -----------------------------------------------------------------

    def _arrive(self, app: str) -> None:
        if app in self.monitors:
            return  # duplicate arrival within one boot; idempotent
        monitor = self.parked.pop(app, None)
        if monitor is not None:
            # Session churn: the application restarted on this host.  The
            # sweep outcome (class, slowdown table, critical size) is still
            # valid; the short-term state is not.
            monitor.reset_for_restart()
        else:
            monitor = self.ingest.monitor(self.host, app)
        self.monitors[app] = monitor
        self.live.append(app)
        self._stalls[app] = deque(maxlen=self.history_window)

    def _depart(self, app: str) -> None:
        if app not in self.monitors:
            return  # departing an unknown app is a no-op, not a crash
        self.parked[app] = self.monitors.pop(app)
        self.live.remove(app)
        self._stalls.pop(app, None)

    # -- samples ----------------------------------------------------------------------

    def _stage_samples(
        self,
        pending: _Pending,
        samples: List[Mapping[str, Any]],
        classify: List[Mapping[str, Any]],
    ) -> None:
        """Install sweep outcomes and stage this frame's samples."""
        seen = set()
        for entry in samples:
            if entry["app"] in seen:
                # check_frame rejects this on the wire; direct callers must
                # not reach observe_batch with a duplicate row either.
                raise ServiceProtocolError(
                    f"host {self.host!r} repeated app {entry['app']!r} within "
                    "one monitor_samples batch"
                )
            seen.add(entry["app"])
        for entry in classify:
            monitor = self.monitors.get(entry["app"]) or self.parked.get(entry["app"])
            if monitor is None:
                continue  # classified app departed and never came back
            monitor.set_classification(
                AppClass(entry["class"]),
                slowdown_table=entry["slowdown_table"],
                critical_size=entry["critical_size"],
            )
        for entry in samples:
            app = entry["app"]
            monitor = self.monitors.get(app)
            if monitor is None:
                continue  # sample for an app that departed in this batch
            self.samples_ingested += 1
            pending.staged.append((app, monitor))
            self.ingest.stage(
                pending,
                monitor,
                entry["llcmpkc"],
                entry["stall_fraction"],
                float(entry["effective_ways"]),
            )
            self._stalls[app].append(float(entry["stall_fraction"]))

    # -- the decision layer -------------------------------------------------------------

    def _decide(self, seq: int) -> Optional[Tuple[Dict[str, int], int]]:
        """Re-decide for the current tenants; returns pushed masks (if changed)."""
        masks = self._decide_masks()
        if masks is None or masks == self._last_pushed:
            return None
        self._last_pushed = masks
        decision = self.replay.append(self.host, self.epoch, seq, masks)
        return dict(masks), decision.index

    def _decide_masks(self) -> Optional[Dict[str, int]]:
        if not self.live:
            return None
        if self.policy == "dunn":
            return self._decide_dunn()
        # Algorithm 1's inputs change only when a sweep outcome lands or the
        # tenant set changes; both are visible in the version vector.
        versions = tuple(
            (app, self.monitors[app].classification_version) for app in self.live
        )
        if versions == self._last_versions and self._last_allocation_masks is not None:
            self.decision_fast_hits += 1
            return self._last_allocation_masks
        streaming: List[str] = []
        sensitive: List[str] = []
        light: List[str] = []
        tables: Dict[str, List[float]] = {}
        for app in self.live:
            monitor = self.monitors[app]
            if monitor.app_class is AppClass.STREAMING:
                streaming.append(app)
            elif monitor.app_class is AppClass.SENSITIVE and monitor.slowdown_table:
                sensitive.append(app)
                tables[app] = monitor.slowdown_table
            else:
                light.append(app)
        allocation = self._decision_cache.allocation_for(
            streaming, sensitive, light, self.platform.llc_ways, tables
        )
        self._last_versions = versions
        self._last_allocation_masks = dict(allocation.masks)
        self.decisions_computed += 1
        return self._last_allocation_masks

    def _decide_dunn(self) -> Optional[Dict[str, int]]:
        if any(not self._stalls[app] for app in self.live):
            return None  # not every tenant has been sampled yet
        apps = list(self.live)
        values = np.array(
            [short_mean(self._stalls[app]) for app in apps], dtype=float
        )
        key = (tuple(apps), values.tobytes())
        masks = self._dunn_cache.get(key)
        if masks is None:
            allocation = self._dunn.allocation_for_values(apps, values, self.platform)
            masks = dict(allocation.masks)
            self._dunn_cache.put(key, masks)
            self.decisions_computed += 1
        else:
            self.decision_fast_hits += 1
        return masks

    # -- observability ----------------------------------------------------------------

    def class_counts(self) -> Dict[str, int]:
        """Live applications per class (UNKNOWN included)."""
        counts = {cls.value: 0 for cls in AppClass}
        for app in self.live:
            counts[self.monitors[app].app_class.value] += 1
        return counts

    def summary(self) -> Dict[str, Any]:
        return {
            "host": self.host,
            "epoch": self.epoch,
            "last_seq": self.last_seq,
            "live": list(self.live),
            "parked": sorted(self.parked),
            "completed": self.completed,
            "decisions_computed": self.decisions_computed,
            "decision_fast_hits": self.decision_fast_hits,
            "duplicates_dropped": self.duplicates_dropped,
            "samples_ingested": self.samples_ingested,
        }

    # -- persistence ------------------------------------------------------------------

    def to_state(self) -> Dict[str, Any]:
        """JSON image of the session (bank rows are serialized by the core)."""
        return {
            "boot": self.boot,
            "epoch": self.epoch,
            "last_seq": self.last_seq,
            "completed": self.completed,
            "duplicates_dropped": self.duplicates_dropped,
            "samples_ingested": self.samples_ingested,
            "last_reply": (
                [self._last_reply[0], self._last_reply[1]]
                if self._last_reply is not None
                else None
            ),
            "live": list(self.live),
            "parked": sorted(self.parked),
            "last_pushed": (
                dict(self._last_pushed) if self._last_pushed is not None else None
            ),
            "decision_fast_hits": self.decision_fast_hits,
            "decisions_computed": self.decisions_computed,
            "history_window": self.history_window,
            "stalls": {app: list(window) for app, window in self._stalls.items()},
        }

    def restore_state(self, state: Mapping[str, Any]) -> None:
        """Adopt a :meth:`to_state` image (monitors must already be wired).

        Decision caches are deliberately *not* persisted: they are pure
        memoization, so the first post-restore decision recomputes and
        lands on identical masks (``last_pushed`` — which is semantic
        suppression state, not a cache — is restored).
        """
        self.boot = state["boot"]
        self.epoch = int(state["epoch"])
        self.last_seq = int(state["last_seq"])
        self.completed = bool(state["completed"])
        self.duplicates_dropped = int(state["duplicates_dropped"])
        self.samples_ingested = int(state.get("samples_ingested", 0))
        reply = state["last_reply"]
        self._last_reply = (str(reply[0]), dict(reply[1])) if reply else None
        last_pushed = state["last_pushed"]
        self._last_pushed = (
            {str(a): int(m) for a, m in last_pushed.items()} if last_pushed else None
        )
        self.decision_fast_hits = int(state["decision_fast_hits"])
        self.decisions_computed = int(state["decisions_computed"])
        self.history_window = int(state["history_window"])
        self._stalls = {}
        for app in self.live:
            window: Deque[float] = deque(maxlen=self.history_window)
            window.extend(float(v) for v in state["stalls"].get(app, ()))
            self._stalls[app] = window


class ServiceCore:
    """Transport-free multi-tenant control plane: sessions + bank + log."""

    def __init__(
        self,
        *,
        policy: str = "lfoc",
        n_ways: Optional[int] = None,
        params: LfocParams = DEFAULT_PARAMS,
        monitor_config: Optional[MonitorConfig] = None,
        replay: Optional[ReplayLog] = None,
    ) -> None:
        platform = PlatformSpec()
        if n_ways is not None:
            platform = platform.with_ways(n_ways)
        self.platform = platform
        self.policy = policy
        self.params = params
        self.monitor_config = monitor_config
        self.replay = replay if replay is not None else ReplayLog()
        self.ingest = BankIngest(monitor_config)
        self.sessions: Dict[str, HostSession] = {}
        #: Hosts that have *ever* completed an orderly ``host_bye``.  Unlike
        #: ``HostSession.completed`` this survives a later reconnection (a
        #: supervisor may respawn an already-finished agent), so run loops
        #: waiting for N hosts to finish terminate exactly once.
        self.ever_completed: set = set()

    def _new_session(self, host: str) -> HostSession:
        return HostSession(
            host,
            policy=self.policy,
            platform=self.platform,
            params=self.params,
            monitor_config=self.monitor_config,
            replay=self.replay,
            ingest=self.ingest,
        )

    def handle_hello(self, payload: Mapping[str, Any]) -> Tuple[str, Dict[str, Any]]:
        """Version-checked handshake; returns the ``hello_ack`` frame."""
        protocol.check_protocol(payload, f"host_hello from {payload.get('host')!r}")
        host = payload["host"]
        session = self.sessions.get(host)
        if session is None:
            session = self._new_session(host)
            self.sessions[host] = session
        epoch, last_seq = session.hello(payload["boot"])
        return protocol.hello_ack(epoch, last_seq)

    def handle(
        self, host: str, kind: str, payload: Mapping[str, Any]
    ) -> Tuple[str, Dict[str, Any]]:
        """Process one sequenced frame (a drain of one)."""
        result = self.handle_drain([(host, kind, payload)])[0]
        if isinstance(result, Exception):
            raise result
        return result

    def handle_drain(
        self, items: Sequence[Tuple[str, str, Mapping[str, Any]]]
    ) -> List[Union[Tuple[str, Dict[str, Any]], Exception]]:
        """Process one event-loop drain of sequenced frames from many hosts.

        All frames are staged first, then **one** fused
        ``observe_batch`` ingests every staged sample across every host,
        then the pending frames finish (requests, decisions, replies) in
        arrival order.  A second frame from a host already staged in this
        drain forces an intermediate flush+finish, so per-host semantics
        stay exactly sequential — including the ingest → depart → decide
        ordering the replay oracle pins.  Per-item failures are returned
        in place (the daemon drops that link), never raised: one
        misbehaving agent cannot stall the other hosts' frames.
        """
        results: List[Union[Tuple[str, Dict[str, Any]], Exception, None]]
        results = [None] * len(items)
        pendings: List[Tuple[int, HostSession, _Pending]] = []
        staged_hosts: set = set()

        def flush_and_finish() -> None:
            self.ingest.flush()
            for index, session, pending in pendings:
                try:
                    results[index] = session.finish(pending)
                except (ServiceProtocolError, SimulationError) as exc:
                    results[index] = exc
                if session.completed:
                    self.ever_completed.add(session.host)
            pendings.clear()
            staged_hosts.clear()

        for index, (host, kind, payload) in enumerate(items):
            session = self.sessions.get(host)
            if session is None:
                results[index] = ServiceProtocolError(
                    f"sequenced frame {kind!r} from unregistered host {host!r}"
                )
                continue
            if host in staged_hosts:
                flush_and_finish()
            try:
                staged = session.stage(kind, payload)
            except (ServiceProtocolError, SimulationError) as exc:
                results[index] = exc
                continue
            if isinstance(staged, _Pending):
                pendings.append((index, session, staged))
                staged_hosts.add(host)
            else:
                results[index] = staged
        flush_and_finish()
        return results  # type: ignore[return-value]

    # -- observability ----------------------------------------------------------------

    def completed_hosts(self) -> List[str]:
        return sorted(
            host for host, session in self.sessions.items() if session.completed
        )

    def _ingest_totals(self) -> Dict[str, int]:
        bank = self.ingest.bank
        return {
            "monitor_rows": len(bank) if bank is not None else 0,
            "observe_batch_calls": self.ingest.observe_batch_calls,
            "samples_ingested": self.ingest.samples_ingested,
        }

    def metrics(self) -> Dict[str, Any]:
        """Read-only live counters (the ``metrics`` protocol reply body)."""
        hosts: Dict[str, Any] = {}
        classes = {cls.value: 0 for cls in AppClass}
        for host, session in sorted(self.sessions.items()):
            per_class = session.class_counts()
            for cls, count in per_class.items():
                classes[cls] += count
            hosts[host] = {
                "epoch": session.epoch,
                "last_seq": session.last_seq,
                "live": len(session.live),
                "parked": len(session.parked),
                "completed": session.completed,
                "decisions_computed": session.decisions_computed,
                "decision_fast_hits": session.decision_fast_hits,
                "duplicates_dropped": session.duplicates_dropped,
                "samples_ingested": session.samples_ingested,
                "classes": per_class,
            }
        totals = {
            "hosts": len(self.sessions),
            "decisions": len(self.replay),
            **self._ingest_totals(),
        }
        return {"hosts": hosts, "classes": classes, "totals": totals}

    def handle_metrics(self, payload: Mapping[str, Any]) -> Tuple[str, Dict[str, Any]]:
        """Serve a read-only ``metrics`` request (no handshake required)."""
        protocol.check_protocol(payload, "metrics")
        body = self.metrics()
        return protocol.metrics_reply(body["hosts"], body["classes"], body["totals"])

    def summary(self) -> Dict[str, Any]:
        return {
            "hosts": len(self.sessions),
            "completed": self.completed_hosts(),
            "decisions": len(self.replay),
            "ingest": self._ingest_totals(),
            "sessions": {
                host: session.summary() for host, session in sorted(self.sessions.items())
            },
        }

    # -- persistence ------------------------------------------------------------------

    def to_state(self) -> Dict[str, Any]:
        """Crash-consistent JSON image of the whole control plane.

        Snapshot-able state is the *semantic* state only: sessions,
        bank arrays, seq/boot counters, the replay log, and the
        last-pushed masks.  Pure memoization (the Algorithm 1 decision
        cache, the version-vector fast path, the Dunn LRU) is dropped —
        recomputation is deterministic, so a restored daemon produces
        bit-identical decisions without it.
        """
        monitor_config = None
        if self.monitor_config is not None:
            monitor_config = {
                "warmup_samples": self.monitor_config.warmup_samples,
                "history_window": self.monitor_config.history_window,
                "thresholds": {
                    f.name: getattr(self.monitor_config.thresholds, f.name)
                    for f in ClassificationThresholds.__dataclass_fields__.values()
                },
            }
        return {
            "version": STATE_VERSION,
            "policy": self.policy,
            "llc_ways": self.platform.llc_ways,
            "params": {
                "max_streaming_way": self.params.max_streaming_way,
                "gaps_per_streaming": self.params.gaps_per_streaming,
                "max_streaming_ways_total": self.params.max_streaming_ways_total,
            },
            "monitor_config": monitor_config,
            "ingest": self.ingest.to_state(),
            "replay": [decision.to_dict() for decision in self.replay.decisions],
            "ever_completed": sorted(self.ever_completed),
            "sessions": {
                host: session.to_state()
                for host, session in sorted(self.sessions.items())
            },
        }

    @classmethod
    def from_state(cls, state: Mapping[str, Any]) -> "ServiceCore":
        """Rebuild a core from :meth:`to_state`; monitors are re-parked /
        re-wired to their bank rows so reconnecting agents resume mid-epoch."""
        if state.get("version") != STATE_VERSION:
            raise SimulationError(
                f"unsupported service state version {state.get('version')!r} "
                f"(this build speaks {STATE_VERSION})"
            )
        monitor_config = None
        cfg = state.get("monitor_config")
        if cfg is not None:
            monitor_config = MonitorConfig(
                warmup_samples=int(cfg["warmup_samples"]),
                history_window=int(cfg["history_window"]),
                thresholds=ClassificationThresholds(**cfg["thresholds"]),
            )
        core = cls(
            policy=str(state["policy"]),
            n_ways=int(state["llc_ways"]),
            params=LfocParams(**{k: int(v) for k, v in state["params"].items()}),
            monitor_config=monitor_config,
        )
        core.ingest = BankIngest.from_state(state["ingest"], monitor_config)
        for record in state["replay"]:
            decision = MaskDecision.from_dict(record)
            if decision.index != len(core.replay.decisions):
                raise SimulationError(
                    f"snapshot replay log is not contiguous at index "
                    f"{len(core.replay.decisions)}"
                )
            core.replay.decisions.append(decision)
        core.ever_completed = set(state.get("ever_completed", ()))
        for host, session_state in state["sessions"].items():
            session = core._new_session(host)
            session.live = [str(a) for a in session_state["live"]]
            for app in session.live:
                session.monitors[app] = core.ingest.monitor(host, app)
            for app in session_state["parked"]:
                session.parked[str(app)] = core.ingest.monitor(host, str(app))
            session.restore_state(session_state)
            core.sessions[host] = session
        return core
