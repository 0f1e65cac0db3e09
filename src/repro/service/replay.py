"""Append-only mask-decision log and the offline replay oracle.

Every time a host session's decision layer produces an allocation that
differs from the last one pushed to that host, the daemon appends a
:class:`MaskDecision` to its :class:`ReplayLog`.  The log is the
service's source of truth for testing and auditing:

* the **determinism pin** — streaming a seeded trace through the live
  daemon over real sockets must yield a log bit-identical to
  :func:`offline_replay`, which drives the same
  :class:`~repro.service.session.ServiceCore` with no sockets at all;
* the **chaos pin** — under scripted agent kills and frame corruption
  the sequence may differ (extra epochs, replayed batches), but the
  final masks per host must converge to the clean run's.

Logs round-trip through JSONL (one decision per line) so CI can diff a
live run against a golden offline replay.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import SimulationError

__all__ = ["MaskDecision", "ReplayLog", "offline_replay"]


@dataclass(frozen=True)
class MaskDecision:
    """One pushed mask update: which host, when in the stream, what masks."""

    host: str
    epoch: int
    seq: int
    index: int
    masks: Tuple[Tuple[str, int], ...]

    def to_dict(self) -> Dict[str, object]:
        return {
            "host": self.host,
            "epoch": self.epoch,
            "seq": self.seq,
            "index": self.index,
            "masks": {app: mask for app, mask in self.masks},
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "MaskDecision":
        try:
            masks = tuple(sorted((str(a), int(m)) for a, m in data["masks"].items()))
            return cls(
                host=str(data["host"]),
                epoch=int(data["epoch"]),
                seq=int(data["seq"]),
                index=int(data["index"]),
                masks=masks,
            )
        except (KeyError, AttributeError, TypeError, ValueError) as exc:
            raise SimulationError(f"malformed replay record {data!r}: {exc}") from exc


class ReplayLog:
    """In-order record of every mask decision the service pushed."""

    def __init__(self) -> None:
        self.decisions: List[MaskDecision] = []

    def __len__(self) -> int:
        return len(self.decisions)

    def append(
        self, host: str, epoch: int, seq: int, masks: Dict[str, int]
    ) -> MaskDecision:
        decision = MaskDecision(
            host=host,
            epoch=epoch,
            seq=seq,
            index=len(self.decisions),
            masks=tuple(sorted(masks.items())),
        )
        self.decisions.append(decision)
        return decision

    def for_host(self, host: str) -> List[MaskDecision]:
        return [d for d in self.decisions if d.host == host]

    def final_masks(self, host: str) -> Optional[Dict[str, int]]:
        """The last masks pushed to ``host`` (None if none ever were)."""
        for decision in reversed(self.decisions):
            if decision.host == host:
                return dict(decision.masks)
        return None

    def signature(self, host: Optional[str] = None) -> List[Tuple]:
        """Comparable per-host decision sequence (epoch, seq, masks)."""
        selected = self.decisions if host is None else self.for_host(host)
        return [(d.host, d.epoch, d.seq, d.masks) for d in selected]

    # -- persistence --------------------------------------------------------------

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for decision in self.decisions:
                handle.write(json.dumps(decision.to_dict(), sort_keys=True) + "\n")

    @classmethod
    def load(cls, path: str) -> "ReplayLog":
        log = cls()
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    data = json.loads(line)
                except ValueError as exc:
                    raise SimulationError(
                        f"corrupt replay log line in {path}: {exc}"
                    ) from exc
                log.decisions.append(MaskDecision.from_dict(data))
        for index, decision in enumerate(log.decisions):
            if decision.index != index:
                raise SimulationError(
                    f"replay log {path} is not contiguous at index {index}"
                )
        return log


def offline_replay(
    host_ids,
    workload,
    *,
    batches: int,
    seed: int = 0,
    policy: str = "lfoc",
    n_ways: Optional[int] = None,
) -> ReplayLog:
    """Socket-free oracle: run the same hosts against a fresh service core.

    Every host in ``host_ids`` is driven through a
    :class:`~repro.service.simhost.SimulatedHost` and a local (in-process)
    transport against one shared
    :class:`~repro.service.session.ServiceCore` — exactly the code the
    live daemon runs, minus the wire.  The returned log is the golden
    reference the live daemon must match bit for bit on a clean run.

    Frames are delivered strictly in each host's send order, one at a
    time — so within a batch the core sees churn before samples, and a
    departure lands (and its decision fires) before the next ingest.
    That **ingest → depart → decide** ordering is the same one the live
    daemon's drain path enforces by flushing before a host's second frame
    (see :meth:`~repro.service.session.ServiceCore.handle_drain`); the
    oracle and the daemon must never disagree on it.

    The core ingests through its fused ``MonitorBank``, as the daemon's
    does; ``tests/oracles.py`` drives the same hosts against the
    sequential one-``AppMonitor``-per-app ingest, whose log must equal
    this one bit for bit.
    """
    from repro.service.agent import LocalTransport, drive_host
    from repro.service.session import ServiceCore
    from repro.service.simhost import SimulatedHost, churn_schedule, host_seed

    if isinstance(host_ids, str):
        host_ids = [host_ids]
    core = ServiceCore(policy=policy, n_ways=n_ways)
    for host_id in host_ids:
        host = SimulatedHost(
            workload, seed=host_seed(seed, host_id), n_ways=n_ways
        )
        churn = churn_schedule(host.apps, batches, host_seed(seed, host_id))
        transport = LocalTransport(core, host_id)
        drive_host(host, transport, batches=batches, churn=churn)
    return core.replay
