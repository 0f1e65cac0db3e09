"""Deterministic, seeded fault injection for the distributed executors.

A :class:`FaultPlan` scripts *exactly* which faults fire and when, so a
chaos test is as reproducible as any other run:

* **coordinator-side** faults key on the index of result/error frames the
  coordinator receives (``corrupt_frames`` and ``drop_frames`` discard the
  frame and drop the worker link, as real corruption/loss would;
  ``duplicate_frames`` delivers the frame twice, exercising the dedup path;
  ``delay_frames`` stalls the event loop briefly, exercising timeouts);
* **worker-side** faults key on the index of runs a worker process
  executes (``kill_runs`` dies mid-run without replying, ``slow_runs``
  sleeps before answering, ``duplicate_results`` answers twice);
* **service-loop** faults key on indexes in a partitioning-service host
  agent's frame/batch stream (``agent_kill_batches`` dies right before
  sending the N-th ``monitor_samples`` batch, exercising supervision and
  re-registration; ``agent_corrupt_frames`` flips a byte of the N-th frame
  the agent sends, exercising the daemon's drop-and-reconnect path;
  ``agent_delay_batches`` stalls a batch by ``delay_s``, exercising
  stale-sample handling);
* **daemon-side** faults key on the index of mask decisions the
  partitioning daemon appends to its replay log
  (``daemon_kill_decisions`` hard-kills the daemon process right after
  the N-th decision lands — *without* a final snapshot — exercising
  restore-from-the-latest-periodic-snapshot and agent journal resume).

Plans travel as plain dictionaries — through
:class:`~repro.experiments.specs.ExecutorSpec` (``chaos={...}`` injects
coordinator-side faults) and the worker CLI (``repro.cli worker --chaos
'{"kill_runs": [1]}'``) — and :meth:`FaultPlan.seeded` derives a scripted
plan from a single seed for soak tests.

Because every run is deterministic and idempotent and the coordinator
dedups results by ticket, **no fault a plan can express changes a study's
rows** — only retries, drops and wall-clock.  The chaos soak tests pin
exactly that.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, fields
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.errors import SimulationError

__all__ = ["FaultPlan"]


def _index_tuple(value: Any, where: str) -> Tuple[int, ...]:
    if value is None:
        return ()
    if isinstance(value, (str, bytes)) or not hasattr(value, "__iter__"):
        raise SimulationError(f"{where} must be a list of indexes, got {value!r}")
    out = []
    for item in value:
        if isinstance(item, bool) or not isinstance(item, int) or item < 0:
            raise SimulationError(
                f"{where} entries must be non-negative integers, got {item!r}"
            )
        out.append(int(item))
    return tuple(sorted(set(out)))


#: The fault-point index fields of :class:`FaultPlan`.
_INDEX_FIELDS = (
    "corrupt_frames",
    "drop_frames",
    "duplicate_frames",
    "delay_frames",
    "kill_runs",
    "duplicate_results",
    "slow_runs",
    "agent_kill_batches",
    "agent_corrupt_frames",
    "agent_delay_batches",
    "daemon_kill_decisions",
)


@dataclass(frozen=True)
class FaultPlan:
    """A scripted set of fault-injection points; empty by default."""

    #: Provenance only: the seed :meth:`seeded` derived the plan from.
    seed: int = 0
    # -- coordinator-side (indexes into received result/error frames) --
    corrupt_frames: Tuple[int, ...] = ()
    drop_frames: Tuple[int, ...] = ()
    duplicate_frames: Tuple[int, ...] = ()
    delay_frames: Tuple[int, ...] = ()
    delay_s: float = 0.05
    # -- worker-side (indexes into runs executed by one worker process) --
    kill_runs: Tuple[int, ...] = ()
    duplicate_results: Tuple[int, ...] = ()
    slow_runs: Tuple[int, ...] = ()
    slow_s: float = 0.2
    # -- service-loop (indexes into a host agent's batch/frame stream) --
    agent_kill_batches: Tuple[int, ...] = ()
    agent_corrupt_frames: Tuple[int, ...] = ()
    agent_delay_batches: Tuple[int, ...] = ()
    # -- daemon-side (indexes into the daemon's replay-log decision stream) --
    daemon_kill_decisions: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        for name in _INDEX_FIELDS:
            object.__setattr__(
                self, name, _index_tuple(getattr(self, name), f"FaultPlan.{name}")
            )
        if self.delay_s < 0 or self.slow_s < 0:
            raise SimulationError("FaultPlan delays must be >= 0")

    def is_empty(self) -> bool:
        return not any(getattr(self, name) for name in _INDEX_FIELDS)

    @classmethod
    def seeded(
        cls,
        seed: int,
        *,
        frames: int = 0,
        runs: int = 0,
        corrupt: int = 0,
        drops: int = 0,
        duplicates: int = 0,
        kills: int = 0,
        duplicate_results: int = 0,
        slow: int = 0,
        delay_s: float = 0.05,
        slow_s: float = 0.2,
        batches: int = 0,
        agent_kills: int = 0,
        agent_corrupt: int = 0,
        agent_delays: int = 0,
    ) -> "FaultPlan":
        """A scripted plan drawn deterministically from ``seed``.

        ``frames``/``runs``/``batches`` bound the index spaces the fault
        points are sampled from; the counts say how many of each fault to
        script.  The same seed always yields the same plan.
        """
        rng = random.Random(seed)

        def sample(count: int, space: int) -> Tuple[int, ...]:
            if count <= 0 or space <= 0:
                return ()
            return tuple(sorted(rng.sample(range(space), min(count, space))))

        return cls(
            seed=seed,
            corrupt_frames=sample(corrupt, frames),
            drop_frames=sample(drops, frames),
            duplicate_frames=sample(duplicates, frames),
            kill_runs=sample(kills, runs),
            duplicate_results=sample(duplicate_results, runs),
            slow_runs=sample(slow, runs),
            delay_s=delay_s,
            slow_s=slow_s,
            agent_kill_batches=sample(agent_kills, batches),
            agent_corrupt_frames=sample(agent_corrupt, batches),
            agent_delay_batches=sample(agent_delays, batches),
        )

    # -- dict round-trip (ExecutorSpec / CLI) -----------------------------------

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {}
        for spec_field in fields(self):
            value = getattr(self, spec_field.name)
            default = spec_field.default
            if value != default:
                out[spec_field.name] = (
                    list(value) if isinstance(value, tuple) else value
                )
        return out

    @classmethod
    def from_dict(cls, data: Optional[Mapping[str, Any]]) -> "FaultPlan":
        if data is None:
            return cls()
        if isinstance(data, FaultPlan):
            return data
        if not isinstance(data, Mapping):
            raise SimulationError(
                f"a fault plan must be a mapping, got {type(data).__name__}"
            )
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise SimulationError(
                f"unknown FaultPlan key{'s' if len(unknown) > 1 else ''} "
                f"{', '.join(repr(k) for k in unknown)}; known keys: "
                f"{', '.join(sorted(known))}"
            )
        return cls(**dict(data))
