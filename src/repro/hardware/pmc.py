"""Performance-monitoring-counter (PMC) model.

The paper's implementation of LFOC is a PMCTrack monitoring plugin: the kernel
samples a small set of hardware events for every application and the policy
consumes *derived* metrics:

* **IPC** — instructions retired / core cycles,
* **LLCMPKC** — LLC misses per kilo-cycle (the streaming detector),
* **LLCMPKI** — LLC misses per kilo-instruction (used by UCP/KPart),
* **stall fraction** — fraction of cycles stalled on long-latency memory
  accesses, approximated on Skylake by ``CYCLE_ACTIVITY.STALLS_L2_MISS``
  (the single metric Dunn relies on).

This module defines the raw event identifiers, the snapshot/delta arithmetic
used when sampling, and :class:`DerivedMetrics`, the value object every online
classifier in :mod:`repro.runtime` consumes.  The actual counter *values* are
synthesised by the runtime engine from the application model — the interface
here matches what a PMCTrack-style kernel API would deliver, so the policies
never know the counters are simulated.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, Iterable, Mapping

from repro.errors import ReproError

__all__ = [
    "PmcEvent",
    "CounterSnapshot",
    "CounterDelta",
    "DerivedMetrics",
    "derive_metrics",
    "window_metrics",
    "EventSet",
]


class PmcEvent(str, Enum):
    """Hardware events used by LFOC, Dunn and KPart."""

    INSTRUCTIONS = "instructions"
    CYCLES = "cycles"
    LLC_MISSES = "llc_misses"
    LLC_REFERENCES = "llc_references"
    STALLS_L2_MISS = "stalls_l2_miss"
    LLC_OCCUPANCY = "llc_occupancy"  # CMT, surfaced via the same API


#: The event set LFOC programs during normal operation (Section 4.2).
EventSet = (
    PmcEvent.INSTRUCTIONS,
    PmcEvent.CYCLES,
    PmcEvent.LLC_MISSES,
    PmcEvent.STALLS_L2_MISS,
)


@dataclass(frozen=True)
class CounterSnapshot:
    """Cumulative counter values for one task at one point in time."""

    instructions: float
    cycles: float
    llc_misses: float
    stalls_l2_miss: float
    llc_references: float = 0.0

    def delta(self, earlier: "CounterSnapshot") -> "CounterDelta":
        """Counter increments between ``earlier`` and this snapshot."""
        return CounterDelta(
            instructions=self.instructions - earlier.instructions,
            cycles=self.cycles - earlier.cycles,
            llc_misses=self.llc_misses - earlier.llc_misses,
            stalls_l2_miss=self.stalls_l2_miss - earlier.stalls_l2_miss,
            llc_references=self.llc_references - earlier.llc_references,
        )


@dataclass(frozen=True)
class CounterDelta:
    """Counter increments over a sampling window."""

    instructions: float
    cycles: float
    llc_misses: float
    stalls_l2_miss: float
    llc_references: float = 0.0

    def __post_init__(self) -> None:
        if self.instructions < 0 or self.cycles < 0:
            raise ReproError(
                "counter deltas must be non-negative "
                f"(instructions={self.instructions}, cycles={self.cycles})"
            )


@dataclass(frozen=True)
class DerivedMetrics:
    """Derived per-window metrics consumed by the online classifiers.

    ``llcmpkc`` is LLC misses per 1000 cycles, ``llcmpki`` per 1000
    instructions; ``stall_fraction`` is the fraction of cycles stalled on
    L2-miss (memory) accesses, in ``[0, 1]``.
    """

    ipc: float
    llcmpkc: float
    llcmpki: float
    stall_fraction: float
    instructions: float
    cycles: float

    def as_dict(self) -> Dict[str, float]:
        return {
            "ipc": self.ipc,
            "llcmpkc": self.llcmpkc,
            "llcmpki": self.llcmpki,
            "stall_fraction": self.stall_fraction,
            "instructions": self.instructions,
            "cycles": self.cycles,
        }


def window_metrics(
    instructions: float, cycles: float, llc_misses: float, stalls_l2_miss: float
) -> DerivedMetrics:
    """Derived metrics of one sampling window's counter increments.

    :func:`derive_metrics` without the :class:`CounterDelta`: callers that
    keep raw window counters (the runtime engines) skip building one, and
    the same check rejects negative instruction or cycle counts.
    """
    if instructions < 0 or cycles < 0:
        raise ReproError(
            "counter deltas must be non-negative "
            f"(instructions={instructions}, cycles={cycles})"
        )
    cycles = max(cycles, 1.0)
    return DerivedMetrics(
        ipc=instructions / cycles,
        llcmpkc=1000.0 * llc_misses / cycles,
        llcmpki=1000.0 * llc_misses / max(instructions, 1.0),
        stall_fraction=min(max(stalls_l2_miss / cycles, 0.0), 1.0),
        instructions=instructions,
        cycles=cycles,
    )


def derive_metrics(delta: CounterDelta) -> DerivedMetrics:
    """Turn raw counter increments into the metrics the policies consume."""
    return window_metrics(
        delta.instructions, delta.cycles, delta.llc_misses, delta.stalls_l2_miss
    )


class PmcSampler:
    """Per-task cumulative counters with snapshot/delta sampling semantics.

    The runtime engine accumulates synthesised counter values here; monitors
    take snapshots at their own cadence and compute windowed metrics, exactly
    as a PMCTrack monitoring plugin would.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, CounterSnapshot] = {}
        self._last_snapshot: Dict[str, CounterSnapshot] = {}

    def register_task(self, task: str) -> None:
        zero = CounterSnapshot(0.0, 0.0, 0.0, 0.0, 0.0)
        self._counters.setdefault(task, zero)
        self._last_snapshot.setdefault(task, zero)

    def remove_task(self, task: str) -> None:
        self._counters.pop(task, None)
        self._last_snapshot.pop(task, None)

    def tasks(self) -> Iterable[str]:
        return self._counters.keys()

    def accumulate(
        self,
        task: str,
        *,
        instructions: float,
        cycles: float,
        llc_misses: float,
        stalls_l2_miss: float,
        llc_references: float = 0.0,
    ) -> None:
        """Add synthesised counter increments for a task."""
        if task not in self._counters:
            self.register_task(task)
        current = self._counters[task]
        self._counters[task] = CounterSnapshot(
            instructions=current.instructions + instructions,
            cycles=current.cycles + cycles,
            llc_misses=current.llc_misses + llc_misses,
            stalls_l2_miss=current.stalls_l2_miss + stalls_l2_miss,
            llc_references=current.llc_references + llc_references,
        )

    def read(self, task: str) -> CounterSnapshot:
        """Current cumulative counters of a task."""
        if task not in self._counters:
            raise ReproError(f"task {task!r} has no programmed counters")
        return self._counters[task]

    def sample(self, task: str) -> DerivedMetrics:
        """Read the counters of a task and return the metrics for the window
        since the previous call to :meth:`sample` for the same task."""
        snapshot = self.read(task)
        previous = self._last_snapshot.get(task, CounterSnapshot(0, 0, 0, 0, 0))
        self._last_snapshot[task] = snapshot
        return derive_metrics(snapshot.delta(previous))
