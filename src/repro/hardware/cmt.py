"""Simulated Intel Cache Monitoring Technology (CMT).

CMT tags LLC allocations with a *resource monitoring ID* (RMID) and lets the
system software read back the number of bytes currently occupied by each RMID.
LFOC uses this (footnote 1 in the paper) to know the *effective cache
allocation* of a task, which drives the phase-change heuristic for sensitive
applications ("... for effective cache allocations smaller than the critical
size").

The simulated monitor is fed by the contention estimator: whenever the runtime
engine recomputes the effective fractional way occupancy of each task, it
pushes the value here; readers observe it through the same RMID-based
interface real CMT offers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.errors import RmidExhaustedError, ReproError
from repro.hardware.platform import PlatformSpec

__all__ = ["OccupancyReading", "CmtMonitor"]


@dataclass(frozen=True)
class OccupancyReading:
    """A single occupancy sample for one RMID."""

    rmid: int
    task: str
    occupancy_kb: float
    occupancy_ways: float


class CmtMonitor:
    """RMID allocation and per-task LLC occupancy bookkeeping."""

    def __init__(self, platform: PlatformSpec) -> None:
        self.platform = platform
        self._task_to_rmid: Dict[str, int] = {}
        self._free_rmids = list(range(platform.n_rmids - 1, 0, -1))  # RMID 0 reserved
        self._occupancy_ways: Dict[str, float] = {}

    # -- RMID management ----------------------------------------------------

    def assign_rmid(self, task: str) -> int:
        """Assign (or return the existing) RMID for a task."""
        if task in self._task_to_rmid:
            return self._task_to_rmid[task]
        if not self._free_rmids:
            raise RmidExhaustedError(
                f"platform {self.platform.name!r} has no free RMIDs "
                f"({self.platform.n_rmids} total)"
            )
        rmid = self._free_rmids.pop()
        self._task_to_rmid[task] = rmid
        self._occupancy_ways.setdefault(task, 0.0)
        return rmid

    def release_rmid(self, task: str) -> None:
        """Release the RMID of a departed task."""
        rmid = self._task_to_rmid.pop(task, None)
        if rmid is not None:
            self._free_rmids.append(rmid)
        self._occupancy_ways.pop(task, None)

    @property
    def n_monitored(self) -> int:
        return len(self._task_to_rmid)

    # -- occupancy feed / read ----------------------------------------------

    def update_occupancy(self, task: str, effective_ways: float) -> None:
        """Record the current effective LLC occupancy of a task (in ways).

        Called by the runtime engine after each contention-estimator solve.
        Unknown tasks get an RMID lazily, mirroring how the kernel tags a task
        on first schedule-in.
        """
        if effective_ways < 0:
            raise ReproError(f"negative occupancy {effective_ways} for task {task!r}")
        if task not in self._task_to_rmid:
            self.assign_rmid(task)
        self._occupancy_ways[task] = float(effective_ways)

    def read_occupancy(self, task: str) -> OccupancyReading:
        """Read back the occupancy of a monitored task."""
        if task not in self._task_to_rmid:
            raise ReproError(f"task {task!r} is not monitored (no RMID assigned)")
        ways = self._occupancy_ways.get(task, 0.0)
        return OccupancyReading(
            rmid=self._task_to_rmid[task],
            task=task,
            occupancy_kb=ways * self.platform.llc_way_kb,
            occupancy_ways=ways,
        )

    def total_occupancy_ways(self) -> float:
        """Aggregate occupancy across all monitored tasks, in ways."""
        # A left fold, not sum(): from Python 3.12 sum() compensates float
        # rounding, which would make the reported total interpreter-dependent.
        total = 0.0
        for ways in self._occupancy_ways.values():
            total += ways
        return total
