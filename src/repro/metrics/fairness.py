"""Fairness and throughput metrics (Section 2.1 of the paper).

* **Slowdown** of an application (Eq. 1/2): completion time (or inverse IPC)
  under the evaluated scheme divided by the alone value.
* **Unfairness** (Eq. 3): max slowdown / min slowdown across the workload
  (lower is better; 1.0 is perfectly fair).
* **STP** — system throughput, a.k.a. weighted speedup (Eq. 4): sum of the
  reciprocal slowdowns (higher is better; equals the application count when
  nobody slows down).

The module also provides ANTT (average normalised turnaround time) and the
Jain fairness index, which are common companions in the literature and are
used by the extended analysis benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Sequence

import numpy as np

from repro.errors import ReproError

__all__ = [
    "slowdown_from_ipc",
    "slowdown_from_times",
    "unfairness",
    "stp",
    "antt",
    "jain_index",
    "WorkloadMetrics",
    "compute_metrics",
]


def slowdown_from_ipc(ipc_alone: float, ipc_shared: float) -> float:
    """Slowdown of one application from its alone and shared IPC (Eq. 2)."""
    if ipc_alone <= 0 or ipc_shared <= 0:
        raise ReproError(
            f"IPC values must be positive (alone={ipc_alone}, shared={ipc_shared})"
        )
    return ipc_alone / ipc_shared

def slowdown_from_times(time_shared: float, time_alone: float) -> float:
    """Slowdown of one application from completion times (Eq. 1)."""
    if time_alone <= 0 or time_shared <= 0:
        raise ReproError(
            f"completion times must be positive (shared={time_shared}, alone={time_alone})"
        )
    return time_shared / time_alone


def _validate_slowdowns(slowdowns: Sequence[float]) -> np.ndarray:
    values = np.asarray(list(slowdowns), dtype=float)
    if values.size == 0:
        raise ReproError("at least one slowdown value is required")
    if (values <= 0).any():
        raise ReproError("slowdowns must be positive")
    return values


def unfairness(slowdowns: Sequence[float]) -> float:
    """Unfairness metric (Eq. 3): max slowdown over min slowdown."""
    values = _validate_slowdowns(slowdowns)
    return float(values.max() / values.min())


def stp(slowdowns: Sequence[float]) -> float:
    """System throughput / weighted speedup (Eq. 4): sum of 1/slowdown."""
    values = _validate_slowdowns(slowdowns)
    return float((1.0 / values).sum())


def antt(slowdowns: Sequence[float]) -> float:
    """Average normalised turnaround time: the arithmetic mean slowdown."""
    values = _validate_slowdowns(slowdowns)
    return float(values.mean())


def jain_index(slowdowns: Sequence[float]) -> float:
    """Jain fairness index over per-application *speedups* (1/slowdown).

    1.0 means perfectly even degradation; 1/n means one application absorbs
    all of it.
    """
    values = 1.0 / _validate_slowdowns(slowdowns)
    return float(values.sum() ** 2 / (values.size * np.sum(values**2)))


@dataclass(frozen=True)
class WorkloadMetrics:
    """All workload-level metrics for one evaluated configuration."""

    slowdowns: Dict[str, float]
    unfairness: float
    stp: float
    antt: float
    jain: float

    @property
    def n_apps(self) -> int:
        return len(self.slowdowns)

    @property
    def max_slowdown(self) -> float:
        return max(self.slowdowns.values())

    @property
    def min_slowdown(self) -> float:
        return min(self.slowdowns.values())

    def worst_app(self) -> str:
        """Name of the application suffering the highest slowdown."""
        return max(self.slowdowns, key=self.slowdowns.get)

    def as_dict(self) -> Dict[str, float]:
        return {
            "unfairness": self.unfairness,
            "stp": self.stp,
            "antt": self.antt,
            "jain": self.jain,
            "max_slowdown": self.max_slowdown,
            "min_slowdown": self.min_slowdown,
        }


def compute_metrics(slowdowns: Mapping[str, float]) -> WorkloadMetrics:
    """Build a :class:`WorkloadMetrics` record from per-application slowdowns."""
    if not slowdowns:
        raise ReproError("cannot compute metrics for an empty workload")
    values = list(slowdowns.values())
    return WorkloadMetrics(
        slowdowns=dict(slowdowns),
        unfairness=unfairness(values),
        stp=stp(values),
        antt=antt(values),
        jain=jain_index(values),
    )
