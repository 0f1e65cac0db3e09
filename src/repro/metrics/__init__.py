"""Fairness / throughput metrics and aggregation helpers."""

from repro.metrics.fairness import (
    WorkloadMetrics,
    antt,
    compute_metrics,
    jain_index,
    slowdown_from_ipc,
    slowdown_from_times,
    stp,
    unfairness,
)
from repro.metrics.aggregate import (
    average_percent_reduction,
    geometric_mean,
    normalise,
    normalised_series,
    percent_reduction,
    short_mean,
)

__all__ = [
    "short_mean",
    "WorkloadMetrics",
    "antt",
    "compute_metrics",
    "jain_index",
    "slowdown_from_ipc",
    "slowdown_from_times",
    "stp",
    "unfairness",
    "average_percent_reduction",
    "geometric_mean",
    "normalise",
    "normalised_series",
    "percent_reduction",
]
