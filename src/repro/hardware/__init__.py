"""Simulated hardware substrate: platform, CAT, CMT, resctrl and PMCs.

These modules stand in for the Intel Skylake server and the privileged
hardware facilities (way-partitioning, occupancy monitoring, performance
counters) that the paper's in-kernel implementation relies on.
"""

from repro.hardware.platform import (
    PlatformSpec,
    broadwell_like,
    skylake_gold_6138,
    small_test_platform,
)
from repro.hardware.cat import (
    CatController,
    ClassOfService,
    contiguous_layout,
    format_mask,
    mask_from_range,
    mask_is_contiguous,
    mask_to_ways,
    mask_ways,
    parse_mask,
)
from repro.hardware.cmt import CmtMonitor, OccupancyReading
from repro.hardware.pmc import (
    CounterDelta,
    CounterSnapshot,
    DerivedMetrics,
    PmcEvent,
    PmcSampler,
    derive_metrics,
    window_metrics,
)
from repro.hardware.resctrl import ControlGroup, ResctrlFilesystem, ResctrlInfo

__all__ = [
    "PlatformSpec",
    "skylake_gold_6138",
    "broadwell_like",
    "small_test_platform",
    "CatController",
    "ClassOfService",
    "contiguous_layout",
    "format_mask",
    "mask_from_range",
    "mask_is_contiguous",
    "mask_to_ways",
    "mask_ways",
    "parse_mask",
    "CmtMonitor",
    "OccupancyReading",
    "CounterDelta",
    "CounterSnapshot",
    "DerivedMetrics",
    "PmcEvent",
    "PmcSampler",
    "derive_metrics",
    "window_metrics",
    "ControlGroup",
    "ResctrlFilesystem",
    "ResctrlInfo",
]
