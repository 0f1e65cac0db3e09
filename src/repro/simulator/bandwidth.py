"""Memory-bandwidth contention model.

Cache partitioning controls LLC space, but applications also fight over the
memory controller: the paper's simulator "accounts for the performance
degradation due to both cache sharing and memory-bandwidth contention (... a
variant of the probabilistic model proposed in [15])".  We implement the same
variant:

* every application demands DRAM bandwidth proportional to its LLC miss rate
  at its current effective cache allocation;
* when the aggregate demand exceeds the platform's sustainable peak, memory
  latency inflates by the over-commit factor;
* an application's extra slowdown from that inflation is proportional to the
  fraction of its cycles already stalled on memory (its exposed memory
  latency), so compute-bound programs barely notice while streaming programs
  absorb most of the queueing delay.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Tuple, Union

from repro.apps.profile import AppProfile, FastProfileView
from repro.apps.profile import bandwidth_gbs_from_llcmpkc, stall_fraction_from_llcmpkc
from repro.errors import SimulationError
from repro.hardware.platform import PlatformSpec

__all__ = ["BandwidthModel", "BandwidthResult", "read_demand"]


def read_demand(
    effective_ways: Mapping[str, float],
    profiles: Mapping[str, Union[AppProfile, FastProfileView]],
    platform: PlatformSpec,
) -> Tuple[Dict[str, float], Dict[str, float], Dict[str, float]]:
    """Each application's (LLCMPKC, DRAM demand, stall fraction) dicts from
    one curve read, at its effective ways floored at 0.25.  ``profiles`` are
    :class:`AppProfile`\\ s or their bit-identical views."""
    llcmpkc: Dict[str, float] = {}
    demand: Dict[str, float] = {}
    stall_fraction: Dict[str, float] = {}
    for app, ways in effective_ways.items():
        if app not in profiles:
            raise SimulationError(f"no profile registered for application {app!r}")
        profile = profiles[app]
        mpkc = llcmpkc[app] = profile.llcmpkc_at(max(float(ways), 0.25))
        demand[app] = bandwidth_gbs_from_llcmpkc(mpkc, profile.bytes_per_miss, platform)
        stall_fraction[app] = stall_fraction_from_llcmpkc(mpkc, platform)
    return llcmpkc, demand, stall_fraction


@dataclass(frozen=True)
class BandwidthResult:
    """Per-application bandwidth demands and contention slowdown factors."""

    demand_gbs: Dict[str, float]
    total_demand_gbs: float
    peak_gbs: float
    slowdown_factors: Dict[str, float]

    @property
    def overcommit(self) -> float:
        """Ratio of total demand to the platform peak (>= 1 means saturation)."""
        return max(self.total_demand_gbs / self.peak_gbs, 0.0)


class BandwidthModel:
    """EFS-style bandwidth contention estimator."""

    def __init__(self, *, sensitivity: float = 1.0, max_factor: float = 4.0) -> None:
        """
        Parameters
        ----------
        sensitivity:
            Scales how strongly over-commit translates into extra slowdown
            (1.0 = the queueing delay is fully exposed to stalled cycles).
        max_factor:
            Safety cap on the per-application slowdown factor.
        """
        if sensitivity < 0:
            raise SimulationError("sensitivity must be non-negative")
        if max_factor < 1.0:
            raise SimulationError("max_factor must be >= 1")
        self.sensitivity = sensitivity
        self.max_factor = max_factor

    def solve_from_demand(
        self,
        demand: Dict[str, float],
        stall_fraction: Mapping[str, float],
        platform: PlatformSpec,
    ) -> BandwidthResult:
        """Turn per-application demand/stall data (:func:`read_demand`) into
        contention slowdown factors."""
        # A left fold: builtin sum() compensates float rounding from
        # Python 3.12 on, which would make over-commit version-dependent.
        total = 0.0
        for value in demand.values():
            total += value
        factors: Dict[str, float] = {}
        if total <= platform.peak_bw_gbs or total == 0.0:
            factors = {app: 1.0 for app in demand}
        else:
            overcommit = total / platform.peak_bw_gbs
            for app in demand:
                factor = 1.0 + self.sensitivity * stall_fraction[app] * (overcommit - 1.0)
                factors[app] = min(max(factor, 1.0), self.max_factor)
        return BandwidthResult(
            demand_gbs=demand,
            total_demand_gbs=total,
            peak_gbs=platform.peak_bw_gbs,
            slowdown_factors=factors,
        )
