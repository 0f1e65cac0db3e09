"""Application performance profiles.

An :class:`AppProfile` is the per-application record the whole system is built
on: IPC and LLC-miss-rate curves over every possible way allocation, measured
(in the paper: profiled offline on the Skylake machine; here: synthesised by
:mod:`repro.apps.catalog`) when the application runs *alone*.

From the two stored curves everything else the policies need is derived:

* the slowdown table (Eq. 2) — input to the LFOC/UCP lookahead allocation;
* LLC misses per kilo-instruction (MPKI) — input to UCP and KPart;
* the memory-stall fraction — the ``STALLS_L2_MISS`` proxy used by Dunn and by
  LFOC's phase-change heuristics;
* DRAM bandwidth demand — input to the bandwidth-contention model.

Profiles support evaluation at *fractional* way counts (by monotone linear
interpolation): the contention estimator models space sharing inside a cluster
as each application effectively owning a fractional number of ways.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Sequence, Tuple

import numpy as np

from repro.apps.curves import CurveSet
from repro.errors import ProfileError
from repro.hardware.platform import PlatformSpec

__all__ = [
    "AppProfile", "FastProfileView", "CACHE_LINE_BYTES", "interp_ways",
    "stall_fraction_from_llcmpkc", "bandwidth_gbs_from_llcmpkc",
]

#: Bytes transferred from DRAM per LLC miss (one cache line).
CACHE_LINE_BYTES = 64


def interp_ways(table: Sequence[float], ways: float) -> float:
    """Linear interpolation of a per-way curve at a fractional way count.

    ``table[w-1]`` holds the value at ``w`` ways; ``ways`` is clipped to
    ``[1, len(table)]``.  Because the way axis is the unit-step grid
    ``1..n``, the slope division is by exactly 1.0, and this pure-float
    formula equals ``np.interp(ways, np.arange(1, n + 1), table)`` bit for
    bit (pinned by the test suite) without its per-call array setup.
    """
    if ways < 1.0:
        ways = 1.0
    if ways >= len(table):
        return table[-1]
    j = int(ways - 1.0)
    return (table[j + 1] - table[j]) * (ways - (j + 1.0)) + table[j]


def stall_fraction_from_llcmpkc(llcmpkc: float, platform: PlatformSpec) -> float:
    """Fraction of cycles stalled on LLC misses (``STALLS_L2_MISS`` proxy).

    With ``m`` misses per kilo-cycle each exposing roughly
    ``mem_latency_cycles`` of latency, the raw stall pressure is
    ``x = m * latency / 1000`` *stall cycles per cycle*; since misses
    overlap with each other and with useful work, the observable stalled
    fraction saturates as ``x / (1 + x)`` (capped at 0.95).  The saturating
    form keeps streaming programs (very high miss rates) distinguishable
    from moderately memory-bound ones, which matters for policies — like
    Dunn — that cluster on this single metric.
    """
    pressure = llcmpkc * platform.mem_latency_cycles / 1000.0
    return min(0.95, pressure / (1.0 + pressure))


def bandwidth_gbs_from_llcmpkc(
    llcmpkc: float, bytes_per_miss: float, platform: PlatformSpec
) -> float:
    """DRAM GB/s of ``llcmpkc`` misses per kilo-cycle: misses per cycle ×
    cycles per second × bytes per miss."""
    misses_per_cycle = llcmpkc / 1000.0
    return misses_per_cycle * platform.cycles_per_second * bytes_per_miss / 1e9


@dataclass(frozen=True)
class AppProfile:
    """Single-phase behavioural profile of one application.

    Parameters
    ----------
    name:
        Benchmark name (``lbm06``, ``xalancbmk17``...).
    curves:
        Per-way IPC and LLCMPKC curves (index ``w-1`` holds the value for
        ``w`` ways), measured running alone.
    bytes_per_miss:
        DRAM traffic per LLC miss.  64 for a plain demand miss; streaming
        codes with aggressive prefetching move more.
    suite:
        Originating suite label (``spec2006`` / ``spec2017`` / ``synthetic``).
    """

    name: str
    curves: CurveSet
    bytes_per_miss: float = CACHE_LINE_BYTES
    suite: str = "synthetic"
    metadata: Dict[str, float] = field(default_factory=dict, compare=False)
    #: The curves as tuples of plain floats, the form :func:`interp_ways`
    #: reads (tuples of floats drop out of the cyclic GC's tracking).
    ipc_points: Tuple[float, ...] = field(init=False, repr=False, compare=False)
    llcmpkc_points: Tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.name:
            raise ProfileError("an application profile needs a non-empty name")
        if self.bytes_per_miss <= 0:
            raise ProfileError("bytes_per_miss must be positive")
        object.__setattr__(self, "ipc_points", tuple(self.curves.ipc.tolist()))
        object.__setattr__(self, "llcmpkc_points", tuple(self.curves.llcmpkc.tolist()))

    # -- basic geometry -----------------------------------------------------

    @property
    def n_ways(self) -> int:
        """Number of way points the profile was collected for."""
        return self.curves.n_ways

    @property
    def ipc_alone(self) -> float:
        """IPC with the entire LLC available (the ``alone`` configuration)."""
        return float(self.curves.ipc[-1])

    # -- curve access (integer ways) -----------------------------------------

    def ipc_table(self) -> np.ndarray:
        """IPC for 1..n ways (copy)."""
        return self.curves.ipc.copy()

    def llcmpkc_table(self) -> np.ndarray:
        """LLC misses per kilo-cycle for 1..n ways (copy)."""
        return self.curves.llcmpkc.copy()

    def slowdown_table(self) -> np.ndarray:
        """Slowdown (Eq. 2) for 1..n ways relative to the full LLC (copy)."""
        return self.curves.slowdown()

    def mpki_table(self) -> np.ndarray:
        """LLC misses per kilo-instruction for 1..n ways."""
        return self.curves.llcmpkc / np.maximum(self.curves.ipc, 1e-9)

    # -- curve access (fractional ways) ---------------------------------------

    def _interp(self, table: Tuple[float, ...], ways: float) -> float:
        ways = float(ways)
        if not ways > 0:
            raise ProfileError(f"cannot evaluate {self.name!r} at {ways} ways")
        return interp_ways(table, ways)

    def ipc_at(self, ways: float) -> float:
        """IPC when running alone with a (possibly fractional) way allocation."""
        return self._interp(self.ipc_points, ways)

    def llcmpkc_at(self, ways: float) -> float:
        """LLC misses per kilo-cycle at a (possibly fractional) way allocation."""
        return self._interp(self.llcmpkc_points, ways)

    def mpki_at(self, ways: float) -> float:
        """LLC misses per kilo-instruction at a fractional way allocation."""
        return self.llcmpkc_at(ways) / max(self.ipc_at(ways), 1e-9)

    def slowdown_at(self, ways: float) -> float:
        """Slowdown relative to the full LLC at a fractional way allocation."""
        return self.ipc_alone / max(self.ipc_at(ways), 1e-12)

    def stall_fraction_at(self, ways: float, platform: PlatformSpec) -> float:
        """:func:`stall_fraction_from_llcmpkc` at a fractional way allocation."""
        return stall_fraction_from_llcmpkc(self.llcmpkc_at(ways), platform)

    def bandwidth_gbs_at(self, ways: float, platform: PlatformSpec) -> float:
        """:func:`bandwidth_gbs_from_llcmpkc` at a fractional way allocation."""
        return bandwidth_gbs_from_llcmpkc(self.llcmpkc_at(ways), self.bytes_per_miss, platform)

    # -- transformations ------------------------------------------------------

    def resampled(self, n_ways: int) -> "AppProfile":
        """Return the profile re-expressed over a platform with ``n_ways`` ways.

        The curves are resampled on a normalised cache-fraction axis, so a
        profile collected for an 11-way LLC can drive experiments on, say, a
        20-way platform.  The full-cache IPC is preserved.
        """
        if n_ways < 1:
            raise ProfileError(f"n_ways must be >= 1, got {n_ways}")
        if n_ways == self.n_ways:
            return self
        old_axis = np.arange(1, self.n_ways + 1, dtype=float) / self.n_ways
        new_axis = np.arange(1, n_ways + 1, dtype=float) / n_ways
        ipc = np.interp(new_axis, old_axis, self.curves.ipc)
        mpkc = np.interp(new_axis, old_axis, self.curves.llcmpkc)
        return AppProfile(
            name=self.name,
            curves=CurveSet(ipc=ipc, llcmpkc=mpkc),
            bytes_per_miss=self.bytes_per_miss,
            suite=self.suite,
            metadata=dict(self.metadata),
        )

    def scaled_ipc(self, factor: float) -> "AppProfile":
        """Return a copy with the whole IPC curve scaled by ``factor``.

        Useful to build synthetic variants of a benchmark without changing its
        cache behaviour (slowdown tables are invariant under this scaling).
        """
        if factor <= 0:
            raise ProfileError("IPC scale factor must be positive")
        return AppProfile(
            name=self.name,
            curves=CurveSet(ipc=self.curves.ipc * factor, llcmpkc=self.curves.llcmpkc),
            bytes_per_miss=self.bytes_per_miss,
            suite=self.suite,
            metadata=dict(self.metadata),
        )

    def renamed(self, name: str) -> "AppProfile":
        """Return a copy under a different name (used for multi-instance mixes)."""
        return AppProfile(
            name=name,
            curves=self.curves,
            bytes_per_miss=self.bytes_per_miss,
            suite=self.suite,
            metadata=dict(self.metadata),
        )

    # -- identity --------------------------------------------------------------

    def value_fingerprint(self) -> tuple:
        """Hashable fingerprint of everything the contention models read.

        Two profiles with equal fingerprints are arithmetically
        interchangeable inside the estimator (the name only labels results),
        which is what lets the incremental evaluation layer share cached
        tables across runs that rebuild their profile objects from scratch.
        """
        return (
            self.curves.ipc.tobytes(),
            self.curves.llcmpkc.tobytes(),
            float(self.bytes_per_miss),
        )

    # -- convenience ----------------------------------------------------------

    def describe(self) -> Dict[str, float]:
        """Summary statistics used in reports and examples."""
        slowdown = self.slowdown_table()
        return {
            "n_ways": float(self.n_ways),
            "ipc_alone": self.ipc_alone,
            "max_slowdown": float(slowdown.max()),
            "llcmpkc_at_1": float(self.curves.llcmpkc[0]),
            "llcmpkc_full": float(self.curves.llcmpkc[-1]),
        }


class FastProfileView:
    """Slim scalar curve evaluator, bit-identical to :class:`AppProfile`.

    Both types interpolate through :func:`interp_ways` over plain floats (a
    view shares its profile's point tuples).  The view keeps only what the
    evaluation tables and engines read (the curves, ``n_ways``,
    ``ipc_alone`` and ``bytes_per_miss``) and is built from an
    :class:`AppProfile` only.  Stall fraction
    and bandwidth demand come from its LLCMPKC through the module-level
    :func:`stall_fraction_from_llcmpkc` and :func:`bandwidth_gbs_from_llcmpkc`,
    as :func:`~repro.simulator.bandwidth.read_demand` reads them.
    """

    __slots__ = ("ipc", "llcmpkc", "n_ways", "ipc_alone", "bytes_per_miss")

    def __init__(self, profile: AppProfile) -> None:
        self.ipc = profile.ipc_points
        self.llcmpkc = profile.llcmpkc_points
        self.n_ways = profile.n_ways
        self.ipc_alone = profile.ipc_alone
        self.bytes_per_miss = profile.bytes_per_miss

    # The accessors call interp_ways directly: these sit on the engines' hot
    # paths, where a shared validating wrapper would be one more call.
    def ipc_at(self, ways: float) -> float:
        if not ways > 0:
            raise ProfileError(f"cannot evaluate a profile at {ways} ways")
        return interp_ways(self.ipc, ways)

    def llcmpkc_at(self, ways: float) -> float:
        if not ways > 0:
            raise ProfileError(f"cannot evaluate a profile at {ways} ways")
        return interp_ways(self.llcmpkc, ways)
