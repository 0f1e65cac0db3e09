"""Whirlpool-style cluster distance and combined miss curves (used by KPart).

KPart (El-Sayed et al., HPCA'18) builds clusters by hierarchical
agglomeration: at every step it merges the two clusters whose *distance* —
a metric borrowed from Whirlpool (Mukkara et al., ASPLOS'16) — is smallest,
then uses UCP's lookahead over the clusters' combined miss curves to split the
ways.  The distance captures how similar two clusters' cache utility is:
applications whose miss curves have the same shape can share a partition
without stealing marginal utility from each other, while merging a
cache-sensitive program with a streaming one is costly.

We reproduce that structure with two ingredients:

* :func:`combined_miss_curve` — the miss curve (MPKI vs ways) of a set of
  applications sharing a partition, derived with the same insertion-pressure
  sharing model the estimator uses;
* :func:`whirlpool_distance` — the L1 distance between the *normalised
  marginal-utility* profiles of two miss curves, which is what "similar cache
  behaviour" means operationally.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence

import numpy as np

from repro.apps.profile import AppProfile
from repro.errors import SimulationError

__all__ = ["combined_miss_curve", "combined_ipc_curve", "whirlpool_distance"]


def _share_ways(profiles: Sequence[AppProfile], ways: float) -> List[float]:
    """Split ``ways`` among ``profiles`` proportionally to their miss pressure."""
    if ways <= 0:
        raise SimulationError("ways must be positive")
    pressures = np.array(
        [max(p.llcmpkc_at(max(ways / len(profiles), 0.5)), 0.05) for p in profiles]
    )
    shares = pressures / pressures.sum() * ways
    return [float(s) for s in shares]


def combined_miss_curve(profiles: Sequence[AppProfile], n_ways: int) -> np.ndarray:
    """MPKI-vs-ways curve of a group of applications sharing a partition.

    ``result[w-1]`` is the aggregate misses per kilo-instruction when the
    group shares ``w`` ways (misses and instructions summed over members).
    """
    if not profiles:
        raise SimulationError("combined_miss_curve needs at least one profile")
    curve = np.zeros(n_ways, dtype=float)
    for w in range(1, n_ways + 1):
        shares = _share_ways(profiles, float(w))
        total_misses_per_kc = 0.0
        total_instr_per_kc = 0.0
        for profile, share in zip(profiles, shares):
            eval_ways = max(share, 0.25)
            total_misses_per_kc += profile.llcmpkc_at(eval_ways)
            total_instr_per_kc += profile.ipc_at(max(eval_ways, 1.0)) * 1.0
        curve[w - 1] = total_misses_per_kc / max(total_instr_per_kc, 1e-9)
    return curve


def combined_ipc_curve(profiles: Sequence[AppProfile], n_ways: int) -> np.ndarray:
    """Aggregate IPC-vs-ways curve of a group sharing a partition."""
    if not profiles:
        raise SimulationError("combined_ipc_curve needs at least one profile")
    curve = np.zeros(n_ways, dtype=float)
    for w in range(1, n_ways + 1):
        shares = _share_ways(profiles, float(w))
        # A left fold, not sum(): from Python 3.12 sum() compensates float
        # rounding, which would make the curve depend on the interpreter.
        total = 0.0
        for profile, share in zip(profiles, shares):
            total += profile.ipc_at(max(share, 1.0))
        curve[w - 1] = total
    return curve


def whirlpool_distance(curve_a: Sequence[float], curve_b: Sequence[float]) -> float:
    """Distance between two miss curves (lower = more similar cache behaviour).

    Each curve is reduced to its normalised marginal-utility profile (how much
    of the total achievable miss reduction each extra way contributes); the
    distance is the L1 difference between the two profiles plus a small term
    for the difference in absolute miss intensity, so that merging two flat
    curves of very different magnitude (e.g. a light and a streaming program)
    is still considered cheaper than merging a sensitive program with either.
    """
    a = np.asarray(curve_a, dtype=float)
    b = np.asarray(curve_b, dtype=float)
    if a.shape != b.shape or a.ndim != 1 or a.size < 2:
        raise SimulationError(
            f"curves must be 1-D with the same length >= 2, got {a.shape} and {b.shape}"
        )

    def marginal_profile(curve: np.ndarray) -> np.ndarray:
        gains = np.maximum(curve[:-1] - curve[1:], 0.0)
        total = gains.sum()
        if total <= 1e-12:
            return np.zeros_like(gains)
        return gains / total

    shape_term = float(np.abs(marginal_profile(a) - marginal_profile(b)).sum())
    # Relative intensity difference, bounded to [0, 1].
    intensity_a = float(a.mean())
    intensity_b = float(b.mean())
    intensity_term = abs(intensity_a - intensity_b) / max(intensity_a + intensity_b, 1e-9)
    return shape_term + 0.25 * intensity_term
