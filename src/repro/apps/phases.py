"""Phased application profiles.

Section 4.2 / Fig. 4 of the paper: applications are not stationary.
``fotonik3d`` starts with a short light-sharing phase before settling into a
long streaming phase; ``xz``, ``astar``, ``mcf`` and ``xalancbmk`` alternate
between memory-intensive and compute phases.  The dynamic study (Fig. 7) is
precisely about how well the online policies track such phase changes.

A :class:`PhasedProfile` is an ordered sequence of :class:`PhaseSegment`
objects, each pairing an instruction count with a (single-phase)
:class:`~repro.apps.profile.AppProfile`.  The sequence repeats cyclically when
the application is restarted, matching the paper's run-until-longest-finishes
methodology.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

import numpy as np

from repro.apps.curves import CurveSet
from repro.apps.profile import AppProfile
from repro.errors import ProfileError

__all__ = ["PhaseSegment", "PhasedProfile"]


@dataclass(frozen=True)
class PhaseSegment:
    """One program phase: ``instructions`` retired while behaving like ``profile``."""

    instructions: float
    profile: AppProfile

    def __post_init__(self) -> None:
        if self.instructions <= 0:
            raise ProfileError(
                f"phase of {self.profile.name!r} must retire a positive number "
                f"of instructions, got {self.instructions}"
            )


@dataclass(frozen=True)
class PhasedProfile:
    """A cyclic sequence of program phases for one application."""

    name: str
    segments: Tuple[PhaseSegment, ...]
    suite: str = "synthetic"

    def __post_init__(self) -> None:
        if not self.segments:
            raise ProfileError(f"phased profile {self.name!r} needs at least one segment")
        object.__setattr__(self, "segments", tuple(self.segments))
        n_ways = {seg.profile.n_ways for seg in self.segments}
        if len(n_ways) != 1:
            raise ProfileError(
                f"all phases of {self.name!r} must cover the same way count, got {n_ways}"
            )

    # -- construction helpers -------------------------------------------------

    @classmethod
    def single(cls, profile: AppProfile, instructions: float = 1e12) -> "PhasedProfile":
        """Wrap a stationary profile as a one-segment phased profile."""
        return cls(
            name=profile.name,
            segments=(PhaseSegment(instructions=instructions, profile=profile),),
            suite=profile.suite,
        )

    # -- geometry --------------------------------------------------------------

    @property
    def n_ways(self) -> int:
        return self.segments[0].profile.n_ways

    @property
    def n_phases(self) -> int:
        return len(self.segments)

    @property
    def is_phased(self) -> bool:
        """True when the application exhibits more than one behavioural phase."""
        return len(self.segments) > 1

    @property
    def cycle_instructions(self) -> float:
        """Instructions retired over one full pass through the phase sequence."""
        # A left fold, not sum(): from Python 3.12 sum() compensates float
        # rounding, which would make the phase walk depend on the interpreter.
        total = 0.0
        for seg in self.segments:
            total += seg.instructions
        return total

    # -- phase lookup -----------------------------------------------------------

    def phase_index_at(self, instructions_retired: float) -> int:
        """Index of the phase active after ``instructions_retired`` instructions.

        The phase sequence repeats cyclically (the benchmark is restarted over
        and over in the paper's methodology).
        """
        if instructions_retired < 0:
            raise ProfileError("instructions_retired must be non-negative")
        position = instructions_retired % self.cycle_instructions
        for index, segment in enumerate(self.segments):
            if position < segment.instructions:
                return index
            position -= segment.instructions
        return len(self.segments) - 1  # pragma: no cover - numeric edge

    def profile_at(self, instructions_retired: float) -> AppProfile:
        """Profile of the phase active after ``instructions_retired`` instructions."""
        return self.segments[self.phase_index_at(instructions_retired)].profile

    def instructions_until_phase_change(self, instructions_retired: float) -> float:
        """Instructions left before the next phase boundary (cyclic)."""
        position = instructions_retired % self.cycle_instructions
        for segment in self.segments:
            if position < segment.instructions:
                return segment.instructions - position
            position -= segment.instructions
        return self.segments[0].instructions  # pragma: no cover - numeric edge

    def phase_boundaries(self) -> List[float]:
        """Cumulative instruction counts of the phase boundaries of one cycle."""
        boundaries: List[float] = []
        total = 0.0
        for segment in self.segments:
            total += segment.instructions
            boundaries.append(total)
        return boundaries

    # -- aggregation -------------------------------------------------------------

    def dominant_profile(self) -> AppProfile:
        """Profile of the phase covering the most instructions (used when a
        single static profile is required, e.g. Table 1 classification)."""
        longest = max(self.segments, key=lambda seg: seg.instructions)
        return longest.profile

    def average_profile(self) -> AppProfile:
        """Instruction-weighted average profile.

        This is what an offline profiling pass over the whole execution (the
        paper's 1500-billion-instruction collection) would observe; the static
        study of Section 5.1 uses it.
        """
        weights = np.array([seg.instructions for seg in self.segments], dtype=float)
        weights /= weights.sum()
        ipc = np.zeros(self.n_ways, dtype=float)
        mpkc = np.zeros(self.n_ways, dtype=float)
        # Average the *time* per instruction (CPI), not the IPC: phases execute a
        # fixed number of instructions, so the average IPC over the execution is
        # the harmonic, instruction-weighted mean.
        cpi = np.zeros(self.n_ways, dtype=float)
        for weight, segment in zip(weights, self.segments):
            cpi += weight / segment.profile.curves.ipc
            # Misses per cycle weighted by the cycles spent in the phase is
            # approximated by instruction weighting of the per-phase rate.
            mpkc += weight * segment.profile.curves.llcmpkc
        ipc = 1.0 / cpi
        # A left fold, not sum(), as in cycle_instructions.
        bytes_per_miss = 0.0
        for weight, segment in zip(weights, self.segments):
            bytes_per_miss += weight * segment.profile.bytes_per_miss
        base = self.segments[0].profile
        return AppProfile(
            name=self.name,
            curves=CurveSet(ipc=ipc, llcmpkc=mpkc),
            bytes_per_miss=float(bytes_per_miss),
            suite=self.suite,
            metadata=dict(base.metadata),
        )

    def renamed(self, name: str) -> "PhasedProfile":
        """Copy under a different name (for multi-instance workloads)."""
        return PhasedProfile(
            name=name,
            segments=tuple(
                PhaseSegment(seg.instructions, seg.profile.renamed(name))
                for seg in self.segments
            ),
            suite=self.suite,
        )
