"""Tournament specifications and deterministic scenario-grid generation.

A tournament is *data*, exactly like a study: a :class:`TournamentSpec`
declares the policy line-up, the workload suites (random-mix axes), the
platform shapes, how many paired seeds to replicate, and the statistical
knobs (:class:`StatsSpec`).  The classes are spec dataclasses on the one
codec of :mod:`repro.experiments.schema` — their fields are their schema —
so they round-trip through dictionaries and, through the one file loader of
:mod:`repro.experiments.io`, JSON/TOML (:func:`load_tournament_spec` /
:func:`dump_tournament_spec`), with the same validation contract as
:class:`~repro.experiments.specs.StudySpec`.

:meth:`TournamentSpec.to_study_spec` lowers the tournament onto the existing
declarative study layer: one :class:`~repro.experiments.specs.ScenarioSpec`
per (suite x platform) cell, replicated across ``seeds`` paired seeds.  The
pairing guarantee is structural — within a scenario replica every policy is
evaluated on the *same* resolved workloads (one workload draw per
``(suite, platform, seed)`` cell), so every policy sees byte-identical
scenarios and the per-scenario deltas in :mod:`repro.tournament.stats` are
true paired observations.  The grid is a pure function of the spec: same
spec => same scenario IDs, same workload draws, on every executor backend.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.errors import SpecError
from repro.experiments.io import read_spec_file, write_spec_file
from repro.experiments.schema import Spec, rule
from repro.experiments.specs import (
    EngineSpec,
    ExecutorSpec,
    FaultToleranceSpec,
    PolicySpec,
    ScenarioSpec,
    SolverSpec,
    StudySpec,
    WorkloadSpec,
    resolve_platform,
)

__all__ = [
    "TOURNAMENT_SCHEMA_VERSION",
    "SuiteSpec",
    "StatsSpec",
    "TournamentSpec",
    "load_tournament_spec",
    "dump_tournament_spec",
]

#: Version stamp written into every serialized tournament spec.
TOURNAMENT_SCHEMA_VERSION = 1

#: Prime stride separating the base seeds of the workload draws within one
#: scenario, so multi-workload suites never reuse a draw across slots.
_DRAW_STRIDE = 9973


@dataclass(frozen=True)
class SuiteSpec(Spec):
    """One workload axis of the grid: random mixes of a fixed size and kind.

    ``count`` workloads are drawn per scenario replica (each from its own
    seed stream); the scenario's paired seed offsets every draw, so seed
    replicas see fresh — but policy-identical — mixes.  ``label`` names the
    axis in scenario IDs and defaults to ``"<kind><size>"``.
    """

    size: int = field(metadata={"ge": 2})
    kind: str = rule("S", choices=("S", "P"))
    count: int = rule(1, ge=1)
    seed: int = rule(0, ge=0)
    label: Optional[str] = None

    @property
    def axis_label(self) -> str:
        return self.label or f"{self.kind}{self.size}"

    def workload_specs(self) -> Tuple[WorkloadSpec, ...]:
        """The per-scenario workload draws (before the paired-seed offset)."""
        return tuple(
            WorkloadSpec(
                source="random",
                size=self.size,
                kind=self.kind,
                seed=self.seed + slot * _DRAW_STRIDE,
                name=f"{self.axis_label}w{slot}",
            )
            for slot in range(self.count)
        )


@dataclass(frozen=True)
class StatsSpec(Spec):
    """Statistical knobs of the tournament verdict.

    ``resamples``/``confidence`` parameterize every bootstrap interval;
    ``seed`` roots the deterministic RNG streams (one derived stream per
    statistic, see :func:`repro.tournament.stats.stat_seed`);
    ``tie_epsilon`` is the paired-delta magnitude below which a scenario
    counts as a tie.
    """

    resamples: int = rule(1000, ge=1)
    confidence: float = rule(0.95, gt=0.0, lt=1.0)
    seed: int = 20190805
    tie_epsilon: float = rule(1e-12, ge=0)


# ---------------------------------------------------------------------------
# Platform axis normalisation
# ---------------------------------------------------------------------------


def _platform_entry(value: Any, index: int) -> Tuple[str, Any]:
    """``(label, ScenarioSpec-compatible platform value)`` for one axis entry.

    Accepts a preset name string or a mapping of
    :class:`~repro.hardware.platform.PlatformSpec` field overrides (with an
    optional ``preset`` base and an optional ``label``).  Every entry is
    resolved eagerly so a typo fails at load time, not mid-tournament.
    """
    if isinstance(value, str):
        resolve_platform(value)
        return value, value
    if isinstance(value, Mapping):
        entry = dict(value)
        label = entry.pop("label", None)
        if label is not None and (not isinstance(label, str) or not label):
            raise SpecError(
                f"tournament platform label must be a non-empty string, got {label!r}"
            )
        resolve_platform(entry)
        if label is None:
            preset = entry.get("preset", "skylake_gold_6138")
            overrides = sorted(k for k in entry if k != "preset")
            label = preset if not overrides else (
                preset + "-" + "-".join(f"{k}{entry[k]}" for k in overrides)
            )
        return label, entry
    raise SpecError(
        f"tournament platforms[{index}] must be a preset name or an override "
        f"mapping, got {type(value).__name__}"
    )


# ---------------------------------------------------------------------------
# TournamentSpec
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TournamentSpec(Spec):
    """Everything a policy tournament needs, as serializable data.

    ``platforms`` entries are preset names or
    :class:`~repro.hardware.platform.PlatformSpec` override mappings (with
    an optional ``preset`` base and ``label``); a mapping that holds only a
    ``preset`` is stored as the bare name, so both spellings are one spec.
    """

    name: str
    policies: Tuple[PolicySpec, ...]
    suites: Tuple[SuiteSpec, ...]
    kind: str = rule("static", emit="always", choices=("static", "dynamic"))
    platforms: Tuple[Any, ...] = rule(("skylake_gold_6138",), emit="always")
    #: Paired seeds per (suite x platform) cell: seeds ``seed0 ..
    #: seed0 + seeds - 1`` replicate every scenario.
    seeds: int = rule(8, emit="always", ge=1)
    seed0: int = rule(0, ge=0)
    engine: EngineSpec = field(default_factory=EngineSpec)
    solver: SolverSpec = field(default_factory=SolverSpec)
    stats: StatsSpec = field(default_factory=StatsSpec)
    #: Row label of the reference policy for win/loss records; ``None``
    #: defaults to the first policy's label at verdict time.
    reference: Optional[str] = None
    description: str = rule("", blank=True)
    jobs: Optional[int] = rule(1, ge=1, none_as=0)
    executor: Optional[ExecutorSpec] = None
    fault_tolerance: Optional[FaultToleranceSpec] = None

    _SCHEMA = ("tournament", TOURNAMENT_SCHEMA_VERSION)

    def __post_init__(self) -> None:
        super().__post_init__()
        if len(self.policies) < 2:
            raise SpecError(
                "a tournament needs at least two policies to compare "
                f"(got {len(self.policies)})"
            )
        if not self.suites:
            raise SpecError("tournaments need at least one workload suite")
        if not self.platforms:
            raise SpecError("tournaments need at least one platform")
        labels = [s.axis_label for s in self.suites]
        if len(set(labels)) != len(labels):
            raise SpecError(
                f"tournament suite labels must be unique, got {labels}"
            )
        object.__setattr__(
            self,
            "platforms",
            tuple(
                p["preset"]
                if isinstance(p, Mapping) and set(p) == {"preset"}
                and isinstance(p["preset"], str)
                else p
                for p in self.platforms
            ),
        )

    # -- grid generation --------------------------------------------------------

    def grid_cells(self) -> List[Tuple[str, SuiteSpec, str, Any]]:
        """The (scenario name, suite, platform label, platform) grid cells."""
        cells: List[Tuple[str, SuiteSpec, str, Any]] = []
        platform_entries = [
            _platform_entry(value, index) for index, value in enumerate(self.platforms)
        ]
        plabels = [label for label, _ in platform_entries]
        if len(set(plabels)) != len(plabels):
            raise SpecError(
                f"tournament platform labels must be unique, got {plabels}"
            )
        for suite in self.suites:
            for plabel, platform in platform_entries:
                name = (
                    suite.axis_label
                    if len(platform_entries) == 1
                    else f"{suite.axis_label}@{plabel}"
                )
                cells.append((name, suite, plabel, platform))
        return cells

    def n_scenarios(self) -> int:
        """Scenario replicas in the grid: suites x platforms x paired seeds."""
        return len(self.suites) * len(self.platforms) * self.seeds

    def to_study_spec(self) -> StudySpec:
        """Lower the tournament onto the declarative study layer.

        One scenario per grid cell, replicated across the paired seed range;
        every scenario carries the *full* policy line-up, which is what makes
        the seeds paired — within a replica, each policy is evaluated on the
        same resolved workload draws.
        """
        seeds = tuple(range(self.seed0, self.seed0 + self.seeds))
        scenarios = tuple(
            ScenarioSpec(
                name=name,
                kind=self.kind,
                workloads=suite.workload_specs(),
                policies=self.policies,
                engine=self.engine,
                solver=self.solver,
                platform=platform,
                seeds=seeds,
            )
            for name, suite, _, platform in self.grid_cells()
        )
        return StudySpec(
            name=self.name,
            scenarios=scenarios,
            description=self.description,
            jobs=self.jobs,
            executor=self.executor,
            fault_tolerance=self.fault_tolerance,
        )

    # -- serialization ----------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        out = super().to_dict()
        # Preset names become {"preset": ...} tables so the TOML array is
        # homogeneous (the emitter renders it as [[platforms]] tables).
        out["platforms"] = [
            {"preset": p} if isinstance(p, str) else dict(p) for p in self.platforms
        ]
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "TournamentSpec":
        spec = super().from_dict(data)
        # Fail at load time, not mid-run: building the study spec resolves
        # every policy, platform and workload reference through the
        # registries (cheap — no profiles are built).
        spec.to_study_spec()
        return spec


def load_tournament_spec(path) -> TournamentSpec:
    """Read a tournament spec from a ``.toml`` or ``.json`` file."""
    return TournamentSpec.from_dict(read_spec_file(path, "tournament"))


def dump_tournament_spec(spec: TournamentSpec, path) -> None:
    """Write a tournament spec to a ``.toml`` or ``.json`` file."""
    write_spec_file(spec, path, "tournament")
