"""Tournament verdicts: standings, head-to-head records, persistence.

:func:`build_result` turns the flat metric rows of a tournament study into a
:class:`TournamentResult`:

* one :class:`PolicyStanding` per policy — bootstrap confidence intervals on
  the mean normalised unfairness / STP across all complete paired units,
  plus the win/loss/tie record and exact sign-test p-value against the
  reference policy;
* a full head-to-head matrix (:class:`~repro.tournament.stats.PairedComparison`
  for every policy pair, on the primary metric);
* the raw rows and quarantine records, so a saved result can be re-judged
  (``tournament gate --nerf`` re-runs the verdict on perturbed rows).

The *paired unit* is one ``(scenario_id, workload)`` cell.  Units missing
any policy's row (quarantined runs under a
:class:`~repro.experiments.specs.FaultToleranceSpec`) are excluded from the
statistics — pairing must stay airtight — and surfaced as
``n_units - n_complete_units`` plus the failure records.

Everything is a pure, deterministic function of the rows and the
:class:`~repro.tournament.grid.StatsSpec`, so two executors that produce
bit-identical rows produce bit-identical leaderboards — the property the CI
smoke pins with a byte comparison of the saved files.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import SpecError
from repro.experiments.checkpoint import dump_record, read_records
from repro.tournament.grid import StatsSpec
from repro.tournament.stats import (
    PairedComparison,
    bootstrap_mean_ci,
    compare_paired,
    stat_seed,
)

__all__ = [
    "PRIMARY_METRIC",
    "SECONDARY_METRIC",
    "PolicyStanding",
    "TournamentResult",
    "build_result",
]

#: The headline metric: normalised unfairness, lower is better (Eq. 3).
PRIMARY_METRIC = "normalized_unfairness"

#: The companion metric: normalised system throughput, higher is better.
SECONDARY_METRIC = "normalized_stp"


@dataclass(frozen=True)
class PolicyStanding:
    """One leaderboard row: a policy's aggregate across all paired units."""

    policy: str
    rank: int
    n: int
    mean_unfairness: float
    unfairness_lo: float
    unfairness_hi: float
    mean_stp: float
    stp_lo: float
    stp_hi: float
    #: Win/loss/tie record against the reference policy on the primary
    #: metric; all ``None`` on the reference's own row.
    wins: Optional[int] = None
    losses: Optional[int] = None
    ties: Optional[int] = None
    mean_delta: Optional[float] = None
    delta_lo: Optional[float] = None
    delta_hi: Optional[float] = None
    p_value: Optional[float] = None

    def as_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "policy": self.policy,
            "rank": self.rank,
            "n": self.n,
            "mean_unfairness": self.mean_unfairness,
            "unfairness_lo": self.unfairness_lo,
            "unfairness_hi": self.unfairness_hi,
            "mean_stp": self.mean_stp,
            "stp_lo": self.stp_lo,
            "stp_hi": self.stp_hi,
        }
        for key in ("wins", "losses", "ties", "mean_delta", "delta_lo",
                    "delta_hi", "p_value"):
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "PolicyStanding":
        return cls(**dict(data))


@dataclass
class TournamentResult:
    """The complete verdict of one tournament, persistable as JSONL."""

    name: str
    kind: str
    reference: str
    stats: StatsSpec
    standings: List[PolicyStanding]
    head_to_head: List[Dict[str, Any]]
    rows: List[Dict[str, Any]]
    failures: List[Dict[str, Any]] = field(default_factory=list)
    n_units: int = 0
    n_complete_units: int = 0
    spec: Optional[Dict[str, Any]] = None
    description: str = ""

    def policies(self) -> List[str]:
        return [standing.policy for standing in self.standings]

    def standing(self, policy: str) -> PolicyStanding:
        for candidate in self.standings:
            if candidate.policy == policy:
                return candidate
        raise KeyError(
            f"no policy {policy!r} in tournament {self.name!r} "
            f"(have: {', '.join(self.policies())})"
        )

    # -- machine-readable report -----------------------------------------------

    def to_report_dict(self) -> Dict[str, Any]:
        """The whole verdict as one JSON-ready dictionary (no raw rows)."""
        return {
            "name": self.name,
            "kind": self.kind,
            "reference": self.reference,
            "confidence": self.stats.confidence,
            "resamples": self.stats.resamples,
            "n_units": self.n_units,
            "n_complete_units": self.n_complete_units,
            "n_failures": len(self.failures),
            "standings": [standing.as_dict() for standing in self.standings],
            "head_to_head": [dict(record) for record in self.head_to_head],
        }

    # -- rendering --------------------------------------------------------------

    def render_markdown(self) -> str:
        """The leaderboard and head-to-head matrix as GitHub Markdown."""
        pct = f"{self.stats.confidence * 100:g}%"
        lines = [
            f"# Tournament `{self.name}`",
            "",
            f"{len(self.standings)} policies over {self.n_complete_units} paired "
            f"scenario units ({self.kind}); {pct} bootstrap CIs "
            f"({self.stats.resamples} resamples), reference: "
            f"`{self.reference}`.",
            "",
            "| rank | policy | norm. unfairness "
            f"[{pct} CI] | norm. STP [{pct} CI] | vs ref (W-L-T) | sign p |",
            "|---:|:---|:---|:---|:---:|---:|",
        ]
        for standing in self.standings:
            if standing.wins is None:
                record, p_text = "—", "—"
            else:
                record = f"{standing.wins}-{standing.losses}-{standing.ties}"
                p_text = f"{standing.p_value:.4f}"
            lines.append(
                f"| {standing.rank} | {standing.policy} "
                f"| {standing.mean_unfairness:.4f} "
                f"[{standing.unfairness_lo:.4f}, {standing.unfairness_hi:.4f}] "
                f"| {standing.mean_stp:.4f} "
                f"[{standing.stp_lo:.4f}, {standing.stp_hi:.4f}] "
                f"| {record} | {p_text} |"
            )
        if self.head_to_head:
            order = self.policies()
            cells: Dict[Tuple[str, str], str] = {}
            for record in self.head_to_head:
                a, b = record["a"], record["b"]
                cells[(a, b)] = f"{record['wins']}-{record['losses']}-{record['ties']}"
                cells[(b, a)] = f"{record['losses']}-{record['wins']}-{record['ties']}"
            lines += [
                "",
                "Head-to-head on normalised unfairness (row wins - losses - "
                "ties vs column):",
                "",
                "| | " + " | ".join(order) + " |",
                "|:---|" + "---:|" * len(order),
            ]
            for a in order:
                row = [cells.get((a, b), "—") if a != b else "—" for b in order]
                lines.append(f"| **{a}** | " + " | ".join(row) + " |")
        dropped = self.n_units - self.n_complete_units
        if dropped or self.failures:
            lines += [
                "",
                f"**Degraded:** {dropped} of {self.n_units} paired units were "
                f"incomplete and excluded; {len(self.failures)} run(s) "
                "quarantined.",
            ]
        return "\n".join(lines) + "\n"

    # -- persistence -------------------------------------------------------------

    def save(self, path) -> None:
        """Write the verdict as JSONL: header, standings, head-to-head, rows.

        Every record goes through the result-file writer of
        :mod:`repro.experiments.checkpoint` and carries its CRC.
        """
        header = {
            "name": self.name,
            "kind": self.kind,
            "reference": self.reference,
            "stats": asdict(self.stats),
            "n_units": self.n_units,
            "n_complete_units": self.n_complete_units,
            "description": self.description,
            "spec": self.spec,
        }
        lines = [dump_record("tournament", header)]
        lines += [dump_record("standing", s.as_dict()) for s in self.standings]
        lines += [dump_record("h2h", record) for record in self.head_to_head]
        lines += [dump_record("row", row) for row in self.rows]
        lines += [dump_record("failure", failure) for failure in self.failures]
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")

    @classmethod
    def load(cls, path) -> "TournamentResult":
        """Rebuild a verdict from its JSONL record; every line must decode,
        pass its CRC and follow the tournament header."""
        result: Optional[TournamentResult] = None
        for rec in read_records(path):
            if rec.fault:
                raise SpecError(rec.fault)
            kind, record = rec.kind, rec.data
            if result is None:
                if kind != "tournament":
                    raise SpecError(
                        f"{rec.where}: {kind!r} record before the tournament header"
                    )
                result = cls(
                    name=record.get("name", ""),
                    kind=record.get("kind", "static"),
                    reference=record.get("reference", ""),
                    stats=StatsSpec.from_dict(record.get("stats", {})),
                    standings=[],
                    head_to_head=[],
                    rows=[],
                    failures=[],
                    n_units=int(record.get("n_units", 0)),
                    n_complete_units=int(record.get("n_complete_units", 0)),
                    spec=record.get("spec"),
                    description=record.get("description", ""),
                )
            elif kind == "standing":
                try:
                    result.standings.append(PolicyStanding.from_dict(record))
                except TypeError as exc:  # unsigned files: a key may be altered
                    raise SpecError(f"{rec.where}: malformed standing record: {exc}")
            elif kind == "h2h":
                result.head_to_head.append(record)
            elif kind == "row":
                result.rows.append(record)
            elif kind == "failure":
                result.failures.append(record)
            else:
                raise SpecError(f"{rec.where}: unknown record kind {kind!r}")
        if result is None:
            raise SpecError(f"{path}: no tournament header record found")
        return result


# ---------------------------------------------------------------------------
# Verdict construction
# ---------------------------------------------------------------------------


def _collect_units(
    rows: Sequence[Mapping[str, Any]],
) -> Tuple[List[str], List[Tuple[str, str]], Dict[Tuple[str, str], Dict[str, Mapping[str, Any]]]]:
    """``(policy labels, unit keys, unit -> policy -> row)`` in row order."""
    labels: List[str] = []
    units: List[Tuple[str, str]] = []
    table: Dict[Tuple[str, str], Dict[str, Mapping[str, Any]]] = {}
    for row in rows:
        try:
            unit = (row["scenario_id"], row["workload"])
            label = row["policy"]
        except KeyError as exc:
            raise SpecError(f"tournament row is missing field {exc}")
        if label not in labels:
            labels.append(label)
        if unit not in table:
            table[unit] = {}
            units.append(unit)
        if label in table[unit]:
            raise SpecError(
                f"duplicate row for policy {label!r} on unit {unit!r}"
            )
        table[unit][label] = row
    return labels, units, table


def build_result(
    name: str,
    rows: Sequence[Mapping[str, Any]],
    failures: Sequence[Mapping[str, Any]] = (),
    *,
    stats: Optional[StatsSpec] = None,
    reference: Optional[str] = None,
    kind: str = "static",
    spec: Optional[Dict[str, Any]] = None,
    description: str = "",
) -> TournamentResult:
    """Judge a tournament's rows into a :class:`TournamentResult`.

    ``reference`` names the policy the win/loss records are counted against
    and defaults to the first non-baseline policy in row order (i.e. the
    first policy of the tournament spec).  Rows are expected to carry the
    study-layer fields (``scenario_id``/``workload``/``policy`` plus the
    normalised metrics).
    """
    stats = stats or StatsSpec()
    labels, units, table = _collect_units(rows)
    if not labels:
        raise SpecError(f"tournament {name!r} produced no rows to judge")
    complete = [unit for unit in units if len(table[unit]) == len(labels)]
    if not complete:
        raise SpecError(
            f"tournament {name!r} has no unit with every policy's row; "
            "paired statistics are impossible (check the failure records)"
        )
    if reference is None:
        from repro.experiments.study import BASELINE_LABEL

        candidates = [label for label in labels if label != BASELINE_LABEL]
        reference = candidates[0] if candidates else labels[0]
    elif reference not in labels:
        raise SpecError(
            f"reference policy {reference!r} has no rows in tournament "
            f"{name!r} (have: {', '.join(labels)})"
        )

    values: Dict[str, Dict[str, List[float]]] = {
        label: {PRIMARY_METRIC: [], SECONDARY_METRIC: []} for label in labels
    }
    for unit in complete:
        for label in labels:
            row = table[unit][label]
            for metric in (PRIMARY_METRIC, SECONDARY_METRIC):
                try:
                    values[label][metric].append(float(row[metric]))
                except (KeyError, TypeError, ValueError):
                    raise SpecError(
                        f"row for {label!r} on unit {unit!r} has no usable "
                        f"{metric!r} value"
                    )

    comparisons: Dict[str, PairedComparison] = {}
    for label in labels:
        if label == reference:
            continue
        comparisons[label] = compare_paired(
            label,
            reference,
            values[label][PRIMARY_METRIC],
            values[reference][PRIMARY_METRIC],
            metric=PRIMARY_METRIC,
            better="lower",
            resamples=stats.resamples,
            confidence=stats.confidence,
            seed=stats.seed,
            tie_epsilon=stats.tie_epsilon,
        )

    unranked = []
    for label in labels:
        unf = bootstrap_mean_ci(
            values[label][PRIMARY_METRIC],
            resamples=stats.resamples,
            confidence=stats.confidence,
            seed=stat_seed(stats.seed, label, PRIMARY_METRIC),
        )
        stp = bootstrap_mean_ci(
            values[label][SECONDARY_METRIC],
            resamples=stats.resamples,
            confidence=stats.confidence,
            seed=stat_seed(stats.seed, label, SECONDARY_METRIC),
        )
        versus = comparisons.get(label)
        unranked.append(
            PolicyStanding(
                policy=label,
                rank=0,  # assigned after the sort below
                n=len(complete),
                mean_unfairness=unf.mean,
                unfairness_lo=unf.lo,
                unfairness_hi=unf.hi,
                mean_stp=stp.mean,
                stp_lo=stp.lo,
                stp_hi=stp.hi,
                wins=None if versus is None else versus.wins,
                losses=None if versus is None else versus.losses,
                ties=None if versus is None else versus.ties,
                mean_delta=None if versus is None else versus.delta.mean,
                delta_lo=None if versus is None else versus.delta.lo,
                delta_hi=None if versus is None else versus.delta.hi,
                p_value=None if versus is None else versus.p_value,
            )
        )
    # Rank by the headline metric; ties broken by row order (stable sort).
    ranked = sorted(unranked, key=lambda s: s.mean_unfairness)
    standings = [
        PolicyStanding(**{**standing.as_dict(), "rank": position})
        for position, standing in enumerate(ranked, start=1)
    ]

    head_to_head: List[Dict[str, Any]] = []
    for i, a in enumerate(labels):
        for b in labels[i + 1 :]:
            head_to_head.append(
                compare_paired(
                    a,
                    b,
                    values[a][PRIMARY_METRIC],
                    values[b][PRIMARY_METRIC],
                    metric=PRIMARY_METRIC,
                    better="lower",
                    resamples=stats.resamples,
                    confidence=stats.confidence,
                    seed=stats.seed,
                    tie_epsilon=stats.tie_epsilon,
                ).as_dict()
            )

    return TournamentResult(
        name=name,
        kind=kind,
        reference=reference,
        stats=stats,
        standings=standings,
        head_to_head=head_to_head,
        rows=[dict(row) for row in rows],
        failures=[dict(failure) for failure in failures],
        n_units=len(units),
        n_complete_units=len(complete),
        spec=spec,
        description=description,
    )
