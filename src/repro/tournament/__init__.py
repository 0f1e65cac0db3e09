"""Policy tournaments: seeded scenario grids, paired statistical verdicts,
and CI regression gates.

The paper's central claim is comparative — LFOC delivers better fairness
than Dunn-style clustering and best-static partitioning across workload
mixes — and this package turns that claim into a continuously verified
statistical statement instead of a handful of pinned point figures:

* :class:`TournamentSpec` (:mod:`repro.tournament.grid`) declares the
  line-up and a deterministic scenario grid (workload suites x platform
  shapes x *paired* seeds: every policy sees byte-identical scenarios);
* :func:`run_tournament` (:mod:`repro.tournament.runner`) lowers the grid
  onto the existing executor backends via
  :func:`~repro.experiments.study.run_study` — checkpoint/resume and the
  fault-tolerance retry/quarantine layer included;
* :mod:`repro.tournament.stats` judges the rows with stdlib/NumPy paired
  statistics (per-scenario win/loss/tie, deterministic bootstrap CIs,
  exact sign-test p-values — no SciPy);
* :class:`TournamentResult` (:mod:`repro.tournament.leaderboard`) is the
  verdict: per-policy standings, a head-to-head matrix, Markdown and
  machine-readable JSON renderings, and a JSONL store;
* :mod:`repro.tournament.gates` pins a blessed verdict as a committed
  baseline and fails CI when a policy's aggregate degrades beyond the
  bootstrap noise band.

Everything downstream of the rows is a pure deterministic function, so the
leaderboard is bit-identical across the serial executor and the wire
executors (``pool``, ``supervised``, ``tcp``), whose worker processes all
speak the same checked protocol.

.. code-block:: python

   from repro.tournament import TournamentSpec, SuiteSpec, run_tournament

   spec = TournamentSpec(
       name="fairness-claims",
       policies=("lfoc", "dunn", "best_static"),
       suites=(SuiteSpec(size=6), SuiteSpec(size=8)),
       seeds=16,
   )
   result = run_tournament(spec, executor="pool")
   print(result.render_markdown())
   result.save("tournament.jsonl")

The same tournament expressed in TOML runs through the CLI with no Python
(``lfoc-repro tournament run tournament.toml``); see
``examples/tournament_small.toml`` and the "Policy tournaments" section of
``EXPERIMENTS.md``.
"""

from repro.tournament.gates import (
    baseline_from_result,
    check_regression,
    load_baseline,
    nerf_rows,
    rejudge,
    write_baseline,
)
from repro.tournament.grid import (
    TOURNAMENT_SCHEMA_VERSION,
    StatsSpec,
    SuiteSpec,
    TournamentSpec,
    dump_tournament_spec,
    load_tournament_spec,
)
from repro.tournament.leaderboard import (
    PRIMARY_METRIC,
    SECONDARY_METRIC,
    PolicyStanding,
    TournamentResult,
    build_result,
)
from repro.tournament.runner import judge_study, run_tournament
from repro.tournament.stats import (
    BootstrapCI,
    PairedComparison,
    bootstrap_mean_ci,
    compare_paired,
    sign_test_p,
    stat_seed,
)

__all__ = [
    "TOURNAMENT_SCHEMA_VERSION",
    "PRIMARY_METRIC",
    "SECONDARY_METRIC",
    "TournamentSpec",
    "SuiteSpec",
    "StatsSpec",
    "TournamentResult",
    "PolicyStanding",
    "BootstrapCI",
    "PairedComparison",
    "run_tournament",
    "judge_study",
    "build_result",
    "bootstrap_mean_ci",
    "compare_paired",
    "sign_test_p",
    "stat_seed",
    "load_tournament_spec",
    "dump_tournament_spec",
    "baseline_from_result",
    "write_baseline",
    "load_baseline",
    "check_regression",
    "nerf_rows",
    "rejudge",
]
