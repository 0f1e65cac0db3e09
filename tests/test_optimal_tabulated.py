"""Equivalence tests: batch scoring over dense tables vs. per-candidate oracles.

The exact solvers promise *bit-identical* optima to a search that scores one
candidate at a time through :class:`CachedObjective`: same groups, same way
counts, exactly equal unfairness/STP floats and the same candidate counts.
These tests pin that guarantee against the per-candidate loops in
``tests/oracles.py`` across seeded workloads, both objectives and every
solver entry point (exhaustive, branch-and-bound, strict partitioning).
"""

import pytest

from oracles import (
    branch_and_bound_reference,
    optimal_clustering_reference,
    optimal_partitioning_reference,
    score_candidate_fast,
)
from repro.apps import build_catalog
from repro.errors import SolverError
from repro.hardware import skylake_gold_6138
from repro.optimal import (
    CachedObjective,
    TabulatedObjective,
    branch_and_bound_clustering,
    optimal_clustering,
    optimal_partitioning,
    set_partitions,
    way_compositions,
)
from repro.optimal.tabulated import MAX_TABULATED_APPS
from repro.workloads import random_workload

WORKLOAD_SEEDS = [3, 17, 29, 42]

#: A class-diverse 7-application catalog mix (streaming, sensitive and light),
#: checked for the fairness objective only: its per-candidate oracle alone
#: scores 91,078 candidates.
SEVEN_APP_MIX = [
    "lbm06",
    "libquantum06",
    "xalancbmk06",
    "soplex06",
    "omnetpp06",
    "gamess06",
    "namd06",
]

EQUIVALENCE_CASES = [
    (objective, seed)
    for objective in ("fairness", "throughput")
    for seed in WORKLOAD_SEEDS
] + [("fairness", "catalog7")]


def _mix(seed, size: int = 5):
    """A seeded random S mix of ``size`` apps, or ``"catalog7"``."""
    platform = skylake_gold_6138()
    if seed == "catalog7":
        catalog = build_catalog(platform.llc_ways)
        return platform, {name: catalog[name] for name in SEVEN_APP_MIX}
    workload = random_workload(f"tab-{seed}", size, kind="S", seed=seed)
    return platform, workload.profiles(platform.llc_ways)


def _signature(result):
    return (
        [list(cluster.apps) for cluster in result.solution.clusters],
        [cluster.ways for cluster in result.solution.clusters],
        result.unfairness,
        result.stp,
    )


class TestBackendEquivalence:
    """Production searches against the per-candidate oracles."""

    @pytest.mark.parametrize("objective,seed", EQUIVALENCE_CASES)
    def test_exhaustive_bit_identical(self, seed, objective):
        platform, profiles = _mix(seed)
        reference = optimal_clustering_reference(
            platform, profiles, objective=objective
        )
        tabulated = optimal_clustering(platform, profiles, objective=objective)
        assert _signature(tabulated) == _signature(reference)
        assert tabulated.score == reference.score
        assert tabulated.candidates_evaluated == reference.candidates_evaluated

    @pytest.mark.parametrize("objective,seed", EQUIVALENCE_CASES)
    def test_branch_and_bound_matches_reference_optimum(self, seed, objective):
        platform, profiles = _mix(seed)
        reference = optimal_clustering_reference(
            platform, profiles, objective=objective
        )
        bnb = branch_and_bound_clustering(platform, profiles, objective=objective)
        assert _signature(bnb) == _signature(reference)
        assert bnb.candidates_evaluated <= reference.candidates_evaluated
        oracle_bnb = branch_and_bound_reference(platform, profiles, objective=objective)
        assert _signature(bnb) == _signature(oracle_bnb)
        assert bnb.candidates_evaluated == oracle_bnb.candidates_evaluated

    @pytest.mark.parametrize("seed", WORKLOAD_SEEDS[:2])
    def test_partitioning_bit_identical(self, seed):
        platform, profiles = _mix(seed)
        reference = optimal_partitioning_reference(platform, profiles)
        tabulated = optimal_partitioning(platform, profiles)
        assert _signature(tabulated) == _signature(reference)
        assert tabulated.score == reference.score
        assert tabulated.candidates_evaluated == reference.candidates_evaluated

    def test_searches_share_one_table_build(self):
        # Fig. 3 runs branch and bound and strict partitioning over one build.
        platform, profiles = _mix(29)
        tables = TabulatedObjective(platform, profiles)
        shared = CachedObjective(platform, profiles)
        bnb = branch_and_bound_clustering(platform, profiles, tables=tables)
        partitioning = optimal_partitioning(platform, profiles, tables=tables)
        assert _signature(bnb) == _signature(
            branch_and_bound_reference(platform, profiles, objective_fn=shared)
        )
        assert _signature(partitioning) == _signature(
            optimal_partitioning_reference(platform, profiles, objective_fn=shared)
        )

    def test_max_clusters_cap_respected(self):
        platform, profiles = _mix(3)
        result = optimal_clustering(platform, profiles, max_clusters=2)
        assert result.solution.n_clusters <= 2
        reference = optimal_clustering_reference(platform, profiles, max_clusters=2)
        assert _signature(result) == _signature(reference)


class TestTabulatedObjective:
    def test_candidate_scores_match_reference(self):
        platform, profiles = _mix(42)
        reference = CachedObjective(platform, profiles)
        tables = TabulatedObjective(platform, profiles)
        apps = list(profiles)
        checked = 0
        for groups in set_partitions(apps, 3):
            for ways in way_compositions(platform.llc_ways, len(groups)):
                score = reference.score_candidate(groups, ways)
                unfairness, stp = score_candidate_fast(tables, groups, ways)
                assert unfairness == score.unfairness
                assert stp == pytest.approx(score.stp, abs=1e-12)
                checked += 1
            if checked > 300:
                break
        assert checked > 0

    def test_exact_score_is_reference_score(self):
        platform, profiles = _mix(3)
        tables = TabulatedObjective(platform, profiles)
        reference = CachedObjective(platform, profiles)
        groups = [[app] for app in profiles]
        ways = [1] * (len(groups) - 1) + [platform.llc_ways - len(groups) + 1]
        exact = tables.exact_score(groups, ways)
        expected = reference.score_candidate(groups, ways)
        assert exact.unfairness == expected.unfairness
        assert exact.stp == expected.stp
        assert exact.slowdowns == expected.slowdowns

    def test_bounds_match_reference_pieces(self):
        platform, profiles = _mix(17)
        tables = TabulatedObjective(platform, profiles)
        reference = CachedObjective(platform, profiles)
        apps = sorted(profiles)
        group = apps[:3]
        mask = tables.group_mask(group)
        for ways in (1, 2, platform.llc_ways):
            pieces = reference.cluster_pieces(group, ways)
            assert tables.cluster_max_slowdown(mask, ways) == max(
                pieces.cache_slowdowns.values()
            )
            assert tables.cluster_min_slowdown(mask, ways) == min(
                pieces.cache_slowdowns.values()
            )

    def test_oversized_workload_is_refused(self):
        platform = skylake_gold_6138()
        workload = random_workload("tab-big", MAX_TABULATED_APPS + 1, kind="S", seed=2)
        profiles = workload.profiles(platform.llc_ways)
        # max_clusters=1 would make the search itself a single candidate; the
        # refusal comes from the table limit, before any search starts.
        with pytest.raises(SolverError) as excinfo:
            optimal_clustering(platform, profiles, max_clusters=1)
        message = str(excinfo.value)
        assert f"MAX_TABULATED_APPS = {MAX_TABULATED_APPS}" in message
        assert "local_search_clustering" in message

    def test_too_many_apps_rejected(self):
        platform, profiles = _mix(3)
        import repro.optimal.tabulated as tab_mod

        original = tab_mod.MAX_TABULATED_APPS
        tab_mod.MAX_TABULATED_APPS = 2
        try:
            with pytest.raises(SolverError):
                TabulatedObjective(platform, profiles)
        finally:
            tab_mod.MAX_TABULATED_APPS = original

    def test_untabulated_app_rejected(self):
        platform, profiles = _mix(3)
        tables = TabulatedObjective(platform, profiles)
        with pytest.raises(SolverError):
            tables.group_mask(["ghost"])

    def test_restricted_masks_reject_unsolved_entries(self):
        platform, profiles = _mix(3)
        tables = TabulatedObjective(platform, profiles, cluster_masks=[1, 2])
        assert tables.entry(1, 1) == platform.llc_ways
        with pytest.raises(SolverError):
            tables.entry(3, 1)
        with pytest.raises(SolverError):
            TabulatedObjective(platform, profiles, cluster_masks=[0])


def test_tabulated_bnb_with_shared_tables():
    platform, profiles = _mix(42)
    tables = TabulatedObjective(platform, profiles)
    a = branch_and_bound_clustering(platform, profiles, tables=tables)
    b = branch_and_bound_reference(platform, profiles)
    assert _signature(a) == _signature(b)
