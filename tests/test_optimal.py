"""Tests for the search-space enumeration and optimal-solution solvers."""

import re

import pytest

from oracles import score_solution
from repro.core import ClusteringSolution
from repro.errors import SolverError
from repro.hardware import skylake_gold_6138, small_test_platform
from repro.optimal import (
    CachedObjective,
    TabulatedObjective,
    bell_number,
    branch_and_bound_clustering,
    count_clustering_solutions,
    count_partitioning_solutions,
    count_set_partitions,
    count_way_compositions,
    local_search_clustering,
    optimal_clustering,
    optimal_partitioning,
    parallel_optimal_clustering,
    set_partitions,
    stirling2,
    way_compositions,
)


class TestEnumeration:
    def test_way_compositions_count_and_validity(self):
        compositions = list(way_compositions(6, 3))
        assert len(compositions) == count_way_compositions(6, 3) == 10
        assert all(sum(c) == 6 and min(c) >= 1 for c in compositions)
        assert len(set(compositions)) == len(compositions)

    def test_way_compositions_single_part(self):
        assert list(way_compositions(5, 1)) == [(5,)]

    def test_way_compositions_infeasible_rejected(self):
        with pytest.raises(SolverError):
            list(way_compositions(2, 3))

    def test_set_partitions_bell_number(self):
        items = ["a", "b", "c", "d"]
        partitions = list(set_partitions(items, 4))
        assert len(partitions) == bell_number(4) == 15
        for partition in partitions:
            flattened = [x for group in partition for x in group]
            assert sorted(flattened) == sorted(items)

    def test_set_partitions_respects_max_parts(self):
        partitions = list(set_partitions(["a", "b", "c", "d"], 2))
        assert len(partitions) == count_set_partitions(4, 2) == 8
        assert all(len(p) <= 2 for p in partitions)

    def test_stirling_numbers(self):
        assert stirling2(4, 2) == 7
        assert stirling2(5, 5) == 1
        assert stirling2(5, 6) == 0

    def test_paper_search_space_sizes(self):
        # Section 2.2: 120 partitionings for 8 apps / 11 ways; ~9M clusterings
        # for 8 apps / 20 ways; >5500M for 11 apps / 20 ways.
        assert count_partitioning_solutions(8, 11) == 120
        assert 9_000_000 < count_clustering_solutions(8, 20) < 10_000_000
        assert count_clustering_solutions(11, 20) > 5_500_000_000

    def test_clustering_count_matches_enumeration(self, small_platform, catalog):
        apps = ["lbm06", "xalancbmk06", "gamess06"]
        total = 0
        for groups in set_partitions(apps, min(len(apps), small_platform.llc_ways)):
            total += count_way_compositions(small_platform.llc_ways, len(groups))
        assert total == count_clustering_solutions(3, small_platform.llc_ways)


@pytest.fixture(scope="module")
def mix5():
    from repro.apps import build_catalog

    catalog = build_catalog(11)
    names = ["lbm06", "xalancbmk06", "soplex06", "gamess06", "namd06"]
    return {name: catalog[name] for name in names}


class TestSolvers:
    def test_exhaustive_fairness_beats_every_heuristic_partition(self, platform, mix5):
        result = optimal_clustering(platform, mix5, objective="fairness")
        # No partitioning of the same workload can be fairer (partitionings are
        # a subset of clusterings).
        partitioning = optimal_partitioning(platform, mix5, objective="fairness")
        assert result.unfairness <= partitioning.unfairness + 1e-9
        assert result.solution.covers(mix5)

    def test_branch_and_bound_matches_exhaustive(self, platform, mix5):
        shared = TabulatedObjective(platform, mix5)
        exhaustive = optimal_clustering(platform, mix5, tables=shared)
        bnb = branch_and_bound_clustering(platform, mix5, tables=shared)
        assert bnb.unfairness == pytest.approx(exhaustive.unfairness, rel=1e-9)
        assert bnb.candidates_evaluated <= exhaustive.candidates_evaluated

    def test_throughput_objective_maximises_stp(self, platform, mix5):
        fairness = optimal_clustering(platform, mix5, objective="fairness")
        throughput = optimal_clustering(platform, mix5, objective="throughput")
        assert throughput.stp >= fairness.stp - 1e-9

    def test_optimal_isolates_streaming_aggressor(self, platform, mix5):
        result = optimal_clustering(platform, mix5, objective="fairness")
        lbm_cluster = result.solution.cluster_of("lbm06")
        assert lbm_cluster.ways <= 2  # Section 3: aggressors end up in tiny clusters

    def test_max_clusters_cap_respected(self, platform, mix5):
        result = optimal_clustering(platform, mix5, max_clusters=2)
        assert result.solution.n_clusters <= 2

    def test_partitioning_requires_enough_ways(self, small_platform, mix5):
        with pytest.raises(SolverError):
            optimal_partitioning(small_platform, mix5)

    def test_unknown_objective_rejected(self, platform, mix5):
        with pytest.raises(SolverError):
            optimal_clustering(platform, mix5, objective="energy")
        with pytest.raises(SolverError):
            branch_and_bound_clustering(platform, mix5, objective="energy")

    def test_unknown_apps_rejected(self, platform, mix5):
        with pytest.raises(SolverError):
            optimal_clustering(platform, mix5, apps=["ghost"])

    def test_local_search_feasible_and_close_to_optimal(self, platform, mix5):
        exact = branch_and_bound_clustering(platform, mix5)
        approx = local_search_clustering(
            platform, mix5, iterations=400, restarts=2, seed=1
        )
        assert approx.solution.covers(mix5)
        assert approx.unfairness <= exact.unfairness * 1.15

    def test_local_search_is_deterministic(self, platform, mix5):
        a = local_search_clustering(platform, mix5, iterations=200, seed=3)
        b = local_search_clustering(platform, mix5, iterations=200, seed=3)
        assert a.unfairness == pytest.approx(b.unfairness)

    def test_parallel_single_worker_matches_exhaustive(self, platform, mix5):
        sequential = optimal_clustering(platform, mix5)
        parallel = parallel_optimal_clustering(platform, mix5, n_workers=1)
        assert parallel.unfairness == pytest.approx(sequential.unfairness, rel=1e-9)
        assert parallel.candidates_evaluated == sequential.candidates_evaluated


class TestCachedObjective:
    def test_cluster_pieces_are_cached(self, platform, mix5):
        objective = CachedObjective(platform, mix5)
        objective.cluster_pieces(["lbm06", "gamess06"], 2)
        size = objective.cache_size
        objective.cluster_pieces(["gamess06", "lbm06"], 2)  # same key, different order
        assert objective.cache_size == size

    def test_score_matches_full_estimator(self, platform, mix5):
        from repro.simulator import ClusteringEstimator

        objective = CachedObjective(platform, mix5)
        groups = [["lbm06"], ["xalancbmk06", "soplex06"], ["gamess06", "namd06"]]
        ways = [1, 8, 2]
        score = objective.score_candidate(groups, ways)
        estimator = ClusteringEstimator(platform, mix5)
        solution = ClusteringSolution.from_groups(groups, ways, platform.llc_ways)
        estimate = estimator.evaluate(solution)
        assert score.unfairness == pytest.approx(estimate.unfairness, rel=0.02)
        assert score.stp == pytest.approx(estimate.stp, rel=0.02)

    def test_score_solution_wrapper(self, platform, mix5):
        objective = CachedObjective(platform, mix5)
        solution = ClusteringSolution.single_cluster(list(mix5), platform.llc_ways)
        score = score_solution(objective, solution)
        assert score.unfairness >= 1.0

    def test_mismatched_groups_and_ways_rejected(self, platform, mix5):
        objective = CachedObjective(platform, mix5)
        with pytest.raises(SolverError):
            objective.score_candidate([["lbm06"]], [1, 2])

    @pytest.mark.parametrize("ways", [2.5, 2.0, True, "2", None])
    def test_cluster_pieces_rejects_non_int_ways(self, platform, mix5, ways):
        objective = CachedObjective(platform, mix5)
        # A cached 2-way entry must not answer for a non-int way count.
        objective.cluster_pieces(["lbm06", "gamess06"], 2)
        with pytest.raises(SolverError, match=re.escape(repr(ways))):
            objective.cluster_pieces(["lbm06", "gamess06"], ways)

    @pytest.mark.parametrize("ways", [0, -1, 12, 40])
    def test_cluster_pieces_rejects_ways_outside_the_llc(self, platform, mix5, ways):
        objective = CachedObjective(platform, mix5)
        with pytest.raises(SolverError, match=f"1..{platform.llc_ways} ways, got {ways}"):
            objective.cluster_pieces(["lbm06"], ways)
        assert objective.cache_size == 0

    def test_cluster_pieces_accepts_the_whole_llc(self, platform, mix5):
        objective = CachedObjective(platform, mix5)
        pieces = objective.cluster_pieces(["lbm06"], platform.llc_ways)
        assert pieces.cache_slowdowns["lbm06"] == 1.0

    def test_cluster_pieces_rejects_unknown_and_empty_members(self, platform, mix5):
        objective = CachedObjective(platform, mix5)
        with pytest.raises(SolverError, match="no profile registered.*'nosuch06'"):
            objective.cluster_pieces(["lbm06", "nosuch06"], 2)
        with pytest.raises(SolverError, match="at least one application"):
            objective.cluster_pieces([], 2)
        with pytest.raises(SolverError, match="no profile registered.*'nosuch06'"):
            objective.score_candidate([["lbm06"], ["nosuch06"]], [5, 6])
