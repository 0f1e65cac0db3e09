"""Differential tests: the static-search layers against their oracles.

The all-ways table build of :class:`TabulatedObjective`, the memoized local
search and KPart's cached agglomeration must reproduce the plainly written
versions in ``tests/oracles.py`` bit for bit: the five dense arrays, the
solution, every float of the score, the candidate count and the chosen
clustering.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracles import (
    build_dendrogram_reference,
    build_tables_reference,
    evaluate_level_reference,
    kpart_decide_reference,
    local_search_reference,
)
from repro.apps import AppProfile, CurveSet
from repro.hardware import skylake_gold_6138, small_test_platform
from repro.metrics import stp, unfairness
from repro.optimal import CachedObjective, TabulatedObjective, local_search_clustering
from repro.policies import KPartPolicy, build_dendrogram, evaluate_level
from repro.simulator import OccupancyModel
from repro.workloads import random_workload

TABLE_ARRAYS = ("_slowdown_rows", "_stall_rows", "_demand_rows", "_row_max", "_row_min")


def _random_profiles(rng: np.random.Generator, n_apps: int, n_ways: int):
    profiles = {}
    for i in range(n_apps):
        ipc = np.sort(rng.uniform(0.3, 2.0, size=n_ways))
        mpkc = np.sort(rng.uniform(0.0, 40.0, size=n_ways))[::-1]
        profiles[f"a{i}"] = AppProfile(name=f"a{i}", curves=CurveSet(ipc=ipc, llcmpkc=mpkc))
    return profiles


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    n_apps=st.integers(min_value=2, max_value=8),
    ways=st.sampled_from([4, 11]),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    subset=st.booleans(),
    max_iterations=st.sampled_from([3, 50]),
    damping=st.sampled_from([0.5, 0.3, 0.85]),
)
def test_table_build_matches_per_way_oracle(
    n_apps, ways, seed, subset, max_iterations, damping
):
    rng = np.random.default_rng(seed)
    platform = skylake_gold_6138() if ways == 11 else small_test_platform(ways=ways)
    profiles = _random_profiles(rng, n_apps, ways)
    cluster_masks = None
    if subset:
        all_masks = np.arange(1, 1 << n_apps)
        count = int(rng.integers(1, all_masks.size + 1))
        cluster_masks = [int(m) for m in rng.choice(all_masks, size=count, replace=False)]
    tables = TabulatedObjective(
        platform,
        profiles,
        occupancy_model=OccupancyModel(max_iterations=max_iterations, damping=damping),
        cluster_masks=cluster_masks,
    )
    expected = build_tables_reference(tables)
    for name in TABLE_ARRAYS:
        got = getattr(tables, name)
        assert got.shape == expected[name].shape, name
        assert got.tobytes() == expected[name].tobytes(), name


def _catalog_mix(seed: int, size: int, kind: str = "S"):
    platform = skylake_gold_6138()
    workload = random_workload(f"static-{kind}{seed}", size, kind=kind, seed=seed)
    return platform, workload.profiles(platform.llc_ways)


@pytest.mark.parametrize("objective", ["fairness", "throughput"])
@pytest.mark.parametrize("size", [8, 12, 16])
def test_local_search_matches_unmemoized_oracle(oracle_seeds, size, objective):
    for seed in oracle_seeds:
        platform, profiles = _catalog_mix(seed, size)
        kwargs = dict(objective=objective, iterations=300, seed=seed)
        got = local_search_clustering(platform, profiles, **kwargs)
        expected = local_search_reference(platform, profiles, **kwargs)
        assert got.solution == expected.solution
        assert list(got.score.slowdowns.items()) == list(expected.score.slowdowns.items())
        assert got.score.unfairness == expected.score.unfairness
        assert got.score.stp == expected.score.stp
        assert got.candidates_evaluated == expected.candidates_evaluated


def test_local_search_with_shared_objective_matches_oracle():
    platform, profiles = _catalog_mix(5, 12)
    scorer = CachedObjective(platform, profiles)
    first = local_search_clustering(platform, profiles, iterations=200, objective_fn=scorer)
    again = local_search_clustering(platform, profiles, iterations=200, objective_fn=scorer)
    expected = local_search_reference(platform, profiles, iterations=200)
    for result in (first, again):
        assert result.solution == expected.solution
        assert result.score == expected.score
        assert result.candidates_evaluated == expected.candidates_evaluated


def test_score_candidate_metrics_equal_the_fairness_module():
    platform, profiles = _catalog_mix(11, 8)
    scorer = CachedObjective(platform, profiles)
    apps = list(profiles)
    for groups, ways in (
        ([apps], [11]),
        ([apps[:3], apps[3:]], [4, 7]),
        ([[a] for a in apps], [2, 2, 2, 1, 1, 1, 1, 1]),
    ):
        score = scorer.score_candidate(groups, ways)
        values = list(score.slowdowns.values())
        assert score.unfairness == unfairness(values)
        assert score.stp == stp(values)


@pytest.mark.parametrize("kind", ["S", "P"])
@pytest.mark.parametrize("size", [4, 6, 8, 12, 16])
def test_kpart_decide_matches_uncached_oracle(oracle_seeds, size, kind):
    for seed in oracle_seeds:
        platform, profiles = _catalog_mix(seed, size, kind)
        assert KPartPolicy().decide(profiles, platform) == kpart_decide_reference(
            profiles, platform
        )
        assert KPartPolicy(max_clusters=3).decide(
            profiles, platform
        ) == kpart_decide_reference(profiles, platform, max_clusters=3)


def test_kpart_public_helpers_match_oracles():
    platform, profiles = _catalog_mix(3, 10)
    k = platform.llc_ways
    levels = build_dendrogram(profiles, k)
    assert levels == build_dendrogram_reference(profiles, k)
    for groups in levels[1:]:
        assert evaluate_level(groups, profiles, k) == evaluate_level_reference(
            groups, profiles, k
        )
