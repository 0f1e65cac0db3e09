"""Tests for the static cache-allocation policies (LFOC, Dunn, KPart, UCP...)."""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracles import ReferenceDunnPolicy, kmeans_1d_reference, silhouette_1d_reference
from repro.core import AppClass, ClusteringSolution, WayAllocation, classify_profile
from repro.errors import ClusteringError
from repro.policies import (
    BestStaticPolicy,
    DunnPolicy,
    KPartPolicy,
    LfocKernelPolicy,
    LfocPolicy,
    StockLinuxPolicy,
    UcpPolicy,
    build_dendrogram,
    evaluate_level,
    kmeans_1d,
    silhouette_1d,
)
from repro.policies.dunn import _seed_centroids
from repro.simulator import ClusteringEstimator


class TestStockLinux:
    def test_single_cluster_over_whole_cache(self, platform, mix8):
        solution = StockLinuxPolicy().cluster(mix8, platform)
        assert solution.n_clusters == 1
        assert solution.clusters[0].ways == platform.llc_ways

    def test_allocation_is_full_mask_for_everyone(self, platform, mix8):
        allocation = StockLinuxPolicy().allocate(mix8, platform)
        assert all(mask == platform.full_mask for mask in allocation.masks.values())

    def test_empty_workload_rejected(self, platform):
        with pytest.raises(ClusteringError):
            StockLinuxPolicy().cluster({}, platform)


class TestLfocPolicy:
    def test_streaming_apps_confined(self, platform, mix8):
        solution = LfocPolicy().cluster(mix8, platform)
        for name, profile in mix8.items():
            if classify_profile(profile) is AppClass.STREAMING:
                assert solution.ways_of(name) <= 2

    def test_sensitive_apps_get_most_of_the_cache(self, platform, mix8):
        solution = LfocPolicy().cluster(mix8, platform)
        sensitive_ways = sum(
            c.ways for c in solution.clusters if c.label == "sensitive"
        )
        assert sensitive_ways >= platform.llc_ways - 2

    def test_covers_whole_workload(self, platform, mix8):
        assert LfocPolicy().cluster(mix8, platform).covers(mix8)

    def test_improves_fairness_over_stock(self, platform, mix8):
        estimator = ClusteringEstimator(platform, mix8)
        stock = estimator.evaluate_unpartitioned()
        lfoc = estimator.evaluate(LfocPolicy().cluster(mix8, platform))
        assert lfoc.unfairness < stock.unfairness

    def test_kernel_variant_is_equivalent_shape(self, platform, mix8):
        float_solution = LfocPolicy().cluster(mix8, platform)
        kernel_solution = LfocKernelPolicy().cluster(mix8, platform)
        # Same cluster structure (way counts may differ by rounding of the
        # fixed-point slowdown tables, but the grouping must agree).
        float_groups = {tuple(sorted(c.apps)) for c in float_solution.clusters}
        kernel_groups = {tuple(sorted(c.apps)) for c in kernel_solution.clusters}
        assert float_groups == kernel_groups

    def test_profiles_resampled_to_platform(self, catalog, platform):
        # Profiles collected for 20 ways still work on the 11-way platform.
        profiles = {
            name: catalog[name].resampled(20)
            for name in ("lbm06", "xalancbmk06", "gamess06")
        }
        solution = LfocPolicy().cluster(profiles, platform)
        assert sum(c.ways for c in solution.clusters) == platform.llc_ways

    def test_all_light_workload_yields_single_cluster(self, catalog, platform):
        profiles = {n: catalog[n] for n in ("gamess06", "namd06", "povray06")}
        solution = LfocPolicy().cluster(profiles, platform)
        assert solution.n_clusters == 1


class TestUcp:
    def test_strict_partitioning(self, platform, mix8):
        solution = UcpPolicy().cluster(mix8, platform)
        assert solution.is_partitioning()
        assert sum(c.ways for c in solution.clusters) == platform.llc_ways

    def test_rejects_more_apps_than_ways(self, platform, catalog):
        names = list(catalog)[:12]
        profiles = {n: catalog[n] for n in names}
        with pytest.raises(ClusteringError):
            UcpPolicy().cluster(profiles, platform)

    def test_metric_validation(self):
        with pytest.raises(ClusteringError):
            UcpPolicy(metric="energy")

    def test_slowdown_metric_variant(self, platform, mix8):
        solution = UcpPolicy(metric="slowdown").cluster(mix8, platform)
        assert solution.is_partitioning()


class TestKmeans:
    def test_separates_two_obvious_groups(self):
        values = [0.1, 0.12, 0.11, 0.9, 0.88, 0.91]
        labels, centroids = kmeans_1d(values, 2)
        assert set(labels[:3]) == {0}
        assert set(labels[3:]) == {1}
        assert centroids[0] < centroids[1]

    def test_k_equals_n(self):
        labels, _ = kmeans_1d([0.1, 0.5, 0.9], 3)
        assert sorted(labels) == [0, 1, 2]

    def test_invalid_k_rejected(self):
        with pytest.raises(ClusteringError):
            kmeans_1d([0.1, 0.2], 3)
        with pytest.raises(ClusteringError):
            kmeans_1d([], 1)

    def test_deterministic(self):
        values = list(np.linspace(0, 1, 20))
        a = kmeans_1d(values, 3)
        b = kmeans_1d(values, 3)
        assert np.array_equal(a[0], b[0])


class TestDunn:
    def test_produces_full_coverage_allocation(self, platform, mix8):
        allocation = DunnPolicy().allocate(mix8, platform)
        assert set(allocation.masks) == set(mix8)
        assert all(mask > 0 for mask in allocation.masks.values())

    def test_high_stall_apps_get_more_ways(self, platform, mix8):
        policy = DunnPolicy()
        allocation = policy.allocate(mix8, platform)
        assert allocation.ways_of("lbm06") >= allocation.ways_of("gamess06")

    def test_stall_metric_orders_classes(self, platform, mix8):
        stalls = DunnPolicy().stall_metric(mix8, platform)
        assert stalls["lbm06"] > stalls["gamess06"]

    def test_masks_may_overlap(self, platform, mix8):
        allocation = DunnPolicy(overlap_ways=1).allocate(mix8, platform)
        assert isinstance(allocation, WayAllocation)
        # With zero overlap the masks must be disjoint across clusters.
        disjoint = DunnPolicy(overlap_ways=0).allocate(mix8, platform)
        assert not disjoint.is_overlapping()

    def test_cluster_range_validation(self):
        with pytest.raises(ClusteringError):
            DunnPolicy(max_clusters=1, min_clusters=2)
        with pytest.raises(ClusteringError):
            DunnPolicy(overlap_ways=-1)

    def test_choose_k_is_public_and_deterministic(self):
        policy = DunnPolicy(max_clusters=4, min_clusters=2)
        # Two well-separated groups: silhouette must pick k=2 and split them.
        values = np.array([0.05, 0.06, 0.07, 0.85, 0.9, 0.88])
        k, labels = policy.choose_k(values)
        assert k == 2
        assert list(labels[:3]) == [0, 0, 0]
        assert list(labels[3:]) == [1, 1, 1]
        # Labels refer to ascending centroids: the high-stall group is 1.
        again_k, again_labels = policy.choose_k(values)
        assert again_k == k and list(again_labels) == list(labels)

    def test_choose_k_single_value(self):
        k, labels = DunnPolicy().choose_k(np.array([0.4]))
        assert k == 1 and list(labels) == [0]

    def test_choose_k_respects_max_clusters(self):
        values = np.array([0.1, 0.4, 0.7, 0.95, 0.2, 0.6])
        k, labels = DunnPolicy(max_clusters=3).choose_k(values)
        assert 1 <= k <= 3
        assert labels.shape == values.shape

    def test_runtime_daemon_uses_public_choose_k(self):
        from repro.hardware import skylake_gold_6138
        from repro.runtime import DunnUserLevelDaemon

        platform = skylake_gold_6138()
        daemon = DunnUserLevelDaemon()
        daemon.on_start(["a", "b", "c"], platform)
        allocation = daemon.decider.allocation_for(
            {"a": 0.1, "b": 0.8, "c": 0.75}, platform
        )
        assert set(allocation.masks) == {"a", "b", "c"}
        # The high-stall pair lands in the same (larger) cluster.
        assert allocation.masks["b"] == allocation.masks["c"]
        assert allocation.ways_of("b") >= allocation.ways_of("a")

    def test_cluster_method_raises_for_overlapping_decision(self, platform, mix8):
        with pytest.raises(ClusteringError):
            DunnPolicy().cluster(mix8, platform)


class TestKPart:
    def test_dendrogram_levels_shrink_by_one(self, platform, mix8):
        levels = build_dendrogram(mix8, platform.llc_ways)
        assert len(levels) == len(mix8)
        assert [len(level) for level in levels] == list(range(len(mix8), 0, -1))

    def test_dendrogram_merges_similar_apps_first(self, platform, catalog):
        profiles = {n: catalog[n] for n in ("lbm06", "lbm17", "xalancbmk06", "gamess06")}
        levels = build_dendrogram(profiles, platform.llc_ways)
        first_merge = [g for g in levels[1] if len(g) == 2][0]
        assert sorted(first_merge) in (["lbm06", "lbm17"], ["gamess06", "lbm06"], ["gamess06", "lbm17"])

    def test_evaluate_level_allocates_every_way(self, platform, mix8):
        groups = [[name] for name in mix8]
        ways, speedup = evaluate_level(groups, mix8, platform.llc_ways)
        assert sum(ways) == platform.llc_ways
        assert speedup > 0

    def test_evaluate_level_rejects_too_many_clusters(self, platform, catalog):
        groups = [[name] for name in list(catalog)[:12]]
        profiles = {name: catalog[name] for name in list(catalog)[:12]}
        with pytest.raises(ClusteringError):
            evaluate_level(groups, profiles, platform.llc_ways)

    def test_decision_covers_workload(self, platform, mix8):
        solution = KPartPolicy().cluster(mix8, platform)
        assert solution.covers(mix8)
        assert sum(c.ways for c in solution.clusters) == platform.llc_ways

    def test_handles_more_apps_than_ways(self, platform, catalog):
        names = list(catalog)[:13]
        profiles = {n: catalog[n] for n in names}
        solution = KPartPolicy().cluster(profiles, platform)
        assert solution.covers(profiles)
        assert solution.n_clusters <= platform.llc_ways

    def test_max_clusters_cap(self, platform, mix8):
        solution = KPartPolicy(max_clusters=3).cluster(mix8, platform)
        assert solution.n_clusters <= 3

    def test_improves_throughput_over_stock(self, platform, mix8):
        estimator = ClusteringEstimator(platform, mix8)
        stock = estimator.evaluate_unpartitioned()
        kpart = estimator.evaluate(KPartPolicy().cluster(mix8, platform))
        assert kpart.stp >= stock.stp


HYPOTHESIS_SETTINGS = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

unit_floats = st.floats(
    min_value=0.0, max_value=1.0, allow_nan=False, allow_infinity=False, width=64
)


@st.composite
def stall_vectors(draw):
    """1-D stall-metric vectors, with duplicates and constants over-sampled."""
    n = draw(st.integers(min_value=2, max_value=20))
    values = draw(st.lists(unit_floats, min_size=n, max_size=n))
    shape = draw(st.integers(min_value=0, max_value=3))
    if shape == 1:  # heavy duplicates
        pool = values[: max(n // 3, 1)]
        values = [pool[i % len(pool)] for i in range(n)]
    elif shape == 2:  # constant vector
        values = [values[0]] * n
    return np.array(values, dtype=float)


class TestDunnDecisionProperties:
    """Hypothesis properties of the Dunn decision kernels (tentpole pinning)."""

    @HYPOTHESIS_SETTINGS
    @given(values=stall_vectors(), k=st.integers(min_value=1, max_value=6))
    def test_kmeans_bit_identical_to_reference_and_deterministic(self, values, k):
        k = min(k, values.size)
        labels, centroids = kmeans_1d(values, k)
        ref_labels, ref_centroids = kmeans_1d_reference(values, k)
        assert np.array_equal(labels, ref_labels)
        assert np.array_equal(centroids, ref_centroids)
        again_labels, again_centroids = kmeans_1d(values, k)
        assert np.array_equal(labels, again_labels)
        assert np.array_equal(centroids, again_centroids)
        # Structural invariants: centroids ascending, labels in range.
        assert np.all(np.diff(centroids) >= 0)
        assert labels.min() >= 0 and labels.max() < k

    @HYPOTHESIS_SETTINGS
    @given(values=stall_vectors(), k=st.integers(min_value=1, max_value=6))
    def test_seed_centroids_bit_identical_to_np_quantile(self, values, k):
        k = min(k, values.size)
        quantiles = np.linspace(0.0, 1.0, k + 2)[1:-1]
        assert np.array_equal(
            _seed_centroids(np.sort(values), k), np.quantile(values, quantiles)
        )

    @HYPOTHESIS_SETTINGS
    @given(values=stall_vectors(), k=st.integers(min_value=2, max_value=6))
    def test_silhouette_range_and_new_vs_old_equality(self, values, k):
        k = min(k, values.size)
        labels, _ = kmeans_1d(values, k)
        fast = silhouette_1d(values, labels, k)
        slow = silhouette_1d_reference(values, labels, k)
        assert -1.0 <= fast <= 1.0
        assert -1.0 <= slow <= 1.0
        # Same math, different summation order: equal to rounding accuracy.
        assert math.isclose(fast, slow, rel_tol=1e-9, abs_tol=1e-9)
        # Determinism across repeated calls.
        assert silhouette_1d(values, labels, k) == fast
        assert silhouette_1d_reference(values, labels, k) == slow

    @HYPOTHESIS_SETTINGS
    @given(values=stall_vectors(), k=st.integers(min_value=2, max_value=6))
    def test_silhouette_label_permutation_invariance(self, values, k):
        k = min(k, values.size)
        labels, _ = kmeans_1d(values, k)
        permutation = np.roll(np.arange(k), 1)
        permuted = permutation[labels]
        assert silhouette_1d(values, permuted, k) == silhouette_1d(values, labels, k)
        assert silhouette_1d_reference(values, permuted, k) == silhouette_1d_reference(
            values, labels, k
        )

    @HYPOTHESIS_SETTINGS
    @given(values=stall_vectors())
    def test_choose_k_decisions_backend_independent(self, values):
        k_inc, labels_inc = DunnPolicy().choose_k(values)
        k_ref, labels_ref = ReferenceDunnPolicy().choose_k(values)
        assert k_inc == k_ref
        assert np.array_equal(labels_inc, labels_ref)
        assert 1 <= k_inc <= values.size
        assert labels_inc.shape == values.shape

    @HYPOTHESIS_SETTINGS
    @given(values=stall_vectors(), min_clusters=st.integers(min_value=1, max_value=8))
    def test_choose_k_handles_n_below_min_clusters(self, values, min_clusters):
        policy = DunnPolicy(max_clusters=max(min_clusters, 4), min_clusters=min_clusters)
        k, labels = policy.choose_k(values)
        # The sweep caps k at n even when the configured range exceeds it.
        assert 1 <= k <= values.size
        assert labels.size == values.size

    def test_silhouette_k1_scores_minus_one(self):
        values = np.array([0.1, 0.5, 0.9])
        labels = np.zeros(3, dtype=int)
        assert silhouette_1d(values, labels, 1) == -1.0
        assert silhouette_1d_reference(values, labels, 1) == -1.0

    def test_silhouette_all_duplicates_scores_zero(self):
        # Two non-empty clusters of identical values: a = b = 0 -> score 0.0.
        values = np.array([0.4, 0.4, 0.4, 0.4])
        labels = np.array([0, 0, 1, 1])
        assert silhouette_1d(values, labels, 2) == 0.0
        assert silhouette_1d_reference(values, labels, 2) == 0.0


class TestChooseKTieBreaking:
    """The explicit degenerate/tie-breaking rule (regression for the old
    inconsistency where a degenerate k>=2 clustering scored 0.0 while k=1
    scored -1.0 and could win the sweep on duplicate-heavy data)."""

    def test_constant_vector_collapses_to_single_cluster(self):
        values = np.full(6, 0.25)
        for policy in (DunnPolicy(), ReferenceDunnPolicy()):
            k, labels = policy.choose_k(values)
            assert k == 1
            assert list(labels) == [0] * 6

    def test_degenerate_candidates_cannot_beat_baseline(self):
        # k-means on a constant vector assigns everything to cluster 0, an
        # effective single cluster; with the explicit rule it scores -1.0
        # (same as k = 1) and the smallest k wins the tie.
        values = np.full(5, 0.7)
        labels, _ = kmeans_1d(values, 2)
        assert len(set(labels.tolist())) == 1  # the degenerate shape
        k, chosen = DunnPolicy().choose_k(values)
        assert k == 1 and list(chosen) == [0] * 5

    def test_two_separated_groups_still_win_over_baseline(self):
        values = np.array([0.05, 0.06, 0.07, 0.85, 0.9, 0.88])
        k, labels = DunnPolicy().choose_k(values)
        assert k == 2
        assert list(labels) == [0, 0, 0, 1, 1, 1]

    def test_constant_vector_allocation_spans_whole_cache(self, platform):
        # Downstream effect of the fix: no ways are wasted on empty clusters.
        apps = ["a", "b", "c"]
        allocation = DunnPolicy().allocation_for_values(
            apps, np.full(3, 0.5), platform
        )
        assert all(
            allocation.ways_of(app) == platform.llc_ways for app in apps
        )


class TestBestStatic:
    def test_best_static_is_at_least_as_fair_as_lfoc(self, platform, catalog):
        names = ["lbm06", "xalancbmk06", "soplex06", "gamess06", "namd06", "sjeng06"]
        profiles = {n: catalog[n] for n in names}
        estimator = ClusteringEstimator(platform, profiles)
        best = estimator.evaluate(BestStaticPolicy().cluster(profiles, platform))
        lfoc = estimator.evaluate(LfocPolicy().cluster(profiles, platform))
        assert best.unfairness <= lfoc.unfairness + 1e-9

    def test_large_workloads_use_local_search(self, platform, mix8):
        policy = BestStaticPolicy(exact_limit=4, local_search_iterations=150)
        solution = policy.cluster(mix8, platform)
        assert solution.covers(mix8)

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ClusteringError):
            BestStaticPolicy(objective="energy")
        with pytest.raises(ClusteringError):
            BestStaticPolicy(exact_limit=0)
