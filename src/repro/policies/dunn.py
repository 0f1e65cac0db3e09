"""Dunn: fairness-oriented clustering on ``STALLS_L2_MISS`` (Selfa et al., PACT'17).

Dunn groups applications with the k-means algorithm using a single metric —
the fraction of core stall cycles caused by L2 (i.e. LLC-bound) misses — and
gives more cache ways to the clusters with higher stall fractions.  Two
properties matter for reproducing the paper's comparison:

* the cache partitions Dunn creates may *overlap*: clusters are laid out
  consecutively (in increasing stall order) with sizes proportional to their
  stall fraction, and every cluster's mask spills one way into its
  higher-stall neighbour's region (Section 2.3.2 notes that Dunn "does not
  strictly constitute a pure cache-clustering approach, since the cache
  partitions it creates may overlap with each other", which "can create
  unpredictable interactions between applications that belong to different
  clusters");
* relying on the stall fraction alone cannot distinguish a streaming aggressor
  (high stalls because it always misses) from a highly cache-sensitive program
  (high stalls because it is being squeezed), so both end up in the same big
  partitions — the root cause of Dunn's non-uniform behaviour in Fig. 6.

The k-means step is one-dimensional; the number of clusters is chosen by the
best silhouette score over a small range, as in the original user-level
implementation, and the whole procedure is deterministic for a given workload.

:meth:`DunnPolicy.choose_k` scores candidate clusterings with
:func:`silhouette_1d`: per-cluster sorted prefix sums, O(n log n + n·k)
instead of the original O(n²·k) per-point loop.  It is mathematically exact
(every per-point sum is the true sum of absolute differences up to float
rounding), but the summation *order* differs from the original loop, so
scores agree with it to ~1e-12 rather than bit for bit.  The original loop
and the original ``np.quantile``-seeded k-means are kept as test oracles in
``tests/oracles.py``.

Because near-ties between silhouette scores of different k could in principle
resolve differently across the two implementations, the k-selection sweep
applies an *explicit* tie-breaking rule that does not depend on which
implementation produced the scores (see :meth:`DunnPolicy.choose_k`), and the
differential-oracle tests pin the decisions against the oracle copies on
randomized workloads.  The exact guarantee: decisions are identical whenever
the candidate scores are either *exactly* tied (duplicate-heavy and
degenerate inputs hit code paths whose floats agree bit for bit in both
implementations) or separated by more than the ~1e-12 rounding discrepancy —
an adversarial input whose true scores differ by less could in principle
flip the selected k, which the differential tests and the driver
benchmark's hard result-match gate would surface as a failure rather than
mask.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

from repro.apps.profile import AppProfile
from repro.core.caching import LruDict
from repro.core.types import WayAllocation
from repro.errors import ClusteringError
from repro.hardware.cat import mask_from_range
from repro.hardware.platform import PlatformSpec
from repro.policies.base import ClusteringPolicy

__all__ = ["DunnPolicy", "kmeans_1d", "silhouette_1d"]

#: Bound on a policy instance's memoized ``choose_k`` decisions (LRU).  Sized
#: for long dynamic runs (one entry per distinct monitor-window fingerprint);
#: evicted entries are simply recomputed, so results are unaffected.
_DECISION_CACHE_ENTRIES = 4096


#: Interpolation grids of :func:`_seed_centroids`, keyed by ``(n, k)``: the
#: quantile positions depend only on the sizes, not the data, and computing
#: them (``np.linspace`` included) dominated the per-call seeding cost.
_SEED_GRIDS: Dict[Tuple[int, int], tuple] = {}


def _seed_centroids(sorted_data: np.ndarray, k: int) -> np.ndarray:
    """Evenly spaced quantiles of already-sorted data.

    Bit-identical to ``np.quantile(data, np.linspace(0, 1, k + 2)[1:-1])``
    with the default linear interpolation (the equivalence is pinned by the
    test suite), but skips the generic ``np.quantile`` machinery, which
    dominated the k-means seeding cost at driver-sized inputs.  Replicates
    NumPy's ``_lerp`` arithmetic term for term, including the ``gamma >= 0.5``
    rewrite that keeps the interpolation precise near the upper neighbour.
    """
    n = sorted_data.size
    grid = _SEED_GRIDS.get((n, k))
    if grid is None:
        quantiles = np.linspace(0.0, 1.0, k + 2)[1:-1]
        position = quantiles * (n - 1)
        lower = np.floor(position).astype(np.intp)
        upper = np.minimum(lower + 1, n - 1)
        gamma = position - lower
        high = gamma >= 0.5
        grid = (lower, upper, gamma, 1.0 - gamma, bool(np.any(high)), high)
        _SEED_GRIDS[(n, k)] = grid
    lower, upper, gamma, gamma_rest, any_high, high = grid
    a = sorted_data[lower]
    b = sorted_data[upper]
    diff = b - a
    seeds = a + gamma * diff
    if any_high:
        seeds[high] = b[high] - diff[high] * gamma_rest[high]
    return seeds


def _exact_mean(members: List[float]) -> float:
    """``np.mean`` of a member list, replicated in scalar Python.

    NumPy reduces fewer than eight elements strictly left to right from a
    zero-initialised accumulator — exactly the loop below; from eight
    elements it switches to its pairwise scheme, where the real reduction is
    invoked on the same values in the same order.  Pinned bit-for-bit by the
    test suite.
    """
    size = len(members)
    if size < 8:
        total = 0.0
        for value in members:
            total += value
        return total / size
    return float(np.mean(np.asarray(members)))


def kmeans_1d(
    values: Sequence[float], k: int, *, iterations: int = 50, seed: int = 0
) -> Tuple[np.ndarray, np.ndarray]:
    """Plain 1-D k-means.

    Returns ``(labels, centroids)`` with centroids sorted ascending and labels
    referring to the sorted centroids.  Deterministic: centroids are seeded
    with evenly spaced quantiles of the data.
    """
    data = np.asarray(values, dtype=float)
    if data.ndim != 1 or data.size == 0:
        raise ClusteringError("k-means needs a non-empty 1-D value array")
    if not (1 <= k <= data.size):
        raise ClusteringError(f"k must lie in [1, {data.size}], got {k}")
    n = data.size
    seeds = _seed_centroids(np.sort(data), k)
    # Nudge identical seeds apart so that clusters do not collapse immediately.
    seeds = seeds + np.arange(k) * 1e-9
    # Hybrid iteration, bit-identical to the original all-NumPy loop (kept
    # as an oracle in tests/oracles.py and pinned by the test suite): the
    # assignment keeps NumPy's exact ``argmin`` over the same distance
    # matrix, while the cluster means and the convergence test run as
    # scalar Python replicas of the original loop's array expressions — at
    # driver-sized inputs (a dozen applications, a handful of clusters)
    # each small-array ufunc call costs more in dispatch than in work.
    centroids: List[float] = seeds.tolist()
    data_list: List[float] = data.tolist()
    labels_list: List[int] = [0] * n
    data2d = data[:, None]
    centroid_row = seeds[None, :].copy()
    distances = np.empty((n, k))
    for _ in range(iterations):
        np.subtract(data2d, centroid_row, out=distances)
        np.abs(distances, out=distances)
        new_list: List[int] = np.argmin(distances, axis=1).tolist()
        new_centroids = list(centroids)
        buckets: List[List[float]] = [[] for _ in range(k)]
        for label, value in zip(new_list, data_list):
            buckets[label].append(value)
        for cluster, members in enumerate(buckets):
            if members:
                new_centroids[cluster] = _exact_mean(members)
        if new_list == labels_list:
            # Scalar replica of np.allclose(new_centroids, centroids):
            # |a - b| <= atol + rtol * |b| element-wise.
            for a, b in zip(new_centroids, centroids):
                if abs(a - b) > 1e-8 + 1e-5 * abs(b):
                    break
            else:
                break
        labels_list = new_list
        centroids = new_centroids
        centroid_row[0] = new_centroids
    final = np.asarray(centroids)
    order = np.argsort(final)
    remap = np.empty_like(order)
    remap[order] = np.arange(k)
    return remap[np.asarray(labels_list, dtype=int)], final[order]


#: Below this many points the silhouette goes through the dense
#: distance-matrix kernel (one subtract/abs + one matmul) instead of the
#: per-cluster prefix sums: at driver-sized inputs the O(n²) arithmetic is
#: negligible and the per-call cost is dominated by how *few* NumPy ops run.
_SILHOUETTE_DENSE_CUTOFF = 32


def _silhouette_scores(
    values: np.ndarray,
    labels: np.ndarray,
    dist_sum: np.ndarray,
    counts: np.ndarray,
) -> float:
    """Mean silhouette from per-(cluster, point) distance sums.

    ``dist_sum[c, i]`` is the sum of absolute differences from point ``i``
    to every member of cluster ``c`` and ``counts`` the cluster sizes; the
    per-point conventions replicate the original per-point loop (singleton clusters score 0.0, no finite inter-cluster distance scores
    0.0).
    """
    n = values.size
    points = np.arange(n)
    own_counts = counts[labels]
    sum_own = dist_sum[labels, points]
    # Guarded arithmetic throughout (no divisions by zero, no inf - inf), so
    # no errstate context is needed on this per-interval hot path.
    mean_dist = dist_sum / np.maximum(counts, 1.0)[:, None]
    # b: smallest mean distance to any *other* non-empty cluster.
    mean_dist[counts == 0.0] = np.inf
    mean_dist[labels, points] = np.inf
    b = mean_dist.min(axis=0)
    finite_b = np.isfinite(b)
    b = np.where(finite_b, b, 0.0)
    a = sum_own / np.maximum(own_counts - 1.0, 1.0)
    denom = np.maximum(a, b)
    zero_denom = denom == 0.0
    scores = (b - a) / np.where(zero_denom, 1.0, denom)
    scores = np.where(zero_denom, 0.0, scores)
    scores = np.where(own_counts <= 1.0, 0.0, scores)
    scores = np.where(finite_b, scores, 0.0)
    return float(np.mean(scores))


def silhouette_1d(values: np.ndarray, labels: np.ndarray, k: int) -> float:
    """Vectorized mean silhouette coefficient for a 1-D clustering.

    Exact reformulation of the original per-point silhouette loop with two
    regimes:

    * up to :data:`_SILHOUETTE_DENSE_CUTOFF` points, the dense kernel builds
      the full |x_i - x_j| matrix once and folds it per cluster with a
      single matrix product — a handful of NumPy calls regardless of k;
    * beyond that, the O(n log n + n·k) path sorts each cluster's members
      once and reads every point's distance sum off prefix sums
      (``sum |x_j - v| = v·p - P[p] + (P[m] - P[p]) - v·(m - p)`` with ``p``
      the insertion rank of ``v``).

    Scores agree with the original loop to float-rounding accuracy (the
    summation order differs); the per-point conventions (singleton clusters
    score 0.0, a point with no finite inter-cluster distance scores 0.0, and
    ``k < 2`` scores -1.0) are identical.
    """
    if k < 2:
        return -1.0
    values = np.asarray(values, dtype=float)
    n = values.size
    labels = np.asarray(labels)
    counts = np.bincount(labels, minlength=k).astype(float)
    if n <= _SILHOUETTE_DENSE_CUTOFF:
        onehot = np.zeros((n, k))
        onehot[np.arange(n), labels] = 1.0
        dist_sum = (np.abs(values[:, None] - values[None, :]) @ onehot).T
        return _silhouette_scores(values, labels, dist_sum, counts)
    dist_sum = np.zeros((k, n))
    for cluster in range(k):
        m = int(counts[cluster])
        if m == 0:
            continue
        members = np.sort(values[labels == cluster])
        prefix = np.empty(m + 1)
        prefix[0] = 0.0
        np.cumsum(members, out=prefix[1:])
        rank = np.searchsorted(members, values)
        below = values * rank - prefix[rank]
        above = (prefix[m] - prefix[rank]) - values * (m - rank)
        dist_sum[cluster] = below + above
    return _silhouette_scores(values, labels, dist_sum, counts)


class DunnPolicy(ClusteringPolicy):
    """K-means clustering on stall fractions with proportional, overlapping masks."""

    name = "Dunn"

    def __init__(
        self,
        max_clusters: int = 4,
        min_clusters: int = 2,
        overlap_ways: int = 1,
    ) -> None:
        """
        Parameters
        ----------
        max_clusters, min_clusters:
            Range of k explored by the 1-D k-means (best silhouette wins).
        overlap_ways:
            How far each cluster's mask spills into its higher-stall
            neighbour's region (0 makes the partitions disjoint).

        ``choose_k`` decisions are memoized per value-fingerprint of the
        input.
        """
        if min_clusters < 1 or max_clusters < min_clusters:
            raise ClusteringError(
                f"invalid cluster range [{min_clusters}, {max_clusters}]"
            )
        if overlap_ways < 0:
            raise ClusteringError("overlap_ways must be >= 0")
        self.max_clusters = max_clusters
        self.min_clusters = min_clusters
        self.overlap_ways = overlap_ways
        #: choose_k decisions keyed by the raw bytes of the value array
        #: (the monitor-window fingerprint), LRU-bounded.
        self._decisions = LruDict(_DECISION_CACHE_ENTRIES)
        self.decision_cache_hits = 0
        self.decisions_computed = 0

    # -- pieces ------------------------------------------------------------------

    def stall_metric(
        self, profiles: Mapping[str, AppProfile], platform: PlatformSpec
    ) -> Dict[str, float]:
        """The ``STALLS_L2_MISS`` fraction Dunn clusters on.

        In the static study each application is observed while sharing the
        cache with the rest of the workload, so the metric is evaluated at the
        application's fair share of the LLC.
        """
        share = max(platform.llc_ways / max(len(profiles), 1), 1.0)
        return {
            name: profile.resampled(platform.llc_ways).stall_fraction_at(share, platform)
            for name, profile in profiles.items()
        }

    def choose_k(self, values: np.ndarray) -> Tuple[int, np.ndarray]:
        """Pick the cluster count (and labels) for a 1-D stall-metric array.

        Runs the 1-D k-means for every k in the policy's configured range and
        keeps the clustering with the best silhouette score, as the original
        user-level Dunn daemon does.  Returns ``(k, labels)`` with labels
        referring to centroids sorted ascending.  This is public API: the
        runtime :class:`~repro.runtime.scheduler.DunnUserLevelDaemon` re-uses
        it on *measured* stall fractions every partitioning interval.  The
        returned labels array may be cached — treat it as read-only.

        Tie-breaking is explicit and implementation-independent:

        * the sweep starts from the single-cluster baseline ``k = 1`` at a
          fixed score of -1.0 (the value both silhouette implementations
          assign to ``k < 2``);
        * a *degenerate* candidate — fewer than two non-empty clusters, which
          the k-means produces on duplicate-heavy data — scores the same
          fixed -1.0 instead of being handed to the silhouette (whose
          per-point conventions would give such a clustering 0.0 and let it
          beat the baseline it is indistinguishable from);
        * candidates are swept in increasing k and must *strictly* beat the
          incumbent, so exact ties resolve toward the smallest k.
        """
        values = np.asarray(values, dtype=float)
        n = values.size
        if n == 1:
            return 1, np.zeros(1, dtype=int)
        key = values.tobytes()
        decision = self._decisions.get(key)
        if decision is not None:
            self.decision_cache_hits += 1
            return decision
        best_k, best_labels, best_score = 1, np.zeros(n, dtype=int), -1.0
        upper = min(self.max_clusters, n)
        for k in range(min(self.min_clusters, upper), upper + 1):
            labels, _ = kmeans_1d(values, k)
            if len(set(labels.tolist())) < 2:
                score = -1.0
            else:
                score = silhouette_1d(values, labels, k)
            if score > best_score:
                best_k, best_labels, best_score = k, labels, score
        self.decisions_computed += 1
        self._decisions.put(key, (best_k, best_labels))
        return best_k, best_labels

    # -- decision -----------------------------------------------------------------

    def allocation_for_values(
        self, apps: Sequence[str], values: np.ndarray, platform: PlatformSpec
    ) -> WayAllocation:
        """Cluster a per-application stall-metric vector into way masks.

        The full Dunn mask construction — k selection, proportional way
        counts, consecutive layout with overlap — shared between the static
        :meth:`decide` path (offline stall metrics) and the runtime
        :class:`~repro.runtime.scheduler.DunnUserLevelDaemon` (measured stall
        fractions).
        """
        k, labels = self.choose_k(values)

        # Ways per cluster: proportional to the cluster's mean stall fraction
        # (more stalls -> more ways), with at least one way each.  The means
        # replicate ``values[labels == c].mean()`` bit for bit (see
        # :func:`_exact_mean`); empty clusters weigh 0.0 as before.
        buckets: List[List[float]] = [[] for _ in range(k)]
        for label, value in zip(labels.tolist(), values.tolist()):
            buckets[label].append(value)
        centroids = np.array(
            [_exact_mean(members) if members else 0.0 for members in buckets]
        )
        weights = centroids + 1e-6
        raw = weights / weights.sum() * platform.llc_ways
        ways = np.maximum(np.floor(raw).astype(int), 1)
        # Distribute the leftover ways to the highest-stall clusters first.
        while ways.sum() > platform.llc_ways:
            ways[int(np.argmax(ways))] -= 1
        leftovers = platform.llc_ways - int(ways.sum())
        order = np.argsort(-centroids)
        for i in range(leftovers):
            ways[order[i % k]] += 1

        # Lay the clusters out consecutively in increasing stall order, each
        # with its proportional way count, and let every cluster's mask spill
        # `overlap_ways` ways into the next (higher-stall) region.
        sorted_clusters = list(np.argsort(centroids))
        starts: Dict[int, int] = {}
        spans: Dict[int, int] = {}
        cursor = 0
        for rank, cluster in enumerate(sorted_clusters):
            width = int(ways[cluster])
            overlap = self.overlap_ways if rank < len(sorted_clusters) - 1 else 0
            overlap = min(overlap, platform.llc_ways - (cursor + width))
            starts[cluster] = cursor
            spans[cluster] = width + max(overlap, 0)
            cursor += width
        masks: Dict[str, int] = {}
        for app_index, app in enumerate(apps):
            cluster = int(labels[app_index])
            masks[app] = mask_from_range(starts[cluster], spans[cluster])
        return WayAllocation(masks=masks, total_ways=platform.llc_ways)

    def decide(
        self, profiles: Mapping[str, AppProfile], platform: PlatformSpec
    ) -> WayAllocation:
        self._check_workload(profiles, platform)
        apps = list(profiles)
        stalls = self.stall_metric(profiles, platform)
        values = np.array([stalls[a] for a in apps], dtype=float)
        return self.allocation_for_values(apps, values, platform)
