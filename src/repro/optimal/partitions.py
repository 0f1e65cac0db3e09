"""Enumeration of cache clusterings and way distributions (Section 2.2).

The optimal-solution analysis needs to walk the space of

* **set partitions** of the workload into at most ``min(n, k)`` clusters, and
* **way compositions**: ways to split the ``k`` LLC ways among ``m`` clusters
  with every cluster getting at least one way,

and the paper quotes the resulting search-space sizes (120 partitionings for
8 apps / 11 ways; ~9M clusterings for 8 apps on 20 ways; >5500M for 11 apps).
This module provides generators for both spaces plus closed-form counting
functions used to verify those figures.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb
from typing import Iterator, List, Sequence, Tuple

from repro.errors import SolverError

__all__ = [
    "way_compositions",
    "count_way_compositions",
    "set_partitions",
    "count_set_partitions",
    "stirling2",
    "bell_number",
    "count_clustering_solutions",
    "count_partitioning_solutions",
]


def way_compositions(total_ways: int, n_parts: int) -> Iterator[Tuple[int, ...]]:
    """Yield all ways of splitting ``total_ways`` among ``n_parts`` clusters.

    Every part receives at least one way; parts are ordered (the first value
    belongs to the first cluster).
    """
    if n_parts < 1:
        raise SolverError("n_parts must be >= 1")
    if total_ways < n_parts:
        raise SolverError(
            f"cannot give {n_parts} clusters at least one way out of {total_ways}"
        )

    def recurse(remaining: int, parts_left: int, prefix: Tuple[int, ...]) -> Iterator[Tuple[int, ...]]:
        if parts_left == 1:
            yield prefix + (remaining,)
            return
        # Leave at least one way for each remaining part.
        for first in range(1, remaining - parts_left + 2):
            yield from recurse(remaining - first, parts_left - 1, prefix + (first,))

    return recurse(total_ways, n_parts, ())


def count_way_compositions(total_ways: int, n_parts: int) -> int:
    """Number of compositions of ``total_ways`` into ``n_parts`` positive parts."""
    if n_parts < 1 or total_ways < n_parts:
        return 0
    return comb(total_ways - 1, n_parts - 1)


def set_partitions(
    items: Sequence[str], max_parts: int
) -> Iterator[List[List[str]]]:
    """Yield every partition of ``items`` into at most ``max_parts`` groups.

    Partitions are generated via restricted-growth strings, so each distinct
    grouping appears exactly once (group order is canonical: groups are listed
    by their smallest member's position).  The generator is iterative — the
    lexicographic successor of each growth string is computed in place — so
    enumeration never touches Python's recursion limit even for large
    workloads, and the yield order matches the classic recursive formulation.
    """
    items = list(items)
    n = len(items)
    if n == 0:
        raise SolverError("cannot partition an empty application set")
    if max_parts < 1:
        raise SolverError("max_parts must be >= 1")

    def generate() -> Iterator[List[List[str]]]:
        # codes[i] is the group index of items[i]; prefix_max[i] the largest
        # code among codes[0..i].  Valid strings satisfy
        # codes[i] <= min(prefix_max[i-1] + 1, max_parts - 1).
        codes = [0] * n
        prefix_max = [0] * n
        cap = max_parts - 1
        while True:
            groups: List[List[str]] = [[] for _ in range(prefix_max[n - 1] + 1)]
            for index, code in enumerate(codes):
                groups[code].append(items[index])
            yield groups
            # Advance to the lexicographic successor.
            pivot = n - 1
            while pivot > 0 and codes[pivot] >= min(prefix_max[pivot - 1] + 1, cap):
                pivot -= 1
            if pivot == 0:
                return
            codes[pivot] += 1
            prefix_max[pivot] = max(prefix_max[pivot - 1], codes[pivot])
            for index in range(pivot + 1, n):
                codes[index] = 0
                prefix_max[index] = prefix_max[pivot]

    return generate()


@lru_cache(maxsize=4096)
def stirling2(n: int, m: int) -> int:
    """Stirling number of the second kind: partitions of ``n`` items into ``m`` groups.

    Computed iteratively (row by row of the recurrence
    ``S(n, m) = m*S(n-1, m) + S(n-1, m-1)``) so large arguments cannot blow
    the recursion limit.
    """
    if n < 0 or m < 0:
        raise SolverError("stirling2 arguments must be non-negative")
    if n == 0 and m == 0:
        return 1
    if n == 0 or m == 0 or m > n:
        return 0
    # row holds S(i, 0..m) for the current i.
    row = [1] + [0] * m
    for i in range(1, n + 1):
        for j in range(min(i, m), 0, -1):
            row[j] = j * row[j] + row[j - 1]
        row[0] = 0
    return row[m]


def count_set_partitions(n_items: int, max_parts: int) -> int:
    """Number of partitions of ``n_items`` into at most ``max_parts`` groups."""
    return sum(stirling2(n_items, m) for m in range(1, min(n_items, max_parts) + 1))


def bell_number(n_items: int) -> int:
    """Bell number: partitions of ``n_items`` into any number of groups."""
    return count_set_partitions(n_items, n_items)


def count_clustering_solutions(n_apps: int, n_ways: int) -> int:
    """Size of the cache-clustering search space of Section 2.2.

    For every partition of the applications into ``m <= min(n, k)`` clusters
    there are ``C(k - 1, m - 1)`` ways to distribute the ways, so the total is
    ``sum_m S(n, m) * C(k - 1, m - 1)`` — the quantity the paper evaluates at
    ~9M for (8 apps, 20 ways) and >5500M for (11 apps, 20 ways).
    """
    if n_apps < 1 or n_ways < 1:
        raise SolverError("n_apps and n_ways must be >= 1")
    total = 0
    for m in range(1, min(n_apps, n_ways) + 1):
        total += stirling2(n_apps, m) * count_way_compositions(n_ways, m)
    return total


def count_partitioning_solutions(n_apps: int, n_ways: int) -> int:
    """Size of the strict cache-partitioning search space (one partition per app).

    This is the number of way compositions of ``k`` into ``n`` positive parts —
    the 120 solutions the paper quotes for 8 applications on an 11-way LLC.
    """
    return count_way_compositions(n_ways, n_apps)
