"""Optimal cache-clustering / cache-partitioning solvers (the PBBCache role).

Solver performance
------------------

The exact solvers (:func:`optimal_clustering`, :func:`optimal_partitioning`
and :func:`branch_and_bound_clustering`) score candidates over the dense
tables of :class:`TabulatedObjective`: the occupancy model is solved once
per (cluster mask, ways) pair, after which
whole blocks of ``(partition, way composition)`` candidates are scored with
array arithmetic.  The table build costs ``O(2^n * k)`` occupancy solves up
front, so it caps the exact solvers at ``tabulated.MAX_TABULATED_APPS``
applications; :func:`local_search_clustering` covers larger workloads.
Searches over the same workload share one build through ``tables=``.

The winner is re-scored through :class:`CachedObjective`, the per-candidate
scorer the local search uses, so every reported score is bit-identical to a
per-candidate search.  ``tests/test_optimal_tabulated.py`` asserts this
against the per-candidate search loops kept in ``tests/oracles.py``.
"""

from repro.optimal.partitions import (
    bell_number,
    count_clustering_solutions,
    count_partitioning_solutions,
    count_set_partitions,
    count_way_compositions,
    set_partitions,
    stirling2,
    way_compositions,
)
from repro.optimal.objective import CachedObjective, CandidateScore, ClusterPieces
from repro.optimal.exhaustive import OptimalResult, optimal_clustering, optimal_partitioning
from repro.optimal.bnb import branch_and_bound_clustering
from repro.optimal.local_search import local_search_clustering
from repro.optimal.tabulated import TabulatedObjective

__all__ = [
    "bell_number",
    "count_clustering_solutions",
    "count_partitioning_solutions",
    "count_set_partitions",
    "count_way_compositions",
    "set_partitions",
    "stirling2",
    "way_compositions",
    "CachedObjective",
    "CandidateScore",
    "ClusterPieces",
    "OptimalResult",
    "optimal_clustering",
    "optimal_partitioning",
    "branch_and_bound_clustering",
    "local_search_clustering",
    "TabulatedObjective",
]
