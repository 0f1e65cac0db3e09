"""Cache-allocation policies: LFOC, the paper's baselines and helpers."""

from repro.policies.base import ClusteringPolicy
from repro.policies.stock import StockLinuxPolicy
from repro.policies.lfoc import LfocKernelPolicy, LfocPolicy
from repro.policies.ucp import UcpPolicy
from repro.policies.dunn import DunnPolicy, kmeans_1d, silhouette_1d
from repro.policies.kpart import KPartPolicy, build_dendrogram, evaluate_level
from repro.policies.best_static import BestStaticPolicy

__all__ = [
    "ClusteringPolicy",
    "StockLinuxPolicy",
    "LfocPolicy",
    "LfocKernelPolicy",
    "UcpPolicy",
    "DunnPolicy",
    "kmeans_1d",
    "silhouette_1d",
    "KPartPolicy",
    "build_dendrogram",
    "evaluate_level",
    "BestStaticPolicy",
]
