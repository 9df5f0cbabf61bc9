"""Cleartext clustering plane: Lloyd k-means baseline, inertia metrics
(Definition 1), initialization strategies, and the DTW extension.
"""

from .distance import assign_to_closest, pairwise_sq_euclidean, squared_euclidean
from .dtw import (
    dtw_assign,
    dtw_assign_reference,
    dtw_distance,
    dtw_pairwise,
    dtw_path,
    lb_keogh,
)
from .inertia import dataset_inertia, inter_inertia, intra_inertia
from .init import kmeanspp_init, sample_init, uniform_init
from .kmeans import KMeansTrace, compute_means, lloyd_kmeans

__all__ = [
    "KMeansTrace",
    "assign_to_closest",
    "compute_means",
    "dataset_inertia",
    "dtw_assign",
    "dtw_assign_reference",
    "dtw_distance",
    "dtw_pairwise",
    "dtw_path",
    "inter_inertia",
    "intra_inertia",
    "kmeanspp_init",
    "lb_keogh",
    "lloyd_kmeans",
    "pairwise_sq_euclidean",
    "sample_init",
    "squared_euclidean",
    "uniform_init",
]
