"""Clustering algorithms — SL step 3 and the SDSL variant.

* :mod:`repro.clustering.kmeans` — the K-means algorithm with pluggable
  initialization (paper Section 3.3);
* :mod:`repro.clustering.init` — center initializers: uniform random
  (SL), server-distance-biased (SDSL, ``Pr ∝ 1/d^θ``), and k-means++
  (extension);
* :mod:`repro.clustering.kmedoids` — a k-medoids baseline (extension);
* :mod:`repro.clustering.hierarchical` — agglomerative clustering
  (extension).

Grouping quality is the paper's average group interaction cost, in
:mod:`repro.analysis.gicost`.
"""

from repro.clustering.assignments import Clustering
from repro.clustering.init import (
    CenterInitializer,
    KMeansPlusPlusInit,
    ServerDistanceBiasedInit,
    UniformRandomInit,
)
from repro.clustering.hierarchical import HierarchicalClustering
from repro.clustering.kmeans import KMeans
from repro.clustering.kmedoids import KMedoids

__all__ = [
    "Clustering",
    "CenterInitializer",
    "UniformRandomInit",
    "ServerDistanceBiasedInit",
    "KMeansPlusPlusInit",
    "KMeans",
    "KMedoids",
    "HierarchicalClustering",
]
