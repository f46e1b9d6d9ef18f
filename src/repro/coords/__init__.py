"""Network coordinate embeddings.

* :mod:`repro.coords.gnp` — Global Network Positioning-style
  least-squares Euclidean embedding (the paper's Section 5.2 baseline);
* :mod:`repro.coords.vivaldi` — Vivaldi spring-relaxation coordinates
  (extension; cited by the paper as related work).
"""

from repro.coords.gnp import GNPEmbedding, embed_gnp
from repro.coords.vivaldi import VivaldiCoordinates

__all__ = [
    "GNPEmbedding",
    "embed_gnp",
    "VivaldiCoordinates",
]
