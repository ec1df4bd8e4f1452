"""Effective diameter of the social layer and the attribute layer.

The social effective diameter follows Section 3.3: the (interpolated) 90th
percentile of directed pairwise distances, approximated with HyperANF.  The
attribute diameter (Section 4.1) applies the same percentile to attribute
distances — one plus the minimum social distance between members of two
attribute nodes, one multi-source BFS per pair — estimated by sampling
attribute-node pairs.

Every function accepts either SAN backend: the underlying HyperANF iteration
and BFS sweeps dispatch through the :mod:`repro.engine` registry, so a frozen
input runs the register-matrix / frontier-array kernels on its social CSR.
Above the engine's parallel size threshold the ``neighbourhood_function``
dispatch additionally selects the process-pool HyperANF kernel (register
merges chunked over shared-memory row spans; see
:mod:`repro.engine.parallel`), which is bit-identical to the single-core
register-matrix kernel — diameter numbers never depend on the tier.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..algorithms.hyperanf import effective_diameter as _hyperanf_diameter
from ..algorithms.traversal import (
    effective_diameter_from_histogram,
    sample_attribute_distance_distribution,
    sample_distance_distribution,
)
from ..graph.protocol import SANView
from ..utils.rng import RngLike


def social_effective_diameter(
    san: SANView,
    method: str = "hyperanf",
    precision: int = 7,
    quantile: float = 0.9,
    num_sources: int = 200,
    rng: RngLike = None,
) -> float:
    """Effective diameter of the directed social layer.

    ``method="hyperanf"`` uses the HyperANF approximation (the paper's choice);
    ``method="sampled"`` estimates the pairwise-distance histogram by BFS from
    a random sample of sources, which is exact in expectation but slower per
    source.
    """
    if method == "hyperanf":
        return _hyperanf_diameter(san.social, precision=precision, quantile=quantile)
    if method == "sampled":
        histogram = sample_distance_distribution(
            san.social, num_sources=num_sources, rng=rng
        )
        return effective_diameter_from_histogram(histogram, quantile=quantile)
    raise ValueError(f"unknown diameter method {method!r}")


def attribute_effective_diameter(
    san: SANView,
    num_pairs: int = 100,
    quantile: float = 0.9,
    rng: RngLike = None,
    max_depth: Optional[int] = None,
) -> float:
    """Effective diameter over attribute distances (Figure 4c, 'attribute' curve)."""
    histogram = sample_attribute_distance_distribution(
        san, num_pairs=num_pairs, rng=rng, max_depth=max_depth
    )
    return effective_diameter_from_histogram(histogram, quantile=quantile)


def distance_distribution(
    san: SANView, num_sources: int = 200, rng: RngLike = None
) -> Dict[int, int]:
    """Sampled histogram of directed social distances (Section 3.3 text).

    The paper reports a dominant mode at distance six with 90% of pairs at
    distance 5-7.
    """
    return sample_distance_distribution(san.social, num_sources=num_sources, rng=rng)


def distance_mode(histogram: Dict[int, int]) -> Optional[int]:
    """The most frequent distance in a distance histogram."""
    if not histogram:
        return None
    return max(histogram, key=lambda distance: histogram[distance])
