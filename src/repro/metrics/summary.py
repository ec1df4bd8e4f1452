"""Whole-SAN metric reports combining the social and attribute analyses.

Two report depths are provided:

* :func:`san_metric_report` — the headline metrics (sizes, degrees,
  reciprocity, densities, assortativities, sampled clustering, effective
  diameter).  Accepts either SAN backend; freeze a mutable input first to
  measure it on the frozen CSR kernels.
* :func:`frozen_san_report` — the freeze-once pipeline behind
  ``python -m repro report``: freezes the SAN a single time, then runs the
  full metric *and* algorithm battery (everything above plus exact clustering
  coefficients, triangle count, and weak-component structure) on the frozen
  backend, so every kernel shares the same memoized CSR products.
"""

from __future__ import annotations

from typing import Dict, Optional, Union

from ..algorithms.approx_clustering import approximate_average_clustering
from ..algorithms.clustering import (
    average_attribute_clustering_coefficient,
    average_social_clustering_coefficient,
)
from ..algorithms.components import weakly_connected_components
from ..algorithms.triangles import count_directed_triangles
from ..graph.frozen import FrozenSAN
from ..graph.san import SAN
from ..utils.rng import RngLike, ensure_rng
from .degrees import degree_summary
from .density import attribute_declaration_fraction, attribute_density, social_density
from .diameter import social_effective_diameter
from .joint_degree import attribute_assortativity, social_assortativity
from .reciprocity import global_reciprocity

SANLike = Union[SAN, FrozenSAN]


def san_metric_report(
    san: SANLike,
    include_diameter: bool = True,
    clustering_samples: int = 4000,
    diameter_precision: int = 6,
    rng: RngLike = None,
) -> Dict[str, float]:
    """One-call summary of the headline metrics of a SAN.

    Intended for examples, ``repro measure`` and quick sanity checks; the
    per-figure benches use the dedicated metric functions directly.  Accepts
    either backend; every metric dispatches on the input's own backend.
    """
    generator = ensure_rng(rng)
    report: Dict[str, float] = {}
    report.update(san.summary())
    report.update(degree_summary(san))
    report["reciprocity"] = global_reciprocity(san)
    report["social_density"] = social_density(san)
    report["attribute_density"] = attribute_density(san)
    report["attribute_declaration_fraction"] = attribute_declaration_fraction(san)
    report["social_assortativity"] = social_assortativity(san)
    report["attribute_assortativity"] = attribute_assortativity(san)
    report["avg_social_clustering"] = approximate_average_clustering(
        san,
        population=list(san.social_nodes()),
        num_samples=clustering_samples,
        rng=generator,
    )
    report["avg_attribute_clustering"] = approximate_average_clustering(
        san,
        population=list(san.attribute_nodes()),
        num_samples=clustering_samples,
        rng=generator,
    )
    if include_diameter:
        report["social_effective_diameter"] = social_effective_diameter(
            san, precision=diameter_precision
        )
    return report


def frozen_san_report(
    san: SANLike,
    include_diameter: bool = True,
    clustering_samples: int = 4000,
    diameter_precision: int = 6,
    rng: RngLike = None,
) -> Dict[str, float]:
    """The freeze-once full battery: headline metrics + algorithm sweeps.

    The SAN is frozen exactly once (``freeze()`` is the identity on an
    already-frozen input); every subsequent metric and algorithm dispatches to
    the frozen kernels and shares the memoized CSR products (undirected
    projection, sparse adjacency matrices), so nothing is rebuilt per metric.

    Beyond :func:`san_metric_report`, the battery adds the exact clustering
    coefficients, the triangle count, and the weak-component structure.
    """
    frozen = san.freeze()
    report = san_metric_report(
        frozen,
        include_diameter=include_diameter,
        clustering_samples=clustering_samples,
        diameter_precision=diameter_precision,
        rng=rng,
    )
    report["exact_social_clustering"] = average_social_clustering_coefficient(frozen)
    report["exact_attribute_clustering"] = average_attribute_clustering_coefficient(
        frozen
    )
    report["triangles"] = count_directed_triangles(frozen)
    components = weakly_connected_components(frozen.social)
    largest = len(components[0]) if components else 0
    num_nodes = frozen.number_of_social_nodes()
    report["wcc_count"] = len(components)
    report["largest_wcc_size"] = largest
    report["wcc_fraction"] = largest / num_nodes if num_nodes else 0.0
    return report


def format_report(report: Dict[str, float], title: Optional[str] = None) -> str:
    """Render a metric report as an aligned text block."""
    lines = []
    if title:
        lines.append(title)
        lines.append("-" * len(title))
    width = max((len(key) for key in report), default=0)
    for key, value in report.items():
        if isinstance(value, float):
            lines.append(f"{key.ljust(width)}  {value:.6g}")
        else:
            lines.append(f"{key.ljust(width)}  {value}")
    return "\n".join(lines)
