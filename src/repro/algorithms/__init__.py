"""Graph algorithms: traversal, components, HyperANF, clustering, sampling, walks."""

from .approx_clustering import (
    approximate_average_clustering,
    approximate_social_clustering,
    required_samples,
)
from .clustering import (
    average_attribute_clustering_coefficient,
    average_social_clustering_coefficient,
    clustering_by_degree,
)
from .components import weakly_connected_components
from .hyperanf import (
    effective_diameter,
    effective_diameter_from_neighbourhood,
    exact_neighbourhood_function,
    neighbourhood_function,
)
from .hyperloglog import (
    cardinality_of_register_matrix,
    register_matrix_for_items,
    register_parameters,
)
from .random_walk import capped_undirected_csr
from .sampling import subsample_attributes
from .traversal import (
    attribute_distance,
    bfs_distances,
    effective_diameter_from_histogram,
    sample_attribute_distance_distribution,
    sample_distance_distribution,
)
from .triangles import (
    ClosureBreakdown,
    classify_closures,
    count_directed_triangles,
    is_focal_closure,
    is_triadic_closure,
    two_hop_social_neighbors,
)

__all__ = [
    "approximate_average_clustering",
    "approximate_social_clustering",
    "required_samples",
    "average_attribute_clustering_coefficient",
    "average_social_clustering_coefficient",
    "clustering_by_degree",
    "weakly_connected_components",
    "effective_diameter",
    "effective_diameter_from_neighbourhood",
    "exact_neighbourhood_function",
    "neighbourhood_function",
    "capped_undirected_csr",
    "cardinality_of_register_matrix",
    "register_matrix_for_items",
    "register_parameters",
    "subsample_attributes",
    "attribute_distance",
    "bfs_distances",
    "effective_diameter_from_histogram",
    "sample_attribute_distance_distribution",
    "sample_distance_distribution",
    "ClosureBreakdown",
    "classify_closures",
    "count_directed_triangles",
    "is_focal_closure",
    "is_triadic_closure",
    "two_hop_social_neighbors",
]
