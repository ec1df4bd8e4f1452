"""Reciprocity metrics (Sections 3.1 and 4.2 of the paper).

*Global reciprocity* is the fraction of directed social links whose reverse
link also exists.  The *fine-grained reciprocity* ``r_{s,a}`` of Section 4.2
measures, for one-directional links observed at an earlier snapshot, the
probability that the reverse link exists by a later snapshot, stratified by
the number of common social neighbors ``s`` and common attribute neighbors
``a`` of the endpoints at the earlier snapshot.

Both run on the frozen backend (:class:`~repro.graph.frozen.FrozenSAN`; a
mutable SAN is frozen at dispatch).  The global reciprocity needs no
per-edge membership test at all: for every node,
``|succ(v) ∩ pred(v)| = outdeg(v) + indeg(v) - |succ(v) ∪ pred(v)|`` and the
union sizes are exactly the undirected-projection degrees, so the mutual-link
count is one vectorized sum over three degree arrays (self-loops, which count
as mutual, are added back separately).  The fine-grained reciprocity finds
the one-way links with one membership test over sorted edge keys and counts
both kinds of common neighbors with row-wise sparse products, instead of
intersecting two neighbor sets per link.

Examples
--------
>>> from repro.graph import san_from_edge_lists
>>> san = san_from_edge_lists([(1, 2), (2, 1), (1, 3)])
>>> reciprocal_edge_count(san)
(2, 3)
>>> global_reciprocity(san.freeze()) == global_reciprocity(san)
True
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from ..engine import deps, dispatchable, frozen_view
from ..graph.frozen import FrozenSAN, sorted_membership
from ..graph.san import SAN

SANLike = Union[SAN, FrozenSAN]


def global_reciprocity(san: SANLike) -> float:
    """Fraction of directed social links that are mutual."""
    mutual, total = reciprocal_edge_count(san)
    return mutual / total if total else 0.0


@dispatchable("reciprocal_edge_count")
def reciprocal_edge_count(san: FrozenSAN) -> Tuple[int, int]:
    """Return ``(mutual_links, total_links)`` over the directed social layer."""
    total = san.social.number_of_edges()
    if total == 0:
        return 0, 0
    sources, targets = san.social.edge_arrays()
    loops_per_node = np.bincount(
        sources[sources == targets], minlength=san.social.number_of_nodes()
    )
    num_loops = int(loops_per_node.sum())
    # Per node: |succ ∩ pred| = |succ| + |pred| - |succ ∪ pred|, with the
    # union degree read off the undirected CSR (which drops self-loops).
    mutual = int(
        (
            san.social.out_degree_array()
            + san.social.in_degree_array()
            - 2 * loops_per_node
            - san.social.undirected_degree_array()
        ).sum()
    )
    return mutual + num_loops, total


@dataclass
class FineGrainedReciprocity:
    """Reciprocation rates stratified by common social / attribute neighbors.

    ``rates[(s, a_bucket)] = (reciprocated, total)`` where ``s`` is the number
    of common social neighbors and ``a_bucket`` is the common-attribute bucket
    (0, 1, or 2 meaning ">= 2").
    """

    counts: Dict[Tuple[int, int], Tuple[int, int]] = field(default_factory=dict)

    def rate(self, common_social: int, attribute_bucket: int) -> Optional[float]:
        entry = self.counts.get((common_social, attribute_bucket))
        if entry is None or entry[1] == 0:
            return None
        return entry[0] / entry[1]

    def series_for_attribute_bucket(
        self, attribute_bucket: int
    ) -> List[Tuple[int, float]]:
        """``(common_social_neighbors, reciprocity)`` curve for one attribute bucket."""
        points = []
        for (social, bucket), (reciprocated, total) in sorted(self.counts.items()):
            if bucket == attribute_bucket and total > 0:
                points.append((social, reciprocated / total))
        return points

    def average_rate_for_attribute_bucket(self, attribute_bucket: int) -> Optional[float]:
        reciprocated = 0
        total = 0
        for (_, bucket), (r, t) in self.counts.items():
            if bucket == attribute_bucket:
                reciprocated += r
                total += t
        if total == 0:
            return None
        return reciprocated / total


def attribute_bucket(num_common_attributes: int) -> int:
    """Bucket common-attribute counts the way Figure 13a does: 0, 1, >=2."""
    if num_common_attributes <= 0:
        return 0
    if num_common_attributes == 1:
        return 1
    return 2


def _row_overlaps(indptr: np.ndarray, indices: np.ndarray, num_columns: int, first, second):
    """``|row(first[k]) ∩ row(second[k])|`` of a 0/1 CSR, for every ``k``."""
    sparse = deps.scipy_sparse()
    matrix = sparse.csr_matrix(
        (np.ones(indices.size, dtype=np.int64), indices, indptr),
        shape=(indptr.size - 1, num_columns),
    )
    return np.asarray(matrix[first].multiply(matrix[second]).sum(axis=1)).ravel()


@dispatchable("fine_grained_reciprocity")
def fine_grained_reciprocity(
    earlier: FrozenSAN,
    later: SANLike,
    max_common_social: int = 50,
    max_links: Optional[int] = None,
) -> FineGrainedReciprocity:
    """Compute the Section 4.2 fine-grained reciprocity.

    For every one-directional link ``u -> v`` present in ``earlier`` (i.e. the
    reverse link is absent there), determine whether ``v -> u`` exists in
    ``later``, and stratify by the endpoints' common social neighbors and
    common attribute bucket *measured on the earlier snapshot*.  Either
    snapshot may be mutable or frozen.  ``max_links`` keeps only the first
    ``max_links`` one-way links in the frozen ``earlier``'s
    ``social_edges()`` order.
    """
    social = earlier.social
    n = social.number_of_nodes()
    sources, targets = social.edge_arrays()
    # Edge keys come out sorted: edge_arrays() walks the sorted CSR rows.
    one_way = ~sorted_membership(sources * n + targets, targets * n + sources)
    sources, targets = sources[one_way], targets[one_way]
    if max_links is not None:
        keep = max(max_links, 0)  # a negative slice bound would count from the end
        sources, targets = sources[:keep], targets[:keep]
    if sources.size == 0:
        return FineGrainedReciprocity()

    und_indptr, und_indices = social.undirected_csr()
    common_social = np.minimum(
        _row_overlaps(und_indptr, und_indices, n, sources, targets), max_common_social
    )
    sa_indptr, sa_indices = earlier.attributes.social_to_attr_csr()
    buckets = np.minimum(
        _row_overlaps(
            sa_indptr,
            sa_indices,
            earlier.attributes.number_of_attribute_nodes(),
            sources,
            targets,
        ),
        2,
    )

    # Reverse link in ``later``: map the endpoints onto later's ids (-1 when
    # the user is gone) and look the key up among later's sorted edge keys.
    later = frozen_view(later)
    later_social = later.social
    m = later_social.number_of_nodes()
    later_ids = np.fromiter(
        (
            later_social.index_of(label) if later_social.has_node(label) else -1
            for label in social.labels()
        ),
        dtype=np.int64,
        count=n,
    )
    later_sources, later_targets = later_social.edge_arrays()
    back_source, back_target = later_ids[targets], later_ids[sources]
    present = (back_source >= 0) & (back_target >= 0)
    reciprocated = present & sorted_membership(
        later_sources * m + later_targets, back_source * m + back_target
    )

    # Tally per (s, bucket) cell, cells in order of first appearance like
    # the per-link loop.  ``s * 3 + bucket`` is one-to-one since bucket < 3.
    cells, first, inverse = np.unique(
        common_social * 3 + buckets, return_index=True, return_inverse=True
    )
    totals = np.bincount(inverse, minlength=cells.size)
    hits = np.bincount(inverse[reciprocated], minlength=cells.size)
    result = FineGrainedReciprocity()
    for position in np.argsort(first, kind="stable").tolist():
        cell = int(cells[position])
        result.counts[(cell // 3, cell % 3)] = (int(hits[position]), int(totals[position]))
    return result
