"""Common-neighbour and triangle-closure helpers.

The generative model's triangle-closing step and the Section 5.2 evaluation
need fast access to two-hop neighborhoods and to the classification of a new
edge as a *triadic* closure (the endpoints share a social neighbor), a *focal*
closure (they share an attribute), both, or neither.

All helpers accept either SAN backend; :func:`count_directed_triangles`
dispatches through the :mod:`repro.engine` registry to a kernel that counts
every triangle at once as a sparse ``trace(A³)/6`` over the undirected CSR.
:func:`two_hop_sizes` is the array form of
``len(two_hop_social_neighbors(san, u))`` for many sources at once — sparse
products over bounded chunks of sources — which the batched Section 5.2
kernel (:func:`repro.models.triangle_closing.score_closures`) uses for the
Baseline model, together with :meth:`ClosureBreakdown.from_flags`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Set, Tuple, Union

import numpy as np

from ..engine import dispatchable
from ..engine.deps import scipy_sparse
from ..graph.frozen import FrozenSAN
from ..graph.san import SAN

Node = Hashable
SANLike = Union[SAN, FrozenSAN]


@dataclass
class ClosureBreakdown:
    """Counts of edge-closure categories over a set of observed edges.

    ``triadic`` and ``focal`` are *not* exclusive (the paper reports 84%
    triadic, 18% focal, 15% both), so the percentages may sum to more than one.
    """

    total: int = 0
    triadic: int = 0
    focal: int = 0
    both: int = 0
    neither: int = 0

    @classmethod
    def from_flags(cls, triadic: np.ndarray, focal: np.ndarray) -> "ClosureBreakdown":
        """Counts from per-edge boolean triadic and focal flags."""
        return cls(
            total=int(triadic.size),
            triadic=int(np.count_nonzero(triadic)),
            focal=int(np.count_nonzero(focal)),
            both=int(np.count_nonzero(triadic & focal)),
            neither=int(np.count_nonzero(~triadic & ~focal)),
        )

    @property
    def triadic_fraction(self) -> float:
        return self.triadic / self.total if self.total else 0.0

    @property
    def focal_fraction(self) -> float:
        return self.focal / self.total if self.total else 0.0

    @property
    def both_fraction(self) -> float:
        return self.both / self.total if self.total else 0.0


def two_hop_social_neighbors(san: SANLike, node: Node) -> Set[Node]:
    """Social nodes reachable via one intermediate social neighbor.

    The source node itself and its direct neighbors are excluded: these are
    the candidate targets of a pure triadic closure.
    """
    direct = san.social_neighbors(node)
    result: Set[Node] = set()
    for intermediate in direct:
        result.update(san.social_neighbors(intermediate))
    result.discard(node)
    result -= direct
    return result


#: Bound on the two-hop walks, hence on the entries of the sparse product,
#: that :func:`two_hop_sizes` materialises per chunk of sources.
TWO_HOP_CHUNK_WALKS = 1 << 18


def two_hop_sizes(
    indptr: np.ndarray, indices: np.ndarray, sources: np.ndarray
) -> np.ndarray:
    """``len(two_hop_social_neighbors(u))`` for every compact id in ``sources``.

    ``(indptr, indices)`` is an undirected CSR without self-loops, as
    ``FrozenDiGraph.undirected_csr`` returns.  The two-hop set of ``u`` is
    the support of row ``u`` of ``A @ A`` minus ``u`` (present whenever ``u``
    has a neighbour) and minus the neighbours of ``u`` it contains.  Sources
    are processed in chunks of at most :data:`TWO_HOP_CHUNK_WALKS` two-hop
    walks (a lone source above the bound forms its own chunk), so memory
    does not grow with ``len(sources) * n``.
    """
    sparse = scipy_sparse()
    n = indptr.size - 1
    sources = np.asarray(sources, dtype=np.int64)
    degrees = np.diff(indptr)
    adjacency = sparse.csr_matrix(
        (np.ones(indices.size, dtype=np.int64), indices, indptr), shape=(n, n)
    )
    walks = np.cumsum((adjacency @ degrees)[sources])
    sizes = np.empty(sources.size, dtype=np.int64)
    start = 0
    while start < sources.size:
        done = walks[start - 1] if start else 0
        stop = max(
            start + 1,
            int(np.searchsorted(walks, done + TWO_HOP_CHUNK_WALKS, side="right")),
        )
        chunk = sources[start:stop]
        rows = adjacency[chunk]
        reach = rows @ adjacency
        sizes[start:stop] = (
            reach.getnnz(axis=1) - reach.multiply(rows).getnnz(axis=1) - (degrees[chunk] > 0)
        )
        start = stop
    return sizes


def is_triadic_closure(san: SANLike, source: Node, target: Node) -> bool:
    """Whether ``source -> target`` closes a triangle over a common social neighbor."""
    return bool(san.common_social_neighbors(source, target))


def is_focal_closure(san: SANLike, source: Node, target: Node) -> bool:
    """Whether ``source -> target`` closes a triangle over a shared attribute."""
    return bool(san.common_attributes(source, target))


def classify_closures(
    san: SANLike, edges: Iterable[Tuple[Node, Node]]
) -> ClosureBreakdown:
    """Classify each edge against the state of ``san`` (before edge insertion)."""
    breakdown = ClosureBreakdown()
    for source, target in edges:
        if not (san.is_social_node(source) and san.is_social_node(target)):
            continue
        breakdown.total += 1
        triadic = is_triadic_closure(san, source, target)
        focal = is_focal_closure(san, source, target)
        if triadic:
            breakdown.triadic += 1
        if focal:
            breakdown.focal += 1
        if triadic and focal:
            breakdown.both += 1
        if not triadic and not focal:
            breakdown.neither += 1
    return breakdown


@dispatchable("count_directed_triangles")
def count_directed_triangles(san: FrozenSAN) -> int:
    """Number of (unordered) connected triples forming a triangle in the
    undirected projection of the social layer.

    Counted as ``trace(A^3) / 6 = sum((A @ A) ⊙ A) / 6`` over the sparse
    undirected adjacency ``A``.  Used by tests as an independent
    cross-check of the clustering machinery.
    """
    sparse = scipy_sparse()
    indptr, indices = san.social.undirected_csr()
    n = san.social.number_of_nodes()
    adjacency = sparse.csr_matrix(
        (np.ones(indices.size, dtype=np.int64), indices, indptr), shape=(n, n)
    )
    closed_wedges = (adjacency @ adjacency).multiply(adjacency).sum()
    return int(closed_wedges) // 6
