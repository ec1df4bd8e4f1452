"""Joint degree distribution: knn curves and assortativity coefficients.

Section 3.6 approximates the social joint degree distribution with the degree
correlation function ``knn`` — mapping out-degree to the average in-degree of
the out-neighbors — and summarises it with Newman's assortativity coefficient
``r`` over directed social links.

Section 4.1 extends the analysis to attribute nodes: for each social degree
``k`` of attribute nodes, ``knn(k)`` is the average attribute degree of the
social members of attribute nodes with ``k`` members, and the attribute
assortativity is the Pearson correlation of (social degree of the attribute
node, attribute degree of the member) over attribute links.

Every function dispatches through the :mod:`repro.engine` registry to a
kernel on the frozen backend (:class:`~repro.graph.frozen.FrozenSAN`; a
mutable SAN is frozen at dispatch).  The kernels are fully vectorized —
per-node neighbor sums come from a cumulative-sum difference over the CSR
``indices`` array, per-degree averages from ``np.bincount``, and the
assortativity coefficients from exact integer moments of degree arrays
indexed by the CSR edge list (no floating-point dot product, so no BLAS call).

Examples
--------
>>> from repro.graph import san_from_edge_lists
>>> san = san_from_edge_lists([(1, 2), (3, 2)])
>>> social_knn(san)
[(1, 2.0)]
>>> social_knn(san.freeze())
[(1, 2.0)]
"""

from __future__ import annotations

import math
from typing import List, Tuple

import numpy as np

from ..engine import dispatchable
from ..graph.frozen import FrozenSAN

#: Bound on every int64 moment sum of :func:`_pearson_arrays`.
_INT64_MAX = int(np.iinfo(np.int64).max)


@dispatchable("social_knn")
def social_knn(san: FrozenSAN) -> List[Tuple[int, float]]:
    """Average in-degree of out-neighbors as a function of out-degree (Figure 7a)."""
    indptr, indices = san.social.out_csr()
    out_degrees = san.social.out_degree_array()
    neighbor_in_degrees = san.social.in_degree_array()[indices]
    return _knn_curve(indptr, out_degrees, neighbor_in_degrees)


@dispatchable("social_assortativity")
def social_assortativity(san: FrozenSAN) -> float:
    """Degree assortativity over directed social links (Figure 7b).

    Computed as the Pearson correlation between the out-degree of the source
    and the in-degree of the target over all directed links — the directed
    analogue used for publisher/subscriber style networks.
    """
    sources, targets = san.social.edge_arrays()
    return _pearson_arrays(
        san.social.out_degree_array()[sources],
        san.social.in_degree_array()[targets],
    )


@dispatchable("attribute_knn")
def attribute_knn(san: FrozenSAN) -> List[Tuple[int, float]]:
    """Attribute-node knn (Figure 12a).

    For each social degree ``k`` (number of members of an attribute node), the
    average attribute degree of the members of attribute nodes having exactly
    ``k`` members.
    """
    indptr, indices = san.attributes.attr_to_social_csr()
    member_counts = san.attributes.social_degree_array()
    member_attr_degrees = san.attributes.attribute_degree_array()[indices]
    return _knn_curve(indptr, member_counts, member_attr_degrees)


@dispatchable("attribute_assortativity")
def attribute_assortativity(san: FrozenSAN) -> float:
    """Attribute assortativity coefficient (Figure 12b).

    Pearson correlation over attribute links between the social degree of the
    attribute endpoint and the attribute degree of the social endpoint.
    """
    sa_indptr, sa_indices = san.attributes.social_to_attr_csr()
    social_sources = np.repeat(
        np.arange(san.number_of_social_nodes(), dtype=np.int64),
        np.diff(sa_indptr),
    )
    return _pearson_arrays(
        san.attributes.social_degree_array()[sa_indices],
        san.attributes.attribute_degree_array()[social_sources],
    )


def _knn_curve(
    indptr: np.ndarray, row_degrees: np.ndarray, neighbor_values: np.ndarray
) -> List[Tuple[int, float]]:
    """Per-row neighbor-value averages grouped by row degree, vectorized.

    ``neighbor_values`` is aligned with the CSR ``indices`` array; the
    cumulative-sum difference yields each row's neighbor sum in one pass
    (including empty rows), ``np.bincount`` then groups the per-row averages
    by row degree.
    """
    prefix = np.concatenate(
        ([0.0], np.cumsum(neighbor_values.astype(np.float64)))
    )
    row_sums = prefix[indptr[1:]] - prefix[indptr[:-1]]
    mask = row_degrees > 0
    if not np.any(mask):
        return []
    degrees = row_degrees[mask]
    averages = row_sums[mask] / degrees
    sums = np.bincount(degrees, weights=averages)
    counts = np.bincount(degrees)
    present = np.nonzero(counts)[0]
    return [(int(k), float(sums[k] / counts[k])) for k in present]


def _pearson_arrays(xs: np.ndarray, ys: np.ndarray) -> float:
    """Pearson correlation of two integer arrays; 0.0 for degenerate inputs.

    The moments n, Σx, Σy, Σx², Σy² and Σxy are exact integers: int64 sums
    over chunks short enough that no sum can pass 2^63, added as Python ints
    (values whose squares would pass it are summed as Python ints outright).
    So the result depends neither on the order of the pairs nor on a BLAS
    thread count, and

        r = (nΣxy − ΣxΣy) / √((nΣx² − (Σx)²)(nΣy² − (Σy)²))

    is rounded once: an integer quotient, with both sides scaled so that the
    integer square root carries at least 64 significant bits.
    """
    n = int(xs.size)
    if n == 0 or n != ys.size:
        return 0.0
    xs = xs.astype(np.int64, copy=False)
    ys = ys.astype(np.int64, copy=False)
    bound = max(int(np.abs(xs).max()), int(np.abs(ys).max()), 1)
    if bound * bound > _INT64_MAX:
        xs, ys, step = xs.astype(object), ys.astype(object), n
    else:
        step = _INT64_MAX // (bound * bound)
    sx = sy = sxx = syy = sxy = 0
    for start in range(0, n, step):
        x, y = xs[start : start + step], ys[start : start + step]
        sx += int(x.sum())
        sy += int(y.sum())
        sxx += int((x * x).sum())
        syy += int((y * y).sum())
        sxy += int((x * y).sum())
    variances = (n * sxx - sx * sx) * (n * syy - sy * sy)
    if variances == 0:
        return 0.0
    shift = max(0, 64 - variances.bit_length() // 2)
    covariance = n * sxy - sx * sy
    return (covariance << shift) / math.isqrt(variances << 2 * shift)
