"""Constant-time approximation of the average clustering coefficient.

This implements Algorithm 2 from the paper's Appendix A.  A triple
``t = (v, u, w)`` has center ``u`` and endpoints ``v, w`` drawn from the
social neighbors of ``u``.  The mapping ``F`` scores a triple 0/1/2 in a
directed SAN depending on whether the endpoints are unconnected, connected in
one direction, or reciprocally connected.  Sampling ``K = ceil(ln(2 nu) /
(2 eps^2))`` triples uniformly (center uniform over the node set, endpoints
uniform over the center's neighbor pairs) yields an estimate within ``eps`` of
the true average clustering coefficient with probability at least ``1 - 1/nu``
(Hoeffding's bound, Theorem 3).

The sampler runs on the frozen backend's arrays.  All ``K`` centers and both
endpoint positions are drawn in one batch from a numpy generator seeded with
64 bits taken from the caller's ``random.Random``, so callers that share one
stream across many estimates (a figure's snapshot series) keep sharing it.
Endpoints are read from the sorted rows of the undirected social CSR (social
centers) or the attribute-membership CSR (attribute centers), and both link
directions of every endpoint pair are scored with one batched binary search
over the sorted directed edge keys ``src * n + dst``.  A mutable SAN is frozen
at dispatch, so both backends give the same estimate for the same seed, and no
draw depends on set-iteration order (which follows ``PYTHONHASHSEED`` for
string labels).
"""

from __future__ import annotations

import math
from typing import Hashable, List, Optional, Sequence, Tuple

import numpy as np

from ..engine import dispatchable
from ..graph.frozen import FrozenSAN, sorted_membership
from ..graph.protocol import SANView
from ..utils.rng import RngLike, ensure_rng

Node = Hashable


def required_samples(epsilon: float = 0.002, nu: float = 100.0) -> int:
    """The paper's sample size ``K = ceil(ln(2 nu) / (2 eps^2))``."""
    if epsilon <= 0:
        raise ValueError(f"epsilon must be > 0, got {epsilon}")
    if nu <= 0:
        raise ValueError(f"nu must be > 0, got {nu}")
    return int(math.ceil(math.log(2 * nu) / (2 * epsilon * epsilon)))


@dispatchable("approximate_average_clustering")
def approximate_average_clustering(
    san: FrozenSAN,
    population: Optional[Sequence[Node]] = None,
    epsilon: float = 0.002,
    nu: float = 100.0,
    num_samples: Optional[int] = None,
    rng: RngLike = None,
) -> float:
    """Algorithm 2: sampled estimate of the average clustering coefficient.

    Parameters
    ----------
    population:
        The node set ``Omega`` whose average clustering coefficient is wanted:
        social nodes (default), attribute nodes, or any subset.
    epsilon, nu:
        Accuracy / confidence parameters from the paper; ignored when
        ``num_samples`` is given explicitly.
    num_samples:
        Override for the number of sampled triples ``K``.

    Every draw is a sample: a center with fewer than two social neighbors has
    ``c(u) = 0`` and contributes a zero-scored triple, exactly as in the exact
    definition, so the estimate always averages exactly ``K`` triples.
    """
    samples = num_samples if num_samples is not None else required_samples(epsilon, nu)
    if population is not None:
        population = list(population)
    size = san.number_of_social_nodes() if population is None else len(population)
    if size == 0 or samples <= 0:
        return 0.0
    draws = np.random.default_rng(ensure_rng(rng).getrandbits(64))
    positions = draws.integers(0, size, size=samples)
    if population is None:
        is_social, ids = np.ones(samples, dtype=bool), positions
    else:
        is_social, ids = _resolve_centers(san, population, positions)

    firsts: List[np.ndarray] = []
    seconds: List[np.ndarray] = []
    for centers, rows in (
        (ids[is_social], san.social.undirected_csr),
        (ids[~is_social], san.attributes.attr_to_social_csr),
    ):
        if centers.size == 0:
            continue  # never build the undirected CSR for attribute centers alone
        indptr, indices = rows()
        starts = indptr[centers]
        degrees = indptr[centers + 1] - starts
        scored = degrees >= 2
        if not scored.any():
            continue
        starts, degrees = starts[scored], degrees[scored]
        first = draws.integers(0, degrees)
        second = draws.integers(0, degrees - 1)
        second += second >= first  # two distinct positions in the row
        firsts.append(indices[starts + first])
        seconds.append(indices[starts + second])
    if not firsts:
        return 0.0
    first_ends, second_ends = np.concatenate(firsts), np.concatenate(seconds)

    n = san.number_of_social_nodes()
    sources, targets = san.social.edge_arrays()
    edge_keys = sources * n + targets  # sorted: edges are in (source, target) order
    links = sorted_membership(
        edge_keys,
        np.concatenate([first_ends * n + second_ends, second_ends * n + first_ends]),
    )
    # I = 1 because the SAN social layer is directed, so divide by 2K.
    return int(np.count_nonzero(links)) / (2 * samples)


def _resolve_centers(
    san: FrozenSAN, population: Sequence[Node], positions: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """``(is_social, compact id)`` of ``population[p]`` for every drawn ``p``.

    A label that is both a social and an attribute node is taken as social,
    as in ``SAN.social_neighbors``; an unknown label raises
    :class:`~repro.graph.errors.NodeNotFoundError`.  Only the distinct drawn
    positions are looked up, so the cost is bounded by ``K``, not by the
    population size.
    """
    unique, inverse = np.unique(positions, return_inverse=True)
    is_social = np.empty(unique.size, dtype=bool)
    ids = np.empty(unique.size, dtype=np.int64)
    for slot, position in enumerate(unique.tolist()):
        node = population[position]
        is_social[slot] = san.social.has_node(node)
        ids[slot] = (
            san.social.index_of(node)
            if is_social[slot]
            else san.attributes.attribute_index_of(node)
        )
    return is_social[inverse], ids[inverse]


def approximate_social_clustering(
    san: SANView,
    epsilon: float = 0.002,
    nu: float = 100.0,
    num_samples: Optional[int] = None,
    rng: RngLike = None,
) -> float:
    """Sampled average *social* clustering coefficient (``Omega = V_s``)."""
    return approximate_average_clustering(
        san, epsilon=epsilon, nu=nu, num_samples=num_samples, rng=rng
    )
