"""SybilLimit-style Sybil-defense simulation (Figure 19a).

SybilLimit (Yu et al., S&P 2008) lets honest nodes accept other identities via
intersections of short random routes; the number of Sybil identities an
adversary can get accepted is bounded by ``O(log n)`` per *attack edge* (an
edge between a compromised honest node and the rest of the honest region).

The paper uses SybilLimit purely as a topology-sensitive application metric:
compromise ``c`` nodes uniformly at random (respecting a degree bound of 100),
count the attack edges ``g`` this creates, and report the number of Sybil
identities ``g * w`` the adversary can insert, where ``w`` is the random-route
length parameter (set to 10).  The comparison is then between the values this
yields on the real Google+ topology and on synthetic topologies from the
generative models.

This module implements that experiment faithfully — including the degree cap —
plus the random-route machinery itself (so the acceptance bound can also be
exercised directly in tests).

Both experiment drivers dispatch through the :mod:`repro.engine` registry to
kernels on the frozen SAN (a mutable SAN is frozen at dispatch): the
degree-capped topology is a capped CSR, the attack-edge count per compromise
level is one gather + sorted-membership pass over the compromised rows, and
the random routes of the acceptance experiment advance as one batched
vectorized walk instead of one Python walk per route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..algorithms.random_walk import batched_walk_ids, capped_undirected_csr
from ..engine import dispatchable
from ..graph.frozen import FrozenSAN, gather_rows, sorted_membership
from ..utils.rng import RngLike, ensure_rng

Node = Hashable


@dataclass(frozen=True)
class SybilLimitParameters:
    """Parameters of the SybilLimit experiment (paper defaults)."""

    walk_length: int = 10          # the paper's w
    degree_bound: int = 100        # effective node degree cap
    sybils_per_attack_edge: Optional[float] = None
    # ``None`` means use walk_length (SybilLimit admits ~w Sybils per attack edge).

    @property
    def sybil_bound_per_edge(self) -> float:
        return (
            self.sybils_per_attack_edge
            if self.sybils_per_attack_edge is not None
            else float(self.walk_length)
        )


@dataclass
class SybilDefenseResult:
    """Outcome of one compromise level."""

    num_compromised: int
    num_attack_edges: int
    num_sybil_identities: float


def count_attack_edges(
    adjacency: Dict[Node, List[Node]], compromised: Set[Node]
) -> int:
    """Number of (undirected) edges between compromised and honest nodes."""
    attack_edges = 0
    for node in compromised:
        for neighbor in adjacency.get(node, ()):  # capped adjacency
            if neighbor not in compromised:
                attack_edges += 1
    return attack_edges


@dispatchable("sybil.identities_vs_compromised")
def sybil_identities_vs_compromised(
    san: FrozenSAN,
    compromised_counts: Sequence[int],
    params: SybilLimitParameters = SybilLimitParameters(),
    rng: RngLike = None,
) -> List[SybilDefenseResult]:
    """The Figure 19a experiment on one SAN.

    For each compromise level, nodes are compromised uniformly at random
    (``rng.sample`` over the node ids), the attack edges are counted on the
    degree-capped topology — each capped row of a compromised node counts
    its neighbors outside the compromised set — and the number of
    acceptable Sybil identities is ``attack_edges * w``.
    """
    generator = ensure_rng(rng)
    indptr, indices = capped_undirected_csr(
        san.social, degree_cap=params.degree_bound, rng=generator
    )
    labels = san.social.labels()
    num_nodes = len(labels)
    results: List[SybilDefenseResult] = []
    for count in compromised_counts:
        actual = min(count, num_nodes)
        if actual:
            compromised_ids = np.array(
                sorted(generator.sample(range(num_nodes), actual)), dtype=np.int64
            )
            # Attack edges from the compromised side: gather the capped rows
            # of every compromised node and count neighbors outside the set.
            neighbors, _ = gather_rows(indptr, indices, compromised_ids)
            internal = sorted_membership(compromised_ids, neighbors)
            attack_edges = int(neighbors.size - np.count_nonzero(internal))
        else:
            attack_edges = 0
        results.append(
            SybilDefenseResult(
                num_compromised=actual,
                num_attack_edges=attack_edges,
                num_sybil_identities=attack_edges * params.sybil_bound_per_edge,
            )
        )
    return results


@dispatchable("sybil.acceptance_probability")
def acceptance_probability(
    san: FrozenSAN,
    verifier: Node,
    suspect: Node,
    params: SybilLimitParameters = SybilLimitParameters(),
    num_routes: Optional[int] = None,
    rng: RngLike = None,
) -> float:
    """Estimated probability that a verifier accepts a suspect via tail intersection.

    Each node sends ``num_routes`` random routes of ``walk_length`` hops over
    the degree-capped topology; a route's tail is its last edge, and the
    estimate is the share of the suspect's tails that match a verifier tail
    in either direction.  ``num_routes`` defaults to ``sqrt(|E|)`` (the
    SybilLimit guideline).  This is used by tests to confirm the protocol
    machinery behaves sensibly (honest suspects in the same region are
    almost always accepted).
    """
    generator = ensure_rng(rng)
    indptr, indices = capped_undirected_csr(
        san.social, degree_cap=params.degree_bound, rng=generator
    )
    num_edges = int(indices.size) // 2
    routes = num_routes if num_routes is not None else max(4, int(math.sqrt(max(num_edges, 1))))
    np_rng = np.random.default_rng(generator.getrandbits(64))

    def tails_of(node: Node) -> List[Tuple[int, int]]:
        start_ids = np.full(routes, san.social.index_of(node), dtype=np.int64)
        paths = batched_walk_ids(indptr, indices, start_ids, params.walk_length, np_rng)
        # A route contributes its last edge only if it survived >= 1 step.
        tails: List[Tuple[int, int]] = []
        for row in paths:
            walk = row[row >= 0]
            if walk.size >= 2:
                tails.append((int(walk[-2]), int(walk[-1])))
        return tails

    verifier_tails = set(tails_of(verifier))
    if not verifier_tails:
        return 0.0
    suspect_tails = tails_of(suspect)
    if not suspect_tails:
        return 0.0
    intersections = sum(
        1
        for tail in suspect_tails
        if tail in verifier_tails or tail[::-1] in verifier_tails
    )
    return intersections / len(suspect_tails)
