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

This module implements that experiment faithfully, including the degree cap.
:func:`sybil_identities_vs_compromised` dispatches through the
:mod:`repro.engine` registry to a kernel on the frozen SAN (a mutable SAN is
frozen at dispatch): the degree-capped topology is a capped CSR, and the
attack-edge count per compromise level is one gather + sorted-membership
pass over the compromised rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..algorithms.random_walk import capped_undirected_csr
from ..engine import dispatchable
from ..graph.frozen import FrozenSAN, gather_rows, sorted_membership
from ..utils.rng import RngLike, ensure_rng


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
