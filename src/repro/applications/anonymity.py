"""Social-network-based anonymous communication (Figure 19b).

Drac-style systems select relay proxies by performing a random walk over the
social network.  For low-latency traffic, anonymity is broken when both the
first and the last relay of a circuit are compromised (end-to-end timing
analysis).  The paper's experiment compromises nodes uniformly at random
(with the same degree bound of 100 used in the Sybil experiment) and reports
the probability that a random-walk-built circuit has compromised first and
last hops, comparing the real Google+ topology against model-generated ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, List, Sequence, Set, Union

import numpy as np

from ..algorithms.random_walk import batched_walk_ids, capped_undirected_csr
from ..engine import dispatchable
from ..graph.frozen import FrozenSAN, sorted_membership
from ..graph.san import SAN
from ..utils.rng import RngLike, ensure_rng

Node = Hashable
SANLike = Union[SAN, FrozenSAN]


@dataclass(frozen=True)
class AnonymityParameters:
    """Parameters of the timing-analysis experiment."""

    circuit_length: int = 3      # number of relays in a circuit
    degree_bound: int = 100      # effective node degree cap
    num_circuits: int = 2000     # Monte-Carlo circuits per compromise level


@dataclass
class AnonymityResult:
    """Outcome of one compromise level."""

    num_compromised: int
    attack_probability: float


@dispatchable("anonymity.end_to_end_attack_probability")
def end_to_end_attack_probability(
    san: FrozenSAN,
    compromised: Set[Node],
    params: AnonymityParameters = AnonymityParameters(),
    rng: RngLike = None,
) -> float:
    """Monte-Carlo probability that a circuit's first and last relays are compromised.

    Circuits are built by a random walk of ``circuit_length`` hops over the
    degree-capped topology, starting at a uniformly random honest
    initiator; the first relay is the first hop and the last relay the
    final hop of the walk.  Circuits that reach a dead end are not built
    and do not count.  All circuits advance together as one batched walk.
    """
    generator = ensure_rng(rng)
    indptr, indices = capped_undirected_csr(
        san.social, degree_cap=params.degree_bound, rng=generator
    )
    compromised_ids = np.array(
        sorted(
            san.social.index_of(node)
            for node in compromised
            if san.social.has_node(node)
        ),
        dtype=np.int64,
    )
    num_nodes = san.social.number_of_nodes()
    honest = np.setdiff1d(
        np.arange(num_nodes, dtype=np.int64), compromised_ids, assume_unique=True
    )
    if honest.size == 0:
        return 0.0
    np_rng = np.random.default_rng(generator.getrandbits(64))
    initiators = honest[np_rng.integers(0, honest.size, size=params.num_circuits)]
    paths = batched_walk_ids(
        indptr, indices, initiators, params.circuit_length, np_rng
    )
    complete = paths[:, -1] >= 0  # circuits that survived every hop
    if not np.any(complete):
        return 0.0
    first_relays = paths[complete, 1]
    last_relays = paths[complete, -1]
    attacks = sorted_membership(compromised_ids, first_relays) & sorted_membership(
        compromised_ids, last_relays
    )
    return float(np.count_nonzero(attacks) / int(np.count_nonzero(complete)))


def attack_probability_vs_compromised(
    san: SANLike,
    compromised_counts: Sequence[int],
    params: AnonymityParameters = AnonymityParameters(),
    rng: RngLike = None,
) -> List[AnonymityResult]:
    """The Figure 19b experiment: timing-analysis probability per compromise level."""
    generator = ensure_rng(rng)
    nodes = list(san.social_nodes())
    results: List[AnonymityResult] = []
    for count in compromised_counts:
        actual = min(count, len(nodes))
        compromised = set(generator.sample(nodes, actual)) if actual else set()
        probability = end_to_end_attack_probability(
            san, compromised, params=params, rng=generator
        )
        results.append(AnonymityResult(num_compromised=actual, attack_probability=probability))
    return results
