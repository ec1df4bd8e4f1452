"""Triangle-closing models: Baseline, Random-Random, and RR-SAN (Section 5.2).

All three models describe how a woken node ``u`` chooses the target of a new
outgoing link from its two-hop neighborhood:

* **Baseline** — pick a node within a two-hop *social* radius uniformly at
  random.
* **Random-Random (RR)** — pick a social neighbor ``w`` of ``u`` uniformly,
  then a social neighbor ``v`` of ``w`` uniformly (Leskovec et al.).
* **Random-Random-SAN (RR-SAN)** — the first hop may also go through an
  attribute neighbor of ``u`` (weighted by ``attribute_weight``, the paper's
  ``fc``), so shared attributes can spawn *focal closures* in addition to the
  triadic closures produced by the social first hop.

Each model computes the probability it assigns to a specific observed
closure edge, which is what the Section 5.2 comparison ("RR is 14% better
than Baseline, RR-SAN is 36% better than RR") needs.  The generative model
(:mod:`repro.models.san_model`) samples RR and RR-SAN closures on its own
array state.

:func:`score_closures` classifies a batch of edges (triadic / focal) and
scores it under all three models, as a few sparse passes over the whole
batch on the frozen SAN (a mutable SAN is frozen at dispatch); the per-pair
``target_probability`` methods stay the reference.  With ``U`` the
undirected social CSR (self-loops dropped), ``d`` its degrees, ``M`` the
social→attribute incidence, ``s`` the attribute member counts and ``fc``
the attribute weight:

* triadic ⇔ ``U[u]·U[v] > 0`` and focal ⇔ ``M[u]·M[v] > 0``;
* Baseline = ``1/|two-hop(u)|`` when ``v`` is in the two-hop set, else 0;
* RR = ``Σ_{w ∈ N(u)∩N(v)} 1/(d_w − 1) / d_u``;
* RR-SAN = ``(that sum + fc·Σ_{a ∈ A(u)∩A(v)} 1/(s_a − 1)) / (d_u + fc·|A(u)|)``.

The sums run in another order than the per-pair loops, so the
probabilities agree with them to float rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Hashable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..algorithms.triangles import ClosureBreakdown, two_hop_sizes, two_hop_social_neighbors
from ..engine import dispatchable
from ..engine.deps import scipy_sparse
from ..graph.frozen import FrozenSAN, sorted_membership
from ..graph.san import SAN

Node = Hashable


def _checked_attribute_weight(attribute_weight: float) -> float:
    if attribute_weight < 0:
        raise ValueError("attribute_weight must be >= 0")
    return attribute_weight


class TriangleClosingModel:
    """Interface: the probability a model assigns to an observed closure."""

    name = "triangle_closing"

    def target_probability(self, san: SAN, source: Node, target: Node) -> float:
        raise NotImplementedError


class BaselineClosing(TriangleClosingModel):
    """Uniform choice within the two-hop social neighborhood."""

    name = "baseline"

    def target_probability(self, san: SAN, source: Node, target: Node) -> float:
        candidates = two_hop_social_neighbors(san, source)
        if target not in candidates:
            return 0.0
        return 1.0 / len(candidates)


class RandomRandomClosing(TriangleClosingModel):
    """Leskovec-style RR closure: uniform neighbor, then uniform neighbor-of-neighbor."""

    name = "random_random"

    def target_probability(self, san: SAN, source: Node, target: Node) -> float:
        first_hops = san.social_neighbors(source)
        if not first_hops:
            return 0.0
        probability = 0.0
        for intermediate in first_hops:
            second_hops = san.social_neighbors(intermediate) - {source}
            if target in second_hops:
                probability += 1.0 / (len(first_hops) * len(second_hops))
        return probability


class RandomRandomSANClosing(TriangleClosingModel):
    """RR-SAN closure: the first hop may traverse an attribute node.

    ``attribute_weight`` (the paper's ``fc``) scales the probability of taking
    an attribute first hop relative to a social first hop; ``0`` disables
    focal closure and recovers the RR model, ``1`` treats social and attribute
    neighbors uniformly (the Section 5.2 formulation).
    """

    name = "rr_san"

    def __init__(self, attribute_weight: float = 1.0) -> None:
        self.attribute_weight = _checked_attribute_weight(attribute_weight)

    def _first_hop_weights(self, san: SAN, source: Node) -> Tuple[List[Node], List[float]]:
        social_hops = list(san.social_neighbors(source))
        attribute_hops = (
            sorted(san.attribute_neighbors(source), key=str)
            if self.attribute_weight > 0
            else []
        )
        nodes = social_hops + attribute_hops
        weights = [1.0] * len(social_hops) + [self.attribute_weight] * len(attribute_hops)
        return nodes, weights

    def _second_hop_candidates(self, san: SAN, intermediate: Node, source: Node) -> List[Node]:
        if san.is_social_node(intermediate):
            pool = san.social_neighbors(intermediate)
        else:
            pool = san.attributes.members_of(intermediate)
        return [node for node in pool if node != source]

    def target_probability(self, san: SAN, source: Node, target: Node) -> float:
        nodes, weights = self._first_hop_weights(san, source)
        total = sum(weights)
        if total <= 0:
            return 0.0
        probability = 0.0
        for intermediate, weight in zip(nodes, weights):
            second_hops = self._second_hop_candidates(san, intermediate, source)
            if target in second_hops:
                probability += (weight / total) * (1.0 / len(second_hops))
        return probability


@dataclass
class ClosureModelComparison:
    """Average per-edge log-probability for each closure model plus improvements."""

    average_log_probabilities: Dict[str, float]
    num_edges_scored: int

    def relative_improvement(self, model: str, baseline: str) -> float:
        """``(l_baseline - l_model) / l_baseline`` on average log-probabilities."""
        baseline_value = self.average_log_probabilities[baseline]
        model_value = self.average_log_probabilities[model]
        if baseline_value == 0:
            return 0.0
        return (baseline_value - model_value) / baseline_value


def evaluate_closure_models(
    san: SAN,
    closure_edges: Sequence[Tuple[Node, Node]],
    models: Optional[Sequence[TriangleClosingModel]] = None,
    floor_probability: float = 1e-6,
) -> ClosureModelComparison:
    """Score triangle-closing models on observed closure edges.

    ``san`` must be the network state *before* the closure edges were added
    (or at least before most of them; daily snapshot granularity is accepted
    the same way the paper accepts it).  Edges the model assigns probability
    zero receive ``floor_probability`` so a single miss does not dominate the
    average log-probability.
    """
    if models is None:
        models = [BaselineClosing(), RandomRandomClosing(), RandomRandomSANClosing()]
    probabilities: Dict[str, List[float]] = {model.name: [] for model in models}
    scored = 0
    for source, target in closure_edges:
        if not (san.is_social_node(source) and san.is_social_node(target)):
            continue
        if source == target or san.has_social_edge(source, target):
            continue
        scored += 1
        for model in models:
            probabilities[model.name].append(model.target_probability(san, source, target))
    return _comparison_of(probabilities, scored, floor_probability)


def _comparison_of(
    probabilities: Dict[str, Sequence[float]], scored: int, floor_probability: float
) -> ClosureModelComparison:
    """Each model's average ``log(max(p, floor))`` over ``scored`` edges, in order."""
    if scored == 0:
        raise ValueError("no closure edges could be scored against the SAN")
    averages: Dict[str, float] = {}
    for name, values in probabilities.items():
        total = 0.0
        for probability in values:
            total += math.log(max(probability, floor_probability))
        averages[name] = total / scored
    return ClosureModelComparison(average_log_probabilities=averages, num_edges_scored=scored)


class ClosureScores(NamedTuple):
    """Per-edge closure type and model probabilities, from :func:`score_closures`.

    The three probability columns are named after the models' ``name``.
    """

    triadic: np.ndarray
    focal: np.ndarray
    baseline: np.ndarray
    random_random: np.ndarray
    rr_san: np.ndarray

    def take(self, positions: Sequence[int]) -> "ClosureScores":
        """The scores of the edges at ``positions``, in that order."""
        positions = np.asarray(positions, dtype=np.int64)
        return ClosureScores(*(column[positions] for column in self))

    def breakdown(self) -> ClosureBreakdown:
        """Triadic / focal / both / neither counts over every edge."""
        return ClosureBreakdown.from_flags(self.triadic, self.focal)

    def comparison(self, floor_probability: float = 1e-6) -> ClosureModelComparison:
        """Average log-probabilities, as :func:`evaluate_closure_models` reports."""
        probabilities = {
            name: getattr(self, name).tolist()
            for name in ("baseline", "random_random", "rr_san")
        }
        return _comparison_of(probabilities, int(self.triadic.size), floor_probability)


@dispatchable("score_closures")
def score_closures(
    san: FrozenSAN, edges: Sequence[Tuple[Node, Node]], attribute_weight: float = 1.0
) -> ClosureScores:
    """Closure type and Baseline / RR / RR-SAN probability of every edge.

    Both endpoints of every edge must be social nodes of ``san``, the state
    before the edges were added.  ``attribute_weight`` is RR-SAN's ``fc``.
    The batch is scored with sparse row products over the CSR (see the
    module docstring for the formulas).
    """
    _checked_attribute_weight(attribute_weight)
    sparse = scipy_sparse()
    social = san.social
    n = social.number_of_nodes()
    index_of = social.index_of
    sources = np.fromiter((index_of(u) for u, _ in edges), dtype=np.int64, count=len(edges))
    targets = np.fromiter((index_of(v) for _, v in edges), dtype=np.int64, count=len(edges))

    indptr, indices = social.undirected_csr()
    degrees = np.diff(indptr)
    adjacency = sparse.csr_matrix(
        (np.ones(indices.size), indices, indptr), shape=(n, n)
    )
    common = adjacency[sources].multiply(adjacency[targets]).tocsr()
    triadic = common.getnnz(axis=1) > 0
    social_sum = common @ _inverse_excess(degrees)

    link_indptr, link_indices = san.attributes.social_to_attr_csr()
    members = san.attributes.social_degree_array()
    incidence = sparse.csr_matrix(
        (np.ones(link_indices.size), link_indices, link_indptr), shape=(n, members.size)
    )
    shared = incidence[sources].multiply(incidence[targets]).tocsr()
    focal = shared.getnnz(axis=1) > 0
    attribute_sum = shared @ _inverse_excess(members)

    distinct = sources != targets
    adjacent = sorted_membership(
        np.repeat(np.arange(n, dtype=np.int64), degrees) * n + indices,
        sources * n + targets,
    )
    in_two_hop = triadic & ~adjacent & distinct
    unique_sources, source_slot = np.unique(sources[in_two_hop], return_inverse=True)
    baseline = np.zeros(sources.size)
    baseline[in_two_hop] = 1.0 / two_hop_sizes(indptr, indices, unique_sources)[source_slot]

    first_hops = degrees[sources]
    random_random = np.zeros(sources.size)
    reach = distinct & (first_hops > 0)
    random_random[reach] = social_sum[reach] / first_hops[reach]

    weight = np.diff(link_indptr)[sources] * attribute_weight + first_hops
    rr_san = np.zeros(sources.size)
    reach = distinct & (weight > 0)
    rr_san[reach] = (
        social_sum[reach] + attribute_weight * attribute_sum[reach]
    ) / weight[reach]
    return ClosureScores(triadic, focal, baseline, random_random, rr_san)


def _inverse_excess(counts: np.ndarray) -> np.ndarray:
    """``1 / (c - 1)`` per count ``c``; 0 where ``c <= 1`` (no second hop)."""
    inverse = np.zeros(counts.size)
    several = counts > 1
    inverse[several] = 1.0 / (counts[several] - 1)
    return inverse
