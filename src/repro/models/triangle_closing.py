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

Besides sampling (used inside the generative model), each model can compute
the probability it assigns to a specific observed closure edge, which is what
the Section 5.2 comparison ("RR is 14% better than Baseline, RR-SAN is 36%
better than RR") needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from ..algorithms.triangles import two_hop_social_neighbors
from ..graph.san import SAN
from ..utils.rng import RngLike, ensure_rng

Node = Hashable

#: Bounded attempts at finding a non-empty two-hop candidate set before a
#: closure sampler gives up and returns ``None`` (the generative model then
#: falls back to attachment).  Shared with the vectorized engine in
#: :mod:`repro.models.fast_sim`.
CLOSURE_SAMPLE_TRIES = 10


class TriangleClosingModel:
    """Interface: sample a closure target and score observed closures."""

    name = "triangle_closing"

    def sample_target(self, san: SAN, source: Node, rng: RngLike = None) -> Optional[Node]:
        raise NotImplementedError

    def target_probability(self, san: SAN, source: Node, target: Node) -> float:
        raise NotImplementedError


class BaselineClosing(TriangleClosingModel):
    """Uniform choice within the two-hop social neighborhood."""

    name = "baseline"

    def sample_target(self, san: SAN, source: Node, rng: RngLike = None) -> Optional[Node]:
        generator = ensure_rng(rng)
        candidates = list(two_hop_social_neighbors(san, source))
        if not candidates:
            return None
        return candidates[generator.randrange(len(candidates))]

    def target_probability(self, san: SAN, source: Node, target: Node) -> float:
        candidates = two_hop_social_neighbors(san, source)
        if target not in candidates:
            return 0.0
        return 1.0 / len(candidates)


class RandomRandomClosing(TriangleClosingModel):
    """Leskovec-style RR closure: uniform neighbor, then uniform neighbor-of-neighbor."""

    name = "random_random"

    def sample_target(self, san: SAN, source: Node, rng: RngLike = None) -> Optional[Node]:
        generator = ensure_rng(rng)
        first_hops = list(san.social_neighbors(source))
        if not first_hops:
            return None
        for _ in range(CLOSURE_SAMPLE_TRIES):
            intermediate = first_hops[generator.randrange(len(first_hops))]
            second_hops = [
                node for node in san.social_neighbors(intermediate) if node != source
            ]
            if second_hops:
                return second_hops[generator.randrange(len(second_hops))]
        return None

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
        if attribute_weight < 0:
            raise ValueError("attribute_weight must be >= 0")
        self.attribute_weight = attribute_weight

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

    def sample_target(self, san: SAN, source: Node, rng: RngLike = None) -> Optional[Node]:
        generator = ensure_rng(rng)
        nodes, weights = self._first_hop_weights(san, source)
        if not nodes:
            return None
        total = sum(weights)
        if total <= 0:
            return None
        for _ in range(CLOSURE_SAMPLE_TRIES):
            threshold = generator.random() * total
            cumulative = 0.0
            intermediate = nodes[-1]
            for node, weight in zip(nodes, weights):
                cumulative += weight
                if cumulative >= threshold:
                    intermediate = node
                    break
            second_hops = self._second_hop_candidates(san, intermediate, source)
            if second_hops:
                return second_hops[generator.randrange(len(second_hops))]
        return None

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
    totals = {model.name: 0.0 for model in models}
    scored = 0
    for source, target in closure_edges:
        if not (san.is_social_node(source) and san.is_social_node(target)):
            continue
        if source == target or san.has_social_edge(source, target):
            continue
        scored += 1
        for model in models:
            probability = model.target_probability(san, source, target)
            totals[model.name] += math.log(max(probability, floor_probability))
    if scored == 0:
        raise ValueError("no closure edges could be scored against the SAN")
    averages = {name: total / scored for name, total in totals.items()}
    return ClosureModelComparison(average_log_probabilities=averages, num_edges_scored=scored)
