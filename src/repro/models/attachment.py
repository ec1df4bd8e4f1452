"""Attachment models: uniform, PA, PAPA and LAPA (Section 5.1).

Each model assigns an unnormalised weight ``f(u, v)`` to the event "social
node ``u`` issues a new outgoing link to social node ``v``":

* Uniform:  ``f(u, v) = 1``
* PA:       ``f(u, v) ∝ d_i(v)^alpha``                (alpha = 1 classically)
* PAPA:     ``f(u, v) ∝ d_i(v)^alpha (1 + a(u, v)^beta)``
* LAPA:     ``f(u, v) ∝ d_i(v)^alpha (1 + beta * a(u, v))``

where ``d_i(v)`` is the social in-degree of ``v`` and ``a(u, v)`` the number
of attributes shared by ``u`` and ``v`` (optionally weighted per attribute
type, footnote 3 of the paper).  A ``smoothing`` constant is added to the
in-degree so zero-in-degree nodes remain reachable; the same constant is used
across all models being compared.

Two sampling strategies are provided:

* :meth:`AttachmentModel.sample_target` — exact weighted sampling over an
  explicit candidate list (O(|candidates|); used in tests and small runs).
* :func:`sample_lapa_target_fast` — the decomposition-based sampler used by
  the generative model, which draws from the exact LAPA distribution in time
  proportional to the size of ``u``'s attribute communities rather than the
  whole graph (the practical heuristic discussed in the paper's Section 7).
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Optional, Sequence, Tuple

from ..algorithms.sampling import weighted_choice
from ..graph.san import SAN
from ..utils.rng import RngLike, ensure_rng
from .parameters import AttachmentParameters

Node = Hashable

#: Bounded rejection retries used when a sampled LAPA candidate is excluded
#: (the source itself).  Shared with the vectorized engine in
#: :mod:`repro.models.fast_sim` so both samplers realise the same
#: bounded-retry distribution.
LAPA_MAX_RETRIES = 20


class AttachmentModel:
    """Base class: a weight function over (source, target) social node pairs."""

    name = "attachment"

    def weight(self, san: SAN, source: Node, target: Node) -> float:
        raise NotImplementedError

    def sample_target(
        self,
        san: SAN,
        source: Node,
        candidates: Sequence[Node],
        rng: RngLike = None,
    ) -> Optional[Node]:
        """Draw a target from ``candidates`` with probability ∝ weight."""
        if not candidates:
            return None
        generator = ensure_rng(rng)
        weights = [self.weight(san, source, candidate) for candidate in candidates]
        if all(weight <= 0 for weight in weights):
            return candidates[generator.randrange(len(candidates))]
        return weighted_choice(list(candidates), weights, rng=generator)

    def log_weight_components(
        self, san: SAN, source: Node, target: Node
    ) -> Tuple[float, float]:  # pragma: no cover - overridden where needed
        raise NotImplementedError


class UniformAttachment(AttachmentModel):
    """Every existing node is an equally likely target (alpha = beta = 0)."""

    name = "uniform"

    def weight(self, san: SAN, source: Node, target: Node) -> float:
        return 1.0


class PreferentialAttachment(AttachmentModel):
    """Classical preferential attachment on social in-degree."""

    name = "preferential_attachment"

    def __init__(self, alpha: float = 1.0, smoothing: float = 1.0) -> None:
        self.alpha = alpha
        self.smoothing = smoothing

    def weight(self, san: SAN, source: Node, target: Node) -> float:
        degree = san.social_in_degree(target) + self.smoothing
        return degree ** self.alpha


def shared_attribute_count(
    san: SAN,
    source: Node,
    target: Node,
    type_weights: Optional[Dict[str, float]] = None,
) -> float:
    """The paper's ``a(u, v)``: (optionally type-weighted) shared attributes."""
    common = san.common_attributes(source, target)
    if type_weights is None:
        return float(len(common))
    total = 0.0
    for attribute in common:
        total += type_weights.get(san.attribute_type(attribute), 1.0)
    return total


class PowerAttributePreferentialAttachment(AttachmentModel):
    """PAPA: ``f(u, v) ∝ d_i(v)^alpha (1 + a(u, v)^beta)``."""

    name = "papa"

    def __init__(self, params: AttachmentParameters) -> None:
        self.params = params

    def weight(self, san: SAN, source: Node, target: Node) -> float:
        degree = san.social_in_degree(target) + self.params.smoothing
        shared = shared_attribute_count(san, source, target, self.params.type_weights)
        # 0^0 == 1 by convention so beta = 0 reduces PAPA to 2 * PA ∝ PA.
        attribute_factor = 1.0 + (shared ** self.params.beta if shared > 0 else (1.0 if self.params.beta == 0 else 0.0))
        return (degree ** self.params.alpha) * attribute_factor


class LinearAttributePreferentialAttachment(AttachmentModel):
    """LAPA: ``f(u, v) ∝ d_i(v)^alpha (1 + beta * a(u, v))``."""

    name = "lapa"

    def __init__(self, params: AttachmentParameters) -> None:
        self.params = params

    def weight(self, san: SAN, source: Node, target: Node) -> float:
        degree = san.social_in_degree(target) + self.params.smoothing
        shared = shared_attribute_count(san, source, target, self.params.type_weights)
        return (degree ** self.params.alpha) * (1.0 + self.params.beta * shared)


def make_attachment_model(
    alpha: float = 1.0,
    beta: float = 0.0,
    kind: str = "lapa",
    smoothing: float = 1.0,
    type_weights: Optional[Dict[str, float]] = None,
) -> AttachmentModel:
    """Factory covering the four families used in the Figure 15 sweep."""
    params = AttachmentParameters(
        alpha=alpha, beta=beta, smoothing=smoothing, type_weights=type_weights
    )
    if kind == "uniform" or (alpha == 0 and beta == 0):
        return UniformAttachment()
    if kind == "pa" or beta == 0:
        return PreferentialAttachment(alpha=alpha, smoothing=smoothing)
    if kind == "papa":
        return PowerAttributePreferentialAttachment(params)
    if kind == "lapa":
        return LinearAttributePreferentialAttachment(params)
    raise ValueError(f"unknown attachment kind {kind!r}")


def sample_lapa_target_fast(
    san: SAN,
    source: Node,
    params: AttachmentParameters,
    rng: RngLike = None,
    in_degree_pool: Optional[Sequence[Node]] = None,
    node_pool: Optional[Sequence[Node]] = None,
    exclude: Optional[Iterable[Node]] = None,
    max_retries: int = LAPA_MAX_RETRIES,
) -> Optional[Node]:
    """Draw from the exact LAPA distribution without scanning every node.

    The LAPA weight decomposes (for ``alpha = 1``) into a degree term and an
    attribute term::

        f(u, v) = (d_i(v) + s) * (1 + beta * a(u, v))
                = (d_i(v) + s)  +  beta * a(u, v) * (d_i(v) + s)

    so sampling can proceed in two stages: pick the component proportional to
    its total mass, then sample within it.  The degree component is sampled
    from ``in_degree_pool`` (a list containing each node once per incoming
    link, giving ∝ d_i) mixed with ``node_pool`` (each node once, giving the
    smoothing term); the attribute component only requires iterating over the
    members of ``source``'s attributes.

    ``in_degree_pool`` / ``node_pool`` default to structures recomputed from
    the SAN, so callers that maintain them incrementally (the generative model)
    avoid the O(V) rebuild.
    """
    generator = ensure_rng(rng)
    excluded = set(exclude) if exclude is not None else set()
    excluded.add(source)

    if node_pool is None:
        node_pool = [node for node in san.social_nodes()]
    if in_degree_pool is None:
        in_degree_pool = [target for _, target in san.social_edges()]
    if not node_pool:
        return None

    smoothing = params.smoothing
    alpha = params.alpha
    beta = params.beta

    if alpha != 1.0:
        # Exact-but-slow fallback for non-unit alpha (tests / small graphs).
        model = LinearAttributePreferentialAttachment(params)
        candidates = [node for node in node_pool if node not in excluded]
        return model.sample_target(san, source, candidates, rng=generator)

    # Attribute component: weight beta * a(u, v) * (d_i(v) + smoothing).
    attribute_weights: Dict[Node, float] = {}
    if beta > 0:
        for attribute in sorted(san.attribute_neighbors(source), key=str):
            type_weight = 1.0
            if params.type_weights is not None:
                type_weight = params.type_weights.get(san.attribute_type(attribute), 1.0)
            for member in san.attributes.members_of(attribute):
                if member in excluded:
                    continue
                increment = beta * type_weight * (san.social_in_degree(member) + smoothing)
                attribute_weights[member] = attribute_weights.get(member, 0.0) + increment

    degree_mass = float(len(in_degree_pool)) + smoothing * len(node_pool)
    attribute_mass = sum(attribute_weights.values())
    total_mass = degree_mass + attribute_mass
    if total_mass <= 0:
        return None

    for _ in range(max_retries):
        if generator.random() * total_mass < attribute_mass and attribute_weights:
            members = list(attribute_weights)
            weights = [attribute_weights[member] for member in members]
            candidate = weighted_choice(members, weights, rng=generator)
        else:
            # Degree component: mix the in-degree pool with the smoothing pool.
            if generator.random() * degree_mass < len(in_degree_pool) and in_degree_pool:
                candidate = in_degree_pool[generator.randrange(len(in_degree_pool))]
            else:
                candidate = node_pool[generator.randrange(len(node_pool))]
        if candidate not in excluded:
            return candidate
    # Retries exhausted (tiny graphs); fall back to any non-excluded node.
    remaining = [node for node in node_pool if node not in excluded]
    if not remaining:
        return None
    return remaining[generator.randrange(len(remaining))]
