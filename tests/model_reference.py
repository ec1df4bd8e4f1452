"""Reference implementations that gate the production Algorithm 1 and Figure 15 code.

Nothing under ``src/`` imports this module.  It keeps the per-event loop
implementations that the array code in ``src/`` replaced, so the tests and
the engine benches can check the production code against a second,
independently written version of the same process:

* :func:`generate_san_loop` runs Algorithm 1 on a mutable dict-of-sets SAN,
  one edge at a time.  :func:`repro.models.san_model.generate_san` runs the
  same process on arrays.  The two share no random stream, so they are
  compared by two-sample KS tests on their degree distributions
  (``tests/test_models_fast_sim.py`` and ``benchmarks/bench_generative.py``).
* :func:`evaluate_attachment_models_loop` scores the Figure 15 attachment
  models by replaying the history through a mutable SAN and walking the
  source's attribute communities member by member.  It draws the same
  subsample stream as :func:`repro.models.evaluate_attachment_models`, so
  the two must agree exactly (``tests/test_models_likelihood.py``,
  ``tests/test_models_fast_likelihood.py`` and
  ``benchmarks/bench_likelihood.py``).
* :func:`encode_history_loop` lowers an object history into the scorer's
  arrays one event at a time; :func:`repro.models.fast_likelihood.encode_history`
  derives the same arrays from the history's int columns
  (``tests/test_models_fast_likelihood.py``).
* The samplers only these two use: the attachment weight models and the
  decomposed LAPA sampler, :func:`weighted_choice`, the scalar
  truncated-normal lifetime, and the closure models' ``sample_target``.

The three bounded-retry constants are imported from
:mod:`repro.models.san_model`, so both generators realise the same
bounded-retry distributions.  ``benchmarks/conftest.py`` puts this directory
on ``sys.path`` for the benches.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple, TypeVar

import numpy as np

from repro.algorithms.triangles import two_hop_social_neighbors
from repro.graph.builders import complete_seed_san
from repro.graph.san import SAN
from repro.models import triangle_closing as closing
from repro.models.fast_likelihood import (
    DEFAULT_LIKELIHOOD_SEED,
    AttachmentModelSpec,
    EncodedHistory,
    LikelihoodResult,
)
from repro.models.history import (
    EVENT_ATTRIBUTE,
    EVENT_NODE,
    EVENT_SOCIAL,
    ArrivalHistory,
    apply_event,
)
from repro.models.lifetime import sample_sleep_time
from repro.models.parameters import (
    AttachmentParameters,
    LifetimeParameters,
    SANModelParameters,
)
from repro.models.san_model import (
    ATTRIBUTE_LINK_RETRIES,
    CLOSURE_SAMPLE_TRIES,
    LAPA_MAX_RETRIES,
)
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.validation import require_positive

Node = Hashable
T = TypeVar("T")


# ----------------------------------------------------------------------
# Scalar samplers
# ----------------------------------------------------------------------
def weighted_choice(
    items: Sequence[T], weights: Sequence[float], rng: RngLike = None
) -> T:
    """Draw one item with probability proportional to its (non-negative) weight.

    Falls back to a uniform draw when every weight is zero.
    """
    if len(items) != len(weights):
        raise ValueError("items and weights must have the same length")
    if not items:
        raise ValueError("cannot choose from an empty sequence")
    generator = ensure_rng(rng)
    total = 0.0
    for weight in weights:
        if weight < 0:
            raise ValueError("weights must be non-negative")
        total += weight
    if total == 0:
        return items[generator.randrange(len(items))]
    threshold = generator.random() * total
    cumulative = 0.0
    for item, weight in zip(items, weights):
        cumulative += weight
        if cumulative >= threshold:
            return item
    return items[-1]


def sample_truncated_normal_lifetime(
    params: LifetimeParameters, rng: RngLike = None, max_rejections: int = 1000
) -> float:
    """One lifetime from ``Normal(mu, sigma)`` truncated to ``[0, inf)``.

    Rejection sampling, with ``max(0, draw)`` after ``max_rejections``
    rejected draws (pathological parameters only).
    """
    generator = ensure_rng(rng)
    for _ in range(max_rejections):
        draw = generator.gauss(params.mu, params.sigma)
        if draw >= 0:
            return draw
    return max(0.0, generator.gauss(params.mu, params.sigma))


# ----------------------------------------------------------------------
# Attachment models (Section 5.1)
# ----------------------------------------------------------------------
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
    return sum(type_weights.get(san.attribute_type(attribute), 1.0) for attribute in common)


class AttachmentModel:
    """A weight ``f(u, v)`` on "social node ``u`` links to social node ``v``"."""

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
        return weighted_choice(list(candidates), weights, rng=generator)


class UniformAttachment(AttachmentModel):
    """``f(u, v) = 1``."""

    name = "uniform"

    def weight(self, san: SAN, source: Node, target: Node) -> float:
        return 1.0


class PreferentialAttachment(AttachmentModel):
    """PA: ``f(u, v) = (d_i(v) + s)^alpha``."""

    name = "preferential_attachment"

    def __init__(self, alpha: float = 1.0, smoothing: float = 1.0) -> None:
        self.alpha = alpha
        self.smoothing = smoothing

    def weight(self, san: SAN, source: Node, target: Node) -> float:
        return (san.social_in_degree(target) + self.smoothing) ** self.alpha


class PowerAttributePreferentialAttachment(PreferentialAttachment):
    """PAPA: ``f(u, v) = (d_i(v) + s)^alpha (1 + a(u, v)^beta)``."""

    name = "papa"

    def __init__(
        self,
        alpha: float = 1.0,
        beta: float = 0.0,
        smoothing: float = 1.0,
        type_weights: Optional[Dict[str, float]] = None,
    ) -> None:
        super().__init__(alpha=alpha, smoothing=smoothing)
        self.beta = beta
        self.type_weights = type_weights

    def attribute_factor(self, shared: float) -> float:
        # 0^0 == 1 by convention, so beta = 0 makes PAPA 2 * PA, which is ∝ PA.
        if shared > 0:
            return 1.0 + shared ** self.beta
        return 2.0 if self.beta == 0 else 1.0

    def weight(self, san: SAN, source: Node, target: Node) -> float:
        shared = shared_attribute_count(san, source, target, self.type_weights)
        return super().weight(san, source, target) * self.attribute_factor(shared)


class LinearAttributePreferentialAttachment(PowerAttributePreferentialAttachment):
    """LAPA: ``f(u, v) = (d_i(v) + s)^alpha (1 + beta * a(u, v))``."""

    name = "lapa"

    def attribute_factor(self, shared: float) -> float:
        return 1.0 + self.beta * shared


def make_attachment_model(
    alpha: float = 1.0,
    beta: float = 0.0,
    kind: str = "lapa",
    smoothing: float = 1.0,
    type_weights: Optional[Dict[str, float]] = None,
) -> AttachmentModel:
    """The four Figure 15 families by name."""
    if kind == "uniform" or (alpha == 0 and beta == 0):
        return UniformAttachment()
    if kind == "pa" or beta == 0:
        return PreferentialAttachment(alpha=alpha, smoothing=smoothing)
    if kind == "papa":
        return PowerAttributePreferentialAttachment(alpha, beta, smoothing, type_weights)
    if kind == "lapa":
        return LinearAttributePreferentialAttachment(alpha, beta, smoothing, type_weights)
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

    The LAPA weight decomposes into a degree term and an attribute term::

        f(u, v) = (d_i(v) + s) * (1 + beta * a(u, v))
                = (d_i(v) + s)  +  beta * a(u, v) * (d_i(v) + s)

    so a draw picks a component in proportion to its total mass, then a node
    within it.  The degree component mixes ``in_degree_pool`` (each node once
    per incoming link) with ``node_pool`` (each node once, the smoothing
    term); the attribute component iterates over the members of
    ``source``'s attributes only.  Both pools default to structures rebuilt
    from the SAN; the loop generator maintains them incrementally.
    """
    generator = ensure_rng(rng)
    excluded = set(exclude) if exclude is not None else set()
    excluded.add(source)

    if node_pool is None:
        node_pool = list(san.social_nodes())
    if in_degree_pool is None:
        in_degree_pool = [target for _, target in san.social_edges()]
    if not node_pool:
        return None

    smoothing = params.smoothing
    beta = params.beta

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
        elif generator.random() * degree_mass < len(in_degree_pool) and in_degree_pool:
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


# ----------------------------------------------------------------------
# Closure models with sampling (Section 5.2)
# ----------------------------------------------------------------------
class BaselineClosing(closing.BaselineClosing):
    """Baseline closure plus a uniform draw from the two-hop social set."""

    def sample_target(self, san: SAN, source: Node, rng: RngLike = None) -> Optional[Node]:
        generator = ensure_rng(rng)
        candidates = list(two_hop_social_neighbors(san, source))
        if not candidates:
            return None
        return candidates[generator.randrange(len(candidates))]


class RandomRandomClosing(closing.RandomRandomClosing):
    """RR closure plus its draw: a uniform neighbour, then a uniform neighbour of it."""

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


class RandomRandomSANClosing(closing.RandomRandomSANClosing):
    """RR-SAN closure plus its draw, whose first hop may be an attribute node."""

    def sample_target(self, san: SAN, source: Node, rng: RngLike = None) -> Optional[Node]:
        generator = ensure_rng(rng)
        nodes, weights = self._first_hop_weights(san, source)
        total = sum(weights)
        if not nodes or total <= 0:
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


# ----------------------------------------------------------------------
# Algorithm 1, one edge at a time
# ----------------------------------------------------------------------
@dataclass
class LoopSANModelRun:
    """Output of one loop run: mutable SANs and a recorded history."""

    san: SAN
    history: ArrivalHistory
    snapshots: List[Tuple[int, SAN]] = field(default_factory=list)
    parameters: Optional[SANModelParameters] = None
    sybil_nodes: List[Node] = field(default_factory=list)


class SANGenerativeModel:
    """Algorithm 1 with the LAPA and RR-SAN building blocks, on a mutable SAN.

    Per step: ``N(t)`` nodes arrive; each draws a lognormal attribute degree
    and links each attribute to a new attribute node with probability ``p``
    or else to an existing one by social degree (re-drawing collisions up to
    ``ATTRIBUTE_LINK_RETRIES`` times); links once by LAPA (PA when
    ``use_lapa`` is off); then draws a truncated-normal lifetime and an
    exponential sleep with mean ``m_s / out_degree``.  Every node whose sleep
    ran out, and whose lifetime did not, links once by RR-SAN (RR when
    ``use_focal_closure`` is off) and sleeps again.  A new link is
    reciprocated with ``reciprocation_probability``.  The complete seed SAN's
    nodes draw lifetimes and sleeps at step 0 like every later arrival.
    Every draw over a set of attribute labels orders it by ``str(label)``
    first, so the output depends on the seed alone.
    """

    def __init__(self, params: Optional[SANModelParameters] = None, rng: RngLike = None) -> None:
        self.params = params if params is not None else SANModelParameters()
        self._rng = ensure_rng(rng)

    def generate(
        self, snapshot_every: Optional[int] = None, record_history: bool = True
    ) -> LoopSANModelRun:
        """Run the process for ``params.steps`` steps.

        ``snapshot_every`` stores a copy of the SAN every that many steps
        (plus the final state); ``record_history`` keeps the arrival history.
        """
        if snapshot_every is not None:
            require_positive(snapshot_every, "snapshot_every")
        params = self.params
        rng = self._rng

        san = complete_seed_san(params.seed_social_nodes, params.seed_attribute_nodes)
        history = ArrivalHistory(initial=san.copy()) if record_history else ArrivalHistory()

        node_pool: List[Node] = list(san.social_nodes())
        in_degree_pool: List[Node] = [target for _, target in san.social_edges()]
        attribute_pool: List[Node] = sorted(
            (attr for _, attr in san.attribute_edges()), key=str
        )
        next_social_id = max(int(n) for n in node_pool) + 1
        next_attribute_id = 0

        death_time: Dict[Node, float] = {}
        wake_heap: List[Tuple[float, int, Node]] = []
        heap_counter = 0

        for node in node_pool:
            death_time[node] = sample_truncated_normal_lifetime(params.lifetime, rng=rng)
            sleep = sample_sleep_time(params.lifetime, san.social_out_degree(node), rng=rng)
            heap_counter += 1
            heapq.heappush(wake_heap, (sleep, heap_counter, node))

        closing_model = (
            RandomRandomSANClosing(attribute_weight=params.focal_weight)
            if params.use_focal_closure
            else RandomRandomClosing()
        )
        attachment_params = params.attachment if params.use_lapa else AttachmentParameters(
            beta=0.0, smoothing=params.attachment.smoothing
        )

        snapshots: List[Tuple[int, SAN]] = []
        sybil_nodes: List[Node] = []
        flash_by_step: Dict[int, int] = {}
        for crowd in params.flash_crowds:
            flash_by_step[crowd.step] = flash_by_step.get(crowd.step, 0) + crowd.arrivals
        waves_by_step: Dict[int, List] = {}
        for wave in params.sybil_waves:
            waves_by_step.setdefault(wave.step, []).append(wave)

        def add_social_edge(source: Node, target: Node) -> bool:
            if source == target or san.has_social_edge(source, target):
                return False
            san.add_social_edge(source, target)
            in_degree_pool.append(target)
            if record_history:
                history.record_social_link(source, target)
            return True

        def link_attribute(node: Node, dropped: Optional[Node] = None) -> None:
            """One new-vs-existing attribute draw with bounded collision retries."""
            nonlocal next_attribute_id
            attribute = None
            for _attempt in range(ATTRIBUTE_LINK_RETRIES):
                if rng.random() < params.new_attribute_probability or not attribute_pool:
                    attribute = f"attr:{next_attribute_id}"
                    next_attribute_id += 1
                    break
                candidate = attribute_pool[rng.randrange(len(attribute_pool))]
                if candidate != dropped and not san.has_attribute_edge(node, candidate):
                    attribute = candidate
                    break
            if attribute is None:
                return  # every retry collided with an existing link
            san.add_attribute_edge(node, attribute, attr_type="model")
            attribute_pool.append(attribute)
            if record_history:
                history.record_attribute_link(node, attribute, attr_type="model")

        def attach(node: Node) -> Optional[Node]:
            return sample_lapa_target_fast(
                san,
                node,
                attachment_params,
                rng=rng,
                in_degree_pool=in_degree_pool,
                node_pool=node_pool,
            )

        for step in range(1, params.steps + 1):
            for _ in range(params.arrivals_per_step + flash_by_step.get(step, 0)):
                new_node = next_social_id
                next_social_id += 1
                san.add_social_node(new_node)
                node_pool.append(new_node)
                if record_history:
                    history.record_node(new_node)

                draw = rng.lognormvariate(params.attribute_mu, params.attribute_sigma)
                for _ in range(int(round(draw))):
                    link_attribute(new_node)

                target = attach(new_node)
                if target is not None and add_social_edge(new_node, target):
                    if rng.random() < params.reciprocation_probability:
                        add_social_edge(target, new_node)

                lifetime = sample_truncated_normal_lifetime(params.lifetime, rng=rng)
                death_time[new_node] = step + lifetime
                sleep = sample_sleep_time(
                    params.lifetime, san.social_out_degree(new_node), rng=rng
                )
                heap_counter += 1
                heapq.heappush(wake_heap, (step + sleep, heap_counter, new_node))

            # Sybils join the graph but stay out of the sampling pools: they
            # declare no attributes, never wake, and are never attachment
            # targets; only their attack edges touch the honest region.
            for wave in waves_by_step.get(step, ()):
                wave_members: List[Node] = []
                for _ in range(wave.num_sybils):
                    sybil = next_social_id
                    next_social_id += 1
                    san.add_social_node(sybil)
                    if record_history:
                        history.record_node(sybil)
                    sybil_nodes.append(sybil)
                    wave_members.append(sybil)
                    for _ in range(wave.attack_edges_per_sybil):
                        add_social_edge(sybil, node_pool[rng.randrange(len(node_pool))])
                if len(wave_members) >= 2:
                    for _ in range(wave.intra_links):
                        first = wave_members[rng.randrange(len(wave_members))]
                        second = wave_members[rng.randrange(len(wave_members))]
                        if first == second:
                            continue
                        add_social_edge(first, second)
                        add_social_edge(second, first)

            while wake_heap and wake_heap[0][0] <= step:
                wake_time, _, node = heapq.heappop(wake_heap)
                if wake_time > death_time[node]:
                    continue  # the lifetime expired while sleeping
                target = closing_model.sample_target(san, node, rng=rng)
                if target is None:
                    target = attach(node)
                if target is not None and san.is_social_node(target):
                    if add_social_edge(node, target) and rng.random() < params.reciprocation_probability:
                        add_social_edge(target, node)
                sleep = sample_sleep_time(params.lifetime, san.social_out_degree(node), rng=rng)
                heap_counter += 1
                heapq.heappush(wake_heap, (wake_time + sleep, heap_counter, node))

            if params.attribute_churn_rate and rng.random() < params.attribute_churn_rate:
                churner = node_pool[rng.randrange(len(node_pool))]
                held = sorted(san.attribute_neighbors(churner), key=str)
                if held:
                    dropped = held[rng.randrange(len(held))]
                    san.remove_attribute_edge(churner, dropped)
                    attribute_pool.remove(dropped)
                    if record_history:
                        history.record_attribute_removal(churner, dropped)
                    link_attribute(churner, dropped=dropped)

            if snapshot_every is not None and step % snapshot_every == 0:
                snapshots.append((step, san.copy()))

        if snapshot_every is not None and (not snapshots or snapshots[-1][0] != params.steps):
            snapshots.append((params.steps, san.copy()))

        return LoopSANModelRun(
            san=san,
            history=history,
            snapshots=snapshots,
            parameters=params,
            sybil_nodes=sybil_nodes,
        )


def generate_san_loop(
    params: Optional[SANModelParameters] = None,
    rng: RngLike = None,
    snapshot_every: Optional[int] = None,
    record_history: bool = False,
) -> LoopSANModelRun:
    """Build the loop model and run it once (same signature as ``generate_san``)."""
    return SANGenerativeModel(params=params, rng=rng).generate(
        snapshot_every=snapshot_every, record_history=record_history
    )


# ----------------------------------------------------------------------
# Figure 15 scoring, one link and one member at a time
# ----------------------------------------------------------------------
def evaluate_attachment_models_loop(
    history: ArrivalHistory,
    specs: Sequence[AttachmentModelSpec],
    smoothing: float = 1.0,
    max_links: Optional[int] = 2000,
    rng: RngLike = DEFAULT_LIKELIHOOD_SEED,
) -> LikelihoodResult:
    """Replay ``history`` through a mutable SAN and score each link per member.

    Each scored link ``u -> v`` adds ``log(f(u, v) / sum_x f(u, x))`` over
    the nodes existing at that moment, ``x != u``.  For every requested
    ``alpha`` the running sum ``S_alpha = sum_x (d_i(x) + s)^alpha`` is kept
    up to date, so a link only needs the attribute-community correction.
    One uniform variate is drawn per social-link event, the contract that
    makes the scored-link set identical to the production scorer's.
    """
    generator = ensure_rng(rng)
    total_links = history.num_social_links()
    if total_links == 0:
        raise ValueError("the arrival history contains no social link events")
    if max_links is None or max_links >= total_links:
        score_probability = 1.0
    else:
        score_probability = max_links / total_links

    alphas = sorted({spec.alpha for spec in specs})
    state = history.initial.copy()
    in_degree: Dict[Node, int] = {
        node: state.social_in_degree(node) for node in state.social_nodes()
    }
    alpha_sums: Dict[float, float] = {
        alpha: sum((degree + smoothing) ** alpha for degree in in_degree.values())
        for alpha in alphas
    }
    log_likelihoods = {spec.name: 0.0 for spec in specs}
    scored = 0

    def register_node(node: Node) -> None:
        if node in in_degree:
            return
        in_degree[node] = 0
        for alpha in alphas:
            alpha_sums[alpha] += smoothing ** alpha

    def register_social_edge(source: Node, target: Node) -> None:
        register_node(source)
        register_node(target)
        old_degree = in_degree[target]
        if state.has_social_edge(source, target):
            return
        in_degree[target] = old_degree + 1
        for alpha in alphas:
            alpha_sums[alpha] += (old_degree + 1 + smoothing) ** alpha - (
                old_degree + smoothing
            ) ** alpha

    for event in history.events:
        if event.kind in (EVENT_NODE, EVENT_ATTRIBUTE):
            register_node(event.first)
            apply_event(state, event)
            continue

        source, target = event.first, event.second
        register_node(source)
        register_node(target)
        if (
            generator.random() < score_probability
            and state.is_social_node(target)
            and not state.has_social_edge(source, target)
            and source != target
        ):
            _score_link(state, source, target, specs, smoothing, in_degree, alpha_sums, log_likelihoods)
            scored += 1
        register_social_edge(source, target)
        apply_event(state, event)

    if scored == 0:
        raise ValueError("no social links were scored; increase max_links")
    return LikelihoodResult(log_likelihoods=log_likelihoods, num_links_scored=scored)


def _score_link(
    state: SAN,
    source: Node,
    target: Node,
    specs: Sequence[AttachmentModelSpec],
    smoothing: float,
    in_degree: Dict[Node, int],
    alpha_sums: Dict[float, float],
    log_likelihoods: Dict[str, float],
) -> None:
    """Add one link's log-probability to every model's running total."""
    # Shared-attribute counts between the source and every member of its
    # attribute communities (all other nodes share zero attributes).
    shared_counts: Dict[Node, int] = {}
    for attribute in state.attribute_neighbors(source):
        for member in state.attributes.members_of(attribute):
            if member != source:
                shared_counts[member] = shared_counts.get(member, 0) + 1

    source_term: Dict[float, float] = {}
    for spec in specs:
        alpha = spec.alpha
        if alpha not in source_term:
            source_term[alpha] = (in_degree.get(source, 0) + smoothing) ** alpha
        base = alpha_sums[alpha] - source_term[alpha]
        if spec.kind in ("lapa", "papa") and spec.beta > 0:
            correction = 0.0
            for member, shared in shared_counts.items():
                weight = (in_degree.get(member, 0) + smoothing) ** alpha
                correction += weight * (spec.attribute_factor(shared) - 1.0)
            denominator = base + correction
        elif spec.kind == "papa" and spec.beta == 0:
            denominator = 2.0 * base
        else:
            denominator = base
        numerator = (
            (in_degree.get(target, 0) + smoothing) ** alpha
        ) * spec.attribute_factor(float(shared_counts.get(target, 0)))
        if numerator <= 0 or denominator <= 0:
            continue
        log_likelihoods[spec.name] += math.log(numerator / denominator)


# ----------------------------------------------------------------------
# Figure 15 encoding: the per-event pass over event objects
# ----------------------------------------------------------------------
def _csr_from_lists(
    rows: List[int], cols: List[int], pos: List[int], num_rows: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Group (row, col, position) triples into a CSR keyed by ``row``.

    The stable sort preserves arrival order within a row, so per-row
    positions stay ascending.
    """
    row_arr = np.asarray(rows, dtype=np.int64)
    order = np.argsort(row_arr, kind="stable")
    counts = np.bincount(row_arr, minlength=num_rows).astype(np.int64)
    indptr = np.zeros(num_rows + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    col_arr = np.asarray(cols, dtype=np.int64)[order]
    pos_arr = np.asarray(pos, dtype=np.int64)[order]
    return indptr, col_arr, pos_arr


def encode_history_loop(history: ArrivalHistory) -> EncodedHistory:
    """The per-event encoder: one pass over the event objects.

    The oracle of :func:`repro.models.fast_likelihood.encode_history`, which
    derives the same arrays from a history's int columns.

    The pass follows a replay's bookkeeping order exactly — node
    registrations happen at a node's first appearance in *any* event role,
    degree increments only for links not already present — which is what
    makes the prefix sums equal a replay's running ``S_alpha`` values.
    """
    initial = history.initial
    events = history.events
    node_ids: Dict[object, int] = {}
    attr_ids: Dict[object, int] = {}
    initial_degrees: List[int] = []
    for node in initial.social_nodes():
        node_ids[node] = len(node_ids)
        initial_degrees.append(initial.social_in_degree(node))
    num_initial = len(node_ids)
    for attribute in initial.attribute_nodes():
        attr_ids[attribute] = len(attr_ids)

    # Dense id-indexed state: ids are assigned consecutively, so flag
    # bytearrays and int-keyed dedup sets beat hashing labels/tuples in the
    # per-event hot loop below.  Social and attribute ids live in separate
    # namespaces, so membership keys need their own (attribute-id) stride.
    max_ids = num_initial + 2 * len(events) + 1
    edge_stride = max_ids
    attr_stride = len(attr_ids) + len(events) + 1
    edges = set()
    for source, target in initial.social_edges():
        edges.add(node_ids[source] * edge_stride + node_ids[target])

    member_rows: List[int] = []  # attribute id per membership
    member_cols: List[int] = []  # member (social) id
    member_pos: List[int] = []
    memberships = set()
    for social, attribute in initial.attribute_edges():
        key = node_ids[social] * attr_stride + attr_ids[attribute]
        if key not in memberships:
            memberships.add(key)
            member_cols.append(node_ids[social])
            member_rows.append(attr_ids[attribute])
            member_pos.append(0)

    degree: List[int] = list(initial_degrees)
    registered = bytearray(max_ids)
    san_social = bytearray(max_ids)
    for ident in range(num_initial):
        registered[ident] = 1
        san_social[ident] = 1
    updates: List[int] = []

    src_list: List[int] = []
    dst_list: List[int] = []
    pos_list: List[int] = []
    eligible_list: List[bool] = []
    src_deg_list: List[int] = []
    dst_deg_list: List[int] = []
    upd_list: List[int] = []
    gain_targets: List[int] = []
    gain_pos: List[int] = []

    node_get = node_ids.get
    attr_get = attr_ids.get
    updates_append = updates.append
    degree_append = degree.append
    src_append = src_list.append
    dst_append = dst_list.append
    pos_append = pos_list.append
    eligible_append = eligible_list.append
    src_deg_append = src_deg_list.append
    dst_deg_append = dst_deg_list.append
    upd_append = upd_list.append
    gain_target_append = gain_targets.append
    gain_pos_append = gain_pos.append
    edges_add = edges.add
    num_updates = 0

    for index, event in enumerate(events):
        kind = event.kind
        if kind == EVENT_SOCIAL:
            source = node_get(event.first)
            if source is None:
                source = node_ids[event.first] = len(node_ids)
                degree_append(0)
            target = node_get(event.second)
            if target is None:
                target = node_ids[event.second] = len(node_ids)
                degree_append(0)
            if not registered[source]:
                registered[source] = 1
                updates_append(-1)
                num_updates += 1
            if not registered[target]:
                registered[target] = 1
                updates_append(-1)
                num_updates += 1
            src_append(source)
            dst_append(target)
            pos_append(index)
            target_degree = degree[target]
            src_deg_append(degree[source])
            dst_deg_append(target_degree)
            upd_append(num_updates)
            edge_key = source * edge_stride + target
            if edge_key not in edges:
                eligible_append(san_social[target] == 1 and source != target)
                edges_add(edge_key)
                updates_append(target_degree)
                num_updates += 1
                degree[target] = target_degree + 1
                gain_target_append(target)
                gain_pos_append(index + 1)
            else:
                eligible_append(False)
            san_social[source] = 1
            san_social[target] = 1
            continue

        ident = node_get(event.first)
        if ident is None:
            ident = node_ids[event.first] = len(node_ids)
            degree_append(0)
        if not registered[ident]:
            registered[ident] = 1
            updates_append(-1)
            num_updates += 1
        if kind == EVENT_ATTRIBUTE:
            attribute = attr_get(event.second)
            if attribute is None:
                attribute = attr_ids[event.second] = len(attr_ids)
            key = ident * attr_stride + attribute
            if key not in memberships:
                memberships.add(key)
                member_cols.append(ident)
                member_rows.append(attribute)
                member_pos.append(index + 1)
        san_social[ident] = 1

    num_nodes = len(node_ids)
    num_events = len(history.events)
    d0 = np.zeros(num_nodes, dtype=np.int64)
    d0[:num_initial] = np.asarray(initial_degrees, dtype=np.int64)

    stride = num_events + 2
    target_arr = np.asarray(gain_targets, dtype=np.int64)
    gpos_arr = np.asarray(gain_pos, dtype=np.int64)
    order = np.argsort(target_arr, kind="stable")  # positions ascend per target
    gain_comp = target_arr[order] * stride + gpos_arr[order]
    gain_counts = np.bincount(target_arr, minlength=num_nodes).astype(np.int64)
    gain_indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(gain_counts, out=gain_indptr[1:])

    node_attr_indptr, node_attr_ids, node_attr_pos = _csr_from_lists(
        member_cols, member_rows, member_pos, num_nodes
    )
    attr_member_indptr, attr_member_ids, attr_member_pos = _csr_from_lists(
        member_rows, member_cols, member_pos, len(attr_ids)
    )

    return EncodedHistory(
        num_nodes=num_nodes,
        num_initial_nodes=num_initial,
        num_attributes=len(attr_ids),
        num_events=num_events,
        initial_in_degree=d0,
        social_src=np.asarray(src_list, dtype=np.int64),
        social_dst=np.asarray(dst_list, dtype=np.int64),
        social_pos=np.asarray(pos_list, dtype=np.int64),
        social_eligible=np.asarray(eligible_list, dtype=bool),
        social_src_degree=np.asarray(src_deg_list, dtype=np.int64),
        social_dst_degree=np.asarray(dst_deg_list, dtype=np.int64),
        social_update_count=np.asarray(upd_list, dtype=np.int64),
        update_old_degree=np.asarray(updates, dtype=np.int64),
        gain_comp=gain_comp,
        gain_indptr=gain_indptr,
        node_attr_indptr=node_attr_indptr,
        node_attr_ids=node_attr_ids,
        node_attr_pos=node_attr_pos,
        attr_member_indptr=attr_member_indptr,
        attr_member_ids=attr_member_ids,
        attr_member_pos=attr_member_pos,
    )
