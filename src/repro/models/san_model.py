"""The paper's generative model for Social-Attribute Networks (Algorithm 1).

The stochastic process, per simulated time step ``t``:

1. **Social node arrival** — ``N(t)`` new social nodes join (``N(t) = 1`` by
   default, as in the paper).
2. For each new node:
   a. **Attribute degree sampling** — the number of attributes is drawn from a
      lognormal distribution.
   b. **Attribute linking** — each attribute link goes to a brand-new attribute
      node with probability ``p``, otherwise to an existing attribute node
      chosen with probability proportional to its social degree.
   c. **First outgoing link** — chosen with the LAPA model (attribute-augmented
      preferential attachment); the classical PA model when ``use_lapa`` is
      off (the Figure 18a ablation).
   d. **Lifetime sampling** — truncated normal.
   e. **Sleep time sampling** — exponential with mean ``m_s / out_degree``.
3. **Outgoing linking** — every node whose sleep expired this step (and whose
   lifetime has not) issues one outgoing link via the RR-SAN triangle-closing
   model (classical RR when ``use_focal_closure`` is off — Figure 18b), then
   sleeps again.

Incoming links arrive implicitly as other nodes' outgoing links; an optional
reciprocation probability creates immediate back-links so the generated SAN's
reciprocity matches the 0.38-0.46 range measured on Google+.

Initialization follows Section 5.3: the process starts from a small complete
SAN whose seed social nodes sample lifetimes and sleep times at step 0, so
they participate in outgoing linking exactly like later arrivals.  Attribute
links whose existing-attribute draw collides with an attribute the node
already holds are re-drawn (bounded by ``ATTRIBUTE_LINK_RETRIES``) so the
realized attribute degree tracks the sampled lognormal.

This module is the reference *loop* implementation, and the only one for
attachment exponents other than 1.  The array-backed implementation in
:mod:`repro.models.fast_sim` runs the identical process at scale;
:func:`repro.models.fast_sim.san_generate` picks between them by exponent.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Tuple

from ..graph.builders import complete_seed_san
from ..graph.san import SAN
from ..utils.rng import RngLike, ensure_rng
from ..utils.validation import require_positive
from .attachment import sample_lapa_target_fast
from .history import ArrivalHistory
from .lifetime import sample_sleep_time, sample_truncated_normal_lifetime
from .parameters import AttachmentParameters, SANModelParameters
from .triangle_closing import RandomRandomClosing, RandomRandomSANClosing

Node = Hashable

#: Bounded retries for one attribute-link draw whose existing-attribute pick
#: collides with an attribute the node already holds.  Dropping the draw (the
#: pre-fix behaviour) silently biased realized attribute degree below the
#: sampled lognormal; re-drawing keeps the marginal new-vs-existing split
#: intact while preserving the sampled degree.  Shared with the vectorized
#: engine so both implement the same bounded-retry distribution.
ATTRIBUTE_LINK_RETRIES = 10


@dataclass
class SANModelRun:
    """Output of one generative-model run."""

    san: SAN
    history: ArrivalHistory
    snapshots: List[Tuple[int, SAN]] = field(default_factory=list)
    parameters: Optional[SANModelParameters] = None
    sybil_nodes: List[Node] = field(default_factory=list)


class SANGenerativeModel:
    """Generator implementing Algorithm 1 with the LAPA and RR-SAN building blocks."""

    def __init__(self, params: Optional[SANModelParameters] = None, rng: RngLike = None) -> None:
        self.params = params if params is not None else SANModelParameters()
        self._rng = ensure_rng(rng)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def generate(
        self, snapshot_every: Optional[int] = None, record_history: bool = True
    ) -> SANModelRun:
        """Run the stochastic process for ``params.steps`` time steps.

        ``snapshot_every`` stores a copy of the SAN every that-many steps
        (plus the final state), producing a snapshot sequence usable by the
        evolution metrics.  ``record_history`` controls whether an
        :class:`ArrivalHistory` (needed by the likelihood analyses) is kept.

        Every draw over a set of attribute labels orders the set by
        ``str(label)`` first, so the output depends on the seed alone, not on
        ``PYTHONHASHSEED``.
        """
        if snapshot_every is not None:
            require_positive(snapshot_every, "snapshot_every")
        params = self.params
        rng = self._rng

        san = complete_seed_san(params.seed_social_nodes, params.seed_attribute_nodes)
        history = ArrivalHistory(initial=san.copy()) if record_history else ArrivalHistory()

        # Incremental sampling pools.
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

        # Seed social nodes follow the same lifetime/sleep process as every
        # later arrival (Algorithm 1 draws them at step 0); without this they
        # would never wake and hence never issue outgoing links after seeding.
        for node in node_pool:
            lifetime = sample_truncated_normal_lifetime(params.lifetime, rng=rng)
            death_time[node] = lifetime
            sleep = sample_sleep_time(
                params.lifetime, san.social_out_degree(node), rng=rng
            )
            heap_counter += 1
            heapq.heappush(wake_heap, (sleep, heap_counter, node))

        closing_model = (
            RandomRandomSANClosing(attribute_weight=params.focal_weight)
            if params.use_focal_closure
            else RandomRandomClosing()
        )
        attachment_params = params.attachment if params.use_lapa else AttachmentParameters(
            alpha=params.attachment.alpha, beta=0.0, smoothing=params.attachment.smoothing
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
            """Insert a social edge, updating pools and the history."""
            if source == target or san.has_social_edge(source, target):
                return False
            san.add_social_edge(source, target)
            in_degree_pool.append(target)
            if record_history:
                history.record_social_link(source, target)
            return True

        for step in range(1, params.steps + 1):
            # -------------------- social node arrival --------------------
            arrivals = params.arrivals_per_step + flash_by_step.get(step, 0)
            for _ in range(arrivals):
                new_node = next_social_id
                next_social_id += 1
                san.add_social_node(new_node)
                node_pool.append(new_node)
                if record_history:
                    history.record_node(new_node)

                # ---------------- attribute degree & linking ----------------
                num_attributes = self._sample_attribute_degree(rng)
                for _ in range(num_attributes):
                    attribute = None
                    for _attempt in range(ATTRIBUTE_LINK_RETRIES):
                        if rng.random() < params.new_attribute_probability or not attribute_pool:
                            attribute = f"attr:{next_attribute_id}"
                            next_attribute_id += 1
                            break
                        candidate = attribute_pool[rng.randrange(len(attribute_pool))]
                        if not san.has_attribute_edge(new_node, candidate):
                            attribute = candidate
                            break
                    if attribute is None:
                        continue  # every retry collided with an existing link
                    san.add_attribute_edge(new_node, attribute, attr_type="model")
                    attribute_pool.append(attribute)
                    if record_history:
                        history.record_attribute_link(
                            new_node, attribute, attr_type="model"
                        )

                # ---------------- first outgoing link (LAPA) ----------------
                target = sample_lapa_target_fast(
                    san,
                    new_node,
                    attachment_params,
                    rng=rng,
                    in_degree_pool=in_degree_pool,
                    node_pool=node_pool,
                )
                if target is not None and add_social_edge(new_node, target):
                    if rng.random() < params.reciprocation_probability:
                        add_social_edge(target, new_node)

                # ---------------- lifetime & first sleep ----------------
                lifetime = sample_truncated_normal_lifetime(params.lifetime, rng=rng)
                death_time[new_node] = step + lifetime
                sleep = sample_sleep_time(
                    params.lifetime, san.social_out_degree(new_node), rng=rng
                )
                heap_counter += 1
                heapq.heappush(wake_heap, (step + sleep, heap_counter, new_node))

            # -------------------- Sybil infiltration waves --------------------
            # Sybils join the graph but stay out of the sampling pools: they
            # declare no attributes, never wake, and are never LAPA/uniform
            # targets — only their attack edges touch the honest region.
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
                        victim = node_pool[rng.randrange(len(node_pool))]
                        add_social_edge(sybil, victim)
                if len(wave_members) >= 2:
                    for _ in range(wave.intra_links):
                        first = wave_members[rng.randrange(len(wave_members))]
                        second = wave_members[rng.randrange(len(wave_members))]
                        if first == second:
                            continue
                        add_social_edge(first, second)
                        add_social_edge(second, first)

            # -------------------- woken nodes add links --------------------
            while wake_heap and wake_heap[0][0] <= step:
                wake_time, _, node = heapq.heappop(wake_heap)
                # Strict lookup: every scheduled node has a sampled death time
                # (a silent default would wrongly kill a missing node).
                if wake_time > death_time[node]:
                    continue  # the node's lifetime expired while sleeping
                target = closing_model.sample_target(san, node, rng=rng)
                if target is None:
                    target = sample_lapa_target_fast(
                        san,
                        node,
                        attachment_params,
                        rng=rng,
                        in_degree_pool=in_degree_pool,
                        node_pool=node_pool,
                    )
                if target is not None and san.is_social_node(target):
                    if add_social_edge(node, target) and rng.random() < params.reciprocation_probability:
                        add_social_edge(target, node)
                sleep = sample_sleep_time(
                    params.lifetime, san.social_out_degree(node), rng=rng
                )
                heap_counter += 1
                heapq.heappush(wake_heap, (wake_time + sleep, heap_counter, node))

            # -------------------- attribute churn --------------------
            if params.attribute_churn_rate and rng.random() < params.attribute_churn_rate:
                churner = node_pool[rng.randrange(len(node_pool))]
                held = sorted(san.attribute_neighbors(churner), key=str)
                if held:
                    dropped = held[rng.randrange(len(held))]
                    san.remove_attribute_edge(churner, dropped)
                    attribute_pool.remove(dropped)
                    if record_history:
                        history.record_attribute_removal(churner, dropped)
                    replacement = None
                    for _attempt in range(ATTRIBUTE_LINK_RETRIES):
                        if rng.random() < params.new_attribute_probability or not attribute_pool:
                            replacement = f"attr:{next_attribute_id}"
                            next_attribute_id += 1
                            break
                        candidate = attribute_pool[rng.randrange(len(attribute_pool))]
                        if candidate != dropped and not san.has_attribute_edge(
                            churner, candidate
                        ):
                            replacement = candidate
                            break
                    if replacement is not None:
                        san.add_attribute_edge(churner, replacement, attr_type="model")
                        attribute_pool.append(replacement)
                        if record_history:
                            history.record_attribute_link(
                                churner, replacement, attr_type="model"
                            )

            if snapshot_every is not None and step % snapshot_every == 0:
                snapshots.append((step, san.copy()))

        if snapshot_every is not None and (not snapshots or snapshots[-1][0] != params.steps):
            snapshots.append((params.steps, san.copy()))

        return SANModelRun(
            san=san,
            history=history,
            snapshots=snapshots,
            parameters=params,
            sybil_nodes=sybil_nodes,
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _sample_attribute_degree(self, rng) -> int:
        """Lognormal attribute degree, rounded to an integer (possibly zero)."""
        draw = rng.lognormvariate(self.params.attribute_mu, self.params.attribute_sigma)
        return int(round(draw))


def generate_san(
    params: Optional[SANModelParameters] = None,
    rng: RngLike = None,
    snapshot_every: Optional[int] = None,
    record_history: bool = True,
) -> SANModelRun:
    """Convenience wrapper: build the model and run it once."""
    return SANGenerativeModel(params=params, rng=rng).generate(
        snapshot_every=snapshot_every, record_history=record_history
    )
