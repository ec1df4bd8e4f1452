"""The paper's generative model for Social-Attribute Networks (Algorithm 1).

The stochastic process, per simulated time step ``t``:

1. **Social node arrival** — ``N(t)`` new social nodes join (``N(t) = 1`` by
   default, as in the paper), plus any flash-crowd extras.
2. For each new node:
   a. **Attribute degree sampling** — the number of attributes is drawn from a
      lognormal distribution.
   b. **Attribute linking** — each attribute link goes to a brand-new attribute
      node with probability ``p``, otherwise to an existing attribute node
      chosen with probability proportional to its social degree.  A draw
      that collides with an attribute the node already holds is re-drawn, at
      most ``ATTRIBUTE_LINK_RETRIES`` times, so the realized attribute degree
      tracks the sampled lognormal.
   c. **First outgoing link** — chosen with LAPA, ``f(u, v) ∝ (d_i(v) + s)
      (1 + beta a(u, v))``; the classical PA model when ``use_lapa`` is off
      (the Figure 18a ablation).
   d. **Lifetime sampling** — truncated normal.
   e. **Sleep time sampling** — exponential with mean ``m_s / out_degree``.
3. **Outgoing linking** — every node whose sleep expired this step (and whose
   lifetime has not) issues one outgoing link via the RR-SAN triangle-closing
   model (classical RR when ``use_focal_closure`` is off — Figure 18b), then
   sleeps again.

Incoming links arrive as other nodes' outgoing links; a reciprocation
probability creates immediate back-links so the generated SAN's reciprocity
matches the 0.38-0.46 range measured on Google+.  The process starts from a
small complete SAN whose nodes draw lifetimes and sleep times at step 0, so
they take part in outgoing linking like every later arrival (Section 5.3).
Sybil waves and attribute churn are optional regimes (see
:class:`~repro.models.parameters.SANModelParameters`).

The state is flat arrays, so a 50k+-step run is dominated by O(1)
bookkeeping:

* **Array pools** — the in-degree preferential-attachment pool *is* the
  append-only edge-target array (one entry per incoming link), and the
  attribute PA pool is the attribute-link target array, both stored in
  :class:`GrowableIntArray` buffers with amortized-doubling growth.
* **Batched draws** — lognormal attribute degrees, truncated-normal lifetimes
  and exponential sleep times are drawn in numpy blocks
  (:class:`_BlockSampler`) and consumed as scalars, instead of one
  transcendental call per event.
* **O(1) LAPA sampling** — the LAPA weight decomposes as
  ``f(u, v) = (d_i(v) + s) + beta * a(u, v) * (d_i(v) + s)`` and is sampled by
  component: the degree part from the edge-target pool, the attribute part by
  first picking one of ``u``'s attributes proportional to its maintained mass
  ``w_A * (S_A + s |A|)`` (``S_A`` = total member in-degree, tracked
  incrementally) and then a member proportional to ``d_i(v) + s`` from
  per-attribute pools — never scanning a community.
* **Bucketed wake queue** — wake events live in per-step buckets (the integer
  ceiling of the continuous wake time) and are processed in batches, with
  intra-step re-wakes looping until the step drains, which is the heap
  condition ``wake_time <= step``.
* **Delta snapshots** — ``snapshot_every`` records only
  :class:`SnapshotMark` watermarks (node/edge counts) over the append-only
  arrays; :meth:`SANModelRun.frozen_at` materializes a
  :class:`~repro.graph.frozen.FrozenSAN` from array *prefixes* on demand, so
  a 100k-step run with 20 snapshots costs one generation pass, not 20 deep
  copies.

A per-event loop implementation of the same process on a mutable SAN lives
beside the tests (``tests/model_reference.py``).  The two share no random
stream; the KS parity tests in ``tests/test_models_fast_sim.py`` and
``benchmarks/bench_generative.py`` compare their degree distributions.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..graph.bipartite import AttributeInfo
from ..graph.builders import complete_seed_san
from ..graph.frozen import FrozenSAN, pair_order
from ..utils.rng import RngLike, ensure_rng
from ..utils.validation import require_positive
from .history import (
    KIND_ATTRIBUTE,
    KIND_ATTRIBUTE_REMOVE,
    KIND_NODE,
    KIND_SOCIAL,
    ArrivalEvent,
    ArrivalHistory,
    HistoryColumns,
)
from .lifetime import truncated_normal_block
from .parameters import SANModelParameters

#: Bounded re-draws of one attribute link whose existing-attribute pick
#: collides with an attribute the node already holds.  Dropping the draw
#: would bias the realized attribute degree below the sampled lognormal;
#: re-drawing keeps the new-vs-existing split and the sampled degree.
ATTRIBUTE_LINK_RETRIES = 10

#: Bounded rejections of a LAPA draw that lands on the source itself.
LAPA_MAX_RETRIES = 20

#: Bounded attempts at a non-empty two-hop candidate set before the closure
#: step gives up and the node links by attachment instead.
CLOSURE_SAMPLE_TRIES = 10


class GrowableIntArray:
    """An int64 numpy buffer with amortized-doubling append/extend.

    The live prefix (``view()``) is always contiguous, which is what lets the
    pools double as uniform-sampling targets and the snapshot materializer
    slice edge prefixes without copying per snapshot.
    """

    __slots__ = ("data", "size")

    def __init__(self, capacity: int = 1024) -> None:
        self.data = np.empty(max(capacity, 16), dtype=np.int64)
        self.size = 0

    def append(self, value: int) -> None:
        data = self.data
        size = self.size
        if size == data.shape[0]:
            data = self._grow(size + 1)
        data[size] = value
        self.size = size + 1

    def _grow(self, needed: int) -> np.ndarray:
        capacity = self.data.shape[0]
        while capacity < needed:
            capacity *= 2
        fresh = np.empty(capacity, dtype=np.int64)
        fresh[: self.size] = self.data[: self.size]
        self.data = fresh
        return fresh

    def view(self) -> np.ndarray:
        """The live prefix (a view into the growth buffer — copy to keep)."""
        return self.data[: self.size]

    def __len__(self) -> int:
        return self.size


class _BlockSampler:
    """Batched numpy draws consumed as Python scalars.

    Each distribution keeps a pre-generated block (converted with
    ``tolist()`` so the hot loop pops native floats, not numpy scalars) that
    is refilled with one vectorized call when exhausted.  Lifetimes use
    :func:`~repro.models.lifetime.truncated_normal_block`, so the rejection
    step is vectorized too.
    """

    __slots__ = ("_generator", "_block", "_lognormal", "_exponential", "_lifetime", "_params")

    def __init__(self, generator: np.random.Generator, params: SANModelParameters, block: int = 4096) -> None:
        self._generator = generator
        self._block = block
        self._params = params
        self._lognormal: List[float] = []
        self._exponential: List[float] = []
        self._lifetime: List[float] = []

    def attribute_degree(self) -> int:
        """One rounded lognormal attribute-degree draw."""
        stack = self._lognormal
        if not stack:
            params = self._params
            draws = self._generator.lognormal(
                params.attribute_mu, params.attribute_sigma, self._block
            )
            # np.rint rounds half to even, as Python's round() does.
            stack.extend(np.rint(draws).astype(np.int64).tolist())
        return stack.pop()

    def standard_exponential(self) -> float:
        """One Exp(1) draw; callers scale by the sleep mean."""
        stack = self._exponential
        if not stack:
            stack.extend(self._generator.standard_exponential(self._block).tolist())
        return stack.pop()

    def lifetime(self) -> float:
        """One truncated-normal lifetime draw."""
        stack = self._lifetime
        if not stack:
            stack.extend(
                truncated_normal_block(
                    self._params.lifetime, self._generator, self._block
                ).tolist()
            )
        return stack.pop()


@dataclass(frozen=True)
class SnapshotMark:
    """Watermark over the append-only arrays: the network as of ``step``.

    Materializing the snapshot only needs the prefix lengths — the arrays
    themselves are shared with the final state, which is what makes a
    snapshot O(0) to *record* and one vectorized pass to *materialize*.

    ``num_attribute_edges`` counts *alive* links; under attribute churn the
    attribute-link arrays stay append-only and removals are tombstones, so the
    array watermark is ``num_attribute_edges + num_removed_links`` (every
    appended link is either alive or in the removal log).
    """

    step: int
    num_social_nodes: int
    num_social_edges: int
    num_attribute_nodes: int
    num_attribute_edges: int
    num_removed_links: int = 0


@dataclass
class SANModelRun:
    """Output of one Algorithm 1 run.

    The network lives in compact edge arrays (social node ``i`` is the label
    ``i``; attribute ids index ``attribute_labels``).  ``san`` materializes
    the final :class:`~repro.graph.frozen.FrozenSAN` on first access;
    ``snapshots`` materializes one frozen view per recorded
    :class:`SnapshotMark`.  Both are cached — repeated access is free.
    """

    parameters: SANModelParameters
    num_social_nodes: int
    social_src: np.ndarray
    social_dst: np.ndarray
    link_social: np.ndarray
    link_attr: np.ndarray
    attribute_labels: List[str]
    attribute_info: List[AttributeInfo]
    marks: List[SnapshotMark] = field(default_factory=list)
    #: Attribute-link array positions tombstoned by churn, in removal order.
    link_removed_positions: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int64)
    )
    #: Node ids injected by Sybil waves (empty without the regime).
    sybil_nodes: List[int] = field(default_factory=list)
    #: The compact event log, flat: ``kind, first, second`` per event.
    _event_log: Optional[List[int]] = None
    _final: Optional[FrozenSAN] = None
    _snapshots: Optional[List[Tuple[int, FrozenSAN]]] = None
    _orders: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = None

    @property
    def san(self) -> FrozenSAN:
        """The final network as a read-only CSR-backed FrozenSAN."""
        if self._final is None:
            self._final = self.frozen_at(None)
        return self._final

    @property
    def snapshots(self) -> List[Tuple[int, FrozenSAN]]:
        """``(step, FrozenSAN)`` pairs for every recorded watermark."""
        if self._snapshots is None:
            self._snapshots = [(mark.step, self.frozen_at(mark)) for mark in self.marks]
        return self._snapshots

    def frozen_at(self, mark: Optional[SnapshotMark]) -> FrozenSAN:
        """Materialize the network at ``mark`` (``None`` = final state).

        The append-only edge log is sorted once (four stable sorts of packed
        ``(row, column)`` keys, cached); any watermark's CSR arrays then
        follow from a stable position filter — the sorted order of an
        edge-log *prefix* is the sorted full order restricted to positions
        below the watermark.  Materializing ``k`` snapshots therefore costs
        one sort plus ``k`` linear passes, not ``k`` sorts.
        """
        if mark is None:
            n = self.num_social_nodes
            m = int(self.social_src.size)
            na = len(self.attribute_labels)
            ma = int(self.link_social.size)
            removed = int(self.link_removed_positions.size)
        else:
            n = mark.num_social_nodes
            m = mark.num_social_edges
            na = mark.num_attribute_nodes
            removed = mark.num_removed_links
            # Array watermark = alive links + tombstoned links at the mark.
            ma = mark.num_attribute_edges + removed
        alive: Optional[np.ndarray] = None
        if removed:
            alive = np.ones(self.link_attr.size, dtype=bool)
            alive[self.link_removed_positions[:removed]] = False
        if self._orders is None:
            self._orders = (
                pair_order(self.social_src, self.social_dst),
                pair_order(self.social_dst, self.social_src),
                pair_order(self.link_social, self.link_attr),
                pair_order(self.link_attr, self.link_social),
            )
        out_order, in_order, sa_order, as_order = self._orders

        def prefix_csr(order, row_full, col_full, count, num_rows, live=None):
            keep = order if count == order.size else order[order < count]
            if live is not None:
                keep = keep[live[keep]]
                counts = np.bincount(row_full[keep], minlength=num_rows).astype(np.int64)
            else:
                counts = np.bincount(row_full[:count], minlength=num_rows).astype(np.int64)
            indptr = np.zeros(num_rows + 1, dtype=np.int64)
            np.cumsum(counts, out=indptr[1:])
            return indptr, col_full[keep]

        from ..graph.frozen import FrozenBipartiteAttributeGraph, FrozenDiGraph

        out_indptr, out_indices = prefix_csr(
            out_order, self.social_src, self.social_dst, m, n
        )
        in_indptr, in_indices = prefix_csr(
            in_order, self.social_dst, self.social_src, m, n
        )
        social = FrozenDiGraph(
            list(range(n)), out_indptr, out_indices, in_indptr, in_indices
        )
        sa_indptr, sa_indices = prefix_csr(
            sa_order, self.link_social, self.link_attr, ma, n, live=alive
        )
        as_indptr, as_indices = prefix_csr(
            as_order, self.link_attr, self.link_social, ma, na, live=alive
        )
        attributes = FrozenBipartiteAttributeGraph(
            social.labels(),
            social._index,
            list(self.attribute_labels[:na]),
            list(self.attribute_info[:na]),
            sa_indptr,
            sa_indices,
            as_indptr,
            as_indices,
        )
        return FrozenSAN(social, attributes)

    def _event_columns(self) -> Optional[np.ndarray]:
        """The compact event log as an ``(events, 3)`` array (``None`` unrecorded)."""
        if self._event_log is None:
            return None
        return np.asarray(self._event_log, dtype=np.int64).reshape(-1, 3)

    def history_columns(self) -> HistoryColumns:
        """Arrival history of the run as int columns (the Figure 15 encoder's input).

        The initial state is the complete seed network and the events are
        the compact log as recorded, with the run's own node and attribute
        ids.  Like :meth:`history`, it is empty unless ``record_history``
        was set.
        """
        log = self._event_columns()
        if log is None:
            return ArrivalHistory().columns()
        params = self.parameters
        seeds = params.seed_social_nodes
        seed_attributes = params.seed_attribute_nodes
        ordered = np.arange(seeds, dtype=np.int64)
        sources, targets = np.repeat(ordered, seeds), np.tile(ordered, seeds)
        proper = sources != targets
        return HistoryColumns(
            num_initial_nodes=seeds,
            num_initial_attributes=seed_attributes,
            initial_src=sources[proper],
            initial_dst=targets[proper],
            initial_member=np.repeat(ordered, seed_attributes),
            initial_attribute=np.tile(np.arange(seed_attributes, dtype=np.int64), seeds),
            kind=log[:, 0].copy(),
            first=log[:, 1].copy(),
            second=log[:, 2].copy(),
        )

    def history(self) -> ArrivalHistory:
        """Arrival history of the run as event objects (empty unless recorded).

        The initial SAN is the complete seed network; events decode the
        compact log into :class:`~repro.models.history.ArrivalEvent` objects
        in arrival order.  The loop references read this form; the Figure 15
        scorer reads :meth:`history_columns`.
        """
        log = self._event_columns()
        if log is None:
            return ArrivalHistory()
        params = self.parameters
        history = ArrivalHistory(
            initial=complete_seed_san(
                params.seed_social_nodes, params.seed_attribute_nodes
            )
        )
        labels = self.attribute_labels
        events = history.events
        for kind, first, second in log.tolist():
            if kind == KIND_NODE:
                events.append(ArrivalEvent("node", first))
            elif kind == KIND_ATTRIBUTE:
                events.append(
                    ArrivalEvent("attribute", first, labels[second], attr_type="model")
                )
            elif kind == KIND_ATTRIBUTE_REMOVE:
                events.append(ArrivalEvent("attribute_remove", first, labels[second]))
            else:
                events.append(ArrivalEvent("social", first, second))
        return history

    def summary(self) -> Dict[str, float]:
        """Size summary matching ``SAN.summary()`` without materializing."""
        n = self.num_social_nodes
        na = len(self.attribute_labels)
        m = int(self.social_src.size)
        ma = int(self.link_social.size) - int(self.link_removed_positions.size)
        return {
            "social_nodes": n,
            "attribute_nodes": na,
            "social_edges": m,
            "attribute_edges": ma,
            "social_density": m / n if n else 0.0,
            "attribute_density": ma / na if na else 0.0,
        }


def _derive_generators(rng: RngLike) -> Tuple[np.random.Generator, random.Random]:
    """One numpy generator (block draws) + one MT generator (scalar uniforms).

    An integer seed maps deterministically to both streams, through its
    absolute value as ``random.Random`` and :func:`ensure_rng` take it (numpy
    rejects negative seeds); a ``random.Random`` or ``None`` input is reduced
    to a 64-bit seed first.
    """
    if isinstance(rng, int):
        seed = abs(rng)
    else:
        seed = ensure_rng(rng).getrandbits(64)
    # repro: lint-ignore[R009] -- fixed golden-ratio XOR decorrelating the
    # MT stream from the numpy stream derived off one seed; there is no
    # chunk index here, so the arithmetic cannot collide across streams
    return np.random.default_rng(seed), random.Random(seed ^ 0x9E3779B97F4A7C15)


def generate_san(
    params: Optional[SANModelParameters] = None,
    rng: RngLike = None,
    snapshot_every: Optional[int] = None,
    record_history: bool = False,
) -> SANModelRun:
    """Run Algorithm 1 for ``params.steps`` steps (see the module docstring).

    ``snapshot_every`` records a watermark every that many steps, plus the
    final state, for :attr:`SANModelRun.snapshots`.  ``record_history``
    keeps the compact event log that :meth:`SANModelRun.history_columns`
    hands to the likelihood analyses.  The output is a pure function of the
    seed.
    """
    params = params if params is not None else SANModelParameters()
    if snapshot_every is not None:
        require_positive(snapshot_every, "snapshot_every")
    np_gen, uni_rng = _derive_generators(rng)
    blocks = _BlockSampler(np_gen, params)
    uniform = uni_rng.random

    steps = params.steps
    arrivals_per_step = params.arrivals_per_step
    num_seed = params.seed_social_nodes
    num_seed_attrs = params.seed_attribute_nodes
    n_total = num_seed + params.total_arrivals()  # includes flash/Sybil extras
    stride = n_total  # node-pair key stride for the edge-dedup set
    flash_by_step: Dict[int, int] = {}
    for crowd in params.flash_crowds:
        flash_by_step[crowd.step] = flash_by_step.get(crowd.step, 0) + crowd.arrivals
    waves_by_step: Dict[int, list] = {}
    for wave in params.sybil_waves:
        waves_by_step.setdefault(wave.step, []).append(wave)
    churn_rate = params.attribute_churn_rate
    churn_enabled = churn_rate > 0.0

    attachment = params.attachment
    beta = attachment.beta if params.use_lapa else 0.0
    smoothing = attachment.smoothing
    type_weights = attachment.type_weights or {}
    focal_weight = params.focal_weight if params.use_focal_closure else 0.0
    reciprocation = params.reciprocation_probability
    p_new_attribute = params.new_attribute_probability
    mean_sleep = params.lifetime.mean_sleep
    track_attr_mass = beta > 0.0

    # ------------------------------------------------------------------
    # Array state
    # ------------------------------------------------------------------
    esrc = GrowableIntArray(4 * n_total)
    edst = GrowableIntArray(4 * n_total)  # doubles as the in-degree PA pool
    link_social = GrowableIntArray(4 * n_total)
    link_attr = GrowableIntArray(4 * n_total)  # doubles as the attribute PA pool
    out_degree = [0] * n_total
    in_degree = [0] * n_total
    death_time = [0.0] * n_total
    adjacency: List[List[int]] = [[] for _ in range(n_total)]  # distinct-neighbor lists
    node_attrs: List[List[int]] = [[] for _ in range(n_total)]
    # Churn tombstones: the link arrays stay append-only; removals flip a
    # per-position alive flag and log the position (the snapshot watermark).
    # ``node_attr_pos`` mirrors ``node_attrs`` with each link's array position.
    link_alive: List[bool] = []
    removed_log: List[int] = []
    node_attr_pos: List[List[int]] = [[] for _ in range(n_total)] if churn_enabled else []
    # Honest-node pool for uniform draws (Sybils are excluded from LAPA's
    # smoothing mass and from the uniform fallback).
    honest: List[int] = []
    sybil_nodes: List[int] = []
    attr_labels: List[str] = []
    attr_info: List[AttributeInfo] = []
    attr_weight: List[float] = []  # interned type weight per attribute
    members: List[List[int]] = []  # distinct members per attribute
    degree_pool: List[List[int]] = []  # member per in-link gained while a member
    edge_keys = set()
    buckets: List[List[Tuple[float, int]]] = [[] for _ in range(steps + 2)]
    event_log: Optional[List[int]] = [] if record_history else None

    # ------------------------------------------------------------------
    # Seed: the complete SAN of Section 5.3's initialization
    # ------------------------------------------------------------------
    for source in range(num_seed):
        adjacency[source] = [node for node in range(num_seed) if node != source]
        for target in range(num_seed):
            if source != target:
                esrc.append(source)
                edst.append(target)
                edge_keys.add(source * stride + target)
        out_degree[source] = num_seed - 1
        in_degree[source] = num_seed - 1
        honest.append(source)
    for attr_id in range(num_seed_attrs):
        attr_labels.append(f"seed:{attr_id}")
        attr_info.append(AttributeInfo(attr_type="seed", value=str(attr_id)))
        attr_weight.append(type_weights.get("seed", 1.0))
        members.append(list(range(num_seed)))
        # Every seed member already holds num_seed - 1 incoming links.
        degree_pool.append(
            [node for node in range(num_seed) for _ in range(num_seed - 1)]
        )
    for source in range(num_seed):
        node_attrs[source] = list(range(num_seed_attrs))
        for attr_id in range(num_seed_attrs):
            if churn_enabled:
                node_attr_pos[source].append(link_social.size)
                link_alive.append(True)
            link_social.append(source)
            link_attr.append(attr_id)
    num_nodes = num_seed
    num_attrs = num_seed_attrs
    num_alive_links = link_social.size

    # Seed social nodes are scheduled at step 0 like every later arrival.
    for node in range(num_seed):
        death_time[node] = blocks.lifetime()
        wake = blocks.standard_exponential() * (mean_sleep / max(out_degree[node], 1))
        bucket = max(1, math.ceil(wake))
        if bucket <= steps:
            buckets[bucket].append((wake, node))

    # ------------------------------------------------------------------
    # Samplers (closures over the hot state)
    # ------------------------------------------------------------------
    def add_edge(source: int, target: int) -> bool:
        if source == target:
            return False
        key = source * stride + target
        if key in edge_keys:
            return False
        edge_keys.add(key)
        esrc.append(source)
        edst.append(target)
        out_degree[source] += 1
        in_degree[target] += 1
        if target * stride + source not in edge_keys:
            adjacency[source].append(target)
            adjacency[target].append(source)
        if track_attr_mass:
            for attr_id in node_attrs[target]:
                degree_pool[attr_id].append(target)
        if event_log is not None:
            event_log.extend((KIND_SOCIAL, source, target))
        return True

    def sample_lapa(source: int) -> Optional[int]:
        # The LAPA decomposition of the module docstring, with
        # O(|Gamma_a(source)|) mass lookups instead of community scans.
        edge_count = esrc.size
        num_honest = len(honest)
        degree_mass = edge_count + smoothing * num_honest
        attribute_mass = 0.0
        masses: List[float] = []
        source_attrs = node_attrs[source]
        if beta > 0.0 and source_attrs:
            for attr_id in source_attrs:
                mass = attr_weight[attr_id] * (
                    len(degree_pool[attr_id]) + smoothing * len(members[attr_id])
                )
                masses.append(mass)
                attribute_mass += mass
            attribute_mass *= beta
        total_mass = degree_mass + attribute_mass
        if total_mass <= 0.0:
            return None
        for _ in range(LAPA_MAX_RETRIES):
            if attribute_mass > 0.0 and uniform() * total_mass < attribute_mass:
                threshold = uniform() * (attribute_mass / beta)
                cumulative = 0.0
                chosen = source_attrs[-1]
                for attr_id, mass in zip(source_attrs, masses):
                    cumulative += mass
                    if cumulative >= threshold:
                        chosen = attr_id
                        break
                pool = degree_pool[chosen]
                community = members[chosen]
                inner_mass = len(pool) + smoothing * len(community)
                if pool and uniform() * inner_mass < len(pool):
                    candidate = pool[int(uniform() * len(pool))]
                else:
                    candidate = community[int(uniform() * len(community))]
            elif edge_count and uniform() * degree_mass < edge_count:
                candidate = int(edst.data[int(uniform() * edge_count)])
            else:
                candidate = honest[int(uniform() * num_honest)]
            if candidate != source:
                return candidate
        # Retries exhausted (tiny graphs): any honest node but the source.
        if num_honest <= 1:
            return None
        while True:
            candidate = honest[int(uniform() * num_honest)]
            if candidate != source:
                return candidate

    def sample_closure(source: int) -> Optional[int]:
        # RR-SAN two-hop closure (RR when focal_weight is 0): a first hop
        # through a social neighbour (weight 1) or an attribute (weight fc),
        # then a uniform distinct neighbour or member other than the source.
        social_hops = adjacency[source]
        num_social = len(social_hops)
        source_attrs = node_attrs[source] if focal_weight > 0.0 else ()
        num_attr = len(source_attrs)
        total = num_social + focal_weight * num_attr
        if total <= 0.0:
            return None
        for _ in range(CLOSURE_SAMPLE_TRIES):
            if uniform() * total < num_social:
                pool = adjacency[social_hops[int(uniform() * num_social)]]
            else:
                pool = members[source_attrs[int(uniform() * num_attr)]]
            pool_size = len(pool)
            if pool_size == 0 or (pool_size == 1 and pool[0] == source):
                continue
            # The source occurs at most once in a distinct-member pool, so
            # rejection converges immediately in expectation.
            for _attempt in range(32):
                candidate = pool[int(uniform() * pool_size)]
                if candidate != source:
                    return candidate
        return None

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    marks: List[SnapshotMark] = []
    for step in range(1, steps + 1):
        for _ in range(arrivals_per_step + flash_by_step.get(step, 0)):
            node = num_nodes
            num_nodes += 1
            honest.append(node)
            if event_log is not None:
                event_log.extend((KIND_NODE, node, -1))

            # ---------------- attribute degree & linking ----------------
            my_attrs = node_attrs[node]
            for _draw in range(blocks.attribute_degree()):
                chosen_attr = -1
                for _attempt in range(ATTRIBUTE_LINK_RETRIES):
                    pool_size = link_attr.size
                    if uniform() < p_new_attribute or not num_alive_links:
                        chosen_attr = num_attrs
                        num_attrs += 1
                        label = f"attr:{chosen_attr - num_seed_attrs}"
                        attr_labels.append(label)
                        # Mirror the mutable backend's default of value =
                        # str(node id): a literal None would collapse every
                        # model attribute into one node on TSV round-trip.
                        attr_info.append(AttributeInfo(attr_type="model", value=label))
                        attr_weight.append(type_weights.get("model", 1.0))
                        members.append([])
                        degree_pool.append([])
                        break
                    position = int(uniform() * pool_size)
                    if churn_enabled:
                        # Tombstoned entries reject without consuming a
                        # retry, as if the pool were pruned eagerly.
                        while not link_alive[position]:
                            position = int(uniform() * pool_size)
                    candidate = int(link_attr.data[position])
                    if candidate not in my_attrs:
                        chosen_attr = candidate
                        break
                if chosen_attr < 0:
                    continue  # every retry collided with an existing link
                if churn_enabled:
                    node_attr_pos[node].append(link_social.size)
                    link_alive.append(True)
                link_social.append(node)
                link_attr.append(chosen_attr)
                num_alive_links += 1
                members[chosen_attr].append(node)
                my_attrs.append(chosen_attr)
                if event_log is not None:
                    event_log.extend((KIND_ATTRIBUTE, node, chosen_attr))

            # ---------------- first outgoing link (LAPA) ----------------
            target = sample_lapa(node)
            if target is not None and add_edge(node, target):
                if uniform() < reciprocation:
                    add_edge(target, node)

            # ---------------- lifetime & first sleep ----------------
            death_time[node] = step + blocks.lifetime()
            wake = step + blocks.standard_exponential() * (
                mean_sleep / max(out_degree[node], 1)
            )
            bucket = math.ceil(wake)
            if bucket <= steps:
                buckets[bucket].append((wake, node))

        # -------------------- Sybil infiltration waves --------------------
        # Sybils stay out of ``honest`` (no LAPA smoothing mass, never
        # uniform targets), declare no attributes and never wake; only their
        # attack edges (and any intra-wave links) touch the arrays.
        for wave in waves_by_step.get(step, ()):
            wave_members: List[int] = []
            for _ in range(wave.num_sybils):
                sybil = num_nodes
                num_nodes += 1
                sybil_nodes.append(sybil)
                wave_members.append(sybil)
                if event_log is not None:
                    event_log.extend((KIND_NODE, sybil, -1))
                for _ in range(wave.attack_edges_per_sybil):
                    victim = honest[int(uniform() * len(honest))]
                    add_edge(sybil, victim)
            if len(wave_members) >= 2:
                for _ in range(wave.intra_links):
                    first = wave_members[int(uniform() * len(wave_members))]
                    second = wave_members[int(uniform() * len(wave_members))]
                    if first == second:
                        continue
                    add_edge(first, second)
                    add_edge(second, first)

        # -------------------- woken nodes add links --------------------
        queue = buckets[step]
        while queue:
            requeue: List[Tuple[float, int]] = []
            for wake, node in queue:
                if wake > death_time[node]:
                    continue  # lifetime expired while sleeping
                target = sample_closure(node)
                if target is None:
                    target = sample_lapa(node)
                if target is not None and add_edge(node, target):
                    if uniform() < reciprocation:
                        add_edge(target, node)
                next_wake = wake + blocks.standard_exponential() * (
                    mean_sleep / max(out_degree[node], 1)
                )
                if next_wake > death_time[node]:
                    continue  # would be dropped at its next wake anyway
                if next_wake <= step:
                    requeue.append((next_wake, node))
                else:
                    bucket = math.ceil(next_wake)
                    if bucket <= steps:
                        buckets[bucket].append((next_wake, node))
            queue = requeue
        buckets[step] = []

        # -------------------- attribute churn --------------------
        # One churn event per step at most: a uniform honest node drops one
        # attribute link (tombstoned in the append-only arrays) and re-links
        # via the standard new-vs-existing bounded-retry rule.
        if churn_enabled and uniform() < churn_rate:
            churner = honest[int(uniform() * len(honest))]
            held = node_attrs[churner]
            if held:
                drop_index = int(uniform() * len(held))
                dropped = held[drop_index]
                drop_position = node_attr_pos[churner][drop_index]
                link_alive[drop_position] = False
                removed_log.append(drop_position)
                num_alive_links -= 1
                del held[drop_index]
                del node_attr_pos[churner][drop_index]
                members[dropped].remove(churner)
                if track_attr_mass:
                    degree_pool[dropped] = [
                        member for member in degree_pool[dropped] if member != churner
                    ]
                if event_log is not None:
                    event_log.extend((KIND_ATTRIBUTE_REMOVE, churner, dropped))
                replacement = -1
                for _attempt in range(ATTRIBUTE_LINK_RETRIES):
                    pool_size = link_attr.size
                    if uniform() < p_new_attribute or not num_alive_links:
                        replacement = num_attrs
                        num_attrs += 1
                        label = f"attr:{replacement - num_seed_attrs}"
                        attr_labels.append(label)
                        attr_info.append(AttributeInfo(attr_type="model", value=label))
                        attr_weight.append(type_weights.get("model", 1.0))
                        members.append([])
                        degree_pool.append([])
                        break
                    position = int(uniform() * pool_size)
                    while not link_alive[position]:
                        position = int(uniform() * pool_size)
                    candidate = int(link_attr.data[position])
                    if candidate != dropped and candidate not in held:
                        replacement = candidate
                        break
                if replacement >= 0:
                    node_attr_pos[churner].append(link_social.size)
                    link_alive.append(True)
                    link_social.append(churner)
                    link_attr.append(replacement)
                    num_alive_links += 1
                    members[replacement].append(churner)
                    held.append(replacement)
                    if track_attr_mass and in_degree[churner]:
                        # Unlike arrivals (in-degree 0 at link time), a churner
                        # carries existing in-links into its new community.
                        degree_pool[replacement].extend(
                            [churner] * in_degree[churner]
                        )
                    if event_log is not None:
                        event_log.extend((KIND_ATTRIBUTE, churner, replacement))

        if snapshot_every is not None and step % snapshot_every == 0:
            marks.append(
                SnapshotMark(
                    step,
                    num_nodes,
                    esrc.size,
                    num_attrs,
                    link_social.size - len(removed_log),
                    len(removed_log),
                )
            )

    if snapshot_every is not None and (not marks or marks[-1].step != steps):
        marks.append(
            SnapshotMark(
                steps,
                num_nodes,
                esrc.size,
                num_attrs,
                link_social.size - len(removed_log),
                len(removed_log),
            )
        )

    return SANModelRun(
        parameters=params,
        num_social_nodes=num_nodes,
        social_src=esrc.view().copy(),
        social_dst=edst.view().copy(),
        link_social=link_social.view().copy(),
        link_attr=link_attr.view().copy(),
        attribute_labels=attr_labels,
        attribute_info=attr_info,
        marks=marks,
        link_removed_positions=np.asarray(removed_log, dtype=np.int64),
        sybil_nodes=sybil_nodes,
        _event_log=event_log,
    )
