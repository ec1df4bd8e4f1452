"""Vectorized attachment-likelihood evaluation, the implementation Figure 15 runs.

Scoring a link needs the normalising sum over every node existing at that
moment and, for the attribute models, a correction over the members of the
source's attribute communities.  Replaying every event through a mutable SAN
and walking those members in Python, once per (link, spec with beta > 0),
does not scale to 50k+-step histories; this module derives the same
quantities from flat arrays:

* **Compact encoding** — :func:`encode_history` lowers a history's int
  columns (:class:`~repro.models.history.HistoryColumns`: a window of the
  simulator's event log, an Algorithm 1 run's compact log, or an object
  :class:`~repro.models.history.ArrivalHistory` interned by its
  ``columns()`` adapter) into arrays, with whole-array sorts and searches
  and no per-event Python: one record per social-link event carrying
  the source/target degrees and eligibility at its scoring point, a
  bookkeeping *update stream* in replay order (a node registers at its first
  appearance in any role; a target's in-degree steps up once per new
  link), per-target in-degree gain positions, and a CSR
  attribute-membership layout (node -> attributes, attribute -> members)
  timestamped by event position so any moment's membership is a filter, not
  a replay.  The per-event encoder it replaced is kept as its oracle in
  ``tests/model_reference.py``.
* **Prefix ``S_alpha`` sums** — ``S_alpha = sum_x (d_i(x) + s)^alpha`` over
  the whole trajectory is one broadcast delta matrix plus a cumulative sum,
  and the value *at any scored link* is a row gather.
* **Batched community corrections** — scored links are processed in chunks:
  the members of each source's attributes are gathered through the CSR
  layout, shared-attribute counts come from one ``np.unique`` over
  ``(link, member)`` keys, member in-degrees at the link's moment come from
  one ``np.searchsorted`` over composite ``(target, position)`` keys, and
  every (kind, alpha, beta) spec's correction reduces with ``np.bincount``
  — no per-member Python loop anywhere.

Subsampling consumes one uniform variate per social-link event.  The
per-link replay in ``tests/model_reference.py`` consumes the same stream, so
a given seed selects the *identical* scored-link set on both, and per-model
log-likelihoods agree to float round-off (the exact-parity gates in
``tests/test_models_fast_likelihood.py`` and
``benchmarks/bench_likelihood.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple, Union

import numpy as np

from ..graph.frozen import sorted_membership
from ..utils.rng import RngLike, ensure_rng
from .history import KIND_ATTRIBUTE, KIND_SOCIAL, ArrivalHistory, HistoryColumns
from .likelihood import (
    DEFAULT_LIKELIHOOD_SEED,
    AttachmentModelSpec,
    LikelihoodResult,
)

#: Scored links are batched in chunks of this many for the community-
#: correction gathers (bounds peak memory of the member concatenation).
SCORE_CHUNK = 128


@dataclass
class EncodedHistory:
    """An arrival history lowered to flat arrays (see module docs).

    Positions are *shifted* event indices: 0 means "present in the initial
    SAN", ``i + 1`` means "created by event ``i``" — so membership or a
    degree gain is visible at the scoring point of event ``j`` iff its
    position is ``<= j``.
    """

    num_nodes: int
    num_initial_nodes: int
    num_attributes: int
    num_events: int
    initial_in_degree: np.ndarray  # (num_nodes,) nonzero only for initial nodes
    # One record per social-link event, in arrival order:
    social_src: np.ndarray
    social_dst: np.ndarray
    social_pos: np.ndarray  # global event index
    social_eligible: np.ndarray  # scoreable: target social, new edge, not a self-loop
    social_src_degree: np.ndarray  # source in-degree at the scoring point
    social_dst_degree: np.ndarray
    social_update_count: np.ndarray  # bookkeeping updates applied before scoring
    # Bookkeeping update stream (-1 = node registration, k >= 0 = a target's
    # in-degree stepping k -> k + 1), in replay order:
    update_old_degree: np.ndarray
    # Per-target in-degree gains as sorted composite keys target*(E+2)+pos:
    gain_comp: np.ndarray
    gain_indptr: np.ndarray  # (num_nodes + 1,)
    # CSR membership, timestamped: node -> (attribute, position) ...
    node_attr_indptr: np.ndarray
    node_attr_ids: np.ndarray
    node_attr_pos: np.ndarray
    # ... and attribute -> (member, position):
    attr_member_indptr: np.ndarray
    attr_member_ids: np.ndarray
    attr_member_pos: np.ndarray


def _csr_from_triples(
    rows: np.ndarray, cols: np.ndarray, pos: np.ndarray, num_rows: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Group (row, col, position) triples into a CSR keyed by ``row``.

    The stable sort preserves arrival order within a row, so per-row
    positions stay ascending.
    """
    order = np.argsort(rows, kind="stable")
    counts = np.bincount(rows, minlength=num_rows).astype(np.int64)
    indptr = np.zeros(num_rows + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return indptr, cols[order], pos[order]


def _first_occurrences(keys: np.ndarray) -> np.ndarray:
    """Boolean mask of the entries whose key has not occurred before."""
    mask = np.zeros(keys.size, dtype=bool)
    mask[np.unique(keys, return_index=True)[1]] = True
    return mask


def encode_history(history: Union[ArrivalHistory, HistoryColumns]) -> EncodedHistory:
    """Lower a history into the arrays the scorer consumes, on its int columns.

    An :class:`ArrivalHistory` goes through :meth:`ArrivalHistory.columns`
    first.  The arrays follow a replay's bookkeeping order exactly: a node
    registers at its first appearance in *any* role (an event's ``first``,
    or a social link's ``second``), source before target, and a target's
    in-degree steps up only for a link not already present — which is what
    makes the prefix sums equal a replay's running ``S_alpha`` values.
    Removals register their ``first`` and change nothing else.  Each event
    owns three update slots (first's registration, second's registration,
    the degree step), so the update stream is those slots in row-major order.
    """
    columns = history.columns() if isinstance(history, ArrivalHistory) else history
    kind = np.asarray(columns.kind, dtype=np.int64)
    first = np.asarray(columns.first, dtype=np.int64)
    second = np.asarray(columns.second, dtype=np.int64)
    initial_src = np.asarray(columns.initial_src, dtype=np.int64)
    initial_dst = np.asarray(columns.initial_dst, dtype=np.int64)
    num_events = int(kind.size)
    num_initial = int(columns.num_initial_nodes)
    social = kind == KIND_SOCIAL

    # Registrations: the first appearance of every non-initial node.
    roles = np.stack([first, np.where(social, second, -1)], axis=1).ravel()
    num_nodes = max(num_initial, int(roles.max()) + 1 if roles.size else 0)
    candidates = np.flatnonzero(roles >= num_initial)
    registrations = candidates[_first_occurrences(roles[candidates])]
    slots = np.zeros((num_events, 3), dtype=bool)
    slots[registrations // 2, registrations % 2] = True
    appeared = np.full(num_nodes, -1, dtype=np.int64)  # -1: in the initial SAN
    appeared[roles[registrations]] = registrations // 2

    # Social links: a link is new unless present initially or seen before.
    link_events = np.flatnonzero(social)
    sources = first[link_events]
    targets = second[link_events]
    stride = max(num_nodes, 1)
    keys = sources * stride + targets
    new = _first_occurrences(keys) & ~sorted_membership(
        np.unique(initial_src * stride + initial_dst), keys
    )
    initial_degree = np.bincount(initial_dst, minlength=num_nodes).astype(np.int64)
    gain_targets = targets[new]
    gain_events = link_events[new]
    order = np.argsort(gain_targets, kind="stable")  # events ascend per target
    sorted_targets = gain_targets[order]
    old_degree = np.empty(order.size, dtype=np.int64)
    old_degree[order] = (
        initial_degree[sorted_targets]
        + np.arange(order.size, dtype=np.int64)
        - np.searchsorted(sorted_targets, sorted_targets)
    )
    position_stride = num_events + 2
    gain_comp = sorted_targets * position_stride + gain_events[order] + 1
    gain_counts = np.bincount(gain_targets, minlength=num_nodes).astype(np.int64)
    gain_indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(gain_counts, out=gain_indptr[1:])

    def degree_before(nodes: np.ndarray) -> np.ndarray:
        """In-degree of ``nodes`` over the gains of events before each link."""
        gains = np.searchsorted(gain_comp, nodes * position_stride + link_events, side="right")
        return initial_degree[nodes] + gains - gain_indptr[nodes]

    slots[gain_events, 2] = True
    values = np.full((num_events, 3), -1, dtype=np.int64)
    values[gain_events, 2] = old_degree
    per_event = slots.sum(axis=1)
    updates_before = np.cumsum(per_event) - per_event
    update_count = (
        updates_before[link_events]
        + slots[link_events, 0]
        + slots[link_events, 1]
    )
    eligible = new & (sources != targets) & (appeared[targets] < link_events)

    # Attribute memberships: initial links at position 0, then every first
    # link of a (member, attribute) pair at its event's shifted position.
    attribute_events = np.flatnonzero(kind == KIND_ATTRIBUTE)
    linked = second[attribute_events]
    num_attributes = max(
        int(columns.num_initial_attributes), int(linked.max()) + 1 if linked.size else 0
    )
    initial_member = np.asarray(columns.initial_member, dtype=np.int64)
    initial_attribute = np.asarray(columns.initial_attribute, dtype=np.int64)
    attr_stride = max(num_attributes, 1)
    link_keys = first[attribute_events] * attr_stride + linked
    fresh = _first_occurrences(link_keys) & ~sorted_membership(
        np.unique(initial_member * attr_stride + initial_attribute), link_keys
    )
    member_cols = np.concatenate([initial_member, first[attribute_events[fresh]]])
    member_rows = np.concatenate([initial_attribute, linked[fresh]])
    member_pos = np.concatenate(
        [np.zeros(initial_member.size, dtype=np.int64), attribute_events[fresh] + 1]
    )
    node_attr_indptr, node_attr_ids, node_attr_pos = _csr_from_triples(
        member_cols, member_rows, member_pos, num_nodes
    )
    attr_member_indptr, attr_member_ids, attr_member_pos = _csr_from_triples(
        member_rows, member_cols, member_pos, num_attributes
    )

    return EncodedHistory(
        num_nodes=num_nodes,
        num_initial_nodes=num_initial,
        num_attributes=num_attributes,
        num_events=num_events,
        initial_in_degree=initial_degree,
        social_src=sources,
        social_dst=targets,
        social_pos=link_events,
        social_eligible=eligible,
        social_src_degree=degree_before(sources),
        social_dst_degree=degree_before(targets),
        social_update_count=update_count.astype(np.int64),
        update_old_degree=values[slots],
        gain_comp=gain_comp,
        gain_indptr=gain_indptr,
        node_attr_indptr=node_attr_indptr,
        node_attr_ids=node_attr_ids,
        node_attr_pos=node_attr_pos,
        attr_member_indptr=attr_member_indptr,
        attr_member_ids=attr_member_ids,
        attr_member_pos=attr_member_pos,
    )


def _row_positions(indptr: np.ndarray, rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Flat indices selecting the CSR rows in ``rows``, plus per-row counts.

    Returning *indices* (not values) lets one gather drive several parallel
    data arrays (ids and their timestamps).
    """
    counts = indptr[rows + 1] - indptr[rows]
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64), counts
    starts = np.repeat(indptr[rows], counts)
    offsets = np.arange(total, dtype=np.int64) - np.repeat(
        np.cumsum(counts) - counts, counts
    )
    return starts + offsets, counts


def _factor_minus_one(spec: AttachmentModelSpec, shared: np.ndarray) -> np.ndarray:
    """Vectorized ``attribute_factor(shared) - 1`` for members (shared >= 1)."""
    if spec.kind == "lapa":
        return spec.beta * shared.astype(np.float64)
    return shared.astype(np.float64) ** spec.beta


def _attribute_factors(spec: AttachmentModelSpec, shared: np.ndarray) -> np.ndarray:
    """Vectorized ``attribute_factor`` for targets (shared may be 0)."""
    if spec.kind == "lapa":
        return 1.0 + spec.beta * shared.astype(np.float64)
    if spec.kind == "papa":
        if spec.beta == 0:
            return np.full(shared.shape, 2.0)
        return 1.0 + np.where(shared > 0, shared.astype(np.float64) ** spec.beta, 0.0)
    return np.ones(shared.shape)


def evaluate_attachment_models_fast(
    history: Union[ArrivalHistory, HistoryColumns],
    specs: Sequence[AttachmentModelSpec],
    smoothing: float = 1.0,
    max_links: Optional[int] = 2000,
    rng: RngLike = DEFAULT_LIKELIHOOD_SEED,
) -> LikelihoodResult:
    """The implementation behind ``evaluate_attachment_models``.

    Semantically identical to the per-link replay in
    ``tests/model_reference.py`` (same scored-link selection stream, same
    skip rules for non-positive weights).  ``history`` is either form of
    :mod:`repro.models.history`; the encoding pass is charged to this
    implementation in ``benchmarks/bench_likelihood.py``.
    """
    generator = ensure_rng(rng)
    encoded = encode_history(history)
    total_links = int(encoded.social_src.size)
    if total_links == 0:
        raise ValueError("the arrival history contains no social link events")

    if max_links is None or max_links >= total_links:
        scored_mask = encoded.social_eligible
    else:
        probability = max_links / total_links
        draws = np.fromiter(
            (generator.random() for _ in range(total_links)),
            dtype=np.float64,
            count=total_links,
        )
        scored_mask = (draws < probability) & encoded.social_eligible
    scored_index = np.nonzero(scored_mask)[0]
    num_scored = int(scored_index.size)
    if num_scored == 0:
        raise ValueError("no social links were scored; increase max_links")

    alphas = sorted({spec.alpha for spec in specs})
    alpha_arr = np.asarray(alphas, dtype=np.float64)
    alpha_of = {alpha: column for column, alpha in enumerate(alphas)}

    # S_alpha prefix: one delta per bookkeeping update, cumulated once.
    old = encoded.update_old_degree
    node_registration = old < 0
    base_degree = np.where(node_registration, 0, old).astype(np.float64)[:, None]
    deltas = np.where(
        node_registration[:, None],
        np.power(smoothing, alpha_arr)[None, :],
        (base_degree + 1.0 + smoothing) ** alpha_arr[None, :]
        - (base_degree + smoothing) ** alpha_arr[None, :],
    )
    prefix = np.zeros((old.size + 1, alpha_arr.size))
    np.cumsum(deltas, axis=0, out=prefix[1:])
    initial_degrees = encoded.initial_in_degree[: encoded.num_initial_nodes]
    initial_sums = (
        (initial_degrees.astype(np.float64)[:, None] + smoothing) ** alpha_arr[None, :]
    ).sum(axis=0)
    sums_at_score = initial_sums[None, :] + prefix[encoded.social_update_count[scored_index]]

    source_degree = encoded.social_src_degree[scored_index].astype(np.float64)
    target_degree = encoded.social_dst_degree[scored_index].astype(np.float64)
    source_pow = (source_degree[:, None] + smoothing) ** alpha_arr[None, :]
    target_pow = (target_degree[:, None] + smoothing) ** alpha_arr[None, :]
    base = sums_at_score - source_pow

    correction_columns = [
        column
        for column, spec in enumerate(specs)
        if spec.kind in ("lapa", "papa") and spec.beta > 0
    ]
    needs_members = any(
        spec.kind in ("lapa", "papa") and spec.beta != 0 for spec in specs
    )
    corrections = np.zeros((num_scored, len(specs)))
    shared_with_target = np.zeros(num_scored, dtype=np.int64)

    if needs_members:
        num_nodes = encoded.num_nodes
        stride = encoded.num_events + 2
        for start in range(0, num_scored, SCORE_CHUNK):
            chunk = scored_index[start : start + SCORE_CHUNK]
            chunk_size = chunk.size
            sources = encoded.social_src[chunk]
            targets = encoded.social_dst[chunk]
            moments = encoded.social_pos[chunk]

            # Attributes held by each source at its link's moment.
            attr_take, attr_counts = _row_positions(encoded.node_attr_indptr, sources)
            attr_seg = np.repeat(np.arange(chunk_size, dtype=np.int64), attr_counts)
            attr_live = encoded.node_attr_pos[attr_take] <= moments[attr_seg]
            attr_seg = attr_seg[attr_live]
            attributes = encoded.node_attr_ids[attr_take[attr_live]]

            # Members of those attributes at the same moment (minus the source).
            member_take, member_counts = _row_positions(
                encoded.attr_member_indptr, attributes
            )
            member_seg = np.repeat(attr_seg, member_counts)
            members = encoded.attr_member_ids[member_take]
            member_live = (encoded.attr_member_pos[member_take] <= moments[member_seg]) & (
                members != sources[member_seg]
            )
            member_seg = member_seg[member_live]
            members = members[member_live]

            # Shared-attribute counts: multiplicity of each (link, member) pair.
            pair_keys, shared = np.unique(member_seg * num_nodes + members, return_counts=True)
            if pair_keys.size:
                pair_seg = pair_keys // num_nodes
                pair_member = pair_keys % num_nodes
                queries = pair_member * stride + moments[pair_seg]
                member_degree = encoded.initial_in_degree[pair_member] + (
                    np.searchsorted(encoded.gain_comp, queries, side="right")
                    - encoded.gain_indptr[pair_member]
                )
                member_pow = (
                    member_degree.astype(np.float64)[:, None] + smoothing
                ) ** alpha_arr[None, :]
                for column in correction_columns:
                    spec = specs[column]
                    weights = _factor_minus_one(spec, shared) * member_pow[
                        :, alpha_of[spec.alpha]
                    ]
                    corrections[start : start + chunk_size, column] = np.bincount(
                        pair_seg, weights=weights, minlength=chunk_size
                    )
                target_keys = (
                    np.arange(chunk_size, dtype=np.int64) * num_nodes + targets
                )
                lookup = np.searchsorted(pair_keys, target_keys)
                lookup = np.minimum(lookup, pair_keys.size - 1)
                found = pair_keys[lookup] == target_keys
                shared_with_target[start : start + chunk_size] = np.where(
                    found, shared[lookup], 0
                )

    log_likelihoods: Dict[str, float] = {}
    for column, spec in enumerate(specs):
        alpha_column = alpha_of[spec.alpha]
        base_column = base[:, alpha_column]
        if spec.kind in ("lapa", "papa") and spec.beta > 0:
            denominator = base_column + corrections[:, column]
        elif spec.kind == "papa" and spec.beta == 0:
            denominator = 2.0 * base_column
        else:
            denominator = base_column
        numerator = target_pow[:, alpha_column] * _attribute_factors(
            spec, shared_with_target
        )
        valid = (numerator > 0) & (denominator > 0)
        contribution = float(np.log(numerator[valid] / denominator[valid]).sum())
        # Accumulate (not assign): specs sharing a label add into one total.
        log_likelihoods[spec.name] = log_likelihoods.get(spec.name, 0.0) + contribution

    return LikelihoodResult(log_likelihoods=log_likelihoods, num_links_scored=num_scored)


__all__ = [
    "EncodedHistory",
    "SCORE_CHUNK",
    "encode_history",
    "evaluate_attachment_models_fast",
]
