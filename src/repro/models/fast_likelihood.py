"""Vectorized attachment-likelihood evaluation, the implementation Figure 15 runs.

Scoring a link needs the normalising sum over every node existing at that
moment and, for the attribute models, a correction over the members of the
source's attribute communities.  Replaying every event through a mutable SAN
and walking those members in Python, once per (link, spec with beta > 0),
does not scale to 50k+-step histories; this module derives the same
quantities from flat arrays:

* **Compact encoding** — :func:`encode_history` lowers an
  :class:`~repro.models.history.ArrivalHistory` into int arrays (the same
  node-id/attribute-id interning idea as the event log in
  :mod:`repro.models.san_model`): one record per social-link event carrying
  the source/target degrees and eligibility at its scoring point, a
  bookkeeping *update stream* in replay order (a node registers at its first
  appearance in any role; a target's in-degree steps up once per new
  link), per-target in-degree gain positions, and a CSR
  attribute-membership layout (node -> attributes, attribute -> members)
  timestamped by event position so any moment's membership is a filter, not
  a replay.
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
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..utils.rng import RngLike, ensure_rng
from .history import EVENT_ATTRIBUTE, EVENT_SOCIAL, ArrivalHistory
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
    """An :class:`ArrivalHistory` lowered to flat arrays (see module docs).

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


def encode_history(history: ArrivalHistory) -> EncodedHistory:
    """One pass over the history producing the arrays the scorer consumes.

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

    node_attr_indptr, node_attr_ids, node_attr_pos = _csr_from_triples(
        member_cols, member_rows, member_pos, num_nodes
    )
    attr_member_indptr, attr_member_ids, attr_member_pos = _csr_from_triples(
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
    history: ArrivalHistory,
    specs: Sequence[AttachmentModelSpec],
    smoothing: float = 1.0,
    max_links: Optional[int] = 2000,
    rng: RngLike = DEFAULT_LIKELIHOOD_SEED,
) -> LikelihoodResult:
    """The implementation behind ``evaluate_attachment_models``.

    Semantically identical to the per-link replay in
    ``tests/model_reference.py`` (same scored-link selection stream, same
    skip rules for non-positive weights); the encoding pass is the only
    per-event Python left and is charged to this implementation in
    ``benchmarks/bench_likelihood.py``.
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
