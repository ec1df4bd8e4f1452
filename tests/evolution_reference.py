"""Reference replays of the simulator's event log, kept beside the tests.

Nothing under ``src/`` imports this module.  The production
:class:`~repro.synthetic.gplus.GroundTruthEvolution` cuts every view from its
int columns with array operations.  This module decodes the same columns into
:class:`~repro.models.history.ArrivalEvent` objects and replays them into a
mutable :class:`~repro.graph.san.SAN` one event at a time, the path the
columns replaced, so the tests can check one against the other:

* :func:`events` — the log as ``(day, ArrivalEvent)`` pairs;
* :func:`san_at`, :func:`snapshots` and :func:`final_san` — mutable replays
  (``tests/test_synthetic_gplus.py``, ``tests/test_oracle_evolution.py``);
* :func:`arrival_history` — the object :class:`ArrivalHistory` window
  (``tests/test_oracle_history_columns.py``);
* :func:`fidelity_metrics_loop` — the fidelity stage on the object path: a
  final replay, a loop over event objects and a list-of-lists trust
  propagation (``tests/test_oracle_evolution.py``).
"""

from __future__ import annotations

import math
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from repro.graph.san import SAN
from repro.models.history import (
    EVENT_ATTRIBUTE,
    EVENT_ATTRIBUTE_REMOVE,
    EVENT_KINDS,
    EVENT_NODE,
    EVENT_SOCIAL,
    EVENT_SOCIAL_REMOVE,
    ArrivalEvent,
    ArrivalHistory,
    apply_event,
)
from repro.synthetic.gplus import GroundTruthEvolution

Node = Hashable

#: Trusted seeds of the ranking probe, as in ``repro.experiments.validation``.
TRUST_SEEDS = 10


def events(evolution: GroundTruthEvolution) -> List[Tuple[int, ArrivalEvent]]:
    """The event log decoded into ``(day, ArrivalEvent)`` pairs."""
    labels = evolution.attribute_labels
    infos = evolution.attribute_info
    decoded = []
    for day, code, first, second in zip(
        evolution.day.tolist(),
        evolution.kind.tolist(),
        evolution.first.tolist(),
        evolution.second.tolist(),
    ):
        kind = EVENT_KINDS[code]
        if kind == EVENT_NODE:
            event = ArrivalEvent(kind, first)
        elif kind == EVENT_ATTRIBUTE:
            info = infos[second]
            event = ArrivalEvent(
                kind, first, labels[second], attr_type=info.attr_type, value=info.value
            )
        elif kind == EVENT_ATTRIBUTE_REMOVE:
            event = ArrivalEvent(kind, first, labels[second])
        else:
            event = ArrivalEvent(kind, first, second)
        decoded.append((day, event))
    return decoded


def san_at(evolution: GroundTruthEvolution, day: int) -> SAN:
    """The ground-truth SAN at the end of ``day``, replayed event by event."""
    san = SAN()
    for event_day, event in events(evolution):
        if event_day > day:
            break
        apply_event(san, event)
    return san


def final_san(evolution: GroundTruthEvolution) -> SAN:
    return san_at(evolution, evolution.num_days)


def snapshots(evolution: GroundTruthEvolution, days: Sequence[int]) -> List[Tuple[int, SAN]]:
    """Ground-truth SAN copies at each requested day (single replay pass)."""
    wanted = set(days)
    log = events(evolution)
    result: List[Tuple[int, SAN]] = []
    san = SAN()
    index = 0
    for day in range(1, evolution.num_days + 1):
        while index < len(log) and log[index][0] <= day:
            apply_event(san, log[index][1])
            index += 1
        if day in wanted:
            result.append((day, san.copy()))
    return result


def arrival_history(
    evolution: GroundTruthEvolution, start_day: int = 1, end_day: Optional[int] = None
) -> ArrivalHistory:
    """Arrival history over days ``[start_day, end_day]`` as event objects."""
    if end_day is None:
        end_day = evolution.num_days
    history = ArrivalHistory(initial=san_at(evolution, start_day - 1))
    for day, event in events(evolution):
        if day < start_day:
            continue
        if day > end_day:
            break
        history.events.append(event)
    return history


def _median(values: Sequence[float]) -> Optional[float]:
    if not values:
        return None
    ordered = sorted(values)
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2.0


def trust_ranking_loop(final: SAN, honest: Sequence[Node], sybil_set) -> Dict[str, Optional[float]]:
    """SybilRank-style trust over adjacency lists, one user at a time.

    The Sybil tail is ranked over the users with at least one link, the
    population the medians and ``|S|`` count.
    """
    nodes = list(final.social_nodes())
    index = {node: position for position, node in enumerate(nodes)}
    adjacency: List[List[int]] = [[] for _ in nodes]
    for source, target in final.social_edges():
        adjacency[index[source]].append(index[target])
        adjacency[index[target]].append(index[source])
    degree = [len(neighbors) for neighbors in adjacency]

    seeds = sorted(honest, key=lambda node: (-degree[index[node]], str(node)))
    seeds = [node for node in seeds if degree[index[node]] > 0][:TRUST_SEEDS]
    if not seeds:
        return {
            "honest_trust_median": None,
            "sybil_trust_median": None,
            "ranking_separation": None,
            "sybil_tail_fraction": None,
        }
    trust = [0.0] * len(nodes)
    for seed in seeds:
        trust[index[seed]] = 1.0 / len(seeds)
    for _ in range(max(2, int(math.log2(max(len(nodes), 2))))):
        spread = [0.0] * len(nodes)
        for position, neighbors in enumerate(adjacency):
            if trust[position] and neighbors:
                share = trust[position] / len(neighbors)
                for neighbor in neighbors:
                    spread[neighbor] += share
        trust = spread
    score = [
        trust[position] / degree[position] if degree[position] else 0.0
        for position in range(len(nodes))
    ]

    honest_scores = [score[index[node]] for node in honest if degree[index[node]]]
    sybil_scores = [
        score[index[node]] for node in nodes if node in sybil_set and degree[index[node]]
    ]
    honest_median = _median(honest_scores)
    sybil_median = _median(sybil_scores)
    separation = None
    if honest_median is not None and sybil_median is not None:
        separation = honest_median / sybil_median if sybil_median > 0 else math.inf
    tail_fraction = None
    if sybil_scores:
        connected = [position for position in range(len(nodes)) if degree[position]]
        ranked = sorted(connected, key=lambda position: score[position])
        tail = set(ranked[: len(sybil_scores)])
        tail_fraction = sum(1 for node in sybil_set if index[node] in tail) / len(sybil_scores)
    return {
        "honest_trust_median": honest_median,
        "sybil_trust_median": sybil_median,
        "ranking_separation": separation,
        "sybil_tail_fraction": tail_fraction,
    }


def fidelity_metrics_loop(evolution: GroundTruthEvolution, reference) -> Dict[str, object]:
    """The fidelity stage's payload, computed on event objects and a mutable replay."""
    final = final_san(evolution)
    sybils = [node for node in evolution.sybil.tolist() if final.is_social_node(node)]
    sybil_set = set(sybils)
    honest = [node for node in final.social_nodes() if node not in sybil_set]

    attack_edges = intra_sybil_edges = honest_edges = 0
    for source, target in final.social_edges():
        source_sybil = source in sybil_set
        target_sybil = target in sybil_set
        if source_sybil and target_sybil:
            intra_sybil_edges += 1
        elif source_sybil or target_sybil:
            attack_edges += 1
        else:
            honest_edges += 1
    total_edges = attack_edges + intra_sybil_edges + honest_edges

    ranking = trust_ranking_loop(final, honest, sybil_set)

    node_adds = attribute_adds = social_adds = 0
    attribute_removals = social_removals = 0
    daily_arrivals = {day: 0 for day in range(1, evolution.num_days + 1)}
    for day, event in events(evolution):
        if event.kind == EVENT_NODE:
            node_adds += 1
            daily_arrivals[day] = daily_arrivals.get(day, 0) + 1
        elif event.kind == EVENT_SOCIAL:
            social_adds += 1
        elif event.kind == EVENT_ATTRIBUTE:
            attribute_adds += 1
        elif event.kind == EVENT_ATTRIBUTE_REMOVE:
            attribute_removals += 1
        elif event.kind == EVENT_SOCIAL_REMOVE:
            social_removals += 1

    counts = sorted(daily_arrivals.values())
    peak = counts[-1] if counts else 0
    median = counts[len(counts) // 2] if counts else 0
    peak_to_median = peak / median if median else float(peak)

    true_social = final.number_of_social_edges()
    true_attribute = final.number_of_attribute_edges()
    crawled_social = reference.number_of_social_edges()
    crawled_attribute = reference.number_of_attribute_edges()
    return {
        "sybil": {
            "num_sybils": len(sybils),
            "num_honest": len(honest),
            "attack_edges": attack_edges,
            "intra_sybil_edges": intra_sybil_edges,
            "attack_edge_fraction": attack_edges / total_edges if total_edges else 0.0,
            "honest_trust_median": ranking["honest_trust_median"],
            "sybil_trust_median": ranking["sybil_trust_median"],
            "ranking_separation": ranking["ranking_separation"],
            "sybil_tail_fraction": ranking["sybil_tail_fraction"],
        },
        "churn": {
            "attribute_adds": attribute_adds,
            "attribute_removals": attribute_removals,
            "social_removals": social_removals,
            "removal_fraction": attribute_removals / attribute_adds if attribute_adds else 0.0,
        },
        "arrivals": {
            "total": node_adds,
            "daily": sorted(daily_arrivals.items()),
            "peak_to_median": peak_to_median,
        },
        "crawl": {
            "true_social_edges": true_social,
            "crawled_social_edges": crawled_social,
            "social_coverage": crawled_social / true_social if true_social else 1.0,
            "true_attribute_edges": true_attribute,
            "crawled_attribute_edges": crawled_attribute,
            "attribute_coverage": (
                crawled_attribute / true_attribute if true_attribute else 1.0
            ),
        },
    }
