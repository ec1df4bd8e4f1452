"""Daily snapshot crawling: turn a ground-truth evolution into crawled snapshots.

Mirrors the paper's procedure: the first snapshot is a full BFS crawl; each
subsequent snapshot expands the crawl starting from the users already known
from the previous snapshot (plus BFS discovery of newly reachable users).

Each day's ground truth comes from
:meth:`~repro.synthetic.gplus.GroundTruthEvolution.frozen_snapshots` (that
day's prefix of the event log's int columns), and each crawl is a
:func:`~repro.crawler.crawler.crawl_frozen` array crawl, so every snapshot
in the series is a :class:`~repro.graph.frozen.FrozenSAN`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from ..graph.frozen import FrozenSAN
from ..synthetic.gplus import GroundTruthEvolution
from .crawler import crawl_frozen, default_seed, member_ids
from .privacy import FULLY_PUBLIC, PrivacyModel

Node = Hashable


@dataclass
class SnapshotSeries:
    """An ordered sequence of crawled snapshots with coverage bookkeeping."""

    snapshots: List[Tuple[int, FrozenSAN]] = field(default_factory=list)
    coverage: Dict[int, float] = field(default_factory=dict)

    def days(self) -> List[int]:
        return [day for day, _ in self.snapshots]

    def at(self, day: int) -> FrozenSAN:
        for snapshot_day, san in self.snapshots:
            if snapshot_day == day:
                return san
        raise KeyError(f"no snapshot crawled for day {day}")

    def last(self) -> FrozenSAN:
        if not self.snapshots:
            raise ValueError("the snapshot series is empty")
        return self.snapshots[-1][1]

    def halfway(self) -> FrozenSAN:
        if not self.snapshots:
            raise ValueError("the snapshot series is empty")
        return self.snapshots[len(self.snapshots) // 2][1]

    def __len__(self) -> int:
        return len(self.snapshots)

    def __iter__(self):
        return iter(self.snapshots)


def crawl_evolution(
    evolution: GroundTruthEvolution,
    days: Sequence[int],
    privacy: Optional[PrivacyModel] = None,
    seeds: Optional[Sequence[Node]] = None,
) -> SnapshotSeries:
    """Crawl the ground truth of ``evolution`` at each of ``days``.

    The seed set of each crawl is the set of users visited by the previous
    crawl (the paper "expanded the social structure from the previous
    snapshot"), starting from the members of ``seeds`` on the first day; an
    empty seed set falls back to the user with the smallest ``str`` label.
    """
    series = SnapshotSeries()
    truths = evolution.frozen_snapshots(days)
    if not truths:
        return series
    # Users are numbered in join order in the event log, so every
    # day's compact ids are a prefix of the last day's: one privacy decision
    # per user serves the whole series, and the previous day's visited ids
    # are valid seeds of the next.
    labels = truths[-1][1].social.labels()
    privacy = privacy if privacy is not None else FULLY_PUBLIC
    hides_links, hides_attributes = privacy.masks(labels)
    start = member_ids(truths[0][1], seeds or ())
    for day, truth in truths:
        n = truth.number_of_social_nodes()
        if not start.size:
            start = default_seed(truth)
        crawled, start = crawl_frozen(truth, start, hides_links[:n], hides_attributes[:n])
        series.snapshots.append((day, crawled))
        series.coverage[day] = start.size / n if n else 0.0
    return series
