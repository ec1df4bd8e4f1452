"""Crawler substrate: privacy model, array BFS crawl, daily snapshot series."""

from .privacy import FULLY_PUBLIC, PrivacyModel
from .snapshots import SnapshotSeries, crawl_evolution

__all__ = [
    "FULLY_PUBLIC",
    "PrivacyModel",
    "SnapshotSeries",
    "crawl_evolution",
]
