"""Crawler substrate: privacy model, array BFS crawl, daily snapshot series."""

from .crawler import CrawlResult, crawl_snapshot
from .privacy import FULLY_PUBLIC, PrivacyModel
from .snapshots import SnapshotSeries, crawl_evolution

__all__ = [
    "CrawlResult",
    "crawl_snapshot",
    "FULLY_PUBLIC",
    "PrivacyModel",
    "SnapshotSeries",
    "crawl_evolution",
]
