"""Influence of attributes on the social structure (Section 4.2).

Three analyses:

* fine-grained reciprocity stratified by common social / attribute neighbors
  (Figure 13a) — delegated to :mod:`repro.metrics.reciprocity`;
* community-forming power of attribute types via the per-type average
  attribute clustering coefficient (Figure 13b) — delegated to
  :mod:`repro.metrics.attribute_metrics`;
* social out-degree statistics of users holding specific attribute values
  (Figure 14).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, List, Optional

from ..graph.san import SAN
from ..utils.stats import percentile
from .attribute_metrics import top_attribute_nodes
from .degrees import out_degrees_for_attribute_value
from .reciprocity import FineGrainedReciprocity

Node = Hashable


@dataclass
class DegreeByAttributeValue:
    """Out-degree percentiles of users holding one attribute value (Figure 14)."""

    attribute: Node
    attr_type: str
    value: str
    num_users: int
    median: float
    percentile_25: float
    percentile_75: float
    mean: float


def degree_stats_for_attribute(san: SAN, attribute: Node) -> Optional[DegreeByAttributeValue]:
    """Out-degree summary for the members of one attribute node."""
    degrees = out_degrees_for_attribute_value(san, attribute)
    if not degrees:
        return None
    info = san.attribute_info(attribute)
    return DegreeByAttributeValue(
        attribute=attribute,
        attr_type=info.attr_type,
        value=info.value,
        num_users=len(degrees),
        median=percentile(degrees, 50),
        percentile_25=percentile(degrees, 25),
        percentile_75=percentile(degrees, 75),
        mean=sum(degrees) / len(degrees),
    )


def degree_by_top_attribute_values(
    san: SAN, attr_type: str, count: int = 4
) -> List[DegreeByAttributeValue]:
    """Figure 14: degree percentiles for the most popular values of one type."""
    stats: List[DegreeByAttributeValue] = []
    for attribute, _ in top_attribute_nodes(san, attr_type=attr_type, count=count):
        entry = degree_stats_for_attribute(san, attribute)
        if entry is not None:
            stats.append(entry)
    return stats


def reciprocity_boost_from_attributes(reciprocity: FineGrainedReciprocity) -> Optional[float]:
    """Ratio of reciprocation rates: >=1 shared attribute vs no shared attribute.

    The shared buckets (1 and ">=2" common attributes) are pooled by their
    link counts so a nearly-empty ">=2" bucket cannot wash out the signal.
    The paper reports roughly a 2x boost.  Returns ``None`` when either side
    has no observations.
    """
    without = reciprocity.average_rate_for_attribute_bucket(0)
    shared_reciprocated = 0
    shared_total = 0
    for (_, bucket), (reciprocated, total) in reciprocity.counts.items():
        if bucket >= 1:
            shared_reciprocated += reciprocated
            shared_total += total
    if without is None or without == 0 or shared_total == 0:
        return None
    return (shared_reciprocated / shared_total) / without
