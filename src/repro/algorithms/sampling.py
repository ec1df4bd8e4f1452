"""Sampling utilities: node/edge samples, attribute subsampling, reservoirs.

The paper's Section 4.3 validates the representativeness of the observed
attributes by removing each user's attributes with probability 0.5 and
re-running the attribute metrics; :func:`subsample_attributes` reproduces that
procedure.
"""

from __future__ import annotations

from typing import Hashable, Iterable, List, Sequence, TypeVar, Union

import numpy as np

from ..engine import dispatchable
from ..graph.frozen import FrozenSAN
from ..graph.san import SAN
from ..utils.rng import RngLike, ensure_rng
from ..utils.validation import require_probability

T = TypeVar("T")
Node = Hashable
SANLike = Union[SAN, FrozenSAN]


def sample_nodes(san: SANLike, count: int, rng: RngLike = None) -> List[Node]:
    """Uniform sample (without replacement) of social nodes."""
    generator = ensure_rng(rng)
    nodes = list(san.social_nodes())
    if count >= len(nodes):
        return nodes
    return generator.sample(nodes, count)


@dispatchable("sample_social_edges")
def sample_social_edges(
    san: FrozenSAN, count: int, rng: RngLike = None
) -> List[tuple]:
    """Uniform sample (without replacement) of directed social edges.

    Edge positions are drawn with ``rng.sample`` over the CSR edge order, so
    the full edge list is never materialized; with ``count`` at or above
    the edge count every edge is returned in that order.
    """
    generator = ensure_rng(rng)
    num_edges = san.social.number_of_edges()
    sources, targets = san.social.edge_arrays()
    labels = san.social.labels()
    if count >= num_edges:
        chosen: Sequence[int] = range(num_edges)
    else:
        chosen = generator.sample(range(num_edges), count)
    return [(labels[sources[i]], labels[targets[i]]) for i in chosen]


def subsample_attributes(
    san: SANLike, keep_probability: float = 0.5, rng: RngLike = None
) -> FrozenSAN:
    """Drop each user's attribute links independently with probability ``1 - keep``.

    Reproduces the Section 4.3 subsampling validation on the CSR arrays: the
    returned frozen SAN shares the social layer with the input and keeps
    each attribute link with probability ``keep_probability``, one
    ``random()`` per link in ``attribute_edges()`` order of the frozen input
    (users in id order, each user's attributes in id order).  Attribute
    nodes left without a link are dropped.
    """
    require_probability(keep_probability, "keep_probability")
    generator = ensure_rng(rng)
    frozen = san.freeze()
    social, attributes = frozen.social, frozen.attributes
    sa_indptr, sa_indices = attributes.social_to_attr_csr()
    draws = np.fromiter(
        (generator.random() for _ in range(sa_indices.size)),
        dtype=np.float64,
        count=int(sa_indices.size),
    )
    kept = draws < keep_probability
    link_social = np.repeat(
        np.arange(social.number_of_nodes(), dtype=np.int64), np.diff(sa_indptr)
    )[kept]
    link_attr = sa_indices[kept]
    attr_labels = attributes.attribute_labels()
    linked = np.bincount(link_attr, minlength=len(attr_labels)) > 0
    labels = [attr_labels[i] for i in np.flatnonzero(linked).tolist()]
    return FrozenSAN.from_edge_arrays(
        social.labels(),
        *social.edge_arrays(),
        labels,
        [attributes.attribute_info(label) for label in labels],
        link_social,
        (np.cumsum(linked) - 1)[link_attr],
    )


def drop_users_attributes(
    san: SANLike, keep_probability: float = 0.78, rng: RngLike = None
) -> SAN:
    """Hide *all* attributes of a random subset of users.

    Models the paper's observation that only ~22% of Google+ users declare at
    least one attribute: each user keeps their full attribute list with
    probability ``keep_probability`` and loses every attribute otherwise.
    """
    require_probability(keep_probability, "keep_probability")
    generator = ensure_rng(rng)
    result = SAN()
    for node in san.social_nodes():
        result.add_social_node(node)
    for source, target in san.social_edges():
        result.add_social_edge(source, target)
    keep = {
        node for node in san.social_nodes() if generator.random() < keep_probability
    }
    for social, attribute in san.attribute_edges():
        if social in keep:
            info = san.attribute_info(attribute)
            result.add_attribute_edge(
                social, attribute, attr_type=info.attr_type, value=info.value
            )
    return result


def reservoir_sample(items: Iterable[T], count: int, rng: RngLike = None) -> List[T]:
    """Classic reservoir sampling: a uniform sample of ``count`` items from a stream."""
    generator = ensure_rng(rng)
    reservoir: List[T] = []
    for index, item in enumerate(items):
        if index < count:
            reservoir.append(item)
        else:
            slot = generator.randint(0, index)
            if slot < count:
                reservoir[slot] = item
    return reservoir
