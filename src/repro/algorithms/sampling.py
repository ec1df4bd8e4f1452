"""Attribute subsampling (the Section 4.3 representativeness check).

The paper's Section 4.3 validates the representativeness of the observed
attributes by removing each user's attributes with probability 0.5 and
re-running the attribute metrics; :func:`subsample_attributes` reproduces that
procedure.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from ..graph.frozen import FrozenSAN
from ..graph.san import SAN
from ..utils.rng import RngLike, ensure_rng
from ..utils.validation import require_probability

SANLike = Union[SAN, FrozenSAN]


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
