"""Breadth-first crawl of a ground-truth SAN, on CSR arrays.

Reproduces the paper's data-collection methodology (Section 2.2): starting
from seed users, breadth-first search expands over *both* the outgoing list
("in your circles") and the incoming list ("have you in circles") of every
visited public user — the property that let the authors cover the whole
weakly connected component of Google+.  A daily crawl expands from the node
set of the previous day's snapshot.

The crawler sees:

* the links of every visited user whose lists are public (plus links of
  private users that are visible from the public endpoint),
* the declared attributes of visited users who do not hide them.

Because a visited public user's whole neighbourhood is visited, the crawl
is a set computation rather than a queue.  The visited users are the seeds
plus everything :func:`~repro.algorithms.traversal.frontier_bfs_levels`
reaches over the undirected social CSR with the rows of link-hiding users
emptied (they are reached but never expanded).  The crawled SAN keeps the
social links with a visited public endpoint, the attribute links of visited
users who show their attributes, and the attribute nodes left with at least
one link, in the ground truth's compact-id order.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Tuple

import numpy as np

from ..algorithms.traversal import frontier_bfs_levels
from ..graph.frozen import FrozenSAN

Node = Hashable


def default_seed(truth: FrozenSAN) -> np.ndarray:
    """The compact id of the user with the smallest ``str`` label (none if empty)."""
    labels = truth.social.labels()
    if not labels:
        return np.empty(0, dtype=np.int64)
    return np.array([min(range(len(labels)), key=lambda i: str(labels[i]))])


def member_ids(truth: FrozenSAN, seeds: Iterable[Node]) -> np.ndarray:
    """Compact ids of the ``seeds`` that are social nodes of ``truth``."""
    return np.array(
        [truth.social.index_of(seed) for seed in seeds if truth.is_social_node(seed)],
        dtype=np.int64,
    )


def crawl_frozen(
    truth: FrozenSAN,
    seeds: np.ndarray,
    hides_links: np.ndarray,
    hides_attributes: np.ndarray,
) -> Tuple[FrozenSAN, np.ndarray]:
    """Crawl ``truth`` from the compact ids ``seeds``: the crawl and its users' ids.

    ``hides_links`` and ``hides_attributes`` are boolean masks over the
    social compact ids.  The crawl's users keep the ground truth's id order,
    so the returned ids (ascending) are the crawl's users in its own order.
    """
    social, attributes = truth.social, truth.attributes
    n = social.number_of_nodes()
    indptr, indices = social.undirected_csr()
    rows = np.diff(indptr)
    expand_indptr = np.zeros_like(indptr)
    np.cumsum(np.where(hides_links, 0, rows), out=expand_indptr[1:])
    expand_indices = indices[np.repeat(~hides_links, rows)]
    visited = np.flatnonzero(frontier_bfs_levels(expand_indptr, expand_indices, seeds) >= 0)

    in_crawl = np.zeros(n, dtype=bool)
    in_crawl[visited] = True
    public = in_crawl & ~hides_links
    rank = np.cumsum(in_crawl) - 1
    sources, targets = social.edge_arrays()
    seen = public[sources] | public[targets]

    sa_indptr, sa_indices = attributes.social_to_attr_csr()
    link_social = np.repeat(np.arange(n, dtype=np.int64), np.diff(sa_indptr))
    shown = (in_crawl & ~hides_attributes)[link_social]
    link_social, link_attr = link_social[shown], sa_indices[shown]
    attr_labels = attributes.attribute_labels()
    linked = np.bincount(link_attr, minlength=len(attr_labels)) > 0
    kept = [attr_labels[i] for i in np.flatnonzero(linked).tolist()]

    labels = social.labels()
    crawled = FrozenSAN.from_edge_arrays(
        [labels[i] for i in visited.tolist()],
        rank[sources[seen]],
        rank[targets[seen]],
        kept,
        [attributes.attribute_info(label) for label in kept],
        rank[link_social],
        (np.cumsum(linked) - 1)[link_attr],
    )
    return crawled, visited
