"""Networkx oracle for the batched link-prediction features (Section 4.2).

Let ``U`` be the undirected projection of the social digraph ``D`` without
self-loops, as an ``nx.Graph``.  For every ordered pair of distinct users,
``pair_features_batch`` must give ``len(nx.common_neighbors(U, u, v))``,
``nx.adamic_adar_index`` on ``U``, ``log1p(in(v) * max(out(u), 1))`` from
``D``'s degrees, whether ``v -> u`` is in ``D``, and the shared attributes
(and those of type employer or school) from the social–attribute
``nx.Graph``.

Counts must match exactly and scores to 1e-12 relative.  The inputs are the
random SANs and edge cases of ``tests/san_cases.py``, each given mutable,
frozen and mmap-backed; large batches take the memoized sparse products and
small ones the per-pair row intersections, and both paths are checked.
"""

import math

import pytest
from san_cases import all_cases, spill_to_mmap

nx = pytest.importorskip("networkx")

from repro.applications.link_prediction import (  # noqa: E402
    STRONG_ATTRIBUTE_TYPES,
    pair_features_batch,
)

#: The dispatched operations this oracle checks (see
#: ``tests/test_engine.py::TestIntrospection::test_oracles_cover_every_op``).
ORACLE_OPS = ("link_prediction.pair_features_batch",)

CASES = [(name, san) for name, san in all_cases() if san.number_of_social_nodes() >= 2]
IDS = [name for name, _ in CASES]
TOLERANCE = 1e-12


def _backends(san):
    frozen = san.freeze()
    return {"mutable": san, "frozen": frozen, "mmap": spill_to_mmap(frozen)}


def _graphs(san):
    """``(D, U, B)``: the social digraph, its loop-free projection, the bipartite graph."""
    directed = nx.DiGraph()
    directed.add_nodes_from(san.social_nodes())
    directed.add_edges_from(san.social_edges())
    undirected = nx.Graph(directed)
    undirected.remove_edges_from(list(nx.selfloop_edges(undirected)))
    bipartite = nx.Graph()
    bipartite.add_nodes_from(("user", u) for u in san.social_nodes())
    bipartite.add_edges_from(
        (("user", u), ("attribute", a)) for u, a in san.attribute_edges()
    )
    return directed, undirected, bipartite


def _pairs(san):
    users = list(san.social_nodes())
    return [(u, v) for u in users for v in users if u != v]


def _expected_features(san, pairs):
    directed, undirected, bipartite = _graphs(san)
    adamic = {(u, v): score for u, v, score in nx.adamic_adar_index(undirected, pairs)}
    rows = []
    for u, v in pairs:
        shared = set(nx.common_neighbors(bipartite, ("user", u), ("user", v)))
        strong = [a for _, a in shared if san.attribute_type(a) in STRONG_ATTRIBUTE_TYPES]
        rows.append(
            {
                "common_social_neighbors": float(
                    len(list(nx.common_neighbors(undirected, u, v)))
                ),
                "adamic_adar": adamic[(u, v)],
                "preferential_attachment": math.log1p(
                    directed.in_degree(v) * max(directed.out_degree(u), 1)
                ),
                "reverse_link_exists": float(directed.has_edge(v, u)),
                "common_attributes": float(len(shared)),
                "common_employer_or_school": float(len(strong)),
            }
        )
    return rows


def _batches(pairs):
    """A short batch (row intersections), then the full one (sparse products).

    The short batch comes first: once a graph memoizes the products, every
    batch reads them.
    """
    return [pairs[:3], pairs]


@pytest.mark.parametrize("name,san", CASES, ids=IDS)
def test_pair_scores_match_networkx(name, san):
    pairs = _pairs(san)
    expected = _expected_features(san, pairs)
    for backend, graph in _backends(san).items():
        for batch in _batches(pairs):
            size = len(batch)
            features = pair_features_batch(graph, batch)
            for position, want in enumerate(expected[:size]):
                context = (backend, size, batch[position])
                row = features[position]
                assert row.keys() == want.keys(), context
                for key, value in want.items():
                    assert math.isclose(
                        row[key], value, rel_tol=TOLERANCE, abs_tol=TOLERANCE
                    ), (*context, key)


def test_the_sweep_reaches_scored_candidates():
    """Guard the oracle's power: many swept pairs share a neighbour."""
    shared = sum(
        row["common_social_neighbors"] > 0
        for _, san in CASES
        for row in _expected_features(san, _pairs(san))
    )
    assert shared > 100
