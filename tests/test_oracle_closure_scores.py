"""Oracle for the batched Section 5.2 kernel, ``score_closures``.

On a frozen SAN the closure types and the Baseline / RR / RR-SAN
probabilities come from a few sparse row products over the whole batch.
The per-pair references are the models' own ``target_probability``
methods, ``is_triadic_closure`` / ``is_focal_closure`` and
``classify_closures``, run on the mutable SAN.  Flags and counts must match
exactly; probabilities to 1e-12 relative, since the batched sums run in
another order.  Every ordered pair of users is scored (self-pairs included),
on the frozen SAN, an mmap-backed spill of it, and the mutable SAN, at
``fc`` in {0, 0.5, 1}.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from san_cases import spill_to_mmap

from repro.algorithms import classify_closures, is_focal_closure, is_triadic_closure
from repro.graph import SAN
from repro.models import (
    BaselineClosing,
    ClosureScores,
    RandomRandomClosing,
    RandomRandomSANClosing,
    evaluate_closure_models,
    score_closures,
)

#: The dispatched operations this oracle checks (see
#: ``tests/test_engine.py::TestIntrospection::test_oracles_cover_every_op``).
ORACLE_OPS = (
    "score_closures",
)

NUM_USERS = 10
WEIGHTS = (0.0, 0.5, 1.0)

edge_lists = st.lists(
    st.tuples(st.integers(0, NUM_USERS - 1), st.integers(0, NUM_USERS - 1)),
    max_size=30,
)
membership_lists = st.lists(
    st.tuples(st.integers(0, NUM_USERS - 1), st.integers(0, 5)),
    max_size=16,
)


def _build_san(edges, memberships) -> SAN:
    san = SAN()
    for user in range(NUM_USERS):
        san.add_social_node(user)
    for source, target in edges:
        san.add_social_edge(source, target)
    for user, value in memberships:
        san.add_attribute_edge(user, f"employer:{value}", attr_type="employer", value=str(value))
    return san


def _per_pair(san, pairs, weight):
    models = (
        BaselineClosing(),
        RandomRandomClosing(),
        RandomRandomSANClosing(attribute_weight=weight),
    )
    return ClosureScores(
        np.array([is_triadic_closure(san, u, v) for u, v in pairs], dtype=bool),
        np.array([is_focal_closure(san, u, v) for u, v in pairs], dtype=bool),
        *(
            np.array([model.target_probability(san, u, v) for u, v in pairs])
            for model in models
        ),
    )


# User 0 has no social neighbour but shares an attribute; 2 -> 1 makes 1
# adjacent to 2 only through an in-edge; attribute 3 has a single member;
# a self-loop on 5.
@given(edge_lists, membership_lists)
@settings(max_examples=40, deadline=None)
@example(
    edges=[(2, 1), (1, 3), (3, 2), (4, 3), (5, 5), (5, 6), (6, 7), (7, 5)],
    memberships=[(0, 0), (1, 0), (2, 1), (4, 1), (6, 2), (7, 2), (8, 3)],
)
def test_batched_scores_match_per_pair_models(edges, memberships):
    san = _build_san(edges, memberships)
    frozen = san.freeze()
    pairs = [(u, v) for u in range(NUM_USERS) for v in range(NUM_USERS)]
    expected_breakdown = classify_closures(san, pairs)
    for weight in WEIGHTS:
        expected = _per_pair(san, pairs, weight)
        runs = {
            "frozen": score_closures(frozen, pairs, attribute_weight=weight),
            "mmap": score_closures(spill_to_mmap(frozen), pairs, attribute_weight=weight),
            "mutable": score_closures(san, pairs, attribute_weight=weight),
        }
        for name, scores in runs.items():
            assert np.array_equal(scores.triadic, expected.triadic), name
            assert np.array_equal(scores.focal, expected.focal), name
            for column in ("baseline", "random_random", "rr_san"):
                np.testing.assert_allclose(
                    getattr(scores, column),
                    getattr(expected, column),
                    rtol=1e-12,
                    atol=0,
                    err_msg=f"{name} {column} fc={weight}",
                )
            assert scores.breakdown() == expected_breakdown, name


def test_comparison_matches_evaluate_closure_models(figure1_san):
    """Averages of the batched scores equal the per-pair evaluation's."""
    candidates = [
        (u, v)
        for u in figure1_san.social_nodes()
        for v in figure1_san.social_nodes()
        if u != v and not figure1_san.has_social_edge(u, v)
    ]
    expected = evaluate_closure_models(
        figure1_san,
        candidates,
        models=[BaselineClosing(), RandomRandomClosing(), RandomRandomSANClosing(0.5)],
    )
    actual = score_closures(figure1_san.freeze(), candidates, attribute_weight=0.5).comparison()
    assert actual.num_edges_scored == expected.num_edges_scored == len(candidates)
    for name, value in expected.average_log_probabilities.items():
        assert math.isclose(actual.average_log_probabilities[name], value, rel_tol=1e-12)


def test_take_keeps_the_order_of_positions(figure1_san):
    pairs = [(1, 3), (4, 1), (4, 3)]
    scores = score_closures(figure1_san.freeze(), pairs)
    picked = scores.take([2, 0])
    for full, part in zip(scores, picked):
        assert np.array_equal(part, full[[2, 0]])


def test_empty_batch_has_no_comparison(figure1_san):
    scores = score_closures(figure1_san.freeze(), [])
    assert scores.breakdown().total == 0
    with pytest.raises(ValueError, match="no closure edges"):
        scores.comparison()


@pytest.mark.parametrize("backend", ["mutable", "frozen"])
def test_negative_attribute_weight_is_rejected(figure1_san, backend):
    san = figure1_san if backend == "mutable" else figure1_san.freeze()
    with pytest.raises(ValueError, match="attribute_weight"):
        score_closures(san, [(1, 3)], attribute_weight=-1.0)
