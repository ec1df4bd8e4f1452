"""The column-fed Figure 15 encoding against the per-event encoder.

:func:`repro.models.fast_likelihood.encode_history` derives the scorer's
arrays from a history's int columns: a window of the simulator's event log,
an Algorithm 1 run's compact log, or an object history lowered by
:meth:`ArrivalHistory.columns`.  ``encode_history_loop`` in
``model_reference.py`` derives them one event object at a time.  The two
must agree array for array; the membership CSRs are compared row by row in
(position, id) order, because the order of a row's initial links follows the
initial SAN's set iteration.
"""

import numpy as np
import pytest
from evolution_reference import arrival_history
from hypothesis import given, settings
from hypothesis import strategies as st
from model_reference import encode_history_loop

from repro.graph import SAN
from repro.metrics import PhaseBoundaries
from repro.models import (
    ArrivalHistory,
    SANModelParameters,
    SybilWave,
    encode_history,
    evaluate_attachment_models,
    figure15_specs,
    figure15_sweep,
    generate_san,
)
from repro.models.history import ArrivalEvent
from repro.synthetic import GooglePlusConfig, SybilWaveDay, simulate_google_plus

#: The dispatched operations this oracle checks (none: it checks
#: the data pipeline, not a kernel).
ORACLE_OPS = ()

_MEMBERSHIPS = (
    ("node_attr_indptr", "node_attr_ids", "node_attr_pos"),
    ("attr_member_indptr", "attr_member_ids", "attr_member_pos"),
)


def _rows_in_order(indptr, ids, pos):
    rows = np.repeat(np.arange(indptr.size - 1), np.diff(indptr))
    order = np.lexsort((ids, pos, rows))
    return ids[order], pos[order]


def assert_same_encoding(actual, expected):
    membership = {name for group in _MEMBERSHIPS for name in group}
    for name in expected.__dataclass_fields__:
        if name in membership:
            continue
        got, want = getattr(actual, name), getattr(expected, name)
        if isinstance(want, np.ndarray):
            assert got.dtype == want.dtype, name
            assert np.array_equal(got, want), name
        else:
            assert got == want, name
    for indptr, ids, pos in _MEMBERSHIPS:
        assert np.array_equal(getattr(actual, indptr), getattr(expected, indptr)), indptr
        for got, want in zip(
            _rows_in_order(*(getattr(actual, name) for name in (indptr, ids, pos))),
            _rows_in_order(*(getattr(expected, name) for name in (indptr, ids, pos))),
        ):
            assert np.array_equal(got, want), ids


@pytest.fixture(scope="module")
def churn_evolution():
    config = GooglePlusConfig(
        total_users=200,
        num_days=24,
        phases=PhaseBoundaries(phase_one_end=6, phase_two_end=18),
        attribute_churn_rate=3.0,
        sybil_waves=(SybilWaveDay(day=15, num_sybils=12, intra_links=10),),
    )
    return simulate_google_plus(config, rng=7)


@pytest.mark.parametrize("start_day", [1, 8, 14, 21])
def test_evolution_window_encodes_like_its_event_objects(start_day, tiny_evolution):
    end_day = min(tiny_evolution.num_days, start_day + 15)
    assert_same_encoding(
        encode_history(tiny_evolution.arrival_history(start_day, end_day)),
        encode_history_loop(arrival_history(tiny_evolution, start_day, end_day)),
    )


@pytest.mark.parametrize("start_day", [1, 10, 20])
def test_churned_window_encodes_like_its_event_objects(start_day, churn_evolution):
    assert_same_encoding(
        encode_history(churn_evolution.arrival_history(start_day)),
        encode_history_loop(arrival_history(churn_evolution, start_day)),
    )


def test_window_scores_equal_the_object_history(tiny_evolution):
    start_day = tiny_evolution.num_days // 3
    columns = tiny_evolution.arrival_history(start_day)
    objects = arrival_history(tiny_evolution, start_day)
    assert figure15_sweep(columns, max_links=400, rng=3) == figure15_sweep(
        objects, max_links=400, rng=3
    )


@pytest.mark.parametrize(
    "params",
    [
        SANModelParameters(steps=300),
        SANModelParameters(
            steps=300,
            attribute_churn_rate=0.4,
            sybil_waves=(SybilWave(step=150, num_sybils=8),),
        ),
    ],
    ids=["plain", "churn-and-sybils"],
)
def test_model_run_log_encodes_like_its_decoded_history(params):
    run = generate_san(params, rng=23, record_history=True)
    columns = run.history_columns()
    assert_same_encoding(encode_history(columns), encode_history_loop(run.history()))
    specs = figure15_specs(alphas=(0.5, 1.0), papa_betas=(0.0, 2.0), lapa_betas=(0.0, 10.0))
    assert evaluate_attachment_models(columns, specs, max_links=300, rng=4) == (
        evaluate_attachment_models(run.history(), specs, max_links=300, rng=4)
    )


def test_unrecorded_run_has_an_empty_window():
    run = generate_san(SANModelParameters(steps=50), rng=1)
    columns = run.history_columns()
    assert columns.num_events == 0
    assert columns.num_initial_nodes == 0
    assert_same_encoding(encode_history(columns), encode_history_loop(run.history()))


# ----------------------------------------------------------------------
# Object histories with every irregular event the adapter must keep
# ----------------------------------------------------------------------
_LABELS = st.one_of(st.integers(0, 7), st.sampled_from(["a", "b", "c"]))
_ATTRS = st.sampled_from(["employer:x", "city:y", "school:z", "major:w"])
_EVENTS = st.one_of(
    st.tuples(st.just("node"), _LABELS, st.none()),
    st.tuples(st.just("social"), _LABELS, _LABELS),
    st.tuples(st.just("attribute"), _LABELS, _ATTRS),
    st.tuples(st.just("attribute_remove"), _LABELS, _ATTRS),
    st.tuples(st.just("social_remove"), _LABELS, _LABELS),
)


@st.composite
def object_histories(draw):
    initial = SAN()
    for node in draw(st.lists(_LABELS, max_size=5, unique=True)):
        initial.add_social_node(node)
    nodes = list(initial.social_nodes())
    if nodes:
        for source, target in draw(
            st.lists(st.tuples(st.sampled_from(nodes), st.sampled_from(nodes)), max_size=8)
        ):
            initial.add_social_edge(source, target)
        for social, attribute in draw(
            st.lists(st.tuples(st.sampled_from(nodes), _ATTRS), max_size=6)
        ):
            initial.add_attribute_edge(social, attribute, attr_type=attribute.split(":")[0])
    history = ArrivalHistory(initial=initial)
    for kind, first, second in draw(st.lists(_EVENTS, max_size=40)):
        history.events.append(ArrivalEvent(kind, first, second))
    return history


@given(object_histories())
@settings(max_examples=200, deadline=None)
def test_object_history_encodes_like_the_per_event_pass(history):
    assert_same_encoding(encode_history(history), encode_history_loop(history))
