"""Property-based tests for model components (distributions, closures, events)."""


import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fitting import DiscreteLognormal, PowerLaw
from model_reference import LinearAttributePreferentialAttachment

from repro.models import (
    ArrivalHistory,
    apply_event,
    predicted_attribute_social_degree_exponent,
    SANModelParameters,
    truncated_normal_moments,
)
from repro.graph import SAN


@given(st.floats(1.2, 4.0), st.integers(1, 5))
@settings(max_examples=30, deadline=None)
def test_power_law_pmf_positive_and_decreasing(alpha, xmin):
    dist = PowerLaw(alpha=alpha, xmin=xmin)
    ks = np.array([xmin, xmin + 1, xmin + 10, xmin + 100])
    pmf = dist.pmf(ks)
    assert np.all(pmf > 0)
    assert np.all(np.diff(pmf) < 0)


@given(st.floats(-1.0, 3.0), st.floats(0.2, 2.0))
@settings(max_examples=40, deadline=None)
def test_lognormal_log_pmf_finite(mu, sigma):
    dist = DiscreteLognormal(mu=mu, sigma=sigma, xmin=1)
    values = dist.log_pmf([1, 2, 10, 100])
    assert np.all(np.isfinite(values))
    assert np.all(values <= 0.0)


@given(st.floats(-5.0, 10.0), st.floats(0.1, 5.0))
@settings(max_examples=60, deadline=None)
def test_truncated_normal_moments_bounds(mu, sigma):
    mean, variance = truncated_normal_moments(mu, sigma)
    assert mean >= 0.0 or abs(mean) < 1e-9
    assert mean >= mu - 1e-9  # truncation can only raise the mean
    assert 0.0 <= variance <= sigma * sigma + 1e-9


@given(st.floats(0.01, 0.9))
@settings(max_examples=50, deadline=None)
def test_theorem_two_exponent_above_two(p):
    params = SANModelParameters(steps=10, new_attribute_probability=p)
    exponent = predicted_attribute_social_degree_exponent(params)
    assert exponent > 2.0


@given(
    st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12)), min_size=1, max_size=40),
    st.floats(0.0, 50.0),
)
@settings(max_examples=40, deadline=None)
def test_lapa_weights_nonnegative_and_monotone_in_beta(edges, beta):
    san = SAN()
    for source, target in edges:
        if source != target:
            san.add_social_edge(source, target)
    san.add_attribute_edge(0, "a")
    san.add_attribute_edge(1, "a")
    low = LinearAttributePreferentialAttachment(alpha=1.0, beta=0.0)
    high = LinearAttributePreferentialAttachment(alpha=1.0, beta=beta)
    weight_low = low.weight(san, 0, 1)
    weight_high = high.weight(san, 0, 1)
    assert weight_low > 0 and weight_high > 0
    assert weight_high >= weight_low


@given(st.integers(1, 30))
@settings(max_examples=30, deadline=None)
def test_arrival_history_replay_is_consistent(num_nodes):
    history = ArrivalHistory()
    for node in range(num_nodes):
        history.record_node(node)
        if node > 0:
            history.record_social_link(node, node - 1)
        history.record_attribute_link(node, f"a{node % 3}")
    final = history.final_san()
    assert final.number_of_social_nodes() == num_nodes
    assert final.number_of_social_edges() == num_nodes - 1
    # Replayed event by event, the state before each event never contains
    # that event's edge, and the last state is the final SAN.
    state = history.initial.copy()
    for event in history.events:
        if event.kind == "social":
            assert not state.has_social_edge(event.first, event.second)
        if event.kind == "attribute":
            assert not state.has_attribute_edge(event.first, event.second)
        apply_event(state, event)
    assert state.summary() == final.summary()
