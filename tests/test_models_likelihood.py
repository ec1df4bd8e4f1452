"""Tests for the attachment-model likelihood evaluation (Figure 15 machinery).

The semantics tests run against the production ``evaluate_attachment_models``
and the loop reference in ``model_reference.py`` — the contract is that they
are interchangeable: same scored-link set, same per-model log-likelihoods.
"""

import math

import pytest
from model_reference import (
    LinearAttributePreferentialAttachment,
    PowerAttributePreferentialAttachment,
    PreferentialAttachment,
    evaluate_attachment_models_loop,
)

from repro.graph import SAN
from repro.models import (
    ArrivalHistory,
    AttachmentModelSpec,
    apply_event,
    evaluate_attachment_models,
    figure15_sweep,
)

#: The loop reference and the production scorer, by the ids the semantics
#: tests report.
EVALUATORS = [
    pytest.param(evaluate_attachment_models_loop, id="loop"),
    pytest.param(evaluate_attachment_models, id="vectorized"),
]


def _toy_history():
    """Small hand-built history: a hub accumulating links plus attribute ties."""
    initial = SAN()
    for node in range(4):
        initial.add_social_node(node)
    initial.add_social_edge(1, 0)
    initial.add_social_edge(2, 0)
    initial.add_attribute_edge(2, "g", attr_type="employer")
    initial.add_attribute_edge(3, "g", attr_type="employer")

    history = ArrivalHistory(initial=initial)
    history.record_node(4)
    history.record_attribute_link(4, "g", attr_type="employer")
    history.record_social_link(4, 0)   # preferential: the hub
    history.record_social_link(4, 2)   # attribute-driven: shares "g"
    history.record_node(5)
    history.record_social_link(5, 0)
    return history


def _mid_arrival_history():
    """A history whose denominators depend on mid-history node arrivals.

    Node 2 joins *between* two scored links and node 7 becomes social only
    through being a link target — both must enter the normalising sum for
    later links but not earlier ones.
    """
    initial = SAN()
    initial.add_social_node(0)
    initial.add_social_node(1)
    initial.add_social_edge(1, 0)
    initial.add_attribute_edge(0, "g", attr_type="employer")
    history = ArrivalHistory(initial=initial)
    history.record_social_link(0, 1)
    history.record_node(2)
    history.record_attribute_link(2, "g", attr_type="employer")
    history.record_social_link(2, 0)
    history.record_social_link(1, 7)   # 7 undeclared: not scoreable, becomes social
    history.record_social_link(0, 7)   # now scoreable; denominator includes 2 and 7
    return history


def test_spec_names_and_attribute_factor():
    pa = AttachmentModelSpec(kind="pa", alpha=1.0)
    assert pa.name == "pa(alpha=1, beta=0)"
    lapa = AttachmentModelSpec(kind="lapa", alpha=1.0, beta=100.0)
    assert "lapa" in lapa.name
    assert lapa.attribute_factor(2.0) == pytest.approx(201.0)
    papa = AttachmentModelSpec(kind="papa", alpha=1.0, beta=2.0)
    assert papa.attribute_factor(3.0) == pytest.approx(10.0)
    assert papa.attribute_factor(0.0) == pytest.approx(1.0)
    flat_papa = AttachmentModelSpec(kind="papa", alpha=1.0, beta=0.0)
    assert flat_papa.attribute_factor(0.0) == pytest.approx(2.0)


@pytest.mark.parametrize("kind", ["bogus", "lappa", "PA", "uniform"])
def test_spec_rejects_an_unknown_kind(kind):
    """A typo must not be scored silently as plain PA."""
    with pytest.raises(ValueError, match="kind"):
        AttachmentModelSpec(kind=kind, alpha=1.0, beta=100.0)


@pytest.mark.parametrize("evaluate", EVALUATORS)
def test_evaluate_requires_social_links(evaluate):
    history = ArrivalHistory()
    history.record_node(1)
    with pytest.raises(ValueError):
        evaluate(history, [AttachmentModelSpec(kind="pa", alpha=1.0)])


@pytest.mark.parametrize("evaluate", EVALUATORS)
def test_loglikelihoods_are_negative_and_finite(evaluate):
    history = _toy_history()
    specs = [
        AttachmentModelSpec(kind="pa", alpha=1.0, label="pa"),
        AttachmentModelSpec(kind="pa", alpha=0.0, label="uniform"),
        AttachmentModelSpec(kind="lapa", alpha=1.0, beta=100.0, label="lapa"),
    ]
    result = evaluate(history, specs, max_links=None)
    assert result.num_links_scored == 3
    for value in result.log_likelihoods.values():
        assert value < 0
        assert math.isfinite(value)


@pytest.mark.parametrize("evaluate", EVALUATORS)
def test_papa_beta_zero_is_exactly_pa(evaluate):
    """PAPA's beta = 0 factor is the constant 2, which cancels in the ratio."""
    history = _toy_history()
    for alpha in (0.0, 0.5, 1.0, 2.0):
        specs = [
            AttachmentModelSpec(kind="pa", alpha=alpha, label="pa"),
            AttachmentModelSpec(kind="papa", alpha=alpha, beta=0.0, label="papa0"),
        ]
        result = evaluate(history, specs, max_links=None)
        assert result.log_likelihoods["papa0"] == pytest.approx(
            result.log_likelihoods["pa"], rel=1e-12, abs=1e-12
        )


@pytest.mark.parametrize("evaluate", EVALUATORS)
def test_max_links_none_scores_every_eligible_link(evaluate):
    """Duplicates, self-loops and not-yet-social targets are never scored;
    everything else is when ``max_links=None``."""
    initial = SAN()
    for node in range(3):
        initial.add_social_node(node)
    initial.add_social_edge(1, 0)
    history = ArrivalHistory(initial=initial)
    history.record_social_link(1, 0)   # duplicate of an initial edge
    history.record_social_link(0, 0)   # self-loop
    history.record_social_link(0, 9)   # target not social yet
    history.record_social_link(2, 9)   # 9 became social above -> scored
    history.record_social_link(0, 2)   # scored
    history.record_social_link(0, 2)   # duplicate of an event edge
    result = evaluate(
        history, [AttachmentModelSpec(kind="pa", alpha=1.0)], max_links=None
    )
    assert result.num_links_scored == 2


@pytest.mark.parametrize("evaluate", EVALUATORS)
@pytest.mark.parametrize(
    "spec, model_factory",
    [
        (
            AttachmentModelSpec(kind="lapa", alpha=1.0, beta=50.0, label="m"),
            lambda: LinearAttributePreferentialAttachment(alpha=1.0, beta=50.0, smoothing=1.0),
        ),
        (
            AttachmentModelSpec(kind="papa", alpha=0.5, beta=2.0, label="m"),
            lambda: PowerAttributePreferentialAttachment(alpha=0.5, beta=2.0, smoothing=1.0),
        ),
        (
            AttachmentModelSpec(kind="pa", alpha=2.0, label="m"),
            lambda: PreferentialAttachment(alpha=2.0, smoothing=1.0),
        ),
    ],
)
def test_likelihood_matches_bruteforce(evaluate, spec, model_factory):
    """Both implementations must agree with a naive O(V)-per-link computation,
    including denominators affected by mid-history node arrivals."""
    for history in (_toy_history(), _mid_arrival_history()):
        result = evaluate(history, [spec], smoothing=1.0, max_links=None)

        model = model_factory()
        expected = 0.0
        state = history.initial.copy()
        for event in history.events:
            source, target = event.first, event.second
            if (
                event.kind == "social"
                and state.is_social_node(target)
                and not state.has_social_edge(source, target)
                and source != target
            ):
                weights = {
                    node: model.weight(state, source, node)
                    for node in state.social_nodes()
                    if node != source
                }
                expected += math.log(weights[target] / sum(weights.values()))
            apply_event(state, event)
        assert result.log_likelihoods["m"] == pytest.approx(expected, rel=1e-9)


@pytest.mark.parametrize("evaluate", EVALUATORS)
def test_pa_beats_uniform_on_preferential_history(evaluate):
    """A history dominated by hub attachment should favour PA over uniform."""
    initial = SAN()
    for node in range(3):
        initial.add_social_node(node)
    initial.add_social_edge(1, 0)
    initial.add_social_edge(2, 0)
    history = ArrivalHistory(initial=initial)
    for new_node in range(3, 40):
        history.record_node(new_node)
        history.record_social_link(new_node, 0)
    specs = [
        AttachmentModelSpec(kind="pa", alpha=1.0, label="pa"),
        AttachmentModelSpec(kind="pa", alpha=0.0, label="uniform"),
    ]
    result = evaluate(history, specs, max_links=None)
    assert result.log_likelihoods["pa"] > result.log_likelihoods["uniform"]
    improvements = result.relative_improvement_over("uniform")
    assert improvements["pa"] > 0


def test_relative_improvement_over_baseline_zero_raises():
    from repro.models.fast_likelihood import LikelihoodResult

    result = LikelihoodResult(log_likelihoods={"a": 0.0, "b": -1.0}, num_links_scored=1)
    with pytest.raises(ValueError):
        result.relative_improvement_over("a")


@pytest.mark.parametrize("implementation", ["vectorized"])
def test_figure15_sweep_structure(implementation):
    """The sweep's grids, on the one implementation ``figure15_sweep`` runs."""
    history = _toy_history()
    sweep = figure15_sweep(
        history,
        alphas=(0.0, 1.0),
        papa_betas=(0.0, 2.0),
        lapa_betas=(0.0, 100.0),
        max_links=None,
        rng=1,
    )
    assert set(sweep) == {"papa", "lapa", "pa_over_uniform", "num_links_scored"}
    assert (1.0, 100.0) in sweep["lapa"]
    assert (0.0, 2.0) in sweep["papa"]
    assert sweep["num_links_scored"] == 3
    # The PA reference improvement over itself is zero by definition.
    assert sweep["lapa"][(1.0, 0.0)] == pytest.approx(0.0, abs=1e-9)
