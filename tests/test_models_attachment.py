"""Tests for the reference attachment models (uniform, PA, PAPA, LAPA), the
decomposed LAPA sampler the loop reference generator uses, and
:class:`AttachmentParameters`."""

import random
from collections import Counter

import pytest
from model_reference import (
    LinearAttributePreferentialAttachment,
    PowerAttributePreferentialAttachment,
    PreferentialAttachment,
    UniformAttachment,
    make_attachment_model,
    sample_lapa_target_fast,
    shared_attribute_count,
)

from repro.graph import san_from_edge_lists
from repro.models import AttachmentParameters


@pytest.fixture
def attachment_san():
    """A SAN with one high-in-degree node (hub) and attribute communities."""
    edges = [(i, 0) for i in range(1, 8)]  # node 0 has in-degree 7
    edges += [(0, 1), (1, 2)]
    attributes = [
        (5, "employer", "G"), (6, "employer", "G"), (7, "employer", "G"),
        (1, "city", "X"), (2, "city", "X"),
    ]
    return san_from_edge_lists(edges, attributes)


def test_uniform_weight_is_constant(attachment_san):
    model = UniformAttachment()
    assert model.weight(attachment_san, 1, 0) == 1.0
    assert model.weight(attachment_san, 1, 5) == 1.0


def test_pa_weight_scales_with_in_degree(attachment_san):
    model = PreferentialAttachment(alpha=1.0, smoothing=1.0)
    assert model.weight(attachment_san, 3, 0) == pytest.approx(8.0)  # in-degree 7 + 1
    assert model.weight(attachment_san, 3, 5) == pytest.approx(1.0)  # in-degree 0 + 1


def test_shared_attribute_count_and_type_weights(attachment_san):
    assert shared_attribute_count(attachment_san, 5, 6) == 1.0
    assert shared_attribute_count(attachment_san, 5, 1) == 0.0
    weighted = shared_attribute_count(
        attachment_san, 5, 6, type_weights={"employer": 3.0}
    )
    assert weighted == 3.0


def test_lapa_weight_combines_degree_and_attributes(attachment_san):
    model = LinearAttributePreferentialAttachment(alpha=1.0, beta=10.0)
    # Target 6 shares the employer with source 5: (0+1) * (1 + 10).
    assert model.weight(attachment_san, 5, 6) == pytest.approx(11.0)
    # Target 0 has in-degree 7 but shares nothing: 8 * 1.
    assert model.weight(attachment_san, 5, 0) == pytest.approx(8.0)


def test_papa_weight(attachment_san):
    model = PowerAttributePreferentialAttachment(alpha=1.0, beta=2.0)
    # shared = 1 -> factor 1 + 1^2 = 2.
    assert model.weight(attachment_san, 5, 6) == pytest.approx(2.0)
    # shared = 0, beta > 0 -> factor 1.
    assert model.weight(attachment_san, 5, 0) == pytest.approx(8.0)
    # beta = 0 reduces to 2 * PA weight.
    flat = PowerAttributePreferentialAttachment(alpha=1.0, beta=0.0)
    assert flat.weight(attachment_san, 5, 0) == pytest.approx(16.0)


def test_make_attachment_model_factory():
    assert isinstance(make_attachment_model(0, 0), UniformAttachment)
    assert isinstance(make_attachment_model(1.0, 0.0), PreferentialAttachment)
    assert isinstance(make_attachment_model(1.0, 5.0, kind="papa"), PowerAttributePreferentialAttachment)
    assert isinstance(make_attachment_model(1.0, 5.0, kind="lapa"), LinearAttributePreferentialAttachment)
    with pytest.raises(ValueError):
        make_attachment_model(1.0, 5.0, kind="bogus")


def test_sample_target_prefers_high_weight(attachment_san):
    model = PreferentialAttachment(alpha=1.0, smoothing=1.0)
    generator = random.Random(5)
    counts = Counter(
        model.sample_target(attachment_san, 3, [0, 5], rng=generator) for _ in range(500)
    )
    assert counts[0] > counts[5] * 3


def test_sample_target_empty_candidates(attachment_san):
    assert UniformAttachment().sample_target(attachment_san, 1, [], rng=1) is None


def test_sample_lapa_target_fast_matches_distribution(attachment_san):
    """The fast decomposed sampler should match the exact LAPA distribution."""
    params = AttachmentParameters(beta=50.0, smoothing=1.0)
    exact_model = LinearAttributePreferentialAttachment(alpha=1.0, beta=50.0, smoothing=1.0)
    source = 5
    candidates = [node for node in attachment_san.social_nodes() if node != source]
    weights = {c: exact_model.weight(attachment_san, source, c) for c in candidates}
    total = sum(weights.values())
    expected = {c: w / total for c, w in weights.items()}

    generator = random.Random(17)
    counts = Counter()
    draws = 4000
    for _ in range(draws):
        target = sample_lapa_target_fast(attachment_san, source, params, rng=generator)
        counts[target] += 1
    for candidate, probability in expected.items():
        observed = counts[candidate] / draws
        assert observed == pytest.approx(probability, abs=0.04)


def test_sample_lapa_target_fast_excludes_source_and_exclusions(attachment_san):
    params = AttachmentParameters(beta=0.0)
    generator = random.Random(3)
    for _ in range(100):
        target = sample_lapa_target_fast(
            attachment_san, 0, params, rng=generator, exclude={1, 2, 3}
        )
        assert target not in (0, 1, 2, 3)


def test_attachment_parameters_validation():
    with pytest.raises(ValueError):
        AttachmentParameters(smoothing=-1.0)
    with pytest.raises(ValueError):
        AttachmentParameters(beta=-0.1)
    # The in-degree exponent is 1 by construction, not a parameter.
    with pytest.raises(TypeError):
        AttachmentParameters(alpha=1.5)
