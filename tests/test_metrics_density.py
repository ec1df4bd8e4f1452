"""Tests for density metrics."""

import pytest

from repro.graph import SAN, san_from_edge_lists
from repro.metrics import (
    attribute_declaration_fraction,
    attribute_density,
    social_density,
)


def test_social_density(figure1_san):
    assert social_density(figure1_san) == pytest.approx(10 / 6)


def test_attribute_density(figure1_san):
    assert attribute_density(figure1_san) == pytest.approx(8 / 4)


def test_densities_empty():
    assert social_density(SAN()) == 0.0
    assert attribute_density(SAN()) == 0.0


def test_attribute_declaration_fraction(figure1_san):
    # All six social nodes declare at least one attribute in the fixture.
    assert attribute_declaration_fraction(figure1_san) == pytest.approx(1.0)
    san = san_from_edge_lists([(1, 2), (2, 3)], [(1, "city", "SF")])
    assert attribute_declaration_fraction(san) == pytest.approx(1 / 3)
    assert attribute_declaration_fraction(SAN()) == 0.0
