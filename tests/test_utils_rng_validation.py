"""Unit tests for RNG coercion and argument validation."""

import random

import pytest

from repro.utils import (
    ensure_rng,
    require_non_negative,
    require_positive,
    require_probability,
)


def test_ensure_rng_from_int_is_deterministic():
    first = ensure_rng(42)
    second = ensure_rng(42)
    assert [first.random() for _ in range(3)] == [second.random() for _ in range(3)]


def test_ensure_rng_passthrough():
    generator = random.Random(7)
    assert ensure_rng(generator) is generator


def test_ensure_rng_none_gives_generator():
    assert isinstance(ensure_rng(None), random.Random)


def test_ensure_rng_rejects_bad_type():
    with pytest.raises(TypeError):
        ensure_rng("seed")


def test_require_positive():
    assert require_positive(3, "x") == 3
    with pytest.raises(ValueError):
        require_positive(0, "x")
    with pytest.raises(ValueError):
        require_positive(-1, "x")


def test_require_non_negative():
    assert require_non_negative(0, "x") == 0
    with pytest.raises(ValueError):
        require_non_negative(-0.5, "x")


def test_require_probability():
    assert require_probability(0.5, "p") == 0.5
    assert require_probability(0.0, "p") == 0.0
    assert require_probability(1.0, "p") == 1.0
    with pytest.raises(ValueError):
        require_probability(1.5, "p")
    with pytest.raises(ValueError):
        require_probability(-0.1, "p")
