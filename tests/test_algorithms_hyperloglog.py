"""Tests for the HyperLogLog register-matrix estimator.

A counter is one row of registers: :func:`register_matrix_for_items` seeds
one row per item, ``np.maximum`` over rows is the union of their counters,
and :func:`cardinality_of_register_matrix` reads every row's estimate.
"""

import numpy as np
import pytest

from repro.algorithms import cardinality_of_register_matrix, register_matrix_for_items


def hll_registers(items, precision, salt=0):
    """The registers of one counter holding every item of ``items``."""
    seeded = register_matrix_for_items(list(items), precision, salt)
    return np.maximum.reduce(seeded, axis=0, initial=0)


def hll_estimate(items, precision, salt=0):
    registers = hll_registers(items, precision, salt)
    return float(cardinality_of_register_matrix(registers[np.newaxis, :])[0])


def test_precision_validation():
    for precision in (2, 3, 17, 20):
        with pytest.raises(ValueError):
            register_matrix_for_items(["item"], precision)
        with pytest.raises(ValueError):
            register_matrix_for_items([], precision)
    for precision in (4, 16):
        assert register_matrix_for_items(["item"], precision).shape == (1, 1 << precision)


def test_empty_counter_estimates_zero():
    assert hll_estimate([], precision=7) == pytest.approx(0.0, abs=1e-9)


def test_small_cardinality_is_close():
    assert abs(hll_estimate(range(50), precision=10) - 50) <= 5


def test_large_cardinality_within_error_bound():
    n = 20000
    relative_error = abs(hll_estimate(range(n), precision=11) - n) / n
    # Standard error is ~1.04/sqrt(2048) ~= 2.3%; allow 4 sigma.
    assert relative_error < 0.1


def test_duplicates_do_not_increase_estimate():
    once = hll_registers(range(100), precision=9)
    assert np.array_equal(hll_registers(list(range(100)) * 10, precision=9), once)
    assert abs(hll_estimate(list(range(100)) * 10, precision=9) - 100) <= 15


def test_salt_changes_hash_stream_but_not_estimate_much():
    a = hll_registers(range(1000), precision=10, salt=0)
    b = hll_registers(range(1000), precision=10, salt=1)
    assert not np.array_equal(a, b)
    estimates = cardinality_of_register_matrix(np.stack([a, b]))
    assert abs(estimates[0] - estimates[1]) / 1000 < 0.15
