"""HyperLogLog cardinality counters as numpy register matrices.

HyperANF (Boldi, Rosa, Vigna — WWW 2011), which the paper uses to approximate
the effective diameter of Google+, maintains one HyperLogLog counter per node
and repeatedly unions each node's counter with its neighbors' counters.  This
module holds the counters as plain numpy: one *register matrix* of shape
``(num_counters, 2**precision)`` where row ``i`` is counter ``i``'s
registers, and the union of counters is ``np.maximum`` over their rows.
:func:`register_parameters` computes the (index, rank) update of a single
element, memoized on ``repr(item)``, salt and precision, so a snapshot series
hashes each label once; :func:`register_matrix_for_items` seeds one row per
item (checking the precision with :func:`validate_precision`), and
:func:`cardinality_of_register_matrix` evaluates the bias-corrected estimate
of every row at once, reading each register's ``2**-rank`` from a lookup
table.

Examples
--------
>>> import numpy as np
>>> registers = register_matrix_for_items(["a", "b", "c", "a"], precision=8)
>>> union = np.maximum.reduce(registers)[np.newaxis, :]
>>> round(float(cardinality_of_register_matrix(union)[0]), 2)
3.02
"""

from __future__ import annotations

import functools
import hashlib
import struct
from typing import Hashable, Sequence, Tuple

import numpy as np

#: Smallest and largest supported number of index bits.
MIN_PRECISION = 4
MAX_PRECISION = 16

#: ``2**-r`` for every uint8 register value ``r``: the cardinality estimate
#: gathers from this table instead of computing ``ldexp`` per register.  The
#: entries are exact powers of two, so the estimate is bit-identical.
_INVERSE_POWERS = np.ldexp(1.0, -np.arange(256))


def validate_precision(precision: int) -> int:
    """``precision`` if it is a supported index-bit count, else ``ValueError``."""
    if not MIN_PRECISION <= precision <= MAX_PRECISION:
        raise ValueError(
            f"precision must be in [{MIN_PRECISION}, {MAX_PRECISION}], got {precision}"
        )
    return precision


def _alpha(num_registers: int) -> float:
    """The standard HyperLogLog bias-correction constant for ``m`` registers."""
    if num_registers == 16:
        return 0.673
    if num_registers == 32:
        return 0.697
    if num_registers == 64:
        return 0.709
    return 0.7213 / (1 + 1.079 / num_registers)


def _hash64(text: str, salt: int = 0) -> int:
    """A stable 64-bit hash of ``text`` (an item's ``repr``), free of PYTHONHASHSEED."""
    payload = text.encode("utf-8") + struct.pack("<Q", salt)
    digest = hashlib.blake2b(payload, digest_size=8).digest()
    return int.from_bytes(digest, "little")


def register_parameters(
    item: Hashable, precision: int, salt: int = 0
) -> Tuple[int, int]:
    """``(register_index, rank)`` produced by inserting ``item``.

    The register at ``register_index`` becomes ``max(register, rank)``.  The
    hash reads only ``repr(item)``, so the memo is keyed on it rather than on
    ``item``: ``1`` and ``True`` are equal dict keys but hash to different
    registers.
    """
    return _register_parameters_of_repr(repr(item), precision, salt)


@functools.lru_cache(maxsize=1 << 16)
def _register_parameters_of_repr(text: str, precision: int, salt: int) -> Tuple[int, int]:
    num_registers = 1 << precision
    hashed = _hash64(text, salt)
    register_index = hashed & (num_registers - 1)
    remaining = hashed >> precision
    # Rank = position of the first set bit in the remaining 64 - b bits.
    bit_budget = 64 - precision
    if remaining == 0:
        rank = bit_budget + 1
    else:
        rank = 1
        while remaining & 1 == 0 and rank <= bit_budget:
            remaining >>= 1
            rank += 1
    return register_index, rank


def register_matrix_for_items(
    items: Sequence[Hashable], precision: int, salt: int = 0
) -> np.ndarray:
    """One-counter-per-item register matrix, each row seeded with its item.

    Row ``i`` holds the one register that ``items[i]`` sets.  Raises
    ``ValueError`` for an unsupported precision, even when ``items`` is
    empty.
    """
    validate_precision(precision)
    matrix = np.zeros((len(items), 1 << precision), dtype=np.uint8)
    if len(items):
        indices, ranks = zip(*(register_parameters(item, precision, salt) for item in items))
        matrix[np.arange(len(items)), np.asarray(indices)] = ranks
    return matrix


def cardinality_of_register_matrix(registers: np.ndarray) -> np.ndarray:
    """Bias-corrected cardinality estimate of every row of a register matrix.

    The raw estimate is ``alpha_m * m**2 / sum(2**-register)``; a row whose
    raw estimate is at most ``2.5 m`` and which still has empty registers
    takes the small-range linear-counting estimate ``m ln(m / zeros)``.
    """
    if registers.ndim != 2:
        raise ValueError("expected a 2-D (counters, registers) matrix")
    num_counters, m = registers.shape
    if num_counters == 0:
        return np.zeros(0, dtype=np.float64)
    harmonic = _INVERSE_POWERS[registers].sum(axis=1)
    raw = _alpha(m) * m * m / harmonic
    zeros = (registers == 0).sum(axis=1)
    small = (raw <= 2.5 * m) & (zeros > 0)
    if np.any(small):
        corrected = m * np.log(m / np.where(zeros > 0, zeros, 1))
        raw = np.where(small, corrected, raw)
    return raw
