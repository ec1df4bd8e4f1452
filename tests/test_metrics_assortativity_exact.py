"""The assortativity coefficients are exact (Figures 7b and 12b).

Both coefficients are Pearson correlations computed from exact integer
moments (``metrics/joint_degree._pearson_arrays``).  So each is the
correctly rounded value of its definition, whatever the order in which users
are labelled and whatever thread count the BLAS under numpy runs with.  The
oracle here is the definition, Σ(x − x̄)(y − ȳ) / √(Σ(x − x̄)² Σ(y − ȳ)²),
evaluated in 60-digit ``decimal`` arithmetic over (x, y) pairs counted in
plain Python.

The test SAN has 24,000 social links and about 22,000 attribute links, above
the size (about 10,000 elements) at which OpenBLAS hands a float dot product
to worker threads; a float kernel's last bits then depend on
``OPENBLAS_NUM_THREADS``.
"""

import math
import os
import random
import subprocess
import sys
from collections import Counter
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.graph import san_from_edge_lists
from repro.metrics import attribute_assortativity, social_assortativity
from repro.metrics.joint_degree import _pearson_arrays

NUM_USERS = 3000
NUM_LINKS = 24000
NUM_CITIES = 400


def skewed_edges(seed: int = 7):
    """(social links, attribute records) with heavy-tailed degrees on both sides."""
    rng = random.Random(seed)
    links = set()
    while len(links) < NUM_LINKS:
        source = rng.randrange(NUM_USERS)
        target = int(NUM_USERS * rng.random() ** 3)
        if source != target:
            links.add((source, target))
    records = {
        (int(NUM_USERS * rng.random() ** 2), "city", str(int(NUM_CITIES * rng.random() ** 3)))
        for _ in range(NUM_LINKS)
    }
    return sorted(links), sorted(records)


def skewed_san(relabel=None):
    """The test SAN; ``relabel`` maps every user id to a new label, and then
    the links are inserted in a shuffled order too."""
    links, records = skewed_edges()
    if relabel is not None:
        links = [(relabel[u], relabel[v]) for u, v in links]
        records = [(relabel[user], kind, value) for user, kind, value in records]
        random.Random(13).shuffle(links)
        random.Random(17).shuffle(records)
    return san_from_edge_lists(links, records)


def decimal_pearson(pairs) -> Decimal:
    """The Pearson correlation of ``(x, y)`` pairs to 60 significant digits."""
    with localcontext() as context:
        context.prec = 60
        n = len(pairs)
        mean_x = sum(Decimal(x) for x, _ in pairs) / n
        mean_y = sum(Decimal(y) for _, y in pairs) / n
        dx = [Decimal(x) - mean_x for x, _ in pairs]
        dy = [Decimal(y) - mean_y for _, y in pairs]
        covariance = sum(a * b for a, b in zip(dx, dy))
        return covariance / (sum(a * a for a in dx) * sum(b * b for b in dy)).sqrt()


def _assert_within_one_ulp(value: float, exact: Decimal) -> None:
    error = abs(Decimal(value) - exact)
    assert error <= Decimal(math.ulp(float(exact))), (value.hex(), exact, error)


def test_values_lie_within_one_ulp_of_the_definition():
    links, records = skewed_edges()
    out_degree = Counter(u for u, _ in links)
    in_degree = Counter(v for _, v in links)
    members = Counter((kind, value) for _, kind, value in records)
    memberships = Counter(user for user, _, _ in records)
    san = skewed_san()
    _assert_within_one_ulp(
        social_assortativity(san),
        decimal_pearson([(out_degree[u], in_degree[v]) for u, v in links]),
    )
    _assert_within_one_ulp(
        attribute_assortativity(san),
        decimal_pearson(
            [(members[kind, value], memberships[user]) for user, kind, value in records]
        ),
    )


def test_relabelling_users_leaves_both_values_bit_identical():
    san = skewed_san()
    permutation = list(range(NUM_USERS))
    random.Random(11).shuffle(permutation)
    relabelled = skewed_san(relabel=permutation)
    assert social_assortativity(relabelled).hex() == social_assortativity(san).hex()
    assert attribute_assortativity(relabelled).hex() == attribute_assortativity(san).hex()


_CHILD = """
import sys
sys.path[:0] = sys.argv[1:3]
from test_metrics_assortativity_exact import skewed_san
from repro.metrics import attribute_assortativity, social_assortativity
san = skewed_san()
print(social_assortativity(san).hex(), attribute_assortativity(san).hex())
"""


def test_blas_thread_count_leaves_both_values_bit_identical():
    paths = [str(Path(__file__).parent), str(Path(repro.__file__).resolve().parents[1])]
    outputs = [
        subprocess.run(
            [sys.executable, "-c", _CHILD, *paths],
            env=dict(os.environ, OPENBLAS_NUM_THREADS=threads),
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        for threads in ("1", "2")
    ]
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize(
    "high",
    [2**31, 2**40],
    ids=["int64-chunks", "python-ints"],
)
def test_moments_past_int64_keep_the_exact_value(high):
    """Σxy above 2^63 neither wraps nor loses the correctly rounded value.

    At 2^31 each product fits int64 but their sum does not; at 2^40 a single
    square passes 2^63.
    """
    rng = np.random.default_rng(5)
    xs = rng.integers(high // 2, high, 4000, dtype=np.int64)
    ys = xs // 3 + rng.integers(0, high // 2, 4000, dtype=np.int64)
    pairs = list(zip(xs.tolist(), ys.tolist()))
    assert sum(x * y for x, y in pairs) > 2**63
    _assert_within_one_ulp(_pearson_arrays(xs, ys), decimal_pearson(pairs))


def test_degenerate_inputs_give_zero():
    constant = np.full(5, 3, dtype=np.int64)
    varied = np.arange(5, dtype=np.int64)
    assert _pearson_arrays(constant, varied) == 0.0
    assert _pearson_arrays(varied, constant) == 0.0
    assert _pearson_arrays(varied[:0], varied[:0]) == 0.0
    assert _pearson_arrays(varied, varied[:4]) == 0.0
    assert _pearson_arrays(varied, varied) == 1.0
    assert _pearson_arrays(varied, -varied) == -1.0
