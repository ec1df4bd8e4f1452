"""Tests for exact and approximate clustering coefficients."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.algorithms import (
    approximate_average_clustering,
    approximate_social_clustering,
    average_attribute_clustering_coefficient,
    average_social_clustering_coefficient,
    clustering_by_degree,
    required_samples,
)
from repro.algorithms.clustering import (
    _attribute_clustering_array,
    average_clustering_by_attribute_type,
)
from repro.graph import SAN, san_from_edge_lists


def test_clique_clustering_is_one(clique_san):
    # c(u) <= 1, so an average of 1 means every node's coefficient is 1.
    assert average_social_clustering_coefficient(clique_san) == pytest.approx(1.0)
    # The shared attribute node's neighborhood is the whole clique.
    assert average_attribute_clustering_coefficient(clique_san) == pytest.approx(1.0)


def test_ring_clustering_is_zero(ring_san):
    assert average_social_clustering_coefficient(ring_san) == pytest.approx(0.0)


def test_node_clustering_with_one_way_links():
    # Triangle with one directed link among each node's two neighbors:
    # neighbors of 1 are {2, 3}, one link among them over 2 ordered pairs,
    # and likewise for 2 ({1, 3}: 1->3) and 3 ({1, 2}: 1->2).
    san = san_from_edge_lists([(1, 2), (1, 3), (2, 3)])
    assert clustering_by_degree(san) == [(2, pytest.approx(0.5))]
    assert average_social_clustering_coefficient(san) == pytest.approx(0.5)


def test_node_clustering_degree_below_two_is_zero():
    san = san_from_edge_lists([(1, 2)])
    assert clustering_by_degree(san) == []
    assert average_social_clustering_coefficient(san) == 0.0


def test_attribute_node_clustering(figure1_san):
    frozen = figure1_san.freeze()
    coefficients = dict(
        zip(frozen.attributes.attribute_labels(), _attribute_clustering_array(frozen))
    )
    # employer:Google members {1, 2} linked reciprocally -> c = 2/(2*1) = 1.
    assert coefficients["employer:Google"] == pytest.approx(1.0)
    # major:CS members {4, 5} are not linked.
    assert coefficients["major:Computer Science"] == 0.0


def test_average_clustering_for_attribute_type(figure1_san):
    # Each attribute type of figure1_san has one attribute node, so the
    # per-type average is that node's c(a); a type absent from the SAN has
    # no entry.
    assert average_clustering_by_attribute_type(figure1_san) == {
        "city": pytest.approx(1.0),
        "employer": pytest.approx(1.0),
        "major": 0.0,
        "school": pytest.approx(1.0),
    }


def test_clustering_by_degree_social(clique_san):
    points = clustering_by_degree(clique_san, kind="social")
    assert points == [(5, pytest.approx(1.0))]


def test_clustering_by_degree_invalid_kind(clique_san):
    with pytest.raises(ValueError):
        clustering_by_degree(clique_san, kind="bogus")


def test_required_samples_formula():
    # ceil(ln(200) / (2 * 0.002^2)) = 662290
    assert required_samples(0.002, 100) == 662290
    assert required_samples(0.05, 10) > 0
    with pytest.raises(ValueError):
        required_samples(0.0, 10)
    with pytest.raises(ValueError):
        required_samples(0.1, 0)


def test_approximate_matches_exact_on_clique(clique_san):
    approx = approximate_social_clustering(clique_san, num_samples=2000, rng=5)
    assert approx == pytest.approx(1.0, abs=0.05)


def test_approximate_matches_exact_on_figure1(figure1_san):
    exact = average_social_clustering_coefficient(figure1_san)
    approx = approximate_social_clustering(figure1_san, num_samples=20000, rng=11)
    assert approx == pytest.approx(exact, abs=0.05)


def test_approximate_attribute_clustering(figure1_san):
    exact = average_attribute_clustering_coefficient(figure1_san)
    approx = approximate_average_clustering(
        figure1_san,
        population=list(figure1_san.attribute_nodes()),
        num_samples=20000,
        rng=2,
    )
    assert approx == pytest.approx(exact, abs=0.07)


def test_approximate_empty_population():
    assert approximate_average_clustering(SAN(), population=[], num_samples=10) == 0.0


def test_approximate_with_epsilon_nu_defaults(figure1_san):
    # Uses the paper's K = ceil(ln(2*nu) / (2 eps^2)) with looser eps for speed.
    value = approximate_average_clustering(
        figure1_san, epsilon=0.05, nu=20, rng=3
    )
    exact = average_social_clustering_coefficient(figure1_san)
    assert value == pytest.approx(exact, abs=0.1)


def test_approximate_draws_exactly_num_samples_triples(clique_san):
    """The estimate is a mean over exactly ``num_samples`` triples: on a
    reciprocal clique every triple scores F = 2, so the score total is 2K and
    the estimate is exactly 1.0 for any K."""
    for samples in (1, 7, 100):
        assert approximate_average_clustering(clique_san, num_samples=samples, rng=7) == 1.0


def test_approximate_low_degree_centers_count_as_samples():
    """Centers with < 2 neighbors are zero-scored samples, not rejections: a
    reciprocal 4-clique plus 4 isolated users has C = 0.5 (rejecting the
    isolated centers would give the clique's 1.0), every clique center adds
    exactly 2 to the score total, and an edgeless SAN returns 0.0."""
    san = SAN()
    for source in range(4):
        for target in range(4):
            if source != target:
                san.add_social_edge(source, target)
    for node in range(4, 8):
        san.add_social_node(node)
    samples = 4000
    estimate = approximate_average_clustering(san, num_samples=samples, rng=11)
    clique_centers = estimate * samples  # score total / 2
    assert clique_centers == pytest.approx(round(clique_centers), abs=1e-9)
    assert estimate == pytest.approx(0.5, abs=0.05)

    edgeless = SAN()
    for node in range(5):
        edgeless.add_social_node(node)
    assert approximate_average_clustering(edgeless, num_samples=50, rng=11) == 0.0


#: A 200-user string-labelled SAN with 1,200 random links and 12 cities;
#: prints the estimate for both populations on the mutable SAN and its freeze.
_HASH_SEED_SCRIPT = """
import json, random
from repro.algorithms import approximate_average_clustering
from repro.graph import SAN
draws = random.Random(7)
san = SAN()
for user in range(200):
    san.add_social_node(f"user{user}")
for _ in range(1200):
    san.add_social_edge(f"user{draws.randrange(200)}", f"user{draws.randrange(200)}")
for user in range(200):
    san.add_attribute_edge(f"user{user}", f"city:{draws.randrange(12)}", attr_type="city")
cities = list(san.attribute_nodes())
print(json.dumps({
    f"{backend}/{kind}": approximate_average_clustering(
        graph, population=population, num_samples=4000, rng=1
    )
    for backend, graph in (("mutable", san), ("frozen", san.freeze()))
    for kind, population in (("social", None), ("attribute", cities))
}))
"""


def test_approximate_is_independent_of_the_hash_seed():
    """String labels iterate sets in hash-seed order; no draw may depend on it."""
    env = dict(os.environ)
    source_root = str(Path(repro.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (source_root, env.get("PYTHONPATH")) if part
    )
    estimates = []
    for hash_seed in ("0", "1", "2"):
        env["PYTHONHASHSEED"] = hash_seed
        result = subprocess.run(
            [sys.executable, "-c", _HASH_SEED_SCRIPT], capture_output=True, text=True, env=env
        )
        assert result.returncode == 0, result.stderr
        estimates.append(json.loads(result.stdout))
    assert estimates[0] == estimates[1] == estimates[2], estimates
    for kind in ("social", "attribute"):
        assert estimates[0][f"mutable/{kind}"] == estimates[0][f"frozen/{kind}"], estimates[0]


def test_approximate_zero_samples_is_zero(figure1_san):
    assert approximate_average_clustering(figure1_san, num_samples=0, rng=1) == 0.0
