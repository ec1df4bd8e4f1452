"""The evolution's column views against event-object replays.

:class:`~repro.synthetic.gplus.GroundTruthEvolution` cuts the ground truth,
the fidelity stage and the Section 4.3 subsample from int columns and CSR
arrays.  The references in ``evolution_reference.py`` (and the mutable
subsample below) compute the same things by decoding the log into event
objects and replaying it into a mutable SAN, one event at a time.
"""

import random

import numpy as np
import pytest
from evolution_reference import fidelity_metrics_loop, final_san, san_at
from san_cases import spill_to_mmap

from repro.algorithms.sampling import subsample_attributes
from repro.experiments.runner import canonical_json
from repro.experiments.validation import fidelity_metrics
from repro.graph import SAN
from repro.graph.bipartite import AttributeInfo
from repro.metrics import PhaseBoundaries
from repro.models.history import KIND_ATTRIBUTE, KIND_NODE, KIND_SOCIAL
from repro.synthetic import (
    FlashCrowdDay,
    GooglePlusConfig,
    GroundTruthEvolution,
    SybilWaveDay,
    simulate_google_plus,
    sybil_wave_config,
)

#: The dispatched operations this oracle checks (none: it checks
#: the data pipeline, not a kernel).
ORACLE_OPS = ()


@pytest.fixture(scope="module")
def regime_evolution():
    """Churn, a Sybil wave and a flash crowd in one small evolution."""
    config = GooglePlusConfig(
        total_users=200,
        num_days=24,
        phases=PhaseBoundaries(phase_one_end=6, phase_two_end=18),
        attribute_churn_rate=3.0,
        flash_crowds=(FlashCrowdDay(day=12, arrivals=40),),
        sybil_waves=(SybilWaveDay(day=15, num_sybils=12, intra_links=10),),
    )
    return simulate_google_plus(config, rng=7)


def _arrays(san):
    """Every array and label table of a frozen SAN, for exact comparison."""
    return [
        list(san.social.labels()),
        *san.social.out_csr(),
        *san.social.in_csr(),
        list(san.attributes.attribute_labels()),
        [san.attribute_info(label) for label in san.attributes.attribute_labels()],
        *san.attributes.social_to_attr_csr(),
        *san.attributes.attr_to_social_csr(),
    ]


def _assert_same_arrays(actual, expected):
    for got, want in zip(_arrays(actual), _arrays(expected)):
        if isinstance(want, np.ndarray):
            assert np.array_equal(got, want)
        else:
            assert got == want


@pytest.mark.parametrize("which", ["tiny", "regimes"])
def test_frozen_snapshots_equal_the_mutable_replay(which, tiny_evolution, regime_evolution):
    evolution = tiny_evolution if which == "tiny" else regime_evolution
    days = list(range(1, evolution.num_days + 1))
    for day, view in evolution.frozen_snapshots(days):
        _assert_same_arrays(view, san_at(evolution, day).freeze())
    _assert_same_arrays(evolution.final_san(), final_san(evolution).freeze())


def test_profiles_and_join_days_equal_the_replay(regime_evolution):
    final = final_san(regime_evolution)
    indptr, indices = regime_evolution.final_san().attributes.social_to_attr_csr()
    info = regime_evolution.attribute_info
    for user, (start, stop) in enumerate(zip(indptr[:-1].tolist(), indptr[1:].tolist())):
        profile = {info[a].attr_type: info[a].value for a in indices[start:stop].tolist()}
        held = {
            final.attribute_info(attribute).attr_type: final.attribute_info(attribute).value
            for attribute in final.attribute_neighbors(user)
        }
        assert profile == held
    joined = {user: None for user in final.social_nodes()}
    assert list(regime_evolution.join_day) == list(joined)


@pytest.mark.parametrize("which", ["tiny", "regimes", "sybil-waves"])
def test_fidelity_equals_the_object_path(which, tiny_evolution, regime_evolution):
    if which == "tiny":
        evolution = tiny_evolution
    elif which == "regimes":
        evolution = regime_evolution
    else:
        evolution = simulate_google_plus(sybil_wave_config(), rng=20120835)
    reference = evolution.frozen_snapshots([evolution.num_days // 2])[0][1]
    assert canonical_json(fidelity_metrics(evolution, reference)) == canonical_json(
        fidelity_metrics_loop(evolution, reference)
    )


def _evolution(users, edges, sybils, links=()):
    """A one-day evolution: ``users`` joins, the directed ``edges``, then the
    attribute ``links`` (user, attribute id) to attributes ``a:0``, ``a:1``, ..."""
    kind = [KIND_NODE] * users + [KIND_SOCIAL] * len(edges) + [KIND_ATTRIBUTE] * len(links)
    first = list(range(users)) + [source for source, _ in edges] + [user for user, _ in links]
    second = [-1] * users + [target for _, target in edges] + [a for _, a in links]
    attributes = max((a for _, a in links), default=-1) + 1
    return GroundTruthEvolution(
        day=np.ones(len(kind), dtype=np.int64),
        kind=np.asarray(kind, dtype=np.int64),
        first=np.asarray(first, dtype=np.int64),
        second=np.asarray(second, dtype=np.int64),
        attribute_labels=[f"a:{a}" for a in range(attributes)],
        attribute_info=[AttributeInfo("a", str(a)) for a in range(attributes)],
        num_days=1,
        sybil=np.asarray(sybils, dtype=np.int64),
    )


def test_a_social_and_an_attribute_link_on_one_id_pair_stay_apart():
    """User 1 follows user 0 and holds attribute 0: two links, not one relinked."""
    evolution = _evolution(2, [(1, 0)], sybils=[], links=[(1, 0)])
    final = evolution.final_san()
    assert final.has_social_edge(1, 0)
    assert final.has_attribute_edge(1, "a:0")
    _assert_same_arrays(final, final_san(evolution).freeze())


def test_trust_seeds_break_degree_ties_by_label_string():
    """Twelve equal-degree honest users 5-16: the top ten by ``str`` label
    (10-16, 5, 6, 7) are not the ten smallest ids."""
    ring = [(5 + i, 5 + (i + 1) % 12) for i in range(12)]
    ring += [(target, source) for source, target in ring]
    sybils = [(17, 18), (18, 17), (17, 5)]
    evolution = _evolution(19, ring + sybils, sybils=[17, 18])
    final = evolution.final_san()
    assert fidelity_metrics(evolution, final)["sybil"] == (
        fidelity_metrics_loop(evolution, final)["sybil"]
    )


def test_sybil_tail_ignores_isolated_users():
    """Isolated users score 0 but are not part of the ranked population.

    Users 0-9 are isolated honest users, 10-21 an honest reciprocal clique,
    22-25 a Sybil clique behind one attack edge, and 26-28 an edgeless Sybil
    wave.  Ranking every user put the ten zero-score honest users first, so
    the bottom |S| = 4 held no Sybil at all.
    """
    honest = [(a, b) for a in range(10, 22) for b in range(10, 22) if a != b]
    clique = [(a, b) for a in range(22, 26) for b in range(22, 26) if a != b]
    evolution = _evolution(29, honest + clique + [(22, 10)], sybils=range(22, 29))
    final = evolution.final_san()
    sybil = fidelity_metrics(evolution, final)["sybil"]
    assert sybil["num_sybils"] == 7
    assert sybil["sybil_tail_fraction"] == 1.0
    assert sybil == fidelity_metrics_loop(evolution, final)["sybil"]


def test_sybil_tail_is_none_without_connected_sybils():
    evolution = _evolution(6, [(0, 1), (1, 2)], sybils=[4, 5])
    sybil = fidelity_metrics(evolution, evolution.final_san())["sybil"]
    assert sybil["sybil_tail_fraction"] is None
    assert sybil["sybil_trust_median"] is None


def test_fidelity_of_an_evolution_without_links():
    evolution = _evolution(3, [], sybils=[])
    payload = fidelity_metrics(evolution, evolution.final_san())
    assert payload["sybil"]["honest_trust_median"] is None
    assert payload["arrivals"]["daily"] == [(1, 3)]


# ----------------------------------------------------------------------
# Section 4.3 subsample: CSR masking against the mutable rebuild
# ----------------------------------------------------------------------
def subsample_attributes_loop(san, keep_probability, rng):
    """The mutable rebuild: one ``random()`` per link of ``attribute_edges()``."""
    subsampled = SAN()
    for node in san.social_nodes():
        subsampled.add_social_node(node)
    for source, target in san.social_edges():
        subsampled.add_social_edge(source, target)
    for social, attribute in san.attribute_edges():
        if rng.random() < keep_probability:
            info = san.attribute_info(attribute)
            subsampled.add_attribute_edge(
                social, attribute, attr_type=info.attr_type, value=info.value
            )
    return subsampled


@pytest.mark.parametrize("keep", [0.0, 0.3, 0.5, 1.0])
@pytest.mark.parametrize("mmap", [False, True])
def test_subsample_attributes_equals_the_mutable_rebuild(keep, mmap, tiny_evolution):
    truth = tiny_evolution.final_san()
    if mmap:
        truth = spill_to_mmap(truth)
    production, reference = random.Random(5), random.Random(5)
    subsampled = subsample_attributes(truth, keep_probability=keep, rng=production)
    expected = subsample_attributes_loop(truth, keep, reference)
    assert production.getstate() == reference.getstate()
    assert list(subsampled.social_nodes()) == list(expected.social_nodes())
    assert sorted(subsampled.social_edges()) == sorted(expected.social_edges())
    assert sorted(subsampled.attribute_edges()) == sorted(expected.attribute_edges())
    assert sorted(subsampled.attribute_nodes()) == sorted(expected.attribute_nodes())
    for attribute in subsampled.attribute_nodes():
        assert subsampled.attribute_info(attribute) == expected.attribute_info(attribute)


def test_subsample_keeps_attribute_info_of_an_unlinked_vocabulary():
    """Attribute nodes without a kept link are dropped, as in the rebuild."""
    san = SAN()
    san.add_social_edge(0, 1)
    san.add_attribute_node("city:x", attr_type="city", value="x")
    san.add_attribute_edge(0, "employer:y", attr_type="employer", value="y")
    subsampled = subsample_attributes(san, keep_probability=1.0, rng=1)
    assert list(subsampled.attribute_nodes()) == ["employer:y"]
    assert subsampled.attribute_info("employer:y") == AttributeInfo("employer", "y")
