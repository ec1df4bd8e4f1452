"""Differential oracle for the Section 2.2 crawl.

``crawl_frozen`` runs the array crawl from the seeds ``default_seed`` or
``member_ids`` picks, with ``PrivacyModel.masks`` marking the users who hide
their links or attributes.  On hypothesis SANs — int and str
labels, self-loops, isolated users, attribute nodes with no member at all
and attribute nodes whose every member hides their attributes — it must
agree with two references on the visited users, the social links, the
attribute links, the attribute nodes with their ``AttributeInfo``, and the
coverage:

* a networkx oracle: the visited users are the seeds plus their descendants
  in the digraph with an arc ``u -> v`` for every neighbour ``v`` of each
  public ``u``; the crawl keeps the social links with a visited public
  endpoint and the attribute links of visited users who show attributes;
* the queue-based crawler over the mutable SAN that the array crawl
  replaced, kept below.

Each case runs on the mutable SAN, its freeze and an mmap-backed spill of
the freeze, with link and attribute hide rates in {0, 0.3, 1} and seeds of
``None``, an explicit list, and a list with non-members.  A second test
checks that ``crawl_evolution`` followed by ``canonical_frozen`` equals the
old daily crawl array for array, coverage included, on four scenario
presets.
"""

from collections import deque

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from san_cases import spill_to_mmap

nx = pytest.importorskip("networkx")

import evolution_reference  # noqa: E402
from repro.crawler import FULLY_PUBLIC, PrivacyModel, crawl_evolution  # noqa: E402
from repro.crawler.crawler import crawl_frozen, default_seed, member_ids  # noqa: E402
from repro.experiments.artifacts import (  # noqa: E402
    _PRIVACY_CRAWL_SEEDS,
    _earliest_joiners,
    canonical_frozen,
)
from repro.experiments.scenarios import get_scenario  # noqa: E402
from repro.graph import SAN, FrozenSAN  # noqa: E402
from repro.synthetic.gplus import simulate_google_plus  # noqa: E402

#: The dispatched operations this oracle checks (none: it checks
#: the data pipeline, not a kernel).
ORACLE_OPS = ()

#: Social labels: ints and strs with pairwise distinct ``str()`` forms.
USERS = [0, 1, 2, 3, 10, "u1", "u2", "x", "y:7"]
ATTRS = ["city:a", "city:b", "employer:c", 100]
NON_MEMBERS = ["nobody", 99, "city:a"]
TYPES = ["city", "employer", "major"]
VALUES = [None, "a", 7]
RATES = [0.0, 0.3, 1.0]


@st.composite
def crawl_cases(draw):
    """``(order, edges, links, infos, seeds, privacy)``; ids index USERS/ATTRS."""
    n = draw(st.integers(1, len(USERS)))
    order = draw(st.permutations(range(len(USERS))))[:n]
    user = st.sampled_from(order)
    attribute = st.integers(0, len(ATTRS) - 1)
    edges = draw(st.lists(st.tuples(user, user), max_size=3 * n))
    links = draw(st.lists(st.tuples(user, attribute), max_size=2 * n))
    infos = draw(
        st.lists(
            st.tuples(st.sampled_from(TYPES), st.sampled_from(VALUES)),
            min_size=len(ATTRS),
            max_size=len(ATTRS),
        )
    )
    members = [USERS[i] for i in order]
    seeds = draw(
        st.one_of(
            st.none(),
            st.lists(st.sampled_from(members), min_size=1, max_size=3),
            st.lists(st.sampled_from(members + NON_MEMBERS), min_size=1, max_size=3),
        )
    )
    privacy = PrivacyModel(
        hide_links_probability=draw(st.sampled_from(RATES)),
        hide_attributes_probability=draw(st.sampled_from(RATES)),
        seed=draw(st.integers(0, 3)),
    )
    return order, edges, links, infos, seeds, privacy


def _build(order, edges, links, infos) -> SAN:
    """Users in ``order``, then every attribute node (some stay memberless)."""
    san = SAN()
    for index in order:
        san.add_social_node(USERS[index])
    for index, (attr_type, value) in enumerate(infos):
        san.add_attribute_node(ATTRS[index], attr_type=attr_type, value=value)
    for source, target in edges:
        san.add_social_edge(USERS[source], USERS[target])
    for index, attribute in links:
        san.add_attribute_edge(USERS[index], ATTRS[attribute])
    return san


def _start(san, seeds):
    if seeds is None:
        return [min(san.social_nodes(), key=str)] if san.number_of_social_nodes() else []
    return [seed for seed in seeds if san.is_social_node(seed)]


def networkx_oracle(san: SAN, seeds, privacy: PrivacyModel):
    """``(visited, edges, links, attribute infos, coverage)`` of the crawl."""
    arcs = nx.DiGraph()
    arcs.add_nodes_from(san.social_nodes())
    for user in san.social_nodes():
        if not privacy.hides_links(user):
            arcs.add_edges_from((user, other) for other in san.social_neighbors(user))
    start = _start(san, seeds)
    visited = set(start).union(*(nx.descendants(arcs, seed) for seed in start))
    public = {user for user in visited if not privacy.hides_links(user)}
    shows = {user for user in visited if not privacy.hides_attributes(user)}
    links = {(user, attr) for user, attr in san.attribute_edges() if user in shows}
    total = san.number_of_social_nodes()
    return (
        visited,
        {(u, v) for u, v in san.social_edges() if u in public or v in public},
        links,
        {attr: san.attribute_info(attr) for _, attr in links},
        len(visited) / total if total else 0.0,
    )


def reference_crawl(ground_truth: SAN, seeds, privacy: PrivacyModel):
    """The queue-based crawl over the mutable SAN that the array crawl replaced."""
    crawled = SAN()
    visited = set()
    total = ground_truth.number_of_social_nodes()
    if total == 0:
        return crawled, visited, 0.0

    def collect_profile(user):
        if privacy.hides_attributes(user):
            return
        for attribute in ground_truth.attribute_neighbors(user):
            info = ground_truth.attribute_info(attribute)
            crawled.add_attribute_edge(
                user, attribute, attr_type=info.attr_type, value=info.value
            )

    if seeds is None:
        seeds = [min(ground_truth.social_nodes(), key=lambda node: str(node))]
    frontier = deque()
    for seed in seeds:
        if ground_truth.is_social_node(seed) and seed not in visited:
            visited.add(seed)
            frontier.append(seed)
    while frontier:
        user = frontier.popleft()
        crawled.add_social_node(user)
        collect_profile(user)
        if privacy.hides_links(user):
            continue
        for target in ground_truth.social.successors(user):
            crawled.add_social_edge(user, target)
            collect_profile(target)
            if target not in visited:
                visited.add(target)
                frontier.append(target)
        for source in ground_truth.social.predecessors(user):
            crawled.add_social_edge(source, user)
            collect_profile(source)
            if source not in visited:
                visited.add(source)
                frontier.append(source)
    return crawled, visited, len(visited) / total


def reference_daily_crawl(evolution, days, privacy, seeds):
    """The old day-over-day crawl: ``(snapshots, coverage)`` on mutable copies."""
    privacy = privacy if privacy is not None else FULLY_PUBLIC
    snapshots, coverage = [], {}
    previous = list(seeds) if seeds else None
    for day, ground_truth in evolution_reference.snapshots(evolution, sorted(set(days))):
        crawl_seeds = previous
        if crawl_seeds is not None:
            crawl_seeds = [node for node in crawl_seeds if ground_truth.is_social_node(node)]
        crawled, visited, coverage[day] = reference_crawl(
            ground_truth, crawl_seeds or None, privacy
        )
        snapshots.append((day, crawled))
        previous = list(visited)
    return snapshots, coverage


def _observed(san):
    return (
        set(san.social_nodes()),
        set(san.social_edges()),
        set(san.attribute_edges()),
        {attr: san.attribute_info(attr) for attr in san.attribute_nodes()},
    )


@given(crawl_cases())
@settings(max_examples=80, deadline=None)
# Privacy seed 0 at rate 0.3: user 0 hides its attributes, so "city:b"
# loses its only member, and users 1 and 2 hide their links, so 2 -> 1 is
# never seen; "employer:c" and 100 have no member at all; the public seed 0
# has a self-loop; user 10 is isolated.
@example(
    case=(
        [0, 1, 2, 4],
        [(0, 0), (0, 1), (2, 1)],
        [(1, 0), (0, 1)],
        [("city", "a"), ("city", None), ("employer", 7), ("major", "a")],
        [0, "nobody"],
        PrivacyModel(hide_links_probability=0.3, hide_attributes_probability=0.3, seed=0),
    )
)
def test_crawl_matches_networkx_and_the_queue_crawler(case):
    order, edges, links, infos, seeds, privacy = case
    san = _build(order, edges, links, infos)
    visited, want_edges, want_links, want_attrs, want_coverage = networkx_oracle(
        san, seeds, privacy
    )
    reference, reference_visited, reference_coverage = reference_crawl(san, seeds, privacy)
    assert reference_visited == visited
    assert _observed(reference) == (visited, want_edges, want_links, want_attrs)
    assert reference_coverage == want_coverage

    frozen = san.freeze()
    for backend, ground_truth in {
        "mutable": san,
        "frozen": frozen,
        "mmap": spill_to_mmap(frozen),
    }.items():
        truth = ground_truth.freeze()
        labels = truth.social.labels()
        start = default_seed(truth) if seeds is None else member_ids(truth, seeds)
        crawled, ids = crawl_frozen(truth, start, *privacy.masks(labels))
        assert isinstance(crawled, FrozenSAN), backend
        assert {labels[i] for i in ids.tolist()} == visited, backend
        assert _observed(crawled) == (visited, want_edges, want_links, want_attrs), backend
        assert crawled.number_of_attribute_nodes() == len(want_attrs), backend
        assert (ids.size / len(labels) if labels else 0.0) == want_coverage, backend
        # The crawl keeps the ground truth's user order.
        assert list(crawled.social_nodes()) == [
            user for user in san.social_nodes() if user in visited
        ], backend


def _assert_same_arrays(actual: FrozenSAN, expected: FrozenSAN) -> None:
    social, attributes = actual.social, actual.attributes
    want_social, want_attributes = expected.social, expected.attributes
    assert social.labels() == want_social.labels()
    assert [type(label) for label in social.labels()] == [
        type(label) for label in want_social.labels()
    ]
    assert attributes.attribute_labels() == want_attributes.attribute_labels()
    assert [attributes.attribute_info(a) for a in attributes.attribute_labels()] == [
        want_attributes.attribute_info(a) for a in want_attributes.attribute_labels()
    ]
    pairs = [
        (social.out_csr(), want_social.out_csr()),
        (social.in_csr(), want_social.in_csr()),
        (attributes.social_to_attr_csr(), want_attributes.social_to_attr_csr()),
        (attributes.attr_to_social_csr(), want_attributes.attr_to_social_csr()),
        ((attributes.type_codes(),), (want_attributes.type_codes(),)),
    ]
    for got, want in pairs:
        for left, right in zip(got, want):
            assert left.dtype == right.dtype
            assert np.array_equal(left, right)


@pytest.mark.parametrize("name", ["tiny", "churn", "privacy-heavy", "sybil-waves"])
def test_crawl_evolution_matches_the_daily_queue_crawl(name):
    scenario = get_scenario(name)
    evolution = simulate_google_plus(scenario.config, rng=scenario.seed)
    days = scenario.snapshot_days()
    privacy = scenario.privacy_model()
    seeds = _earliest_joiners(evolution, _PRIVACY_CRAWL_SEEDS) if privacy else None
    series = crawl_evolution(evolution, days, privacy=privacy, seeds=seeds)
    snapshots, coverage = reference_daily_crawl(evolution, days, privacy, seeds)
    assert series.coverage == coverage
    assert series.days() == [day for day, _ in snapshots]
    for (_, crawled), (_, reference) in zip(series, snapshots):
        _assert_same_arrays(canonical_frozen(crawled), canonical_frozen(reference))


def test_crawl_evolution_falls_back_when_no_seed_is_a_member(tiny_evolution):
    days = [5, 20, 40]
    series = crawl_evolution(tiny_evolution, days, seeds=["nobody"])
    snapshots, coverage = reference_daily_crawl(tiny_evolution, days, None, ["nobody"])
    assert series.coverage == coverage
    for (_, crawled), (_, reference) in zip(series, snapshots):
        _assert_same_arrays(canonical_frozen(crawled), canonical_frozen(reference))
