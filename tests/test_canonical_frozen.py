"""``canonical_frozen`` is a pure function of a SAN's content.

The artifact store persists every SAN as its canonical frozen view, so two
SANs with the same nodes, links and attribute metadata must give the same
arrays however they were built.  Three checks, on hypothesis SANs with
self-loops, isolated users and attribute nodes left with no members, each
run on the mutable SAN, its freeze, and an mmap-backed spill of the freeze:

* (a) with labels whose ``str()`` forms are distinct, the CSR relabel equals
  the sorted mutable rebuild it replaced (kept below as the reference):
  every array and its dtype, both label lists and every ``AttributeInfo``;
* (b) with mixed int/str labels whose ``str()`` forms collide (``1`` and
  ``"1"``), two insertion orders of the same content give identical
  arrays;
* canonicalisation is idempotent.
"""

import random

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from san_cases import spill_to_mmap

from repro.experiments.artifacts import canonical_frozen
from repro.graph import SAN

#: Social labels with pairwise distinct ``str()`` forms (check a).
DISTINCT_SOCIAL = [0, 1, 2, 3, 10, 11, "x", "y", "user:7"]
#: Social labels whose ``str()`` forms collide across types (check b).
COLLIDING_SOCIAL = [0, 1, 2, 10, "0", "1", "10", "x", "y"]
DISTINCT_ATTRS = ["city:a", "city:b", "employer:c", 100, 101]
COLLIDING_ATTRS = [100, 101, "100", "101", "city:a"]
TYPES = ["city", "employer", "major"]
VALUES = [None, "a", "b", 7]


def _content(num_social: int, num_attrs: int):
    """Strategy: ``(users, edges, links, removed, infos)`` as label indices."""
    user = st.integers(0, num_social - 1)
    attribute = st.integers(0, num_attrs - 1)
    return st.tuples(
        st.sets(user, min_size=1),
        st.lists(st.tuples(user, user), max_size=30),
        st.lists(st.tuples(user, attribute), max_size=20),
        st.sets(st.tuples(user, attribute), max_size=4),
        st.lists(
            st.tuples(st.sampled_from(TYPES), st.sampled_from(VALUES)),
            min_size=num_attrs,
            max_size=num_attrs,
        ),
    )


def _build(content, social_labels, attr_labels, shuffle=None) -> SAN:
    """The SAN described by ``content``, inserted in a (shuffled) order.

    Every attribute node is registered, so those without a surviving link
    (never linked, or linked and then removed) stay as memberless nodes.
    """
    users, edges, links, removed, infos = content
    users, edges, links, removed = sorted(users), list(edges), list(links), sorted(removed)
    attributes = list(range(len(attr_labels)))
    if shuffle is not None:
        for sequence in (users, edges, links, attributes):
            shuffle.shuffle(sequence)
    san = SAN()
    for user in users:
        san.add_social_node(social_labels[user])
    for attribute in attributes:
        attr_type, value = infos[attribute]
        san.add_attribute_node(attr_labels[attribute], attr_type=attr_type, value=value)
    for source, target in edges:
        san.add_social_edge(social_labels[source], social_labels[target])
    for user, attribute in links + removed:
        san.add_attribute_edge(social_labels[user], attr_labels[attribute])
    for user, attribute in removed:
        san.remove_attribute_edge(social_labels[user], attr_labels[attribute])
    return san


def _backends(san: SAN):
    frozen = san.freeze()
    return {"mutable": san, "frozen": frozen, "mmap": spill_to_mmap(frozen)}


def _reference(san):
    """The sorted mutable rebuild ``canonical_frozen`` used to perform."""
    rebuilt = SAN()
    for node in sorted(san.social_nodes(), key=str):
        rebuilt.add_social_node(node)
    for source, target in sorted(
        san.social_edges(), key=lambda edge: (str(edge[0]), str(edge[1]))
    ):
        rebuilt.add_social_edge(source, target)
    for social, attribute in sorted(
        san.attribute_edges(), key=lambda edge: (str(edge[1]), str(edge[0]))
    ):
        info = san.attribute_info(attribute)
        rebuilt.add_attribute_edge(
            social, attribute, attr_type=info.attr_type, value=info.value
        )
    return rebuilt.freeze()


def _layout(frozen):
    """Everything a canonical view pins: arrays, labels and metadata."""
    social, attributes = frozen.social, frozen.attributes
    attr_labels = list(attributes.attribute_labels())
    return {
        "social_labels": [(type(label), label) for label in social.labels()],
        "attr_labels": [(type(label), label) for label in attr_labels],
        "attr_info": [attributes.attribute_info(label) for label in attr_labels],
        "type_names": list(attributes.type_names()),
        "arrays": [
            *social.out_csr(),
            *social.in_csr(),
            *attributes.social_to_attr_csr(),
            *attributes.attr_to_social_csr(),
            attributes.type_codes(),
        ],
    }


def _assert_same_layout(actual, expected) -> None:
    actual, expected = _layout(actual), _layout(expected)
    for key in ("social_labels", "attr_labels", "attr_info", "type_names"):
        assert actual[key] == expected[key], key
    assert len(actual["arrays"]) == len(expected["arrays"])
    for position, (left, right) in enumerate(zip(actual["arrays"], expected["arrays"])):
        assert left.dtype == right.dtype, position
        assert np.array_equal(left, right), position


@given(_content(len(DISTINCT_SOCIAL), len(DISTINCT_ATTRS)))
@settings(max_examples=60, deadline=None)
def test_matches_the_sorted_rebuild_on_distinct_string_forms(content):
    san = _build(content, DISTINCT_SOCIAL, DISTINCT_ATTRS)
    expected = _reference(san)
    for backend, graph in _backends(san).items():
        canonical = canonical_frozen(graph)
        _assert_same_layout(canonical, expected)
        _assert_same_layout(canonical_frozen(canonical), canonical)


@given(_content(len(COLLIDING_SOCIAL), len(COLLIDING_ATTRS)), st.randoms())
@settings(max_examples=60, deadline=None)
@example(
    # Same edges, users 1 and "1" inserted in either order.
    content=({1, 5, 7, 8}, [(1, 7), (5, 8)], [(1, 0), (5, 2)], set(), [("city", "a")] * 5),
    shuffle=random.Random(3),
)
def test_insertion_order_does_not_reach_the_canonical_view(content, shuffle):
    first = _build(content, COLLIDING_SOCIAL, COLLIDING_ATTRS)
    second = _build(content, COLLIDING_SOCIAL, COLLIDING_ATTRS, shuffle=shuffle)
    reversed_users = SAN()
    for node in reversed(list(first.social_nodes())):
        reversed_users.add_social_node(node)
    for source, target in first.social_edges():
        reversed_users.add_social_edge(source, target)
    for social, attribute in first.attribute_edges():
        info = first.attribute_info(attribute)
        reversed_users.add_attribute_edge(
            social, attribute, attr_type=info.attr_type, value=info.value
        )
    expected = canonical_frozen(first)
    for san in (first, second, reversed_users):
        for backend, graph in _backends(san).items():
            canonical = canonical_frozen(graph)
            _assert_same_layout(canonical, expected)
            _assert_same_layout(canonical_frozen(canonical), canonical)
