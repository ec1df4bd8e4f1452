"""Tests for arrival histories (recording, final state, snapshot diffing)."""

import dataclasses

import numpy as np
import pytest
from san_cases import tsv_reference_san

from repro.graph import SAN, load_san_tsv, san_from_edge_lists, save_san_tsv
from repro.models import ArrivalEvent, ArrivalHistory, apply_event
from repro.models.history import HistoryColumns


def test_event_validation():
    with pytest.raises(ValueError):
        ArrivalEvent("bogus", 1)
    with pytest.raises(ValueError):
        ArrivalEvent("social", 1)  # missing second endpoint
    event = ArrivalEvent("node", 1)
    assert event.second is None


def test_record_and_counts():
    history = ArrivalHistory()
    history.record_node(1)
    history.record_attribute_link(1, "city:SF", attr_type="city", value="SF")
    history.record_social_link(1, 2)
    history.record_social_link(2, 1)
    assert [event.kind for event in history.events].count("node") == 1
    assert history.num_social_links() == 2


def test_final_san_applies_all_events():
    history = ArrivalHistory()
    history.record_node(1)
    history.record_node(2)
    history.record_attribute_link(2, "employer:G", attr_type="employer")
    history.record_social_link(1, 2)
    final = history.final_san()
    assert final.has_social_edge(1, 2)
    assert final.has_attribute_edge(2, "employer:G")
    # The original initial SAN is untouched.
    assert history.initial.number_of_social_nodes() == 0


def test_from_snapshots_diff():
    earlier = san_from_edge_lists([(1, 2)], [(1, "city", "A")])
    later = earlier.copy()
    later.add_social_node(3)
    later.add_attribute_edge(3, "city:B", attr_type="city", value="B")
    later.add_attribute_edge(2, "city:A", attr_type="city", value="A")
    later.add_social_edge(3, 1)
    later.add_social_edge(2, 1)

    history = ArrivalHistory.from_snapshots(earlier, later)
    final = history.final_san()
    assert final.number_of_social_edges() == later.number_of_social_edges()
    assert final.number_of_attribute_edges() == later.number_of_attribute_edges()
    assert [event.kind for event in history.events].count("node") == 1
    assert history.num_social_links() == 2
    # New nodes and their attributes come before the new social links.
    kinds = [event.kind for event in history.events]
    assert kinds.index("node") < kinds.index("social")


def test_apply_event_kinds():
    san = SAN()
    apply_event(san, ArrivalEvent("node", 5))
    apply_event(san, ArrivalEvent("attribute", 5, "a", attr_type="t"))
    apply_event(san, ArrivalEvent("social", 5, 6))
    assert san.is_social_node(6)
    assert san.has_attribute_edge(5, "a")
    assert san.attribute_type("a") == "t"


def test_from_snapshots_emits_each_group_in_label_order():
    """New nodes, then new attribute links, then new social links, each
    sorted with int labels before string labels; the initial SAN's nodes
    follow the same order, whatever order the snapshots were built in."""
    earlier = SAN()
    for node in ("b", 5, "a", 2):
        earlier.add_social_node(node)
    earlier.add_attribute_edge("a", "city:Z", attr_type="city", value="Z")
    earlier.add_attribute_edge(5, "city:A", attr_type="city", value="A")
    later = earlier.copy()
    later.add_social_edge("c", 2)
    later.add_social_edge(9, "a")
    later.add_social_edge(2, 5)
    later.add_attribute_edge("c", "city:A", attr_type="city", value="A")
    later.add_attribute_edge(2, "city:Z", attr_type="city", value="Z")

    history = ArrivalHistory.from_snapshots(earlier, later)
    assert list(history.initial.social_nodes()) == [2, 5, "a", "b"]
    assert list(history.initial.attribute_nodes()) == ["city:A", "city:Z"]
    assert [(event.kind, event.first, event.second) for event in history.events] == [
        ("node", 9, None),
        ("node", "c", None),
        ("attribute", 2, "city:Z"),
        ("attribute", "c", "city:A"),
        ("social", 2, 5),
        ("social", 9, "a"),
        ("social", "c", 2),
    ]


@pytest.mark.parametrize("string_labels", [False, True], ids=["int-labels", "string-labels"])
def test_from_snapshots_of_loaded_tsvs_matches_the_row_by_row_sans(
    tmp_path, tiny_snapshots, string_labels
):
    """The frozen graphs ``load_san_tsv`` returns diff into the same history
    columns, array for array, as mutable SANs filled from the same files."""
    pairs = {}
    for name, san in (("before", tiny_snapshots.halfway()), ("after", tiny_snapshots.last())):
        social, attrs = tmp_path / f"{name}.social.tsv", tmp_path / f"{name}.attrs.tsv"
        save_san_tsv(san, social, attrs)
        if string_labels:
            for path, users_per_line in ((social, 2), (attrs, 1)):
                lines = []
                for line in path.read_text(encoding="utf-8").splitlines():
                    fields = line.split("\t")
                    fields[:users_per_line] = [f"u{user}" for user in fields[:users_per_line]]
                    lines.append("\t".join(fields))
                path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        pairs[name] = (social, attrs)

    loaded = ArrivalHistory.from_snapshots(
        load_san_tsv(*pairs["before"]), load_san_tsv(*pairs["after"])
    ).columns()
    reference = ArrivalHistory.from_snapshots(
        tsv_reference_san(*pairs["before"]), tsv_reference_san(*pairs["after"])
    ).columns()
    assert loaded.num_social_links() > 0
    for field in dataclasses.fields(HistoryColumns):
        observed, expected = getattr(loaded, field.name), getattr(reference, field.name)
        assert np.asarray(observed).dtype == np.asarray(expected).dtype, field.name
        assert np.array_equal(observed, expected), field.name
