"""Byte-mutation fuzzing of the TSV loader.

A crawl's TSV pair may arrive with bytes flipped, lines cut or files
truncated.  Loading such a pair may only fail
with a named :class:`~repro.graph.errors.GraphError` — a
:class:`~repro.graph.errors.SerializationError` for a line with the wrong
field count or bytes that are not UTF-8 (naming the file), an
:class:`~repro.graph.errors.InvalidNodeKindError` for a label used as both
a user and an attribute — never with a ``UnicodeDecodeError`` or another
error from inside the reader.  A pair that loads gives the same network
as a mutable SAN filled row by row from the same files
(``san_cases.tsv_reference_san``), and a pair that fails fails with the
same error there.
"""

import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from san_cases import tsv_reference_san

from repro.graph import SAN
from repro.graph.errors import GraphError, SerializationError
from repro.graph.serialization import load_san_tsv, save_san_tsv


def _pair_bytes():
    san = SAN()
    san.add_social_edge("alice", 2)
    san.add_social_edge(2, "alice")
    san.add_social_edge(2, 30)
    san.add_social_edge(30, "bob")
    san.add_attribute_edge("alice", "employer:x", attr_type="employer", value="x")
    san.add_attribute_edge(2, "city:y", attr_type="city", value="y")
    san.add_attribute_edge(30, "city:y", attr_type="city", value="y")
    with tempfile.TemporaryDirectory() as directory:
        social, attributes = Path(directory) / "s.tsv", Path(directory) / "a.tsv"
        save_san_tsv(san, social, attributes)
        return social.read_bytes(), attributes.read_bytes()


FILES = _pair_bytes()

_FUZZ = settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def _load_both(social: bytes, attributes: bytes):
    """``(reference, loaded)``: the row-by-row SAN and ``load_san_tsv``'s
    result for a pair, each replaced by the named error it raises."""
    with tempfile.TemporaryDirectory() as directory:
        social_path, attribute_path = Path(directory) / "s.tsv", Path(directory) / "a.tsv"
        social_path.write_bytes(social)
        attribute_path.write_bytes(attributes)
        results = []
        for load in (tsv_reference_san, load_san_tsv):
            try:
                results.append(load(social_path, attribute_path))
            except GraphError as error:
                results.append(type(error))
        return results


def _assert_same_network(reference, loaded):
    if isinstance(reference, type) or isinstance(loaded, type):
        assert reference == loaded
        return
    assert sorted(map(repr, reference.social_edges())) == sorted(
        map(repr, loaded.social_edges())
    )
    assert sorted(map(repr, reference.attribute_edges())) == sorted(
        map(repr, loaded.attribute_edges())
    )


@st.composite
def mutated_pairs(draw):
    files = list(FILES)
    which = draw(st.sampled_from([0, 1]))
    data = bytearray(files[which])
    operation = draw(st.sampled_from(["flip", "truncate"]))
    if operation == "flip":
        for position in draw(st.lists(st.integers(0, len(data) - 1), min_size=1, max_size=3)):
            data[position] = draw(st.integers(0, 255))
    else:
        data = data[: draw(st.integers(0, len(data)))]
    files[which] = bytes(data)
    return tuple(files)


def test_the_unmutated_pair_loads():
    reference, loaded = _load_both(*FILES)
    assert loaded.number_of_social_edges() == 4
    _assert_same_network(reference, loaded)


@given(mutated_pairs())
@_FUZZ
def test_mutated_bytes_fail_only_with_named_errors(files):
    _assert_same_network(*_load_both(*files))


def test_bytes_that_are_not_utf8_name_the_file(tmp_path):
    social, attributes = tmp_path / "s.tsv", tmp_path / "a.tsv"
    social.write_bytes(FILES[0])
    attributes.write_bytes(FILES[1].replace(b"city", b"c\xffty", 1))
    with pytest.raises(SerializationError, match="a.tsv: not UTF-8"):
        load_san_tsv(social, attributes)
