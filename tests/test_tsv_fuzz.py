"""Byte-mutation fuzzing of the TSV loader.

A crawl's TSV pair may arrive with bytes flipped, lines cut or files
truncated.  Loading such a pair, mutable or ``frozen=True``, may only fail
with a named :class:`~repro.graph.errors.GraphError` — a
:class:`~repro.graph.errors.SerializationError` for a line with the wrong
field count or bytes that are not UTF-8 (naming the file), an
:class:`~repro.graph.errors.InvalidNodeKindError` for a label used as both
a user and an attribute — never with a ``UnicodeDecodeError`` or another
error from inside the reader.  A pair that loads gives the same network on
both paths.
"""

import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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
    """``(mutable, frozen)`` loads of a pair, or the named error they raise."""
    with tempfile.TemporaryDirectory() as directory:
        social_path, attribute_path = Path(directory) / "s.tsv", Path(directory) / "a.tsv"
        social_path.write_bytes(social)
        attribute_path.write_bytes(attributes)
        results = []
        for frozen in (False, True):
            try:
                results.append(load_san_tsv(social_path, attribute_path, frozen=frozen))
            except GraphError as error:
                results.append(type(error))
        return results


def _assert_same_network(mutable, frozen):
    if isinstance(mutable, type) or isinstance(frozen, type):
        assert mutable == frozen
        return
    assert sorted(map(repr, mutable.social_edges())) == sorted(map(repr, frozen.social_edges()))
    assert sorted(map(repr, mutable.attribute_edges())) == sorted(
        map(repr, frozen.attribute_edges())
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
    mutable, frozen = _load_both(*FILES)
    assert mutable.number_of_social_edges() == 4
    _assert_same_network(mutable, frozen)


@given(mutated_pairs())
@_FUZZ
def test_mutated_bytes_fail_only_with_named_errors(files):
    _assert_same_network(*_load_both(*files))


@pytest.mark.parametrize("frozen", [False, True])
def test_bytes_that_are_not_utf8_name_the_file(tmp_path, frozen):
    social, attributes = tmp_path / "s.tsv", tmp_path / "a.tsv"
    social.write_bytes(FILES[0])
    attributes.write_bytes(FILES[1].replace(b"city", b"c\xffty", 1))
    with pytest.raises(SerializationError, match="a.tsv: not UTF-8"):
        load_san_tsv(social, attributes, frozen=frozen)
