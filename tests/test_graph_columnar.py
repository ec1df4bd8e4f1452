"""Tests for the binary columnar storage tier.

Covers the format contract end to end: round-trip bit-identity (in-RAM vs
mmap) across representative engine kernels, the named error taxonomy for
malformed files, label-encoding selection, extras sections, the spill
helper the oracles take their mmap inputs from, and the TSV loader's
parity with a row-by-row reference.
"""

import json
import struct
import tempfile
import time

import numpy as np
import pytest
from san_cases import is_mmap_backed, spill_to_mmap, tsv_reference_san

from repro.algorithms.clustering import average_social_clustering_coefficient
from repro.algorithms.components import weakly_connected_components
from repro.algorithms.triangles import count_directed_triangles
from repro.graph import (
    DiGraph,
    FrozenDiGraph,
    FrozenSAN,
    SAN,
    columnar_info,
    load_columnar_extras,
    load_san_tsv,
    open_columnar,
    save_columnar,
    save_san_tsv,
)
from repro.graph import columnar
from repro.graph.columnar import (
    FORMAT_VERSION,
    SECTION_ALIGNMENT,
    _collect_sections,
)
from repro.graph.errors import (
    ColumnarEndiannessError,
    ColumnarFormatError,
    ColumnarMagicError,
    ColumnarTruncatedError,
    ColumnarVersionError,
    GraphError,
)
from repro.metrics.reciprocity import reciprocal_edge_count


def _assert_sections_identical(left, right):
    """Bit-level equality of two graphs' flattened section arrays."""
    kind_l, sections_l, meta_l = _collect_sections(left, None)
    kind_r, sections_r, meta_r = _collect_sections(right, None)
    assert kind_l == kind_r
    assert set(sections_l) == set(sections_r)
    for name in sections_l:
        a, b = np.asarray(sections_l[name]), np.asarray(sections_r[name])
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b), name
    assert json.dumps(meta_l, sort_keys=True, default=str) == json.dumps(
        meta_r, sort_keys=True, default=str
    )


@pytest.fixture
def columnar_path(tmp_path, figure1_san):
    path = tmp_path / "san.col"
    save_columnar(figure1_san, path)
    return path


# ----------------------------------------------------------------------
# Round-trip bit-identity
# ----------------------------------------------------------------------
def test_round_trip_is_bit_identical(columnar_path, figure1_san):
    frozen = figure1_san.freeze()
    for mode in ("r", None):
        reopened = open_columnar(columnar_path, mmap_mode=mode)
        assert isinstance(reopened, FrozenSAN)
        _assert_sections_identical(frozen, reopened)


def test_mmap_and_ram_reads_agree(columnar_path):
    _assert_sections_identical(
        open_columnar(columnar_path, mmap_mode="r"),
        open_columnar(columnar_path, mmap_mode=None),
    )


def test_kernels_agree_between_ram_and_mmap(columnar_path, figure1_san):
    frozen = figure1_san.freeze()
    mapped = open_columnar(columnar_path, mmap_mode="r")
    assert is_mmap_backed(mapped) and not is_mmap_backed(frozen)
    assert count_directed_triangles(mapped) == count_directed_triangles(frozen)
    assert reciprocal_edge_count(mapped) == reciprocal_edge_count(frozen)
    assert average_social_clustering_coefficient(
        mapped
    ) == average_social_clustering_coefficient(frozen)
    assert weakly_connected_components(mapped.social) == weakly_connected_components(
        frozen.social
    )


def test_attribute_metadata_round_trips(columnar_path):
    san = open_columnar(columnar_path, mmap_mode="r")
    assert san.attribute_type("employer:Google") == "employer"
    assert san.attribute_info("city:San Francisco").value == "San Francisco"
    assert sorted(san.attributes.members_of("school:UC Berkeley")) == [2, 3]


def test_digraph_round_trip(tmp_path):
    graph = DiGraph()
    for source, target in [(0, 1), (1, 2), (2, 0), (0, 2)]:
        graph.add_edge(source, target)
    path = tmp_path / "digraph.col"
    save_columnar(graph, path)
    reopened = open_columnar(path, mmap_mode="r")
    assert isinstance(reopened, FrozenDiGraph)
    _assert_sections_identical(graph.freeze(), reopened)
    assert columnar_info(path)["kind"] == "digraph"


def test_mmap_arrays_are_read_only(columnar_path):
    san = open_columnar(columnar_path, mmap_mode="r")
    _, indices = san.social.out_csr()
    with pytest.raises(ValueError):
        indices[0] = 99


def test_save_is_atomic_and_leaves_no_temp_files(tmp_path, figure1_san):
    path = tmp_path / "san.col"
    save_columnar(figure1_san, path)
    assert [entry.name for entry in tmp_path.iterdir()] == ["san.col"]


def test_save_rejects_non_graph():
    with pytest.raises(TypeError):
        save_columnar({"not": "a graph"}, "/tmp/never-written.col")


# ----------------------------------------------------------------------
# Header validation and the named error taxonomy
# ----------------------------------------------------------------------
def test_columnar_info_reports_layout(columnar_path, figure1_san):
    info = columnar_info(columnar_path)
    assert info["kind"] == "san"
    assert info["version"] == FORMAT_VERSION
    assert info["data_start"] % SECTION_ALIGNMENT == 0
    for name, spec in info["sections"].items():
        assert spec["offset"] % SECTION_ALIGNMENT == 0, name
        assert spec["dtype"][0] in ("<", "|"), name
    counts = info["meta"]["counts"]
    assert counts["social_nodes"] == figure1_san.number_of_social_nodes()
    assert counts["social_edges"] == figure1_san.number_of_social_edges()
    assert counts["attribute_edges"] == figure1_san.number_of_attribute_edges()


def test_empty_file_raises_truncated(tmp_path):
    path = tmp_path / "empty.col"
    path.write_bytes(b"")
    with pytest.raises(ColumnarTruncatedError):
        open_columnar(path)


def test_bad_magic_raises(tmp_path, columnar_path):
    raw = bytearray(columnar_path.read_bytes())
    raw[:8] = b"NOTACOL\x00"
    bad = tmp_path / "bad-magic.col"
    bad.write_bytes(bytes(raw))
    with pytest.raises(ColumnarMagicError):
        open_columnar(bad)


def test_future_version_raises_with_details(tmp_path, columnar_path):
    raw = bytearray(columnar_path.read_bytes())
    raw[8:12] = struct.pack("<I", 99)
    newer = tmp_path / "future.col"
    newer.write_bytes(bytes(raw))
    with pytest.raises(ColumnarVersionError) as excinfo:
        open_columnar(newer)
    assert excinfo.value.found == 99
    assert excinfo.value.supported == FORMAT_VERSION


def test_big_endian_bom_raises(tmp_path, columnar_path):
    raw = bytearray(columnar_path.read_bytes())
    raw[12:16] = struct.pack(">I", 0x01020304)
    swapped = tmp_path / "big-endian.col"
    swapped.write_bytes(bytes(raw))
    with pytest.raises(ColumnarEndiannessError):
        open_columnar(swapped)


def test_garbage_bom_raises_format_error(tmp_path, columnar_path):
    raw = bytearray(columnar_path.read_bytes())
    raw[12:16] = b"\xde\xad\xbe\xef"
    garbage = tmp_path / "garbage-bom.col"
    garbage.write_bytes(bytes(raw))
    with pytest.raises(ColumnarFormatError):
        open_columnar(garbage)


def test_truncated_header_raises(tmp_path, columnar_path):
    truncated = tmp_path / "short-header.col"
    truncated.write_bytes(columnar_path.read_bytes()[:40])
    with pytest.raises(ColumnarTruncatedError):
        open_columnar(truncated)


def test_truncated_section_raises(tmp_path, columnar_path):
    raw = columnar_path.read_bytes()
    truncated = tmp_path / "short-section.col"
    truncated.write_bytes(raw[: len(raw) - 16])
    with pytest.raises(ColumnarTruncatedError):
        open_columnar(truncated)


def test_errors_share_the_graph_error_base(tmp_path):
    path = tmp_path / "junk.col"
    path.write_bytes(b"junk")
    with pytest.raises(GraphError):
        open_columnar(path)
    with pytest.raises(ColumnarFormatError):
        open_columnar(path)


def test_invalid_mmap_mode_rejected(columnar_path):
    with pytest.raises(ValueError):
        open_columnar(columnar_path, mmap_mode="r+")


# ----------------------------------------------------------------------
# Label encodings
# ----------------------------------------------------------------------
def test_identity_labels_skip_sections(tmp_path):
    graph = DiGraph()
    for i in range(5):
        graph.add_edge(i, (i + 1) % 5)
    path = tmp_path / "ring.col"
    save_columnar(graph, path)
    info = columnar_info(path)
    assert info["meta"]["labels"]["encoding"] == "identity"
    assert not any(name.startswith("labels") for name in info["sections"])
    reopened = open_columnar(path)
    assert reopened.labels() == list(range(5))
    assert reopened.index_of(4) == 4


def test_int_labels_use_int64_encoding(columnar_path):
    info = columnar_info(columnar_path)
    assert info["meta"]["social_labels"]["encoding"] == "int64"
    assert "social_labels_i64" in info["sections"]


def test_string_labels_use_table_encoding(tmp_path, columnar_path):
    info = columnar_info(columnar_path)
    assert info["meta"]["attr_labels"]["encoding"] == "table"
    san = open_columnar(columnar_path)
    assert "employer:Google" in list(san.attribute_nodes())


def test_mixed_label_scalars_round_trip(tmp_path):
    graph = DiGraph()
    labels = [0, "node-one", 2.5, True, None]
    for label in labels:
        graph.add_node(label)
    graph.add_edge(0, "node-one")
    path = tmp_path / "mixed.col"
    save_columnar(graph, path)
    reopened = open_columnar(path)
    assert list(reopened.labels()) == labels
    assert [type(v) for v in reopened.labels()] == [type(v) for v in labels]


def test_unsupported_label_type_raises(tmp_path):
    graph = DiGraph()
    graph.add_node((1, 2))
    with pytest.raises(TypeError):
        save_columnar(graph, tmp_path / "never.col")


def _identity_san(labels_key: str) -> SAN:
    """A SAN whose social (or else attribute) labels are the ints 0..n-1."""
    users = [0, 1, 2] if labels_key == "social_labels" else ["u0", "u1", "u2"]
    attributes = ["city:a", "city:b"] if labels_key == "social_labels" else [0, 1]
    san = SAN()
    for user, attribute in zip(users, [attributes[0], attributes[0], attributes[1]]):
        san.add_attribute_edge(user, attribute, attr_type="city", value=str(attribute))
    san.add_social_edge(users[0], users[1])
    return san


@pytest.mark.parametrize("labels_key", ["labels", "social_labels", "attr_labels"])
def test_a_corrupted_identity_count_is_a_named_error(tmp_path, monkeypatch, labels_key):
    """A damaged header cannot make the reader build a huge label list: an
    identity count is checked against the CSR rows before it is decoded."""
    if labels_key == "labels":
        graph = DiGraph([(0, 1), (1, 2), (2, 0)])
    else:
        graph = _identity_san(labels_key)
    collect = columnar._collect_sections

    def corrupted(graph, extras):
        kind, sections, meta = collect(graph, extras)
        assert meta[labels_key]["encoding"] == "identity"
        meta[labels_key]["count"] = 10**12
        return kind, sections, meta

    monkeypatch.setattr(columnar, "_collect_sections", corrupted)
    path = tmp_path / "corrupted.col"
    save_columnar(graph, path)
    started = time.perf_counter()
    with pytest.raises(ColumnarFormatError):
        open_columnar(path)
    assert time.perf_counter() - started < 1.0


# ----------------------------------------------------------------------
# Extras sections
# ----------------------------------------------------------------------
def test_extras_round_trip(tmp_path, figure1_san):
    path = tmp_path / "with-extras.col"
    timestamps = np.arange(10, dtype=np.float64) * 1.5
    days = np.arange(10, dtype=np.int32)
    save_columnar(figure1_san, path, extras={"timestamps": timestamps, "days": days})
    for mode in ("r", None):
        loaded = load_columnar_extras(path, mmap_mode=mode)
        assert set(loaded) == {"timestamps", "days"}
        assert np.array_equal(loaded["timestamps"], timestamps)
        assert loaded["days"].dtype == np.dtype("<i4")
    assert isinstance(open_columnar(path), FrozenSAN)


def test_extras_name_with_colon_rejected(tmp_path, figure1_san):
    with pytest.raises(ValueError):
        save_columnar(
            figure1_san, tmp_path / "never.col", extras={"a:b": np.zeros(3)}
        )


def test_extras_absent_returns_empty(columnar_path):
    assert load_columnar_extras(columnar_path) == {}


# ----------------------------------------------------------------------
# The spill helper the oracles use
# ----------------------------------------------------------------------
def test_spill_to_mmap_leaves_no_named_file(tmp_path, monkeypatch, figure1_san):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    frozen = figure1_san.freeze()
    spilled = spill_to_mmap(frozen)
    assert is_mmap_backed(spilled) and not is_mmap_backed(frozen)
    _assert_sections_identical(frozen, spilled)
    # The file is unlinked once open; the mapping keeps its pages readable.
    assert list(tmp_path.iterdir()) == []


# ----------------------------------------------------------------------
# Streaming TSV parity
# ----------------------------------------------------------------------
def test_streaming_tsv_load_matches_freeze(tmp_path, figure1_san):
    social, attrs = tmp_path / "social.tsv", tmp_path / "attrs.tsv"
    save_san_tsv(figure1_san, social, attrs)
    streamed = load_san_tsv(social, attrs)
    assert isinstance(streamed, FrozenSAN)
    _assert_sections_identical(streamed, tsv_reference_san(social, attrs).freeze())
