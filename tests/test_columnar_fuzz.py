"""Byte-mutation fuzzing of the columnar reader.

A stored graph or evolution file may be truncated by a crashed copy, have
bytes flipped on disk, or be spliced from two files.  Reading such a file
may only fail with a named :class:`~repro.graph.errors.GraphError`
(:class:`~repro.graph.errors.ColumnarFormatError` and its subclasses): never
with an ``IndexError``, ``KeyError``, ``TypeError``, ``UnicodeDecodeError``
or a numpy error from inside the reader, and never by allocating an array
sized from a header field that was not checked against the file.

The fuzz covers two files: a small SAN (string and int labels, attribute
values, an empty attribute) and a small evolution file (the final ground
truth with the event-log columns as extras).  Raw mutations flip, truncate
and splice bytes; structured mutations rewrite one value of the header JSON
and keep the preamble consistent, which reaches the checks behind the JSON
parse.

The reader checks a CSR's content (column ids in range, rows strictly
increasing) only under ``REPRO_SANITIZE=1``: without it, a flipped index
inside ``social_out_indices`` opens and then breaks a kernel.  One case
flips such bytes with the sanitizer armed and runs a kernel on whatever
opens.  Without the sanitizer, the CSR builders still check the ids' range
in O(1) before they size an array from them: another case writes an id just
past the node count and builds the undirected projection.
"""

import json
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.experiments.artifacts import _load_evolution, _save_evolution
from repro.graph import SAN
from repro.graph.columnar import load_columnar_extras, open_columnar, save_columnar
from repro.graph.errors import FrozenGraphError, FrozenIdRangeError, GraphError
from repro.metrics import PhaseBoundaries, global_reciprocity
from repro.synthetic import GooglePlusConfig, SybilWaveDay, simulate_google_plus

_PREAMBLE = struct.Struct("<8sIIQQ")


def _san_bytes() -> bytes:
    san = SAN()
    san.add_social_edge("alice", 2)
    san.add_social_edge(2, "alice")
    san.add_social_edge(2, 3.5)
    san.add_attribute_edge("alice", "employer:x", attr_type="employer", value="x")
    san.add_attribute_edge(2, "city:y", attr_type="city", value="y")
    san.add_attribute_node("school:z", attr_type="school", value=None)
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "san.col"
        save_columnar(san, path)
        return path.read_bytes()


def _evolution_bytes() -> bytes:
    config = GooglePlusConfig(
        total_users=40,
        num_days=6,
        phases=PhaseBoundaries(phase_one_end=2, phase_two_end=4),
        attribute_churn_rate=1.0,
        sybil_waves=(SybilWaveDay(day=3, num_sybils=3, intra_links=2),),
    )
    with tempfile.TemporaryDirectory() as directory:
        _save_evolution(simulate_google_plus(config, rng=3), Path(directory))
        return (Path(directory) / "evolution.col").read_bytes()


FILES = {"san": _san_bytes(), "evolution": _evolution_bytes()}


def _read_everything(directory: Path) -> None:
    path = directory / "evolution.col"
    for mode in ("r", None):
        open_columnar(path, mmap_mode=mode)
        load_columnar_extras(path, mmap_mode=mode)
    _load_evolution(directory)


def assert_fails_only_by_name(data: bytes) -> None:
    with tempfile.TemporaryDirectory() as directory:
        (Path(directory) / "evolution.col").write_bytes(data)
        try:
            _read_everything(Path(directory))
        except GraphError:
            pass


def test_the_unmutated_files_read():
    for data in FILES.values():
        with tempfile.TemporaryDirectory() as directory:
            (Path(directory) / "evolution.col").write_bytes(data)
            path = Path(directory) / "evolution.col"
            open_columnar(path)
            load_columnar_extras(path)
    with tempfile.TemporaryDirectory() as directory:
        (Path(directory) / "evolution.col").write_bytes(FILES["evolution"])
        _load_evolution(Path(directory))


_FUZZ = settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@st.composite
def raw_mutations(draw):
    data = bytearray(FILES[draw(st.sampled_from(sorted(FILES)))])
    operation = draw(st.sampled_from(["flip", "truncate", "splice"]))
    if operation == "flip":
        # Most flips land in the header and preamble, where the checks are.
        bound = draw(st.sampled_from([64, 512, len(data)]))
        for position in draw(st.lists(st.integers(0, min(bound, len(data)) - 1), min_size=1, max_size=8)):
            data[position] = draw(st.integers(0, 255))
        return bytes(data)
    if operation == "truncate":
        return bytes(data[: draw(st.integers(0, len(data) - 1))])
    other = FILES[draw(st.sampled_from(sorted(FILES)))]
    start = draw(st.integers(0, len(data)))
    source = draw(st.integers(0, len(other) - 1))
    length = draw(st.integers(1, 256))
    return bytes(data[:start] + other[source : source + length] + data[start + length :])


@given(raw_mutations())
@_FUZZ
def test_mutated_bytes_fail_only_with_named_errors(data):
    assert_fails_only_by_name(data)


def _split(data: bytes):
    magic, version, bom, header_len, data_start = _PREAMBLE.unpack_from(data)
    header = json.loads(data[_PREAMBLE.size : _PREAMBLE.size + header_len])
    return (magic, version, bom, data_start), header, data[data_start:]


def _join(preamble, header, payload: bytes) -> bytes:
    magic, version, bom, data_start = preamble
    raw = json.dumps(header).encode("utf-8")
    head = _PREAMBLE.pack(magic, version, bom, len(raw), data_start) + raw
    if len(head) > data_start:
        return head + payload
    return head + b"\x00" * (data_start - len(head)) + payload


def _paths(value, prefix=()):
    """Every path to a value inside the header JSON."""
    yield prefix
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _paths(item, prefix + (key,))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from _paths(item, prefix + (index,))


_VALUES = st.sampled_from(
    [
        -1, 0, 1, 3, 2**31, 2**62, 2**64, 1.5, "x", "", None, True, [], {}, [1],
        [2**40, 2**40], [-1], "<i8", "<f8", "|O", "<U4", ">i8", "|V8", "identity",
        "int64", "table", "san", "digraph", {"encoding": "identity", "count": 2**62},
    ]
)


@st.composite
def header_mutations(draw):
    preamble, header, payload = _split(FILES[draw(st.sampled_from(sorted(FILES)))])
    paths = list(_paths(header))[1:]
    path = draw(st.sampled_from(paths))
    target = header
    for key in path[:-1]:
        target = target[key]
    if draw(st.booleans()) and isinstance(target, dict):
        del target[path[-1]]
    else:
        target[path[-1]] = draw(_VALUES)
    return _join(preamble, header, payload)


@given(header_mutations())
@_FUZZ
def test_mutated_header_values_fail_only_with_named_errors(data):
    assert_fails_only_by_name(data)


@pytest.mark.parametrize("field", ["header_len", "data_start"])
@pytest.mark.parametrize("value", [0, 31, 2**40, 2**63, 2**64 - 1])
def test_preamble_lengths_are_checked_before_use(field, value):
    magic, version, bom, header_len, data_start = _PREAMBLE.unpack_from(FILES["san"])
    fields = {"header_len": header_len, "data_start": data_start}
    fields[field] = value
    data = _PREAMBLE.pack(magic, version, bom, fields["header_len"], fields["data_start"])
    assert_fails_only_by_name(data + FILES["san"][_PREAMBLE.size :])


@st.composite
def flipped_social_out_indices(draw):
    """The SAN file with up to four bytes inside ``social_out_indices`` rewritten."""
    preamble, header, _ = _split(FILES["san"])
    offset, shape, dtype = header["sections"]["social_out_indices"]
    start = preamble[3] + offset
    stop = start + shape[0] * np.dtype(dtype).itemsize
    data = bytearray(FILES["san"])
    for position in draw(st.lists(st.integers(start, stop - 1), min_size=1, max_size=4)):
        data[position] = draw(st.integers(0, 255))
    return bytes(data)


@given(flipped_social_out_indices())
@_FUZZ
def test_flipped_csr_indices_fail_only_with_named_errors_under_the_sanitizer(data):
    with tempfile.TemporaryDirectory() as directory, pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_SANITIZE", "1")
        path = Path(directory) / "san.col"
        path.write_bytes(data)
        try:
            for mode in ("r", None):
                global_reciprocity(open_columnar(path, mmap_mode=mode))
        except GraphError:
            pass


@pytest.mark.parametrize("position", [0, -1])
def test_an_index_past_the_node_count_fails_by_name_without_the_sanitizer(position):
    # The id n is one past the last node: small, so a missing check shows as
    # an unnamed numpy error or an indptr of the wrong length, not as a
    # huge allocation.
    preamble, header, _ = _split(FILES["san"])
    offset, shape, dtype = header["sections"]["social_out_indices"]
    indices = np.frombuffer(
        FILES["san"], dtype=dtype, count=shape[0], offset=preamble[3] + offset
    ).copy()
    with tempfile.TemporaryDirectory() as directory, pytest.MonkeyPatch.context() as patch:
        patch.delenv("REPRO_SANITIZE", raising=False)
        path = Path(directory) / "san.col"
        path.write_bytes(FILES["san"])
        n = open_columnar(path).social.number_of_nodes()
        indices[position] = n
        data = bytearray(FILES["san"])
        start = preamble[3] + offset
        data[start : start + indices.nbytes] = indices.tobytes()
        path.write_bytes(bytes(data))
        for mode in ("r", None):
            with pytest.raises(FrozenIdRangeError) as caught:
                open_columnar(path, mmap_mode=mode).social.undirected_csr()
            # Corrupt data, not an attempted mutation of a read-only graph.
            assert isinstance(caught.value, ValueError)
            assert not isinstance(caught.value, FrozenGraphError)
            with pytest.raises(GraphError):
                global_reciprocity(open_columnar(path, mmap_mode=mode))
