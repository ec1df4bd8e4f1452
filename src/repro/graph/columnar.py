"""Versioned binary columnar storage for frozen graphs.

This is the out-of-core backbone promised by ROADMAP item 1: a frozen graph
(:class:`~repro.graph.frozen.FrozenSAN` or
:class:`~repro.graph.frozen.FrozenDiGraph`) is laid out on disk as a small
self-describing header followed by 64-byte-aligned little-endian array
sections — one per CSR array, label table, and attribute-membership column —
so :func:`open_columnar` can hand every kernel an ``np.memmap`` view of the
file instead of re-parsing text into RAM.

File layout (version 1)::

    offset  0   magic            8 bytes  b"RPROCOL\\x00"
    offset  8   format version   u32 LE
    offset 12   byte-order mark  u32      0x01020304 stored little-endian
    offset 16   header length    u64 LE   (JSON bytes, directly after)
    offset 24   data start       u64 LE   (64-byte aligned)
    offset 32   header JSON      utf-8    {"kind", "sections", "meta"}
    data_start  sections         each 64-byte aligned, little-endian

``sections`` maps section name to ``[relative_offset, shape, dtype]`` with
offsets relative to ``data_start``, so the header can be serialized before
the absolute layout is known.  Node labels are stored in one of three
encodings chosen by the writer: ``identity`` (labels are exactly ``0..n-1``;
no section at all — the reader substitutes
:class:`~repro.graph.frozen.IdentityLabels`), ``int64`` (a plain array
section), or ``table`` (an interned string table: per-label kind codes, a
``uint8`` blob, and an offsets array).  Attribute values use the same table
encoding; attribute types are interned into ``meta["attr_type_names"]`` with
one small-int code per attribute node.

Version policy: the reader accepts files with ``version <= FORMAT_VERSION``
and raises :class:`~repro.graph.errors.ColumnarVersionError` for anything
newer; any layout change that an old reader would misinterpret must bump
``FORMAT_VERSION``.  All multi-byte values are little-endian on disk; the
byte-order mark exists so a file written without conversion on a big-endian
machine fails loudly (:class:`~repro.graph.errors.ColumnarEndiannessError`)
instead of decoding garbage.

The arrays returned by :func:`open_columnar` are bit-identical to the ones
the in-RAM freeze produces, so every engine kernel and the sanitizer's
parity checks work unchanged on an mmap-backed graph.

``REPRO_MMAP=1`` (see :func:`mmap_forced` / :func:`maybe_spill`) reroutes the
frozen-graph producers through a spill-to-columnar round trip, forcing every
frozen graph in the process to be mmap-backed — the tier-1 CI leg uses this
to prove the whole suite runs out-of-core.
"""

from __future__ import annotations

import json
import os
import struct
import tempfile
import weakref
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from .bipartite import AttributeInfo
from .digraph import DiGraph
from .errors import (
    ColumnarEndiannessError,
    ColumnarFormatError,
    ColumnarMagicError,
    ColumnarTruncatedError,
    ColumnarVersionError,
)
from .frozen import (
    FrozenBipartiteAttributeGraph,
    FrozenDiGraph,
    FrozenSAN,
    IdentityLabels,
    identity_labels_if_trivial,
)
from .san import SAN

MAGIC = b"RPROCOL\x00"
FORMAT_VERSION = 1
SECTION_ALIGNMENT = 64
MMAP_ENV = "REPRO_MMAP"

_PREAMBLE = struct.Struct("<8sIIQQ")  # magic, version, byte-order mark, header len, data start
_BOM_LITTLE = struct.pack("<I", 0x01020304)
_BOM_BIG = struct.pack(">I", 0x01020304)

# Kind codes of the interned object table (labels / attribute values).
_KIND_INT = 0
_KIND_STR = 1
_KIND_FLOAT = 2
_KIND_BOOL = 3
_KIND_NONE = 4

GraphLike = Union[FrozenSAN, FrozenDiGraph, SAN, DiGraph]


def _align(offset: int) -> int:
    remainder = offset % SECTION_ALIGNMENT
    return offset if remainder == 0 else offset + (SECTION_ALIGNMENT - remainder)


# ----------------------------------------------------------------------
# Interned object table (labels and attribute values)
# ----------------------------------------------------------------------
def _encode_object_table(
    values: List[object],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pack arbitrary scalar labels into ``(kinds, offsets, blob)`` arrays."""
    kinds = np.empty(len(values), dtype=np.uint8)
    offsets = np.empty(len(values) + 1, dtype=np.int64)
    offsets[0] = 0
    blob = bytearray()
    for i, value in enumerate(values):
        if value is None:
            kind, data = _KIND_NONE, b""
        elif type(value) is bool:
            kind, data = _KIND_BOOL, (b"1" if value else b"0")
        elif type(value) is int:
            kind, data = _KIND_INT, str(value).encode("ascii")
        elif type(value) is float:
            kind, data = _KIND_FLOAT, repr(value).encode("ascii")
        elif isinstance(value, str):
            kind, data = _KIND_STR, value.encode("utf-8")
        else:
            raise TypeError(
                f"label/value {value!r} of type {type(value).__name__} cannot "
                f"be stored in a columnar file (supported: int, str, float, "
                f"bool, None)"
            )
        kinds[i] = kind
        blob += data
        offsets[i + 1] = len(blob)
    return kinds, offsets, np.frombuffer(bytes(blob), dtype=np.uint8)


def _decode_object_table(
    path: object, kinds: np.ndarray, offsets: np.ndarray, blob: np.ndarray
) -> List[object]:
    # Bulk-materialize the three sections up front: per-element indexing on
    # an np.memmap is a syscall-free but slow scalar read, and this loop
    # touches every offset twice.
    raw = blob.tobytes()
    bounds = offsets.tolist()
    out: List[object] = []
    for i, kind in enumerate(kinds.tolist()):
        data = raw[bounds[i] : bounds[i + 1]]
        if kind == _KIND_INT:
            out.append(int(data))
        elif kind == _KIND_STR:
            out.append(data.decode("utf-8"))
        elif kind == _KIND_FLOAT:
            out.append(float(data))
        elif kind == _KIND_BOOL:
            out.append(data == b"1")
        elif kind == _KIND_NONE:
            out.append(None)
        else:
            raise ColumnarFormatError(path, f"unknown object-table kind code {kind}")
    return out


def _label_sections(
    prefix: str, labels
) -> Tuple[str, Dict[str, np.ndarray]]:
    """Choose a label encoding; return ``(encoding, {section_name: array})``."""
    labels = identity_labels_if_trivial(labels)
    if isinstance(labels, IdentityLabels):
        return "identity", {}
    values = list(labels)
    if values and all(type(v) is int for v in values):
        return "int64", {f"{prefix}_i64": np.asarray(values, dtype=np.int64)}
    kinds, offsets, blob = _encode_object_table(values)
    return "table", {
        f"{prefix}_kinds": kinds,
        f"{prefix}_offsets": offsets,
        f"{prefix}_blob": blob,
    }


def _decode_labels(
    path: object,
    encoding: str,
    count: int,
    prefix: str,
    arrays: Dict[str, np.ndarray],
):
    if encoding == "identity":
        return IdentityLabels(count)
    if encoding == "int64":
        return arrays[f"{prefix}_i64"].tolist()
    if encoding == "table":
        return _decode_object_table(
            path,
            arrays[f"{prefix}_kinds"],
            arrays[f"{prefix}_offsets"],
            arrays[f"{prefix}_blob"],
        )
    raise ColumnarFormatError(path, f"unknown label encoding {encoding!r}")


# ----------------------------------------------------------------------
# Writer
# ----------------------------------------------------------------------
def _collect_sections(
    graph: Union[FrozenSAN, FrozenDiGraph], extras: Optional[Dict[str, np.ndarray]]
) -> Tuple[str, Dict[str, np.ndarray], Dict[str, object]]:
    """Flatten ``graph`` into ``(kind, {section: array}, meta)``."""
    sections: Dict[str, np.ndarray] = {}
    meta: Dict[str, object] = {}
    if isinstance(graph, FrozenSAN):
        kind = "san"
        social = graph.social
        attrs = graph.attributes
        out_indptr, out_indices = social.out_csr()
        in_indptr, in_indices = social.in_csr()
        sa_indptr, sa_indices = attrs.social_to_attr_csr()
        as_indptr, as_indices = attrs.attr_to_social_csr()
        sections.update(
            {
                "social_out_indptr": out_indptr,
                "social_out_indices": out_indices,
                "social_in_indptr": in_indptr,
                "social_in_indices": in_indices,
                "sa_indptr": sa_indptr,
                "sa_indices": sa_indices,
                "as_indptr": as_indptr,
                "as_indices": as_indices,
            }
        )
        encoding, label_sections = _label_sections("social_labels", social.labels())
        sections.update(label_sections)
        meta["social_labels"] = {
            "encoding": encoding,
            "count": social.number_of_nodes(),
        }
        attr_labels = attrs.attribute_labels()
        encoding, label_sections = _label_sections("attr_labels", attr_labels)
        sections.update(label_sections)
        meta["attr_labels"] = {
            "encoding": encoding,
            "count": attrs.number_of_attribute_nodes(),
        }
        infos = [attrs.attribute_info(label) for label in attr_labels]
        type_names = sorted({info.attr_type for info in infos})
        code_of = {name: code for code, name in enumerate(type_names)}
        sections["attr_type_codes"] = np.fromiter(
            (code_of[info.attr_type] for info in infos),
            dtype=np.int32,
            count=len(infos),
        )
        kinds, offsets, blob = _encode_object_table([info.value for info in infos])
        sections.update(
            {
                "attr_value_kinds": kinds,
                "attr_value_offsets": offsets,
                "attr_value_blob": blob,
            }
        )
        meta["attr_type_names"] = type_names
        meta["counts"] = {
            "social_nodes": social.number_of_nodes(),
            "social_edges": social.number_of_edges(),
            "attribute_nodes": attrs.number_of_attribute_nodes(),
            "attribute_edges": attrs.number_of_links(),
        }
    elif isinstance(graph, FrozenDiGraph):
        kind = "digraph"
        out_indptr, out_indices = graph.out_csr()
        in_indptr, in_indices = graph.in_csr()
        sections.update(
            {
                "out_indptr": out_indptr,
                "out_indices": out_indices,
                "in_indptr": in_indptr,
                "in_indices": in_indices,
            }
        )
        encoding, label_sections = _label_sections("labels", graph.labels())
        sections.update(label_sections)
        meta["labels"] = {"encoding": encoding, "count": graph.number_of_nodes()}
        meta["counts"] = {
            "nodes": graph.number_of_nodes(),
            "edges": graph.number_of_edges(),
        }
    else:  # pragma: no cover - guarded by save_columnar
        raise TypeError(f"cannot serialize {type(graph).__name__}")
    if extras:
        extra_names = []
        for name, array in extras.items():
            if ":" in name:
                raise ValueError(f"extra section name {name!r} may not contain ':'")
            sections[f"extra:{name}"] = np.asarray(array)
            extra_names.append(name)
        meta["extras"] = extra_names
    return kind, sections, meta


def save_columnar(
    graph: GraphLike,
    path,
    extras: Optional[Dict[str, np.ndarray]] = None,
) -> None:
    """Write ``graph`` to ``path`` in the versioned columnar format.

    Mutable graphs are frozen first.  ``extras`` attaches named auxiliary
    arrays (edge timestamps, day columns, …) as additional aligned sections
    retrievable via :func:`load_columnar_extras`.  The write is atomic: data
    goes to a sibling temp file that is ``os.replace``d into place, so a
    crashed writer never leaves a half-written file under the final name.
    """
    if isinstance(graph, (SAN, DiGraph)):
        graph = graph.freeze()
    if not isinstance(graph, (FrozenSAN, FrozenDiGraph)):
        raise TypeError(
            f"save_columnar expects a (Frozen)SAN or (Frozen)DiGraph, "
            f"got {type(graph).__name__}"
        )
    kind, sections, meta = _collect_sections(graph, extras)

    layout: Dict[str, List[object]] = {}
    cursor = 0
    prepared: List[Tuple[str, np.ndarray]] = []
    for name, array in sections.items():
        array = np.ascontiguousarray(array)
        le_dtype = array.dtype.newbyteorder("<")
        array = array.astype(le_dtype, copy=False)
        cursor = _align(cursor)
        layout[name] = [cursor, list(array.shape), le_dtype.str]
        cursor += array.nbytes
        prepared.append((name, array))
    header = json.dumps(
        {"kind": kind, "sections": layout, "meta": meta},
        sort_keys=True,
        separators=(",", ":"),
    ).encode("utf-8")
    data_start = _align(_PREAMBLE.size + len(header))

    path = os.fspath(path)
    tmp_path = f"{path}.tmp-{os.getpid()}"
    try:
        with open(tmp_path, "wb") as handle:
            handle.write(
                _PREAMBLE.pack(
                    MAGIC,
                    FORMAT_VERSION,
                    struct.unpack("<I", _BOM_LITTLE)[0],
                    len(header),
                    data_start,
                )
            )
            handle.write(header)
            for name, array in prepared:
                target = data_start + layout[name][0]
                handle.write(b"\x00" * (target - handle.tell()))
                array.tofile(handle)
        os.replace(tmp_path, path)
    finally:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)


# ----------------------------------------------------------------------
# Reader
# ----------------------------------------------------------------------
def _read_header(path) -> Dict[str, object]:
    path = os.fspath(path)
    file_size = os.path.getsize(path)
    with open(path, "rb") as handle:
        preamble = handle.read(_PREAMBLE.size)
        if len(preamble) < _PREAMBLE.size:
            raise ColumnarTruncatedError(
                path, f"file is {len(preamble)} bytes, shorter than the preamble"
            )
        magic = preamble[:8]
        if magic != MAGIC:
            raise ColumnarMagicError(path, f"bad magic {magic!r} (expected {MAGIC!r})")
        bom = preamble[12:16]
        if bom != _BOM_LITTLE:
            if bom == _BOM_BIG:
                raise ColumnarEndiannessError(
                    path, "byte-order mark is big-endian; file was written "
                    "without little-endian conversion"
                )
            raise ColumnarFormatError(path, f"unrecognized byte-order mark {bom!r}")
        version = struct.unpack("<I", preamble[8:12])[0]
        if version < 1 or version > FORMAT_VERSION:
            raise ColumnarVersionError(path, version, FORMAT_VERSION)
        header_len, data_start = struct.unpack("<QQ", preamble[16:32])
        if file_size < _PREAMBLE.size + header_len:
            raise ColumnarTruncatedError(
                path, "file ends inside the header JSON"
            )
        raw_header = handle.read(header_len)
    try:
        header = json.loads(raw_header.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ColumnarFormatError(path, f"header JSON is invalid: {exc}") from exc
    if not isinstance(header, dict) or "kind" not in header or "sections" not in header:
        raise ColumnarFormatError(path, "header JSON is missing kind/sections")
    header["data_start"] = data_start
    header["version"] = version
    header["file_size"] = file_size
    for name, (rel_offset, shape, dtype_str) in header["sections"].items():
        nbytes = int(np.dtype(dtype_str).itemsize) * int(np.prod(shape, dtype=np.int64))
        if data_start + rel_offset + nbytes > file_size:
            raise ColumnarTruncatedError(
                path, f"section {name!r} extends past end of file"
            )
    return header


def _load_sections(
    path, header: Dict[str, object], mmap_mode: Optional[str]
) -> Dict[str, np.ndarray]:
    if mmap_mode not in (None, "r"):
        raise ValueError(f"mmap_mode must be 'r' or None, got {mmap_mode!r}")
    data_start = header["data_start"]
    arrays: Dict[str, np.ndarray] = {}
    if mmap_mode == "r":
        for name, (rel_offset, shape, dtype_str) in header["sections"].items():
            shape = tuple(shape)
            dtype = np.dtype(dtype_str)
            if int(np.prod(shape, dtype=np.int64)) == 0:
                arrays[name] = np.empty(shape, dtype=dtype)
            else:
                arrays[name] = np.memmap(
                    path, dtype=dtype, mode="r",
                    offset=data_start + rel_offset, shape=shape,
                )
        return arrays
    with open(path, "rb") as handle:
        for name, (rel_offset, shape, dtype_str) in header["sections"].items():
            shape = tuple(shape)
            dtype = np.dtype(dtype_str)
            count = int(np.prod(shape, dtype=np.int64))
            handle.seek(data_start + rel_offset)
            arrays[name] = np.fromfile(handle, dtype=dtype, count=count).reshape(shape)
    return arrays


def open_columnar(
    path, mmap_mode: Optional[str] = "r"
) -> Union[FrozenSAN, FrozenDiGraph]:
    """Open a columnar file as a frozen graph.

    With the default ``mmap_mode="r"`` every CSR array is a read-only
    ``np.memmap`` view of the file — opening is O(header + labels), not
    O(edges), and the kernel pages adjacency in on demand.  With
    ``mmap_mode=None`` the arrays are read fully into RAM (bit-identical
    either way).
    """
    path = os.fspath(path)
    header = _read_header(path)
    arrays = _load_sections(path, header, mmap_mode)
    meta = header.get("meta", {})
    kind = header["kind"]
    if kind == "san":
        social_spec = meta["social_labels"]
        social_labels = _decode_labels(
            path, social_spec["encoding"], social_spec["count"], "social_labels", arrays
        )
        social = FrozenDiGraph(
            social_labels,
            arrays["social_out_indptr"],
            arrays["social_out_indices"],
            arrays["social_in_indptr"],
            arrays["social_in_indices"],
        )
        attr_spec = meta["attr_labels"]
        attr_labels = _decode_labels(
            path, attr_spec["encoding"], attr_spec["count"], "attr_labels", arrays
        )
        type_names = meta["attr_type_names"]
        values = _decode_object_table(
            path,
            arrays["attr_value_kinds"],
            arrays["attr_value_offsets"],
            arrays["attr_value_blob"],
        )
        try:
            attr_info = [
                AttributeInfo(type_names[code], value)
                for code, value in zip(arrays["attr_type_codes"].tolist(), values)
            ]
        except IndexError:
            raise ColumnarFormatError(
                path, "attribute type code out of range"
            ) from None
        attributes = FrozenBipartiteAttributeGraph(
            social.labels(),
            social._index,
            attr_labels,
            attr_info,
            arrays["sa_indptr"],
            arrays["sa_indices"],
            arrays["as_indptr"],
            arrays["as_indices"],
        )
        return FrozenSAN(social, attributes)
    if kind == "digraph":
        label_spec = meta["labels"]
        labels = _decode_labels(
            path, label_spec["encoding"], label_spec["count"], "labels", arrays
        )
        return FrozenDiGraph(
            labels,
            arrays["out_indptr"],
            arrays["out_indices"],
            arrays["in_indptr"],
            arrays["in_indices"],
        )
    raise ColumnarFormatError(path, f"unknown graph kind {kind!r}")


def load_columnar_extras(
    path, mmap_mode: Optional[str] = "r"
) -> Dict[str, np.ndarray]:
    """Load the auxiliary arrays attached via ``save_columnar(extras=...)``."""
    path = os.fspath(path)
    header = _read_header(path)
    names = header.get("meta", {}).get("extras", [])
    sections = {
        f"extra:{name}": header["sections"][f"extra:{name}"] for name in names
    }
    trimmed = dict(header)
    trimmed["sections"] = sections
    arrays = _load_sections(path, trimmed, mmap_mode)
    return {name: arrays[f"extra:{name}"] for name in names}


def columnar_info(path) -> Dict[str, object]:
    """Validated header summary of a columnar file (for tooling and tests)."""
    header = _read_header(path)
    return {
        "kind": header["kind"],
        "version": header["version"],
        "file_size": header["file_size"],
        "data_start": header["data_start"],
        "sections": {
            name: {"offset": spec[0], "shape": spec[1], "dtype": spec[2]}
            for name, spec in header["sections"].items()
        },
        "meta": header.get("meta", {}),
    }


# ----------------------------------------------------------------------
# Spill helpers (the REPRO_MMAP escape hatch)
# ----------------------------------------------------------------------
def mmap_forced() -> bool:
    """Whether ``REPRO_MMAP`` requests mmap-backed frozen graphs.

    Read per call (same contract as
    :func:`repro.engine.deps.sanitize_enabled`) so tests can flip the
    environment without cache invalidation concerns.
    """
    return os.environ.get(MMAP_ENV, "").strip().lower() in {"1", "true", "yes", "on"}


def spill_to_mmap(
    graph: GraphLike, directory: Optional[str] = None
) -> Union[FrozenSAN, FrozenDiGraph]:
    """Round-trip ``graph`` through a columnar temp file, returning mmap views.

    On POSIX the temp file is unlinked immediately after opening — the open
    file descriptor keeps the pages readable, so spilled graphs need no
    cleanup bookkeeping and cannot leak named files.  Elsewhere the unlink is
    deferred to a ``weakref.finalize`` on the returned graph.
    """
    fd, tmp_path = tempfile.mkstemp(
        prefix="repro-columnar-", suffix=".col", dir=directory
    )
    os.close(fd)
    try:
        save_columnar(graph, tmp_path)
        reopened = open_columnar(tmp_path, mmap_mode="r")
    except BaseException:
        os.unlink(tmp_path)
        raise
    try:
        os.unlink(tmp_path)
    except OSError:  # pragma: no cover - non-POSIX fallback
        weakref.finalize(reopened, _unlink_quietly, tmp_path)
    return reopened


def _unlink_quietly(path: str) -> None:  # pragma: no cover - non-POSIX fallback
    try:
        os.unlink(path)
    except OSError:
        pass


def maybe_spill(graph: GraphLike) -> GraphLike:
    """Spill ``graph`` to an mmap-backed columnar temp file under ``REPRO_MMAP``.

    The identity function when the knob is off — producers wrap their return
    value in this so the whole pipeline can be forced out-of-core without
    touching call sites.
    """
    if mmap_forced() and isinstance(graph, (FrozenSAN, FrozenDiGraph)):
        return spill_to_mmap(graph)
    return graph


def is_mmap_backed(graph: Union[FrozenSAN, FrozenDiGraph]) -> bool:
    """Whether ``graph``'s primary adjacency array is an ``np.memmap`` view."""
    if isinstance(graph, FrozenSAN):
        graph = graph.social
    _, indices = graph.out_csr()
    return isinstance(indices, np.memmap)
