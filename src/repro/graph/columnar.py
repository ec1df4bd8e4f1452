"""Versioned binary columnar storage for frozen graphs.

A frozen graph (:class:`~repro.graph.frozen.FrozenSAN` or
:class:`~repro.graph.frozen.FrozenDiGraph`) is laid out on disk as a small
self-describing header followed by 64-byte-aligned little-endian array
sections — one per CSR array, label table, and attribute-membership column —
so :func:`open_columnar` can hand every kernel an ``np.memmap`` view of the
file instead of re-parsing text into RAM.  The artifact store keeps every
stored graph in this format.

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
encodings chosen by the writer: ``identity`` (labels are exactly the ints
``0..n-1``; no section at all — the reader rebuilds ``list(range(n))`` once
the CSR arrays have confirmed ``n``), ``int64`` (a plain array
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
the in-RAM freeze produces, so every engine kernel works unchanged on an
mmap-backed graph.
"""

from __future__ import annotations

import json
import math
import os
import struct
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
from .frozen import FrozenBipartiteAttributeGraph, FrozenDiGraph, FrozenSAN
from .san import SAN

MAGIC = b"RPROCOL\x00"
FORMAT_VERSION = 1
SECTION_ALIGNMENT = 64

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
    if kinds.ndim != 1 or offsets.shape != (kinds.size + 1,) or blob.ndim != 1:
        raise ColumnarFormatError(path, "object table sections disagree in length")
    # Bulk-materialize the three sections up front: per-element indexing on
    # an np.memmap is a syscall-free but slow scalar read, and this loop
    # touches every offset twice.
    raw = blob.tobytes()
    bounds = offsets.tolist()
    if bounds[0] != 0 or bounds[-1] != len(raw) or np.any(np.diff(offsets) < 0):
        raise ColumnarFormatError(path, "object table offsets are out of order")
    if np.any((kinds < _KIND_INT) | (kinds > _KIND_NONE)):
        raise ColumnarFormatError(path, "unknown object-table kind code")
    out: List[object] = []
    try:
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
            else:
                out.append(None)
    except ValueError as exc:  # int()/float() of a corrupted entry, or bad UTF-8
        raise ColumnarFormatError(path, f"object table entry {i} is invalid: {exc}") from None
    return out


def _label_sections(
    prefix: str, labels
) -> Tuple[str, Dict[str, np.ndarray]]:
    """Choose a label encoding; return ``(encoding, {section_name: array})``."""
    values = list(labels)
    if all(type(v) is int and v == i for i, v in enumerate(values)):
        return "identity", {}
    if all(type(v) is int for v in values):
        return "int64", {f"{prefix}_i64": np.asarray(values, dtype=np.int64)}
    kinds, offsets, blob = _encode_object_table(values)
    return "table", {
        f"{prefix}_kinds": kinds,
        f"{prefix}_offsets": offsets,
        f"{prefix}_blob": blob,
    }


def _decode_labels(
    path: object,
    encoding: object,
    count: int,
    prefix: str,
    arrays: Dict[str, np.ndarray],
) -> List[object]:
    """The ``count`` labels of ``prefix``.

    ``count`` must already be tied to a CSR's row count: an ``identity``
    encoding has no section to bound it, so ``list(range(count))`` would
    otherwise grow with whatever count a damaged header claims.
    """
    if encoding == "identity":
        return list(range(count))
    if encoding == "int64":
        labels = _section(path, arrays, f"{prefix}_i64").tolist()
    elif encoding == "table":
        labels = _decode_object_table(
            path,
            _section(path, arrays, f"{prefix}_kinds"),
            _section(path, arrays, f"{prefix}_offsets"),
            _section(path, arrays, f"{prefix}_blob"),
        )
    else:
        raise ColumnarFormatError(path, f"unknown label encoding {encoding!r}")
    if len(labels) != count:
        raise ColumnarFormatError(
            path, f"{prefix} holds {len(labels)} labels, the header says {count}"
        )
    return labels


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
    """Parse and check the preamble and header JSON of a columnar file.

    Every field a later read is sized from is checked here against the file
    size: the header length, the data start, and each section's offset,
    shape and dtype (a plain little-endian bool, int, uint or float dtype).
    A section spec comes back as ``(offset, shape tuple, dtype)``.
    """
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
        if not _PREAMBLE.size + header_len <= data_start <= file_size:
            raise ColumnarFormatError(
                path, f"data start {data_start} lies outside the file's data region"
            )
        raw_header = handle.read(header_len)
    try:
        header = json.loads(raw_header.decode("utf-8"))
    except (UnicodeDecodeError, ValueError, RecursionError) as exc:
        raise ColumnarFormatError(path, f"header JSON is invalid: {exc}") from exc
    if (
        not isinstance(header, dict)
        or not isinstance(header.get("kind"), str)
        or not isinstance(header.get("sections"), dict)
        or not isinstance(header.get("meta", {}), dict)
    ):
        raise ColumnarFormatError(path, "header JSON is missing kind/sections")
    header["data_start"] = data_start
    header["version"] = version
    header["file_size"] = file_size
    header["sections"] = {
        name: _checked_section(path, name, spec, data_start, file_size)
        for name, spec in header["sections"].items()
    }
    return header


def _is_count(value: object) -> bool:
    return type(value) is int and value >= 0


def _checked_section(
    path: str, name: str, spec: object, data_start: int, file_size: int
) -> Tuple[int, Tuple[int, ...], np.dtype]:
    """One section's ``(offset, shape, dtype)``, checked to lie inside the file."""
    if not (isinstance(spec, list) and len(spec) == 3):
        raise ColumnarFormatError(path, f"section {name!r} has a malformed spec")
    rel_offset, shape, dtype_str = spec
    if not (
        _is_count(rel_offset)
        and isinstance(shape, list)
        and all(_is_count(dim) and dim <= file_size for dim in shape)
        and isinstance(dtype_str, str)
    ):
        raise ColumnarFormatError(path, f"section {name!r} has a malformed spec")
    try:
        dtype = np.dtype(dtype_str)
    except TypeError:
        dtype = None
    if dtype is None or dtype.str != dtype_str or dtype.kind not in "biuf" or (
        dtype.str[0] not in "<|"
    ):
        raise ColumnarFormatError(
            path, f"section {name!r} has unsupported dtype {dtype_str!r}"
        )
    nbytes = dtype.itemsize * math.prod(shape)
    if data_start + rel_offset + nbytes > file_size:
        raise ColumnarTruncatedError(
            path, f"section {name!r} extends past end of file"
        )
    return rel_offset, tuple(shape), dtype


def _section(path: object, arrays: Dict[str, np.ndarray], name: str) -> np.ndarray:
    """The 1-D integer section ``name`` (a named error if missing or malformed)."""
    array = arrays.get(name)
    if array is None or array.ndim != 1 or array.dtype.kind not in "iu":
        raise ColumnarFormatError(path, f"section {name!r} is missing or not a 1-D int array")
    return array


def _checked_csr(
    path: object, arrays: Dict[str, np.ndarray], prefix: str, rows: int, columns: int
) -> Tuple[np.ndarray, np.ndarray]:
    """``(indptr, indices)`` of the CSR ``prefix``, its shape checked against ``rows``.

    Under ``REPRO_SANITIZE=1`` the arrays are read in full as well: every
    row must hold strictly increasing column ids below ``columns``.  The
    packed-key sorts downstream would file an out-of-range id silently
    under another row.
    """
    # The engine layer sits above this one, so its switch is read at call time.
    from ..engine.deps import sanitize_enabled

    indptr = _section(path, arrays, f"{prefix}_indptr")
    indices = _section(path, arrays, f"{prefix}_indices")
    if indptr.size != rows + 1 or int(indptr[0]) != 0 or int(indptr[-1]) != indices.size:
        raise ColumnarFormatError(path, f"CSR {prefix!r} does not fit its {rows} rows")
    if sanitize_enabled() and not _csr_content_ok(indptr, indices, columns):
        raise ColumnarFormatError(
            path, f"CSR {prefix!r} has a column id out of range or a row out of order"
        )
    return indptr, indices


def _csr_content_ok(indptr: np.ndarray, indices: np.ndarray, columns: int) -> bool:
    """Whether every row of the CSR holds strictly increasing ids in ``[0, columns)``.

    ``indptr`` already starts at 0 and ends at ``indices.size``.  Elementwise
    comparisons rather than ``np.diff`` keep unsigned sections from wrapping.
    """
    if np.any(indptr[1:] < indptr[:-1]):
        return False
    if indices.size == 0:
        return True
    if int(indices.min()) < 0 or int(indices.max()) >= columns:
        return False
    rising = indices[1:] > indices[:-1]
    # The step onto each row's first entry crosses from the row before.
    starts = indptr[1:-1].astype(np.int64)
    rising[starts[(starts > 0) & (starts < indices.size)] - 1] = True
    return bool(rising.all())


def _load_sections(
    path, header: Dict[str, object], mmap_mode: Optional[str]
) -> Dict[str, np.ndarray]:
    if mmap_mode not in (None, "r"):
        raise ValueError(f"mmap_mode must be 'r' or None, got {mmap_mode!r}")
    data_start = header["data_start"]
    arrays: Dict[str, np.ndarray] = {}
    if mmap_mode == "r":
        for name, (rel_offset, shape, dtype) in header["sections"].items():
            if math.prod(shape) == 0:
                arrays[name] = np.empty(shape, dtype=dtype)
            else:
                arrays[name] = np.memmap(
                    path, dtype=dtype, mode="r",
                    offset=data_start + rel_offset, shape=shape,
                )
        return arrays
    with open(path, "rb") as handle:
        for name, (rel_offset, shape, dtype) in header["sections"].items():
            handle.seek(data_start + rel_offset)
            arrays[name] = np.fromfile(
                handle, dtype=dtype, count=math.prod(shape)
            ).reshape(shape)
    return arrays


def open_columnar(
    path, mmap_mode: Optional[str] = "r"
) -> Union[FrozenSAN, FrozenDiGraph]:
    """Open a columnar file as a frozen graph.

    With the default ``mmap_mode="r"`` every CSR array is a read-only
    ``np.memmap`` view of the file — opening is O(header + labels), not
    O(edges), and the kernel pages adjacency in on demand.  With
    ``mmap_mode=None`` the arrays are read fully into RAM (bit-identical
    either way).  Under ``REPRO_SANITIZE=1`` every CSR's content is checked
    too (column ids in range, rows strictly increasing), at O(edges).
    """
    path = os.fspath(path)
    header = _read_header(path)
    arrays = _load_sections(path, header, mmap_mode)
    meta = header.get("meta", {})
    kind = header["kind"]
    # Each label count is checked against a CSR's rows before its labels
    # are decoded (see _decode_labels).
    if kind == "san":
        social_encoding, social_count = _label_spec(path, meta, "social_labels")
        attr_encoding, attr_count = _label_spec(path, meta, "attr_labels")
        out_indptr, out_indices = _checked_csr(
            path, arrays, "social_out", social_count, social_count
        )
        in_indptr, in_indices = _checked_csr(
            path, arrays, "social_in", social_count, social_count
        )
        sa_indptr, sa_indices = _checked_csr(path, arrays, "sa", social_count, attr_count)
        as_indptr, as_indices = _checked_csr(path, arrays, "as", attr_count, social_count)
        social_labels = _decode_labels(
            path, social_encoding, social_count, "social_labels", arrays
        )
        social = FrozenDiGraph(social_labels, out_indptr, out_indices, in_indptr, in_indices)
        attr_labels = _decode_labels(path, attr_encoding, attr_count, "attr_labels", arrays)
        type_names = meta.get("attr_type_names")
        if not isinstance(type_names, list) or not all(
            isinstance(name, str) for name in type_names
        ):
            raise ColumnarFormatError(path, "attribute type names are malformed")
        values = _decode_object_table(
            path,
            _section(path, arrays, "attr_value_kinds"),
            _section(path, arrays, "attr_value_offsets"),
            _section(path, arrays, "attr_value_blob"),
        )
        codes = _section(path, arrays, "attr_type_codes").tolist()
        if len(codes) != attr_count or len(values) != attr_count:
            raise ColumnarFormatError(path, "attribute info does not fit the labels")
        if codes and not 0 <= min(codes) <= max(codes) < len(type_names):
            raise ColumnarFormatError(path, "attribute type code out of range")
        attr_info = [
            AttributeInfo(type_names[code], value) for code, value in zip(codes, values)
        ]
        attributes = FrozenBipartiteAttributeGraph(
            social.labels(),
            social._index,
            attr_labels,
            attr_info,
            sa_indptr,
            sa_indices,
            as_indptr,
            as_indices,
        )
        return FrozenSAN(social, attributes)
    if kind == "digraph":
        encoding, count = _label_spec(path, meta, "labels")
        out_csr = _checked_csr(path, arrays, "out", count, count)
        in_csr = _checked_csr(path, arrays, "in", count, count)
        labels = _decode_labels(path, encoding, count, "labels", arrays)
        return FrozenDiGraph(labels, *out_csr, *in_csr)
    raise ColumnarFormatError(path, f"unknown graph kind {kind!r}")


def _label_spec(path: object, meta: Dict[str, object], key: str) -> Tuple[object, int]:
    """``(encoding, node count)`` of the label spec ``meta[key]``."""
    spec = meta.get(key)
    if not isinstance(spec, dict) or not _is_count(spec.get("count")):
        raise ColumnarFormatError(path, f"label spec {key!r} is missing or malformed")
    return spec.get("encoding"), spec["count"]


def load_columnar_extras(
    path, mmap_mode: Optional[str] = "r"
) -> Dict[str, np.ndarray]:
    """Load the auxiliary arrays attached via ``save_columnar(extras=...)``."""
    path = os.fspath(path)
    header = _read_header(path)
    names = header.get("meta", {}).get("extras", [])
    if not isinstance(names, list) or not all(
        isinstance(name, str) and f"extra:{name}" in header["sections"] for name in names
    ):
        raise ColumnarFormatError(path, "extra sections are missing or malformed")
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
            name: {"offset": offset, "shape": list(shape), "dtype": dtype.str}
            for name, (offset, shape, dtype) in header["sections"].items()
        },
        "meta": header.get("meta", {}),
    }
