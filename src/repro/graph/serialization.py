"""Persistence of SANs to simple text formats.

Two formats are supported:

* **TSV pair**: a social edge file with one ``source<TAB>target`` line per
  directed link plus an attribute file with ``social<TAB>attr_type<TAB>value``
  lines.  This mirrors the format of publicly released Google+ crawls.
* **JSON**: one self-contained document, convenient for small fixtures.

Both the mutable :class:`~repro.graph.san.SAN` and the frozen
:class:`~repro.graph.frozen.FrozenSAN` backend can be saved (the writers only
touch the shared read-only surface); both loaders return a
:class:`~repro.graph.frozen.FrozenSAN`.
"""

from __future__ import annotations

import json
from array import array
from pathlib import Path
from typing import Iterator, List, Tuple, Union

import numpy as np

from .bipartite import AttributeInfo
from .builders import attribute_node_id
from .errors import InvalidNodeKindError, SerializationError
from .frozen import FrozenSAN, sorted_pair_keys
from .san import SAN

PathLike = Union[str, Path]
SANLike = Union[SAN, FrozenSAN]


def save_san_tsv(
    san: SANLike, social_path: PathLike, attribute_path: PathLike
) -> None:
    """Write ``san`` (mutable or frozen) to a pair of TSV files."""
    social_path = Path(social_path)
    attribute_path = Path(attribute_path)
    with social_path.open("w", encoding="utf-8") as handle:
        for source, target in sorted(san.social_edges(), key=_edge_sort_key):
            handle.write(f"{source}\t{target}\n")
    with attribute_path.open("w", encoding="utf-8") as handle:
        for social, attribute in sorted(san.attribute_edges(), key=_edge_sort_key):
            info = san.attribute_info(attribute)
            handle.write(f"{social}\t{info.attr_type}\t{info.value}\n")


def load_san_tsv(social_path: PathLike, attribute_path: PathLike) -> FrozenSAN:
    """Load a SAN from the TSV pair written by :func:`save_san_tsv`.

    Social node ids are parsed back to integers when possible so a round trip
    through disk preserves the library's integer-id convention.  The TSV is
    streamed straight into compact-id edge arrays that
    :meth:`FrozenSAN.from_edge_arrays` packs into CSR form, never into
    Python dicts of sets.  Labels are interned in order of first appearance
    in the files (social file first); duplicate rows collapse, and the first
    row naming an attribute fixes its metadata.
    """
    social_path, attribute_path = Path(social_path), Path(attribute_path)
    social_index: dict = {}
    social_labels: list = []
    attr_index: dict = {}
    attr_labels: list = []
    attr_info: list = []

    def intern_social(label) -> int:
        i = social_index.get(label)
        if i is None:
            if label in attr_index:
                raise InvalidNodeKindError(label, "social")
            i = len(social_labels)
            social_index[label] = i
            social_labels.append(label)
        return i

    def intern_attr(label, attr_type: str, value: str) -> int:
        i = attr_index.get(label)
        if i is None:
            if label in social_index:
                raise InvalidNodeKindError(label, "attribute")
            i = len(attr_labels)
            attr_index[label] = i
            attr_labels.append(label)
            attr_info.append(AttributeInfo(attr_type=attr_type, value=value))
        return i

    social_src = array("q")
    social_dst = array("q")
    for source, target in _tsv_rows(social_path, 2):
        social_src.append(intern_social(_parse_node(source)))
        social_dst.append(intern_social(_parse_node(target)))

    link_social = array("q")
    link_attr = array("q")
    for social, attr_type, value in _tsv_rows(attribute_path, 3):
        link_social.append(intern_social(_parse_node(social)))
        link_attr.append(intern_attr(attribute_node_id(attr_type, value), attr_type, value))

    src, dst = _dedup_edge_arrays(
        np.frombuffer(social_src, dtype=np.int64),
        np.frombuffer(social_dst, dtype=np.int64),
    )
    ls, la = _dedup_edge_arrays(
        np.frombuffer(link_social, dtype=np.int64),
        np.frombuffer(link_attr, dtype=np.int64),
    )
    return FrozenSAN.from_edge_arrays(
        social_labels, src, dst, attr_labels, attr_info, ls, la
    )


def _tsv_rows(path: Path, width: int) -> Iterator[List[str]]:
    """The ``width`` tab-separated fields of each non-empty line of ``path``.

    A line with another field count, or bytes that are not UTF-8, raise
    :class:`~repro.graph.errors.SerializationError` naming the file.
    """
    try:
        with path.open("r", encoding="utf-8") as handle:
            for line_number, line in enumerate(handle, start=1):
                line = line.rstrip("\n")
                if not line:
                    continue
                parts = line.split("\t")
                if len(parts) != width:
                    raise SerializationError(
                        f"{path}:{line_number}: expected {width} fields, got {len(parts)}"
                    )
                yield parts
    except UnicodeDecodeError as exc:
        raise SerializationError(
            f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})"
        ) from exc


def _dedup_edge_arrays(src: np.ndarray, dst: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Drop duplicate ``(src, dst)`` pairs; output order is irrelevant because
    the CSR builder re-sorts every row."""
    keys, stride = sorted_pair_keys(src, dst, unique=True)
    return np.divmod(keys, stride)


def save_san_json(san: SANLike, path: PathLike) -> None:
    """Write ``san`` (mutable or frozen) to a single JSON document."""
    document = {
        "social_nodes": [_node_to_json(node) for node in san.social_nodes()],
        "social_edges": [
            [_node_to_json(source), _node_to_json(target)]
            for source, target in san.social_edges()
        ],
        "attribute_edges": [
            {
                "social": _node_to_json(social),
                "attribute": attribute,
                "type": san.attribute_info(attribute).attr_type,
                "value": san.attribute_info(attribute).value,
            }
            for social, attribute in san.attribute_edges()
        ],
    }
    Path(path).write_text(json.dumps(document, indent=2), encoding="utf-8")


def load_san_json(path: PathLike) -> FrozenSAN:
    """Load a SAN from the JSON document written by :func:`save_san_json`."""
    try:
        document = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise SerializationError(f"invalid SAN JSON in {path}: {exc}") from exc
    san = SAN()
    for node in document.get("social_nodes", []):
        san.add_social_node(node)
    for source, target in document.get("social_edges", []):
        san.add_social_edge(source, target)
    for record in document.get("attribute_edges", []):
        san.add_attribute_edge(
            record["social"],
            record["attribute"],
            attr_type=record.get("type", "generic"),
            value=record.get("value"),
        )
    return san.freeze()


def _parse_node(token: str):
    """Interpret a TSV token as an int when possible, otherwise a string."""
    try:
        return int(token)
    except ValueError:
        return token


def _node_to_json(node):
    """JSON only supports a subset of hashables; stringify anything exotic."""
    if isinstance(node, (int, float, str, bool)) or node is None:
        return node
    return str(node)


def _edge_sort_key(edge):
    return tuple(str(part) for part in edge)
