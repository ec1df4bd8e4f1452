"""Persistence of SANs to simple text formats.

Two formats are supported:

* **TSV pair**: a social edge file with one ``source<TAB>target`` line per
  directed link plus an attribute file with ``social<TAB>attr_type<TAB>value``
  lines.  This mirrors the format of publicly released Google+ crawls.
* **JSON**: one self-contained document, convenient for small fixtures.

Both the mutable :class:`~repro.graph.san.SAN` and the frozen
:class:`~repro.graph.frozen.FrozenSAN` backend can be saved (the writers only
touch the shared read-only surface), and both loaders accept ``frozen=True``
to return the loaded network already compacted to CSR form — so a frozen SAN
round-trips through disk without an intermediate manual ``freeze()`` call.
"""

from __future__ import annotations

import json
from array import array
from pathlib import Path
from typing import TYPE_CHECKING, Tuple, Union

import numpy as np

from .bipartite import AttributeInfo
from .builders import attribute_node_id
from .errors import InvalidNodeKindError, SerializationError
from .frozen import sorted_pair_keys
from .san import SAN

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .frozen import FrozenSAN

PathLike = Union[str, Path]
SANLike = Union[SAN, "FrozenSAN"]


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


def load_san_tsv(
    social_path: PathLike, attribute_path: PathLike, frozen: bool = False
) -> SANLike:
    """Load a SAN from the TSV pair written by :func:`save_san_tsv`.

    Social node ids are parsed back to integers when possible so a round trip
    through disk preserves the library's integer-id convention.  With
    ``frozen=True`` the result is returned as a read-only CSR-backed
    :class:`~repro.graph.frozen.FrozenSAN`, built by streaming the TSV
    straight into compact-id edge arrays — the mutable dict-of-sets
    intermediate is only constructed when mutability is actually requested.
    """
    if frozen:
        from .columnar import maybe_spill

        return maybe_spill(_stream_frozen_san_tsv(Path(social_path), Path(attribute_path)))
    san = SAN()
    social_path = Path(social_path)
    attribute_path = Path(attribute_path)
    with social_path.open("r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise SerializationError(
                    f"{social_path}:{line_number}: expected 2 fields, got {len(parts)}"
                )
            san.add_social_edge(_parse_node(parts[0]), _parse_node(parts[1]))
    with attribute_path.open("r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise SerializationError(
                    f"{attribute_path}:{line_number}: expected 3 fields, got {len(parts)}"
                )
            social, attr_type, value = parts
            san.add_attribute_edge(
                _parse_node(social),
                attribute_node_id(attr_type, value),
                attr_type=attr_type,
                value=value,
            )
    return san


def _dedup_edge_arrays(src: np.ndarray, dst: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Drop duplicate ``(src, dst)`` pairs; output order is irrelevant because
    the CSR builder re-sorts every row."""
    keys, stride = sorted_pair_keys(src, dst, unique=True)
    return np.divmod(keys, stride)


def _stream_frozen_san_tsv(social_path: Path, attribute_path: Path) -> "FrozenSAN":
    """Stream a TSV pair directly into a :class:`FrozenSAN`.

    Produces the same network as ``load_san_tsv(..., frozen=False).freeze()``
    — identical node interning order (first appearance in file order),
    duplicate-edge collapsing, and first-seen-wins attribute metadata — but
    the adjacency only ever exists as growable int64 edge arrays that are
    packed into CSR form with vectorized sorts, never as Python dicts of
    sets.
    """
    from .frozen import (
        FrozenBipartiteAttributeGraph,
        FrozenDiGraph,
        FrozenSAN,
        csr_from_edge_arrays,
    )

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
    with social_path.open("r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise SerializationError(
                    f"{social_path}:{line_number}: expected 2 fields, got {len(parts)}"
                )
            social_src.append(intern_social(_parse_node(parts[0])))
            social_dst.append(intern_social(_parse_node(parts[1])))

    link_social = array("q")
    link_attr = array("q")
    with attribute_path.open("r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise SerializationError(
                    f"{attribute_path}:{line_number}: expected 3 fields, got {len(parts)}"
                )
            social, attr_type, value = parts
            link_social.append(intern_social(_parse_node(social)))
            link_attr.append(
                intern_attr(attribute_node_id(attr_type, value), attr_type, value)
            )

    num_social = len(social_labels)
    num_attrs = len(attr_labels)
    src, dst = _dedup_edge_arrays(
        np.frombuffer(social_src, dtype=np.int64),
        np.frombuffer(social_dst, dtype=np.int64),
    )
    ls, la = _dedup_edge_arrays(
        np.frombuffer(link_social, dtype=np.int64),
        np.frombuffer(link_attr, dtype=np.int64),
    )

    out_indptr, out_indices = csr_from_edge_arrays(src, dst, num_social)
    in_indptr, in_indices = csr_from_edge_arrays(dst, src, num_social)
    social = FrozenDiGraph(
        social_labels, out_indptr, out_indices, in_indptr, in_indices,
        index=social_index,
    )
    sa_indptr, sa_indices = csr_from_edge_arrays(ls, la, num_social, num_attrs)
    as_indptr, as_indices = csr_from_edge_arrays(la, ls, num_attrs, num_social)
    attributes = FrozenBipartiteAttributeGraph(
        social.labels(),
        social_index,
        attr_labels,
        attr_info,
        sa_indptr,
        sa_indices,
        as_indptr,
        as_indices,
        attr_index=attr_index,
    )
    return FrozenSAN(social, attributes)


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


def load_san_json(path: PathLike, frozen: bool = False) -> SANLike:
    """Load a SAN from the JSON document written by :func:`save_san_json`.

    With ``frozen=True`` the result is returned as a read-only CSR-backed
    :class:`~repro.graph.frozen.FrozenSAN`.
    """
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
    if frozen:
        from .columnar import maybe_spill

        return maybe_spill(san.freeze())
    return san


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
