"""Frozen, CSR-backed read-only graph backends.

The mutable :class:`~repro.graph.digraph.DiGraph` /
:class:`~repro.graph.san.SAN` store adjacency as dictionaries of sets, which
is ideal for incremental construction (simulators, generative models)
but wasteful for whole-graph measurement: every metric pays Python
dict/set overhead per node and per edge.

This module provides the measurement-time counterparts:

* :class:`FrozenDiGraph` — node labels compacted to ``0..n-1`` with out- and
  in-adjacency stored in CSR form (``indptr`` / ``indices`` numpy arrays,
  per-row sorted), plus a lazily built undirected CSR projection;
* :class:`FrozenBipartiteAttributeGraph` — both directions of the
  social-attribute incidence in CSR form, with attribute types encoded as an
  integer code array for vectorized per-type aggregation;
* :class:`FrozenSAN` — the two combined, exposing the same read-only API as
  :class:`~repro.graph.san.SAN` (it satisfies
  :class:`repro.graph.protocol.SANView`).

Every build from edges goes through ``from_edge_arrays``
(``DiGraph.freeze()`` and ``SAN.freeze()`` intern their labels and call
it); there is no way back to a mutable graph.  Mutating methods raise
:class:`~repro.graph.errors.FrozenGraphError`.

The CSR arrays are exposed through documented accessors (``out_csr()``,
``undirected_csr()``, ``edge_arrays()``, ``*_degree_array()`` …) so the
metrics layer can run vectorized numpy kernels instead of per-node Python
loops.  Backend selection lives in :mod:`repro.engine`: metric modules
register frozen kernels against named operations and the engine dispatches
to them whenever the input graph is one of the frozen classes below.

Examples
--------
>>> from repro.graph import SAN
>>> san = SAN()
>>> san.add_social_edge(1, 2)
True
>>> san.add_social_edge(2, 1)
True
>>> frozen = san.freeze()
>>> frozen.has_social_edge(1, 2), frozen.has_social_edge(2, 1)
(True, True)
>>> frozen.number_of_social_edges()
2
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Dict, Hashable, Iterable, Iterator, List, Optional, Set, Tuple

import numpy as np

from .bipartite import AttributeInfo
from .errors import FrozenGraphError, FrozenIdRangeError, NodeNotFoundError, PackedKeyError

Node = Hashable
Edge = Tuple[Node, Node]


# ----------------------------------------------------------------------
# CSR helpers (shared by the frozen backends and the metric kernels)
# ----------------------------------------------------------------------
def pack_pairs(rows: np.ndarray, cols: np.ndarray) -> Tuple[np.ndarray, int]:
    """``(keys, stride)``: each ``(row, col)`` pair packed as ``row * stride + col``.

    ``stride`` is one past the largest column id, so a column can never
    spill into the next row: the int64 keys order exactly as the pairs do
    lexicographically, and ``np.divmod(keys, stride)`` gives them back.
    Raises :class:`~repro.graph.errors.PackedKeyError` for a negative id or
    a key past int64.
    """
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    if cols.size == 0:
        return np.empty(0, dtype=np.int64), 1
    stride = int(cols.max()) + 1
    if int(rows.min()) < 0 or int(cols.min()) < 0:
        raise PackedKeyError("cannot pack negative ids")
    if (int(rows.max()) + 1) * stride > 2**63:
        raise PackedKeyError(
            f"rows up to {int(rows.max())} at stride {stride} overflow int64 keys"
        )
    keys = rows * stride
    keys += cols
    return keys, stride


def sorted_pair_keys(
    rows: np.ndarray, cols: np.ndarray, unique: bool = False
) -> Tuple[np.ndarray, int]:
    """:func:`pack_pairs`, sorted in place; with ``unique``, the first key of each run only."""
    keys, stride = pack_pairs(rows, cols)
    keys.sort()
    if unique and keys.size:
        first = np.empty(keys.size, dtype=bool)
        first[0] = True
        np.not_equal(keys[1:], keys[:-1], out=first[1:])
        keys = keys[first]
    return keys, stride


def pair_order(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """The permutation ``np.lexsort((cols, rows))``: a stable argsort of the packed keys."""
    return np.argsort(pack_pairs(rows, cols)[0], kind="stable")


def csr_from_edge_arrays(
    src: np.ndarray, dst: np.ndarray, num_rows: int, num_cols: Optional[int] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """Pack parallel edge arrays into sorted-row CSR form, fully vectorized.

    ``src``/``dst`` list one directed edge per position (duplicates are the
    caller's responsibility — the generative engines emit deduplicated edge
    streams).  It never loops in Python: the rows come out of one sort of
    the packed ``(src, dst)`` keys.  Rows must lie below
    ``num_rows`` and columns below ``num_cols`` (``num_rows`` when omitted:
    a square adjacency); :func:`check_pair_range` enforces it after the
    sort, before the row counts are sized from the ids.
    """
    src = np.asarray(src, dtype=np.int64)
    keys, stride = sorted_pair_keys(src, dst)
    if num_cols is None:
        num_cols = num_rows
    check_pair_range(keys, stride, num_rows, num_cols, "csr_from_edge_arrays")
    counts = np.bincount(src, minlength=num_rows).astype(np.int64)
    indptr = np.zeros(num_rows + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    keys %= stride
    return indptr, keys


def interned_pairs(
    pairs: Iterable[Tuple[Node, Node]],
    count: int,
    row_index: Mapping[Node, int],
    col_index: Mapping[Node, int],
) -> Tuple[np.ndarray, np.ndarray]:
    """The ``count`` label pairs as id arrays ``(rows, cols)``, for :func:`csr_from_edge_arrays`.

    Each pair ``(a, b)`` becomes ``(row_index[a], col_index[b])``, in
    iteration order; this is how ``DiGraph.freeze()`` and ``SAN.freeze()``
    hand their edges to the ``from_edge_arrays`` builders.
    """
    flat = np.fromiter(
        (i for a, b in pairs for i in (row_index[a], col_index[b])),
        dtype=np.int64,
        count=2 * count,
    )
    return flat[0::2], flat[1::2]


def check_pair_range(
    keys: np.ndarray, stride: int, num_rows: int, num_cols: int, operation: str
) -> None:
    """Raise :class:`~repro.graph.errors.FrozenIdRangeError` unless every sorted pair fits.

    The last of the sorted :func:`pack_pairs` keys holds the largest row,
    and the stride is one past the largest column, so the check is O(1).
    """
    if keys.size == 0:
        return
    row = int(keys[-1]) // stride
    if row >= num_rows:
        raise FrozenIdRangeError(operation, row, num_rows)
    if stride > num_cols:
        raise FrozenIdRangeError(operation, stride - 1, num_cols)


def gather_rows(
    indptr: np.ndarray, indices: np.ndarray, rows: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Concatenate the CSR rows listed in ``rows`` without a Python loop.

    Returns ``(values, counts)`` where ``values`` is the concatenation of the
    selected row segments of ``indices`` and ``counts[i]`` is the length of
    row ``rows[i]`` — so ``np.repeat(rows, counts)`` labels each value with
    its source row.
    """
    counts = indptr[rows + 1] - indptr[rows]
    total = int(counts.sum())
    if total == 0:
        return indices[:0], counts
    nonzero = counts > 0
    starts = indptr[rows][nonzero]
    sizes = counts[nonzero]
    offsets = np.repeat(np.cumsum(sizes) - sizes, sizes)
    flat = np.repeat(starts, sizes) + (np.arange(total, dtype=np.int64) - offsets)
    return indices[flat], counts


def sorted_membership(haystack: np.ndarray, needles: np.ndarray) -> np.ndarray:
    """Boolean mask: which ``needles`` occur in the *sorted* ``haystack``."""
    if haystack.size == 0 or needles.size == 0:
        return np.zeros(needles.size, dtype=bool)
    positions = np.searchsorted(haystack, needles)
    np.minimum(positions, haystack.size - 1, out=positions)
    return haystack[positions] == needles


# ----------------------------------------------------------------------
# Frozen directed graph
# ----------------------------------------------------------------------
class FrozenDiGraph:
    """Read-only directed graph with compact ids and CSR adjacency.

    Node labels keep the insertion order of the source graph: compact id
    ``i`` maps to ``labels()[i]``, and all iteration methods (``nodes()``,
    degree arrays, …) follow that order so results line up positionally with
    the mutable backend's iteration order.

    Examples
    --------
    >>> from repro.graph import DiGraph
    >>> g = DiGraph([(1, 2), (2, 1), (2, 3)])
    >>> f = g.freeze()
    >>> f.number_of_nodes(), f.number_of_edges()
    (3, 3)
    >>> f.has_edge(1, 2), f.has_edge(2, 1), f.has_edge(3, 2)
    (True, True, False)
    >>> sorted(f.successors(2))
    [1, 3]
    """

    __slots__ = (
        "_labels",
        "_index",
        "_out_indptr",
        "_out_indices",
        "_in_indptr",
        "_in_indices",
        "_num_edges",
        "_und_indptr",
        "_und_indices",
        "_edge_src",
    )

    def __init__(
        self,
        labels: List[Node],
        out_indptr: np.ndarray,
        out_indices: np.ndarray,
        in_indptr: np.ndarray,
        in_indices: np.ndarray,
    ) -> None:
        self._labels = list(labels)
        self._index = {label: i for i, label in enumerate(self._labels)}
        self._out_indptr = out_indptr
        self._out_indices = out_indices
        self._in_indptr = in_indptr
        self._in_indices = in_indices
        self._num_edges = int(out_indices.size)
        self._und_indptr: Optional[np.ndarray] = None
        self._und_indices: Optional[np.ndarray] = None
        self._edge_src: Optional[np.ndarray] = None

    @classmethod
    def from_edge_arrays(
        cls, labels: List[Node], src: np.ndarray, dst: np.ndarray
    ) -> "FrozenDiGraph":
        """Build a frozen graph straight from compact-id edge arrays.

        ``src[k] -> dst[k]`` are the directed edges as ids into ``labels``;
        edges must be unique (no dedup is performed).  Both CSR directions are
        assembled with vectorized sorts — no per-node Python loop — which is
        what makes materializing a snapshot from an append-only edge log cheap.
        """
        num_nodes = len(labels)
        out_indptr, out_indices = csr_from_edge_arrays(src, dst, num_nodes)
        in_indptr, in_indices = csr_from_edge_arrays(dst, src, num_nodes)
        return cls(labels, out_indptr, out_indices, in_indptr, in_indices)

    # ------------------------------------------------------------------
    # Compact-id / array accessors (the vectorized-kernel API)
    # ------------------------------------------------------------------
    def labels(self) -> List[Node]:
        """Node labels in compact-id order (do not mutate the returned list)."""
        return self._labels

    def index_of(self, node: Node) -> int:
        """Compact id of ``node`` (raises :class:`NodeNotFoundError`)."""
        try:
            return self._index[node]
        except KeyError:
            raise NodeNotFoundError(node) from None

    def out_csr(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(indptr, indices)`` of the out-adjacency (rows sorted)."""
        return self._out_indptr, self._out_indices

    def in_csr(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(indptr, indices)`` of the in-adjacency (rows sorted)."""
        return self._in_indptr, self._in_indices

    def undirected_csr(self) -> Tuple[np.ndarray, np.ndarray]:
        """CSR of the undirected projection, self-loops removed (lazy, cached)."""
        if self._und_indptr is None:
            n = self.number_of_nodes()
            src, dst = self.edge_arrays()
            proper = src != dst
            forward = src[proper]
            backward = dst[proper]
            keys, stride = sorted_pair_keys(
                np.concatenate([forward, backward]),
                np.concatenate([backward, forward]),
                unique=True,
            )
            check_pair_range(keys, stride, n, n, "undirected_csr")
            und_src, und_dst = np.divmod(keys, stride)
            counts = np.bincount(und_src, minlength=n).astype(np.int64)
            indptr = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(counts, out=indptr[1:])
            self._und_indptr = indptr
            self._und_indices = und_dst
        return self._und_indptr, self._und_indices

    def edge_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """Directed edges as compact-id arrays ``(sources, targets)``.

        Edges are ordered by (source, target) — each CSR row is sorted, so
        the arrays enumerate the edge list in a deterministic order.  Used by
        the undirected-projection build, the assortativity kernels, and the
        self-loop accounting in the reciprocity kernel.
        """
        if self._edge_src is None:
            self._edge_src = np.repeat(
                np.arange(self.number_of_nodes(), dtype=np.int64),
                np.diff(self._out_indptr),
            )
        return self._edge_src, self._out_indices

    def out_degree_array(self) -> np.ndarray:
        """Out-degree of every node, in compact-id order."""
        return np.diff(self._out_indptr)

    def in_degree_array(self) -> np.ndarray:
        """In-degree of every node, in compact-id order."""
        return np.diff(self._in_indptr)

    def undirected_degree_array(self) -> np.ndarray:
        """Distinct-neighbor count of every node, in compact-id order."""
        indptr, _ = self.undirected_csr()
        return np.diff(indptr)

    def out_row(self, index: int) -> np.ndarray:
        """Sorted out-neighbor ids of compact node ``index`` (a view)."""
        return self._out_indices[self._out_indptr[index] : self._out_indptr[index + 1]]

    def in_row(self, index: int) -> np.ndarray:
        return self._in_indices[self._in_indptr[index] : self._in_indptr[index + 1]]

    def undirected_row(self, index: int) -> np.ndarray:
        """Sorted distinct-neighbor ids of compact node ``index`` (a view)."""
        indptr, indices = self.undirected_csr()
        return indices[indptr[index] : indptr[index + 1]]

    # ------------------------------------------------------------------
    # Node operations (read-only surface of DiGraph)
    # ------------------------------------------------------------------
    def has_node(self, node: Node) -> bool:
        return node in self._index

    def __contains__(self, node: Node) -> bool:
        return node in self._index

    def nodes(self) -> Iterator[Node]:
        """Iterate over all nodes (compact-id / insertion order)."""
        return iter(self._labels)

    def number_of_nodes(self) -> int:
        return len(self._labels)

    def __len__(self) -> int:
        return len(self._labels)

    # ------------------------------------------------------------------
    # Edge operations
    # ------------------------------------------------------------------
    def has_edge(self, source: Node, target: Node) -> bool:
        i = self._index.get(source)
        j = self._index.get(target)
        if i is None or j is None:
            return False
        row = self.out_row(i)
        position = int(np.searchsorted(row, j))
        return position < row.size and int(row[position]) == j

    def edges(self) -> Iterator[Edge]:
        """Iterate over all directed edges as ``(source, target)`` tuples."""
        labels = self._labels
        for i in range(len(labels)):
            source = labels[i]
            for j in self.out_row(i):
                yield (source, labels[j])

    def number_of_edges(self) -> int:
        return self._num_edges

    # ------------------------------------------------------------------
    # Neighborhood accessors
    # ------------------------------------------------------------------
    def successors(self, node: Node) -> Set[Node]:
        """Out-neighbors of ``node`` (the paper's :math:`\\Gamma_{s,out}`)."""
        labels = self._labels
        return {labels[j] for j in self.out_row(self.index_of(node))}

    def predecessors(self, node: Node) -> Set[Node]:
        """In-neighbors of ``node`` (the paper's :math:`\\Gamma_{s,in}`)."""
        labels = self._labels
        return {labels[j] for j in self.in_row(self.index_of(node))}

    def neighbors(self, node: Node) -> Set[Node]:
        """Union of in- and out-neighbors, excluding ``node`` itself."""
        labels = self._labels
        return {labels[j] for j in self.undirected_row(self.index_of(node))}

    def out_degree(self, node: Node) -> int:
        i = self.index_of(node)
        return int(self._out_indptr[i + 1] - self._out_indptr[i])

    def in_degree(self, node: Node) -> int:
        i = self.index_of(node)
        return int(self._in_indptr[i + 1] - self._in_indptr[i])

    # ------------------------------------------------------------------
    # Whole-graph views
    # ------------------------------------------------------------------
    def copy(self) -> "FrozenDiGraph":
        """Frozen graphs are immutable, so ``copy`` returns ``self``."""
        return self

    def freeze(self) -> "FrozenDiGraph":
        """Already frozen; returns ``self`` (idempotence mirror of ``DiGraph.freeze``)."""
        return self

    # ------------------------------------------------------------------
    # Refused mutations
    # ------------------------------------------------------------------
    def add_node(self, node: Node) -> None:
        raise FrozenGraphError("add_node", "FrozenDiGraph")

    def add_edge(self, source: Node, target: Node) -> bool:
        raise FrozenGraphError("add_edge", "FrozenDiGraph")

    def remove_edge(self, source: Node, target: Node) -> None:
        raise FrozenGraphError("remove_edge", "FrozenDiGraph")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FrozenDiGraph(nodes={self.number_of_nodes()}, "
            f"edges={self.number_of_edges()})"
        )


# ----------------------------------------------------------------------
# Frozen bipartite attribute layer
# ----------------------------------------------------------------------
class FrozenBipartiteAttributeGraph:
    """Read-only CSR counterpart of :class:`BipartiteAttributeGraph`.

    Social node ids are shared with the owning :class:`FrozenSAN`'s social
    layer so a compact social id means the same node in both layers.
    Attribute nodes get their own compact ids; attribute types are interned
    into ``type_names()`` with one small-int code per attribute node, which
    makes per-type aggregations a ``bincount``.
    """

    __slots__ = (
        "_social_labels",
        "_social_index",
        "_attr_labels",
        "_attr_index",
        "_attr_info",
        "_sa_indptr",
        "_sa_indices",
        "_as_indptr",
        "_as_indices",
        "_num_links",
        "_type_names",
        "_type_codes",
    )

    def __init__(
        self,
        social_labels: List[Node],
        social_index: Dict[Node, int],
        attr_labels: List[Node],
        attr_info: List[AttributeInfo],
        sa_indptr: np.ndarray,
        sa_indices: np.ndarray,
        as_indptr: np.ndarray,
        as_indices: np.ndarray,
    ) -> None:
        self._social_labels = social_labels
        self._social_index = social_index
        self._attr_labels = list(attr_labels)
        self._attr_index = {label: i for i, label in enumerate(self._attr_labels)}
        self._attr_info = list(attr_info)
        self._sa_indptr = sa_indptr
        self._sa_indices = sa_indices
        self._as_indptr = as_indptr
        self._as_indices = as_indices
        self._num_links = int(sa_indices.size)
        self._type_names = sorted({info.attr_type for info in self._attr_info})
        code_of = {name: code for code, name in enumerate(self._type_names)}
        self._type_codes = np.fromiter(
            (code_of[info.attr_type] for info in self._attr_info),
            dtype=np.int64,
            count=len(self._attr_info),
        )

    # ------------------------------------------------------------------
    # Compact-id / array accessors (the vectorized-kernel API)
    # ------------------------------------------------------------------
    def attribute_labels(self) -> List[Node]:
        """Attribute labels in compact-id order (do not mutate)."""
        return self._attr_labels

    def attribute_index_of(self, node: Node) -> int:
        try:
            return self._attr_index[node]
        except KeyError:
            raise NodeNotFoundError(node) from None

    def social_to_attr_csr(self) -> Tuple[np.ndarray, np.ndarray]:
        """CSR rows = social ids, columns = attribute ids (rows sorted)."""
        return self._sa_indptr, self._sa_indices

    def attr_to_social_csr(self) -> Tuple[np.ndarray, np.ndarray]:
        """CSR rows = attribute ids, columns = social ids (rows sorted)."""
        return self._as_indptr, self._as_indices

    def attribute_degree_array(self) -> np.ndarray:
        """Attribute degree of every social node, in social compact-id order."""
        return np.diff(self._sa_indptr)

    def social_degree_array(self) -> np.ndarray:
        """Member count of every attribute node, in attribute compact-id order."""
        return np.diff(self._as_indptr)

    def attribute_row(self, social_id: int) -> np.ndarray:
        """Sorted attribute ids of compact social node ``social_id`` (a view)."""
        return self._sa_indices[self._sa_indptr[social_id] : self._sa_indptr[social_id + 1]]

    def member_row(self, attr_id: int) -> np.ndarray:
        """Sorted social ids of compact attribute node ``attr_id`` (a view)."""
        return self._as_indices[self._as_indptr[attr_id] : self._as_indptr[attr_id + 1]]

    def member_indices_of(self, attribute: Node) -> np.ndarray:
        """Sorted compact social ids of the members of ``attribute``."""
        return self.member_row(self.attribute_index_of(attribute))

    def type_names(self) -> List[str]:
        """Interned attribute-type names; ``type_codes()`` indexes into this."""
        return self._type_names

    def type_codes(self) -> np.ndarray:
        """Type code of every attribute node, in attribute compact-id order."""
        return self._type_codes

    # ------------------------------------------------------------------
    # Node queries (read-only surface of BipartiteAttributeGraph)
    # ------------------------------------------------------------------
    def has_attribute_node(self, node: Node) -> bool:
        return node in self._attr_index

    def social_nodes(self) -> Iterator[Node]:
        return iter(self._social_labels)

    def attribute_nodes(self) -> Iterator[Node]:
        return iter(self._attr_labels)

    def number_of_social_nodes(self) -> int:
        return len(self._social_labels)

    def number_of_attribute_nodes(self) -> int:
        return len(self._attr_labels)

    def attribute_info(self, node: Node) -> AttributeInfo:
        return self._attr_info[self.attribute_index_of(node)]

    def attribute_type(self, node: Node) -> str:
        return self.attribute_info(node).attr_type

    # ------------------------------------------------------------------
    # Link queries
    # ------------------------------------------------------------------
    def has_link(self, social: Node, attribute: Node) -> bool:
        i = self._social_index.get(social)
        j = self._attr_index.get(attribute)
        if i is None or j is None:
            return False
        row = self.attribute_row(i)
        position = int(np.searchsorted(row, j))
        return position < row.size and int(row[position]) == j

    def links(self) -> Iterator[Tuple[Node, Node]]:
        labels = self._attr_labels
        for i, social in enumerate(self._social_labels):
            for j in self.attribute_row(i):
                yield (social, labels[j])

    def number_of_links(self) -> int:
        return self._num_links

    # ------------------------------------------------------------------
    # Neighborhood accessors
    # ------------------------------------------------------------------
    def attributes_of(self, social: Node) -> Set[Node]:
        """The paper's :math:`\\Gamma_a(u)`: attribute neighbors of a social node."""
        i = self._social_index.get(social)
        if i is None:
            return set()
        labels = self._attr_labels
        return {labels[j] for j in self.attribute_row(i)}

    def members_of(self, attribute: Node) -> Set[Node]:
        """Social neighbors of an attribute node (users holding the attribute)."""
        labels = self._social_labels
        return {labels[j] for j in self.member_indices_of(attribute)}

    def attribute_degree(self, social: Node) -> int:
        i = self._social_index.get(social)
        if i is None:
            return 0
        return int(self._sa_indptr[i + 1] - self._sa_indptr[i])

    def common_attributes(self, first: Node, second: Node) -> Set[Node]:
        """Attributes shared by two social nodes (the paper's ``a(u, v)``)."""
        i = self._social_index.get(first)
        j = self._social_index.get(second)
        if i is None or j is None:
            return set()
        labels = self._attr_labels
        shared = np.intersect1d(
            self.attribute_row(i), self.attribute_row(j), assume_unique=True
        )
        return {labels[k] for k in shared}

    # ------------------------------------------------------------------
    # Whole-graph helpers
    # ------------------------------------------------------------------
    def copy(self) -> "FrozenBipartiteAttributeGraph":
        """Frozen layers are immutable, so ``copy`` returns ``self``."""
        return self

    # ------------------------------------------------------------------
    # Refused mutations
    # ------------------------------------------------------------------
    def add_social_node(self, node: Node) -> None:
        raise FrozenGraphError("add_social_node", "FrozenBipartiteAttributeGraph")

    def add_attribute_node(self, node: Node, attr_type: str = "generic", value=None) -> None:
        raise FrozenGraphError("add_attribute_node", "FrozenBipartiteAttributeGraph")

    def add_link(self, social: Node, attribute: Node) -> bool:
        raise FrozenGraphError("add_link", "FrozenBipartiteAttributeGraph")

    def remove_link(self, social: Node, attribute: Node) -> None:
        raise FrozenGraphError("remove_link", "FrozenBipartiteAttributeGraph")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FrozenBipartiteAttributeGraph(social={self.number_of_social_nodes()}, "
            f"attributes={self.number_of_attribute_nodes()}, "
            f"links={self.number_of_links()})"
        )


# ----------------------------------------------------------------------
# Frozen SAN
# ----------------------------------------------------------------------
class FrozenSAN:
    """Read-only, CSR-backed Social-Attribute Network.

    Combines a :class:`FrozenDiGraph` social layer with a
    :class:`FrozenBipartiteAttributeGraph` attribute layer that share one
    compact social-id space.  Exposes the full read API of
    :class:`~repro.graph.san.SAN` (it satisfies
    :class:`repro.graph.protocol.SANView`), so every metric in the library
    accepts it; the hot-path metrics additionally recognise it and switch to
    vectorized numpy kernels.

    Examples
    --------
    >>> from repro.graph import SAN
    >>> san = SAN()
    >>> san.add_social_edge(1, 2)
    True
    >>> san.add_attribute_edge(1, "employer:Google", attr_type="employer")
    True
    >>> frozen = san.freeze()
    >>> frozen.attribute_degree(1), frozen.is_attribute_node("employer:Google")
    (1, True)
    >>> frozen.summary() == san.summary()
    True
    """

    __slots__ = ("social", "attributes", "_derived")

    def __init__(
        self, social: FrozenDiGraph, attributes: FrozenBipartiteAttributeGraph
    ) -> None:
        self.social = social
        self.attributes = attributes
        self._derived: Dict[str, object] = {}

    def derived(self, key: str, factory) -> object:
        """Memoize an expensive whole-graph product on this immutable SAN.

        Because a frozen SAN can never change, any value derived purely from
        its content (clustering arrays, sparse matrices, …) stays valid for
        the SAN's lifetime.  ``factory`` receives the SAN and is invoked at
        most once per ``key``; metric kernels use this so that, e.g., a full
        report does not rebuild the same sparse product per metric.
        """
        try:
            return self._derived[key]
        except KeyError:
            value = factory(self)
            self._derived[key] = value
            return value

    def has_derived(self, key: str) -> bool:
        """Whether ``derived(key, ...)`` has already been computed.

        Lets kernels prefer an already-built product (e.g. an existing sparse
        matrix) without forcing its construction for a small workload.
        """
        return key in self._derived

    @classmethod
    def from_edge_arrays(
        cls,
        social_labels: List[Node],
        social_src: np.ndarray,
        social_dst: np.ndarray,
        attr_labels: List[Node],
        attr_info: List[AttributeInfo],
        link_social: np.ndarray,
        link_attr: np.ndarray,
    ) -> "FrozenSAN":
        """Materialize a FrozenSAN from compact-id edge arrays in one pass.

        ``social_src/social_dst`` are the directed social edges and
        ``link_social/link_attr`` the attribute links, all as ids into
        ``social_labels`` / ``attr_labels``; every edge must be unique.  This
        is the one way from edges to a frozen SAN: ``SAN.freeze()``, the
        streaming TSV loader, the crawler, the evolution's snapshot views,
        attribute subsampling and ``canonical_frozen`` all pass their edges
        here.
        """
        social = FrozenDiGraph.from_edge_arrays(social_labels, social_src, social_dst)
        num_attrs = len(attr_labels)
        sa_indptr, sa_indices = csr_from_edge_arrays(
            link_social, link_attr, len(social_labels), num_attrs
        )
        as_indptr, as_indices = csr_from_edge_arrays(
            link_attr, link_social, num_attrs, len(social_labels)
        )
        attributes = FrozenBipartiteAttributeGraph(
            social.labels(),
            social._index,
            list(attr_labels),
            list(attr_info),
            sa_indptr,
            sa_indices,
            as_indptr,
            as_indices,
        )
        return cls(social, attributes)

    # ------------------------------------------------------------------
    # Node queries
    # ------------------------------------------------------------------
    def is_social_node(self, node: Node) -> bool:
        return self.social.has_node(node)

    def is_attribute_node(self, node: Node) -> bool:
        return self.attributes.has_attribute_node(node)

    def social_nodes(self) -> Iterator[Node]:
        return self.social.nodes()

    def attribute_nodes(self) -> Iterator[Node]:
        return self.attributes.attribute_nodes()

    def number_of_social_nodes(self) -> int:
        return self.social.number_of_nodes()

    def number_of_attribute_nodes(self) -> int:
        return self.attributes.number_of_attribute_nodes()

    # ------------------------------------------------------------------
    # Edge queries
    # ------------------------------------------------------------------
    def has_social_edge(self, source: Node, target: Node) -> bool:
        return self.social.has_edge(source, target)

    def has_attribute_edge(self, social: Node, attribute: Node) -> bool:
        return self.attributes.has_link(social, attribute)

    def social_edges(self) -> Iterator[Edge]:
        return self.social.edges()

    def attribute_edges(self) -> Iterator[Tuple[Node, Node]]:
        return self.attributes.links()

    def number_of_social_edges(self) -> int:
        return self.social.number_of_edges()

    def number_of_attribute_edges(self) -> int:
        return self.attributes.number_of_links()

    # ------------------------------------------------------------------
    # Neighborhoods (paper notation)
    # ------------------------------------------------------------------
    def social_neighbors(self, node: Node) -> Set[Node]:
        """:math:`\\Gamma_s(u)` — social neighbors through either layer."""
        if self.social.has_node(node):
            return self.social.neighbors(node)
        if self.attributes.has_attribute_node(node):
            return self.attributes.members_of(node)
        raise NodeNotFoundError(node)

    def attribute_neighbors(self, node: Node) -> Set[Node]:
        """:math:`\\Gamma_a(u)` — attributes held by a social node."""
        return self.attributes.attributes_of(node)

    def common_attributes(self, first: Node, second: Node) -> Set[Node]:
        """Attributes shared by two social nodes (``a(u, v)`` in the paper)."""
        return self.attributes.common_attributes(first, second)

    def common_social_neighbors(self, first: Node, second: Node) -> Set[Node]:
        """Social neighbors (undirected view) shared by two social nodes."""
        i = self.social.index_of(first)
        j = self.social.index_of(second)
        labels = self.social.labels()
        shared = np.intersect1d(
            self.social.undirected_row(i),
            self.social.undirected_row(j),
            assume_unique=True,
        )
        return {labels[k] for k in shared}

    # ------------------------------------------------------------------
    # Degrees
    # ------------------------------------------------------------------
    def social_out_degree(self, node: Node) -> int:
        return self.social.out_degree(node)

    def social_in_degree(self, node: Node) -> int:
        return self.social.in_degree(node)

    def attribute_degree(self, node: Node) -> int:
        """Number of attributes declared by a social node."""
        return self.attributes.attribute_degree(node)

    def attribute_type(self, attribute: Node) -> str:
        return self.attributes.attribute_type(attribute)

    def attribute_info(self, attribute: Node) -> AttributeInfo:
        return self.attributes.attribute_info(attribute)

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------
    def densities(self) -> Tuple[float, float]:
        """Return ``(social_density, attribute_density)``: |Es|/|Vs| and |Ea|/|Va|."""
        social_nodes = self.number_of_social_nodes()
        attribute_nodes = self.number_of_attribute_nodes()
        social_density = (
            self.number_of_social_edges() / social_nodes if social_nodes else 0.0
        )
        attribute_density = (
            self.number_of_attribute_edges() / attribute_nodes
            if attribute_nodes
            else 0.0
        )
        return social_density, attribute_density

    def summary(self) -> Dict[str, float]:
        """Compact size summary (same keys as ``SAN.summary``)."""
        social_density, attribute_density = self.densities()
        return {
            "social_nodes": self.number_of_social_nodes(),
            "attribute_nodes": self.number_of_attribute_nodes(),
            "social_edges": self.number_of_social_edges(),
            "attribute_edges": self.number_of_attribute_edges(),
            "social_density": social_density,
            "attribute_density": attribute_density,
        }

    def copy(self) -> "FrozenSAN":
        """Frozen SANs are immutable, so ``copy`` returns ``self``."""
        return self

    def freeze(self) -> "FrozenSAN":
        """Already frozen; returns ``self`` (idempotence mirror of ``SAN.freeze``)."""
        return self

    # ------------------------------------------------------------------
    # Refused mutations
    # ------------------------------------------------------------------
    def add_social_node(self, node: Node) -> None:
        raise FrozenGraphError("add_social_node", "FrozenSAN")

    def add_attribute_node(self, node: Node, attr_type: str = "generic", value=None) -> None:
        raise FrozenGraphError("add_attribute_node", "FrozenSAN")

    def add_social_edge(self, source: Node, target: Node) -> bool:
        raise FrozenGraphError("add_social_edge", "FrozenSAN")

    def add_attribute_edge(
        self, social: Node, attribute: Node, attr_type: str = "generic", value=None
    ) -> bool:
        raise FrozenGraphError("add_attribute_edge", "FrozenSAN")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FrozenSAN(social_nodes={self.number_of_social_nodes()}, "
            f"attribute_nodes={self.number_of_attribute_nodes()}, "
            f"social_edges={self.number_of_social_edges()}, "
            f"attribute_edges={self.number_of_attribute_edges()})"
        )
