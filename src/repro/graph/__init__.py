"""Graph substrate: social DiGraph, bipartite attribute layer, SAN — each in
mutable (dict-of-sets) and frozen (read-only CSR numpy) backends."""

from .bipartite import AttributeInfo, BipartiteAttributeGraph
from .builders import (
    attribute_node_id,
    complete_seed_san,
    san_from_edge_lists,
)
from .columnar import (
    FORMAT_VERSION,
    columnar_info,
    load_columnar_extras,
    open_columnar,
    save_columnar,
)
from .digraph import DiGraph
from .errors import (
    ColumnarEndiannessError,
    ColumnarFormatError,
    ColumnarMagicError,
    ColumnarTruncatedError,
    ColumnarVersionError,
    EdgeNotFoundError,
    FrozenGraphError,
    FrozenIdRangeError,
    GraphError,
    InvalidNodeKindError,
    NodeNotFoundError,
    PackedKeyError,
    SerializationError,
)
from .frozen import FrozenBipartiteAttributeGraph, FrozenDiGraph, FrozenSAN
from .protocol import DiGraphView, SANView
from .san import SAN
from .serialization import load_san_json, load_san_tsv, save_san_json, save_san_tsv

__all__ = [
    "AttributeInfo",
    "BipartiteAttributeGraph",
    "DiGraph",
    "SAN",
    "FrozenBipartiteAttributeGraph",
    "FrozenDiGraph",
    "FrozenSAN",
    "DiGraphView",
    "SANView",
    "FORMAT_VERSION",
    "save_columnar",
    "open_columnar",
    "load_columnar_extras",
    "columnar_info",
    "attribute_node_id",
    "complete_seed_san",
    "san_from_edge_lists",
    "load_san_json",
    "load_san_tsv",
    "save_san_json",
    "save_san_tsv",
    "GraphError",
    "NodeNotFoundError",
    "EdgeNotFoundError",
    "InvalidNodeKindError",
    "SerializationError",
    "PackedKeyError",
    "FrozenGraphError",
    "FrozenIdRangeError",
    "ColumnarFormatError",
    "ColumnarMagicError",
    "ColumnarVersionError",
    "ColumnarTruncatedError",
    "ColumnarEndiannessError",
]
