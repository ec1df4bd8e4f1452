"""Graph substrate: social DiGraph, bipartite attribute layer, SAN — each in
mutable (dict-of-sets) and frozen (read-only CSR numpy) backends."""

from .bipartite import AttributeInfo, BipartiteAttributeGraph
from .builders import (
    attribute_node_id,
    complete_seed_san,
    merge_sans,
    relabel_social_nodes,
    san_from_edge_lists,
    san_from_profiles,
)
from .columnar import (
    FORMAT_VERSION,
    columnar_info,
    is_mmap_backed,
    load_columnar_extras,
    maybe_spill,
    mmap_forced,
    open_columnar,
    save_columnar,
    spill_to_mmap,
)
from .digraph import DiGraph
from .errors import (
    ColumnarEndiannessError,
    ColumnarFormatError,
    ColumnarMagicError,
    ColumnarTruncatedError,
    ColumnarVersionError,
    DuplicateNodeError,
    EdgeNotFoundError,
    FrozenGraphError,
    FrozenIdRangeError,
    GraphError,
    InvalidNodeKindError,
    NodeNotFoundError,
    PackedKeyError,
    SerializationError,
)
from .frozen import (
    FrozenBipartiteAttributeGraph,
    FrozenDiGraph,
    FrozenSAN,
    IdentityLabels,
)
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
    "IdentityLabels",
    "DiGraphView",
    "SANView",
    "FORMAT_VERSION",
    "save_columnar",
    "open_columnar",
    "load_columnar_extras",
    "columnar_info",
    "maybe_spill",
    "spill_to_mmap",
    "mmap_forced",
    "is_mmap_backed",
    "attribute_node_id",
    "complete_seed_san",
    "merge_sans",
    "relabel_social_nodes",
    "san_from_edge_lists",
    "san_from_profiles",
    "load_san_json",
    "load_san_tsv",
    "save_san_json",
    "save_san_tsv",
    "GraphError",
    "NodeNotFoundError",
    "EdgeNotFoundError",
    "DuplicateNodeError",
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
