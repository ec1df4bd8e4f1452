"""The SANs the kernel tests sweep: random seeds plus degenerate cases.

Nothing under ``src/`` imports this module.  ``tests/test_frozen_parity.py``,
``tests/test_engine_kernels.py`` and the oracles in ``tests/test_oracle_*.py``
run their operations over the same inputs, so every kernel meets empty
rows, isolated nodes, reciprocal pairs and skewed attribute communities:

* :func:`random_san` at :data:`SEEDS` (and a smaller variant per seed);
* :func:`looped_san`: a small random SAN with self-loops, which the
  reciprocity, distance and clustering conventions treat specially;
* :func:`corner_case_sans`: empty, edgeless, attribute-free, a lone member;
* :data:`EDGE_CASES`: factories for an empty SAN, a single node, and an
  attribute-only component beside a social one.

It also holds the tooling those tests share: :func:`spill_to_mmap` gives a
kernel its mmap-backed input (the form a warm artifact-store hit takes),
:func:`is_mmap_backed` tells the two apart, and :func:`tsv_reference_san`
is the row-by-row SAN that ``load_san_tsv`` is compared with.

Tests import it by name (pytest puts ``tests/`` on ``sys.path``).
"""

from __future__ import annotations

import os
import random
import tempfile
from pathlib import Path

import numpy as np

from repro.graph import (
    SAN,
    FrozenSAN,
    attribute_node_id,
    open_columnar,
    save_columnar,
    san_from_edge_lists,
)
from repro.graph.serialization import _parse_node, _tsv_rows

ATTRIBUTE_TYPES = ["employer", "school", "major", "city"]

SEEDS = [101, 202, 303]


def random_san(
    seed: int,
    num_social: int = 60,
    num_edges: int = 240,
    num_attribute_values: int = 8,
    num_attribute_links: int = 70,
) -> SAN:
    """A random synthetic SAN with reciprocal links and shared attributes."""
    rng = random.Random(seed)
    san = SAN()
    for node in range(num_social):
        san.add_social_node(node)
    for _ in range(num_edges):
        source = rng.randrange(num_social)
        target = rng.randrange(num_social)
        if source == target:
            continue
        san.add_social_edge(source, target)
        if rng.random() < 0.4:
            san.add_social_edge(target, source)
    for _ in range(num_attribute_links):
        social = rng.randrange(num_social)
        attr_type = rng.choice(ATTRIBUTE_TYPES)
        value = f"v{rng.randrange(num_attribute_values)}"
        san.add_attribute_edge(
            social, f"{attr_type}:{value}", attr_type=attr_type, value=value
        )
    return san


def seeded_sans(seed: int):
    """The two random SANs swept per seed: the default size and a small one."""
    return [
        random_san(seed),
        random_san(seed + 1, num_social=25, num_edges=40, num_attribute_links=15),
    ]


def looped_san() -> SAN:
    """A small random SAN plus a self-loop on every fourth user."""
    san = random_san(404, num_social=20, num_edges=50, num_attribute_links=25)
    for node in range(0, 20, 4):
        san.add_social_edge(node, node)
    return san


def corner_case_sans():
    """Degenerate SANs the kernels must survive: empty, edgeless, tiny."""
    empty = SAN()

    edgeless = SAN()
    for node in range(5):
        edgeless.add_social_node(node)

    no_attributes = SAN()
    no_attributes.add_social_edge(1, 2)
    no_attributes.add_social_edge(2, 1)

    lone_pair = SAN()
    lone_pair.add_attribute_edge(1, "city:SF", attr_type="city", value="SF")
    return [empty, edgeless, no_attributes, lone_pair]


def empty_san() -> SAN:
    return SAN()


def single_node_san() -> SAN:
    san = SAN()
    san.add_social_node(1)
    return san


def isolated_attribute_component_san() -> SAN:
    """Two social nodes joined *only* through a shared attribute, next to a
    separate social component: the attribute layer must not leak into the
    social connectivity kernels."""
    san = san_from_edge_lists([(1, 2), (2, 3)])
    san.add_attribute_edge(10, "city:SF", attr_type="city", value="SF")
    san.add_attribute_edge(11, "city:SF", attr_type="city", value="SF")
    return san


EDGE_CASES = [empty_san, single_node_san, isolated_attribute_component_san]


def all_cases():
    """``(name, SAN)`` for every seeded SAN, corner case and edge case."""
    cases = []
    for seed in SEEDS:
        for index, san in enumerate(seeded_sans(seed)):
            cases.append((f"seed{seed}-{index}", san))
    cases.append(("self-loops", looped_san()))
    for index, san in enumerate(corner_case_sans()):
        cases.append((f"corner-{index}", san))
    for factory in EDGE_CASES:
        cases.append((factory.__name__, factory()))
    return cases


def spill_to_mmap(graph):
    """``graph`` round-tripped through a columnar temp file, as mmap views.

    The file is unlinked as soon as it is open: the mapping keeps its pages
    readable, and no named file outlives the call.
    """
    handle, path = tempfile.mkstemp(prefix="repro-columnar-", suffix=".col")
    os.close(handle)
    try:
        save_columnar(graph, path)
        return open_columnar(path, mmap_mode="r")
    finally:
        os.unlink(path)


def is_mmap_backed(graph) -> bool:
    """Whether the out-adjacency of a frozen graph (or SAN) is an ``np.memmap``."""
    if isinstance(graph, FrozenSAN):
        graph = graph.social
    _, indices = graph.out_csr()
    return isinstance(indices, np.memmap)


def tsv_reference_san(social_path, attribute_path) -> SAN:
    """A mutable SAN filled row by row from a TSV pair, in file order.

    ``load_san_tsv`` must give ``reference.freeze()``: the same network with
    labels interned in the same first-appearance order.  Rows come from the
    loader's own line reader, so a malformed line raises the same error.
    """
    san = SAN()
    for source, target in _tsv_rows(Path(social_path), 2):
        san.add_social_edge(_parse_node(source), _parse_node(target))
    for social, attr_type, value in _tsv_rows(Path(attribute_path), 3):
        san.add_attribute_edge(
            _parse_node(social),
            attribute_node_id(attr_type, value),
            attr_type=attr_type,
            value=value,
        )
    return san
