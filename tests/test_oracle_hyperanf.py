"""Oracles for HyperANF's ``neighbourhood_function`` (Section 3.3).

Two independent checks of the frozen kernel, plus the precision contract:

* **The reduceat kernel it replaced.**  The degree-bucketed kernel must give
  the same totals, bit for bit, as the one-``np.maximum.reduceat``-per-
  iteration kernel kept below as :func:`reduceat_neighbourhood_function`, on
  hypothesis digraphs and on the 14 crawled ``paper-default`` snapshots.
* **The exact neighbourhood function.**  Every estimate ``N(d)`` is a sum
  of HyperLogLog counters, one per node, each estimating the size of that
  node's ball of radius ``d``.  A sum of terms that are each within a
  relative error ``e`` is itself within ``e``, so
  ``|N̂(d) - N(d)| <= e * N(d)`` with ``e`` the worst counter's error.
  The bound used is ``4 * 1.04 / sqrt(m)``: four times HyperLogLog's
  relative standard error at ``m = 2**precision`` registers.  The graphs
  label their nodes ``0..11``, and over every subset of those twelve
  labels the worst single-counter error, computed exhaustively, is 3.82
  standard errors (at precision 6; 2.85 at 4, 2.68 at 5, under 0.6 at 7-10).
  Four therefore bounds every counter, not just a typical one.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from san_cases import spill_to_mmap

from repro.algorithms import exact_neighbourhood_function, neighbourhood_function
from repro.algorithms.hyperloglog import (
    cardinality_of_register_matrix,
    register_matrix_for_items,
)
from repro.graph import DiGraph

#: The dispatched operations this oracle checks (see
#: ``tests/test_engine.py::TestIntrospection::test_oracles_cover_every_op``).
ORACLE_OPS = (
    "neighbourhood_function",
)

NUM_NODES = 12
PRECISIONS = (4, 5, 6, 7, 8, 9, 10)
#: Multiple of HyperLogLog's relative standard error; see the module docstring.
ERROR_MULTIPLE = 4.0

edge_lists = st.lists(
    st.tuples(st.integers(0, NUM_NODES - 1), st.integers(0, NUM_NODES - 1)),
    max_size=40,
)
node_counts = st.integers(0, NUM_NODES)


def reduceat_neighbourhood_function(graph, precision=7, max_iterations=64, salt=0):
    """The frozen kernel before degree bucketing: one 2-D ``reduceat`` per iteration."""
    registers = register_matrix_for_items(graph.labels(), precision, salt)
    totals = [float(cardinality_of_register_matrix(registers).sum())]
    indptr, indices = graph.out_csr()
    nonempty = np.diff(indptr) > 0
    offsets = indptr[:-1][nonempty]
    for _ in range(max_iterations):
        merged = registers.copy()
        if indices.size:
            neighbor_max = np.maximum.reduceat(registers[indices], offsets, axis=0)
            merged[nonempty] = np.maximum(merged[nonempty], neighbor_max)
        changed_any = bool((merged != registers).any())
        registers = merged
        totals.append(float(cardinality_of_register_matrix(registers).sum()))
        if not changed_any:
            break
        if len(totals) >= 2 and totals[-2] > 0:
            relative_growth = (totals[-1] - totals[-2]) / totals[-2]
            if relative_growth < 1e-4:
                break
    return totals


def _build_graph(num_nodes, edges) -> DiGraph:
    """Nodes ``0..num_nodes-1`` (isolated ones kept) plus every in-range edge."""
    graph = DiGraph()
    for node in range(num_nodes):
        graph.add_node(node)
    for source, target in edges:
        if source < num_nodes and target < num_nodes:
            graph.add_edge(source, target)
    return graph


def _backends(graph):
    frozen = graph.freeze()
    return {"frozen": frozen, "mmap": spill_to_mmap(frozen)}


def _padded(totals, length):
    return list(totals) + [totals[-1]] * (length - len(totals))


# Two 3-cycles joined one way, a self-loop and an isolated node: several
# strongly connected components, reached at different depths.
SEVERAL_SCCS = [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3), (6, 6)]


@given(node_counts, edge_lists)
@settings(max_examples=40, deadline=None)
@example(num_nodes=0, edges=[])
@example(num_nodes=5, edges=[])
@example(num_nodes=8, edges=SEVERAL_SCCS)
@example(num_nodes=NUM_NODES, edges=[(i, i + 1) for i in range(NUM_NODES - 1)])
def test_bucketed_kernel_is_bit_identical_to_reduceat(num_nodes, edges):
    graph = _build_graph(num_nodes, edges)
    for name, frozen in _backends(graph).items():
        for precision in PRECISIONS:
            expected = reduceat_neighbourhood_function(frozen, precision=precision)
            assert neighbourhood_function(frozen, precision=precision) == expected, (
                name,
                precision,
            )


@given(node_counts, edge_lists)
@settings(max_examples=40, deadline=None)
@example(num_nodes=0, edges=[])
@example(num_nodes=5, edges=[])
@example(num_nodes=8, edges=SEVERAL_SCCS)
@example(num_nodes=NUM_NODES, edges=[(i, i + 1) for i in range(NUM_NODES - 1)])
def test_neighbourhood_function_within_hyperloglog_error_of_exact(num_nodes, edges):
    graph = _build_graph(num_nodes, edges)
    exact = exact_neighbourhood_function(graph)
    for name, frozen in _backends(graph).items():
        for precision in PRECISIONS:
            bound = ERROR_MULTIPLE * 1.04 / math.sqrt(1 << precision)
            approx = neighbourhood_function(frozen, precision=precision)
            if not exact:
                assert approx == [0.0, 0.0]
                continue
            length = max(len(approx), len(exact))
            for distance, (estimate, truth) in enumerate(
                zip(_padded(approx, length), _padded(exact, length))
            ):
                assert abs(estimate - truth) <= bound * truth, (
                    name,
                    precision,
                    distance,
                    estimate,
                    truth,
                )


def test_bucketed_kernel_matches_reduceat_on_paper_default_snapshots():
    """fig04's 14 crawled snapshots at its precision, bit for bit."""
    from repro.experiments import get_scenario
    from repro.experiments.artifacts import ArtifactResolver
    from repro.experiments.figures import DIAMETER_PRECISION

    scenario = get_scenario("paper-default")
    snapshots = ArtifactResolver(scenario).artifact("frozen_snapshots")
    assert len(snapshots) == 14
    for day, san in snapshots:
        expected = reduceat_neighbourhood_function(
            san.social, precision=DIAMETER_PRECISION
        )
        actual = neighbourhood_function(
            san.social, precision=DIAMETER_PRECISION
        )
        assert actual == expected, day


@pytest.mark.parametrize("precision", [0, 3, 17, -1])
@pytest.mark.parametrize("backend", ["mutable", "frozen", "mmap"])
def test_unsupported_precision_raises_the_named_error(precision, backend):
    ring = DiGraph([(i, (i + 1) % 5) for i in range(5)])
    graph = {"mutable": ring, **_backends(ring)}[backend]
    with pytest.raises(ValueError, match=r"precision must be in \[4, 16\]"):
        neighbourhood_function(graph, precision=precision)
