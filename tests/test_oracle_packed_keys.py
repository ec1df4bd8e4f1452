"""Differential oracle for the packed-key sorts of the graph layer.

``pack_pairs`` packs each ``(row, col)`` int pair into one int64
``row * stride + col``; ``pair_order``, ``sorted_pair_keys`` and the two CSR
builders on top of them (``csr_from_edge_arrays`` and
``FrozenDiGraph.undirected_csr``) must give what the int-pair sorts they
replace give, on hypothesis pair arrays with duplicates, self-loops, ids at
``stride - 1``, rows with no pairs, one row only, and no pairs at all:

* ``pair_order`` is the permutation ``np.lexsort((cols, rows))``, ties in
  input order included;
* ``sorted_pair_keys`` gives the pairs in lexsort order, and with
  ``unique=True`` the rows of ``np.unique(pairs, axis=0)``;
* the CSR rows are the sorted successor lists of the ``nx.DiGraph`` over the
  pairs, and the undirected rows the sorted neighbour lists (self-loops
  dropped) of its undirected ``nx.Graph``.

A pair that cannot be packed — a negative id, or a key past int64 — raises
:class:`~repro.graph.errors.PackedKeyError`.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

nx = pytest.importorskip("networkx")

from repro.graph import FrozenDiGraph, GraphError, PackedKeyError  # noqa: E402
from repro.graph.frozen import (  # noqa: E402
    csr_from_edge_arrays,
    pack_pairs,
    pair_order,
    sorted_pair_keys,
)

#: The dispatched operations this oracle checks (none: it checks
#: the data pipeline, not a kernel).
ORACLE_OPS = ()


@st.composite
def pair_arrays(draw):
    """``(rows, cols, num_rows)``: int pairs over ``num_rows`` rows, duplicates allowed.

    A small id range makes duplicates, self-loops and ids at the top of the
    range (``stride - 1``) common; rows above every drawn row stay empty.
    """
    num_rows = draw(st.integers(1, 12))
    num_cols = draw(st.integers(1, 12))
    count = draw(st.integers(0, 60))
    rows = draw(st.lists(st.integers(0, num_rows - 1), min_size=count, max_size=count))
    cols = draw(st.lists(st.integers(0, num_cols - 1), min_size=count, max_size=count))
    return np.array(rows, dtype=np.int64), np.array(cols, dtype=np.int64), num_rows


#: Hand-picked corners: no pairs, one row, a duplicated self-loop, and the
#: largest column in two rows (a stride one too small files it under the
#: next row).
CORNERS = [
    (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), 3),
    (np.array([0, 0, 0]), np.array([2, 0, 2]), 1),
    (np.array([1, 1, 0]), np.array([1, 1, 1]), 4),
    (np.array([1, 0, 1, 0]), np.array([4, 4, 0, 0]), 2),
]


def _with_corners(test):
    for corner in CORNERS:
        test = example(corner)(test)
    return test


@given(pair_arrays())
@_with_corners
@settings(max_examples=200, deadline=None)
def test_pair_order_is_the_lexsort_permutation(pairs):
    rows, cols, _ = pairs
    np.testing.assert_array_equal(pair_order(rows, cols), np.lexsort((cols, rows)))


@given(pair_arrays())
@_with_corners
@settings(max_examples=200, deadline=None)
def test_sorted_pair_keys_match_lexsort_and_unique(pairs):
    rows, cols, _ = pairs
    order = np.lexsort((cols, rows))
    keys, stride = sorted_pair_keys(rows, cols)
    got_rows, got_cols = np.divmod(keys, stride)
    np.testing.assert_array_equal(got_rows, rows[order])
    np.testing.assert_array_equal(got_cols, cols[order])

    keys, stride = sorted_pair_keys(rows, cols, unique=True)
    expected = np.unique(np.column_stack([rows, cols]), axis=0)
    np.testing.assert_array_equal(np.column_stack(np.divmod(keys, stride)), expected)


@given(pair_arrays())
@_with_corners
@settings(max_examples=200, deadline=None)
def test_csr_builders_match_networkx_adjacency(pairs):
    rows, cols, num_rows = pairs
    n = max(num_rows, int(cols.max()) + 1 if cols.size else 0)
    # csr_from_edge_arrays keeps duplicates; every row is a sorted multiset.
    indptr, indices = csr_from_edge_arrays(rows, cols, n)
    for row in range(n):
        expected = sorted(cols[rows == row].tolist())
        assert indices[indptr[row] : indptr[row + 1]].tolist() == expected

    # A frozen graph takes unique edges; self-loops stay in the directed
    # CSRs and leave the undirected projection.
    digraph = nx.DiGraph()
    digraph.add_nodes_from(range(n))
    digraph.add_edges_from(zip(rows.tolist(), cols.tolist()))
    edges = np.array(list(digraph.edges()), dtype=np.int64).reshape(-1, 2)
    frozen = FrozenDiGraph.from_edge_arrays(list(range(n)), edges[:, 0], edges[:, 1])
    out_indptr, out_indices = frozen.out_csr()
    in_indptr, in_indices = frozen.in_csr()
    und_indptr, und_indices = frozen.undirected_csr()
    undirected = digraph.to_undirected()
    for node in range(n):
        assert out_indices[out_indptr[node] : out_indptr[node + 1]].tolist() == sorted(
            digraph.successors(node)
        )
        assert in_indices[in_indptr[node] : in_indptr[node + 1]].tolist() == sorted(
            digraph.predecessors(node)
        )
        assert und_indices[und_indptr[node] : und_indptr[node + 1]].tolist() == sorted(
            set(undirected.neighbors(node)) - {node}
        )


def test_pairs_that_do_not_fit_raise_a_named_error():
    with pytest.raises(PackedKeyError):
        pack_pairs(np.array([0, 1]), np.array([3, -1]))
    with pytest.raises(PackedKeyError):
        pack_pairs(np.array([-1]), np.array([0]))
    # (row + 1) * stride must not pass 2**63.
    stride = 2**32
    top = 2**31
    keys, packed_stride = pack_pairs(np.array([top - 1]), np.array([stride - 1]))
    assert packed_stride == stride and keys.tolist() == [top * stride - 1]
    with pytest.raises(PackedKeyError):
        pack_pairs(np.array([top]), np.array([stride - 1]))
    assert issubclass(PackedKeyError, GraphError) and issubclass(PackedKeyError, ValueError)
