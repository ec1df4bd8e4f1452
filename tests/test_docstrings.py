"""Doctest audit: public-API docstring examples must actually run.

The graph and metrics layers carry runnable examples in their module and
class docstrings (including the ``freeze()`` entry points and the frozen
kernel dispatch).  This test executes them all so a stale example fails CI
instead of misleading a reader.
"""

from __future__ import annotations

import doctest

import pytest

import repro.algorithms.clustering
import repro.algorithms.hyperloglog
import repro.algorithms.triangles
import repro.engine.registry
import repro.graph.bipartite
import repro.graph.digraph
import repro.graph.frozen
import repro.graph.protocol
import repro.graph.san
import repro.graph.serialization
import repro.metrics.attribute_metrics
import repro.metrics.degrees
import repro.metrics.joint_degree
import repro.metrics.reciprocity

AUDITED_MODULES = [
    repro.graph.digraph,
    repro.graph.san,
    repro.graph.bipartite,
    repro.graph.frozen,
    repro.graph.protocol,
    repro.graph.serialization,
    repro.metrics.degrees,
    repro.metrics.reciprocity,
    repro.metrics.joint_degree,
    repro.metrics.attribute_metrics,
    repro.algorithms.clustering,
    repro.algorithms.hyperloglog,
    repro.algorithms.triangles,
    repro.engine.registry,
]


@pytest.mark.parametrize(
    "module", AUDITED_MODULES, ids=lambda module: module.__name__
)
def test_docstring_examples_run(module):
    results = doctest.testmod(module, verbose=False)
    assert results.failed == 0, f"{results.failed} doctest failure(s) in {module.__name__}"


def test_audited_modules_have_examples():
    # The hot-path modules must keep at least one runnable example each.
    documented = 0
    for module in AUDITED_MODULES:
        finder = doctest.DocTestFinder(exclude_empty=True)
        if any(test.examples for test in finder.find(module)):
            documented += 1
    assert documented >= 8
