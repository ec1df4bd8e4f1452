"""R003 fixture: the corrected form — registry dispatch, no backend checks.

(Parsed by the linter only; importing it would register throwaway kernels.)
"""

from repro.engine import dispatchable


@dispatchable("fixture.degree_sum")
def degree_sum(graph):
    return int(graph.out_degree_array().sum())
