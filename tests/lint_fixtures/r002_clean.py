"""R002 fixture: scipy reached only through the lazy accessors in deps."""

from repro.engine import deps
from repro.engine.deps import scipy_csgraph


def through_the_module_accessor():
    return deps.scipy_sparse().csr_matrix


def through_the_imported_accessor():
    return scipy_csgraph().connected_components
