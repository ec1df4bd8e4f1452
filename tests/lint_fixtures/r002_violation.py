"""R002 fixture: scipy escaping the deps boundary (parsed, never run)."""

import importlib

import scipy  # expect[R002]
from scipy.sparse import csr_matrix  # expect[R002]

from repro.engine import deps


def lazy_function_local_import():
    import scipy.sparse as sp  # expect[R002]
    return sp


def lazy_behind_an_accessor_check():
    # scipy is required, so no probe makes a direct import legitimate.
    if deps.scipy_sparse() is not None:
        from scipy.sparse import csgraph  # expect[R002]

        return csgraph
    return None


def dynamic_import():
    return importlib.import_module("scipy.sparse.csgraph")  # expect[R002]


def uses_the_imports():
    return scipy, csr_matrix
