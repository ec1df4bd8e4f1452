"""Tests for the backend-dispatch engine: registry semantics, backend
resolution, the cached frozen view, and introspection."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro import engine
from repro.engine.registry import (
    FROZEN,
    MUTABLE,
    NoKernelError,
    UnknownOperationError,
    backend_of,
    dispatch,
    frozen_view,
    kernels_for,
    list_ops,
    resolve,
)
from repro.graph import SAN, san_from_edge_lists


@pytest.fixture
def small_san() -> SAN:
    return san_from_edge_lists(
        [(1, 2), (2, 1), (2, 3)], [(1, "employer", "Google")]
    )


class TestBackendResolution:
    def test_backend_of(self, small_san):
        assert backend_of(small_san) == MUTABLE
        assert backend_of(small_san.freeze()) == FROZEN
        assert backend_of(small_san.social) == MUTABLE
        assert backend_of(small_san.freeze().social) == FROZEN
        assert backend_of(object()) == MUTABLE  # unknown objects act portable

    def test_resolve_picks_backend_kernel(self, small_san):
        assert resolve("reciprocal_edge_count", small_san).backend == MUTABLE
        assert resolve("reciprocal_edge_count", small_san.freeze()).backend == FROZEN

    def test_frozen_input_falls_back_to_portable(self, small_san):
        # "sybil.acceptance_probability" has a frozen kernel; pick an op that
        # does not: register a throwaway portable-only op.
        engine.register("test.portable_only", lambda graph: "portable", backend=MUTABLE)
        assert dispatch("test.portable_only", small_san.freeze()) == "portable"


class TestRegistryErrors:
    def test_unknown_operation(self, small_san):
        with pytest.raises(UnknownOperationError):
            dispatch("no.such.op", small_san)
        with pytest.raises(UnknownOperationError):
            resolve("no.such.op", small_san)
        with pytest.raises(UnknownOperationError):
            kernels_for("no.such.op")

    def test_no_kernel_for_backend(self, small_san):
        engine.register("test.frozen_only", lambda graph: "frozen", backend=FROZEN)
        with pytest.raises(NoKernelError):
            dispatch("test.frozen_only", small_san)
        assert dispatch("test.frozen_only", small_san.freeze()) == "frozen"

    def test_duplicate_registration_raises_named_error(self, small_san):
        def first(graph):
            return "first"

        def shadower(graph):
            return "shadower"

        engine.register("test.duplicate", first, backend=FROZEN)
        with pytest.raises(engine.DuplicateKernelError) as excinfo:
            engine.register("test.duplicate", shadower, backend=FROZEN)
        message = str(excinfo.value)
        assert "test.duplicate" in message and "'frozen'" in message
        assert "first" in message and "shadower" in message
        # The registry is unchanged: the original kernel still dispatches.
        assert dispatch("test.duplicate", small_san.freeze()) == "first"
        # Another backend is another slot.
        engine.register("test.duplicate", shadower, backend=MUTABLE)
        assert dispatch("test.duplicate", small_san) == "shadower"

    def test_same_function_reregistration_replaces(self, small_san):
        def body(graph):
            return "one"

        entry = engine.register("test.rereg", body, backend=FROZEN)
        assert entry.fn is body
        # Registering the same function object again is a no-op.
        assert engine.register("test.rereg", body, backend=FROZEN) is entry
        assert [k.fn for k in kernels_for("test.rereg")] == [body]
        assert dispatch("test.rereg", small_san.freeze()) == "one"

    def test_distinct_functions_with_one_name_collide(self, small_san):
        # Two lambdas, or two closures from one factory, share a module and a
        # qualname but are different kernels: neither may replace the other.
        engine.register("test.lambdas", lambda graph: "first", backend=FROZEN)
        with pytest.raises(engine.DuplicateKernelError):
            engine.register("test.lambdas", lambda graph: "second", backend=FROZEN)
        assert dispatch("test.lambdas", small_san.freeze()) == "first"

        def make(tag):
            def body(graph):
                return tag

            return body

        engine.register("test.closures", make("one"), backend=FROZEN)
        with pytest.raises(engine.DuplicateKernelError):
            engine.register("test.closures", make("two"), backend=FROZEN)
        assert dispatch("test.closures", small_san.freeze()) == "one"


class TestFrozenView:
    @pytest.fixture
    def freezes(self, monkeypatch):
        calls = []
        original_freeze = SAN.freeze

        def counting_freeze(self):
            calls.append(1)
            return original_freeze(self)

        monkeypatch.setattr(SAN, "freeze", counting_freeze)
        return calls

    def test_unchanged_graph_is_frozen_once(self, small_san, freezes):
        view = frozen_view(small_san)
        assert backend_of(view) == FROZEN
        for _ in range(4):
            assert frozen_view(small_san) is view
        assert len(freezes) == 1

    def test_mutation_causes_a_new_freeze(self, small_san, freezes):
        before = frozen_view(small_san)
        small_san.add_social_edge(7, 8)
        after = frozen_view(small_san)
        assert after is not before
        assert after.social.has_edge(7, 8) and not before.social.has_node(7)
        assert frozen_view(small_san) is after
        assert len(freezes) == 2

    def test_frozen_input_is_returned_as_is(self, small_san):
        frozen = small_san.freeze()
        assert frozen_view(frozen) is frozen
        assert frozen_view(frozen.social) is frozen.social
        assert frozen_view(object()) is None  # nothing to freeze


class TestIntrospection:
    def test_list_ops_contains_migrated_operations(self):
        import repro.applications  # noqa: F401  (registers the application ops)

        ops = list_ops()
        for expected in (
            "reciprocal_edge_count",
            "social_knn",
            "weakly_connected_components",
            "neighbourhood_function",
            "random_walks",
            "link_prediction.pair_features_batch",
            "sybil.identities_vs_compromised",
        ):
            assert expected in ops

    def test_kernels_for_reports_backends(self):
        backends = {entry.backend for entry in kernels_for("count_directed_triangles")}
        assert backends == {MUTABLE, FROZEN}

    def test_dispatchable_exposes_op_and_wrapped(self):
        from repro.metrics.degrees import social_out_degrees

        assert social_out_degrees.op == "social_out_degrees"
        assert social_out_degrees.__wrapped__ is not social_out_degrees

    def test_every_op_has_a_portable_kernel(self):
        """Every operation has a portable (mutable) body, and the registry
        keys graph backends only."""
        for op in list_ops():
            if op.startswith("test."):
                continue
            backends = {entry.backend for entry in kernels_for(op)}
            assert MUTABLE in backends, f"{op} has no portable kernel"
            assert backends <= {MUTABLE, FROZEN}, f"{op} registers {backends}"


#: Runs every stage of a cold ``tiny`` pipeline and reports which scipy
#: packages it loaded.
_NO_SPECIAL_SCRIPT = """
import json, sys, tempfile
from repro.experiments import run_pipeline
with tempfile.TemporaryDirectory() as directory:
    stages = len(run_pipeline("tiny", cache_dir=directory).stages)
print(json.dumps({
    "stages": stages,
    "scipy": "scipy" in sys.modules,
    "special": "scipy.special" in sys.modules,
}))
"""


#: Imports the package the way the CLI and the pipeline do, reports every
#: loaded scipy module, then runs one frozen kernel that needs scipy.
_LAZY_SCIPY_SCRIPT = """
import json, sys
import repro, repro.experiments, repro.cli
loaded = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
from repro.algorithms.components import weakly_connected_components
from repro.graph import DiGraph
components = weakly_connected_components(DiGraph([(1, 2), (3, 3)]).freeze())
print(json.dumps({
    "loaded_at_import": loaded,
    "components": sorted(sorted(component) for component in components),
    "csgraph_loaded_on_use": "scipy.sparse.csgraph" in sys.modules,
}))
"""


def _run_with_the_package(script: str) -> dict:
    env = dict(os.environ)
    source_root = str(Path(repro.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (source_root, env.get("PYTHONPATH")) if part
    )
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


def test_a_cold_pipeline_never_imports_scipy_special():
    """The degree fits sum the Hurwitz zeta themselves; no stage needs scipy.special."""
    report = _run_with_the_package(_NO_SPECIAL_SCRIPT)
    assert report["stages"] == 20
    assert report["scipy"]
    assert not report["special"]


def test_importing_the_package_loads_no_scipy():
    """The runtime twin of lint rule R002: scipy is required but lazy."""
    report = _run_with_the_package(_LAZY_SCIPY_SCRIPT)
    assert report["loaded_at_import"] == []
    assert report["components"] == [[1, 2], [3]]
    assert report["csgraph_loaded_on_use"]
