"""Tests for the backend-dispatch engine: registry semantics, backend
resolution, scipy gating, freeze-on-demand, and introspection."""

from __future__ import annotations

import pytest

from repro import engine
from repro.engine import deps
from repro.engine.registry import (
    FROZEN,
    MUTABLE,
    Kernel,
    NoKernelError,
    UnknownOperationError,
    backend_of,
    dispatch,
    graph_size,
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

    def test_graph_size(self, small_san):
        assert graph_size(small_san) == 4  # 3 social + 1 attribute link
        assert graph_size(small_san.social) == 3
        assert graph_size(object()) == 0

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

    def test_unknown_requirement_rejected(self):
        with pytest.raises(ValueError):
            engine.register("test.bad_req", lambda graph: None, requires="cuda")

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

        engine.register("test.duplicate", first, backend=FROZEN, priority=5)
        with pytest.raises(engine.DuplicateKernelError) as excinfo:
            engine.register("test.duplicate", shadower, backend=FROZEN, priority=5)
        message = str(excinfo.value)
        assert "test.duplicate" in message and "priority 5" in message
        assert "first" in message and "shadower" in message
        # The registry is unchanged: the original kernel still dispatches.
        assert dispatch("test.duplicate", small_san.freeze()) == "first"
        # Distinct priority and distinct backend are both fine.
        engine.register("test.duplicate", shadower, backend=FROZEN, priority=6)
        engine.register("test.duplicate", shadower, backend=MUTABLE, priority=5)
        assert dispatch("test.duplicate", small_san.freeze()) == "shadower"

    def test_same_function_reregistration_replaces(self, small_san):
        def body(graph):
            return "one"

        entry = engine.register("test.rereg", body, backend=FROZEN, priority=3)
        assert entry.fn is body
        # Same module + qualname (a reloaded module re-decorating the same
        # definition) replaces the entry instead of raising.
        replacement = engine.register("test.rereg", body, backend=FROZEN, priority=3)
        assert replacement.fn is body
        assert len([k for k in kernels_for("test.rereg") if k.backend == FROZEN]) == 1
        assert dispatch("test.rereg", small_san.freeze()) == "one"


class TestPriorityAndRequirements:
    def test_higher_priority_wins(self, small_san):
        engine.register("test.prio", lambda graph: "low", backend=FROZEN, priority=0)
        engine.register("test.prio", lambda graph: "high", backend=FROZEN, priority=10)
        assert dispatch("test.prio", small_san.freeze()) == "high"

    def test_scipy_gate_respected(self, small_san, monkeypatch):
        engine.register(
            "test.gated", lambda graph: "sparse", backend=FROZEN,
            requires="scipy", priority=10,
        )
        engine.register("test.gated", lambda graph: "numpy", backend=FROZEN, priority=0)
        frozen = small_san.freeze()
        if deps.have_scipy():
            assert dispatch("test.gated", frozen) == "sparse"
        monkeypatch.setenv(deps.DISABLE_ENV_VAR, "1")
        assert not deps.have_scipy()
        assert dispatch("test.gated", frozen) == "numpy"

    def test_kernel_availability_probe(self):
        entry = Kernel(op="x", backend=FROZEN, fn=lambda graph: None, requires=("scipy",))
        assert entry.available() == deps.have_scipy()


class TestAutoFreeze:
    def test_auto_freeze_above_threshold(self, small_san, monkeypatch):
        # The fake kernels return different sentinels on purpose (to observe
        # which tier ran); keep the parity sanitizer from flagging them.
        monkeypatch.delenv(deps.SANITIZE_ENV_VAR, raising=False)
        seen = []
        engine.register(
            "test.autofreeze",
            lambda graph: seen.append(backend_of(graph)) or "portable",
            backend=MUTABLE,
        )
        engine.register(
            "test.autofreeze",
            lambda graph: seen.append(backend_of(graph)) or "frozen",
            backend=FROZEN,
        )
        try:
            engine.configure(auto_freeze_threshold=1)
            assert dispatch("test.autofreeze", small_san) == "frozen"
            engine.configure(auto_freeze_threshold=10_000)
            assert dispatch("test.autofreeze", small_san) == "portable"
        finally:
            engine.configure()  # restore: no auto-freezing
        assert dispatch("test.autofreeze", small_san) == "portable"
        assert seen == [FROZEN, MUTABLE, MUTABLE]

    def test_auto_freeze_caches_frozen_view_per_graph_state(self, small_san, monkeypatch):
        freezes = []
        original_freeze = SAN.freeze

        def counting_freeze(self):
            freezes.append(1)
            return original_freeze(self)

        monkeypatch.setattr(SAN, "freeze", counting_freeze)
        engine.register("test.cached_freeze", lambda graph: backend_of(graph), backend=MUTABLE)
        engine.register("test.cached_freeze", lambda graph: backend_of(graph), backend=FROZEN)
        try:
            engine.configure(auto_freeze_threshold=1)
            for _ in range(5):
                assert dispatch("test.cached_freeze", small_san) == FROZEN
            assert len(freezes) == 1  # one freeze, not one per dispatch
            small_san.add_social_edge(7, 8)  # mutation invalidates the view
            assert dispatch("test.cached_freeze", small_san) == FROZEN
            assert len(freezes) == 2
        finally:
            engine.configure()

    def test_auto_freeze_portable_fallback_loops_freeze_once(self, monkeypatch):
        """The reviewer scenario: without scipy, the clustering average falls
        back to per-node dispatches; those must reuse one cached frozen view
        instead of re-freezing the graph per node."""
        from repro.algorithms.clustering import average_social_clustering_coefficient

        monkeypatch.setenv(deps.DISABLE_ENV_VAR, "1")
        san = san_from_edge_lists([(1, 2), (2, 1), (1, 3), (3, 2), (2, 4)])
        expected = average_social_clustering_coefficient(san)
        freezes = []
        original_freeze = SAN.freeze

        def counting_freeze(self):
            freezes.append(1)
            return original_freeze(self)

        monkeypatch.setattr(SAN, "freeze", counting_freeze)
        try:
            engine.configure(auto_freeze_threshold=1)
            assert average_social_clustering_coefficient(san) == pytest.approx(expected)
            assert len(freezes) == 1
        finally:
            engine.configure()

    def test_auto_freeze_ignores_ops_without_frozen_kernel(self, small_san):
        engine.register("test.autofreeze_portable", lambda graph: backend_of(graph), backend=MUTABLE)
        try:
            engine.configure(auto_freeze_threshold=0)
            assert dispatch("test.autofreeze_portable", small_san) == MUTABLE
        finally:
            engine.configure()


class TestIntrospection:
    def test_list_ops_contains_migrated_operations(self):
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
        """Every operation must have a portable fallback implementation.

        For graph-dispatch operations that is the mutable-backend kernel; for
        the generative-model operation (which has no input graph) the
        reference per-node loop engine plays that role.
        """
        from repro.models.fast_sim import LOOP_ENGINE

        for op in list_ops():
            if op.startswith("test."):
                continue
            backends = {entry.backend for entry in kernels_for(op)}
            assert MUTABLE in backends or LOOP_ENGINE in backends, (
                f"{op} has no portable kernel"
            )
