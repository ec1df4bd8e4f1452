"""Tests for the runtime sanitizer (``repro.sanitize``).

Each injected fault is exercised end to end:

* a tampered artifact cache entry is caught by payload re-hashing;
* an unexpected NaN output raises unless the operation is allowlisted.

Plus unit coverage of the hashing primitive and the report.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import sanitize
from repro.engine import registry
from repro.engine.registry import dispatch
from repro.experiments.artifacts import (
    ArtifactResolver,
    ArtifactStore,
    register_artifact,
    unregister_artifact,
)
from repro.graph import san_from_edge_lists


@pytest.fixture
def armed(monkeypatch):
    """Arm the sanitizer and start from a clean report."""
    monkeypatch.setenv(sanitize.ENV_VAR, "1")
    sanitize.reset_report()
    yield
    sanitize.reset_report()


@pytest.fixture
def small_frozen():
    return san_from_edge_lists([(1, 2), (2, 1), (2, 3)]).freeze()


def _register(op, fn):
    registry.register(op, fn)


def _unregister(op):
    registry._registry.pop(op, None)


# ----------------------------------------------------------------------
# NaN/Inf screening
# ----------------------------------------------------------------------
class TestNonFiniteScreen:
    def test_unexpected_nan_raises(self, armed, small_frozen):
        op = "test.sanitize.nan_out"
        _register(op, lambda graph: {"score": float("nan")})
        try:
            with pytest.raises(sanitize.NonFiniteOutputError) as excinfo:
                dispatch(op, san_from_edge_lists([(1, 2)]))
            message = str(excinfo.value)
            assert op in message
            assert "$['score']" in message
            assert "NONFINITE_ALLOWED" in message
        finally:
            _unregister(op)

    def test_allowlisted_op_passes(self, armed, monkeypatch):
        op = "test.sanitize.loglik"
        monkeypatch.setitem(
            sanitize.__dict__, "NONFINITE_ALLOWED", sanitize.NONFINITE_ALLOWED | {op}
        )
        _register(op, lambda graph: float("-inf"))
        try:
            assert dispatch(op, san_from_edge_lists([(1, 2)])) == float("-inf")
            assert sanitize.report()["nonfinite"]["allowlisted"] == [op]
        finally:
            _unregister(op)

    def test_find_nonfinite_walks_containers(self):
        assert sanitize.find_nonfinite({"a": [1.0, 2.0]}) is None
        found = sanitize.find_nonfinite({"a": [1.0, np.array([0.0, np.inf])]})
        assert found == "$['a'][1]: 1 non-finite element(s)"
        assert sanitize.find_nonfinite(np.array([1, 2], dtype=np.int64)) is None


# ----------------------------------------------------------------------
# Artifact payload integrity
# ----------------------------------------------------------------------
class _Scenario:
    name = "sanitize-test"

    def cache_token(self):
        return {"scenario": self.name}


def _register_blob(tmp_path_name):
    def build(resolver):
        return "payload-" + tmp_path_name

    def save(value, directory):
        (directory / "blob.txt").write_text(value, encoding="utf-8")

    def load(directory):
        return (directory / "blob.txt").read_text(encoding="utf-8")

    register_artifact(tmp_path_name, build, save=save, load=load)


class TestArtifactIntegrity:
    def test_tampered_cache_entry_is_caught(self, armed, tmp_path):
        name = "test_sanitize_blob"
        _register_blob(name)
        try:
            first = ArtifactResolver(_Scenario(), cache_dir=tmp_path)
            value = first.artifact(name)
            assert value == "payload-" + name
            # Tamper with the committed payload behind the store's back.
            store = ArtifactStore(tmp_path)
            key = first.key(name)
            entry = store.entry_path(name, key)
            (entry / "blob.txt").write_text("corrupted", encoding="utf-8")
            second = ArtifactResolver(_Scenario(), cache_dir=tmp_path)
            with pytest.raises(sanitize.ArtifactIntegrityError) as excinfo:
                second.artifact(name)
            message = str(excinfo.value)
            assert name in message and key in message
            assert sanitize.report()["artifacts"]["mismatches"][0]["artifact"] == name
        finally:
            unregister_artifact(name)

    def test_clean_cache_hit_verifies(self, armed, tmp_path):
        name = "test_sanitize_clean_blob"
        _register_blob(name)
        try:
            ArtifactResolver(_Scenario(), cache_dir=tmp_path).artifact(name)
            again = ArtifactResolver(_Scenario(), cache_dir=tmp_path)
            assert again.artifact(name) == "payload-" + name
            assert again.events[-1].status == "cached"
            assert sanitize.report()["artifacts"]["verified"] == 1
        finally:
            unregister_artifact(name)

    def test_legacy_entry_without_digest_is_skipped(self, armed, tmp_path):
        name = "test_sanitize_legacy_blob"
        _register_blob(name)
        try:
            first = ArtifactResolver(_Scenario(), cache_dir=tmp_path)
            first.artifact(name)
            entry = ArtifactStore(tmp_path).entry_path(name, first.key(name))
            marker = json.loads((entry / "ARTIFACT.json").read_text(encoding="utf-8"))
            del marker["payload_sha256"]
            (entry / "ARTIFACT.json").write_text(json.dumps(marker), encoding="utf-8")
            again = ArtifactResolver(_Scenario(), cache_dir=tmp_path)
            assert again.artifact(name) == "payload-" + name
            assert sanitize.report()["artifacts"]["verified"] == 0
        finally:
            unregister_artifact(name)

    def test_hash_payload_sensitive_to_rename_and_content(self, tmp_path):
        (tmp_path / "a.txt").write_text("one", encoding="utf-8")
        (tmp_path / "b.txt").write_text("two", encoding="utf-8")
        baseline = sanitize.hash_payload(tmp_path)
        assert sanitize.hash_payload(tmp_path) == baseline
        (tmp_path / "ARTIFACT.json").write_text("{}", encoding="utf-8")
        assert sanitize.hash_payload(tmp_path) == baseline  # marker excluded
        (tmp_path / "b.txt").rename(tmp_path / "c.txt")
        renamed = sanitize.hash_payload(tmp_path)
        assert renamed != baseline
        (tmp_path / "c.txt").write_text("TWO", encoding="utf-8")
        assert sanitize.hash_payload(tmp_path) != renamed


# ----------------------------------------------------------------------
# The report artifact
# ----------------------------------------------------------------------
class TestReport:
    def test_write_report_round_trips(self, armed, tmp_path, small_frozen):
        op = "test.sanitize.reported"
        _register(op, lambda graph: 42)
        try:
            dispatch(op, small_frozen)
        finally:
            _unregister(op)
        path = sanitize.write_report(tmp_path / "nested" / "sanitizer_report.json")
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert payload["nonfinite"]["checked"] == 1
        assert payload["ops"][op] == 1
