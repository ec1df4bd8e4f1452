"""The runtime sanitizer: re-execute and re-hash under ``REPRO_SANITIZE=1``.

The static linter (:mod:`repro.lint`) proves properties of the *source*;
this module checks the same invariants on *live runs*, the way a race
detector or an address sanitizer gates a build.  Armed via the
``REPRO_SANITIZE`` environment variable (see ``repro pipeline --sanitize``),
it hooks three places:

* **backend parity** — every :func:`repro.engine.registry.dispatch` that
  selects a frozen kernel also runs the portable body on the same inputs
  and compares the results.  They must match exactly for integer results
  and to tight tolerance for float aggregates (summation order differs).
  A mismatch raises :class:`BackendParityError` naming the operation, both
  backends, and the input shape.
* **NaN/Inf screening** — kernel outputs are screened for non-finite
  floats; operations that legitimately produce them (log-likelihoods of
  impossible events, ratios over empty sets) are allowlisted explicitly in
  :data:`NONFINITE_ALLOWED`.
* **artifact integrity** — the artifact store records a payload hash at
  write time and, under the sanitizer, re-hashes every cache hit before
  serving it (:func:`verify_artifact_payload`); tampered or bit-rotted
  cache entries raise :class:`ArtifactIntegrityError` instead of feeding a
  silent wrong answer downstream.

Every check is tallied in a process-local report (:func:`report`,
:func:`write_report`) that the pipeline dumps next to its manifest.
Overhead is roughly the cost of running each dispatched operation twice;
use it in CI and when debugging, not in production timing runs.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import math
import random as _random
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

import numpy as np

from .engine import deps, registry

#: Environment variable that arms the sanitizer (re-exported from deps).
ENV_VAR = deps.SANITIZE_ENV_VAR

#: Relative/absolute tolerance for frozen-vs-portable float comparisons.
#: The tiers are algorithmically identical but sum in different orders;
#: anything past 1e-9 relative is a real divergence, not roundoff.
FLOAT_RTOL = 1e-9
FLOAT_ATOL = 1e-12

#: Operations allowed to return non-finite floats.  Empty as of this writing:
#: the full tier-1 suite runs NaN/Inf-clean under ``REPRO_SANITIZE=1``.
#: Additions must name the legitimate source (e.g. a log-likelihood of an
#: impossible event is -inf).
NONFINITE_ALLOWED: set = set()

#: Parameter names that mark an operation as stochastic.  Frozen and
#: portable bodies draw in different orders, so parity is skipped for them.
_STOCHASTIC_PARAMS = {"rng", "seed", "base_seed", "random_state"}

#: op -> normalizer applied to *both* results before comparison, for
#: operations whose contract is weaker than "identical sequence".  Mirrors
#: how the repo's own parity tests compare them; additions must name the
#: reason the raw outputs legitimately differ.
PARITY_NORMALIZERS: Dict[str, Any] = {
    # Contract is a multiset (downstream use is percentiles); the mutable
    # backend yields members in insertion order, the frozen CSR in index
    # order.  tests/test_frozen_parity.py compares sorted() for the same
    # reason.
    "out_degrees_for_attribute_value": sorted,
    # Top-k ranking with float scores: ties land in backend-dependent order
    # because Adamic-Adar sums accumulate in different orders.  Compare as a
    # pair->score mapping (key set + per-key float closeness), exactly like
    # tests/test_engine_kernels.py does.
    "link_prediction.rank_candidate_pairs": lambda pairs: {
        (s, t): float(score) for s, t, score in pairs
    },
}


class SanitizerError(RuntimeError):
    """Base class of every runtime-sanitizer failure."""


class BackendParityError(SanitizerError):
    """Two backends of one operation disagreed on identical inputs."""


class NonFiniteOutputError(SanitizerError):
    """A kernel produced NaN/Inf and the operation is not allowlisted."""


class ArtifactIntegrityError(SanitizerError):
    """A cached artifact's payload no longer matches its recorded hash."""


def enabled() -> bool:
    """Whether ``REPRO_SANITIZE`` arms the sanitizer (read per call)."""
    return deps.sanitize_enabled()


# ----------------------------------------------------------------------
# The report
# ----------------------------------------------------------------------

def _fresh_report() -> Dict[str, Any]:
    return {
        "parity": {"checked": 0, "skipped": {}, "divergences": []},
        "nonfinite": {"checked": 0, "allowlisted": []},
        "artifacts": {"verified": 0, "mismatches": []},
        "ops": {},
    }


_report: Dict[str, Any] = _fresh_report()


def reset_report() -> None:
    """Zero every tally (test helper / pipeline start)."""
    global _report
    _report = _fresh_report()


def report() -> Dict[str, Any]:
    """The live tallies (mutating the returned dict mutates the report)."""
    return _report


def write_report(path: Path) -> Path:
    """Dump the tallies as JSON (the ``--sanitize`` pipeline artifact)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(_report, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return path


def _tally_op(op: str, backend: str, outcome: str) -> None:
    entry = _report["ops"].setdefault(op, {})
    key = f"{backend}:{outcome}"
    entry[key] = entry.get(key, 0) + 1


def _skip(op: str, backend: str, reason: str) -> None:
    skipped = _report["parity"]["skipped"]
    skipped[reason] = skipped.get(reason, 0) + 1
    _tally_op(op, backend, f"skipped[{reason}]")


# ----------------------------------------------------------------------
# Result comparison
# ----------------------------------------------------------------------

def _is_float_like(value: Any) -> bool:
    if isinstance(value, float):
        return True
    if isinstance(value, np.ndarray):
        return value.dtype.kind in "fc"
    return isinstance(value, (np.floating, np.complexfloating))


def compare_results(primary: Any, reference: Any, path: str = "$") -> Optional[str]:
    """First divergence between two kernel results, or ``None`` when equal.

    Float values may differ by :data:`FLOAT_RTOL`/:data:`FLOAT_ATOL`;
    everything else must be equal.  Containers are walked recursively; NaNs in matching positions compare equal (parity is
    about *agreement*, the NaN screen is a separate check).  Returns a
    human-readable description anchored at ``path``.
    """
    if isinstance(primary, np.ndarray) or isinstance(reference, np.ndarray):
        primary_arr = np.asarray(primary)
        reference_arr = np.asarray(reference)
        if primary_arr.shape != reference_arr.shape:
            return (
                f"{path}: shape mismatch {primary_arr.shape} != "
                f"{reference_arr.shape}"
            )
        if primary_arr.dtype.kind in "fc":
            if np.allclose(
                primary_arr, reference_arr,
                rtol=FLOAT_RTOL, atol=FLOAT_ATOL, equal_nan=True,
            ):
                return None
            diff = np.nanmax(
                np.abs(primary_arr.astype(np.float64) - reference_arr.astype(np.float64))
            ) if primary_arr.size else 0.0
            return f"{path}: float arrays differ (max abs diff {diff:.3e})"
        if np.array_equal(primary_arr, reference_arr):
            return None
        mismatches = int(np.sum(primary_arr != reference_arr)) if primary_arr.size else 0
        return f"{path}: arrays differ in {mismatches} position(s)"
    if isinstance(primary, dict) and isinstance(reference, dict):
        if set(primary) != set(reference):
            extra = sorted(set(primary) ^ set(reference))
            return f"{path}: dict keys differ ({extra[:4]})"
        for key in sorted(primary, key=repr):
            found = compare_results(primary[key], reference[key], f"{path}[{key!r}]")
            if found:
                return found
        return None
    if isinstance(primary, (list, tuple)) and isinstance(reference, (list, tuple)):
        if len(primary) != len(reference):
            return f"{path}: length {len(primary)} != {len(reference)}"
        for index, (left, right) in enumerate(zip(primary, reference)):
            found = compare_results(left, right, f"{path}[{index}]")
            if found:
                return found
        return None
    if _is_float_like(primary) and _is_float_like(reference):
        left, right = float(primary), float(reference)
        if math.isnan(left) and math.isnan(right):
            return None
        if math.isclose(left, right, rel_tol=FLOAT_RTOL, abs_tol=FLOAT_ATOL):
            return None
        return f"{path}: {left!r} != {right!r}"
    if isinstance(primary, (int, bool, str, bytes, type(None), np.integer, np.bool_)) or isinstance(
        reference, (int, bool, str, bytes, type(None), np.integer, np.bool_)
    ):
        if primary == reference:
            return None
        return f"{path}: {primary!r} != {reference!r}"
    try:
        if primary == reference:
            return None
        return f"{path}: values differ ({type(primary).__name__})"
    except Exception:
        return None  # incomparable custom objects: out of parity scope


def find_nonfinite(value: Any, path: str = "$") -> Optional[str]:
    """Location of the first non-finite float inside ``value``, or ``None``."""
    if isinstance(value, np.ndarray):
        if value.dtype.kind in "fc" and value.size and not np.isfinite(value).all():
            bad = int(np.sum(~np.isfinite(value)))
            return f"{path}: {bad} non-finite element(s)"
        return None
    if isinstance(value, (float, np.floating)):
        return None if math.isfinite(float(value)) else f"{path}: {value!r}"
    if isinstance(value, dict):
        for key in value:
            found = find_nonfinite(value[key], f"{path}[{key!r}]")
            if found:
                return found
        return None
    if isinstance(value, (list, tuple)):
        for index, item in enumerate(value):
            found = find_nonfinite(item, f"{path}[{index}]")
            if found:
                return found
        return None
    return None


# ----------------------------------------------------------------------
# Dispatch-time parity checking
# ----------------------------------------------------------------------

def _graph_shape(graph: Any) -> str:
    """Compact input-shape description for error messages and the report."""
    parts = [type(graph).__name__]
    for probe in ("number_of_nodes", "number_of_edges"):
        fn = getattr(graph, probe, None)
        if callable(fn):
            try:
                parts.append(f"{probe.rsplit('_', 1)[-1]}={fn()}")
            except Exception:
                pass
    return " ".join(parts)


def _stochastic(fn: Any) -> bool:
    try:
        signature = inspect.signature(fn)
    except (TypeError, ValueError):
        return False
    return any(name in _STOCHASTIC_PARAMS for name in signature.parameters)


def _has_live_rng(args: Tuple[Any, ...], kwargs: Dict[str, Any]) -> bool:
    values = list(args) + list(kwargs.values())
    return any(
        isinstance(value, (np.random.Generator, np.random.RandomState, _random.Random))
        for value in values
    )


#: Reentrancy guard: portable fallbacks re-enter dispatch per element, and
#: the reference run must not recursively sanitize — only the outermost
#: dispatch of a call tree is checked.
_active = False


def checked_dispatch(entry: Any, graph: Any, args: Tuple[Any, ...], kwargs: Dict[str, Any]) -> Any:
    """Run ``entry``; for a frozen kernel, also assert portable-body parity.

    The registry calls this instead of ``entry.fn(...)`` whenever the
    sanitizer is enabled.  Raises :class:`BackendParityError` on divergence
    and :class:`NonFiniteOutputError` on unexpected NaN/Inf; otherwise the
    primary result is returned unchanged.
    """
    global _active
    if _active:
        return entry.fn(graph, *args, **kwargs)
    _active = True
    try:
        result = entry.fn(graph, *args, **kwargs)
        _screen_nonfinite(entry, result)
        if entry.backend != registry.FROZEN:
            return result
        reference = registry._registry[entry.op].get(registry.MUTABLE)
        if reference is None:
            _skip(entry.op, entry.backend, "no-reference-kernel")
            return result
        if _has_live_rng(args, kwargs):
            _skip(entry.op, entry.backend, "live-rng-argument")
            return result
        if _stochastic(entry.fn):
            _skip(entry.op, entry.backend, "stochastic-draw-order")
            return result
        expected = reference.fn(graph, *args, **kwargs)
        normalize = PARITY_NORMALIZERS.get(entry.op)
        if normalize is not None:
            divergence = compare_results(normalize(result), normalize(expected))
        else:
            divergence = compare_results(result, expected)
        _report["parity"]["checked"] += 1
        if divergence is None:
            _tally_op(entry.op, entry.backend, f"parity-vs-{reference.backend}")
            return result
        record = {
            "op": entry.op,
            "backend": entry.backend,
            "reference": reference.backend,
            "input": _graph_shape(graph),
            "divergence": divergence,
        }
        _report["parity"]["divergences"].append(record)
        _tally_op(entry.op, entry.backend, "DIVERGED")
        raise BackendParityError(
            f"backend parity violation in operation {entry.op!r}: "
            f"{entry.backend!r} kernel disagrees with {reference.backend!r} "
            f"reference on {_graph_shape(graph)} — {divergence} "
            "(rerun with REPRO_SANITIZE=0 to bypass, or see "
            "docs/architecture.md 'Runtime sanitizer' for debugging)"
        )
    finally:
        _active = False


def _screen_nonfinite(entry: Any, result: Any) -> None:
    _report["nonfinite"]["checked"] += 1
    found = find_nonfinite(result)
    if found is None:
        return
    if entry.op in NONFINITE_ALLOWED:
        hits = _report["nonfinite"]["allowlisted"]
        if entry.op not in hits:
            hits.append(entry.op)
        return
    _tally_op(entry.op, entry.backend, "NONFINITE")
    raise NonFiniteOutputError(
        f"operation {entry.op!r} ({entry.backend!r} kernel) returned a "
        f"non-finite value at {found}; if this operation legitimately "
        "produces NaN/Inf, add it to repro.sanitize.NONFINITE_ALLOWED with "
        "a justification"
    )


# ----------------------------------------------------------------------
# Artifact payload integrity
# ----------------------------------------------------------------------

def hash_payload(directory: Path, exclude: Tuple[str, ...] = ("ARTIFACT.json",)) -> str:
    """Deterministic sha256 of every file under ``directory``.

    Files are folded in sorted relative-path order, each prefixed by its
    path and size, so renames and truncations change the digest.  The
    marker file itself is excluded (it stores this digest).
    """
    digest = hashlib.sha256()
    directory = Path(directory)
    for path in sorted(directory.rglob("*")):
        if not path.is_file():
            continue
        relative = path.relative_to(directory).as_posix()
        if relative in exclude:
            continue
        payload = path.read_bytes()
        digest.update(f"{relative}\x00{len(payload)}\x00".encode("utf-8"))
        digest.update(payload)
    return digest.hexdigest()


def verify_artifact_payload(
    name: str, key: str, directory: Path, recorded: Optional[str]
) -> None:
    """Re-hash a cache hit against its write-time digest (sanitize-only).

    Entries written before integrity recording existed carry no digest and
    are skipped.  A mismatch raises :class:`ArtifactIntegrityError` — the
    cached payload was modified after it was committed (tampering, bit rot,
    or a non-atomic writer), and serving it would silently poison every
    downstream artifact.
    """
    if recorded is None:
        return
    actual = hash_payload(Path(directory))
    if actual == recorded:
        _report["artifacts"]["verified"] += 1
        return
    _report["artifacts"]["mismatches"].append(
        {"artifact": name, "key": key, "recorded": recorded, "actual": actual}
    )
    raise ArtifactIntegrityError(
        f"artifact {name!r} (key {key}) failed integrity verification: "
        f"stored payload hash {recorded[:12]}… but the cache directory now "
        f"hashes to {actual[:12]}…; the entry was modified after commit — "
        "delete it from the cache (or rebuild with --refresh) and "
        "investigate what wrote into the store"
    )


__all__ = [
    "ENV_VAR",
    "ArtifactIntegrityError",
    "BackendParityError",
    "NonFiniteOutputError",
    "SanitizerError",
    "NONFINITE_ALLOWED",
    "PARITY_NORMALIZERS",
    "checked_dispatch",
    "compare_results",
    "enabled",
    "find_nonfinite",
    "hash_payload",
    "report",
    "reset_report",
    "verify_artifact_payload",
    "write_report",
]
