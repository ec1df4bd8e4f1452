"""The runtime sanitizer: screen and re-hash under ``REPRO_SANITIZE=1``.

The static linter (:mod:`repro.lint`) proves properties of the *source*;
this module checks invariants on *live runs*, the way an address sanitizer
gates a build.  Armed via the ``REPRO_SANITIZE`` environment variable (see
``repro pipeline --sanitize``), it hooks two places:

* **NaN/Inf screening** — every kernel output of
  :func:`repro.engine.registry.dispatch` is screened for non-finite floats;
  operations that legitimately produce them (log-likelihoods of impossible
  events, ratios over empty sets) are allowlisted explicitly in
  :data:`NONFINITE_ALLOWED`.
* **artifact integrity** — the artifact store records a payload hash at
  write time and, under the sanitizer, re-hashes every cache hit before
  serving it (:func:`verify_artifact_payload`); tampered or bit-rotted
  cache entries raise :class:`ArtifactIntegrityError` instead of feeding a
  silent wrong answer downstream.

A third check lives with the columnar reader: armed, ``open_columnar``
checks every CSR's content (ids in range, rows strictly increasing).  The
kernels themselves are checked by independent oracles in the test suite
(``tests/test_oracle_*.py``), not at run time.

Every check is tallied in a process-local report (:func:`report`,
:func:`write_report`) that the pipeline dumps next to its manifest.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

import numpy as np

from .engine import deps

#: Environment variable that arms the sanitizer (re-exported from deps).
ENV_VAR = deps.SANITIZE_ENV_VAR

#: Operations allowed to return non-finite floats.  Empty as of this writing:
#: the full tier-1 suite runs NaN/Inf-clean under ``REPRO_SANITIZE=1``.
#: Additions must name the legitimate source (e.g. a log-likelihood of an
#: impossible event is -inf).
NONFINITE_ALLOWED: set = set()


class SanitizerError(RuntimeError):
    """Base class of every runtime-sanitizer failure."""


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


# ----------------------------------------------------------------------
# NaN/Inf screening
# ----------------------------------------------------------------------

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


def checked_dispatch(entry: Any, graph: Any, args: Tuple[Any, ...], kwargs: Dict[str, Any]) -> Any:
    """Run ``entry`` and screen its result for unexpected NaN/Inf.

    The registry calls this instead of ``entry.fn(...)`` whenever the
    sanitizer is enabled.  Raises :class:`NonFiniteOutputError` on an
    unexpected non-finite float; otherwise the result is returned unchanged.
    """
    result = entry.fn(graph, *args, **kwargs)
    _screen_nonfinite(entry, result)
    return result


def _screen_nonfinite(entry: Any, result: Any) -> None:
    _report["nonfinite"]["checked"] += 1
    ops = _report["ops"]
    ops[entry.op] = ops.get(entry.op, 0) + 1
    found = find_nonfinite(result)
    if found is None:
        return
    if entry.op in NONFINITE_ALLOWED:
        hits = _report["nonfinite"]["allowlisted"]
        if entry.op not in hits:
            hits.append(entry.op)
        return
    raise NonFiniteOutputError(
        f"operation {entry.op!r} returned a non-finite value at {found}; "
        "if this operation legitimately "
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
    "NonFiniteOutputError",
    "SanitizerError",
    "NONFINITE_ALLOWED",
    "checked_dispatch",
    "enabled",
    "find_nonfinite",
    "hash_payload",
    "report",
    "reset_report",
    "verify_artifact_payload",
    "write_report",
]
