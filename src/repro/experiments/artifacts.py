"""Typed pipeline artifacts with a content-addressed on-disk cache.

The paper's evaluation is one campaign over a handful of shared inputs: a
simulated ground-truth evolution, a crawled snapshot series, frozen snapshot
views, a reference SAN, an arrival history, estimated parameters, and a few
generated model SANs.  This module declares each of those as an *artifact
node* — a named builder with declared dependencies, an optional on-disk
representation, and a version tag::

    @artifact("snapshot_series", needs=("evolution",), version="2",
              save=_save_snapshot_series, load=_load_snapshot_series)
    def _build_snapshot_series(resolver): ...

An :class:`ArtifactResolver` materialises artifacts on demand for one
scenario: every artifact is built at most once per run (memory sharing), and
persistent artifacts are written to / read from an :class:`ArtifactStore`
under a **content-addressed key** — the hash of the scenario's
:meth:`~repro.experiments.scenarios.Scenario.cache_token`, the artifact's
recipe version, and (recursively) the keys of its dependencies.  Changing the
scenario, bumping a recipe version, or invalidating any upstream artifact
therefore re-keys — and rebuilds — everything downstream, while a warm cache
reruns the full figure suite without recomputing a single artifact.

The store holds one graph format.  Every persisted SAN is written once, as a
:mod:`repro.graph.columnar` file that warm hits serve as ``np.memmap``
views: the crawled snapshots (one file per day inside ``snapshot_series``),
the frozen views of the generated model SANs, and the evolution — its final
ground truth, with the event log's day, kind, first and second columns
attached as extra sections, so a warm hit parses no JSON and builds no event
objects.  The estimated parameters are the one small JSON document.  The
snapshot list, the reference and halfway SANs and their frozen aliases are
memory views of the series, the arrival history is a memory view (a window
of the evolution's columns), and the mutable model SANs are in-memory
intermediates of cold builds.  Every stored crawled or generated graph goes
through :func:`canonical_frozen` — a CSR relabel that makes the frozen view
a pure function of the graph's *content* rather than of the source object's
insertion history — and the evolution keeps the ids its log assigns in
arrival order, so cold, warm, and naive (per-figure re-derivation) runs of
the same scenario are byte-identical, stage for stage.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from ..crawler.snapshots import SnapshotSeries, crawl_evolution
from ..graph.columnar import load_columnar_extras, open_columnar, save_columnar
from ..graph.errors import ColumnarFormatError
from ..graph.frozen import FrozenSAN
from ..models.estimation import estimate_parameters
from ..models.history import (
    EVENT_KINDS,
    KIND_NODE,
    KIND_SOCIAL,
    KIND_SOCIAL_REMOVE,
    HistoryColumns,
)
from ..models.parameters import (
    AttachmentParameters,
    LifetimeParameters,
    SANModelParameters,
    ZhelModelParameters,
)
from ..models.san_model import generate_san
from ..models.zhel import generate_zhel_san
from ..synthetic.gplus import GroundTruthEvolution, simulate_google_plus
from ..metrics.evolution import PhaseBoundaries

PathLike = Union[str, Path]


class ArtifactError(Exception):
    """Base class for artifact-layer errors."""


class UnknownArtifactError(ArtifactError, KeyError):
    """No artifact is registered under the requested name."""

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self.name = name

    def __str__(self) -> str:
        return (
            f"unknown artifact {self.name!r}; "
            f"known artifacts: {', '.join(artifact_names())}"
        )


class ArtifactCycleError(ArtifactError, ValueError):
    """The artifact dependency graph contains a cycle."""


@dataclass(frozen=True)
class ArtifactSpec:
    """One artifact node: builder, dependencies, optional disk format."""

    name: str
    builder: Callable[["ArtifactResolver"], Any]
    needs: Tuple[str, ...] = ()
    #: Bump to invalidate every cache entry of this artifact (and, because
    #: keys chain through ``needs``, of everything downstream of it).
    version: str = "1"
    save: Optional[Callable[[Any, Path], None]] = None
    load: Optional[Callable[[Path], Any]] = None

    @property
    def persistent(self) -> bool:
        """Whether this artifact has an on-disk representation.

        Non-persistent artifacts are in-memory views (e.g. the reference
        SAN, a snapshot of the cached series) rebuilt from their parents on
        every run, or intermediates only a cold build needs (the mutable
        model SANs behind the persisted frozen views).
        """
        return self.save is not None and self.load is not None


#: name -> spec, in registration order (roughly dependency order).
_ARTIFACTS: Dict[str, ArtifactSpec] = {}


def register_artifact(
    name: str,
    builder: Callable[["ArtifactResolver"], Any],
    needs: Sequence[str] = (),
    version: str = "1",
    save: Optional[Callable[[Any, Path], None]] = None,
    load: Optional[Callable[[Path], Any]] = None,
) -> ArtifactSpec:
    """Register an artifact node (functional form of :func:`artifact`)."""
    spec = ArtifactSpec(
        name=name,
        builder=builder,
        needs=tuple(needs),
        version=version,
        save=save,
        load=load,
    )
    _ARTIFACTS[name] = spec
    return spec


def artifact(
    name: str,
    needs: Sequence[str] = (),
    version: str = "1",
    save: Optional[Callable[[Any, Path], None]] = None,
    load: Optional[Callable[[Path], Any]] = None,
) -> Callable[[Callable[["ArtifactResolver"], Any]], Callable[["ArtifactResolver"], Any]]:
    """Decorator: register the function as the builder of artifact ``name``."""

    def decorator(builder: Callable[["ArtifactResolver"], Any]):
        register_artifact(name, builder, needs=needs, version=version, save=save, load=load)
        return builder

    return decorator


def unregister_artifact(name: str) -> None:
    """Remove a registered artifact (test hook; unknown names are ignored)."""
    _ARTIFACTS.pop(name, None)


def artifact_spec(name: str) -> ArtifactSpec:
    """The registered spec of artifact ``name``."""
    try:
        return _ARTIFACTS[name]
    except KeyError:
        raise UnknownArtifactError(name) from None


def artifact_names() -> List[str]:
    """Names of every registered artifact, in registration order."""
    return list(_ARTIFACTS)


def artifact_topological_order(names: Sequence[str]) -> List[str]:
    """Dependency-closed topological order of ``names`` (deps first).

    Raises :class:`UnknownArtifactError` for undeclared dependencies and
    :class:`ArtifactCycleError` when the dependency graph has a cycle.
    """
    order: List[str] = []
    done: Set[str] = set()
    in_progress: Set[str] = set()

    def visit(name: str, chain: Tuple[str, ...]) -> None:
        if name in done:
            return
        if name in in_progress:
            cycle = " -> ".join(chain + (name,))
            raise ArtifactCycleError(f"artifact dependency cycle: {cycle}")
        in_progress.add(name)
        for dep in artifact_spec(name).needs:
            visit(dep, chain + (name,))
        in_progress.discard(name)
        done.add(name)
        order.append(name)

    for name in names:
        visit(name, ())
    return order


# ----------------------------------------------------------------------
# On-disk store
# ----------------------------------------------------------------------
_MARKER = "ARTIFACT.json"


def _payload_bytes(entry: Path) -> int:
    """Total size of an entry's payload files (everything but the marker)."""
    return sum(
        path.stat().st_size
        for path in sorted(entry.rglob("*"))
        if path.is_file() and path.name != _MARKER
    )


def _recorded_payload_bytes(entry: Path) -> int:
    """Payload size from the entry marker (re-measured for pre-size entries)."""
    try:
        recorded = json.loads((entry / _MARKER).read_text(encoding="utf-8")).get(
            "payload_bytes"
        )
    except (OSError, json.JSONDecodeError):
        recorded = None
    return int(recorded) if recorded is not None else _payload_bytes(entry)


class ArtifactStore:
    """Content-addressed artifact directory: ``<root>/<name>-<key>/``.

    Each entry is a directory written atomically (build into ``*.tmp``, then
    rename) and finalised with an ``ARTIFACT.json`` marker, so a crashed
    writer never leaves a half-entry that reads as a cache hit.
    """

    def __init__(self, root: PathLike) -> None:
        self.root = Path(root)

    def entry_path(self, name: str, key: str) -> Path:
        return self.root / f"{name}-{key}"

    def has(self, name: str, key: str) -> bool:
        return (self.entry_path(name, key) / _MARKER).is_file()

    def write(
        self,
        name: str,
        key: str,
        save: Callable[[Any, Path], None],
        value: Any,
        metadata: Optional[Dict[str, Any]] = None,
    ) -> Path:
        """Persist ``value`` under ``(name, key)`` atomically.

        Each writer stages into its own private temp directory (so
        concurrent processes racing on the same entry never touch each
        other's half-written files) and commits with a single rename.  If
        another writer finalised the entry first, this writer's staging is
        simply discarded — the content is addressed by ``key``, so both
        copies are identical.
        """
        final = self.entry_path(name, key)
        self.root.mkdir(parents=True, exist_ok=True)
        staging = Path(
            tempfile.mkdtemp(prefix=f".{final.name}.staging-", dir=self.root)
        )
        try:
            save(value, staging)
            from .. import sanitize

            # Recorded unconditionally (hashing at write time is cheap next
            # to building).  Warm hits deliberately do NOT re-hash: for a
            # multi-hundred-MB columnar graph that eager read would cost more
            # than the load it guards, so integrity verification happens only
            # under REPRO_SANITIZE=1 (see ArtifactResolver.artifact).
            marker = {
                "artifact": name,
                "key": key,
                "payload_sha256": sanitize.hash_payload(staging),
                "payload_bytes": _payload_bytes(staging),
                **(metadata or {}),
            }
            (staging / _MARKER).write_text(
                json.dumps(marker, indent=2, sort_keys=True) + "\n", encoding="utf-8"
            )
            if final.exists() and not self.has(name, key):
                shutil.rmtree(final)  # crash leftover: unmarked, never a hit
            try:
                os.replace(staging, final)
            except OSError:
                if not self.has(name, key):
                    raise
                shutil.rmtree(staging)  # lost the race to an identical entry
        except BaseException:
            shutil.rmtree(staging, ignore_errors=True)
            raise
        return final


# ----------------------------------------------------------------------
# Resolver
# ----------------------------------------------------------------------
@dataclass
class ArtifactEvent:
    """How one artifact was materialised during a run (for the manifest)."""

    name: str
    key: str
    status: str  # "built" or "cached"
    persistent: bool
    seconds: float
    #: On-disk payload size (persistent artifacts; 0 for memory views).
    bytes: int = 0


class ArtifactResolver:
    """Materialise artifacts for one scenario, each at most once per run.

    Without a ``cache_dir`` the resolver shares artifacts in memory only;
    with one, persistent artifacts round-trip through the content-addressed
    :class:`ArtifactStore`, so a second resolver over the same scenario loads
    every expensive input instead of recomputing it.
    """

    def __init__(self, scenario, cache_dir: Optional[PathLike] = None) -> None:
        self.scenario = scenario
        self.store = ArtifactStore(cache_dir) if cache_dir is not None else None
        self.events: List[ArtifactEvent] = []
        self._memory: Dict[str, Any] = {}
        self._keys: Dict[str, str] = {}
        self._resolving: Set[str] = set()

    # -- content-addressed keys ------------------------------------------
    def key(self, name: str) -> str:
        """Content-addressed cache key of ``name`` under this scenario."""
        cached = self._keys.get(name)
        if cached is not None:
            return cached
        spec = artifact_spec(name)
        if name in self._resolving:
            chain = " -> ".join(sorted(self._resolving) + [name])
            raise ArtifactCycleError(f"artifact dependency cycle involving: {chain}")
        self._resolving.add(name)
        try:
            payload = {
                "artifact": name,
                "version": spec.version,
                "scenario": self.scenario.cache_token(),
                "needs": {dep: self.key(dep) for dep in spec.needs},
            }
        finally:
            self._resolving.discard(name)
        digest = hashlib.sha256(
            json.dumps(payload, sort_keys=True, default=str).encode("utf-8")
        ).hexdigest()[:16]
        self._keys[name] = digest
        return digest

    # -- resolution -------------------------------------------------------
    def artifact(self, name: str) -> Any:
        """The materialised artifact ``name`` (build, load, or memory hit)."""
        if name in self._memory:
            return self._memory[name]
        spec = artifact_spec(name)
        key = self.key(name)
        # repro: lint-ignore[R004] -- build timing for the manifest's
        # ArtifactEvent.seconds; it never enters a cache key or payload
        started = time.perf_counter()
        payload_bytes = 0
        if self.store is not None and spec.persistent and self.store.has(name, key):
            entry = self.store.entry_path(name, key)
            from .. import sanitize

            if sanitize.enabled():
                try:
                    recorded = json.loads(
                        (entry / _MARKER).read_text(encoding="utf-8")
                    ).get("payload_sha256")
                except (OSError, json.JSONDecodeError):
                    recorded = None
                sanitize.verify_artifact_payload(name, key, entry, recorded)
            value = spec.load(entry)
            status = "cached"
            payload_bytes = _recorded_payload_bytes(entry)
        else:
            value = spec.builder(self)
            status = "built"
            if self.store is not None and spec.persistent:
                entry = self.store.write(
                    name,
                    key,
                    spec.save,
                    value,
                    metadata={
                        "scenario": self.scenario.name,
                        "version": spec.version,
                    },
                )
                payload_bytes = _recorded_payload_bytes(entry)
        self.events.append(
            ArtifactEvent(
                name=name,
                key=key,
                status=status,
                persistent=spec.persistent,
                # repro: lint-ignore[R004] -- manifest timing, not key material
                seconds=time.perf_counter() - started,
                bytes=payload_bytes,
            )
        )
        self._memory[name] = value
        return value


def _canonical_order(labels) -> np.ndarray:
    """Positions of ``labels`` in ``(str(label), type name)`` order.

    The type name breaks the ties ``str`` leaves (``1`` and ``"1"``), so the
    order depends on the labels alone, never on where they sat before.
    """
    keys = [(str(label), type(label).__name__) for label in labels]
    return np.array(sorted(range(len(keys)), key=keys.__getitem__), dtype=np.int64)


def _inverse(order: np.ndarray, size: int) -> np.ndarray:
    """``inverse[order[k]] = k`` (-1 for ids ``order`` leaves out)."""
    inverse = np.full(size, -1, dtype=np.int64)
    inverse[order] = np.arange(order.size, dtype=np.int64)
    return inverse


def canonical_frozen(san) -> FrozenSAN:
    """A canonical CSR-backed frozen view of ``san`` (mutable or frozen).

    The frozen backend preserves the *insertion order* of its source, and the
    mutable backend's set-based adjacency makes that order a function of the
    object's construction history, not just its content.  Relabelling the
    CSR arrays — social labels, and attribute labels with at least one link,
    sorted by ``(str(label), type name)`` — makes the frozen view a pure
    function of the graph's content, so a freshly built artifact and its
    cache-loaded round trip yield byte-identical frozen views, and every
    downstream sampled estimator draws identical populations.  Attribute
    nodes with no link are dropped.
    """
    frozen = san.freeze()
    social, attributes = frozen.social, frozen.attributes
    labels = social.labels()
    order = _canonical_order(labels)
    rank = _inverse(order, order.size)
    sources, targets = social.edge_arrays()

    attr_labels = attributes.attribute_labels()
    linked = np.flatnonzero(attributes.social_degree_array())
    attr_order = linked[_canonical_order([attr_labels[i] for i in linked.tolist()])]
    attr_rank = _inverse(attr_order, len(attr_labels))
    sa_indptr, sa_indices = attributes.social_to_attr_csr()
    link_social = np.repeat(np.arange(order.size, dtype=np.int64), np.diff(sa_indptr))

    kept_attrs = [attr_labels[i] for i in attr_order.tolist()]
    return FrozenSAN.from_edge_arrays(
        [labels[i] for i in order.tolist()],
        rank[sources],
        rank[targets],
        kept_attrs,
        [attributes.attribute_info(label) for label in kept_attrs],
        rank[link_social],
        attr_rank[sa_indices],
    )


# ----------------------------------------------------------------------
# Serialization helpers (all order-preserving)
# ----------------------------------------------------------------------
def _save_frozen_san(san, path: Path) -> None:
    save_columnar(san, path / "san.col")


def _load_frozen_san(path: Path):
    # Served copy-free: the CSR arrays are np.memmap views of the cache
    # entry itself, so a warm hit costs one header parse, not an edge scan.
    return open_columnar(path / "san.col", mmap_mode="r")


def _save_evolution(evolution: GroundTruthEvolution, path: Path) -> None:
    # One columnar file: the final ground truth (its attribute table is the
    # log's, memberless nodes included) with the log's columns as extras.
    phases = evolution.phases
    save_columnar(
        evolution.final_san(),
        path / "evolution.col",
        extras={
            "day": evolution.day.astype(np.int32),
            "kind": evolution.kind.astype(np.int8),
            "first": evolution.first.astype(np.int32),
            "second": evolution.second.astype(np.int32),
            "sybil": evolution.sybil.astype(np.int32),
            "calendar": np.array(
                [evolution.num_days, phases.phase_one_end, phases.phase_two_end],
                dtype=np.int64,
            ),
        },
    )


#: The evolution file's extra sections, each one int column.
_EVOLUTION_COLUMNS = ("day", "kind", "first", "second", "sybil", "calendar")


def _load_evolution(path: Path) -> GroundTruthEvolution:
    """Open the evolution file; a malformed log is a :class:`ColumnarFormatError`."""
    file = path / "evolution.col"
    final = open_columnar(file, mmap_mode="r")
    extras = load_columnar_extras(file, mmap_mode=None)
    if any(
        name not in extras or extras[name].ndim != 1 or extras[name].dtype.kind not in "iu"
        for name in _EVOLUTION_COLUMNS
    ):
        raise ColumnarFormatError(file, "the event-log columns are missing or malformed")
    columns = {name: extras[name].astype(np.int64) for name in _EVOLUTION_COLUMNS}
    if columns["calendar"].size != 3:
        raise ColumnarFormatError(file, "the calendar column is malformed")
    num_days, phase_one_end, phase_two_end = columns["calendar"].tolist()
    day, kind, first, second = (columns[name] for name in ("day", "kind", "first", "second"))
    users = final.number_of_social_nodes()
    labels = final.attributes.attribute_labels()
    targets = np.where(
        (kind == KIND_SOCIAL) | (kind == KIND_SOCIAL_REMOVE), users, len(labels)
    )
    if not (
        day.size == kind.size == first.size == second.size
        and np.all((day >= 1) & (day <= num_days))
        and np.all(np.diff(day) >= 0)
        and np.all((kind >= 0) & (kind < len(EVENT_KINDS)))
        and np.all((first >= 0) & (first < users))
        and np.all(np.where(kind == KIND_NODE, second == -1, (second >= 0) & (second < targets)))
        and np.all((columns["sybil"] >= 0) & (columns["sybil"] < users))
    ):
        raise ColumnarFormatError(file, "the event-log columns are inconsistent")
    return GroundTruthEvolution(
        day=day,
        kind=kind,
        first=first,
        second=second,
        attribute_labels=list(labels),
        attribute_info=[final.attribute_info(label) for label in labels],
        num_days=num_days,
        phases=PhaseBoundaries(phase_one_end, phase_two_end),
        sybil=columns["sybil"],
        _final=final,
    )


def _save_snapshot_series(series: SnapshotSeries, path: Path) -> None:
    for day, san in series.snapshots:
        save_columnar(san, path / f"day-{day:05d}.col")
    (path / "days.json").write_text(json.dumps(series.days()), encoding="utf-8")
    (path / "coverage.json").write_text(
        json.dumps([[day, value] for day, value in series.coverage.items()]),
        encoding="utf-8",
    )


def _load_snapshot_series(path: Path) -> SnapshotSeries:
    days = json.loads((path / "days.json").read_text(encoding="utf-8"))
    coverage = json.loads((path / "coverage.json").read_text(encoding="utf-8"))
    return SnapshotSeries(
        snapshots=[
            (day, open_columnar(path / f"day-{day:05d}.col", mmap_mode="r"))
            for day in days
        ],
        coverage={day: value for day, value in coverage},
    )


def _save_parameters(params: SANModelParameters, path: Path) -> None:
    document = {
        "steps": params.steps,
        "arrivals_per_step": params.arrivals_per_step,
        "attribute_mu": params.attribute_mu,
        "attribute_sigma": params.attribute_sigma,
        "new_attribute_probability": params.new_attribute_probability,
        "attachment": {
            "beta": params.attachment.beta,
            "smoothing": params.attachment.smoothing,
            "type_weights": params.attachment.type_weights,
        },
        "lifetime": {
            "mu": params.lifetime.mu,
            "sigma": params.lifetime.sigma,
            "mean_sleep": params.lifetime.mean_sleep,
        },
        "focal_weight": params.focal_weight,
        "reciprocation_probability": params.reciprocation_probability,
        "seed_social_nodes": params.seed_social_nodes,
        "seed_attribute_nodes": params.seed_attribute_nodes,
        "use_lapa": params.use_lapa,
        "use_focal_closure": params.use_focal_closure,
    }
    (path / "parameters.json").write_text(
        json.dumps(document, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def _load_parameters(path: Path) -> SANModelParameters:
    document = json.loads((path / "parameters.json").read_text(encoding="utf-8"))
    attachment = AttachmentParameters(**document.pop("attachment"))
    lifetime = LifetimeParameters(**document.pop("lifetime"))
    return SANModelParameters(attachment=attachment, lifetime=lifetime, **document)


# ----------------------------------------------------------------------
# The artifact DAG
# ----------------------------------------------------------------------
@artifact("evolution", version="2", save=_save_evolution, load=_load_evolution)
def _build_evolution(resolver: ArtifactResolver) -> GroundTruthEvolution:
    """The simulated Google+ ground truth of the scenario."""
    scenario = resolver.scenario
    return simulate_google_plus(scenario.config, rng=scenario.seed)


#: First-crawl seed count under a privacy regime.  A single seed can hide its
#: links and strand the whole series (later crawls re-seed from the previous
#: visited set); ten early joiners make that failure mode vanishingly rare
#: while matching the paper's multi-seed crawl methodology.
_PRIVACY_CRAWL_SEEDS = 10


def _earliest_joiners(evolution: GroundTruthEvolution, count: int):
    """The first ``count`` users by join day (label as the tiebreak)."""
    ranked = sorted(evolution.join_day.items(), key=lambda item: (item[1], str(item[0])))
    return [node for node, _ in ranked[:count]]


@artifact(
    "snapshot_series",
    needs=("evolution",),
    version="2",
    save=_save_snapshot_series,
    load=_load_snapshot_series,
)
def _build_snapshot_series(resolver: ArtifactResolver) -> SnapshotSeries:
    """Crawled daily snapshots (the analogue of the paper's 79 crawls).

    Each crawled snapshot is stored as its :func:`canonical_frozen` view —
    one columnar file per day — so a warm hit mmaps every snapshot straight
    out of the store.  The scenario's privacy regime (if any) is applied
    during the crawl, so visibility sweeps flow through the whole figure
    suite.  Privacy crawls start from several early joiners instead of the
    single default seed — otherwise one link-hiding seed strands every
    snapshot of the series.
    """
    evolution = resolver.artifact("evolution")
    privacy = resolver.scenario.privacy_model()
    seeds = None
    if privacy is not None:
        seeds = _earliest_joiners(evolution, _PRIVACY_CRAWL_SEEDS)
    crawled = crawl_evolution(
        evolution,
        resolver.scenario.snapshot_days(),
        privacy=privacy,
        seeds=seeds,
    )
    return SnapshotSeries(
        snapshots=[(day, canonical_frozen(san)) for day, san in crawled],
        coverage=crawled.coverage,
    )


# Memory views of the series.  Its snapshots are canonical frozen SANs
# already, so each plain name and its frozen_* alias share one builder.
@artifact("frozen_snapshots", needs=("snapshot_series",))
@artifact("snapshots", needs=("snapshot_series",))
def _build_snapshots(resolver: ArtifactResolver):
    """The snapshot series as a ``[(day, FrozenSAN)]`` list (memory view)."""
    return list(resolver.artifact("snapshot_series"))


@artifact("frozen_reference", needs=("snapshot_series",))
@artifact("reference_san", needs=("snapshot_series",))
def _build_reference_san(resolver: ArtifactResolver):
    """The last crawled snapshot — the reference the models are fitted against."""
    return resolver.artifact("snapshot_series").last()


@artifact("halfway_san", needs=("snapshot_series",))
def _build_halfway_san(resolver: ArtifactResolver):
    """The mid-crawl snapshot (the 'earlier' input of Figure 13)."""
    return resolver.artifact("snapshot_series").halfway()


#: The arrival history scored by Figure 15 starts at
#: ``num_days // HISTORY_START_DIVISOR`` (the benches' convention).
HISTORY_START_DIVISOR = 3


@artifact("arrival_history", needs=("evolution",))
def _build_arrival_history(resolver: ArtifactResolver) -> HistoryColumns:
    """Link arrivals over the crawl's later days (the Figure 15 input).

    A memory view: a window of the evolution's event columns, which the
    Figure 15 encoder reads as they are.
    """
    evolution = resolver.artifact("evolution")
    start_day = evolution.num_days // HISTORY_START_DIVISOR
    return evolution.arrival_history(start_day=start_day)


@artifact(
    "estimated_parameters",
    needs=("reference_san",),
    version="3",
    save=_save_parameters,
    load=_load_parameters,
)
def _build_estimated_parameters(resolver: ArtifactResolver) -> SANModelParameters:
    """Generative-model parameters estimated from the reference SAN.

    ``estimate_parameters``' defaults (mean sleep 2.0, LAPA beta 200) are
    the estimation hyper-parameters of every scenario.
    """
    return estimate_parameters(resolver.artifact("reference_san")).parameters


@artifact("model_san", needs=("estimated_parameters",), version="3")
def _build_model_san(resolver: ArtifactResolver):
    """Our model (Algorithm 1) fitted to the reference SAN."""
    params = resolver.artifact("estimated_parameters")
    return generate_san(params, rng=resolver.scenario.seed).san


@artifact("model_no_focal_san", needs=("estimated_parameters",), version="3")
def _build_model_no_focal_san(resolver: ArtifactResolver):
    """Ablation: the fitted model without focal closure (RR instead of RR-SAN)."""
    params = replace(resolver.artifact("estimated_parameters"), use_focal_closure=False)
    return generate_san(params, rng=resolver.scenario.seed).san


@artifact("model_no_lapa_san", needs=("estimated_parameters",), version="3")
def _build_model_no_lapa_san(resolver: ArtifactResolver):
    """Ablation: the fitted model with classical PA instead of LAPA."""
    params = replace(resolver.artifact("estimated_parameters"), use_lapa=False)
    return generate_san(params, rng=resolver.scenario.seed).san


@artifact("zhel_san", needs=("estimated_parameters",), version="2")
def _build_zhel_san(resolver: ArtifactResolver):
    """The directed Zhel baseline sized to the same number of social nodes."""
    estimated = resolver.artifact("estimated_parameters")
    params = ZhelModelParameters(
        steps=estimated.steps,
        reciprocation_probability=estimated.reciprocation_probability,
        mean_groups_per_node=2.0,
    )
    return generate_zhel_san(params, rng=resolver.scenario.seed)


# Canonical frozen views of the generated SANs, persisted as columnar files.
# The generated SANs above are in-memory intermediates of cold builds: no
# stage reads them, so a warm run never materialises them.  The canonical
# CSR form makes stages consuming these produce byte-identical payloads
# whether the parent SAN was freshly generated or the view was mmapped from
# its cache entry — the Zhel baseline's mutable backend, with its set-based
# adjacency, does not guarantee that.
@artifact(
    "frozen_model_san",
    needs=("model_san",),
    version="2",
    save=_save_frozen_san,
    load=_load_frozen_san,
)
def _build_frozen_model_san(resolver: ArtifactResolver):
    """Frozen view of the fitted model SAN (columnar on disk)."""
    return canonical_frozen(resolver.artifact("model_san"))


@artifact(
    "frozen_model_no_focal_san",
    needs=("model_no_focal_san",),
    version="2",
    save=_save_frozen_san,
    load=_load_frozen_san,
)
def _build_frozen_model_no_focal_san(resolver: ArtifactResolver):
    """Frozen view of the no-focal-closure ablation SAN."""
    return canonical_frozen(resolver.artifact("model_no_focal_san"))


@artifact(
    "frozen_model_no_lapa_san",
    needs=("model_no_lapa_san",),
    version="2",
    save=_save_frozen_san,
    load=_load_frozen_san,
)
def _build_frozen_model_no_lapa_san(resolver: ArtifactResolver):
    """Frozen view of the no-LAPA ablation SAN."""
    return canonical_frozen(resolver.artifact("model_no_lapa_san"))


@artifact(
    "frozen_zhel_san",
    needs=("zhel_san",),
    version="2",
    save=_save_frozen_san,
    load=_load_frozen_san,
)
def _build_frozen_zhel_san(resolver: ArtifactResolver):
    """Frozen view of the Zhel baseline SAN."""
    return canonical_frozen(resolver.artifact("zhel_san"))
