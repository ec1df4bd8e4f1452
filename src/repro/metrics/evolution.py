"""Evolution drivers: compute metric time series over a sequence of snapshots.

The paper's measurement figures are all time series over 79 daily snapshots.
Here a "snapshot sequence" is any ordered list of ``(day, SAN)`` pairs; the
crawler substrate produces one, and so does slicing a generated SAN model run.
Each driver returns plain ``(day, value)`` lists so that benches and examples
can print or plot them without extra dependencies.

Phase segmentation follows Section 2.2: Phase I (early bootstrap), Phase II
(stabilised invitation-only growth), Phase III (public release surge).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

from ..graph.san import SAN
from ..utils.rng import RngLike, ensure_rng
from ..algorithms.approx_clustering import approximate_average_clustering
from .density import attribute_density, social_density
from .diameter import attribute_effective_diameter, social_effective_diameter
from .joint_degree import attribute_assortativity, social_assortativity
from .reciprocity import global_reciprocity

Snapshot = Tuple[int, SAN]
Series = List[Tuple[int, float]]


def ensure_frozen_snapshots(snapshots: Sequence[Snapshot]) -> List[Snapshot]:
    """Freeze-once view of a snapshot sequence.

    Every series driver in this module routes its per-snapshot metrics through
    the engine registry, whose fastest kernels run on the CSR-backed frozen
    backend.  This helper normalises a mixed sequence so each mutable snapshot
    is frozen exactly once (via the engine's version-validated frozen-view
    cache, shared across all series drivers called on the same snapshots);
    already-frozen snapshots pass through untouched.  Node and edge insertion
    order is preserved by ``freeze()``, so sampled estimators draw the same
    populations on either backend.
    """
    from ..engine.registry import FROZEN, backend_of, frozen_view

    result: List[Snapshot] = []
    for day, san in snapshots:
        if backend_of(san) != FROZEN:
            view = frozen_view(san)
            if view is not None:
                san = view
        result.append((day, san))
    return result


@dataclass(frozen=True)
class PhaseBoundaries:
    """Day indices splitting the timeline into the paper's three phases.

    ``phase_one_end`` is the last day of Phase I and ``phase_two_end`` the last
    day of Phase II; Phase III runs to the end of the observation window.  The
    paper uses days 20 and 75 for Google+.
    """

    phase_one_end: int = 20
    phase_two_end: int = 75

    def phase_of(self, day: int) -> int:
        """Return 1, 2, or 3 for the phase containing ``day``."""
        if day <= self.phase_one_end:
            return 1
        if day <= self.phase_two_end:
            return 2
        return 3


def metric_series(
    snapshots: Sequence[Snapshot], metric: Callable[[SAN], float]
) -> Series:
    """Apply ``metric`` to every snapshot, producing a ``(day, value)`` series.

    Snapshots are normalised to the frozen backend first (freeze-once, see
    :func:`ensure_frozen_snapshots`) so registry-dispatched metrics run their
    vectorized kernels instead of recomputing on dict-backed SANs.
    """
    return [(day, metric(san)) for day, san in ensure_frozen_snapshots(snapshots)]


def growth_series(snapshots: Sequence[Snapshot]) -> Dict[str, Series]:
    """Node and link counts over time (Figures 2 and 3)."""
    series: Dict[str, Series] = {
        "social_nodes": [],
        "attribute_nodes": [],
        "social_links": [],
        "attribute_links": [],
    }
    # Counters are O(1) on both backends — no point freezing for them.
    for day, san in snapshots:
        series["social_nodes"].append((day, float(san.number_of_social_nodes())))
        series["attribute_nodes"].append((day, float(san.number_of_attribute_nodes())))
        series["social_links"].append((day, float(san.number_of_social_edges())))
        series["attribute_links"].append((day, float(san.number_of_attribute_edges())))
    return series


def reciprocity_series(snapshots: Sequence[Snapshot]) -> Series:
    """Global reciprocity over time (Figure 4a)."""
    return metric_series(snapshots, global_reciprocity)


def social_density_series(snapshots: Sequence[Snapshot]) -> Series:
    """Social density over time (Figure 4b)."""
    return metric_series(snapshots, social_density)


def attribute_density_series(snapshots: Sequence[Snapshot]) -> Series:
    """Attribute density over time (Figure 8a)."""
    return metric_series(snapshots, attribute_density)


def diameter_series(
    snapshots: Sequence[Snapshot],
    precision: int = 6,
    num_attribute_pairs: int = 60,
    rng: RngLike = None,
) -> Dict[str, Series]:
    """Social and attribute effective diameters over time (Figure 4c)."""
    generator = ensure_rng(rng)
    social_series: Series = []
    attribute_series: Series = []
    for day, san in ensure_frozen_snapshots(snapshots):
        social_series.append(
            (day, social_effective_diameter(san, precision=precision))
        )
        attribute_series.append(
            (
                day,
                attribute_effective_diameter(
                    san, num_pairs=num_attribute_pairs, rng=generator, max_depth=12
                ),
            )
        )
    return {"social": social_series, "attribute": attribute_series}


def clustering_series(
    snapshots: Sequence[Snapshot],
    kind: str = "social",
    num_samples: int = 4000,
    rng: RngLike = None,
) -> Series:
    """Average clustering coefficient over time (Figures 4d and 8b).

    Uses the Appendix-A sampled estimator so long snapshot sequences remain
    tractable.
    """
    generator = ensure_rng(rng)
    series: Series = []
    for day, san in ensure_frozen_snapshots(snapshots):
        if kind == "social":
            population = None
        elif kind == "attribute":
            population = list(san.attribute_nodes())
        else:
            raise ValueError(f"kind must be 'social' or 'attribute', got {kind!r}")
        value = approximate_average_clustering(
            san, population=population, num_samples=num_samples, rng=generator
        )
        series.append((day, value))
    return series


def assortativity_series(
    snapshots: Sequence[Snapshot], kind: str = "social"
) -> Series:
    """Assortativity coefficient over time (Figures 7b and 12b)."""
    if kind == "social":
        return metric_series(snapshots, social_assortativity)
    if kind == "attribute":
        return metric_series(snapshots, attribute_assortativity)
    raise ValueError(f"kind must be 'social' or 'attribute', got {kind!r}")


def phase_averages(series: Series, phases: PhaseBoundaries = PhaseBoundaries()) -> Dict[int, float]:
    """Average of a metric series within each of the three phases."""
    sums: Dict[int, float] = {1: 0.0, 2: 0.0, 3: 0.0}
    counts: Dict[int, int] = {1: 0, 2: 0, 3: 0}
    for day, value in series:
        phase = phases.phase_of(day)
        sums[phase] += value
        counts[phase] += 1
    return {
        phase: (sums[phase] / counts[phase]) if counts[phase] else float("nan")
        for phase in (1, 2, 3)
    }


def phase_trends(series: Series, phases: PhaseBoundaries = PhaseBoundaries()) -> Dict[int, float]:
    """Net change of a metric within each phase (last value minus first value)."""
    grouped: Dict[int, List[Tuple[int, float]]] = {1: [], 2: [], 3: []}
    for day, value in series:
        grouped[phases.phase_of(day)].append((day, value))
    trends: Dict[int, float] = {}
    for phase, points in grouped.items():
        if len(points) >= 2:
            points.sort()
            trends[phase] = points[-1][1] - points[0][1]
        else:
            trends[phase] = 0.0
    return trends
