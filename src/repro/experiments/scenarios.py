"""Named scenario presets: one config object drives the whole figure suite.

A :class:`Scenario` bundles everything the artifact DAG needs to reproduce the
paper's full evaluation — the synthetic Google+ regime
(:class:`~repro.synthetic.gplus.GooglePlusConfig`), the simulation seed, the
snapshot schedule, the crawler's privacy regime, and the per-figure sampling
options — under one name.  The same DAG then reruns unchanged under
diverse regimes (``repro pipeline --scenario dense``), and the scenario's
:meth:`~Scenario.cache_token` is what keys the content-addressed artifact
cache: change any field and every downstream artifact is rebuilt.

Presets
-------
``paper-default``
    The standard benchmark workload (~4k users over 98 days).
``tiny`` / ``small`` / ``large``
    The canonical workload sizes from :mod:`repro.synthetic.workloads`.
``sparse`` / ``dense`` / ``high-reciprocity``
    Stress regimes far from the Google+ operating point (low density, high
    density, mutual-link-heavy).
``sybil-waves`` / ``churn`` / ``flash-crowd`` / ``privacy-heavy``
    Adversarial and churn regimes (tiny scale): Sybil infiltration waves,
    attribute churn/deletion, arrival bursts breaking the three-phase
    schedule, and a crawler visibility sweep with heavy privacy settings.

Every preset has a checked-in answer key that ``repro validate`` gates
against.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Optional

from ..crawler.privacy import PrivacyModel
from ..synthetic.gplus import GooglePlusConfig
from ..synthetic.workloads import (
    BENCH_SEED,
    churn_config,
    default_config,
    dense_config,
    flash_crowd_config,
    high_reciprocity_config,
    large_config,
    small_config,
    sparse_config,
    standard_snapshot_days,
    sybil_wave_config,
    tiny_config,
)

#: Documented fixed seed for every sampled figure estimator (clustering
#: sampling, diameter pair sampling, attribute subsampling, Sybil/anonymity
#: walks).  Matches ``BENCH_SEED`` (the paper's arXiv id) so a bare pipeline
#: run and the benchmark harness draw from the same stream family.
DEFAULT_FIGURE_SEED = BENCH_SEED


class UnknownScenarioError(KeyError):
    """No scenario preset is registered under the requested name."""

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self.name = name

    def __str__(self) -> str:
        return (
            f"unknown scenario {self.name!r}; "
            f"known scenarios: {', '.join(scenario_names())}"
        )


@dataclass(frozen=True)
class Scenario:
    """Everything needed to reproduce the full figure suite, under one name."""

    name: str
    config: GooglePlusConfig = field(default_factory=default_config)
    #: Seed of the ground-truth simulation and of every generated model SAN.
    seed: int = BENCH_SEED
    #: Number of crawled snapshots (evenly spaced, first and last day kept).
    snapshot_count: int = 14
    #: Seed threaded into every sampled figure estimator.
    figure_seed: int = DEFAULT_FIGURE_SEED
    #: Sample count of the Appendix-A clustering estimator (Figures 4d/8b).
    clustering_samples: int = 4000
    #: Scored-link budget of the Figure 15 likelihood sweep.
    max_links: int = 1500
    #: Scored-edge budget of the Section 5.2 closure comparison.
    max_edges: int = 1500
    #: Crawler privacy regime: probability that a user hides their links /
    #: attributes from the crawler (0.0 = the fully public baseline).  The
    #: privacy model is seeded from ``seed``, so visibility sweeps are
    #: deterministic per scenario.
    privacy_hide_links: float = 0.0
    privacy_hide_attributes: float = 0.0
    description: str = ""

    def snapshot_days(self) -> List[int]:
        """The crawl days of this scenario's snapshot series."""
        return standard_snapshot_days(self.config.num_days, count=self.snapshot_count)

    def privacy_model(self) -> Optional[PrivacyModel]:
        """The crawler's privacy model, or ``None`` for the public baseline."""
        if self.privacy_hide_links == 0.0 and self.privacy_hide_attributes == 0.0:
            return None
        return PrivacyModel(
            hide_links_probability=self.privacy_hide_links,
            hide_attributes_probability=self.privacy_hide_attributes,
            seed=self.seed,
        )

    def cache_token(self) -> Dict[str, object]:
        """JSON-serializable identity of this scenario for artifact keys.

        Covers exactly the fields the artifact builders consume, so two
        scenarios with equal tokens produce byte-identical artifacts and may
        share a cache regardless of what they are called.  Stage-only
        options (``figure_seed``, ``clustering_samples``, ``max_links``,
        ``max_edges``) are excluded:
        changing them re-runs stages — which are never cached — without
        discarding any artifact.
        """
        return {
            "config": asdict(self.config),
            "seed": self.seed,
            "snapshot_count": self.snapshot_count,
            "privacy": {
                "hide_links": self.privacy_hide_links,
                "hide_attributes": self.privacy_hide_attributes,
            },
        }

    def stage_options(self, stage: str) -> Dict[str, object]:
        """Keyword options this scenario supplies to one pipeline stage.

        Only stages with sampled estimators or scored-link budgets take
        options; everything else is a pure function of its artifacts.
        """
        options: Dict[str, Dict[str, object]] = {
            "fig04": {
                "clustering_samples": self.clustering_samples,
                "rng": self.figure_seed,
            },
            "fig08": {
                "clustering_samples": self.clustering_samples,
                "rng": self.figure_seed,
            },
            "fig09": {"rng": self.figure_seed},
            "fig15": {"max_links": self.max_links},
            "sec52": {"max_edges": self.max_edges, "rng": self.figure_seed},
            "fig19": {"rng": self.figure_seed},
        }
        return dict(options.get(stage, {}))


#: Preset name -> zero-arg factory.  Factories (rather than instances) keep
#: the module import-time cheap and each returned Scenario independent.
_SCENARIOS: Dict[str, Callable[[], Scenario]] = {}


def register_scenario(name: str, factory: Callable[[], Scenario]) -> None:
    """Register a scenario preset (last registration wins)."""
    _SCENARIOS[name] = factory


def get_scenario(name: str) -> Scenario:
    """The scenario preset called ``name``."""
    try:
        factory = _SCENARIOS[name]
    except KeyError:
        raise UnknownScenarioError(name) from None
    return factory()


def scenario_names() -> List[str]:
    """Names of every registered preset, in registration order."""
    return list(_SCENARIOS)


register_scenario(
    "paper-default",
    lambda: Scenario(
        name="paper-default",
        config=default_config(),
        description="the standard benchmark workload (~4k users over 98 days)",
    ),
)
register_scenario(
    "tiny",
    lambda: Scenario(
        name="tiny",
        config=tiny_config(),
        snapshot_count=6,
        clustering_samples=1500,
        max_links=600,
        max_edges=600,
        description="a few hundred users over 40 days — smoke tests and CI",
    ),
)
register_scenario(
    "small",
    lambda: Scenario(
        name="small",
        config=small_config(),
        description="~1.5k users over 98 days — the figure benches' workload",
    ),
)
register_scenario(
    "large",
    lambda: Scenario(
        name="large",
        config=large_config(),
        description="~10k users — more statistical resolution",
    ),
)
register_scenario(
    "sparse",
    lambda: Scenario(
        name="sparse",
        config=sparse_config(),
        description="low link budgets and declaration rates — the low-density corner",
    ),
)
register_scenario(
    "dense",
    lambda: Scenario(
        name="dense",
        config=dense_config(),
        description="large link budgets, strong closure — the high-density corner",
    ),
)
register_scenario(
    "high-reciprocity",
    lambda: Scenario(
        name="high-reciprocity",
        config=high_reciprocity_config(),
        description="mutual-link-heavy regime far from the Google+ operating point",
    ),
)
register_scenario(
    "sybil-waves",
    lambda: Scenario(
        name="sybil-waves",
        config=sybil_wave_config(),
        snapshot_count=6,
        clustering_samples=1500,
        max_links=600,
        max_edges=600,
        description="tiny workload plus Sybil infiltration waves (Section 6.3 attack)",
    ),
)
register_scenario(
    "churn",
    lambda: Scenario(
        name="churn",
        config=churn_config(),
        snapshot_count=6,
        clustering_samples=1500,
        max_links=600,
        max_edges=600,
        description="tiny workload with heavy attribute churn (users changing employers)",
    ),
)
register_scenario(
    "flash-crowd",
    lambda: Scenario(
        name="flash-crowd",
        config=flash_crowd_config(),
        snapshot_count=6,
        clustering_samples=1500,
        max_links=600,
        max_edges=600,
        description="tiny workload with arrival bursts breaking the three-phase schedule",
    ),
)
register_scenario(
    "privacy-heavy",
    lambda: Scenario(
        name="privacy-heavy",
        config=tiny_config(),
        snapshot_count=6,
        clustering_samples=1500,
        max_links=600,
        max_edges=600,
        privacy_hide_links=0.35,
        privacy_hide_attributes=0.25,
        description="tiny workload crawled under heavy privacy settings (hidden links)",
    ),
)
