"""Per-figure experiment drivers.

Each ``figure*`` / ``section*`` function reproduces the computation behind one
figure (or in-text result) of the paper's evaluation and returns plain Python
data (dicts of series / tables) that the benchmarks record under
``benchmarks/results/*.txt`` and the answer keys under
``benchmarks/keys/*.json`` check.  Inputs are the crawled snapshot series
and the ground-truth evolution produced by the synthetic Google+ substrate,
plus generated SANs for the model-evaluation figures.

Every driver doubles as a pipeline stage: the :func:`~.registry.experiment`
decorator declares which shared artifacts (:mod:`repro.experiments.artifacts`)
its leading positional arguments are, so ``repro pipeline`` can schedule the
whole suite over one artifact DAG.  Called directly, the functions behave as
before.  Sampled estimators default to the documented
:data:`~repro.experiments.scenarios.DEFAULT_FIGURE_SEED` (instead of system
entropy) so bare reruns are reproducible; pass ``rng=None`` explicitly to
sample from entropy.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..applications.anonymity import AnonymityParameters, attack_probability_vs_compromised
from ..applications.sybil import SybilLimitParameters, sybil_identities_vs_compromised
from ..algorithms.sampling import subsample_attributes
from ..crawler.snapshots import SnapshotSeries
from ..fitting.mle import (
    fit_lognormal_parameters_over_time,
    fit_power_law_exponent_over_time,
)
from ..fitting.model_selection import compare_distributions
from ..graph.frozen import sorted_membership
from ..graph.san import SAN
from ..metrics.attribute_metrics import (
    attribute_clustering_by_type,
    attribute_clustering_distribution,
    social_clustering_distribution,
)
from ..metrics.degrees import (
    attribute_degrees_of_social_nodes,
    log_binned_degree_distribution,
    positive_degrees,
    social_degrees_of_attribute_nodes,
    social_in_degrees,
    social_out_degrees,
)
from ..metrics.evolution import (
    assortativity_series,
    attribute_density_series,
    clustering_series,
    diameter_series,
    growth_series,
    reciprocity_series,
    social_density_series,
)
from ..metrics.influence import degree_by_top_attribute_values, reciprocity_boost_from_attributes
from ..metrics.joint_degree import attribute_knn, social_knn
from ..metrics.reciprocity import fine_grained_reciprocity
from ..models.history import ArrivalHistory, HistoryColumns
from ..models.fast_likelihood import DEFAULT_LIKELIHOOD_SEED
from ..models.likelihood import figure15_sweep
from ..models.triangle_closing import score_closures
from ..synthetic.gplus import GroundTruthEvolution
from ..utils.rng import RngLike, ensure_rng
from .registry import experiment
from .scenarios import DEFAULT_FIGURE_SEED

Snapshots = Sequence[Tuple[int, SAN]]


# ----------------------------------------------------------------------
# Section 2 / Figures 2-3: growth and crawl coverage
# ----------------------------------------------------------------------
# Growth reads O(1) counters only.  ``snapshots`` and ``frozen_snapshots``
# name the same canonical frozen graphs, memory views of the stored series.
@experiment("fig02_03", needs=("snapshots",))
def figure2_3_growth(snapshots: Snapshots) -> Dict[str, List[Tuple[int, float]]]:
    """Growth of social/attribute nodes and links over time."""
    return growth_series(snapshots)


@experiment("sec22", needs=("snapshot_series",))
def section22_crawl_coverage(series: SnapshotSeries) -> Dict[int, float]:
    """Crawl coverage per snapshot day (paper: >= 70%)."""
    return dict(series.coverage)


# ----------------------------------------------------------------------
# Figure 4: reciprocity, density, diameter, clustering evolution
# ----------------------------------------------------------------------
@experiment("fig04", needs=("frozen_snapshots",))
def figure4_evolution(
    snapshots: Snapshots,
    clustering_samples: int = 4000,
    diameter_precision: int = 6,
    rng: RngLike = DEFAULT_FIGURE_SEED,
) -> Dict[str, object]:
    """The four Figure 4 panels plus the Section 3.3 distance distribution."""
    generator = ensure_rng(rng)
    diameters = diameter_series(
        snapshots, precision=diameter_precision, num_attribute_pairs=60, rng=generator
    )
    return {
        "reciprocity": reciprocity_series(snapshots),
        "social_density": social_density_series(snapshots),
        "social_diameter": diameters["social"],
        "attribute_diameter": diameters["attribute"],
        "social_clustering": clustering_series(
            snapshots, kind="social", num_samples=clustering_samples, rng=generator
        ),
    }


# ----------------------------------------------------------------------
# Figures 5-6: social degree distributions and their lognormal fits
# ----------------------------------------------------------------------
@experiment("fig05", needs=("frozen_reference",))
def figure5_degree_distributions(san: SAN) -> Dict[str, object]:
    """Out/in-degree distributions with best-fit family and lognormal parameters."""
    result: Dict[str, object] = {}
    for name, degrees in (
        ("outdegree", social_out_degrees(san)),
        ("indegree", social_in_degrees(san)),
    ):
        positive = positive_degrees(degrees)
        comparison = compare_distributions(positive, compute_ks=False)
        lognormal, power = comparison.fits["lognormal"], comparison.fits["power_law"]
        result[name] = {
            "distribution": log_binned_degree_distribution(positive),
            "best_fit": comparison.best_name,
            "lognormal_mu": lognormal.distribution.mu,
            "lognormal_sigma": lognormal.distribution.sigma,
            "power_law_alpha": power.distribution.alpha,
            "lognormal_log_likelihood": lognormal.log_likelihood,
            "power_law_log_likelihood": power.log_likelihood,
        }
    return result


@experiment("fig06", needs=("frozen_snapshots",))
def figure6_lognormal_parameter_evolution(snapshots: Snapshots) -> Dict[str, List[Tuple[int, float, float]]]:
    """Evolution of the fitted lognormal (mu, sigma) for out/in degrees."""
    out_sequences = [(day, social_out_degrees(san)) for day, san in snapshots]
    in_sequences = [(day, social_in_degrees(san)) for day, san in snapshots]
    return {
        "outdegree": fit_lognormal_parameters_over_time(out_sequences),
        "indegree": fit_lognormal_parameters_over_time(in_sequences),
    }


# ----------------------------------------------------------------------
# Figures 7 and 12: joint degree distributions and assortativity
# ----------------------------------------------------------------------
@experiment("fig07", needs=("frozen_reference", "frozen_snapshots"))
def figure7_social_jdd(san: SAN, snapshots: Snapshots) -> Dict[str, object]:
    return {
        "knn": social_knn(san),
        "assortativity_evolution": assortativity_series(snapshots, kind="social"),
    }


@experiment("fig12", needs=("frozen_reference", "frozen_snapshots"))
def figure12_attribute_jdd(san: SAN, snapshots: Snapshots) -> Dict[str, object]:
    return {
        "knn": attribute_knn(san),
        "assortativity_evolution": assortativity_series(snapshots, kind="attribute"),
    }


# ----------------------------------------------------------------------
# Figures 8-9: attribute density / clustering structure
# ----------------------------------------------------------------------
@experiment("fig08", needs=("frozen_snapshots",))
def figure8_attribute_structure(
    snapshots: Snapshots,
    clustering_samples: int = 4000,
    rng: RngLike = DEFAULT_FIGURE_SEED,
) -> Dict[str, object]:
    generator = ensure_rng(rng)
    return {
        "attribute_density": attribute_density_series(snapshots),
        "attribute_clustering": clustering_series(
            snapshots, kind="attribute", num_samples=clustering_samples, rng=generator
        ),
    }


@experiment("fig09", needs=("frozen_reference",))
def figure9_clustering_distributions(
    san: SAN, subsample_keep: float = 0.5, rng: RngLike = DEFAULT_FIGURE_SEED
) -> Dict[str, object]:
    """Clustering coefficient vs degree, plus the Section 4.3 subsampling check."""
    generator = ensure_rng(rng)
    subsampled = subsample_attributes(san, keep_probability=subsample_keep, rng=generator)
    return {
        "social": social_clustering_distribution(san),
        "attribute": attribute_clustering_distribution(san),
        "attribute_subsampled": attribute_clustering_distribution(subsampled),
    }


# ----------------------------------------------------------------------
# Figures 10-11: attribute degree distributions and fits
# ----------------------------------------------------------------------
@experiment("fig10", needs=("frozen_reference",))
def figure10_attribute_degrees(san: SAN) -> Dict[str, object]:
    attribute_degrees = positive_degrees(attribute_degrees_of_social_nodes(san))
    attribute_social = positive_degrees(social_degrees_of_attribute_nodes(san))
    degree_comparison = compare_distributions(attribute_degrees, compute_ks=False)
    social_comparison = compare_distributions(attribute_social, compute_ks=False)
    lognormal = degree_comparison.fits["lognormal"]
    power = social_comparison.fits["power_law"]
    return {
        "attribute_degree": {
            "distribution": log_binned_degree_distribution(attribute_degrees),
            "best_fit": degree_comparison.best_name,
            "lognormal_mu": lognormal.distribution.mu,
            "lognormal_sigma": lognormal.distribution.sigma,
        },
        "attribute_social_degree": {
            "distribution": log_binned_degree_distribution(attribute_social),
            "best_fit": social_comparison.best_name,
            "power_law_alpha": power.distribution.alpha,
        },
    }


@experiment("fig11", needs=("frozen_snapshots",))
def figure11_attribute_fit_evolution(snapshots: Snapshots) -> Dict[str, object]:
    attr_sequences = [(day, attribute_degrees_of_social_nodes(san)) for day, san in snapshots]
    social_sequences = [(day, social_degrees_of_attribute_nodes(san)) for day, san in snapshots]
    return {
        "attribute_degree_lognormal": fit_lognormal_parameters_over_time(attr_sequences),
        "attribute_social_degree_alpha": fit_power_law_exponent_over_time(social_sequences),
    }


# ----------------------------------------------------------------------
# Figures 13-14: influence of attributes on the social structure
# ----------------------------------------------------------------------
@experiment("fig13", needs=("halfway_san", "reference_san"))
def figure13_influence(earlier: SAN, later: SAN) -> Dict[str, object]:
    fine = fine_grained_reciprocity(earlier, later)
    return {
        "reciprocity_curves": {
            bucket: fine.series_for_attribute_bucket(bucket) for bucket in (0, 1, 2)
        },
        "reciprocity_by_bucket": {
            bucket: fine.average_rate_for_attribute_bucket(bucket) for bucket in (0, 1, 2)
        },
        "attribute_boost": reciprocity_boost_from_attributes(fine),
        "clustering_by_type": attribute_clustering_by_type(later),
    }


@experiment("fig14", needs=("reference_san",))
def figure14_degree_by_attribute_value(san: SAN, top_values: int = 4) -> Dict[str, object]:
    return {
        attr_type: [
            {
                "value": entry.value,
                "num_users": entry.num_users,
                "p25": entry.percentile_25,
                "median": entry.median,
                "p75": entry.percentile_75,
                "mean": entry.mean,
            }
            for entry in degree_by_top_attribute_values(san, attr_type, count=top_values)
        ]
        for attr_type in ("employer", "major")
    }


# ----------------------------------------------------------------------
# Figure 15 and Section 5.2: attachment and closure model comparisons
# ----------------------------------------------------------------------
@experiment("fig15", needs=("arrival_history",))
def figure15_attachment_comparison(
    history: Union[ArrivalHistory, HistoryColumns],
    alphas: Sequence[float] = (0.0, 0.5, 1.0, 1.5, 2.0),
    papa_betas: Sequence[float] = (0.0, 2.0, 4.0, 6.0, 8.0),
    lapa_betas: Sequence[float] = (0.0, 10.0, 100.0, 200.0, 500.0),
    max_links: int = 1500,
    rng: RngLike = DEFAULT_LIKELIHOOD_SEED,
) -> Dict[str, object]:
    return figure15_sweep(
        history,
        alphas=alphas,
        papa_betas=papa_betas,
        lapa_betas=lapa_betas,
        max_links=max_links,
        rng=rng,
    )


@experiment("sec52", needs=("evolution",))
def section52_closure_comparison(
    evolution: GroundTruthEvolution,
    split_day: Optional[int] = None,
    max_edges: int = 1500,
    focal_weight: float = 1.0,
    rng: RngLike = DEFAULT_FIGURE_SEED,
) -> Dict[str, object]:
    """Closure-type breakdown plus the Baseline / RR / RR-SAN comparison.

    The split-day state is a frozen SAN, so classifying every candidate and
    scoring the sampled closures is one batched :func:`score_closures` call.
    The candidates are the later links between users of that state that it
    does not already hold.
    """
    generator = ensure_rng(rng)
    if split_day is None:
        split_day = evolution.num_days // 2
    states = evolution.frozen_snapshots([split_day])
    if not states:
        raise ValueError(f"split_day must be in [1, {evolution.num_days}], got {split_day}")
    state = states[0][1]
    # Users are ids 0..n-1 in join order: a masked slice of the log's columns.
    sources, targets = evolution.new_social_links_between(split_day, evolution.num_days)
    n = state.number_of_social_nodes()
    state_sources, state_targets = state.social.edge_arrays()
    keep = (sources < n) & (targets < n) & (sources != targets)
    keep[keep] = ~sorted_membership(
        state_sources * n + state_targets, sources[keep] * n + targets[keep]
    )
    candidates = list(zip(sources[keep].tolist(), targets[keep].tolist()))
    scores = score_closures(state, candidates, attribute_weight=focal_weight)
    breakdown = scores.breakdown()
    if len(candidates) > max_edges:
        scores = scores.take(sorted(generator.sample(range(len(candidates)), max_edges)))
    comparison = scores.comparison()
    return {
        "breakdown": {
            "total": breakdown.total,
            "triadic_fraction": breakdown.triadic_fraction,
            "focal_fraction": breakdown.focal_fraction,
            "both_fraction": breakdown.both_fraction,
        },
        "average_log_probabilities": comparison.average_log_probabilities,
        "rr_vs_baseline_improvement": comparison.relative_improvement(
            "random_random", "baseline"
        ),
        "rr_san_vs_rr_improvement": comparison.relative_improvement(
            "rr_san", "random_random"
        ),
        "num_edges_scored": comparison.num_edges_scored,
    }


# ----------------------------------------------------------------------
# Figures 16-18: model vs Zhel vs ablations on network metrics
# ----------------------------------------------------------------------
def _degree_fit_summary(san: SAN) -> Dict[str, object]:
    summary: Dict[str, object] = {}
    for name, degrees in (
        ("outdegree", social_out_degrees(san)),
        ("indegree", social_in_degrees(san)),
        ("attribute_degree", attribute_degrees_of_social_nodes(san)),
        ("attribute_social_degree", social_degrees_of_attribute_nodes(san)),
    ):
        positive = positive_degrees(degrees)
        if positive.size < 10:
            summary[name] = {"best_fit": "insufficient_data"}
            continue
        comparison = compare_distributions(positive, compute_ks=False)
        lognormal, power = comparison.fits["lognormal"], comparison.fits["power_law"]
        summary[name] = {
            "best_fit": comparison.best_name,
            "lognormal_mu": lognormal.distribution.mu,
            "lognormal_sigma": lognormal.distribution.sigma,
            "power_law_alpha": power.distribution.alpha,
            "lognormal_minus_power_ll": lognormal.log_likelihood - power.log_likelihood,
        }
    return summary


@experiment("fig16", needs=("frozen_reference", "frozen_model_san", "frozen_zhel_san"))
def figure16_model_degree_distributions(
    reference: SAN, model_san: SAN, zhel_san: SAN
) -> Dict[str, object]:
    """Degree-distribution fits for the reference, our model, and Zhel."""
    return {
        "reference": _degree_fit_summary(reference),
        "san_model": _degree_fit_summary(model_san),
        "zhel": _degree_fit_summary(zhel_san),
    }


@experiment("fig17", needs=("frozen_model_san", "frozen_zhel_san", "frozen_reference"))
def figure17_jdd_and_clustering(model_san: SAN, zhel_san: SAN, reference: SAN) -> Dict[str, object]:
    return {
        "reference": {
            "attribute_knn": attribute_knn(reference),
            "social_clustering": social_clustering_distribution(reference),
            "attribute_clustering": attribute_clustering_distribution(reference),
        },
        "san_model": {
            "attribute_knn": attribute_knn(model_san),
            "social_clustering": social_clustering_distribution(model_san),
            "attribute_clustering": attribute_clustering_distribution(model_san),
        },
        "zhel": {
            "attribute_knn": attribute_knn(zhel_san),
            "social_clustering": social_clustering_distribution(zhel_san),
            "attribute_clustering": attribute_clustering_distribution(zhel_san),
        },
    }


@experiment("fig18", needs=("frozen_model_san", "frozen_model_no_lapa_san", "frozen_model_no_focal_san"))
def figure18_ablations(full_san: SAN, no_lapa_san: SAN, no_focal_san: SAN) -> Dict[str, object]:
    """Effect of removing LAPA (in-degree family) and focal closure (attribute clustering)."""

    def indegree_fits(san: SAN) -> Dict[str, float]:
        degrees = positive_degrees(social_in_degrees(san))
        comparison = compare_distributions(degrees, compute_ks=False)
        lognormal, power = comparison.fits["lognormal"], comparison.fits["power_law"]
        return {
            "best_fit": comparison.best_name,
            "lognormal_minus_power_ll": lognormal.log_likelihood - power.log_likelihood,
        }

    def mean_attribute_clustering(san: SAN) -> float:
        points = attribute_clustering_distribution(san)
        if not points:
            return 0.0
        return sum(value for _, value in points) / len(points)

    return {
        "full": {
            "indegree": indegree_fits(full_san),
            "mean_attribute_clustering": mean_attribute_clustering(full_san),
        },
        "without_lapa": {
            "indegree": indegree_fits(no_lapa_san),
            "mean_attribute_clustering": mean_attribute_clustering(no_lapa_san),
        },
        "without_focal_closure": {
            "indegree": indegree_fits(no_focal_san),
            "mean_attribute_clustering": mean_attribute_clustering(no_focal_san),
        },
    }


# ----------------------------------------------------------------------
# Figure 19: application fidelity
# ----------------------------------------------------------------------
@experiment("fig19", needs=("frozen_reference", "frozen_model_san", "frozen_zhel_san", "frozen_model_no_focal_san"))
def figure19_applications(
    reference: SAN,
    model_san: SAN,
    zhel_san: SAN,
    model_no_focal_san: Optional[SAN] = None,
    compromised_counts: Optional[Sequence[int]] = None,
    rng: RngLike = DEFAULT_FIGURE_SEED,
) -> Dict[str, object]:
    """SybilLimit and anonymous-communication comparisons across topologies."""
    generator = ensure_rng(rng)
    if compromised_counts is None:
        size = reference.number_of_social_nodes()
        compromised_counts = [max(1, int(size * fraction)) for fraction in (0.01, 0.02, 0.05, 0.1)]
    topologies: Dict[str, SAN] = {
        "google_plus": reference,
        "san_model_fc": model_san,
        "zhel": zhel_san,
    }
    if model_no_focal_san is not None:
        topologies["san_model_fc0"] = model_no_focal_san

    sybil_params = SybilLimitParameters()
    anonymity_params = AnonymityParameters(num_circuits=1500)
    sybil: Dict[str, List[Tuple[int, float]]] = {}
    anonymity: Dict[str, List[Tuple[int, float]]] = {}
    for name, san in topologies.items():
        sybil[name] = [
            (result.num_compromised, result.num_sybil_identities)
            for result in sybil_identities_vs_compromised(
                san, compromised_counts, params=sybil_params, rng=generator
            )
        ]
        anonymity[name] = [
            (result.num_compromised, result.attack_probability)
            for result in attack_probability_vs_compromised(
                san, compromised_counts, params=anonymity_params, rng=generator
            )
        ]

    def relative_error(series: Dict[str, List[Tuple[int, float]]], candidate: str) -> float:
        reference_values = [value for _, value in series["google_plus"]]
        candidate_values = [value for _, value in series[candidate]]
        errors = []
        for ref, cand in zip(reference_values, candidate_values):
            if ref > 0:
                errors.append(abs(cand - ref) / ref)
        return sum(errors) / len(errors) if errors else 0.0

    errors = {
        "sybil": {name: relative_error(sybil, name) for name in topologies if name != "google_plus"},
        "anonymity": {
            name: relative_error(anonymity, name) for name in topologies if name != "google_plus"
        },
    }
    return {"sybil": sybil, "anonymity": anonymity, "relative_errors": errors}
