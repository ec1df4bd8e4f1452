"""Parameter estimation: fit generative-model parameters to a reference SAN.

The paper uses a "guided greedy search" to choose model parameters that make
the generated SAN match a Google+ snapshot.  The estimator here inverts the
model's theory in closed form instead:

* lognormal fit of the reference out-degrees + Theorem 1 → lifetime
  parameters;
* lognormal fit of the reference attribute degrees → (mu_a, sigma_a);
* power-law fit of the reference attribute social degrees + Theorem 2 →
  the new-attribute probability ``p``;
* measured reciprocity → the reciprocation probability.

The attachment step is LAPA with the caller's ``beta``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional

from ..fitting.mle import fit_lognormal, fit_power_law
from ..graph.san import SAN
from ..metrics.degrees import (
    attribute_degrees_of_social_nodes,
    positive_degrees,
    social_degrees_of_attribute_nodes,
    social_out_degrees,
)
from ..metrics.reciprocity import global_reciprocity
from .parameters import AttachmentParameters, SANModelParameters
from .theory import invert_theorem_one, invert_theorem_two


@dataclass
class EstimationResult:
    """Estimated parameters plus the diagnostics collected along the way."""

    parameters: SANModelParameters
    diagnostics: Dict[str, float]


def estimate_parameters(
    reference: SAN,
    mean_sleep: float = 2.0,
    beta: float = 200.0,
    steps: Optional[int] = None,
) -> EstimationResult:
    """Closed-form initial estimate of the generative-model parameters."""
    out_degrees = positive_degrees(social_out_degrees(reference))
    attribute_degrees = positive_degrees(attribute_degrees_of_social_nodes(reference))
    attribute_social_degrees = positive_degrees(social_degrees_of_attribute_nodes(reference))
    diagnostics: Dict[str, float] = {}

    if len(out_degrees) >= 10:
        out_fit = fit_lognormal(out_degrees)
        target_mu = out_fit.distribution.mu
        target_sigma = out_fit.distribution.sigma
    else:
        target_mu, target_sigma = 1.5, 1.0
    diagnostics["outdegree_mu"] = target_mu
    diagnostics["outdegree_sigma"] = target_sigma
    lifetime = invert_theorem_one(target_mu, target_sigma, mean_sleep=mean_sleep)

    if len(attribute_degrees) >= 10:
        attr_fit = fit_lognormal(attribute_degrees)
        attribute_mu = attr_fit.distribution.mu
        attribute_sigma = max(attr_fit.distribution.sigma, 0.1)
    else:
        attribute_mu, attribute_sigma = 1.0, 0.8
    diagnostics["attribute_mu"] = attribute_mu
    diagnostics["attribute_sigma"] = attribute_sigma

    # Each attribute node is created by exactly one attribute link, so the
    # fraction of links that spawned a new node is a direct moment estimator of
    # ``p`` (more robust at small scale than inverting the fitted exponent,
    # which is extremely sensitive near alpha = 2).  Theorem 2 provides the
    # independent cross-check: the fitted attribute-social-degree exponent
    # inverts to ``p = (exponent - 2) / (exponent - 1)``, and that inversion
    # takes over whenever the moment estimator is degenerate (no attribute
    # links, or a ratio clamped at the admissible bounds).
    num_attribute_links = reference.number_of_attribute_edges()
    if num_attribute_links > 0:
        moment_probability: Optional[float] = (
            reference.number_of_attribute_nodes() / num_attribute_links
        )
    else:
        moment_probability = None
    if len(attribute_social_degrees) >= 10:
        exponent = fit_power_law(attribute_social_degrees).distribution.alpha
    else:
        exponent = 2.33
    diagnostics["attribute_social_degree_exponent"] = exponent
    theorem_probability = invert_theorem_two(exponent) if exponent > 2.0 else None

    probability_floor, probability_ceiling = 0.02, 0.9
    moment_degenerate = (
        moment_probability is None
        or moment_probability <= probability_floor
        or moment_probability >= probability_ceiling
    )
    if moment_degenerate and theorem_probability is not None:
        new_attribute_probability = theorem_probability
        from_theorem = 1.0
    elif moment_probability is not None:
        new_attribute_probability = moment_probability
        from_theorem = 0.0
    else:
        new_attribute_probability = 0.25
        from_theorem = 0.0
    new_attribute_probability = min(
        max(new_attribute_probability, probability_floor), probability_ceiling
    )
    diagnostics["new_attribute_probability_moment"] = (
        moment_probability if moment_probability is not None else math.nan
    )
    diagnostics["new_attribute_probability_theorem2"] = (
        theorem_probability if theorem_probability is not None else math.nan
    )
    diagnostics["new_attribute_probability_from_theorem2"] = from_theorem

    reciprocity = global_reciprocity(reference)
    diagnostics["reciprocity"] = reciprocity

    if steps is None:
        steps = max(200, reference.number_of_social_nodes())

    parameters = SANModelParameters(
        steps=steps,
        attribute_mu=attribute_mu,
        attribute_sigma=attribute_sigma,
        new_attribute_probability=new_attribute_probability,
        attachment=AttachmentParameters(beta=beta),
        lifetime=lifetime,
        reciprocation_probability=min(max(reciprocity, 0.0), 1.0),
    )
    return EstimationResult(parameters=parameters, diagnostics=diagnostics)
