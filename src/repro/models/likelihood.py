"""Log-likelihood evaluation of attachment models on observed link arrivals.

This reproduces the Figure 15 methodology: given an arrival history, each new
social link ``u -> v`` contributes ``log( f(u, v) / sum_x f(u, x) )`` where the
sum runs over every social node existing at that moment (excluding ``u``), and
``f`` is the attachment model's weight.  The relative improvement of a model
over classical PA is then ``(l_PA - l_model) / l_PA`` (log-likelihoods are
negative, so positive numbers mean the model explains the arrivals better).

This module holds the Figure 15 sweep.  The model specs, the result type
and the scorer, :func:`~repro.models.fast_likelihood.evaluate_attachment_models`,
which runs on flat arrays, live in :mod:`repro.models.fast_likelihood`.  A
per-link, per-member replay through a mutable SAN lives beside the tests
(``tests/model_reference.py``); it draws the same scored-link subsample, so
the two must agree to float round-off.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple, Union

from ..utils.rng import RngLike
from .fast_likelihood import (
    DEFAULT_LIKELIHOOD_SEED,
    AttachmentModelSpec,
    LikelihoodResult,
    evaluate_attachment_models,
)
from .history import ArrivalHistory, HistoryColumns

def figure15_specs(
    alphas: Iterable[float] = (0.0, 0.5, 1.0, 1.5, 2.0),
    papa_betas: Iterable[float] = (0.0, 2.0, 4.0, 6.0, 8.0),
    lapa_betas: Iterable[float] = (0.0, 10.0, 100.0, 200.0, 500.0),
) -> List[AttachmentModelSpec]:
    """The Figure 15 spec grid plus the PA and uniform reference models."""
    specs: List[AttachmentModelSpec] = [
        AttachmentModelSpec(kind="pa", alpha=1.0, beta=0.0, label="pa_reference"),
        AttachmentModelSpec(kind="pa", alpha=0.0, beta=0.0, label="uniform_reference"),
    ]
    for alpha in alphas:
        for beta in papa_betas:
            specs.append(AttachmentModelSpec(kind="papa", alpha=alpha, beta=beta))
        for beta in lapa_betas:
            specs.append(AttachmentModelSpec(kind="lapa", alpha=alpha, beta=beta))
    return specs


def figure15_sweep(
    history: Union[ArrivalHistory, HistoryColumns],
    alphas: Iterable[float] = (0.0, 0.5, 1.0, 1.5, 2.0),
    papa_betas: Iterable[float] = (0.0, 2.0, 4.0, 6.0, 8.0),
    lapa_betas: Iterable[float] = (0.0, 10.0, 100.0, 200.0, 500.0),
    smoothing: float = 1.0,
    max_links: Optional[int] = 2000,
    rng: RngLike = DEFAULT_LIKELIHOOD_SEED,
) -> Dict[str, Dict[Tuple[float, float], float]]:
    """The full Figure 15 sweep: relative improvement over PA for PAPA and LAPA.

    Returns ``{"papa": {(alpha, beta): improvement}, "lapa": {...},
    "pa_over_uniform": improvement_of_pa_over_uniform,
    "num_links_scored": count}`` where improvements are relative to the PA
    model (alpha = 1, beta = 0), matching the paper's definition.  Same-seed
    sweeps are bit-identical.
    """
    specs = figure15_specs(alphas, papa_betas, lapa_betas)

    result = evaluate_attachment_models(
        history, specs, smoothing=smoothing, max_links=max_links, rng=rng
    )
    improvements = result.relative_improvement_over("pa_reference")

    papa_grid: Dict[Tuple[float, float], float] = {}
    lapa_grid: Dict[Tuple[float, float], float] = {}
    for spec in specs:
        if spec.label is not None:
            continue
        grid = papa_grid if spec.kind == "papa" else lapa_grid
        grid[(spec.alpha, spec.beta)] = improvements[spec.name]
    return {
        "papa": papa_grid,
        "lapa": lapa_grid,
        "pa_over_uniform": _pa_over_uniform(result),
        "num_links_scored": result.num_links_scored,
    }


def _pa_over_uniform(result: LikelihoodResult) -> float:
    """Relative improvement of PA(alpha=1) over the uniform model."""
    uniform = result.log_likelihoods["uniform_reference"]
    pa = result.log_likelihoods["pa_reference"]
    if uniform == 0:
        return 0.0
    return (uniform - pa) / uniform


__all__ = ["figure15_specs", "figure15_sweep"]
