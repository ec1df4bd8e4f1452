"""Log-likelihood evaluation of attachment models on observed link arrivals.

This reproduces the Figure 15 methodology: given an arrival history, each new
social link ``u -> v`` contributes ``log( f(u, v) / sum_x f(u, x) )`` where the
sum runs over every social node existing at that moment (excluding ``u``), and
``f`` is the attachment model's weight.  The relative improvement of a model
over classical PA is then ``(l_PA - l_model) / l_PA`` (log-likelihoods are
negative, so positive numbers mean the model explains the arrivals better).

This module holds the model specs, the result type and the Figure 15 sweep;
the scoring itself runs on flat arrays in
:func:`~repro.models.fast_likelihood.evaluate_attachment_models_fast`.  A
per-link, per-member replay through a mutable SAN lives beside the tests
(``tests/model_reference.py``); it draws the same scored-link subsample, so
the two must agree to float round-off.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..utils.rng import RngLike
from .history import ArrivalHistory, HistoryColumns

#: Default subsample seed.  The scored-link subsample (``max_links``) must be
#: reproducible by default — a system-entropy default made every reported
#: improvement number drift run to run.  Pass ``random.Random()`` explicitly
#: for non-deterministic subsampling.
DEFAULT_LIKELIHOOD_SEED = 15


@dataclass(frozen=True)
class AttachmentModelSpec:
    """A (family, alpha, beta) triple to score against the arrival history."""

    kind: str  # "pa", "papa", or "lapa" ("pa" ignores beta)
    alpha: float
    beta: float = 0.0
    label: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in ("pa", "papa", "lapa"):
            raise ValueError(
                f"AttachmentModelSpec.kind must be 'pa', 'papa' or 'lapa', got {self.kind!r}"
            )

    @property
    def name(self) -> str:
        if self.label is not None:
            return self.label
        # Include the family even when beta == 0 so every spec in a sweep has a
        # distinct log-likelihood slot (PAPA and LAPA with beta = 0 are both
        # proportional to PA, but they are separate grid entries).
        return f"{self.kind}(alpha={self.alpha:g}, beta={self.beta:g})"

    def attribute_factor(self, shared: float) -> float:
        """The model's multiplicative attribute term ``1 + g(a(u, v))``."""
        if self.kind == "lapa":
            return 1.0 + self.beta * shared
        if self.kind == "papa":
            if self.beta == 0:
                return 2.0
            return 1.0 + (shared ** self.beta if shared > 0 else 0.0)
        return 1.0


@dataclass
class LikelihoodResult:
    """Total log-likelihood of each model plus the number of scored links."""

    log_likelihoods: Dict[str, float]
    num_links_scored: int

    def relative_improvement_over(self, baseline_name: str) -> Dict[str, float]:
        """``(l_baseline - l_model) / l_baseline`` for every model (Figure 15)."""
        baseline = self.log_likelihoods[baseline_name]
        if baseline == 0:
            raise ValueError("baseline log-likelihood is zero; cannot normalise")
        return {
            name: (baseline - value) / baseline
            for name, value in self.log_likelihoods.items()
        }


def evaluate_attachment_models(
    history: Union[ArrivalHistory, HistoryColumns],
    specs: Sequence[AttachmentModelSpec],
    smoothing: float = 1.0,
    max_links: Optional[int] = 2000,
    rng: RngLike = DEFAULT_LIKELIHOOD_SEED,
) -> LikelihoodResult:
    """Score attachment model specs against the social-link arrivals in ``history``.

    ``max_links`` subsamples the scored links uniformly (all links are still
    replayed to keep the state evolution faithful); pass ``None`` to score all.
    The subsample is seeded (:data:`DEFAULT_LIKELIHOOD_SEED`) so repeated
    evaluations agree by default.

    Runs :func:`~repro.models.fast_likelihood.evaluate_attachment_models_fast`.
    """
    from .fast_likelihood import evaluate_attachment_models_fast

    return evaluate_attachment_models_fast(
        history, specs, smoothing=smoothing, max_links=max_links, rng=rng
    )


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
