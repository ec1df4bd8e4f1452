"""Log-likelihood evaluation of attachment models on observed link arrivals.

This reproduces the Figure 15 methodology: given an arrival history, each new
social link ``u -> v`` contributes ``log( f(u, v) / sum_x f(u, x) )`` where the
sum runs over every social node existing at that moment (excluding ``u``), and
``f`` is the attachment model's weight.  The relative improvement of a model
over classical PA is then ``(l_PA - l_model) / l_PA`` (log-likelihoods are
negative, so positive numbers mean the model explains the arrivals better).

There are two implementations, sharing one scored-link selection stream
(same seed, same scored links):

* :func:`evaluate_attachment_models_loop` (this module) — the exact-parity
  reference.  It replays the history through a mutable dict-backed SAN while
  maintaining, for every requested ``alpha``, the running sum
  ``S_alpha = sum_x (d_i(x) + s)^alpha``, so each evaluated link only needs
  the attribute-community correction term, iterated per member in Python.
* :func:`~repro.models.fast_likelihood.evaluate_attachment_models_fast` —
  encodes the history into flat int arrays once, reconstructs every
  ``S_alpha`` prefix with one cumulative sum, and scores the sampled links in
  batches across the whole (kind, alpha, beta) spec grid via numpy
  broadcasting over a CSR attribute-membership layout.

:func:`evaluate_attachment_models` and :func:`figure15_sweep` always run the
vectorized one; the tests and ``benchmarks/bench_likelihood.py`` call the
loop reference by name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

from ..graph.san import SAN
from ..utils.rng import RngLike, ensure_rng
from .history import EVENT_ATTRIBUTE, EVENT_NODE, ArrivalHistory, apply_event

Node = Hashable

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


def evaluate_attachment_models_loop(
    history: ArrivalHistory,
    specs: Sequence[AttachmentModelSpec],
    smoothing: float = 1.0,
    max_links: Optional[int] = 2000,
    rng: RngLike = DEFAULT_LIKELIHOOD_SEED,
) -> LikelihoodResult:
    """The reference implementation: replay through a mutable SAN, score per member.

    ``max_links`` subsamples the scored links uniformly (all links are still
    replayed to keep the state evolution faithful); pass ``None`` to score all.
    One uniform variate is consumed per social-link event, which is the
    contract that keeps the scored-link set identical across implementations
    for a given seed.
    """
    generator = ensure_rng(rng)
    total_links = history.num_social_links()
    if total_links == 0:
        raise ValueError("the arrival history contains no social link events")
    if max_links is None or max_links >= total_links:
        score_probability = 1.0
    else:
        score_probability = max_links / total_links

    alphas = sorted({spec.alpha for spec in specs})
    state = history.initial.copy()

    # Running structures: in-degree of each node and sum over nodes of
    # (d_i + smoothing)^alpha for every requested alpha.
    in_degree: Dict[Node, int] = {
        node: state.social_in_degree(node) for node in state.social_nodes()
    }
    alpha_sums: Dict[float, float] = {
        alpha: sum((degree + smoothing) ** alpha for degree in in_degree.values())
        for alpha in alphas
    }

    log_likelihoods = {spec.name: 0.0 for spec in specs}
    scored = 0

    def register_node(node: Node) -> None:
        if node in in_degree:
            return
        in_degree[node] = 0
        for alpha in alphas:
            alpha_sums[alpha] += smoothing ** alpha

    def register_social_edge(source: Node, target: Node) -> None:
        register_node(source)
        register_node(target)
        old_degree = in_degree[target]
        if state.has_social_edge(source, target):
            return
        in_degree[target] = old_degree + 1
        for alpha in alphas:
            alpha_sums[alpha] += (old_degree + 1 + smoothing) ** alpha - (
                old_degree + smoothing
            ) ** alpha

    for event in history.events:
        if event.kind == EVENT_NODE:
            register_node(event.first)
            apply_event(state, event)
            continue
        if event.kind == EVENT_ATTRIBUTE:
            register_node(event.first)
            apply_event(state, event)
            continue

        source, target = event.first, event.second
        register_node(source)
        register_node(target)
        if (
            generator.random() < score_probability
            and state.is_social_node(target)
            and not state.has_social_edge(source, target)
            and source != target
        ):
            _score_link(
                state,
                source,
                target,
                specs,
                smoothing,
                in_degree,
                alpha_sums,
                log_likelihoods,
            )
            scored += 1
        register_social_edge(source, target)
        apply_event(state, event)

    if scored == 0:
        raise ValueError("no social links were scored; increase max_links")
    return LikelihoodResult(log_likelihoods=log_likelihoods, num_links_scored=scored)


def _score_link(
    state: SAN,
    source: Node,
    target: Node,
    specs: Sequence[AttachmentModelSpec],
    smoothing: float,
    in_degree: Dict[Node, int],
    alpha_sums: Dict[float, float],
    log_likelihoods: Dict[str, float],
) -> None:
    """Add one link's log-probability to every model's running total."""
    # Shared-attribute counts between the source and every member of its
    # attribute communities (all other nodes share zero attributes).
    shared_counts: Dict[Node, int] = {}
    for attribute in state.attribute_neighbors(source):
        for member in state.attributes.members_of(attribute):
            if member == source:
                continue
            shared_counts[member] = shared_counts.get(member, 0) + 1

    source_term: Dict[float, float] = {}
    for spec in specs:
        alpha = spec.alpha
        # Denominator base: sum over all nodes except the source itself.
        if alpha not in source_term:
            source_term[alpha] = (in_degree.get(source, 0) + smoothing) ** alpha
        base = alpha_sums[alpha] - source_term[alpha]
        if spec.kind in ("lapa", "papa") and spec.beta > 0:
            correction = 0.0
            for member, shared in shared_counts.items():
                weight = (in_degree.get(member, 0) + smoothing) ** alpha
                correction += weight * (spec.attribute_factor(shared) - 1.0)
            denominator = base + correction
        elif spec.kind == "papa" and spec.beta == 0:
            denominator = 2.0 * base
        else:
            denominator = base
        shared_with_target = shared_counts.get(target, 0)
        numerator = (
            (in_degree.get(target, 0) + smoothing) ** alpha
        ) * spec.attribute_factor(float(shared_with_target))
        if numerator <= 0 or denominator <= 0:
            continue
        log_likelihoods[spec.name] += math.log(numerator / denominator)


def evaluate_attachment_models(
    history: ArrivalHistory,
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

    Runs the vectorized
    :func:`~repro.models.fast_likelihood.evaluate_attachment_models_fast`;
    :func:`evaluate_attachment_models_loop` is its exact-parity reference.
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
    history: ArrivalHistory,
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
