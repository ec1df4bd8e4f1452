"""Maximum-likelihood fits for the candidate degree distributions.

Each ``fit_*`` function takes an integer sample (degrees >= xmin are used, the
rest discarded) and returns the fitted distribution object together with its
log-likelihood so the model-selection layer can compare candidates.

The power law, the lognormal and the power law with cutoff are exponential
families on ``{xmin, xmin+1, ...}``, with sufficient statistics ``ln k``,
``(ln k, (ln k)^2)`` and ``(ln k, k)``.  Each negative log-likelihood is
therefore convex in the family's natural parameters, its gradient is n times
the gap between the statistics' model and sample means, and its Hessian is n
times their model covariance.  The sample is reduced to those statistics
once; each iterate of the damped Newton solver :func:`_newton` then costs one
pass of the family's ``_moments`` (see :mod:`repro.fitting.distributions`),
which yields the normaliser, the means and the covariance together.  The
solver returns the optimum over a documented box of parameters:

* power law: ``1.01 <= alpha <= 6``;
* lognormal: ``|mu - m| <= 4.5`` around the sample mean ``m`` of ``ln k``,
  and ``sigma >= 0.05``;
* power law with cutoff: ``alpha >= 0.05`` and ``lambda >= 1e-7``.

The exponential family needs no search: its maximum is the closed-form
geometric estimate.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from .distributions import (
    DiscreteExponential,
    DiscreteLognormal,
    PowerLaw,
    PowerLawWithCutoff,
)

#: The power-law exponent's box.
ALPHA_RANGE = (1.01, 6.0)
#: The lognormal's box: mu within this of the sample mean of ln k ...
MU_REACH = 4.5
#: ... and sigma at least this.
SIGMA_MIN = 0.05
#: The cutoff's lower bounds on alpha and lambda.
CUTOFF_MIN = (0.05, 1e-7)


@dataclass(frozen=True)
class FitResult:
    """A fitted distribution plus the log-likelihood it achieves on the data."""

    distribution: object
    log_likelihood: float
    num_samples: int

    @property
    def name(self) -> str:
        return self.distribution.name

    def parameters(self) -> Dict[str, float]:
        return self.distribution.parameters()

    @property
    def aic(self) -> float:
        """Akaike information criterion (2k - 2 lnL) with k free parameters."""
        num_parameters = len(self.distribution.parameters()) - 1  # xmin is fixed
        return 2 * num_parameters - 2 * self.log_likelihood


def _clean(values: Sequence[int], xmin: int) -> np.ndarray:
    data = np.asarray(values)
    data = data[data >= xmin].astype(int)
    if data.size == 0:
        raise ValueError(f"no samples >= xmin={xmin}")
    return data


def _csn_exponent(data: np.ndarray, xmin: int) -> float:
    """The Clauset-Shalizi-Newman estimate ``alpha = 1 + n / sum(ln(k / (xmin - 0.5)))``."""
    total = float(np.sum(np.log(data / (xmin - 0.5))))
    return 1.0 + data.size / total if total > 0 else 3.5


def fit_power_law(values: Sequence[int], xmin: int = 1) -> FitResult:
    """MLE power-law exponent, on the exact discrete likelihood.

    ``-ln L = alpha sum ln k + n ln zeta(alpha, xmin)``, minimised over
    :data:`ALPHA_RANGE` from the Clauset-Shalizi-Newman estimate.
    """
    data = _clean(values, xmin)
    count = data.size
    log_sum = float(np.sum(np.log(data)))

    def evaluate(theta: Vector):
        (alpha,) = theta
        log_z, moments = PowerLaw(alpha=alpha, xmin=xmin)._moments(statistics=True)
        mean, square = map(float, moments)
        variance = square - mean * mean
        return alpha * log_sum + count * log_z, (log_sum - count * mean,), ((count * variance,),)

    low, high = ALPHA_RANGE
    start = min(max(_csn_exponent(data, xmin), low), high)
    (alpha,), value = _newton(evaluate, (start,), ((1.0,), (-1.0,)), (high, -low))
    return FitResult(PowerLaw(alpha=alpha, xmin=xmin), -value, count)


def fit_lognormal(values: Sequence[int], xmin: int = 1) -> FitResult:
    """MLE fit of the discrete lognormal (mu, sigma).

    With ``d = ln k - m`` centred on the sample mean ``m`` of ``ln k``, the
    log weight is ``-ln k + theta_1 d + theta_2 d^2`` up to a constant, for
    natural parameters ``theta_1 = (mu - m) / sigma^2`` and ``theta_2 = -1 /
    (2 sigma^2)``, and the likelihood depends on the sample only through n,
    the sum of ``ln k`` and the spread of ``ln k`` about ``m``.  The box
    ``sigma >= 0.05``, ``|mu - m| <= 4.5`` is three half-planes in theta.
    The search starts at the moments of ``ln k``.
    """
    data = _clean(values, xmin)
    logs = np.log(data)
    count = data.size
    center = float(np.mean(logs))
    log_sum = float(np.sum(logs))
    spread = float(np.sum((logs - center) ** 2))

    def evaluate(theta: Vector):
        linear, quadratic = theta
        if not quadratic < 0:
            return math.inf, None, None
        variance = -0.5 / quadratic
        offset = linear * variance
        log_z, moments = DiscreteLognormal(
            mu=center + offset, sigma=math.sqrt(variance), xmin=xmin
        )._moments(center=center, order=4)
        m1, m2, m3, m4 = map(float, moments)
        # -sum(log_pmf) = sum ln k + sum (ln k - mu)^2 / (2 sigma^2) + n ln Z.
        value = log_sum + (spread + count * offset ** 2) / (2 * variance) + count * log_z
        gradient = (count * m1, count * m2 - spread)
        covariance = count * (m3 - m1 * m2)
        hessian = ((count * (m2 - m1 * m1), covariance), (covariance, count * (m4 - m2 * m2)))
        return value, gradient, hessian

    sigma = max(float(np.std(logs)), SIGMA_MIN)
    (linear, quadratic), value = _newton(
        evaluate,
        (0.0, -0.5 / sigma ** 2),
        ((0.0, -1.0), (1.0, 2 * MU_REACH), (-1.0, 2 * MU_REACH)),
        (0.5 / SIGMA_MIN ** 2, 0.0, 0.0),
    )
    variance = -0.5 / quadratic
    distribution = DiscreteLognormal(
        mu=center + linear * variance, sigma=math.sqrt(variance), xmin=xmin
    )
    return FitResult(distribution, -value, count)


def fit_power_law_with_cutoff(values: Sequence[int], xmin: int = 1) -> FitResult:
    """MLE fit of the power law with exponential cutoff (alpha, lambda).

    ``(alpha, lambda)`` are the natural parameters of the statistics
    ``(-ln k, -k)``: ``-ln L = alpha sum ln k + lambda sum k + n ln Z``.  The
    search starts from the Clauset-Shalizi-Newman exponent and ``lambda = 1 /
    max k``: from a faster cutoff, Newton's first step overshoots towards
    ``lambda = 0``, where the support's far end dominates the curvature and
    each step gains only a factor of about e in lambda.  The pure power law
    is the edge ``lambda = 1e-7`` of the box, so the fit is never worse than
    it.
    """
    data = _clean(values, xmin)
    count = data.size
    log_sum = float(np.sum(np.log(data)))
    value_sum = float(np.sum(data))

    def evaluate(theta: Vector):
        alpha, rate = theta
        log_z, moments = PowerLawWithCutoff(
            alpha=alpha, cutoff_rate=rate, xmin=xmin
        )._moments(statistics=True)
        t, k, tt, tk, kk = map(float, moments)
        value = alpha * log_sum + rate * value_sum + count * log_z
        covariance = count * (tk - t * k)
        hessian = ((count * (tt - t * t), covariance), (covariance, count * (kk - k * k)))
        return value, (log_sum - count * t, value_sum - count * k), hessian

    start = (max(_csn_exponent(data, xmin), CUTOFF_MIN[0]), max(1.0 / data.max(), CUTOFF_MIN[1]))
    (alpha, rate), value = _newton(
        evaluate,
        start,
        ((-1.0, 0.0), (0.0, -1.0)),
        (-CUTOFF_MIN[0], -CUTOFF_MIN[1]),
    )
    distribution = PowerLawWithCutoff(alpha=alpha, cutoff_rate=rate, xmin=xmin)
    return FitResult(distribution, -value, count)


def fit_exponential(values: Sequence[int], xmin: int = 1) -> FitResult:
    """MLE fit of the discrete exponential distribution.

    ``k - xmin`` is geometric with ratio ``e^-lambda``, so the likelihood peaks
    at ``lambda = ln(1 + 1 / (mean - xmin))``, unboundedly when every value is
    ``xmin``.  The estimate is clipped to ``[max(1e-6, r / 5), 5 r + 0.001]``
    around ``r = ln(1 + 1 / (mean - xmin + 1))``; the likelihood is concave in
    lambda, so the clipped value is the maximum over that interval.
    """
    data = _clean(values, xmin)
    count = data.size
    mean = float(np.sum(data)) / count
    rate_hat = math.log(1 + 1 / (mean - xmin + 1.0))
    low, high = max(1e-6, rate_hat * 0.2), rate_hat * 5 + 1e-3
    rate = math.log1p(1 / (mean - xmin)) if mean > xmin else high
    rate = min(max(rate, low), high)
    # -sum(log_pmf) = n [lambda (mean - xmin) - ln(1 - e^-lambda)].
    log_likelihood = -count * (rate * (mean - xmin) - math.log1p(-math.exp(-rate)))
    return FitResult(DiscreteExponential(rate=rate, xmin=xmin), log_likelihood, count)


def fit_lognormal_parameters_over_time(
    degree_sequences: Sequence[Tuple[int, Sequence[int]]], xmin: int = 1
) -> List[Tuple[int, float, float]]:
    """Fit a lognormal per snapshot, returning ``(day, mu, sigma)`` (Figures 6 / 11a)."""
    series = []
    for day, degrees in degree_sequences:
        degrees = np.asarray(degrees)
        positive = degrees[degrees >= xmin]
        if positive.size < 10:
            continue
        fit = fit_lognormal(positive, xmin=xmin)
        series.append((day, fit.distribution.mu, fit.distribution.sigma))
    return series


def fit_power_law_exponent_over_time(
    degree_sequences: Sequence[Tuple[int, Sequence[int]]], xmin: int = 1
) -> List[Tuple[int, float]]:
    """Fit a power law per snapshot, returning ``(day, alpha)`` (Figure 11b)."""
    series = []
    for day, degrees in degree_sequences:
        degrees = np.asarray(degrees)
        positive = degrees[degrees >= xmin]
        if positive.size < 10:
            continue
        fit = fit_power_law(positive, xmin=xmin)
        series.append((day, fit.distribution.alpha))
    return series


#: Newton stops once its quadratic model promises less than this share of
#: the objective, about the resolution of the objective itself.
_DECREMENT = 1e-12
_MAX_STEPS = 100
_MAX_HALVINGS = 50
#: Armijo's sufficient-decrease share of the model's directional derivative.
_ARMIJO = 1e-4

#: A point, a gradient or a step (one or two floats), and a matrix as its rows.
Vector = Tuple[float, ...]
Matrix = Sequence[Vector]


def _newton(
    evaluate: Callable, start: Vector, bounds: Matrix, limits: Vector
) -> Tuple[Vector, float]:
    """``(theta, value)`` minimising a convex objective over ``{bounds @ theta <= limits}``.

    ``evaluate(theta)`` returns the value, gradient and Hessian, or an
    infinite value outside the objective's domain.  Each step moves towards
    the minimum of the local quadratic model over the feasible polyhedron
    (:func:`_model_step`), halving until Armijo's sufficient decrease holds;
    the iterates stay feasible because the polyhedron is convex.  With one or
    two parameters, plain floats beat numpy's per-call overhead.
    """
    theta = tuple(float(x) for x in start)
    value, gradient, hessian = evaluate(theta)
    for _ in range(_MAX_STEPS):
        step = _model_step(theta, gradient, hessian, bounds, limits)
        slope = _dot(gradient, step)
        promised = -(slope + 0.5 * _dot(step, _apply(hessian, step)))
        if not promised > _DECREMENT * max(1.0, abs(value)):
            break
        scale = 1.0
        for _ in range(_MAX_HALVINGS):
            trial = tuple(x + scale * dx for x, dx in zip(theta, step))
            result = evaluate(trial)
            if result[0] <= value + _ARMIJO * scale * slope:
                break
            scale /= 2
        else:
            break
        theta = trial
        value, gradient, hessian = result
    return theta, value


def _model_step(
    theta: Vector, gradient: Vector, hessian: Matrix, bounds: Matrix, limits: Vector
) -> Vector:
    """The step to the minimum of ``g.p + p.H.p / 2`` with ``theta + p`` feasible.

    A convex quadratic's minimum over a polyhedron is the minimum over one
    of its faces, so with one or two parameters every face is tried: the
    interior (the Newton step itself, taken as it is when feasible), each
    constraint's line and each vertex.  The feasible candidate with the
    lowest model value wins.
    """
    slack = [limit - _dot(row, theta) for row, limit in zip(bounds, limits)]
    tolerance = [
        1e-9 * (sum(abs(a * x) for a, x in zip(row, theta)) + abs(limit) + 1.0)
        for row, limit in zip(bounds, limits)
    ]
    best, best_model = tuple(0.0 for _ in theta), 0.0
    for size in range(len(theta) + 1):
        for active in itertools.combinations(range(len(limits)), size):
            step = _face_step(
                gradient, hessian, [bounds[i] for i in active], [slack[i] for i in active]
            )
            if step is None or any(
                _dot(row, step) > room + margin
                for row, room, margin in zip(bounds, slack, tolerance)
            ):
                continue
            model = _dot(gradient, step) + 0.5 * _dot(step, _apply(hessian, step))
            if model < best_model:
                best, best_model = step, model
        if size == 0 and best_model < 0:
            break
    return best


def _face_step(gradient: Vector, hessian: Matrix, rows: Matrix, targets: Vector):
    """The model's minimiser on the face ``rows @ p = targets``, or None if degenerate."""
    if len(rows) == len(gradient):  # a vertex, or in one dimension a bound
        return _solve(rows, targets)
    if not rows:
        return _solve(hessian, tuple(-g for g in gradient))
    # A line in the plane: p = base + tau * along.
    (a, b), target = rows[0], targets[0]
    base = (a * target / (a * a + b * b), b * target / (a * a + b * b))
    along = (-b, a)
    curvature = _dot(along, _apply(hessian, along))
    if not curvature > 0:
        return None
    pull = _apply(hessian, base)
    tau = -(along[0] * (gradient[0] + pull[0]) + along[1] * (gradient[1] + pull[1])) / curvature
    return (base[0] + tau * along[0], base[1] + tau * along[1])


def _solve(matrix: Matrix, vector: Vector):
    """``matrix^-1 vector`` for a 1x1 or 2x2 system by Cramer's rule, None if singular."""
    if len(vector) == 1:
        solution = (vector[0] / matrix[0][0],) if matrix[0][0] != 0 else None
    else:
        (a, b), (c, d) = matrix
        determinant = a * d - b * c
        if determinant == 0:
            return None
        solution = (
            (d * vector[0] - b * vector[1]) / determinant,
            (a * vector[1] - c * vector[0]) / determinant,
        )
    return solution if solution is not None and all(map(math.isfinite, solution)) else None


def _dot(first: Vector, second: Vector) -> float:
    return sum(x * y for x, y in zip(first, second))


def _apply(matrix: Matrix, vector: Vector) -> Vector:
    return tuple(_dot(row, vector) for row in matrix)
