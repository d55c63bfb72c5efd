"""Reference oracles the tests compare the mission code against.

None of this runs in a mission. The planner scores plans with the
batched closed form (``risk.expected_bayes_risk_closed_batch``) through
low-rank updates on one factor of the data; the definitions here reach
the same quantities by independent routes, so the tests can check one
against the other:

- the scalar declaration, risk and declaration flip (``bayes_estimate``,
  ``bayes_risk``, ``mu_star``);
- the expected post-measurement risk by adaptive quadrature and by
  Monte Carlo draws, and the scalar closed form that falls back to
  quadrature where the surrogate breaks down;
- the variance decomposition by re-factoring the GP on data plus the
  planned locations (``variance_reduction``);
- the realized and expected benefit of search, and the joint expected
  benefit of a whole team's plans (``joint_reward``).
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate, special

from isobath.errors import NumericalError
from isobath.gp import (
    Belief,
    DataSet,
    KernelSpec,
    Sample,
    _chol_with_jitter,
    admissible_locations,
)
from isobath.risk import (
    LossParams,
    _phi,
    bayes_risk_batch,
    expected_bayes_risk_closed_batch,
    risk_field,
)


@dataclass(frozen=True)
class VarianceReduction:
    """Inputs to the expected-risk evaluation at one query location.

    ``mu_mu`` and ``sigma_mu_sq`` describe the distribution of the
    posterior mean at the query after the planned measurements arrive;
    ``sigma_pq_sq`` is the posterior variance once they have.
    """

    mu_mu: float
    sigma_mu_sq: float
    sigma_pq_sq: float


def _with_planned(data: DataSet, planned: np.ndarray) -> DataSet:
    """``data`` plus zero-valued samples at ``planned``, density rule bypassed.

    Only variances are read from a belief on the result: they do not
    depend on sample values, so the placeholder zeros never enter them.
    """
    out = DataSet(0.0)
    out._locs = data._locs + [tuple(p) for p in planned.tolist()]
    out._vals = data._vals + [0.0] * planned.shape[0]
    return out


def variance_reduction(
    kernel: KernelSpec,
    data: DataSet,
    planned_locations,
    query,
    prior_mean: float = 0.0,
) -> VarianceReduction:
    """Decompose predictive uncertainty at ``query`` around a planned set.

    The planned locations contribute variance only: no measurement values
    are used or invented. ``sigma_mu_sq`` is the variance explained by the
    planned measurements, ``variance(S) - variance(S + planned)``, clamped
    to zero against roundoff.
    """
    query = np.asarray(query, dtype=float).reshape(1, 2)
    planned = np.asarray(planned_locations, dtype=float).reshape(-1, 2)
    means_s, vars_s = Belief(kernel, prior_mean, data).predict_arrays(query)
    if planned.shape[0] == 0:
        return VarianceReduction(float(means_s[0]), 0.0, float(vars_s[0]))
    augmented = Belief(kernel, prior_mean, _with_planned(data, planned))
    _, vars_q = augmented.predict_arrays(query)
    sigma_mu_sq = max(float(vars_s[0]) - float(vars_q[0]), 0.0)
    return VarianceReduction(float(means_s[0]), sigma_mu_sq, float(vars_q[0]))


def bayes_estimate(mean: float, variance: float, loss: LossParams) -> int:
    """Optimal declaration: 1 = safe (deep), 0 = unsafe (shallow).

    Ties go to safe. With zero variance the declaration follows the sign
    of (mean - level), ties again to safe.
    """
    c1, c2 = loss.cost_deep_wrong, loss.cost_shallow_wrong
    if variance <= 0:
        return 1 if mean >= loss.level else 0
    p_shallow = float(_phi((loss.level - mean) / math.sqrt(variance)))
    return 1 if c1 * p_shallow <= c2 * (1.0 - p_shallow) else 0


def bayes_risk(mean: float, variance: float, loss: LossParams) -> float:
    """Conditional Bayes risk at one location.

    Zero variance means the declaration is certain and the risk is zero.
    """
    return float(bayes_risk_batch(np.array([mean]), np.array([variance]), loss)[0])


def mu_star(sigma_pq: float, loss: LossParams) -> float:
    """Posterior-mean value at which the optimal declaration flips.

    Satisfies P(f < level | mu*, sigma_pq^2) = c2/(c1 + c2). For equal
    costs this is exactly the level; for sigma_pq = 0 it degenerates to
    the level as well.
    """
    c1, c2 = loss.cost_deep_wrong, loss.cost_shallow_wrong
    if sigma_pq < 0:
        raise ValueError("sigma_pq must be non-negative")
    if sigma_pq == 0:
        return loss.level
    q = (c2 - c1) / (c1 + c2)
    return loss.level - float(special.erfinv(q)) * sigma_pq * math.sqrt(2.0)


def expected_bayes_risk_closed(inputs, loss: LossParams) -> float:
    """Closed-form expected Bayes risk after the planned measurements.

    ``inputs`` carries (mu_mu, sigma_mu_sq, sigma_pq_sq), e.g. a
    :class:`VarianceReduction`. Falls back to the quadrature evaluator
    when the residual variance is degenerate or the closed form lands
    outside its provable range (which flags surrogate breakdown).
    """
    mu_mu = float(inputs.mu_mu)
    s2mu = float(inputs.sigma_mu_sq)
    s2q = float(inputs.sigma_pq_sq)
    c1, c2 = loss.cost_deep_wrong, loss.cost_shallow_wrong
    if s2mu < 0 or s2q < 0:
        raise ValueError("variances must be non-negative")
    if s2mu <= 1e-300:
        return bayes_risk(mu_mu, s2q, loss)
    if s2q <= 1e-300:
        return expected_bayes_risk_quadrature(inputs, loss)
    val = float(
        expected_bayes_risk_closed_batch(
            np.array([mu_mu]), np.array([s2mu]), np.array([s2q]), loss
        )[0]
    )
    # The exact expectation can never exceed the risk at the declaration
    # flip; drifting past it by more than a sliver means the surrogate
    # broke down, so defer to quadrature.
    peak = c1 * c2 / (c1 + c2)
    if val > peak + 1e-6 * max(c1, c2):
        return expected_bayes_risk_quadrature(inputs, loss)
    return min(val, peak)


def expected_bayes_risk_quadrature(
    inputs, loss: LossParams, *, epsabs: float = 1e-9
) -> float:
    """Adaptive-quadrature reference for the expected Bayes risk.

    Integrates pi(mu) r(mu, sigma_pq_sq) over the posterior-mean
    distribution, with the integration split at the declaration flip
    where the integrand has a kink. Raises NumericalError if the
    quadrature does not converge to the requested absolute tolerance.
    """
    mu_mu = float(inputs.mu_mu)
    s2mu = float(inputs.sigma_mu_sq)
    s2q = float(inputs.sigma_pq_sq)
    if s2mu < 0 or s2q < 0:
        raise ValueError("variances must be non-negative")
    if s2mu <= 1e-300:
        return bayes_risk(mu_mu, s2q, loss)
    sd_mu = math.sqrt(s2mu)
    flip = mu_star(math.sqrt(s2q), loss)

    def integrand(mu):
        pdf = math.exp(-((mu - mu_mu) ** 2) / (2.0 * s2mu)) / (
            sd_mu * math.sqrt(2.0 * math.pi)
        )
        return pdf * bayes_risk(mu, s2q, loss)

    lo, hi = mu_mu - 12.0 * sd_mu, mu_mu + 12.0 * sd_mu
    # Breakpoints at the declaration flip and bracketing the level: for
    # small residual variance the integrand is a spike of width ~sigma_pq
    # around the level that plain adaptive nodes can miss entirely.
    sd_q = math.sqrt(s2q)
    marks = [flip, loss.level]
    for w in (1.0, 4.0, 20.0):
        marks += [loss.level - w * sd_q, loss.level + w * sd_q]
        marks += [flip - w * sd_q, flip + w * sd_q]
    points = sorted({p for p in marks if lo < p < hi}) or None
    result = integrate.quad(
        integrand, lo, hi, points=points, epsabs=epsabs, epsrel=epsabs, limit=200,
        full_output=1,
    )
    if len(result) > 3:
        raise NumericalError(f"expected-risk quadrature did not converge: {result[3]}")
    value, abserr = result[0], result[1]
    if abserr > 1e-6:
        raise NumericalError(
            f"expected-risk quadrature error estimate {abserr:.2e} exceeds 1e-6"
        )
    return float(value)


def expected_bayes_risk_mc(
    kernel: KernelSpec,
    data: DataSet,
    planned_locations,
    query,
    loss: LossParams,
    *,
    prior_mean: float = 0.0,
    n_draws: int = 10000,
    seed: int = 0,
) -> tuple[float, float]:
    """Monte Carlo expected Bayes risk; returns (estimate, standard error).

    Draws measurement vectors from the joint predictive at the planned
    locations (measurement noise included), conditions the belief on each
    draw, and averages the resulting conditional risk at the query. The
    posterior mean is linear in the drawn values, so the conditioning is
    applied as a dot product. Deterministic for a fixed seed. An empty
    plan returns the current conditional risk exactly, with zero error.
    """
    query = np.asarray(query, dtype=float).reshape(1, 2)
    planned = np.asarray(planned_locations, dtype=float).reshape(-1, 2)
    belief = Belief(kernel, prior_mean, data)
    mean_q, var_q, half_q = belief.project(query)
    if planned.shape[0] == 0:
        return bayes_risk(float(mean_q[0]), float(var_q[0]), loss), 0.0

    means_v, _, half_v = belief.project(planned)
    cov_v = kernel(planned, planned) - half_v.T @ half_v
    cross = kernel(planned, query)[:, 0] - half_v.T @ half_q[:, 0]

    meas_cov = cov_v + kernel.noise_std**2 * np.eye(planned.shape[0])
    low_m = _chol_with_jitter(meas_cov, kernel, planned.shape[0])
    weights = np.linalg.solve(low_m.T, np.linalg.solve(low_m, cross))
    var_post = float(var_q[0] - cross @ weights)
    var_post = max(var_post, 0.0)

    rng = np.random.default_rng(seed)
    draws = means_v[None, :] + rng.standard_normal((n_draws, planned.shape[0])) @ low_m.T
    mean_post = float(mean_q[0]) + (draws - means_v[None, :]) @ weights
    risks = bayes_risk_batch(mean_post, np.full(n_draws, var_post), loss)
    est = float(np.mean(risks))
    stderr = float(np.std(risks, ddof=1) / math.sqrt(n_draws)) if n_draws > 1 else 0.0
    return est, stderr


def benefit_of_search(
    belief_data: DataSet,
    new_data,
    eval_points,
    kernel: KernelSpec,
    loss: LossParams,
    *,
    prior_mean: float = 0.0,
) -> float:
    """Realized risk reduction from new data, summed over eval points.

    Scores post hoc with measured values: total conditional risk under
    the prior data minus total risk once ``new_data`` has been merged
    under the density rule. Adding nothing is worth exactly zero; adding
    data can only help in expectation, but a realized benefit may be
    negative for surprising measurements.
    """
    risk1 = float(np.sum(
        risk_field(kernel, belief_data, eval_points, loss, prior_mean=prior_mean).values
    ))
    merged = copy.deepcopy(belief_data)
    if isinstance(new_data, DataSet):
        samples = [Sample(p, v) for p, v in zip(new_data._locs, new_data._vals)]
    else:
        samples = new_data
    for s in samples:
        merged.insert(s)
    risk2 = float(np.sum(
        risk_field(kernel, merged, eval_points, loss, prior_mean=prior_mean).values
    ))
    return risk1 - risk2


def expected_benefit_of_search(
    belief_data: DataSet,
    planned_locations,
    eval_points,
    kernel: KernelSpec,
    loss: LossParams,
    *,
    prior_mean: float = 0.0,
) -> float:
    """Expected risk reduction from planned measurements, before values.

    For each eval point, current conditional risk minus the closed-form
    expected post-measurement risk; summed. Non-negative up to numerical
    tolerance by the monotonicity of expected risk in added data.
    """
    pts = np.asarray(eval_points, dtype=float).reshape(-1, 2)
    planned = np.asarray(planned_locations, dtype=float).reshape(-1, 2)
    means_s, vars_s = Belief(kernel, prior_mean, belief_data).predict_arrays(pts)
    risk_now = bayes_risk_batch(means_s, vars_s, loss)
    if planned.shape[0] == 0:
        return 0.0
    augmented = Belief(kernel, prior_mean, _with_planned(belief_data, planned))
    _, vars_q = augmented.predict_arrays(pts)
    s2mu = np.maximum(vars_s - vars_q, 0.0)
    expected = expected_bayes_risk_closed_batch(means_s, s2mu, vars_q, loss)
    return float(np.sum(risk_now - expected))


def joint_reward(
    data: DataSet,
    location_sets,
    eval_points,
    kernel: KernelSpec,
    loss: LossParams,
    *,
    prior_mean: float = 0.0,
) -> float:
    """Expected benefit of the whole team's plans, taken together.

    Concatenates the per-agent planned location sets in team order,
    thins the union by the density rule against the current data (a
    location only counts once no matter how many plans visit it), and
    returns the expected drop in summed Bayes risk over ``eval_points``.
    """
    sets = [np.asarray(s, dtype=float).reshape(-1, 2) for s in location_sets]
    union = np.vstack(sets) if sets else np.empty((0, 2))
    thinned = admissible_locations(union, data.min_spacing, existing=data.locations)
    return expected_benefit_of_search(
        data, thinned, eval_points, kernel, loss, prior_mean=prior_mean
    )
