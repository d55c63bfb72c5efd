"""Bayes-risk objective for level-set classification under a GP belief.

Every location is eventually declared "deep" (at or below the critical
level, safe to transit) or "shallow" (above it). Misdeclarations carry
asymmetric costs: calling an unsafe location safe costs c1, calling a
safe location unsafe costs c2. Under a Gaussian belief f_p ~ N(mean,
variance) the optimal declaration and its conditional risk are

    declare safe  iff  c1 P(f_p < l) <= c2 P(f_p >= l)
    r = min( c1 Phi((l - mean)/sd), c2 (1 - Phi((l - mean)/sd)) ).

The value of future measurements is the expected drop in this risk. With
planned measurement locations Q, the posterior mean at p is itself a
Gaussian random variable mu = mu_mu + sigma_mu Z1, while the posterior
variance drops deterministically to sigma_q^2 (``sigma_pq_sq``), so the
depth once measured is f = mu + sigma_q Z2 with Z1, Z2 independent
standard normals. The optimal declaration flips at the mean mu* where
c1 Phi((l - mu*)/sigma_q) = c2 (1 - Phi((l - mu*)/sigma_q)); it declares
safe for mu >= mu*. The expected post-measurement risk is therefore

    E[r] = c1 P(mu >= mu*, f < l) + c2 P(mu < mu*, f >= l).

With s^2 = sigma_mu^2 + sigma_q^2, the standardised depth
(f - mu_mu)/s is a standard normal with correlation rho = sigma_mu/s to
Z1. Let

    x = (mu* - mu_mu)/sigma_mu,    k = (l - mu_mu)/s;

then both probabilities are bivariate normal orthants,

    E[r] = c1 Phi2(-x, k; -rho) + c2 Phi2(x, -k; -rho).

Owen (1956) writes the bivariate normal CDF through his function
T(h, a) = 1/(2 pi) Integral_0^a exp(-h^2 (1 + t^2)/2)/(1 + t^2) dt:

    Phi2(h, k; r) = [Phi(h) + Phi(k)]/2 - T(h, a_h) - T(k, a_k) - beta,
    a_h = (k - r h)/(h sqrt(1 - r^2)),  a_k = (h - r k)/(k sqrt(1 - r^2)),

with beta = 1/2 where hk < 0 and 0 otherwise. T is even in h and odd in
a, so the two orthants share T1 = T(x, a1) and T2 = T(k, a2), with

    a1 = sigma_mu (mu* - l) / (sigma_q (mu* - mu_mu)),
    a2 = ((l - mu*) s^2 - (l - mu_mu) sigma_q^2) / (sigma_mu sigma_q (l - mu_mu)),

and the same beta = [xk > 0]/2. Summed,

    E[r] = (c1 + c2) (1/2 - T1 - T2 - beta) + (c2 - c1) (Phi(x) - Phi(k))/2.

Zero arguments need their limits. As x -> 0, T1 tends to -1/4 times the
sign of xk while beta jumps from 0 to 1/2, so T1 + beta stays 1/4: take
T1 = 1/4 at x = 0, and likewise T2 = 1/4 at k = 0. When x = k = 0
together, which happens for equal costs whenever mu_mu is the level,
Phi2(0, 0; r) = 1/4 + asin(r)/(2 pi) gives T1 + T2 + beta =
1/4 + asin(rho)/(2 pi) instead.

Equal costs, which the default mission uses, put mu* at the level, since
erfinv(0) = 0. Then a1 = +-0, so T1 = T(x, +-0) = 0; the factor c2 - c1
makes the normal-CDF term a signed zero; and x and k both take the sign
of l - mu_mu, so beta = 1/2 wherever neither is zero. What is left is

    E[r] = (c1 + c2) (1/2 - T2 - 1/2),

with T2 = T(k, a2) and a2 computed as in the general form, (l - mu*) s^2
being 0. Dropping a term that is exactly zero leaves every bit as it was,
sign bits included: 1/2 - T2 is 1/2 whether T2 is +0 or -0, and the
product with c1 + c2 is never -0. So the batch skips T1, the normal CDF
and the mu* chain, and makes half the Owen's T evaluations, when the
costs are equal and no live element's head is zero. A zero head
(mu_mu exactly at the level, as at every grid point far from all data
when the prior mean is the level) needs the limits above, so such a
batch takes the general form. So does one where the reduction's guard,
the product of k^2 and a2's denominator sigma_mu sigma_q (l - mu_mu),
underflows to zero. Where k^2 is not zero, neither is x k, as
|x| >= |k|. Where both factors are not zero, neither is a1's denominator
sigma_q (l - mu_mu): for sigma_mu <= 1 it is at least a2's, and for
sigma_mu > 1 a nonzero k^2 keeps |l - mu_mu| above 1e-162, while
sigma_q > 1e-150. ``tests/reference.py`` keeps the general form the
tests compare the batch with.

Reference: D. B. Owen, "Tables for computing bivariate normal
probabilities", Annals of Mathematical Statistics 27 (1956), 1075-1090.

The form is exact; its two independent cross-checks, an adaptive
quadrature evaluator and a Monte Carlo evaluator, are test oracles and
live in ``tests/reference.py``. For unequal costs the batch evaluator
makes one Owen's T call over T1's and T2's arguments together and one
normal-CDF call over x and k, so a call costs about the same for one
element as for a few dozen. Every step is elementwise, so each element's
result is independent of the batch it is evaluated in; the planner
relies on that when it scores several location sets in one call.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import special


@dataclass(frozen=True)
class LossParams:
    """Critical level and the two misclassification costs.

    ``cost_deep_wrong`` (c1) is charged for declaring a location safe
    when it is shallow; ``cost_shallow_wrong`` (c2) for declaring it
    unsafe when it is deep. Both must be positive.
    """

    level: float
    cost_deep_wrong: float
    cost_shallow_wrong: float

    def __post_init__(self):
        if not (self.cost_deep_wrong > 0 and self.cost_shallow_wrong > 0):
            raise ValueError("misclassification costs must be positive")


def _phi(x):
    """Standard normal CDF."""
    return 0.5 * special.erfc(-np.asarray(x, dtype=float) / math.sqrt(2.0))


def declare(means, variances, loss: LossParams) -> tuple[np.ndarray, np.ndarray]:
    """(safe, risk) of the optimal declaration under N(means, variances), as
    the module docstring states; without variance, f is the mean."""
    means = np.asarray(means, dtype=float)
    variances = np.asarray(variances, dtype=float)
    p_shallow = np.where(means < loss.level, 1.0, 0.0)
    live = variances > 0
    p_shallow[live] = _phi((loss.level - means[live]) / np.sqrt(variances[live]))
    cost_safe = loss.cost_deep_wrong * p_shallow
    cost_unsafe = loss.cost_shallow_wrong * (1.0 - p_shallow)
    return cost_safe <= cost_unsafe, np.minimum(cost_safe, cost_unsafe)


def bayes_risk_batch(means, variances, loss: LossParams) -> np.ndarray:
    """Vectorized conditional Bayes risk of the optimal declaration."""
    return declare(means, variances, loss)[1]


@functools.lru_cache(maxsize=16)
def _flip_erfinv(c1: float, c2: float) -> float:
    """``erfinv((c2 - c1)/(c1 + c2))``, which places mu* for a cost pair."""
    return float(special.erfinv((c2 - c1) / (c1 + c2)))


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def _owen_slopes(sd_mu, sd_q, s2, vq, ms, d_ms, d_l, level):
    """Owen's T arguments a1 and a2 of the module docstring, concatenated.

    A zero head divides by zero here; the caller replaces those values.
    """
    return np.concatenate([
        sd_mu * (ms - level) / (sd_q * d_ms),
        ((level - ms) * s2 - d_l * vq) / (sd_mu * sd_q * d_l),
    ])


def expected_bayes_risk_closed_batch(mu_mu, sigma_mu_sq, sigma_pq_sq, loss: LossParams):
    """Vectorized closed-form expected post-measurement Bayes risk.

    Degenerate elements short-circuit: zero mean-variance reduces to the
    plain conditional risk at (mu_mu, sigma_pq_sq); zero residual
    variance makes the post-measurement declaration certain, so the
    expected risk is zero.
    """
    mu_mu = np.asarray(mu_mu, dtype=float)
    s2mu = np.asarray(sigma_mu_sq, dtype=float)
    s2q = np.asarray(sigma_pq_sq, dtype=float)
    if not mu_mu.shape == s2mu.shape == s2q.shape:
        mu_mu, s2mu, s2q = np.broadcast_arrays(mu_mu, s2mu, s2q)
    c1, c2 = loss.cost_deep_wrong, loss.cost_shallow_wrong
    level = loss.level
    top = max(c1, c2)
    if not (
        mu_mu.size
        and np.minimum.reduce(s2mu, axis=None) > 1e-300
        and np.minimum.reduce(s2q, axis=None) > 1e-300
    ):
        out = np.zeros(mu_mu.shape)
        no_spread = s2mu <= 1e-300
        if no_spread.any():
            out[no_spread] = bayes_risk_batch(mu_mu[no_spread], s2q[no_spread], loss)
        live = (s2mu > 1e-300) & (s2q > 1e-300)
        if live.any():
            out[live] = expected_bayes_risk_closed_batch(
                mu_mu[live], s2mu[live], s2q[live], loss
            )
        return np.minimum(np.maximum(out, 0.0), top)
    # Every element is live, so nothing is masked out or scattered back:
    # every step below is elementwise.
    mm, vmu, vq = mu_mu.ravel(), s2mu.ravel(), s2q.ravel()
    sd_mu = np.sqrt(vmu)
    sd_q = np.sqrt(vq)
    s2 = vmu + vq
    if c1 == c2:
        # The equal-cost reduction of the module docstring; where its
        # guard is zero, the general form below takes over.
        d_l = level - mm
        k = d_l / np.sqrt(s2)
        den = sd_mu * sd_q * d_l
        if np.logical_and.reduce(k * k * den):
            # a2 as below, with (l - mu*) s^2 = 0.
            t2 = special.owens_t(k, (0.0 - d_l * vq) / den)
            expected = (c1 + c2) * (0.5 - t2 - 0.5)
            return np.minimum(np.maximum(expected, 0.0), top).reshape(mu_mu.shape)
    ms = level - _flip_erfinv(c1, c2) * sd_q * math.sqrt(2.0)
    d_ms = ms - mm
    d_l = level - mm
    # Heads x and k, and Owen's T arguments a1 and a2, of the module
    # docstring; a zero head divides by zero and is replaced below.
    heads = np.concatenate([d_ms / sd_mu, d_l / np.sqrt(s2)])
    slopes = _owen_slopes(sd_mu, sd_q, s2, vq, ms, d_ms, d_l, level)
    owen = special.owens_t(heads, slopes)
    n = mm.shape[0]
    x, k = heads[:n], heads[n:]
    # One reduction tells whether any head is zero, which is rare; only
    # then are the zero heads masked and their limits taken.
    if np.logical_and.reduce(heads):
        t_sum = owen[:n] + owen[n:]
    else:
        zero = heads == 0.0
        owen[zero] = 0.25
        t_sum = owen[:n] + owen[n:]
        both = zero[:n] & zero[n:]
        if both.any():
            rho = sd_mu[both] / np.sqrt(s2[both])
            t_sum[both] = 0.25 + np.arcsin(rho) / (2.0 * math.pi)
    phi = special.ndtr(heads)
    beta = 0.5 * (x * k > 0.0)
    expected = (c1 + c2) * (0.5 - t_sum - beta) + 0.5 * (c2 - c1) * (phi[:n] - phi[n:])
    # Bounded by the costs; np.minimum(np.maximum(...)) is np.clip
    # without its argument handling.
    return np.minimum(np.maximum(expected, 0.0), top).reshape(mu_mu.shape)
