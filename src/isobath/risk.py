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
Gaussian random variable (mean mu_mu, variance sigma_mu_sq) while the
posterior variance drops deterministically to sigma_pq_sq, and the
expected post-measurement risk has the mostly-closed form

    E[r] = (c2 - c1)/4 [1 + erf((mu* - mu_mu)/(sigma_mu sqrt(2)))]
         + c1/2 + c1/2 erf((l - mu_mu)/sqrt(2 sigma_pq^2 + 2 sigma_mu^2))
         - (c1 + c2)/2 Integral_{-inf}^{mu*} pi(mu) erf((l - mu)/(sigma_pq sqrt(2))) dmu

where mu* is the mean value at which the optimal declaration flips. The
trailing integral has no elementary antiderivative; this module evaluates
it in closed form by replacing erf with an exponential-quadratic
surrogate, sign(x) (1 - exp(-(a x^2 + b x))) with a = 1 and b = 2/sqrt(pi),
sharpened by a polynomial correction factor fitted under the same
exponential weight (see ``_fit_erf_correction``). The bare surrogate has
worst-case error 4.4e-2, far too coarse for the 1e-3 accuracy contract
against the quadrature reference; the corrected form is good to ~6e-9
while keeping every term an erf or exponential of a quadratic to
integrate, so the whole evaluation stays closed-form. Its two
independent cross-checks, an adaptive quadrature evaluator and a Monte
Carlo evaluator, are test oracles and live in ``tests/reference.py``.

The batch evaluator keeps the powers, moments and terms of the
correction as rows of 2-D arrays, so a call costs about the same for one
element as for a few dozen. Each element's result is also independent
of the batch it is evaluated in; the planner relies on that when it
scores several location sets in one call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .gp import Belief, DataSet, KernelSpec

# Exponential-quadratic erf surrogate: erf(x) ~ sign(x)(1 - exp(-(x^2 + B x))),
# exact slope at zero and correct limits.
_B = 2.0 / math.sqrt(math.pi)
_CORRECTION_DEGREE = 10


def _fit_erf_correction(degree: int = _CORRECTION_DEGREE) -> np.ndarray:
    """Polynomial correction to the exponential-quadratic erf surrogate.

    Writes erf(t) = 1 - exp(-(t^2 + B t)) g(t) for t >= 0 with
    g(t) = erfc(t) exp(t^2 + B t), then fits g by a degree-``degree``
    polynomial with g(0) = 1 pinned, least squares under the weight
    exp(-(t^2 + B t)) so that the fit error is minimized where it matters
    for the reconstructed erf. The coefficient vector starts with the
    pinned constant term. Deterministic; refit at import time.
    """
    t = np.linspace(0.0, 8.0, 8001)
    weight = np.exp(-(t**2 + _B * t))
    g = special.erfcx(t) * np.exp(_B * t)
    basis = np.vander(t, degree + 1, increasing=True)[:, 1:]
    coef, *_ = np.linalg.lstsq(basis * weight[:, None], (g - 1.0) * weight, rcond=None)
    return np.concatenate([[1.0], coef])


_ERF_CORRECTION = _fit_erf_correction()
# Row q - 2 holds the factor q - 1 of the moment recursion in _branch_sum.
_RECURSION_ROWS = np.arange(1.0, _CORRECTION_DEGREE)[:, None]
# Binomial mixing matrix for the moment recombination in _branch_sum:
# row j, column k holds C(j+k, j) * c_{j+k} (zero past the fit degree).
_CORRECTION_BINOMIAL = np.array(
    [
        [
            math.comb(j + k, j) * _ERF_CORRECTION[j + k]
            if j + k <= _CORRECTION_DEGREE
            else 0.0
            for k in range(_CORRECTION_DEGREE + 1)
        ]
        for j in range(_CORRECTION_DEGREE + 1)
    ]
)


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
        if not math.isfinite(self.level):
            raise ValueError("level must be finite")


def _phi(x):
    """Standard normal CDF."""
    return 0.5 * special.erfc(-np.asarray(x, dtype=float) / math.sqrt(2.0))


def bayes_risk_batch(means, variances, loss: LossParams) -> np.ndarray:
    """Vectorized conditional Bayes risk of the optimal declaration."""
    means = np.asarray(means, dtype=float)
    variances = np.asarray(variances, dtype=float)
    c1, c2 = loss.cost_deep_wrong, loss.cost_shallow_wrong
    out = np.zeros(np.broadcast(means, variances).shape)
    live = variances > 0
    z = (loss.level - means[live]) / np.sqrt(variances[live])
    p_shallow = _phi(z)
    out[live] = np.minimum(c1 * p_shallow, c2 * (1.0 - p_shallow))
    return out


def _scaled_erfc(z, gpeak, gend):
    """exp(gpeak) * erfc(z), evaluated without overflow.

    ``gend`` must equal gpeak - z**2 analytically (it is the original
    integrand exponent at the interval endpoint, known in closed form),
    which keeps every exponential argument non-positive.
    """
    z = np.asarray(z, dtype=float)
    pos = z >= 0
    # Each branch is elementwise, so a one-signed z skips the masking.
    if pos.all():
        return special.erfcx(z) * np.exp(gend)
    if not pos.any():
        return 2.0 * np.exp(gpeak) - special.erfcx(-z) * np.exp(gend)
    out = np.empty_like(z)
    out[pos] = special.erfcx(z[pos]) * np.exp(gend[pos])
    neg = ~pos
    out[neg] = 2.0 * np.exp(gpeak[neg]) - special.erfcx(-z[neg]) * np.exp(gend[neg])
    return out


def _powers(x, top):
    """Rows 1, x, x*x, ... up to x**top, each row the previous times x."""
    out = np.empty((top + 1, x.shape[0]))
    out[0] = 1.0
    out[1:] = x
    return np.multiply.accumulate(out, axis=0, out=out)


def _branch_sum(center, s2mu, s, x0, x1=None):
    """Sum_p c_p Integral_{x0}^{x1} N(v; center, s2mu) (s v)^p e^{-(sv)^2 - B s v} dv.

    The c_p are the fitted correction coefficients. All parameters are
    same-length arrays; ``x1=None`` stands for +inf, where every upper
    boundary term vanishes. Completing the square gives half-line
    Gaussian moments, evaluated by the usual two-term recursion with
    boundary terms kept in overflow-safe scaled form; the binomial
    recombination Sum_p c_p s^p (m + w)^p collapses to one constant
    matrix applied to the powers of s*m. Each power, moment and term is
    a row of a 2-D array, so the cost hardly depends on the batch size.
    """
    two_s2mu = 2.0 * s2mu
    b_s = _B * s
    p_coef = 1.0 / two_s2mu + s * s
    q_coef = center / s2mu - b_s
    inv2p = 1.0 / (2.0 * p_coef)
    m = q_coef * inv2p
    gpeak = q_coef**2 * (0.5 * inv2p) - center**2 / two_s2mu

    def g_at(x):
        return -((x - center) ** 2) / two_s2mu - (s * x) ** 2 - b_s * x

    degree = _CORRECTION_DEGREE
    n = center.shape[0]
    sqrt_p = np.sqrt(p_coef)
    d0 = x0 - m
    # Every power table is one column block of a single _powers call:
    # each row is the previous one times x, column by column.
    pows = _powers(
        np.concatenate([s * m, s, d0] + ([x1 - m] if x1 is not None else [])),
        degree,
    )
    g0 = g_at(x0)
    e0 = np.exp(g0)
    scaled = _scaled_erfc(sqrt_p * d0, gpeak, g0)
    # Row q - 2 is the boundary term of moment q; the powers d**(q - 1)
    # come from sequential products.
    edge = pows[1:degree, 2 * n:3 * n] * e0
    e_diff = e0
    if x1 is not None:
        g1 = g_at(x1)
        e1 = np.exp(g1)
        scaled = scaled - _scaled_erfc(sqrt_p * (x1 - m), gpeak, g1)
        edge = edge - pows[1:degree, 3 * n:] * e1
        e_diff = e0 - e1

    moments = np.empty((degree + 1, n))
    moments[0] = 0.5 * np.sqrt(np.pi / p_coef) * scaled
    moments[1] = e_diff * inv2p
    bound = edge * inv2p
    factor = _RECURSION_ROWS * inv2p
    # Even and odd moments form two independent chains, advanced together.
    for q in range(2, degree + 1, 2):
        hi = min(q + 2, degree + 1)
        moments[q:hi] = bound[q - 2:hi - 2] + factor[q - 2:hi - 2] * moments[q - 2:hi - 2]

    # BLAS takes a one-column product through gemv, which rounds unlike
    # gemm; multiplying every column of the table, at least three, keeps
    # each element's value independent of the batch it is evaluated in.
    mixed = (_CORRECTION_BINOMIAL @ pows)[:, :n]
    # Summed row by row, as a running sum: ``np.add.reduce`` turns to
    # pairwise summation when the batch is narrow, which rounds otherwise.
    total = np.add.accumulate(pows[:, n:2 * n] * moments * mixed, axis=0)[-1]
    norm = 1.0 / np.sqrt(2.0 * np.pi * s2mu)
    return norm * total


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
    out = np.zeros(mu_mu.shape)

    no_spread = s2mu <= 1e-300
    if no_spread.any():
        out[no_spread] = bayes_risk_batch(mu_mu[no_spread], s2q[no_spread], loss)

    live = ~no_spread & (s2q > 1e-300)
    n_live = np.count_nonzero(live)
    if not n_live:
        return out.clip(0.0, max(c1, c2))
    if n_live == live.size:
        # Every step below is elementwise, so with nothing to mask out
        # the inputs are used as they are.
        mm, vmu, vq = mu_mu.ravel(), s2mu.ravel(), s2q.ravel()
    else:
        mm, vmu, vq = mu_mu[live], s2mu[live], s2q[live]
    sd_mu = np.sqrt(vmu)
    sd_q = np.sqrt(vq)
    ms = level - float(special.erfinv((c2 - c1) / (c1 + c2))) * sd_q * math.sqrt(2.0)
    s = 1.0 / (sd_q * math.sqrt(2.0))

    term1 = (c2 - c1) / 4.0 * (1.0 + special.erf((ms - mm) / (sd_mu * math.sqrt(2.0))))
    term2 = c1 / 2.0 * (1.0 + special.erf((level - mm) / np.sqrt(2.0 * (vq + vmu))))

    # Final integral, shallow side: mu from -inf to min(mu*, level).
    upper = np.minimum(ms, level)
    phi_u = _phi((upper - mm) / sd_mu)
    v0 = level - upper
    sum_a = _branch_sum(level - mm, vmu, s, v0)
    t_total = phi_u - sum_a

    # Deep side, present only when mu* exceeds the level.
    has_b = ms > level
    if has_b.any():
        v1 = np.where(has_b, ms - level, 1.0)
        phi_ms = _phi((ms - mm) / sd_mu)
        phi_l = _phi((level - mm) / sd_mu)
        # The deep-side Gaussian is centered at mu_mu - level in v-space.
        sum_b = _branch_sum(mm - level, vmu, s, np.zeros_like(mm), v1)
        t_b = np.where(has_b, -(phi_ms - phi_l) + sum_b, 0.0)
        t_total = t_total + t_b

    out[live] = term1 + term2 - (c1 + c2) / 2.0 * t_total
    return out.clip(0.0, max(c1, c2))


@dataclass
class RiskField:
    """Conditional Bayes risk evaluated on a point lattice."""

    points: np.ndarray
    values: np.ndarray

    def write_csv(self, path):
        with open(path, "w") as fh:
            fh.write("north_m,east_m,risk\n")
            for (n, e), r in zip(self.points, self.values):
                fh.write(f"{float(n)!r},{float(e)!r},{float(r)!r}\n")


def risk_field(
    kernel: KernelSpec,
    data: DataSet,
    eval_points,
    loss: LossParams,
    *,
    prior_mean: float = 0.0,
) -> RiskField:
    """Current conditional risk field under the given belief."""
    pts = np.asarray(eval_points, dtype=float).reshape(-1, 2)
    means, varis = Belief(kernel, prior_mean, data).predict_arrays(pts)
    return RiskField(pts, bayes_risk_batch(means, varis, loss))
