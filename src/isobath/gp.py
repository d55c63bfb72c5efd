"""Gaussian-process regression over a scalar field on the plane.

Beliefs about the field are represented nonparametrically: a kernel, a
constant prior mean, and a density-limited set of noisy point samples.
Prediction follows the standard conditioning equations

    mean(p)     = m + k*(p)^T (K + sn^2 I)^-1 (z - m)
    variance(p) = k(p, p) - k*(p)^T (K + sn^2 I)^-1 k*(p)

with a squared-exponential kernel k(p, q) = sf^2 exp(-|p - q|^2 / (2 l^2)).

Two ingredients keep belief maintenance cheap enough for embedded-style
planning loops. First, sample insertion is density-limited: a new sample
is only accepted when it is at least ``min_spacing`` away from every
retained sample, so the kernel-center count is bounded by area coverage
rather than by mission length. Second, predictions may be formed from the
local subset of samples within a cutoff radius of the query; the
truncation error vanishes as the radius grows and the truncated variance
always bounds the full-data variance from above.

:class:`Belief` is the one implementation of these equations. It factors
the data Gram matrix once, at construction. Every prediction in this
module, in the risk objective and in the planner's episode evaluator
conditions through such a factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular
from scipy.spatial.distance import cdist

from .errors import NumericalError

# Multiplied by signal_variance and added to the Gram diagonal when a
# Cholesky factorization fails (e.g. duplicate locations with zero noise).
JITTER_SCALE = 1e-8

# Factorizations whose estimated 2-norm condition number exceeds this cap
# are rejected as numerically meaningless.
CONDITION_CAP = 1e14


@dataclass(frozen=True)
class KernelSpec:
    """Stationary covariance description.

    Parameters
    ----------
    length_scale : float
        Correlation length of the field, in meters. Must be positive.
    signal_variance : float
        Prior marginal variance sf^2 of the field. Must be positive.
    noise_std : float
        Standard deviation of additive measurement noise. Non-negative.
    family : str
        Kernel family name. Only "squared-exponential" is supported.
    """

    length_scale: float
    signal_variance: float
    noise_std: float
    family: str = "squared-exponential"

    def __post_init__(self):
        if not (self.length_scale > 0):
            raise ValueError("length_scale must be positive")
        if not (self.signal_variance > 0):
            raise ValueError("signal_variance must be positive")
        if self.noise_std < 0:
            raise ValueError("noise_std must be non-negative")
        if self.family != "squared-exponential":
            raise ValueError(f"unsupported kernel family: {self.family!r}")

    def __call__(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Cross-covariance matrix between row-stacked location arrays."""
        a = np.atleast_2d(np.asarray(a, dtype=float))
        b = np.atleast_2d(np.asarray(b, dtype=float))
        d2 = np.sum((a[:, None, :] - b[None, :, :]) ** 2, axis=-1)
        return self.signal_variance * np.exp(-d2 / (2.0 * self.length_scale**2))


@dataclass(frozen=True)
class Sample:
    """One noisy scalar measurement at a planar location."""

    location: tuple[float, float]
    value: float

    def __post_init__(self):
        loc = (float(self.location[0]), float(self.location[1]))
        object.__setattr__(self, "location", loc)
        object.__setattr__(self, "value", float(self.value))
        if not (math.isfinite(loc[0]) and math.isfinite(loc[1])):
            raise ValueError("sample location must be finite")
        if not math.isfinite(self.value):
            raise ValueError("sample value must be finite")


class DataSet:
    """Ordered, density-limited collection of samples.

    Insertion order is preserved; every pair of retained locations is at
    least ``min_spacing`` apart. On conflicts the first writer wins: a
    sample landing within ``min_spacing`` of a retained one is rejected,
    whatever its value.
    """

    def __init__(self, min_spacing: float, samples=()):
        if min_spacing < 0:
            raise ValueError("min_spacing must be non-negative")
        self.min_spacing = float(min_spacing)
        self._locs = np.empty((0, 2), dtype=float)
        self._vals = np.empty((0,), dtype=float)
        for s in samples:
            self.insert(s)

    def __len__(self) -> int:
        return self._locs.shape[0]

    @property
    def locations(self) -> np.ndarray:
        """(n, 2) array of retained locations, in insertion order."""
        return self._locs

    @property
    def values(self) -> np.ndarray:
        """(n,) array of retained values, in insertion order."""
        return self._vals

    def samples(self) -> list[Sample]:
        return [
            Sample((float(p[0]), float(p[1])), float(v))
            for p, v in zip(self._locs, self._vals)
        ]

    def insert(self, sample: Sample) -> bool:
        """Insert under the density rule; return True when retained.

        The boundary is inclusive: a sample exactly ``min_spacing`` away
        from its nearest retained neighbor is accepted.
        """
        loc = np.asarray(sample.location, dtype=float)
        if len(self) > 0 and self.min_spacing > 0:
            d2 = np.sum((self._locs - loc) ** 2, axis=1)
            if d2.min() < self.min_spacing**2:
                return False
        self._locs = np.vstack([self._locs, loc[None, :]])
        self._vals = np.append(self._vals, float(sample.value))
        return True

    def copy(self) -> "DataSet":
        out = DataSet(self.min_spacing)
        out._locs = self._locs.copy()
        out._vals = self._vals.copy()
        return out


def local_subset(data: DataSet, query, d_eps: float) -> DataSet:
    """Samples within ``d_eps`` of ``query`` (inclusive), order preserved."""
    q = np.asarray(query, dtype=float)
    out = DataSet(data.min_spacing)
    if len(data) == 0:
        return out
    mask = np.sum((data.locations - q) ** 2, axis=1) <= d_eps**2
    out._locs = data.locations[mask].copy()
    out._vals = data.values[mask].copy()
    return out


def _with_planned(data: DataSet, planned: np.ndarray) -> DataSet:
    """``data`` plus zero-valued samples at ``planned``, density rule bypassed.

    Only variances are read from a belief on the result: they do not
    depend on sample values, so the placeholder zeros never enter them.
    """
    out = DataSet(0.0)
    out._locs = np.vstack([data.locations, planned])
    out._vals = np.concatenate([data.values, np.zeros(planned.shape[0])])
    return out


def admissible_locations(
    locations: np.ndarray, min_spacing: float, existing: np.ndarray | None = None
) -> np.ndarray:
    """Thin candidate locations by the sparse-insertion rule.

    Walks ``locations`` in order and keeps each one iff it lies at least
    ``min_spacing`` (inclusive) from all ``existing`` locations and all
    previously kept candidates. This predicts exactly which of a planned
    measurement sequence would survive insertion into a data set that
    currently holds ``existing``.
    """
    locations = np.asarray(locations, dtype=float).reshape(-1, 2)
    base = (
        np.asarray(existing, dtype=float).reshape(-1, 2)
        if existing is not None
        else np.empty((0, 2))
    )
    r2 = min_spacing**2
    if base.shape[0] and locations.shape[0]:
        # Rejection against fixed existing points is order-independent,
        # so it can be applied in one vectorized pass up front.
        d2 = cdist(locations, base, "sqeuclidean").min(axis=1)
        locations = locations[d2 >= r2]
    kept = np.empty_like(locations)
    n_kept = 0
    last_n = last_e = 0.0
    for n_c, e_c in locations.tolist():
        if n_kept:
            # Cheap sufficient rejection: too close to the last kept point
            # (the common case for points sampled densely along a path).
            dn, de = n_c - last_n, e_c - last_e
            if dn * dn + de * de < r2:
                continue
            if np.min(np.sum((kept[:n_kept] - (n_c, e_c)) ** 2, axis=1)) < r2:
                continue
        kept[n_kept, 0] = n_c
        kept[n_kept, 1] = e_c
        last_n, last_e = n_c, e_c
        n_kept += 1
    return kept[:n_kept].copy() if n_kept else np.empty((0, 2))


@dataclass(frozen=True)
class Prediction:
    """Posterior mean and variance of the latent field at one location."""

    mean: float
    variance: float

    def __post_init__(self):
        if self.variance < 0:
            raise ValueError("prediction variance must be non-negative")


def _chol_with_jitter(gram: np.ndarray, kernel: KernelSpec, n: int) -> np.ndarray:
    """Cholesky factor of an SPD matrix, retrying once with jitter.

    Raises NumericalError naming the data size on unrecoverable failure
    or when the factor's estimated condition number exceeds the cap.
    """
    try:
        low = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        jitter = JITTER_SCALE * kernel.signal_variance
        try:
            low = np.linalg.cholesky(gram + jitter * np.eye(gram.shape[0]))
        except np.linalg.LinAlgError:
            raise NumericalError(
                f"Gram matrix of {n} samples is not positive definite even "
                f"after jitter {jitter:g}"
            ) from None
    diag = np.diagonal(low)
    cond_est = (diag.max() / diag.min()) ** 2
    if cond_est > CONDITION_CAP:
        raise NumericalError(
            f"Gram matrix of {n} samples is ill-conditioned "
            f"(condition estimate {cond_est:.2e} exceeds cap {CONDITION_CAP:.0e})"
        )
    return low


class Belief:
    """A kernel and constant prior mean conditioned on a data set.

    The data Gram matrix ``K + sn^2 I`` is factored once, at
    construction, as ``L L^T``. The belief conditions on the samples
    ``data`` holds at that moment; later inserts are not seen, so build
    a new belief after the data changes. With no data every prediction
    is the prior: (prior_mean, signal_variance).
    """

    def __init__(self, kernel: KernelSpec, prior_mean: float, data: DataSet):
        self.kernel = kernel
        self.prior_mean = prior_mean
        self.data = data
        self._locs = data.locations
        n = len(data)
        gram = kernel(self._locs, self._locs) + kernel.noise_std**2 * np.eye(n)
        self._low = _chol_with_jitter(gram, kernel, n) if n else np.empty((0, 0))
        self._alpha = solve_triangular(
            self._low.T, self.solve(data.values - prior_mean),
            lower=False, check_finite=False,
        )

    def solve(self, k_sx: np.ndarray) -> np.ndarray:
        """``L^-1 k_sx`` for a block with one row per data sample."""
        return solve_triangular(self._low, k_sx, lower=True, check_finite=False)

    def project(self, queries) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(means, variances, ``L^-1 k(S, queries)``) at the query locations.

        The third block is what a low-rank update on added locations
        needs; ``predict_arrays`` drops it.
        """
        queries = np.asarray(queries, dtype=float).reshape(-1, 2)
        kstar = self.kernel(self._locs, queries)  # (n, q)
        means = self.prior_mean + kstar.T @ self._alpha
        half = self.solve(kstar)  # (n, q)
        varis = self.kernel.signal_variance - np.sum(half**2, axis=0)
        return means, np.maximum(varis, 0.0), half

    def predict_arrays(self, queries) -> tuple[np.ndarray, np.ndarray]:
        """(means, variances) arrays at the query locations."""
        means, varis, _ = self.project(queries)
        return means, varis

    def predict(self, queries) -> list[Prediction]:
        means, varis = self.predict_arrays(queries)
        return [Prediction(float(m), float(v)) for m, v in zip(means, varis)]


def posterior_predict(
    kernel: KernelSpec, data: DataSet, prior_mean: float, queries
) -> list[Prediction]:
    """Condition the prior on ``data`` and predict at each query location.

    With no data this returns the prior: (prior_mean, signal_variance).
    """
    return Belief(kernel, prior_mean, data).predict(queries)


def posterior_predict_local(
    kernel: KernelSpec, data: DataSet, prior_mean: float, queries, d_eps: float
) -> list[Prediction]:
    """Per-query prediction from the local subset within ``d_eps``."""
    queries = np.asarray(queries, dtype=float).reshape(-1, 2)
    return [
        Belief(kernel, prior_mean, local_subset(data, q, d_eps)).predict(q)[0]
        for q in queries
    ]


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
