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
rather than by mission length. A data set keeps its samples in a
spacing grid (``_SpacingGrid``), so ``DataSet.insert`` tests only the
retained points nearby. Planned measurements are thinned by the same
rule (``admissible_sets``): one distance pass removes those too close to
the data, and each set's greedy walk then scans its own kept points, a
few dozen at most, in a plain list, which costs less than building a
grid per set. Second, planned
measurements are scored as low-rank updates against one factor of the
data (``Belief.solve`` and ``Belief.project``), so a candidate plan
costs a few small triangular solves rather than a fresh GP solve.

:class:`Belief` is the one implementation of these equations. It factors
the data Gram matrix once, at construction. Every prediction in this
module, in the risk objective and in the planner's episode evaluator
conditions through such a factor, and every triangular solve against a
factor is one LAPACK call through ``_tri_solve``. Every factor comes
from ``_chol_with_jitter``, which calls numpy's Cholesky gufunc
directly: ``np.linalg.cholesky`` wraps the same gufunc in argument
checks that cost several times the factorization of a small block. A
failed factorization comes back from the gufunc as NaN, and is retried
once with jitter. The gufunc also flags the failure as an invalid
value, so each factorization enters ``np.errstate(invalid="ignore")``
through a decorator on the gufunc (``_cholesky_lo``), whoever calls it.
That costs about a microsecond, as much as a 6x6 factor, but entering
it once per planner evaluator call instead saved nothing measurable: a
call factors one block per scored set, and scores 1.3 to 2.4 sets on
average. The tests check the
low-rank updates against an independent route, a fresh factor of the
data plus the planned locations, kept in ``tests/reference.py``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
# A private numpy module: ``np.linalg.cholesky`` itself calls its
# ``cholesky_lo``, which fills the whole factor with NaN when a pivot
# fails. Checked on numpy 2.4.6; ``tests/test_gp.py::TestCholesky``
# compares it with ``np.linalg.cholesky`` on every numpy the tests run on.
from numpy.linalg import _umath_linalg
from scipy.linalg.lapack import dtrtrs
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
    """Squared-exponential covariance, the one kernel the package uses.

    A call takes squared distances in one ``cdist`` pass, bit-equal to a
    broadcast difference, and applies ``from_sqdist``, the one place the
    covariance formula is written.

    Parameters
    ----------
    length_scale : float
        Correlation length of the field, in meters. Must be positive.
    signal_variance : float
        Prior marginal variance sf^2 of the field. Must be positive.
    noise_std : float
        Standard deviation of additive measurement noise. Non-negative.
    """

    length_scale: float
    signal_variance: float
    noise_std: float

    def __post_init__(self):
        if not (self.length_scale > 0):
            raise ValueError("length_scale must be positive")
        if not (self.signal_variance > 0):
            raise ValueError("signal_variance must be positive")
        if self.noise_std < 0:
            raise ValueError("noise_std must be non-negative")

    def __call__(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Cross-covariance matrix between row-stacked location arrays."""
        a = np.atleast_2d(np.asarray(a, dtype=float))
        b = np.atleast_2d(np.asarray(b, dtype=float))
        return self.from_sqdist(cdist(a, b, "sqeuclidean"))

    def from_sqdist(self, d2: np.ndarray) -> np.ndarray:
        """Covariance for a block of squared distances, as ``cdist`` gives.

        ``sf^2 exp(-d2 / (2 l^2))``, worked in place on one new array:
        dividing by the negated denominator gives ``-d2 / (2 l^2)`` to
        the last bit, and saves a pass and a temporary on every call.
        """
        k = np.divide(d2, -2.0 * self.length_scale**2)
        np.exp(k, out=k)
        k *= self.signal_variance
        return k


@dataclass(frozen=True, init=False)
class Sample:
    """One noisy scalar measurement at a planar location."""

    location: tuple[float, float]
    value: float

    def __init__(self, location, value):
        loc = (float(location[0]), float(location[1]))
        value = float(value)
        if not (math.isfinite(loc[0]) and math.isfinite(loc[1])):
            raise ValueError("sample location must be finite")
        if not math.isfinite(value):
            raise ValueError("sample value must be finite")
        # Each field is set once, as ``motion.AgentState`` sets its own.
        fields = self.__dict__
        fields["location"] = loc
        fields["value"] = value


class _SpacingGrid:
    """Points hashed into cells for the density rule, each with an item.

    Cells are squares a hair over twice ``min_spacing`` wide, so every
    stored point closer than ``min_spacing`` to a query lies in the 2x2
    block of cells whose corner is nearest the query, even under
    rounding. ``near`` is the one place the rule is written: a point is
    too close when ``dn*dn + de*de < r2``, so the boundary is inclusive.
    A data set stores its retained points here, and the pooled replay
    (``mission.Replay``) its samples. With ``min_spacing == 0`` no point
    is too close and none is stored.
    """

    def __init__(self, min_spacing: float):
        self.r2 = min_spacing**2
        self.cell = 2.0 * min_spacing * (1.0 + 1e-6)
        self.cells: dict[tuple[int, int], list[tuple[float, float, object]]] = {}

    def near(self, north: float, east: float) -> list:
        """The items of every stored point too close to the query."""
        r2 = self.r2
        found = []
        if r2 == 0.0:
            return found
        # The block's first row: the query's own when it lies in the upper
        # half of its cell, else the one below; likewise the column.
        ci = math.floor(north / self.cell - 0.5)
        cj = math.floor(east / self.cell - 0.5)
        cells = self.cells
        for key in ((ci, cj), (ci, cj + 1), (ci + 1, cj), (ci + 1, cj + 1)):
            for k_n, k_e, item in cells.get(key, ()):
                dn, de = k_n - north, k_e - east
                if dn * dn + de * de < r2:
                    found.append(item)
        return found

    def admit(self, north: float, east: float) -> bool:
        """Store the point and return True unless a stored one is too close."""
        if self.near(north, east):
            return False
        self.add(north, east)
        return True

    def _cell(self, north: float, east: float) -> list:
        key = (math.floor(north / self.cell), math.floor(east / self.cell))
        return self.cells.setdefault(key, [])

    def add(self, north: float, east: float, item=None) -> None:
        """Store the point untested, as ``admit`` does once it passes."""
        if self.r2 != 0.0:
            self._cell(north, east).append((north, east, item))

    def remove(self, north: float, east: float, item) -> None:
        """Drop a point stored by ``add`` with the same item."""
        if self.r2 != 0.0:
            self._cell(north, east).remove((north, east, item))


class DataSet:
    """Ordered, density-limited collection of samples.

    Insertion order is preserved; every pair of retained locations is at
    least ``min_spacing`` apart. On conflicts the first writer wins: a
    sample landing within ``min_spacing`` of a retained one is rejected,
    whatever its value. The density test is one spacing-grid lookup; the
    grid is built on the first insert, so a set that is only read, as a
    replayed belief is, never builds one. ``locations`` and ``values``
    are built on the first read after an insert; an array once returned
    never changes.
    """

    def __init__(self, min_spacing: float, samples=()):
        if min_spacing < 0:
            raise ValueError("min_spacing must be non-negative")
        self.min_spacing = float(min_spacing)
        self._grid: _SpacingGrid | None = None
        self._locs: list[tuple[float, float]] = []
        self._vals: list[float] = []
        self._arrays: tuple[np.ndarray, np.ndarray] | None = None
        for s in samples:
            self.insert(s)

    @classmethod
    def from_admitted(cls, min_spacing: float, locations, values) -> DataSet:
        """A data set holding these retained locations and values, in order.

        The density rule must admit them in order: each location far
        enough from every one before it, so a fresh set would retain them
        all. The result equals that set, built without spacing tests; the
        locations are not checked.
        """
        out = cls(min_spacing)
        out._locs = list(locations)
        out._vals = list(values)
        return out

    def __len__(self) -> int:
        return len(self._vals)

    def _as_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        if self._arrays is None:
            self._arrays = (
                np.array(self._locs, dtype=float).reshape(-1, 2),
                np.array(self._vals, dtype=float),
            )
        return self._arrays

    @property
    def locations(self) -> np.ndarray:
        """(n, 2) array of retained locations, in insertion order."""
        return self._as_arrays()[0]

    @property
    def values(self) -> np.ndarray:
        """(n,) array of retained values, in insertion order."""
        return self._as_arrays()[1]

    def insert(self, sample: Sample) -> bool:
        """Insert under the density rule; return True when retained.

        The boundary is inclusive: a sample exactly ``min_spacing`` away
        from its nearest retained neighbor is accepted.
        """
        if self._grid is None:
            self._grid = _SpacingGrid(self.min_spacing)
            for north, east in self._locs:
                self._grid.add(north, east)
        if not self._grid.admit(*sample.location):
            return False
        self._locs.append(sample.location)
        self._vals.append(sample.value)
        self._arrays = None
        return True


def admissible_sets(
    location_sets, min_spacing: float, existing: np.ndarray | None = None
) -> tuple[np.ndarray, list[int]]:
    """Thin several candidate location sets by the sparse-insertion rule.

    Each set is thinned on its own, as ``admissible_locations`` describes:
    against ``existing`` and its own earlier kept candidates, never
    another set's. Returns the kept locations of every set, concatenated
    in set order, and the number each set kept.

    Rejection against fixed existing points is order-independent, so it
    is applied to every set's locations in one ``cdist`` pass up front.
    Each set then walks its survivors in order and tests each against
    its own kept points: the last one first, since along a sampled path
    it is the likeliest to reject, then the rest. A set keeps a few
    dozen points at most, so a plain list scans them faster than a
    spacing grid is built.
    """
    sets = [np.asarray(x, dtype=float).reshape(-1, 2) for x in location_sets]
    bounds = list(itertools.accumulate((x.shape[0] for x in sets), initial=0))
    pts = np.concatenate(sets) if sets else np.empty((0, 2))
    r2 = min_spacing**2
    if r2 == 0.0:
        return pts, [hi - lo for lo, hi in itertools.pairwise(bounds)]
    if existing is not None and len(existing) and pts.shape[0]:
        base = np.asarray(existing, dtype=float).reshape(-1, 2)
        # Reduced along the first axis, which numpy does row by row,
        # faster than one reduction per column.
        far = (cdist(base, pts, "sqeuclidean").min(axis=0) >= r2).tolist()
    else:
        far = [True] * pts.shape[0]
    flat = pts.ravel().tolist()  # north, east of point i at 2i, 2i + 1
    keep, counts = [], []
    for lo, hi in itertools.pairwise(bounds):
        kept: list[tuple[float, float]] = []
        last_n = last_e = math.inf
        for i in range(lo, hi):
            if not far[i]:
                continue
            n_c, e_c = flat[2 * i], flat[2 * i + 1]
            dn, de = n_c - last_n, e_c - last_e
            if dn * dn + de * de < r2:
                continue
            for k_n, k_e in kept:
                dn, de = k_n - n_c, k_e - e_c
                if dn * dn + de * de < r2:
                    break
            else:
                kept.append((n_c, e_c))
                keep.append(i)
                last_n, last_e = n_c, e_c
        counts.append(len(kept))
    return pts[keep], counts


def admissible_locations(
    locations: np.ndarray, min_spacing: float, existing: np.ndarray | None = None
) -> np.ndarray:
    """Thin candidate locations by the sparse-insertion rule.

    Walks ``locations`` in order and keeps each one iff it lies at least
    ``min_spacing`` (inclusive) from all ``existing`` locations and all
    previously kept candidates. This predicts exactly which of a planned
    measurement sequence would survive insertion into a data set that
    currently holds ``existing``. The one-set case of ``admissible_sets``.
    """
    return admissible_sets([locations], min_spacing, existing)[0]


# numpy's Cholesky gufunc without ``np.linalg.cholesky``'s wrapper (see
# the module docstring). A factorization that fails comes back as NaN;
# the errstate keeps it from also warning.
_cholesky_lo = np.errstate(invalid="ignore")(_umath_linalg.cholesky_lo)


def _chol_with_jitter(gram: np.ndarray, kernel: KernelSpec, n: int) -> np.ndarray:
    """Cholesky factor of an SPD matrix, retrying once with jitter.

    Raises NumericalError naming the data size on unrecoverable failure
    or when the factor's estimated condition number exceeds the cap.
    """
    low = _cholesky_lo(gram)
    if math.isnan(low[0, 0]):
        jitter = JITTER_SCALE * kernel.signal_variance
        low = _cholesky_lo(gram + jitter * np.eye(gram.shape[0]))
        if math.isnan(low[0, 0]):
            raise NumericalError(
                f"Gram matrix of {n} samples is not positive definite even "
                f"after jitter {jitter:g}"
            )
    diag = low.diagonal().tolist()
    cond_est = (max(diag) / min(diag)) ** 2
    if cond_est > CONDITION_CAP:
        raise NumericalError(
            f"Gram matrix of {n} samples is ill-conditioned "
            f"(condition estimate {cond_est:.2e} exceeds cap {CONDITION_CAP:.0e})"
        )
    return low


def _tri_solve(low: np.ndarray, rhs: np.ndarray, transpose: bool = False) -> np.ndarray:
    """``L^-1 rhs`` (``L^-T rhs`` with ``transpose``) for a lower factor ``L``.

    ``L`` is C-ordered, as ``_chol_with_jitter`` returns it. One LAPACK
    ``dtrtrs`` call on the Fortran-ordered view ``L.T``, which is the
    call SciPy's generic triangular solver makes for such a factor,
    without that solver's per-call argument validation. An empty
    right-hand side gives an empty result; a zero on the diagonal raises
    NumericalError.
    """
    if rhs.size == 0:
        return np.empty(rhs.shape)
    # Positional flags (lower, trans): keywords cost the f2py wrapper more.
    x, info = dtrtrs(low.T, rhs, 0, 0 if transpose else 1)
    if info:
        raise NumericalError(f"triangular solve failed (LAPACK info {info})")
    return x


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
        # Read by the benchmark's traced run (perfbench/tracing.py), which
        # counts the samples each prediction conditions on.
        self.data = data
        self._locs = data.locations
        n = len(data)
        gram = kernel(self._locs, self._locs) + kernel.noise_std**2 * np.eye(n)
        # The lower factor L, which the planner's low-rank updates solve
        # against directly.
        self.low = _chol_with_jitter(gram, kernel, n) if n else np.empty((0, 0))
        self._alpha = _tri_solve(
            self.low, self.solve(data.values - prior_mean), transpose=True
        )

    def solve(self, k_sx: np.ndarray) -> np.ndarray:
        """``L^-1 k_sx`` for a block with one row per data sample."""
        return _tri_solve(self.low, k_sx)

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
