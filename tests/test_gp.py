"""Belief maintenance: kernel, conditioning, density filter, thinning."""

import copy
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from isobath.gp import (
    CONDITION_CAP,
    JITTER_SCALE,
    Belief,
    DataSet,
    KernelSpec,
    Sample,
    _chol_with_jitter,
    admissible_locations,
    admissible_sets,
)
from isobath.errors import NumericalError
from reference import variance_reduction

KERNEL = KernelSpec(length_scale=60.0, signal_variance=25.0, noise_std=0.5)


def broadcast_kernel(kernel, a, b):
    """The covariance through a broadcast difference of the two blocks.

    ``KernelSpec`` takes its distances from ``cdist`` instead; the two
    routes must agree bit for bit.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    d2 = np.sum((a[:, None, :] - b[None, :, :]) ** 2, axis=-1)
    return kernel.signal_variance * np.exp(-d2 / (2.0 * kernel.length_scale**2))


def dense_reference(kernel, locations, values, prior_mean, queries):
    """Independent conditioning route: full solve, no Cholesky reuse."""
    locations = np.asarray(locations, float)
    values = np.asarray(values, float)
    queries = np.asarray(queries, float).reshape(-1, 2)
    n = len(locations)
    if n == 0:
        return (
            np.full(len(queries), prior_mean),
            np.full(len(queries), kernel.signal_variance),
        )

    gram = broadcast_kernel(kernel, locations, locations) + (
        kernel.noise_std**2 * np.eye(n)
    )
    kstar = broadcast_kernel(kernel, locations, queries)
    weights = np.linalg.solve(gram, kstar)
    means = prior_mean + kstar.T @ np.linalg.solve(gram, values - prior_mean)
    varis = kernel.signal_variance - np.sum(kstar * weights, axis=0)
    return means, varis


def make_data(rng, n, min_spacing=0.0, span=400.0):
    data = DataSet(min_spacing=min_spacing)
    for _ in range(n):
        loc = tuple(rng.uniform(0, span, 2))
        data.insert(Sample(loc, float(rng.normal(15, 4))))
    return data


class TestKernel:
    def test_self_covariance_is_signal_variance(self):
        pts = np.array([[0.0, 0.0], [123.4, -56.7]])
        cov = KERNEL(pts, pts)
        assert np.allclose(np.diag(cov), 25.0)

    def test_symmetry_and_positive_definiteness(self):
        rng = np.random.default_rng(0)
        pts = rng.uniform(0, 500, (30, 2))
        cov = KERNEL(pts, pts)
        assert np.allclose(cov, cov.T)
        eigs = np.linalg.eigvalsh(cov)
        assert eigs.min() > -1e-8

    def test_decay_with_distance(self):
        base = np.array([[0.0, 0.0]])
        near = KERNEL(base, np.array([[10.0, 0.0]]))[0, 0]
        far = KERNEL(base, np.array([[300.0, 0.0]]))[0, 0]
        assert near > far
        # One length scale out, correlation is exp(-1/2).
        one_ell = KERNEL(base, np.array([[60.0, 0.0]]))[0, 0]
        assert one_ell == pytest.approx(25.0 * math.exp(-0.5), rel=1e-12)

    @given(
        st.integers(0, 2**31 - 1),
        st.sampled_from(["point", "empty", "self", "blocks"]),
        st.integers(0, 8),
        st.integers(0, 8),
        st.sampled_from([1.0, 60.0, 1000.0]),
    )
    @settings(max_examples=300, deadline=None)
    def test_equals_the_broadcast_formula(self, seed, shape, n_a, n_b, span):
        rng = np.random.default_rng(seed)
        kernel = KernelSpec(rng.uniform(1.0, 200.0), rng.uniform(0.1, 50.0), 0.5)
        b = rng.uniform(-span, span, (n_b, 2))
        if shape == "point":
            a = rng.uniform(-span, span, 2)
        elif shape == "empty":
            a = np.empty((0, 2))
        elif shape == "self":
            a = b
        else:
            a = rng.uniform(-span, span, (n_a, 2))
        for x, y in ((a, b), (b, a), (a, a)):
            got = kernel(x, y)
            want = broadcast_kernel(kernel, x, y)
            assert got.shape == want.shape
            assert np.array_equal(got, want)

    @given(st.integers(0, 2**31 - 1), st.integers(0, 12))
    @settings(max_examples=100, deadline=None)
    def test_near_grid_block_equals_a_fresh_kernel_call(self, seed, n_added):
        # EpisodeEvaluator.marginal keeps the squared distances that pick
        # the evaluation points within d_eps, and takes k(added, grid[idx])
        # from their columns.
        rng = np.random.default_rng(seed)
        grid = np.stack(
            np.meshgrid(np.arange(0.0, 400.0, 20.0), np.arange(0.0, 300.0, 20.0)),
            axis=-1,
        ).reshape(-1, 2)
        added = rng.uniform(-300.0, 700.0, (n_added, 2))
        d2 = cdist(added, grid, "sqeuclidean")
        idx = np.flatnonzero((d2 <= (3.0 * KERNEL.length_scale) ** 2).any(axis=0))
        assert np.array_equal(KERNEL.from_sqdist(d2[:, idx]), KERNEL(added, grid[idx]))

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            KernelSpec(0.0, 25.0, 0.5)
        with pytest.raises(ValueError):
            KernelSpec(60.0, -1.0, 0.5)
        with pytest.raises(ValueError):
            KernelSpec(60.0, 25.0, -0.1)


class TestPosterior:
    def test_matches_dense_solve(self):
        rng = np.random.default_rng(1)
        data = make_data(rng, 40)
        queries = rng.uniform(0, 400, (25, 2))
        got_m, got_v = Belief(KERNEL, 15.0, data).predict_arrays(queries)
        want_m, want_v = dense_reference(
            KERNEL, data.locations, data.values, 15.0, queries
        )
        np.testing.assert_allclose(got_m, want_m, rtol=1e-8)
        np.testing.assert_allclose(got_v, want_v, rtol=1e-7, atol=1e-10)

    def test_empty_data_returns_prior(self):
        belief = Belief(KERNEL, 15.0, DataSet(30.0))
        means, varis = belief.predict_arrays([[10.0, 20.0]])
        assert means[0] == 15.0
        assert varis[0] == 25.0

    def test_empty_belief_is_the_prior_with_an_empty_projection(self):
        belief = Belief(KERNEL, 15.0, DataSet(30.0))
        queries = [[10.0, 20.0], [300.0, -40.0], [0.0, 0.0]]
        means, varis, half = belief.project(queries)
        assert means.tolist() == [15.0] * 3
        assert varis.tolist() == [KERNEL.signal_variance] * 3
        assert half.shape == (0, 3)
        assert belief.solve(np.empty((0, 4))).shape == (0, 4)

    def test_reverts_to_prior_far_from_data(self):
        data = DataSet(0.0, [Sample((0.0, 0.0), 22.0)])
        (mean,), (var,) = Belief(KERNEL, 15.0, data).predict_arrays([[5000.0, 5000.0]])
        assert mean == pytest.approx(15.0, abs=1e-9)
        assert var == pytest.approx(25.0, abs=1e-9)

    def test_variance_shrinks_at_observed_location(self):
        data = DataSet(0.0, [Sample((100.0, 100.0), 20.0)])
        (mean,), (var,) = Belief(KERNEL, 15.0, data).predict_arrays([[100.0, 100.0]])
        # At the sample, residual variance is sf^2 sn^2 / (sf^2 + sn^2).
        want = 25.0 * 0.25 / 25.25
        assert var == pytest.approx(want, rel=1e-10)
        assert mean == pytest.approx(15.0 + (20.0 - 15.0) * 25.0 / 25.25, rel=1e-10)

    def test_noise_free_interpolation(self):
        kernel = KernelSpec(60.0, 25.0, 0.0)
        rng = np.random.default_rng(2)
        data = make_data(rng, 8, min_spacing=50.0)
        means, varis = Belief(kernel, 15.0, data).predict_arrays(data.locations)
        np.testing.assert_allclose(means, data.values, rtol=0, atol=1e-6)
        assert varis.max() < 1e-6

    def test_duplicate_locations_jitter_recovery(self):
        kernel = KernelSpec(60.0, 25.0, 0.0)
        data = DataSet(0.0, [Sample((50.0, 50.0), 20.0), Sample((50.0, 50.0), 20.0)])
        (mean,), (var,) = Belief(kernel, 15.0, data).predict_arrays([[50.0, 50.0]])
        assert mean == pytest.approx(20.0, abs=1e-3)
        assert var >= 0.0

    def test_condition_cap_raises(self):
        gram = np.diag([1.0, 1e-30])
        with pytest.raises(NumericalError, match="ill-conditioned"):
            _chol_with_jitter(gram, KERNEL, 2)

    def test_condition_within_cap_passes(self):
        gram = np.diag([1.0, 1e-10])
        low = _chol_with_jitter(gram, KERNEL, 2)
        assert np.allclose(low @ low.T, gram)


class TestCholesky:
    """``_chol_with_jitter`` calls numpy's Cholesky gufunc without its wrapper."""

    @staticmethod
    def schur_block(rng, n_data, n_added):
        """A planned block's covariance given the data, as ``marginal`` builds it."""
        data = rng.uniform(0.0, 300.0, (n_data, 2))
        added = rng.uniform(0.0, 300.0, (n_added, 2))
        gram = KERNEL(data, data) + KERNEL.noise_std**2 * np.eye(n_data)
        b = np.linalg.solve(np.linalg.cholesky(gram), KERNEL(data, added))
        block = KERNEL(added, added) + KERNEL.noise_std**2 * np.eye(n_added)
        return block - b.T @ b

    @pytest.mark.parametrize("n", range(1, 21))
    def test_equals_numpy_cholesky_on_schur_blocks(self, n):
        rng = np.random.default_rng(n)
        for n_data in (0, 5, 40):
            block = self.schur_block(rng, n_data, n)
            want = np.linalg.cholesky(block)
            got = _chol_with_jitter(block, KERNEL, n)
            assert got.flags.c_contiguous
            assert np.array_equal(got, want)

    def test_duplicate_locations_take_the_jitter_path(self):
        kernel = KernelSpec(60.0, 25.0, 0.0)
        pts = np.array([[50.0, 50.0], [50.0, 50.0], [80.0, 10.0]])
        gram = kernel(pts, pts)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(gram)
        jitter = JITTER_SCALE * kernel.signal_variance
        want = np.linalg.cholesky(gram + jitter * np.eye(3))
        assert np.array_equal(_chol_with_jitter(gram, kernel, 3), want)

    def test_a_block_that_is_not_positive_definite_raises(self):
        gram = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(NumericalError, match="not positive definite"):
            _chol_with_jitter(gram, KERNEL, 2)

    def test_a_block_over_the_condition_cap_raises(self):
        gram = np.diag([1.0, 1.0 / CONDITION_CAP / 4.0])
        with pytest.raises(NumericalError, match="ill-conditioned"):
            _chol_with_jitter(gram, KERNEL, 2)

    def test_failure_raises_no_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError):
                _chol_with_jitter(np.array([[-1.0]]), KERNEL, 1)


def vectorized_insert(locs, vals, min_spacing, loc, value):
    """The original array insert, kept as the reference for ``DataSet``.

    One distance pass over every retained location, then a copy of both
    arrays on acceptance. Returns (locations, values, accepted).
    """
    loc = np.asarray(loc, dtype=float)
    if len(locs) > 0 and min_spacing > 0:
        d2 = np.sum((locs - loc) ** 2, axis=1)
        if d2.min() < min_spacing**2:
            return locs, vals, False
    return np.vstack([locs, loc[None, :]]), np.append(vals, float(value)), True


@st.composite
def insert_cases(draw):
    """A stream of samples and a spacing for the density rule."""
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    spacing = draw(st.sampled_from([0.0, 1.0, 7.3, 30.0]))
    n = draw(st.integers(0, 80))
    shape = draw(st.sampled_from(["walk", "lattice", "boundary", "duplicates"]))
    unit = spacing or 1.0
    if shape == "walk":
        # A vehicle track: 5 m steps, slowly turning, anywhere in sign.
        heading = np.cumsum(rng.normal(0.0, 0.3, n))
        steps = 5.0 * np.c_[np.cos(heading), np.sin(heading)]
        pts = np.cumsum(steps, axis=0) + rng.uniform(-200.0, 200.0, 2)
    elif shape == "lattice":
        # Neighbours exactly min_spacing apart: the inclusive boundary decides.
        pts = rng.integers(-5, 5, (n, 2)) * unit
    elif shape == "boundary":
        # On the grid's cell edges, or a rounding step to either side.
        cell = unit * (1.0 + 1e-6)
        pts = rng.integers(-5, 5, (n, 2)) * cell
        pts = pts + rng.choice([-1.0, 0.0, 1.0], (n, 2)) * np.spacing(pts)
    else:
        seen = rng.uniform(-60.0, 60.0, (max(n // 4, 1), 2))
        pts = seen[rng.integers(0, len(seen), n)]
    return pts, rng.normal(15.0, 4.0, n), spacing


class TestDensityFilter:
    def test_boundary_is_inclusive(self):
        data = DataSet(min_spacing=30.0)
        assert data.insert(Sample((0.0, 0.0), 1.0))
        assert data.insert(Sample((30.0, 0.0), 2.0))
        assert len(data) == 2

    def test_rejects_below_spacing(self):
        data = DataSet(min_spacing=30.0)
        assert data.insert(Sample((0.0, 0.0), 1.0))
        assert not data.insert(Sample((29.999, 0.0), 2.0))
        assert len(data) == 1

    def test_first_writer_wins(self):
        data = DataSet(min_spacing=30.0)
        data.insert(Sample((0.0, 0.0), 1.0))
        data.insert(Sample((1.0, 1.0), 99.0))
        assert data.values.tolist() == [1.0]

    def test_insertion_order_preserved(self):
        data = DataSet(min_spacing=10.0)
        pts = [(0.0, 0.0), (50.0, 0.0), (100.0, 0.0)]
        for i, p in enumerate(pts):
            data.insert(Sample(p, float(i)))
        assert data.values.tolist() == [0.0, 1.0, 2.0]
        assert data.locations.tolist() == [list(p) for p in pts]

    @given(
        st.lists(
            st.tuples(
                st.floats(0, 500, allow_nan=False),
                st.floats(0, 500, allow_nan=False),
            ),
            max_size=40,
        ),
        st.floats(1.0, 120.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_retained_pairs_respect_spacing(self, locs, spacing):
        data = DataSet(min_spacing=spacing)
        for i, p in enumerate(locs):
            data.insert(Sample(p, float(i)))
        kept = data.locations
        for i in range(len(kept)):
            for j in range(i + 1, len(kept)):
                assert np.linalg.norm(kept[i] - kept[j]) >= spacing - 1e-9

    @given(insert_cases())
    @settings(max_examples=300, deadline=None)
    def test_insert_equals_the_vectorized_rule(self, case):
        pts, vals, spacing = case
        data = DataSet(min_spacing=spacing)
        locs, kept_vals = np.empty((0, 2)), np.empty((0,))
        for p, v in zip(pts.tolist(), vals.tolist()):
            locs, kept_vals, want = vectorized_insert(locs, kept_vals, spacing, p, v)
            assert data.insert(Sample(p, v)) == want
        assert data.locations.shape == locs.shape
        assert np.array_equal(data.locations, locs)
        assert np.array_equal(data.values, kept_vals)

    @given(insert_cases(), st.integers(0, 80))
    @settings(max_examples=200, deadline=None)
    def test_prefix_equals_a_fresh_set_of_its_samples(self, case, n):
        pts, vals, spacing = case
        samples = [Sample(p, v) for p, v in zip(pts.tolist(), vals.tolist())]
        data = DataSet(spacing, samples)
        n = min(n, len(data))
        part = data.prefix(n)
        fresh = DataSet(spacing, [
            Sample(p, v)
            for p, v in zip(data.locations[:n].tolist(), data.values[:n].tolist())
        ])
        assert np.array_equal(part.locations, fresh.locations)
        assert np.array_equal(part.values, fresh.values)
        # The prefix's grid holds its samples: later inserts go the same way,
        # and none of them reaches the source set.
        size = len(data)
        for s in samples[::-1]:
            assert part.insert(s) == fresh.insert(s)
        assert np.array_equal(part.locations, fresh.locations)
        assert len(data) == size

    def test_copy_is_independent_of_its_source(self):
        data = DataSet(10.0, [Sample((0.0, 0.0), 1.0)])
        twin = copy.deepcopy(data)
        assert twin.insert(Sample((50.0, 0.0), 2.0))
        assert len(data) == 1
        # Each keeps its own density grid: neither sees the other's points.
        assert data.insert(Sample((55.0, 0.0), 3.0))
        assert not twin.insert(Sample((55.0, 0.0), 3.0))
        assert data.locations.tolist() == [[0.0, 0.0], [55.0, 0.0]]
        assert data.values.tolist() == [1.0, 3.0]
        assert twin.locations.tolist() == [[0.0, 0.0], [50.0, 0.0]]
        assert twin.values.tolist() == [1.0, 2.0]

    def test_arrays_read_before_an_insert_do_not_change(self):
        data = DataSet(30.0, [Sample((0.0, 0.0), 20.0)])
        locs, vals = data.locations, data.values
        belief = Belief(KERNEL, 15.0, data)
        queries = np.array([[10.0, 0.0], [70.0, 0.0]])
        means, varis = belief.predict_arrays(queries)
        assert data.insert(Sample((60.0, 0.0), 5.0))
        assert locs.tolist() == [[0.0, 0.0]]
        assert vals.tolist() == [20.0]
        assert data.locations.tolist() == [[0.0, 0.0], [60.0, 0.0]]
        after_means, after_varis = belief.predict_arrays(queries)
        assert np.array_equal(after_means, means)
        assert np.array_equal(after_varis, varis)



def greedy_thinning(locations, min_spacing, existing=None):
    """The original per-point thinning loop, kept as the oracle."""
    locations = np.asarray(locations, dtype=float).reshape(-1, 2)
    base = (
        np.asarray(existing, dtype=float).reshape(-1, 2)
        if existing is not None
        else np.empty((0, 2))
    )
    r2 = min_spacing**2
    if base.shape[0] and locations.shape[0]:
        d2 = cdist(locations, base, "sqeuclidean").min(axis=1)
        locations = locations[d2 >= r2]
    kept = np.empty_like(locations)
    n_kept = 0
    last_n = last_e = 0.0
    for n_c, e_c in locations.tolist():
        if n_kept:
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


@st.composite
def thinning_cases(draw):
    """Candidates, spacing and optional existing points for the thinning."""
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    spacing = draw(st.sampled_from([0.0, 1.0, 7.3, 30.0]))
    n = draw(st.integers(0, 80))
    shape = draw(st.sampled_from(["walk", "lattice", "path"]))
    if shape == "walk":
        steps = rng.normal(0.0, rng.choice([1.0, 5.0, 20.0]), (n, 2))
        pts = np.cumsum(steps, axis=0) + rng.uniform(-100.0, 100.0, 2)
    elif shape == "lattice":
        # Neighbours sit exactly min_spacing (or a fraction of it) apart,
        # so the inclusive boundary decides.
        unit = (spacing or 1.0) * rng.choice([1.0, 0.5, 1.0 / 3.0])
        pts = rng.integers(-5, 5, (n, 2)) * unit
    else:
        heading = np.cumsum(rng.normal(0.0, 0.2, n))
        pts = np.cumsum(5.0 * np.c_[np.cos(heading), np.sin(heading)], axis=0)
    existing = None
    if draw(st.booleans()):
        m = draw(st.integers(0, 20))
        existing = (
            rng.integers(-5, 5, (m, 2)) * (spacing or 1.0)
            if shape == "lattice"
            else rng.uniform(-150.0, 150.0, (m, 2))
        )
    return pts, spacing, existing


@st.composite
def thinning_set_cases(draw):
    """Several candidate sets thinned against one spacing and one existing block.

    The sets mix the shapes of ``thinning_cases``, and may include empty
    sets and a set made of the existing points, which the existing
    points remove entirely whenever the spacing is positive.
    """
    pts, spacing, existing = draw(thinning_cases())
    sets = [pts]
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(["more", "empty", "existing"]))
        if kind == "empty":
            sets.append(np.empty((0, 2)))
        elif kind == "existing" and existing is not None:
            sets.append(np.asarray(existing, dtype=float)[::-1].copy())
        else:
            other, _, _ = draw(thinning_cases())
            sets.append(other)
    order = draw(st.permutations(range(len(sets))))
    return [sets[i] for i in order], spacing, existing


class TestAdmissibleSets:
    @given(thinning_set_cases())
    @settings(max_examples=300, deadline=None)
    def test_each_set_equals_the_greedy_loop_alone(self, case):
        sets, spacing, existing = case
        pts, counts = admissible_sets(sets, spacing, existing)
        want = [greedy_thinning(x, spacing, existing) for x in sets]
        assert counts == [w.shape[0] for w in want]
        assert pts.shape == (sum(counts), 2)
        got = np.split(pts, np.cumsum(counts)[:-1])
        for g, w, x in zip(got, want, sets):
            assert np.array_equal(g, w)
            assert np.array_equal(g, admissible_locations(x, spacing, existing))

    def test_empty_sets_and_a_set_the_existing_points_remove(self):
        existing = np.array([[0.0, 0.0], [100.0, 0.0]])
        sets = [
            np.empty((0, 2)),
            existing[::-1].copy(),
            np.array([[0.0, 10.0], [0.0, 30.0], [0.0, 50.0], [0.0, 60.0]]),
            np.empty((0, 2)),
        ]
        pts, counts = admissible_sets(sets, 30.0, existing)
        assert counts == [0, 0, 2, 0]
        assert pts.tolist() == [[0.0, 30.0], [0.0, 60.0]]
        assert admissible_sets([], 30.0, existing)[1] == []

    def test_lattice_points_exactly_the_spacing_apart_are_all_kept(self):
        # Binary fractions, so every neighbour is exactly ``spacing`` away.
        spacing = 7.25
        lattice = np.array([[i, j] for i in range(4) for j in range(4)]) * spacing
        pts, counts = admissible_sets([lattice, lattice[::-1].copy()], spacing)
        assert counts == [16, 16]
        assert np.array_equal(pts, np.vstack([lattice, lattice[::-1]]))

    def test_zero_spacing_keeps_everything(self):
        sets = [np.array([[1.0, 1.0], [1.0, 1.0]]), np.array([[2.0, 2.0]])]
        pts, counts = admissible_sets(sets, 0.0, np.array([[1.0, 1.0]]))
        assert counts == [2, 1]
        assert pts.tolist() == [[1.0, 1.0], [1.0, 1.0], [2.0, 2.0]]


class TestAdmissibleLocations:
    @given(thinning_cases())
    @settings(max_examples=300, deadline=None)
    def test_equals_the_greedy_loop(self, case):
        pts, spacing, existing = case
        got = admissible_locations(pts, spacing, existing)
        want = greedy_thinning(pts, spacing, existing)
        assert got.shape == want.shape
        assert np.array_equal(got, want)

    @given(st.integers(0, 2**31 - 1), st.floats(5.0, 60.0))
    @settings(max_examples=40, deadline=None)
    def test_matches_sequential_insertion(self, seed, spacing):
        rng = np.random.default_rng(seed)
        existing_data = DataSet(min_spacing=spacing)
        for _ in range(10):
            existing_data.insert(Sample(tuple(rng.uniform(0, 300, 2)), 0.0))
        candidates = rng.uniform(0, 300, (30, 2))

        got = admissible_locations(candidates, spacing, existing_data.locations)

        sim = copy.deepcopy(existing_data)
        want = [
            c for c in candidates if sim.insert(Sample((c[0], c[1]), 0.0))
        ]
        want = np.asarray(want).reshape(-1, 2)
        assert got.shape == want.shape
        np.testing.assert_array_equal(got, want)

    def test_empty_inputs(self):
        out = admissible_locations(np.empty((0, 2)), 30.0)
        assert out.shape == (0, 2)
        out = admissible_locations(np.array([[1.0, 2.0]]), 30.0, np.empty((0, 2)))
        assert out.tolist() == [[1.0, 2.0]]

    def test_order_dependence_is_first_come_first_kept(self):
        pts = np.array([[0.0, 0.0], [20.0, 0.0], [40.0, 0.0]])
        kept = admissible_locations(pts, 30.0)
        assert kept.tolist() == [[0.0, 0.0], [40.0, 0.0]]


class TestVarianceReduction:
    def test_identity_between_components(self):
        rng = np.random.default_rng(5)
        data = make_data(rng, 15, min_spacing=30.0)
        planned = rng.uniform(0, 400, (6, 2))
        query = (200.0, 200.0)
        vr = variance_reduction(KERNEL, data, planned, query, prior_mean=15.0)
        means, varis = dense_reference(
            KERNEL, data.locations, data.values, 15.0, np.array([query])
        )
        assert vr.mu_mu == pytest.approx(means[0], rel=1e-9)
        assert vr.sigma_mu_sq + vr.sigma_pq_sq == pytest.approx(varis[0], rel=1e-7)

    def test_empty_plan_reduces_nothing(self):
        data = DataSet(0.0, [Sample((0.0, 0.0), 20.0)])
        vr = variance_reduction(KERNEL, data, np.empty((0, 2)), (50.0, 50.0), 15.0)
        assert vr.sigma_mu_sq == 0.0

    def test_monotone_in_added_plan(self):
        rng = np.random.default_rng(6)
        data = make_data(rng, 10, min_spacing=30.0)
        planned = rng.uniform(0, 400, (8, 2))
        query = (150.0, 250.0)
        small = variance_reduction(KERNEL, data, planned[:3], query, 15.0)
        large = variance_reduction(KERNEL, data, planned, query, 15.0)
        assert large.sigma_mu_sq >= small.sigma_mu_sq - 1e-9
        assert large.sigma_pq_sq <= small.sigma_pq_sq + 1e-9
