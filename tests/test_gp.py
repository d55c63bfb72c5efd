"""Belief maintenance: kernel, conditioning, density filter, thinning."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isobath.gp import (
    Belief,
    DataSet,
    KernelSpec,
    Sample,
    _chol_with_jitter,
    admissible_locations,
    local_subset,
    posterior_predict,
    posterior_predict_local,
    variance_reduction,
)
from isobath.errors import NumericalError

KERNEL = KernelSpec(length_scale=60.0, signal_variance=25.0, noise_std=0.5)


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

    def k(a, b):
        d2 = np.sum((a[:, None, :] - b[None, :, :]) ** 2, axis=-1)
        return kernel.signal_variance * np.exp(-d2 / (2 * kernel.length_scale**2))

    gram = k(locations, locations) + kernel.noise_std**2 * np.eye(n)
    kstar = k(locations, queries)
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

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            KernelSpec(0.0, 25.0, 0.5)
        with pytest.raises(ValueError):
            KernelSpec(60.0, -1.0, 0.5)
        with pytest.raises(ValueError):
            KernelSpec(60.0, 25.0, -0.1)
        with pytest.raises(ValueError):
            KernelSpec(60.0, 25.0, 0.5, family="matern")


class TestPosterior:
    def test_matches_dense_solve(self):
        rng = np.random.default_rng(1)
        data = make_data(rng, 40)
        queries = rng.uniform(0, 400, (25, 2))
        got = posterior_predict(KERNEL, data, 15.0, queries)
        want_m, want_v = dense_reference(
            KERNEL, data.locations, data.values, 15.0, queries
        )
        np.testing.assert_allclose([p.mean for p in got], want_m, rtol=1e-8)
        np.testing.assert_allclose(
            [p.variance for p in got], want_v, rtol=1e-7, atol=1e-10
        )

    def test_empty_data_returns_prior(self):
        got = posterior_predict(KERNEL, DataSet(30.0), 15.0, [[10.0, 20.0]])
        assert got[0].mean == 15.0
        assert got[0].variance == 25.0

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
        (p,) = posterior_predict(KERNEL, data, 15.0, [[5000.0, 5000.0]])
        assert p.mean == pytest.approx(15.0, abs=1e-9)
        assert p.variance == pytest.approx(25.0, abs=1e-9)

    def test_variance_shrinks_at_observed_location(self):
        data = DataSet(0.0, [Sample((100.0, 100.0), 20.0)])
        (p,) = posterior_predict(KERNEL, data, 15.0, [[100.0, 100.0]])
        # At the sample, residual variance is sf^2 sn^2 / (sf^2 + sn^2).
        want = 25.0 * 0.25 / 25.25
        assert p.variance == pytest.approx(want, rel=1e-10)
        assert p.mean == pytest.approx(15.0 + (20.0 - 15.0) * 25.0 / 25.25, rel=1e-10)

    def test_noise_free_interpolation(self):
        kernel = KernelSpec(60.0, 25.0, 0.0)
        rng = np.random.default_rng(2)
        data = make_data(rng, 8, min_spacing=50.0)
        got = posterior_predict(kernel, data, 15.0, data.locations)
        np.testing.assert_allclose(
            [p.mean for p in got], data.values, rtol=0, atol=1e-6
        )
        assert max(p.variance for p in got) < 1e-6

    def test_duplicate_locations_jitter_recovery(self):
        kernel = KernelSpec(60.0, 25.0, 0.0)
        data = DataSet(0.0, [Sample((50.0, 50.0), 20.0), Sample((50.0, 50.0), 20.0)])
        (p,) = posterior_predict(kernel, data, 15.0, [[50.0, 50.0]])
        assert p.mean == pytest.approx(20.0, abs=1e-3)
        assert p.variance >= 0.0

    def test_condition_cap_raises(self):
        gram = np.diag([1.0, 1e-30])
        with pytest.raises(NumericalError, match="ill-conditioned"):
            _chol_with_jitter(gram, KERNEL, 2)

    def test_condition_within_cap_passes(self):
        gram = np.diag([1.0, 1e-10])
        low = _chol_with_jitter(gram, KERNEL, 2)
        assert np.allclose(low @ low.T, gram)


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


class TestAdmissibleLocations:
    @given(st.integers(0, 2**31 - 1), st.floats(5.0, 60.0))
    @settings(max_examples=40, deadline=None)
    def test_matches_sequential_insertion(self, seed, spacing):
        rng = np.random.default_rng(seed)
        existing_data = DataSet(min_spacing=spacing)
        for _ in range(10):
            existing_data.insert(Sample(tuple(rng.uniform(0, 300, 2)), 0.0))
        candidates = rng.uniform(0, 300, (30, 2))

        got = admissible_locations(candidates, spacing, existing_data.locations)

        sim = existing_data.copy()
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


class TestLocalSubset:
    def test_radius_is_inclusive(self):
        data = DataSet(0.0, [Sample((0.0, 0.0), 1.0), Sample((100.0, 0.0), 2.0)])
        sub = local_subset(data, (0.0, 0.0), 100.0)
        assert len(sub) == 2
        sub = local_subset(data, (0.0, 0.0), 99.9)
        assert len(sub) == 1

    def test_local_prediction_variance_ordering(self):
        # Truncating to fewer samples can only raise predictive variance,
        # and nested radii give nested data sets.
        rng = np.random.default_rng(4)
        data = make_data(rng, 60, min_spacing=30.0, span=600.0)
        queries = rng.uniform(100, 500, (10, 2))
        narrow = posterior_predict_local(KERNEL, data, 15.0, queries, 2 * 60.0)
        wide = posterior_predict_local(KERNEL, data, 15.0, queries, 5 * 60.0)
        full = posterior_predict(KERNEL, data, 15.0, queries)
        for a, b, c in zip(narrow, wide, full):
            assert a.variance >= b.variance - 1e-9
            assert b.variance >= c.variance - 1e-9

    def test_local_prediction_exact_when_radius_covers_data(self):
        rng = np.random.default_rng(7)
        data = make_data(rng, 20, min_spacing=30.0, span=300.0)
        queries = rng.uniform(0, 300, (5, 2))
        local = posterior_predict_local(KERNEL, data, 15.0, queries, 1e6)
        full = posterior_predict(KERNEL, data, 15.0, queries)
        for a, b in zip(local, full):
            assert a.mean == pytest.approx(b.mean, rel=1e-10)
            assert a.variance == pytest.approx(b.variance, rel=1e-10)


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
