"""Bayes-risk objective: declarations, expected risk, benefit of search."""

import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from isobath.gp import DataSet, KernelSpec, Sample
from isobath.risk import (
    LossParams,
    bayes_risk_batch,
    declare,
    expected_bayes_risk_closed_batch,
)
from reference import (
    VarianceReduction,
    bayes_estimate,
    bayes_risk,
    benefit_of_search,
    expected_bayes_risk_closed,
    expected_bayes_risk_general,
    expected_bayes_risk_mc,
    expected_bayes_risk_quadrature,
    expected_benefit_of_search,
    mu_star,
    variance_reduction,
)

EQUAL = LossParams(level=15.0, cost_deep_wrong=10.0, cost_shallow_wrong=10.0)
SKEWED = LossParams(level=15.0, cost_deep_wrong=2.0, cost_shallow_wrong=18.0)
KERNEL = KernelSpec(60.0, 25.0, 0.5)


def phi(x):
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


class TestBayesRisk:
    def test_direct_formula(self):
        for loss in (EQUAL, SKEWED):
            for mean in (10.0, 14.5, 15.0, 15.5, 22.0):
                for var in (0.04, 1.0, 25.0):
                    p_shallow = phi((loss.level - mean) / math.sqrt(var))
                    want = min(
                        loss.cost_deep_wrong * p_shallow,
                        loss.cost_shallow_wrong * (1 - p_shallow),
                    )
                    assert bayes_risk(mean, var, loss) == pytest.approx(
                        want, rel=1e-12
                    )

    def test_zero_variance_is_certain(self):
        assert bayes_risk(10.0, 0.0, EQUAL) == 0.0
        assert bayes_risk(15.0, 0.0, EQUAL) == 0.0

    def test_peak_at_level_for_equal_costs(self):
        # Equal costs and mean at the level: both declarations cost the
        # same, risk is c/2.
        assert bayes_risk(15.0, 4.0, EQUAL) == pytest.approx(5.0, rel=1e-12)

    def test_risk_bounded_by_worst_tie(self):
        rng = np.random.default_rng(0)
        means = rng.uniform(0, 30, 500)
        varis = rng.uniform(1e-4, 50, 500)
        risks = bayes_risk_batch(means, varis, SKEWED)
        peak = 2.0 * 18.0 / 20.0
        assert np.all(risks >= 0)
        assert np.all(risks <= peak + 1e-12)

    def test_estimate_threshold(self):
        # Skewed costs move the declaration boundary off the level.
        assert bayes_estimate(15.0, 1.0, EQUAL) == 1
        assert bayes_estimate(14.99, 1.0, EQUAL) == 0
        assert bayes_estimate(15.01, 1.0, EQUAL) == 1
        # Declaring safe is cheap to get wrong here (c1 = 2 < c2 = 18),
        # so safe is declared even well above the level.
        assert bayes_estimate(16.0, 1.0, SKEWED) == 1
        assert bayes_estimate(15.0, 0.0, EQUAL) == 1
        assert bayes_estimate(14.0, 0.0, EQUAL) == 0


class TestDeclare:
    @pytest.mark.parametrize("costs", [(10.0, 10.0), (16.0, 4.0)], ids=["10-10", "16-4"])
    def test_the_declaration_is_the_reference_one_cell_by_cell(self, costs):
        loss = LossParams(15.0, *costs)
        rng = np.random.default_rng(3)
        # Means about the level and at it, every fifth variance zero.
        means = np.concatenate([rng.uniform(10.0, 20.0, 300), [15.0] * 4])
        varis = np.concatenate([rng.uniform(0.0, 9.0, 300), [0.0, 1e-300, 1.0, 4.0]])
        varis[::5] = 0.0
        safe, risk = declare(means, varis, loss)
        want = [bayes_estimate(m, v, loss) == 1 for m, v in zip(means, varis)]
        assert safe.tolist() == want
        assert sum(want) not in (0, len(want))
        # The risk is the smaller expected cost; without variance it is +0.0.
        live = varis > 0
        p = np.array([phi((15.0 - m) / math.sqrt(v)) for m, v in zip(means[live], varis[live])])
        want_risk = np.minimum(costs[0] * p, costs[1] * (1.0 - p))
        np.testing.assert_allclose(risk[live], want_risk, rtol=1e-12, atol=1e-12)
        dead = risk[~live]
        assert dead.size and not dead.any() and not np.signbit(dead).any()
        assert risk.tobytes() == bayes_risk_batch(means, varis, loss).tobytes()


class TestMuStar:
    @given(
        st.floats(0.01, 10.0),
        st.floats(0.1, 50.0),
        st.floats(0.1, 50.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_flip_point_balances_costs(self, sigma, c1, c2):
        loss = LossParams(15.0, c1, c2)
        ms = mu_star(sigma, loss)
        p_shallow = phi((loss.level - ms) / sigma)
        assert c1 * p_shallow == pytest.approx(c2 * (1 - p_shallow), abs=1e-9)

    def test_equal_costs_flip_at_level(self):
        assert mu_star(3.0, EQUAL) == 15.0
        assert mu_star(0.0, SKEWED) == 15.0


class TestExpectedRiskEvaluators:
    def grid(self):
        cells = []
        for loss in (EQUAL, SKEWED):
            for dmu in (-3.0, -0.5, 0.0, 0.5, 3.0):
                for s2mu in (0.04, 1.0, 9.0):
                    for s2q in (1e-6, 0.25, 4.0):
                        cells.append((loss, 15.0 + dmu, s2mu, s2q))
        return cells

    def test_closed_matches_quadrature(self):
        worst = 0.0
        for loss, mu, s2mu, s2q in self.grid():
            inputs = VarianceReduction(mu, s2mu, s2q)
            closed = expected_bayes_risk_closed(inputs, loss)
            quad = expected_bayes_risk_quadrature(inputs, loss)
            worst = max(worst, abs(closed - quad))
        assert worst <= 1e-3

    def test_closed_matches_monte_carlo(self):
        # Route through an actual belief so the MC evaluator exercises the
        # full conditioning path rather than synthetic inputs.
        rng = np.random.default_rng(1)
        data = DataSet(min_spacing=30.0)
        for _ in range(12):
            data.insert(Sample(tuple(rng.uniform(0, 300, 2)), float(rng.normal(15, 3))))
        for query in [(100.0, 120.0), (220.0, 60.0)]:
            planned = rng.uniform(0, 300, (5, 2))
            vr = variance_reduction(KERNEL, data, planned, query, prior_mean=15.0)
            closed = expected_bayes_risk_closed(vr, EQUAL)
            est, stderr = expected_bayes_risk_mc(
                KERNEL, data, planned, query, EQUAL,
                prior_mean=15.0, n_draws=40000, seed=7,
            )
            assert abs(closed - est) <= 3.0 * stderr + 1e-4

    def test_no_mean_spread_reduces_to_current_risk(self):
        inputs = VarianceReduction(14.0, 0.0, 2.0)
        want = bayes_risk(14.0, 2.0, EQUAL)
        assert expected_bayes_risk_closed(inputs, EQUAL) == pytest.approx(want)

    def test_fully_resolving_measurement_leaves_no_risk(self):
        inputs = VarianceReduction(15.0, 4.0, 0.0)
        assert expected_bayes_risk_closed(inputs, EQUAL) == pytest.approx(
            0.0, abs=1e-9
        )

    def test_small_residual_variance_analytic_limit(self):
        # As the post-measurement variance vanishes, only means landing
        # within O(sigma_q) of the level keep any risk; the expectation
        # collapses to sigma_q * pdf(level) * (c1 + c2) / sqrt(2 pi).
        s2mu = 1.0
        mu = 15.0
        for s2q in (1e-4, 1e-6):
            inputs = VarianceReduction(mu, s2mu, s2q)
            closed = expected_bayes_risk_closed(inputs, EQUAL)
            pdf = math.exp(0.0) / math.sqrt(2 * math.pi * s2mu)
            want = math.sqrt(s2q) * pdf * 20.0 / math.sqrt(2 * math.pi)
            assert closed == pytest.approx(want, rel=2e-2)

    @given(
        st.floats(-6.0, 6.0),
        st.floats(1e-8, 30.0),
        st.floats(1e-8, 30.0),
        st.floats(0.2, 30.0),
        st.floats(0.2, 30.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_closed_form_within_provable_range(self, dmu, s2mu, s2q, c1, c2):
        loss = LossParams(15.0, c1, c2)
        val = expected_bayes_risk_closed(
            VarianceReduction(15.0 + dmu, s2mu, s2q), loss
        )
        peak = c1 * c2 / (c1 + c2)
        assert -1e-12 <= val <= peak + 1e-9

    # The batch the planner runs has no fallback; quadrature checks it
    # directly, down to mean variances that are rounding residue.
    BATCH_BOUND = 1e-8

    def test_batch_at_a_small_mean_variance_from_a_mission(self):
        # Rounded from an input of a seed-0 terminal mission, where
        # sigma_mu_sq is what rounding leaves of var_s - var_qfull.
        inputs = VarianceReduction(9.953481037360548, 5.3e-15, 14.7)
        got = expected_bayes_risk_closed_batch(
            np.array([inputs.mu_mu]), np.array([inputs.sigma_mu_sq]),
            np.array([inputs.sigma_pq_sq]), EQUAL,
        )[0]
        want = expected_bayes_risk_quadrature(inputs, EQUAL)
        assert abs(got - want) <= self.BATCH_BOUND

    @given(
        st.floats(-6.0, 6.0),
        st.floats(-16.0, -2.0),
        st.floats(1e-2, 30.0),
        st.sampled_from([EQUAL, SKEWED]),
    )
    @settings(max_examples=150, deadline=None)
    def test_batch_matches_quadrature_at_small_mean_variance(
        self, dmu, log10_s2mu, s2q, loss
    ):
        inputs = VarianceReduction(15.0 + dmu, 10.0**log10_s2mu, s2q)
        got = expected_bayes_risk_closed_batch(
            np.array([inputs.mu_mu]), np.array([inputs.sigma_mu_sq]),
            np.array([inputs.sigma_pq_sq]), loss,
        )[0]
        want = expected_bayes_risk_quadrature(inputs, loss)
        assert abs(got - want) <= self.BATCH_BOUND

    def test_more_informative_measurements_lower_expected_risk(self):
        # Growing sigma_mu_sq at fixed total variance means the planned
        # measurements explain more, so expected risk cannot rise.
        total = 9.0
        prev = math.inf
        for s2mu in (0.5, 2.0, 5.0, 8.0, 8.999):
            val = expected_bayes_risk_closed(
                VarianceReduction(15.7, s2mu, total - s2mu), EQUAL
            )
            assert val <= prev + 1e-9
            prev = val


class TestClosedBatchIsElementwise:
    """Each element's expected risk does not depend on its batch.

    The planner scores several location sets in one call over their
    concatenated inputs and reads each set's values from its slice, so
    a batch must return bit for bit what its parts return alone. A
    search's warm-up call scores up to 25 sets of a few dozen nearby
    evaluation points each, hence up to 30 parts of up to 50 elements.
    """

    @given(
        st.integers(0, 2**31 - 1),
        st.lists(st.integers(0, 50), min_size=1, max_size=30),
        st.sampled_from([EQUAL, SKEWED, LossParams(15.0, 13.0, 4.0)]),
        st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_concatenation_equals_the_parts(self, seed, sizes, loss, degenerate):
        rng = np.random.default_rng(seed)
        n = sum(sizes)
        mu = rng.normal(15.0, 4.0, n)
        s2mu = rng.exponential(3.0, n)
        s2q = rng.exponential(3.0, n)
        if degenerate:
            # Some elements have no mean spread or no residual variance,
            # the two degenerate branches; some have a tiny residual
            # variance. Without them every element takes the live path.
            s2mu = s2mu * (rng.random(n) > 0.15)
            s2q = s2q * (rng.random(n) > 0.15)
            s2q = np.where(rng.random(n) < 0.1, rng.exponential(1e-6, n), s2q)
        whole = expected_bayes_risk_closed_batch(mu, s2mu, s2q, loss)
        cuts = np.cumsum(sizes)[:-1]
        parts = [
            expected_bayes_risk_closed_batch(m, a, q, loss)
            for m, a, q in zip(
                np.split(mu, cuts), np.split(s2mu, cuts), np.split(s2q, cuts)
            )
        ]
        assert np.array_equal(whole, np.concatenate(parts))


class TestBenefitOfSearch:
    def test_no_new_data_is_worth_exactly_zero(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            data = DataSet(min_spacing=30.0)
            for _ in range(rng.integers(0, 10)):
                data.insert(
                    Sample(tuple(rng.uniform(0, 400, 2)), float(rng.normal(15, 3)))
                )
            pts = rng.uniform(0, 400, (30, 2))
            assert (
                benefit_of_search(data, [], pts, KERNEL, EQUAL, prior_mean=15.0)
                == 0.0
            )

    def test_expected_benefit_is_nonnegative(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            data = DataSet(min_spacing=30.0)
            for _ in range(rng.integers(0, 12)):
                data.insert(
                    Sample(tuple(rng.uniform(0, 400, 2)), float(rng.normal(15, 3)))
                )
            planned = rng.uniform(0, 400, (rng.integers(1, 8), 2))
            pts = rng.uniform(0, 400, (40, 2))
            val = expected_benefit_of_search(
                data, planned, pts, KERNEL, EQUAL, prior_mean=15.0
            )
            assert val >= -1e-6

    def test_expected_benefit_matches_pointwise_assembly(self):
        rng = np.random.default_rng(4)
        data = DataSet(min_spacing=30.0)
        for _ in range(8):
            data.insert(Sample(tuple(rng.uniform(0, 300, 2)), float(rng.normal(15, 3))))
        planned = rng.uniform(0, 300, (4, 2))
        pts = rng.uniform(0, 300, (12, 2))
        got = expected_benefit_of_search(
            data, planned, pts, KERNEL, EQUAL, prior_mean=15.0
        )
        want = 0.0
        for p in pts:
            vr = variance_reduction(KERNEL, data, planned, p, prior_mean=15.0)
            now = bayes_risk(vr.mu_mu, vr.sigma_mu_sq + vr.sigma_pq_sq, EQUAL)
            want += now - expected_bayes_risk_closed(vr, EQUAL)
        assert got == pytest.approx(want, rel=1e-9, abs=1e-9)

    def test_realized_benefit_uses_measured_values(self):
        data = DataSet(min_spacing=30.0)
        data.insert(Sample((0.0, 0.0), 15.0))
        pts = np.array([[50.0, 0.0]])
        surprising = [Sample((50.0, 0.0), 15.0)]  # right at the level
        helpful = [Sample((50.0, 0.0), 25.0)]  # clearly deep
        b_surprise = benefit_of_search(data, surprising, pts, KERNEL, EQUAL, prior_mean=15.0)
        b_helpful = benefit_of_search(data, helpful, pts, KERNEL, EQUAL, prior_mean=15.0)
        assert b_helpful > b_surprise


def _spreads(live: bool):
    """Variances: ordinary ones, 1e-300-scale ones either side of the
    degenerate threshold, and (unless ``live``) exact zeros."""
    kinds = [
        st.floats(1e-12, 50.0),
        st.floats(1.0000001e-300, 1e-297),
    ]
    if not live:
        kinds += [st.just(0.0), st.floats(0.0, 1e-300)]
    return st.one_of(*kinds)


@st.composite
def closed_batches(draw):
    """(mu_mu, sigma_mu_sq, sigma_pq_sq, loss) as the evaluator calls the batch.

    Half the batches have only live elements, the ones the equal-cost
    reduction serves; the rest mix in degenerate spreads. Means sit at
    the level (zero heads), an ulp or a hair from it, or anywhere near
    it. Some elements are built as ``EpisodeEvaluator`` builds them,
    from a grid variance, the base plan's residual and a reduction,
    each clipped at zero.
    """
    level = draw(st.sampled_from([15.0, 0.0, -3.5]))
    c1 = draw(st.floats(0.5, 50.0))
    c2 = draw(st.one_of(st.just(c1), st.floats(0.5, 50.0)))
    live = draw(st.booleans())
    at_level = draw(st.booleans())
    means = [
        st.floats(level - 40.0, level + 40.0),
        st.floats(-1e-160, 1e-160).map(lambda d: level + d),
        st.sampled_from([np.nextafter(level, -1.0), np.nextafter(level, 1.0)]),
    ]
    if at_level:
        means.append(st.just(level))
    element = st.tuples(st.one_of(*means), _spreads(live), _spreads(live))
    mu, s2mu, s2q = (np.array(v, dtype=float) for v in zip(
        *draw(st.lists(element, min_size=1, max_size=60))
    ))
    if draw(st.booleans()):
        # The evaluator's own clipping: var_qfull = max(var_qbase - dvar, 0)
        # and sigma_mu^2 = max(var_s - var_qfull, 0).
        var_s = np.array(draw(st.lists(
            st.floats(0.0, 25.0), min_size=mu.size, max_size=mu.size)))
        var_qbase = var_s * draw(st.floats(0.0, 1.0))
        dvar = var_qbase * draw(st.floats(0.0, 1.2))
        s2q = np.maximum(var_qbase - dvar, 0.0)
        s2mu = np.maximum(var_s - s2q, 0.0)
    if draw(st.booleans()) and mu.size % 2 == 0:
        mu, s2mu, s2q = (v.reshape(2, -1) for v in (mu, s2mu, s2q))
    return mu, s2mu, s2q, LossParams(level, c1, c2)


class TestClosedBatchMatchesTheGeneralForm:
    """For equal costs the batch drops T(x, a1) and the normal-CDF term.

    Equal costs put mu* at the level, so a1 = +-0 and T(x, +-0) = 0, and
    (c2 - c1)(Phi(x) - Phi(k))/2 is a signed zero. The batch skips them,
    so it must still return, bit for bit, what the general form returns.
    """

    @given(closed_batches())
    @settings(max_examples=400, deadline=None)
    def test_values_and_sign_bits_equal_the_general_form(self, batch):
        mu, s2mu, s2q, loss = batch
        got = expected_bayes_risk_closed_batch(mu, s2mu, s2q, loss)
        want = expected_bayes_risk_general(mu, s2mu, s2q, loss)
        assert got.shape == want.shape
        assert np.array_equal(got, want, equal_nan=True)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    # (level, mean, sigma_mu^2, sigma_pq^2) of the elements the reduction
    # must hand back to the general form, and of one it must not.
    EDGES = {
        # A zero head: both limits of the module docstring apply.
        "mean_at_the_level": (15.0, 15.0, 3.0, 2.0),
        # x k underflows, so beta is 0 where it would be 1/2.
        "xk_underflows": (0.0, -4.95e-162, 49.0, 49.0),
        # a2's denominator underflows and the slope is 0/0.
        "slope_denominator_underflows": (0.0, 1e-30, 2e-300, 2e-300),
        # Taken by the reduction: an ulp from the level at tiny spreads.
        "an_ulp_from_the_level": (15.0, float(np.nextafter(15.0, 16.0)), 2e-300, 2e-300),
    }

    @pytest.mark.parametrize("name", sorted(EDGES))
    def test_edge_elements_alone_and_in_a_batch(self, name):
        level, mean, s2mu, s2q = self.EDGES[name]
        loss = LossParams(level, 10.0, 10.0)
        rng = np.random.default_rng(3)
        mu = np.append(rng.normal(level, 4.0, 5), mean)
        a = np.append(rng.exponential(3.0, 5), s2mu)
        q = np.append(rng.exponential(3.0, 5), s2q)
        for part in (slice(5, 6), slice(0, 6)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = expected_bayes_risk_closed_batch(mu[part], a[part], q[part], loss)
            want = expected_bayes_risk_general(mu[part], a[part], q[part], loss)
            assert np.array_equal(got, want, equal_nan=True)
            assert np.array_equal(np.signbit(got), np.signbit(want))

    @pytest.mark.parametrize("mean", [1e-160, -1e-160])
    def test_an_overflowing_slope_warns_nothing(self, mean):
        # Unequal costs put mu* off the level, so with a mean 1e-160 from
        # it and a 1e-300-scale mean spread a2 overflows to an infinite
        # slope, whose Owen's T is its limit: no warning, no other value.
        loss = LossParams(0.0, 10.0, 4.0)
        rng = np.random.default_rng(3)
        mu = np.append(rng.normal(0.0, 4.0, 5), mean)
        a = np.append(rng.exponential(3.0, 5), 2e-300)
        q = np.append(rng.exponential(3.0, 5), 3.0)
        for part in (slice(5, 6), slice(0, 6)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = expected_bayes_risk_closed_batch(mu[part], a[part], q[part], loss)
                want = expected_bayes_risk_general(mu[part], a[part], q[part], loss)
            assert np.array_equal(got, want)
            assert np.all(np.isfinite(got))


PINNED = Path(__file__).resolve().parent / "data" / "closed_batch.json"


def pinned_batches():
    """Fixed closed-form batches, keyed by name, as (mu, s2mu, s2q, loss).

    Each mixes ordinary elements with the cases that take their own
    branch: a zero head x (mean at the flip point mu*), a zero head k
    (mean at the level), both at once (equal costs, mean at the level),
    no mean spread, no residual variance, and a tiny residual variance.
    """
    batches = {}
    losses = {
        "equal": EQUAL,
        "skewed": SKEWED,
        "reversed": LossParams(15.0, 13.0, 4.0),
    }
    for i, (name, loss) in enumerate(losses.items()):
        rng = np.random.default_rng(100 + i)
        n = 48
        mu = rng.normal(15.0, 4.0, n)
        s2mu = rng.exponential(3.0, n)
        s2q = rng.exponential(3.0, n)
        batches[f"{name}/live"] = (mu.copy(), s2mu.copy(), s2q.copy(), loss)
        c1, c2 = loss.cost_deep_wrong, loss.cost_shallow_wrong
        flip = float(special.erfinv((c2 - c1) / (c1 + c2)))
        # The flip point mu* as the batch computes it, so x is exactly 0.
        mu[0:4] = loss.level - flip * np.sqrt(s2q[0:4]) * math.sqrt(2.0)
        mu[4:8] = loss.level
        s2mu[8:12] = 0.0
        s2q[12:16] = 0.0
        s2q[16:20] = rng.exponential(1e-6, 4)
        s2mu[20] = s2q[20] = 0.0
        batches[f"{name}/mixed"] = (mu, s2mu, s2q, loss)
        batches[f"{name}/grid"] = (
            mu[24:36].reshape(3, 4), s2mu[24:36].reshape(3, 4),
            s2q[24:36].reshape(3, 4), loss,
        )
    return batches


class TestClosedBatchIsPinned:
    """The batch returns bit for bit what it returned when the file was written.

    Speed work on the closed form must leave every float as it was; a
    tolerance would let a reordered expression through. The pinned
    values were written from ``pinned_batches`` by the batch as it stood
    at commit f1aa9bb, before its per-call trims, and no test rewrites
    them.
    """

    @pytest.mark.parametrize("name", sorted(pinned_batches()))
    def test_batch_equals_the_pinned_values(self, name):
        mu, s2mu, s2q, loss = pinned_batches()[name]
        want = np.array(json.loads(PINNED.read_text())[name], dtype=float)
        got = expected_bayes_risk_closed_batch(mu, s2mu, s2q, loss)
        assert got.shape == want.shape
        assert np.array_equal(got, want)
